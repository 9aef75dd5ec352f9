//! Criterion bench behind Figure 1: throughput of the real GEMM, SYRK and
//! SYMM kernels on square operands of growing size. The reported throughput
//! (in FLOP/s) divided by the machine peak is the efficiency curve of the
//! paper's Figure 1; the expected shape is GEMM > SYMM ≳ SYRK with all three
//! ramping up with size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lamb_kernels::{Backend, BlockConfig, KernelOp, NativeBackend};
use lamb_matrix::random::random_seeded;
use lamb_matrix::{Matrix, Uplo};
use std::hint::black_box;
use std::time::Duration;

fn bench_kernels(c: &mut Criterion) {
    let cfg = BlockConfig::default();
    let mut group = c.benchmark_group("kernel_efficiency");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for &size in &[96usize, 192, 384] {
        let a = random_seeded(size, size, 1);
        let b = random_seeded(size, size, 2);
        let sym = {
            let mut s = random_seeded(size, size, 3);
            s.symmetrize_from(Uplo::Lower).unwrap();
            s
        };

        // The Figure-1 trio from the shared example list (square, lower,
        // untransposed, left side), each with its own operands.
        let cases: [(&str, Vec<&Matrix>); 3] = [
            ("gemm", vec![&a, &b]),
            ("syrk", vec![&a]),
            ("symm", vec![&sym, &b]),
        ];
        let examples = KernelOp::examples(size);
        for (name, inputs) in cases {
            let op = examples
                .iter()
                .find(|op| op.mnemonic() == name)
                .expect("every kernel has an example");
            group.throughput(Throughput::Elements(op.flops()));
            group.bench_with_input(BenchmarkId::new(name, size), &size, |bench, _| {
                bench.iter(|| black_box(NativeBackend.run_new(op, &inputs, &cfg).unwrap()));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
