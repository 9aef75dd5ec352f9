//! Ablation bench: naive vs blocked-serial vs blocked-parallel GEMM.
//!
//! Establishes that the packed/blocked kernel structure and the Rayon
//! parallelisation each contribute a meaningful speedup, i.e. that the
//! substrate kernels have a realistic efficiency ramp.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lamb_kernels::flops::gemm_flops;
use lamb_kernels::{gemm, gemm_naive, BlockConfig};
use lamb_matrix::random::random_seeded;
use lamb_matrix::{Matrix, Trans};
use std::hint::black_box;
use std::time::Duration;

fn bench_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_variants");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for &size in &[128usize, 256] {
        let a = random_seeded(size, size, 1);
        let b = random_seeded(size, size, 2);
        group.throughput(Throughput::Elements(gemm_flops(size, size, size)));

        group.bench_with_input(BenchmarkId::new("naive", size), &size, |bench, _| {
            let mut out = Matrix::zeros(size, size);
            bench.iter(|| {
                gemm_naive(
                    Trans::No,
                    Trans::No,
                    1.0,
                    &a.view(),
                    &b.view(),
                    0.0,
                    &mut out.view_mut(),
                )
                .unwrap();
                black_box(&out);
            });
        });

        let serial = BlockConfig::serial();
        group.bench_with_input(
            BenchmarkId::new("blocked_serial", size),
            &size,
            |bench, _| {
                let mut out = Matrix::zeros(size, size);
                bench.iter(|| {
                    gemm(
                        Trans::No,
                        Trans::No,
                        1.0,
                        &a.view(),
                        &b.view(),
                        0.0,
                        &mut out.view_mut(),
                        &serial,
                    )
                    .unwrap();
                    black_box(&out);
                });
            },
        );

        let parallel = BlockConfig {
            parallel_flop_threshold: 1,
            ..BlockConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("blocked_parallel", size),
            &size,
            |bench, _| {
                let mut out = Matrix::zeros(size, size);
                bench.iter(|| {
                    gemm(
                        Trans::No,
                        Trans::No,
                        1.0,
                        &a.view(),
                        &b.view(),
                        0.0,
                        &mut out.view_mut(),
                        &parallel,
                    )
                    .unwrap();
                    black_box(&out);
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_variants);
criterion_main!(benches);
