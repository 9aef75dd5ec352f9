//! Small-call rate guard: calls under the small-call rule timed against the
//! work that cannot be taken out of them, in the same process.
//!
//! Each ratio is a ratio of minima over interleaved runs, so a slow or noisy
//! runner slows both sides alike. Release mode only: CI runs it with
//! `cargo test --release -p lamb-kernels -- --ignored small_call`.
//!
//! Each bound sits a fifth above the largest of five interleaved runs of the
//! small tier on a 2-vCPU x86-64 with AVX-512 (8 x 8 tile), against five
//! runs of the packed engine it replaced (`BENCH_small_calls.json` lists
//! them): GEMM over its bare micro-kernel 2.54–2.79 at order 16 and
//! 1.77–1.82 at 32 (before: 4.45–5.52 and 3.11–3.36), both bounds below
//! every run before; POTRF over GEMM at order 32 1.30–1.53 (before:
//! 1.84–2.04), its bound at the lowest run before. GETRF and QR over GEMM,
//! 1.88–2.06 and 2.94–3.95 (before: 2.10–2.22 and 2.16–2.32), guard against
//! a slide only: the reference GEMM sped up as much as GETRF did, and QR's
//! small path is the unblocked recurrence the packed engine already ran at
//! these orders.

use lamb_kernels::pack::{pack_a, pack_b};
use lamb_kernels::{
    gemm, microkernel_dyn, Backend, BlockConfig, KernelOp, NativeBackend, MAX_TILE_ACC,
};
use lamb_matrix::random::{random_seeded, random_spd};
use lamb_matrix::{Matrix, Trans, Uplo};
use std::hint::black_box;
use std::time::Instant;

/// Interleaved runs per ratio; the minimum of each side is kept.
const RUNS: usize = 400;

/// `min(t_op) / min(t_reference)` over [`RUNS`] alternating calls.
fn ratio_of_minima(mut op: impl FnMut(), mut reference: impl FnMut()) -> f64 {
    op();
    reference();
    let (mut best_op, mut best_ref) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..RUNS {
        let start = Instant::now();
        op();
        best_op = best_op.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        reference();
        best_ref = best_ref.min(start.elapsed().as_secs_f64());
    }
    best_op / best_ref
}

fn check(name: &str, ratio: f64, bound: f64) {
    eprintln!("{name}: {ratio:.3} (bound {bound})");
    assert!(ratio <= bound, "{name}: {ratio:.3} above the bound {bound}");
}

/// One call of `op` through the native backend on fresh operands: SPD for a
/// Cholesky factorisation, general otherwise.
fn call_of(op: KernelOp, cfg: &BlockConfig) -> impl FnMut() + '_ {
    let inputs: Vec<Matrix> = (op.input_shapes().enumerate())
        .map(|(i, (rows, cols, _))| match op {
            KernelOp::Potrf { .. } => random_spd(rows, 7),
            _ => random_seeded(rows, cols, 7 + i as u64),
        })
        .collect();
    let (rows, cols) = op.output_shape();
    let mut out = Matrix::zeros(rows, cols);
    move || {
        let refs: Vec<&Matrix> = inputs.iter().collect();
        NativeBackend.run_into(&op, &refs, &mut out, cfg).unwrap();
        black_box(&out);
    }
}

/// `C := A·B` at order `n` through [`gemm`], against the bare micro-kernel
/// over panels packed beforehand: the same number of `n`-deep tiles, nothing
/// packed, scaled or written back.
#[test]
#[ignore = "timing ratio: run in release mode"]
fn small_call_gemm_runs_near_its_micro_kernel() {
    let cfg = BlockConfig::serial();
    let tile = cfg.tile;
    for (n, bound) in [(16, 3.4), (32, 2.2)] {
        let (a, b) = (random_seeded(n, n, 1), random_seeded(n, n, 2));
        let mut c = Matrix::zeros(n, n);
        let product = || {
            let (av, bv) = (a.view(), b.view());
            gemm(
                Trans::No,
                Trans::No,
                1.0,
                &av,
                &bv,
                0.0,
                &mut c.view_mut(),
                &cfg,
            )
            .unwrap();
            black_box(&c);
        };
        let (mut ap, mut bp) = (Vec::new(), Vec::new());
        pack_a(tile.mr(), n, n, |i, p| a[(i, p)], &mut ap);
        pack_b(tile.nr(), n, n, |p, j| b[(p, j)], &mut bp);
        let (a_panels, b_panels) = (n.div_ceil(tile.mr()), n.div_ceil(tile.nr()));
        let mut acc = [0.0; MAX_TILE_ACC];
        let tiles = || {
            for jb in bp.chunks_exact(n * tile.nr()).take(b_panels) {
                for ia in ap.chunks_exact(n * tile.mr()).take(a_panels) {
                    microkernel_dyn(tile, n, ia, jb, &mut acc);
                    black_box(&acc);
                }
            }
        };
        let ratio = ratio_of_minima(product, tiles);
        check(&format!("GEMM n{n} / its micro-kernel"), ratio, bound);
    }
}

/// POTRF, GETRF and QR at order 32 through the native backend, against the
/// GEMM of the same order.
#[test]
#[ignore = "timing ratio: run in release mode"]
fn small_call_factorisations_run_near_gemm_rate() {
    let cfg = BlockConfig::serial();
    let n = 32;
    let gemm_op = KernelOp::Gemm {
        transa: Trans::No,
        transb: Trans::No,
        m: n,
        n,
        k: n,
    };
    let lower = Uplo::Lower;
    let cases = [
        (KernelOp::Potrf { uplo: lower, n }, 1.84),
        (KernelOp::Getrf { n }, 2.5),
        (KernelOp::Qr { m: n, n }, 4.75),
    ];
    for (op, bound) in cases {
        let ratio = ratio_of_minima(call_of(op.clone(), &cfg), call_of(gemm_op.clone(), &cfg));
        check(&format!("{} n{n} / GEMM n{n}", op.mnemonic()), ratio, bound);
    }
}
