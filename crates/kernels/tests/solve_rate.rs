//! Solve-tier rate guard: the kernels a resident factor is solved against,
//! timed against GEMM in the same process.
//!
//! Each ratio is a ratio of minima over interleaved runs, so a slow or noisy
//! runner slows both sides alike. Release mode only: CI runs it with
//! `cargo test --release -p lamb-kernels -- --ignored solve_tier`.
//!
//! The bounds sit at least a fifth above what the kc-blocked fused TRSM and
//! the storage-reading block reflector measure and below what their
//! predecessors measured, in five interleaved runs of each on a 2-vCPU
//! x86-64 with AVX-512 (8 x 8 tile): ORMQR geometric mean 1.72–1.80, max
//! 1.84–2.02 (before: 2.48–2.64, max 2.79–3.25); TRSM geometric mean
//! 0.61–0.64, max 0.71–0.75 (before: 0.85–0.88, max 1.00–1.05).

use lamb_kernels::{gemm, ormqr, trsm, Backend, BlockConfig, KernelOp, NativeBackend};
use lamb_matrix::random::{random_seeded, random_triangular};
use lamb_matrix::{Matrix, Side, Trans, Uplo};
use std::hint::black_box;
use std::time::Instant;

/// Interleaved runs per shape; the minimum of each side is kept.
const RUNS: usize = 25;

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

/// `C := A·B` for fresh operands of the given shape: the GEMM a ratio is
/// taken against.
fn gemm_of(m: usize, n: usize, k: usize, cfg: &BlockConfig) -> impl FnMut() + '_ {
    let (a, b) = (random_seeded(m, k, 1), random_seeded(k, n, 2));
    let mut c = Matrix::zeros(m, n);
    move || {
        let (av, bv) = (a.view(), b.view());
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            &av,
            &bv,
            0.0,
            &mut c.view_mut(),
            cfg,
        )
        .unwrap();
        black_box(&c);
    }
}

fn geometric_mean(ratios: &[f64]) -> f64 {
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

fn check(name: &str, ratios: &[f64], mean_bound: f64, max_bound: f64) {
    let (mean, max) = (
        geometric_mean(ratios),
        ratios.iter().copied().fold(0.0, f64::max),
    );
    eprintln!("{name}: geometric mean {mean:.3}, max {max:.3}, ratios {ratios:.3?}");
    assert!(
        mean <= mean_bound && max <= max_bound,
        "{name}: geometric mean {mean:.3} (bound {mean_bound}), max {max:.3} (bound {max_bound})"
    );
}

/// ORMQR at the `A^+*b` shapes of a factor-once, solve-many request — an
/// operand of `3n/2 x n`, thin to wide right-hand sides — against the GEMM of
/// equal FLOPs that writes the same `n x k` block: `(n x (2m - n))·((2m - n)
/// x k)`, `2nk(2m - n)` FLOPs either way.
#[test]
#[ignore = "timing ratio: run in release mode"]
fn solve_tier_ormqr_runs_near_gemm_rate() {
    let cfg = BlockConfig::serial();
    let mut ratios = Vec::new();
    for (m, n) in [(384, 256), (576, 384)] {
        let a = random_seeded(m, n, 3);
        let f = NativeBackend
            .run_new(&KernelOp::Qr { m, n }, &[&a], &cfg)
            .unwrap();
        for k in [8, 32, 128] {
            let b = random_seeded(m, k, 4);
            let mut c = Matrix::zeros(n, k);
            let apply = || {
                ormqr(&f, &b, &mut c, &cfg).unwrap();
                black_box(&c);
            };
            ratios.push(ratio_of_minima(apply, gemm_of(n, k, 2 * m - n, &cfg)));
        }
    }
    check("ORMQR / equal-FLOP GEMM", &ratios, 2.2, 2.6);
}

/// Left TRSM, plain and transposed, at the orders and widths of a
/// factor-once, solve-many request, against `gemm(L, B)` — twice its FLOPs.
#[test]
#[ignore = "timing ratio: run in release mode"]
fn solve_tier_trsm_runs_near_gemm_rate() {
    let cfg = BlockConfig::serial();
    let mut ratios = Vec::new();
    for n in [256, 384] {
        let l = random_triangular(n, Uplo::Lower, 5);
        for w in [8, 32, 128] {
            let b = random_seeded(n, w, 6);
            for trans in [Trans::No, Trans::Yes] {
                let mut x = Matrix::zeros(n, w);
                let solve = || {
                    let (lv, bv) = (l.view(), b.view());
                    let mut xv = x.view_mut();
                    trsm(Side::Left, Uplo::Lower, trans, 1.0, &lv, &bv, &mut xv, &cfg).unwrap();
                    black_box(&x);
                };
                ratios.push(ratio_of_minima(solve, gemm_of(n, w, n, &cfg)));
            }
        }
    }
    check("left TRSM / gemm(L, B)", &ratios, 0.78, 0.9);
}
