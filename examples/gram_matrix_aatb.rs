//! Gram-matrix workload: `X := A·Aᵀ·B` executed with the **real kernels**.
//!
//! In covariance/Gram-matrix pipelines (e.g. the normal equations of a least
//! squares problem, or whitening a block of signals) one repeatedly forms
//! `A·Aᵀ` and applies it to a block of vectors `B`. This example runs all
//! five algorithm variants of the paper on actual matrices with the
//! `MeasuredExecutor` (blocked, packed, Rayon-parallel kernels; median of
//! repetitions; cache flushed between repetitions) and verifies that they all
//! produce the same result up to round-off.
//!
//! ```text
//! cargo run --release --example gram_matrix_aatb
//! ```

use lamb::matrix::ops::max_abs_diff;
use lamb::matrix::random::random_seeded;
use lamb::prelude::*;

fn main() {
    // Modest sizes so the example finishes in seconds even on a laptop.
    let (d0, d1, d2) = (192usize, 640usize, 768usize);
    println!("X := A*A^T*B with A {d0}x{d1}, B {d0}x{d2} (real kernels)\n");

    let aatb = TreeExpression::parse("A*A^T*B").expect("well-formed text");
    let mut executor = MeasuredExecutor::new(
        MachineModel::generic_laptop(),
        BlockConfig::default(),
        3,
        32 * 1024 * 1024,
    );

    // Time each algorithm once with the paper's measurement protocol; the
    // table and the verdict both read that one execution.
    let plan = Planner::for_expression(&aatb)
        .score_predictions(false)
        .plan_with(&[d0, d1, d2], &mut executor)
        .expect("valid instance");
    let outcome = plan.execute_with(&mut executor);
    println!(
        "{:<42} {:>14} {:>12} {:>8}",
        "algorithm", "FLOPs", "time [ms]", "eff"
    );
    let machine = executor.machine();
    for (alg, t) in plan.algorithms.iter().zip(&outcome.timings) {
        println!(
            "{:<42} {:>14} {:>12.2} {:>8.2}",
            alg.name,
            t.flops,
            t.seconds * 1e3,
            t.efficiency(machine)
        );
    }
    let verdict = &outcome.verdict;
    println!(
        "\ncheapest algorithms: {:?}   fastest algorithms: {:?}   anomaly at 10%: {}",
        verdict.cheapest, verdict.fastest, verdict.is_anomaly
    );

    // Numerical cross-validation: compute X with the two extreme variants by
    // hand and compare.
    let cfg = BlockConfig::default();
    let a = random_seeded(d0, d1, 1);
    let b = random_seeded(d0, d2, 2);
    let run = |op: KernelOp, inputs: &[&Matrix]| NativeBackend.run_new(&op, inputs, &cfg).unwrap();
    let (uplo, side) = (Uplo::Lower, Side::Left);
    // Variant 1: SYRK triangle + SYMM.
    let syrk = KernelOp::Syrk {
        uplo,
        trans: Trans::No,
        n: d0,
        k: d1,
    };
    let tri = run(syrk, &[&a]);
    let symm = KernelOp::Symm {
        side,
        uplo,
        m: d0,
        n: d2,
    };
    let x_syrk = run(symm, &[&tri, &b]);
    // Variant 5: GEMM(Aᵀ·B) then GEMM(A·M).
    let gemm = |transa, m, k| KernelOp::Gemm {
        transa,
        transb: Trans::No,
        m,
        n: d2,
        k,
    };
    let m = run(gemm(Trans::Yes, d1, d0), &[&a, &b]);
    let x_gemm = run(gemm(Trans::No, d0, d1), &[&a, &m]);
    let diff = max_abs_diff(&x_syrk, &x_gemm).unwrap();
    println!("max |X_syrk+symm - X_gemm+gemm| = {diff:.3e} (mathematically equivalent)");
    assert!(diff < 1e-8, "algorithm variants must agree numerically");
}
