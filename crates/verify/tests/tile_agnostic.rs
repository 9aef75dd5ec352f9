//! The cost audit's tile-agnosticism contract.
//!
//! The cost-audit pass prices kernel calls from logical dimensions alone;
//! the register tile and cache blocking a machine is tuned to
//! (`lamb-kernels`' [`TileVariant`] / `BlockConfig`, discovered by
//! `calibrate --autotune`) must never perturb an audited FLOP claim. Two
//! halves are checked here: audited algorithms verify cleanly without any
//! blocking input existing in the verifier API, and the kernels those audits
//! price compute the same numbers under every register tile, so a tuned
//! configuration cannot make an audited claim wrong after the fact.

use lamb_expr::{enumerate_expr_algorithms, Expr};
use lamb_kernels::{Backend, BlockConfig, KernelOp, NativeBackend, TileVariant};
use lamb_matrix::ops::max_abs_diff;
use lamb_matrix::random::random_seeded;
use lamb_matrix::Trans;
use lamb_verify::verify_algorithm;

#[test]
fn audited_algorithms_are_clean_with_no_blocking_input_anywhere() {
    // `verify_algorithm` — and the cost audit inside it — takes the IR and
    // nothing else: there is no `BlockConfig` to pass, so one clean report
    // covers every tile variant a calibrated store might carry.
    let a = Expr::var("A", 24, 9);
    let expr = a.clone().mul(a.t()).mul(Expr::var("B", 24, 13));
    let algorithms = enumerate_expr_algorithms(&expr, None).unwrap();
    assert!(!algorithms.is_empty());
    for alg in &algorithms {
        let report = verify_algorithm(alg);
        assert!(
            report.is_clean(),
            "`{}` failed the blocking-free audit:\n{report}",
            alg.name
        );
    }
}

#[test]
fn every_register_tile_computes_the_flops_the_audit_prices() {
    // The audit prices a 31x29x27 GEMM at 2mnk FLOPs no matter how it is
    // blocked. Execute that very call under every register tile and confirm
    // the results agree: the tiles differ in speed, not in the computation
    // the FLOP count describes. (Odd sizes force partial tiles everywhere.)
    let (m, n, k) = (31, 29, 27);
    let a = random_seeded(m, k, 42);
    let b = random_seeded(k, n, 43);
    let op = KernelOp::Gemm {
        transa: Trans::No,
        transb: Trans::No,
        m,
        n,
        k,
    };
    let run = |cfg: &BlockConfig| NativeBackend.run_new(&op, &[&a, &b], cfg).unwrap();
    let reference = run(&BlockConfig::serial());
    for tile in TileVariant::ALL {
        let c = run(&BlockConfig::serial().with_tile(tile));
        assert!(
            max_abs_diff(&c, &reference).unwrap() < 1e-11 * k as f64,
            "tile {tile} diverged from the audited computation"
        );
    }
}
