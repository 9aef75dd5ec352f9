//! End-to-end sweep: every algorithm the enumerator emits for every built-in
//! scenario family must pass the `lamb-verify` static analyser with zero
//! error-severity diagnostics. This is the test-suite twin of the
//! `lamb verify --demo N` CLI smoke and of the CI `verify-smoke` job.

use lamb::prelude::*;
use lamb::verify::verify_algorithm;
use lamb_experiments::{all_scenarios, scenario_batch_requests};

#[test]
fn all_scenario_families_enumerate_verified_algorithms() {
    let scenarios = all_scenarios();
    assert!(!scenarios.is_empty(), "scenario registry must not be empty");
    let requests = scenario_batch_requests(&scenarios, 2, 20220808, 60, 900);
    let mut checked = 0usize;
    for req in &requests {
        let algorithms = req
            .expr
            .algorithms_pruned(&req.dims, None)
            .unwrap_or_else(|e| panic!("enumeration failed for `{}`: {e}", req.expr));
        for alg in &algorithms {
            let report = verify_algorithm(alg);
            assert!(
                !report.has_errors(),
                "`{}` {:?} algorithm `{}` failed verification:\n{report}",
                req.expr,
                req.dims,
                alg.name
            );
            checked += 1;
        }
    }
    assert!(
        checked > 100,
        "expected a substantial sweep, verified only {checked} algorithms"
    );
}

#[test]
fn the_facade_exposes_the_verifier() {
    let aatb = TreeExpression::parse("A*A^T*B").unwrap();
    let algs = aatb.algorithms(&[80, 514, 768]).unwrap();
    for alg in &algs {
        // Both spellings: free function and extension trait.
        assert!(verify_algorithm(alg).is_clean());
        assert!(alg.verify().is_clean());
    }
}
