//! Facade-level tests of the unified `Planner` pipeline:
//!
//! * **parity** — the planner reproduces `SelectionPolicy::select` on the
//!   raw algorithm set for every built-in policy on both paper expressions,
//!   and its execution's verdict is `classify` over a plain per-algorithm
//!   execution loop,
//! * **cache** — predictions served through the shared cache are identical
//!   to uncached `predict_from_isolated_calls` timings,
//! * **determinism** — `plan_grid` fan-out yields the same choices and
//!   verdicts as planning the same instances one by one, on every run.

use lamb::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_grid(num_dims: usize, instances: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..instances)
        .map(|_| (0..num_dims).map(|_| rng.random_range(20..=1200)).collect())
        .collect()
}

fn expressions() -> [TreeExpression; 2] {
    ["A*B*C*D", "A*A^T*B"].map(|text| TreeExpression::parse(text).unwrap())
}

/// The four built-in policies.
fn policies() -> [Box<dyn SelectionPolicy>; 4] {
    [
        Box::new(MinFlops),
        Box::new(MinPredictedTime),
        Box::new(Hybrid { flop_margin: 0.5 }),
        Box::new(Oracle),
    ]
}

#[test]
fn planner_reproduces_legacy_strategy_selection_on_both_paper_expressions() {
    for expr in expressions() {
        let grid = random_grid(expr.num_dims(), 25, 20220829);
        for (policy, owned) in policies().iter().zip(policies()) {
            let planner = Planner::for_expression(&expr).policy(owned);
            for dims in &grid {
                // Direct path: enumerate + select on a fresh executor.
                let algorithms = expr.algorithms(dims).expect("enumeration succeeds");
                let mut direct_exec = SimulatedExecutor::paper_like();
                let direct = policy
                    .select(&algorithms, &mut direct_exec)
                    .expect("non-empty algorithm set");
                // The pipeline.
                let plan = planner.plan(dims).expect("planning succeeds");
                assert_eq!(
                    plan.chosen,
                    direct,
                    "{} with {} on {:?}",
                    expr.name(),
                    policy.name(),
                    dims
                );
                assert_eq!(plan.policy, policy.name());
            }
        }
    }
}

#[test]
fn planner_execution_verdict_is_classify_over_a_plain_execution_loop() {
    let expr = TreeExpression::parse("A*A^T*B").unwrap();
    let planner = Planner::for_expression(&expr).threshold(0.10);
    for dims in random_grid(3, 10, 7) {
        // Direct path: execute every enumerated algorithm in order.
        let algorithms = expr.algorithms(&dims).expect("enumeration succeeds");
        let mut direct_exec = SimulatedExecutor::paper_like();
        let timings: Vec<AlgorithmTiming> = algorithms
            .iter()
            .map(|alg| direct_exec.execute_algorithm(alg))
            .collect();
        let direct_verdict = classify(timings.iter().map(|t| (t.flops, t.seconds)), 0.10);

        let outcome = planner.plan(&dims).unwrap().execute();
        assert_eq!(outcome.timings, timings, "on {dims:?}");
        assert_eq!(outcome.verdict, direct_verdict, "on {dims:?}");
    }
}

#[test]
fn cached_predictions_are_identical_to_uncached_predictions() {
    for expr in expressions() {
        let planner = Planner::for_expression(&expr);
        let grid = random_grid(expr.num_dims(), 8, 99);
        for dims in &grid {
            let mut exec = SimulatedExecutor::paper_like();
            let plan = planner.plan_with(dims, &mut exec).unwrap();
            let mut plain_exec = SimulatedExecutor::paper_like();
            for (score, alg) in plan
                .scores
                .iter()
                .zip(expr.algorithms(dims).expect("enumeration succeeds"))
            {
                let plain = plain_exec.predict_from_isolated_calls(&alg);
                assert_eq!(
                    score.predicted_seconds,
                    Some(plain.seconds),
                    "{} on {:?}",
                    alg.name,
                    dims
                );
                assert_eq!(score.flops, plain.flops);
            }
        }
        // The cache must actually have been shared: repeated predictions on
        // the same grid produce hits and no new benchmarks.
        let (_, misses_before) = planner.cache_stats();
        for dims in &grid {
            let mut exec = SimulatedExecutor::paper_like();
            let _ = planner.plan_with(dims, &mut exec).unwrap();
        }
        let (hits, misses_after) = planner.cache_stats();
        assert_eq!(misses_before, misses_after);
        assert!(hits > 0);
    }
}

#[test]
fn plan_grid_verdicts_are_deterministic_and_match_sequential_planning() {
    let expr = TreeExpression::parse("A*A^T*B").unwrap();
    let grid = random_grid(3, 40, 4210);

    let run = || {
        let planner = Planner::for_expression(&expr)
            .policy(MinPredictedTime)
            .threshold(0.10);
        planner
            .plan_grid(&grid)
            .into_iter()
            .map(|plan| {
                let plan = plan.expect("planning succeeds");
                let outcome = plan.execute();
                (plan.chosen, outcome.is_anomaly(), outcome.verdict.clone())
            })
            .collect::<Vec<_>>()
    };

    // Two parallel runs agree with each other (thread scheduling must not
    // leak into the results)...
    let first = run();
    let second = run();
    assert_eq!(first, second);

    // ...and with planning each instance sequentially on one thread.
    let sequential_planner = Planner::for_expression(&expr)
        .policy(MinPredictedTime)
        .threshold(0.10);
    let mut exec = SimulatedExecutor::paper_like();
    for (dims, parallel) in grid.iter().zip(&first) {
        let plan = sequential_planner.plan_with(dims, &mut exec).unwrap();
        let outcome = plan.execute_with(&mut exec);
        assert_eq!(plan.chosen, parallel.0, "chosen index on {dims:?}");
        assert_eq!(outcome.is_anomaly(), parallel.1, "verdict on {dims:?}");
        assert_eq!(outcome.verdict, parallel.2, "classification on {dims:?}");
    }
}

#[test]
fn plan_grid_reports_per_instance_errors_without_failing_the_batch() {
    let expr = TreeExpression::parse("A*A^T*B").unwrap();
    let planner = Planner::for_expression(&expr);
    let grid = vec![vec![100, 200, 300], vec![100, 200], vec![100, 0, 300]];
    let results = planner.plan_grid(&grid);
    assert_eq!(results.len(), 3);
    assert!(results[0].is_ok());
    assert_eq!(
        results[1].as_ref().unwrap_err(),
        &PlanError::DimensionMismatch {
            expected: 3,
            got: 2
        }
    );
    // A zero-dimension instance is degenerate but plannable.
    assert!(results[2].is_ok());
}
