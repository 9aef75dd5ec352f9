//! Facade-level tests of the persistence + batch-serving layer:
//!
//! * **round trip** — calibrate → save → load → `plan_batch` produces
//!   bit-identical predictions to the in-memory path, with a 100% cache hit
//!   rate (the PR's acceptance criterion);
//! * **refinement** — an incremental sweep merged into a stored calibration
//!   grows coverage without disturbing existing entries;
//! * **equivalence** — the batch front end agrees with single-expression
//!   `Planner::plan` calls on every instance, over every scenario family and
//!   under non-default settings;
//! * **one anomaly definition** — a plan's predicted-anomaly verdict is the
//!   Section 3.3 classification of its predicted times.

use lamb::experiments::{all_scenarios, scenario_batch_requests};
use lamb::prelude::*;

/// A mixed workload: both paper expressions, Gram products, a pruned longer
/// chain, the triangular family (TRMM products and TRSM solves), and the SPD
/// family (SYMM products and Cholesky-realised solves), over a dimension
/// palette with deliberate signature overlap.
fn workload() -> Vec<BatchRequest> {
    let mut lines = String::new();
    let palette = [80usize, 160, 320, 514, 640, 768];
    for (i, text) in [
        "A*B*C*D",
        "A*A^T*B",
        "A*B*B^T",
        "A^T*A*B",
        "A*B*C*D*E",
        "L[lower]*A*B",
        "L[lower]^-1*B",
        "S[spd]*B",
        "S[spd]^-1*B*C",
    ]
    .iter()
    .enumerate()
    {
        let expr = TreeExpression::parse(text).unwrap();
        for j in 0..24 {
            let dims: Vec<String> = (0..expr.num_dims())
                .map(|d| palette[(i + 2 * j + 3 * d) % palette.len()].to_string())
                .collect();
            lines.push_str(&format!("{text} {}\n", dims.join(" ")));
        }
    }
    BatchRequest::parse_file(&lines).unwrap()
}

#[test]
fn store_round_trip_reproduces_in_memory_predictions_bit_identically() {
    let requests = workload();
    assert!(requests.len() >= 100, "acceptance: >= 100 expressions");

    // In-memory path: a cold batch planner benchmarks everything it needs.
    let cold_planner = BatchPlanner::new().top_k(8);
    let cold = cold_planner.plan_batch(&requests);
    assert_eq!(cold.stats.failed, 0);
    assert!(cold.stats.cache_misses > 0);

    // Calibrate -> save: persist the cold run's calibration as JSON.
    let mut store = CalibrationStore::new(MachineModel::paper_xeon_silver_4210(), "simulated");
    store.calls = cold_planner.snapshot_cache();
    let json = store.to_json();

    // Load -> plan_batch: a fresh planner, warm-started purely from the
    // serialised text, must reproduce every prediction bit for bit and
    // never benchmark.
    let reloaded = CalibrationStore::from_json(&json).unwrap();
    assert_eq!(reloaded.calls.len(), store.calls.len());
    let warm_planner = BatchPlanner::new().top_k(8).with_store(&reloaded);
    let warm = warm_planner.plan_batch(&requests);
    assert_eq!(warm.stats.cache_misses, 0, "warm batch must not benchmark");
    assert!((warm.stats.hit_rate() - 1.0).abs() < 1e-12);

    for (c, w) in cold.results.iter().zip(&warm.results) {
        let (c, w) = (c.as_ref().unwrap(), w.as_ref().unwrap());
        assert_eq!(c.chosen, w.chosen);
        assert_eq!(c.algorithms.len(), w.algorithms.len());
        for (cs, ws) in c.scores.iter().zip(&w.scores) {
            assert_eq!(
                cs.predicted_seconds.unwrap().to_bits(),
                ws.predicted_seconds.unwrap().to_bits(),
                "{}: prediction changed through the store round trip",
                c.expression
            );
        }
    }
    // Aggregates agree too (they are derived from the same predictions).
    assert_eq!(
        cold.stats.predicted_anomalies,
        warm.stats.predicted_anomalies
    );
    assert_eq!(
        cold.stats.chosen_predicted_seconds.to_bits(),
        warm.stats.chosen_predicted_seconds.to_bits()
    );
}

#[test]
fn incremental_sweeps_refine_a_store_without_disturbing_it() {
    let requests = workload();
    let (first_half, second_half) = requests.split_at(requests.len() / 2);

    // Sweep 1 covers the first half of the workload.
    let planner1 = BatchPlanner::new().top_k(8);
    let _ = planner1.plan_batch(first_half);
    let mut store = CalibrationStore::new(MachineModel::paper_xeon_silver_4210(), "simulated");
    store.calls = planner1.snapshot_cache();
    let covered_before = store.calls.len();

    // Sweep 2 covers the second half and merges in.
    let planner2 = BatchPlanner::new().top_k(8);
    let _ = planner2.plan_batch(second_half);
    let mut sweep = CalibrationStore::new(MachineModel::paper_xeon_silver_4210(), "simulated");
    sweep.calls = planner2.snapshot_cache();
    store.merge_from(&sweep).unwrap();
    assert!(store.calls.len() >= covered_before);
    assert_eq!(store.meta.sweeps, 2);

    // The merged store serves the whole workload without benchmarking.
    let warm = BatchPlanner::new().top_k(8).with_store(&store);
    let outcome = warm.plan_batch(&requests);
    assert_eq!(outcome.stats.cache_misses, 0);
}

#[test]
fn batch_planning_agrees_with_single_expression_planning() {
    let requests = workload();
    let outcome = BatchPlanner::new().top_k(8).plan_batch(&requests);
    for (req, result) in requests.iter().zip(&outcome.results).step_by(7) {
        let batch_plan = result.as_ref().unwrap();
        let solo_plan = Planner::for_expression(&req.expr)
            .policy(MinPredictedTime)
            .top_k(8)
            .plan(&req.dims)
            .unwrap();
        assert_eq!(batch_plan.chosen, solo_plan.chosen, "{}", req.expr);
        for (b, s) in batch_plan.scores.iter().zip(&solo_plan.scores) {
            assert_eq!(b.flops, s.flops);
            assert_eq!(
                b.predicted_seconds.unwrap().to_bits(),
                s.predicted_seconds.unwrap().to_bits()
            );
        }
    }
}

#[test]
fn batch_and_single_planners_agree_request_for_request_on_every_scenario() {
    // `BatchPlanner` and `Planner` are two front doors onto one pipeline:
    // under the same (here deliberately non-default) settings a request gets
    // the same plan through either, whatever the expression family.
    let requests = scenario_batch_requests(&all_scenarios(), 3, 2022, 60, 900);
    let outcome = BatchPlanner::new()
        .policy(Hybrid { flop_margin: 0.5 })
        .top_k(6)
        .threshold(0.05)
        .plan_batch(&requests);
    assert_eq!(outcome.stats.failed, 0);
    let mut exec = SimulatedExecutor::paper_like();
    for (req, result) in requests.iter().zip(&outcome.results) {
        let batch_plan = result.as_ref().unwrap();
        let solo_plan = Planner::for_expression(&req.expr)
            .policy(Hybrid { flop_margin: 0.5 })
            .top_k(6)
            .threshold(0.05)
            .plan_with(&req.dims, &mut exec)
            .unwrap();
        assert_eq!(batch_plan.chosen, solo_plan.chosen, "{}", req.expr);
        assert_eq!(batch_plan.scores, solo_plan.scores, "{}", req.expr);
        assert_eq!(
            batch_plan.duplicates_removed, solo_plan.duplicates_removed,
            "{}",
            req.expr,
        );
        assert_eq!(batch_plan.policy, solo_plan.policy);
        assert_eq!(
            batch_plan.predicted_anomaly(),
            solo_plan.predicted_anomaly(),
            "{}: the threshold reaches both plans",
            req.expr,
        );
    }
    // The CSE ablation reaches the batch pipeline the same way.
    let ablated = BatchPlanner::new().cse(false).plan_batch(&requests);
    for (req, result) in requests.iter().zip(&ablated.results) {
        let solo_plan = Planner::for_expression(&req.expr)
            .policy(MinPredictedTime)
            .cse(false)
            .plan_with(&req.dims, &mut exec)
            .unwrap();
        let batch_plan = result.as_ref().unwrap();
        assert_eq!(batch_plan.chosen, solo_plan.chosen, "{}", req.expr);
        assert_eq!(batch_plan.scores, solo_plan.scores, "{}", req.expr);
    }
}

#[test]
fn a_predicted_anomaly_is_the_section_3_3_classification_of_the_predicted_times() {
    let requests = scenario_batch_requests(&all_scenarios(), 6, 7, 60, 900);
    let outcome = BatchPlanner::new().plan_batch(&requests);
    let (mut anomalies, mut flop_ties) = (0, 0);
    for plan in outcome.plans() {
        // Classify the predicted times by hand: the cheapest set, the
        // fastest set, and the time score between their best members.
        let min_flops = plan.scores.iter().map(|s| s.flops).min().unwrap();
        let seconds = |s: &AlgorithmScore| s.predicted_seconds.unwrap();
        let fastest = plan
            .scores
            .iter()
            .map(seconds)
            .fold(f64::INFINITY, f64::min);
        let cheapest: Vec<&AlgorithmScore> = plan
            .scores
            .iter()
            .filter(|s| s.flops == min_flops)
            .collect();
        let best_cheapest = cheapest
            .iter()
            .map(|s| seconds(s))
            .fold(f64::INFINITY, f64::min);
        let disjoint = best_cheapest > fastest * (1.0 + 1e-12);
        let by_hand = disjoint && (best_cheapest - fastest) / best_cheapest > 0.10;
        assert_eq!(
            plan.predicted_anomaly(),
            Some(by_hand),
            "{} {:?}",
            plan.expression,
            plan.dims
        );
        anomalies += usize::from(by_hand);
        flop_ties += usize::from(cheapest.len() > 1);
    }
    assert_eq!(outcome.stats.predicted_anomalies, anomalies);
    assert!(anomalies > 0, "the scenario set has predicted anomalies");
    assert!(flop_ties > 0, "the scenario set exercises FLOP ties");
}
