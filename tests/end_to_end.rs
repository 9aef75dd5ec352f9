//! End-to-end integration tests: the full experimental pipeline on the
//! simulated executor, exercised through the public facade exactly as the
//! figure/table binaries do.

use lamb::experiments::{run_full_pipeline, LineConfig, PredictConfig, SearchConfig};
use lamb::prelude::*;

fn small_search(target: usize, samples: usize, seed: u64) -> SearchConfig {
    SearchConfig {
        target_anomalies: target,
        max_samples: samples,
        seed,
        ..SearchConfig::paper_aatb()
    }
}

#[test]
fn aatb_anomalies_are_abundant_and_chain_anomalies_are_rare() {
    // The headline qualitative result of the paper's Experiment 1.
    let mut exec = SimulatedExecutor::paper_like();
    let cfg = SearchConfig {
        target_anomalies: usize::MAX,
        max_samples: 1500,
        ..small_search(0, 0, 99)
    };
    let aatb = run_random_search(&TreeExpression::parse("A*A^T*B").unwrap(), &mut exec, &cfg);
    let chain = run_random_search(&TreeExpression::parse("A*B*C*D").unwrap(), &mut exec, &cfg);
    assert!(
        aatb.abundance() > 0.03,
        "A*A^T*B anomalies should be abundant, got {:.3}",
        aatb.abundance()
    );
    assert!(
        chain.abundance() < 0.02,
        "chain anomalies should be rare, got {:.3}",
        chain.abundance()
    );
    assert!(aatb.abundance() > 3.0 * chain.abundance());
}

#[test]
fn anomaly_severity_can_reach_the_paper_headline() {
    // "performing 45% more FLOPs reduces the execution time by 40%": verify
    // that severe anomalies (time score >= 20%) exist in the search box.
    let mut exec = SimulatedExecutor::paper_like();
    let result = run_random_search(
        &TreeExpression::parse("A*A^T*B").unwrap(),
        &mut exec,
        &small_search(60, 4000, 7),
    );
    assert!(!result.anomalies.is_empty());
    let max_ts = result
        .anomalies
        .iter()
        .map(|a| a.time_score)
        .fold(0.0f64, f64::max);
    assert!(
        max_ts > 0.20,
        "expected a severe anomaly, max time score {max_ts}"
    );
}

#[test]
fn full_pipeline_produces_consistent_confusion_matrix() {
    let dir = std::env::temp_dir().join(format!("lamb-e2e-{}", std::process::id()));
    let expr = TreeExpression::parse("A*A^T*B").unwrap();
    let mut exec = SimulatedExecutor::paper_like();
    let out = run_full_pipeline(
        &expr,
        &mut exec,
        &small_search(3, 4000, 11),
        &LineConfig::paper().with_max_anomalies(2),
        &PredictConfig::paper(),
        &dir,
        "e2e",
    )
    .expect("pipeline runs");
    assert!(out.report.contains("Experiment 1"));
    assert!(out.report.contains("Experiment 3"));
    assert_eq!(out.artifacts.len(), 3);
    for (_, path) in &out.artifacts {
        let content = std::fs::read_to_string(path).expect("artifact written");
        assert!(!content.is_empty());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn experiments_are_reproducible_for_a_fixed_seed() {
    let cfg = small_search(5, 3000, 1234);
    let mut e1 = SimulatedExecutor::paper_like();
    let mut e2 = SimulatedExecutor::paper_like();
    let r1 = run_random_search(&TreeExpression::parse("A*A^T*B").unwrap(), &mut e1, &cfg);
    let r2 = run_random_search(&TreeExpression::parse("A*A^T*B").unwrap(), &mut e2, &cfg);
    assert_eq!(r1, r2);
    // A different seed explores different instances.
    let mut e3 = SimulatedExecutor::paper_like();
    let r3 = run_random_search(
        &TreeExpression::parse("A*A^T*B").unwrap(),
        &mut e3,
        &small_search(5, 3000, 4321),
    );
    assert_ne!(r1.anomalies, r3.anomalies);
}

#[test]
fn figure1_data_reproduces_kernel_ordering() {
    let dir = std::env::temp_dir().join(format!("lamb-fig1-{}", std::process::id()));
    let mut exec = SimulatedExecutor::paper_like();
    let out = run_figure1(&mut exec, &[200, 600, 1000, 2000, 3000], &dir).unwrap();
    let csv = std::fs::read_to_string(&out.artifacts[0].1).unwrap();
    let mut lines = csv.lines();
    assert_eq!(
        lines.next().unwrap(),
        "size,gemm,syrk,symm,trmm,trsm,potrf,getrf,qr,symm_r,trmm_r,trsm_r"
    );
    for line in lines {
        let cells: Vec<f64> = line
            .split(',')
            .skip(1)
            .map(|c| c.parse().unwrap())
            .collect();
        let gemm = cells[0];
        for &other in &cells[1..] {
            assert!(gemm >= other, "GEMM must dominate every kernel: {line}");
        }
        assert!(gemm > 0.0 && gemm <= 1.0);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn triangular_expression_runs_end_to_end_with_trmm_in_the_plan() {
    // The triangular acceptance path: parse -> enumerate -> calibrate ->
    // batch-plan, with TRMM-based algorithms present in the resulting plans.
    let expr = TreeExpression::parse("L[lower]*A*B").unwrap();
    assert_eq!(expr.num_dims(), 3);

    // Single-expression planning sees the structured variants.
    let plan = Planner::for_expression(&expr)
        .policy(MinPredictedTime)
        .plan(&[96, 64, 48])
        .unwrap();
    assert!(
        plan.algorithms
            .iter()
            .any(|a| a.kernel_summary().contains("trmm")),
        "the plan must contain TRMM-based algorithms"
    );
    // The FLOP-minimal algorithm uses the structured kernel (half the FLOPs).
    let min_flops = plan.algorithms.iter().map(|a| a.flops()).min().unwrap();
    let cheapest = plan
        .algorithms
        .iter()
        .find(|a| a.flops() == min_flops)
        .unwrap();
    assert!(cheapest.kernel_summary().contains("trmm"));

    // Calibrate a store covering the triangular workload, then plan a batch
    // warm from it: no benchmarks, and the TRMM algorithms are still there.
    let requests = vec![
        BatchRequest::new(expr.clone(), vec![96, 64, 48]).unwrap(),
        BatchRequest::new(expr.clone(), vec![200, 120, 80]).unwrap(),
        BatchRequest::new(
            TreeExpression::parse("L[lower]^-1*B").unwrap(),
            vec![64, 32],
        )
        .unwrap(),
    ];
    let cold_planner = BatchPlanner::new();
    let cold = cold_planner.plan_batch(&requests);
    assert_eq!(cold.stats.failed, 0);
    let mut store = CalibrationStore::new(
        SimulatedExecutor::paper_like().machine().clone(),
        "simulated",
    );
    store.calls = cold_planner.snapshot_cache();
    assert!(store.coverage().contains_key("trmm"));
    assert!(store.coverage().contains_key("trsm"));

    let warm = BatchPlanner::new().with_store(&store).plan_batch(&requests);
    assert_eq!(warm.stats.cache_misses, 0, "store must cover the workload");
    for (c, w) in cold.results.iter().zip(&warm.results) {
        let (c, w) = (c.as_ref().unwrap(), w.as_ref().unwrap());
        assert_eq!(c.chosen, w.chosen);
    }
    let solve_plan = warm.results[2].as_ref().unwrap();
    assert!(solve_plan.algorithms[0].kernel_summary().contains("trsm"));
}

#[test]
fn spd_solve_runs_end_to_end_and_matches_the_naive_solve() {
    // The SPD acceptance path: `S[spd]^-1*B` parses, enumerates the
    // POTRF + TRSM + TRSM realisation, and executes to numerical identity
    // (<= 1e-10 * norm) against an independent naive solve built from the
    // unblocked reference kernels.
    use lamb::kernels::{gemm_naive, potrf_naive, trsm_naive};
    use lamb::matrix::ops::{max_abs, max_abs_diff};
    use lamb::matrix::random::{random_seeded, random_spd};
    use lamb::matrix::{Matrix, Side, Trans, Uplo};

    let expr = TreeExpression::parse("S[spd]^-1*B").unwrap();
    assert_eq!(expr.num_dims(), 2);
    let (n, m) = (57, 23);
    let algs = expr.algorithms(&[n, m]).unwrap();
    assert_eq!(algs.len(), 1, "an SPD solve has exactly one realisation");
    assert_eq!(algs[0].kernel_summary(), "potrf,trsm,trsm");

    // Execute with the real blocked kernels through the measured executor.
    let seed = 424242;
    let executor = MeasuredExecutor::quick().with_seed(seed);
    let x = executor.compute_result(&algs[0]);

    // The naive reference: the same operands the executor materialises
    // (structure-aware, seeded by operand id), solved with the unblocked
    // scalar reference kernels.
    let s_info = algs[0].inputs().find(|o| o.name == "S").unwrap();
    let b_info = algs[0].inputs().find(|o| o.name == "B").unwrap();
    let s = random_spd(n, seed ^ s_info.id.index() as u64);
    let b = random_seeded(n, m, seed ^ b_info.id.index() as u64);
    let mut l = s.clone();
    potrf_naive(Uplo::Lower, &mut l.view_mut()).unwrap();
    let l = Matrix::from_fn(n, n, |i, j| if i >= j { l[(i, j)] } else { 0.0 });
    let mut y = Matrix::zeros(n, m);
    trsm_naive(
        Side::Left,
        Uplo::Lower,
        Trans::No,
        1.0,
        &l.view(),
        &b.view(),
        &mut y.view_mut(),
    )
    .unwrap();
    let mut x_ref = Matrix::zeros(n, m);
    trsm_naive(
        Side::Left,
        Uplo::Lower,
        Trans::Yes,
        1.0,
        &l.view(),
        &y.view(),
        &mut x_ref.view_mut(),
    )
    .unwrap();

    let tolerance = 1e-10 * max_abs(&x_ref).max(1.0);
    let diff = max_abs_diff(&x, &x_ref).unwrap();
    assert!(diff <= tolerance, "diff {diff} exceeds {tolerance}");

    // And the solution genuinely solves S·X = B (residual check against the
    // original operand, independent of any factorisation).
    let mut sx = Matrix::zeros(n, m);
    gemm_naive(
        Trans::No,
        Trans::No,
        1.0,
        &s.view(),
        &x.view(),
        0.0,
        &mut sx.view_mut(),
    )
    .unwrap();
    let residual = max_abs_diff(&sx, &b).unwrap();
    assert!(
        residual <= 1e-10 * max_abs(&b).max(1.0) * n as f64,
        "residual {residual}"
    );

    // The same expression plans and batch-plans like every other family,
    // with POTRF coverage landing in the calibration store.
    let plan = Planner::for_expression(&expr)
        .policy(MinPredictedTime)
        .plan(&[120, 48])
        .unwrap();
    assert!(plan.chosen_algorithm().kernel_summary().contains("potrf"));
    let requests = vec![
        BatchRequest::new(expr.clone(), vec![120, 48]).unwrap(),
        BatchRequest::new(
            TreeExpression::parse("S[spd]^-1*B*C").unwrap(),
            vec![96, 64, 24],
        )
        .unwrap(),
    ];
    let planner = BatchPlanner::new();
    let outcome = planner.plan_batch(&requests);
    assert_eq!(outcome.stats.failed, 0);
    let mut store = CalibrationStore::new(
        SimulatedExecutor::paper_like().machine().clone(),
        "simulated",
    );
    store.calls = planner.snapshot_cache();
    assert!(store.coverage().contains_key("potrf"));
    let warm = BatchPlanner::new().with_store(&store).plan_batch(&requests);
    assert_eq!(warm.stats.cache_misses, 0, "store must cover the workload");
}

#[test]
fn anomalies_cluster_into_regions_with_positive_thickness() {
    // Experiment 2 on the simulator: most anomalies should sit inside a
    // region thicker than a single instance.
    let expr = TreeExpression::parse("A*A^T*B").unwrap();
    let mut exec = SimulatedExecutor::paper_like();
    let search = run_random_search(&expr, &mut exec, &small_search(5, 4000, 3));
    let scans = lamb::experiments::scan_lines_around(
        &expr,
        &mut exec,
        &search.anomalies,
        &LineConfig::paper(),
    );
    assert_eq!(scans.len(), search.anomalies.len() * 3);
    let thick = scans.iter().filter(|s| s.thickness() > 19).count();
    assert!(
        thick * 2 >= scans.len(),
        "at least half of the scans should show a multi-instance region ({thick}/{})",
        scans.len()
    );
}

#[test]
fn strategy_with_performance_profiles_beats_min_flops_on_average() {
    // The paper's concluding conjecture, checked on random instances.
    let mut exec = SimulatedExecutor::paper_like();
    let mut flops_regret = 0.0;
    let mut predicted_regret = 0.0;
    let mut rng_dims = 20usize;
    let mut count = 0;
    let aatb = TreeExpression::parse("A*A^T*B").unwrap();
    for seed in 0..40u64 {
        rng_dims = (rng_dims * 7 + seed as usize * 13) % 1180 + 20;
        let d0 = (seed as usize * 37) % 500 + 20;
        let d1 = (seed as usize * 91) % 1180 + 20;
        let d2 = rng_dims;
        let regret = |policy: Box<dyn SelectionPolicy>, exec: &mut SimulatedExecutor| {
            Planner::for_expression(&aatb)
                .policy(policy)
                .plan_with(&[d0, d1, d2], exec)
                .unwrap()
                .execute_with(exec)
                .regret()
        };
        flops_regret += regret(Box::new(MinFlops), &mut exec);
        predicted_regret += regret(Box::new(MinPredictedTime), &mut exec);
        count += 1;
    }
    assert!(count > 0);
    assert!(
        predicted_regret <= flops_regret,
        "profiles+flops ({predicted_regret}) should not lose to flops alone ({flops_regret})"
    );
}
