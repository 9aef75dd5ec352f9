//! Scenario sweeps beyond the paper's two expressions: longer chains and
//! mixed/transposed products, enumerated by the general expression engine.
//!
//! The paper conjectures that anomalies grow more frequent as expressions
//! get more algorithmic variety — especially when the variants mix
//! *different* kernels (SYRK/SYMM versus GEMM), as `A·Aᵀ·B` does. With the
//! general enumerator every product expression is searchable, so this module
//! packages a standard set of scenarios and runs the Experiment-1 random
//! search over each of them under identical sampling conditions.

use crate::config::SearchConfig;
use crate::search::{run_random_search, SearchResult};
use lamb_expr::{Expression, TreeExpression};
use lamb_perfmodel::Executor;
use lamb_plan::BatchRequest;

/// A named expression scenario for anomaly sweeps.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Short name used in reports and CSV rows.
    pub name: String,
    /// The parsed expression.
    pub expression: TreeExpression,
}

impl Scenario {
    /// Build a scenario from a name and an expression text.
    ///
    /// # Panics
    ///
    /// Panics if `text` does not parse (scenario sets are static data).
    #[must_use]
    pub fn new(name: &str, text: &str) -> Self {
        Scenario {
            name: name.to_string(),
            expression: TreeExpression::parse(text)
                .unwrap_or_else(|e| panic!("scenario `{name}` does not parse: {e}")),
        }
    }

    /// Number of algorithms the expression enumerates on a probe instance.
    #[must_use]
    pub fn algorithm_count(&self) -> usize {
        let dims = vec![64; self.expression.num_dims()];
        self.expression
            .algorithms(&dims)
            .map(|algs| algs.len())
            .unwrap_or(0)
    }
}

/// The standard mixed-transpose scenario set: the paper's two expressions
/// plus Gram-flavoured and transposed products that exercise the SYRK/SYMM
/// rewrites, and longer GEMM-only chains for scale.
#[must_use]
pub fn mixed_transpose_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new("chain4", "A*B*C*D"),
        Scenario::new("chain5", "A*B*C*D*E"),
        Scenario::new("chain6", "A*B*C*D*E*F"),
        Scenario::new("aatb", "A*A^T*B"),
        Scenario::new("atab", "A^T*A*B"),
        Scenario::new("abbt", "A*B*B^T"),
        Scenario::new("sandwich", "A^T*B*A"),
        Scenario::new("gram2", "A*A^T*B*B^T"),
    ]
}

/// The triangular scenario family: expressions whose operands carry
/// `[lower]`/`[upper]` structure, unlocking the TRMM rewrite (`m²·n` FLOPs
/// versus GEMM's `2·m²·n`) and the TRSM lowering of triangular inverses.
/// Because the structured kernels' FLOP *rates* trail GEMM hardest at small
/// orders, these scenarios are an abundant source of the paper-style
/// anomalies where the FLOP-minimal (TRMM/TRSM-based) algorithm is not the
/// fastest.
#[must_use]
pub fn triangular_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new("trmm", "L[lower]*B"),
        Scenario::new("tri_chain", "L[lower]*A*B"),
        Scenario::new("tri_chain_upper", "U[upper]^T*A*B"),
        Scenario::new("cholesky_gram", "L[lower]*L^T*B"),
        Scenario::new("tri_pair", "L1[lower]*L2[lower]*B"),
        Scenario::new("trsm", "L[lower]^-1*B"),
        Scenario::new("tri_solve_chain", "L[lower]^-1*A*B"),
    ]
}

/// The SPD scenario family: expressions whose operands carry the `[spd]`
/// annotation. Plain SPD products unlock the SYMM-versus-GEMM variant pair;
/// SPD inverses realise through Cholesky (`POTRF` + two `TRSM`s), turning
/// solves that previously had no realisation into planable algorithm sets
/// with genuinely competing orders; and the Gram-flavoured mixtures combine
/// SYRK's FLOP savings with the SPD operand's SYMM variants — the regime
/// where FLOP-minimal and fastest separate most often, exactly as for the
/// paper's `A·Aᵀ·B`.
#[must_use]
pub fn spd_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new("spd_product", "S[spd]*B"),
        Scenario::new("spd_solve", "S[spd]^-1*B"),
        Scenario::new("spd_solve_chain", "S[spd]^-1*B*C"),
        Scenario::new("spd_solve_mixed", "S[spd]^-1*A*B"),
        Scenario::new("spd_gram", "S[spd]*A*A^T"),
        Scenario::new("spd_sandwich", "A^T*S[spd]*A"),
        Scenario::new("spd_pair", "S1[spd]*S2[spd]*B"),
    ]
}

/// The general-solve scenario family: unstructured inverses (realised
/// through partially pivoted LU) and least-squares pseudo-inverses (realised
/// through Householder QR). The factorisations cost `2n³/3` and `2n²(3m−n)/3`
/// FLOPs against the `n³/3` of Cholesky, and their solve chains compete over
/// merge orders exactly like the SPD family — with the added twist that the
/// factorisation is the dominant FLOP term, so the anomaly question becomes
/// whether the *solve side* of the pipeline should be merged early or late.
#[must_use]
pub fn lu_qr_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new("lu_solve", "A^-1*B"),
        Scenario::new("lu_solve_chain", "A^-1*B*C"),
        Scenario::new("lstsq", "A^+*b"),
        Scenario::new("lstsq_chain", "A^+*B*C"),
    ]
}

/// The right-side scenario family: structured operands appearing on the
/// *right* of the product, unlocking the `side = Right` TRMM/TRSM/SYMM
/// kernels (`B·L`, `B·L⁻¹`, `A·S`). The FLOP counts mirror the left-side
/// family exactly, so any abundance difference against the left-side twins
/// is purely a property of the sided kernels' FLOP-rate surfaces.
#[must_use]
pub fn right_side_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new("trmm_r", "B*L[lower]"),
        Scenario::new("trmm_r_upper", "B*U[upper]^T"),
        Scenario::new("trmm_r_chain", "A*B*L[lower]"),
        Scenario::new("trsm_r", "B*L[lower]^-1"),
        Scenario::new("trsm_r_chain", "A*B*L[lower]^-1"),
        Scenario::new("symm_r", "A*S[spd]"),
        Scenario::new("symm_r_chain", "A*S[spd]*B"),
    ]
}

/// A scenario family: the name `lamb sweep <family>` takes, and its set.
pub type ScenarioFamily = (&'static str, fn() -> Vec<Scenario>);

/// The five standing scenario families, in the order [`all_scenarios`]
/// concatenates them.
pub const SCENARIO_FAMILIES: [ScenarioFamily; 5] = [
    ("mixed", mixed_transpose_scenarios),
    ("triangular", triangular_scenarios),
    ("spd", spd_scenarios),
    ("general", lu_qr_scenarios),
    ("right", right_side_scenarios),
];

/// Every standing scenario: the mixed-transpose set plus the triangular,
/// SPD, general-solve (LU/QR) and right-side families — the workload behind
/// `lamb batch --demo`, `lamb verify --demo` and `lamb sweep all`.
#[must_use]
pub fn all_scenarios() -> Vec<Scenario> {
    SCENARIO_FAMILIES
        .iter()
        .flat_map(|(_, family)| family())
        .collect()
}

/// The factor-reuse scenario family: expressions with *repeated* operands,
/// where the same factorisation or Gram product occurs more than once in a
/// single expression. These are the workloads the CSE pass and the batch
/// factor cache exist for — a repeated SPD solve needs exactly one POTRF,
/// a repeated Gram product exactly one SYRK — and the CLI's CSE-parity check
/// (`lamb verify --cse-parity`) runs over them. Kept separate from
/// [`all_scenarios`] because their headline metric is shared-versus-raw
/// FLOPs rather than anomaly frequency.
#[must_use]
pub fn factor_reuse_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new("solve", "S[spd]^-1*B"),
        Scenario::new("repeated_solve", "S[spd]^-1*S[spd]^-1*B"),
        Scenario::new("repeated_gram", "A*A^T*A*A^T*B"),
    ]
}

/// Deterministically sample a batch of expression instances from the
/// scenarios: `per_scenario` instances each, dimensions drawn uniformly from
/// `dim_min..=dim_max`. This is the workload generator behind `lamb batch
/// --demo` and `lamb verify --demo` — a standing stream of heterogeneous
/// planning requests, exactly what a calibration store is amortised over.
#[must_use]
pub fn scenario_batch_requests(
    scenarios: &[Scenario],
    per_scenario: usize,
    seed: u64,
    dim_min: usize,
    dim_max: usize,
) -> Vec<BatchRequest> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let lo = dim_min.max(1);
    let hi = dim_max.max(lo);
    let mut requests = Vec::with_capacity(scenarios.len() * per_scenario);
    for scenario in scenarios {
        let num_dims = scenario.expression.num_dims();
        let least_squares = scenario.expression.name().contains("^+");
        for _ in 0..per_scenario {
            let mut dims: Vec<usize> = (0..num_dims).map(|_| rng.random_range(lo..=hi)).collect();
            // The QR-based least-squares solve needs its operand at least as
            // tall as it is wide; dims are in flattened logical order, so
            // `A^+` puts the column count first.
            if least_squares && dims[0] > dims[1] {
                dims.swap(0, 1);
            }
            requests.push(
                BatchRequest::new(scenario.expression.clone(), dims)
                    .expect("scenario dims match by construction"),
            );
        }
    }
    requests
}

/// One row of a scenario sweep.
#[derive(Debug, Clone)]
pub struct ScenarioSweepRow {
    /// Scenario name.
    pub name: String,
    /// Expression text.
    pub expression: String,
    /// Dimensions per instance.
    pub num_dims: usize,
    /// Algorithms enumerated on a probe instance.
    pub num_algorithms: usize,
    /// The random-search outcome.
    pub result: SearchResult,
}

/// Run the Experiment-1 random search over every scenario with the same
/// configuration and executor settings.
pub fn sweep_scenarios(
    scenarios: &[Scenario],
    executor: &mut dyn Executor,
    config: &SearchConfig,
) -> Vec<ScenarioSweepRow> {
    scenarios
        .iter()
        .map(|scenario| {
            let result = run_random_search(&scenario.expression, executor, config);
            ScenarioSweepRow {
                name: scenario.name.clone(),
                expression: scenario.expression.name(),
                num_dims: scenario.expression.num_dims(),
                num_algorithms: scenario.algorithm_count(),
                result,
            }
        })
        .collect()
}

/// CSV rows (`scenario,expression,dims,algorithms,samples,anomalies,abundance`)
/// for a sweep.
#[must_use]
pub fn sweep_csv(rows: &[ScenarioSweepRow]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.name.clone(),
                row.expression.clone(),
                row.num_dims.to_string(),
                row.num_algorithms.to_string(),
                row.result.samples_drawn.to_string(),
                row.result.anomalies.len().to_string(),
                format!("{:.6}", row.result.abundance()),
            ]
        })
        .collect();
    crate::csvout::csv_from_rows(
        &[
            "scenario",
            "expression",
            "dims",
            "algorithms",
            "samples",
            "anomalies",
            "abundance",
        ],
        &data,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamb_perfmodel::SimulatedExecutor;
    use lamb_plan::{BatchPlanner, Plan};

    /// Plan `per_scenario` seeded instances of every scenario in one batch,
    /// scenario by scenario; every request must plan.
    fn plan_family(
        scenarios: &[Scenario],
        per_scenario: usize,
        seed: u64,
        dim_max: usize,
    ) -> Vec<Plan> {
        let requests = scenario_batch_requests(scenarios, per_scenario, seed, 40, dim_max);
        let outcome = BatchPlanner::new().top_k(8).plan_batch(&requests);
        assert_eq!(outcome.results.len(), scenarios.len() * per_scenario);
        let plans = outcome.results.into_iter();
        plans.map(|r| r.expect("every instance plans")).collect()
    }

    fn predicted_anomalies(plans: &[Plan]) -> usize {
        let anomalous = |p: &&Plan| p.predicted_anomaly() == Some(true);
        plans.iter().filter(anomalous).count()
    }

    #[test]
    fn the_standard_scenarios_parse_and_enumerate() {
        let scenarios = mixed_transpose_scenarios();
        assert!(scenarios.len() >= 6);
        for s in &scenarios {
            assert!(s.algorithm_count() >= 1, "{} enumerates nothing", s.name);
        }
        // The Gram-flavoured expressions have kernel variety beyond GEMM.
        let aatb = scenarios.iter().find(|s| s.name == "aatb").unwrap();
        assert_eq!(aatb.algorithm_count(), 5);
        let gram2 = scenarios.iter().find(|s| s.name == "gram2").unwrap();
        assert!(gram2.algorithm_count() > 5);
    }

    #[test]
    fn triangular_scenarios_parse_and_reach_the_triangular_kernels() {
        let scenarios = triangular_scenarios();
        assert!(scenarios.len() >= 5);
        for s in &scenarios {
            assert!(s.algorithm_count() >= 1, "{} enumerates nothing", s.name);
        }
        // The plain triangular product offers exactly TRMM vs GEMM; the
        // solve has exactly one realisation.
        let trmm = scenarios.iter().find(|s| s.name == "trmm").unwrap();
        assert_eq!(trmm.algorithm_count(), 2);
        let trsm = scenarios.iter().find(|s| s.name == "trsm").unwrap();
        assert_eq!(trsm.algorithm_count(), 1);
        // Spot-check kernel reachability across the family.
        for (name, kernel) in [("tri_chain", "trmm"), ("tri_solve_chain", "trsm")] {
            let s = scenarios.iter().find(|s| s.name == name).unwrap();
            let dims = vec![64; s.expression.num_dims()];
            let algs = s.expression.algorithms(&dims).unwrap();
            assert!(
                algs.iter().any(|a| a.kernel_summary().contains(kernel)),
                "{name} never reaches {kernel}"
            );
        }
        // The combined set is the concatenation, with unique names.
        let all = all_scenarios();
        assert_eq!(
            all.len(),
            mixed_transpose_scenarios().len()
                + scenarios.len()
                + spd_scenarios().len()
                + lu_qr_scenarios().len()
                + right_side_scenarios().len()
        );
        let mut names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn right_side_scenarios_parse_and_reach_the_sided_kernels() {
        let scenarios = right_side_scenarios();
        assert!(scenarios.len() >= 5);
        for s in &scenarios {
            assert!(s.algorithm_count() >= 1, "{} enumerates nothing", s.name);
        }
        // Each headline scenario must reach its right-side kernel somewhere
        // in the enumerated set (the GEMM realisation coexists).
        for (name, kernel) in [
            ("trmm_r", "trmm"),
            ("trsm_r", "trsm"),
            ("symm_r", "symm"),
            ("trmm_r_chain", "trmm"),
            ("trsm_r_chain", "trsm"),
        ] {
            let s = scenarios.iter().find(|s| s.name == name).unwrap();
            let dims = vec![64; s.expression.num_dims()];
            let algs = s.expression.algorithms(&dims).unwrap();
            assert!(
                algs.iter().any(|a| a.kernel_summary().contains(kernel)),
                "{name} never reaches {kernel}"
            );
        }
        // The pure right-side solve has exactly one realisation, like its
        // left-side twin.
        let trsm_r = scenarios.iter().find(|s| s.name == "trsm_r").unwrap();
        assert_eq!(trsm_r.algorithm_count(), 1);
    }

    #[test]
    fn the_factor_reuse_family_shares_its_factorisations() {
        use lamb_plan::{MinPredictedTime, Planner};
        let scenarios = factor_reuse_scenarios();
        for s in &scenarios {
            assert!(s.algorithm_count() >= 1, "{} enumerates nothing", s.name);
        }
        // The repeated solve genuinely repeats work before CSE...
        let repeated = scenarios
            .iter()
            .find(|s| s.name == "repeated_solve")
            .unwrap();
        let dims = vec![48; repeated.expression.num_dims()];
        let algs = repeated.expression.algorithms(&dims).unwrap();
        assert!(
            algs.iter().any(|a| a.shared_flops() < a.flops()),
            "repeated solves must have shareable subcomputations"
        );
        // ...and the planner's chosen algorithm factors the operand exactly
        // once post-CSE, predicted strictly cheaper than the `--no-cse`
        // ablation (which pays one POTRF per inverse).
        let plan = Planner::for_expression(&repeated.expression)
            .policy(MinPredictedTime)
            .plan(&dims)
            .unwrap();
        let potrfs = plan
            .chosen_algorithm()
            .calls
            .iter()
            .filter(|c| c.op.mnemonic() == "potrf")
            .count();
        assert_eq!(potrfs, 1, "one factorisation serves the repeated solve");
        let ablation = Planner::for_expression(&repeated.expression)
            .policy(MinPredictedTime)
            .cse(false)
            .plan(&dims)
            .unwrap();
        assert!(
            plan.chosen_score().predicted_seconds.unwrap()
                < ablation.chosen_score().predicted_seconds.unwrap(),
            "the shared-factor algorithm must be predicted faster"
        );
        // The repeated Gram product shares its SYRK the same way.
        let gram = scenarios
            .iter()
            .find(|s| s.name == "repeated_gram")
            .unwrap();
        let gram_dims = vec![40; gram.expression.num_dims()];
        let gram_plan = Planner::for_expression(&gram.expression)
            .policy(MinPredictedTime)
            .plan(&gram_dims)
            .unwrap();
        let chosen = gram_plan.chosen_algorithm();
        assert!(
            chosen.shared_flops() == chosen.flops(),
            "post-CSE form is dup-free"
        );
    }

    #[test]
    fn spd_scenarios_parse_and_reach_the_cholesky_kernels() {
        let scenarios = spd_scenarios();
        assert!(scenarios.len() >= 5);
        for s in &scenarios {
            assert!(s.algorithm_count() >= 1, "{} enumerates nothing", s.name);
        }
        // The pure solve has exactly one (Cholesky) realisation; the solve
        // chain competes over orders.
        let solve = scenarios.iter().find(|s| s.name == "spd_solve").unwrap();
        assert_eq!(solve.algorithm_count(), 1);
        let chain = scenarios
            .iter()
            .find(|s| s.name == "spd_solve_chain")
            .unwrap();
        assert!(chain.algorithm_count() >= 2);
        // Kernel reachability across the family.
        for (name, kernel) in [
            ("spd_solve", "potrf"),
            ("spd_solve_chain", "trsm"),
            ("spd_product", "symm"),
            ("spd_gram", "syrk"),
        ] {
            let s = scenarios.iter().find(|s| s.name == name).unwrap();
            let dims = vec![64; s.expression.num_dims()];
            let algs = s.expression.algorithms(&dims).unwrap();
            assert!(
                algs.iter().any(|a| a.kernel_summary().contains(kernel)),
                "{name} never reaches {kernel}"
            );
        }
    }

    #[test]
    fn lu_qr_scenarios_parse_and_reach_the_general_solve_kernels() {
        let scenarios = lu_qr_scenarios();
        assert_eq!(scenarios.len(), 4);
        for s in &scenarios {
            assert!(s.algorithm_count() >= 1, "{} enumerates nothing", s.name);
        }
        // The pure solves have exactly one realisation each; the chains
        // compete over merge orders.
        let lu = scenarios.iter().find(|s| s.name == "lu_solve").unwrap();
        assert_eq!(lu.algorithm_count(), 1);
        let lstsq = scenarios.iter().find(|s| s.name == "lstsq").unwrap();
        assert_eq!(lstsq.algorithm_count(), 1);
        let chain = scenarios
            .iter()
            .find(|s| s.name == "lu_solve_chain")
            .unwrap();
        assert!(chain.algorithm_count() >= 2);
        // Kernel reachability across the family.
        for (name, kernel) in [
            ("lu_solve", "getrf"),
            ("lu_solve", "laswp"),
            ("lu_solve_chain", "factortri"),
            ("lstsq", "qr"),
            ("lstsq_chain", "ormqr"),
        ] {
            let s = scenarios.iter().find(|s| s.name == name).unwrap();
            let dims = vec![64; s.expression.num_dims()];
            let algs = s.expression.algorithms(&dims).unwrap();
            assert!(
                algs.iter().any(|a| a.kernel_summary().contains(kernel)),
                "{name} never reaches {kernel}"
            );
        }
        // Randomly drawn batches stay realisable: the generator keeps the
        // least-squares operand tall.
        let requests = scenario_batch_requests(&scenarios, 10, 5, 40, 400);
        assert_eq!(requests.len(), 40);
        for req in &requests {
            assert!(
                req.expr.algorithms(&req.dims).is_ok(),
                "`{}` {:?} fails to enumerate",
                req.expr,
                req.dims
            );
        }
    }

    #[test]
    fn spd_scenarios_show_predicted_anomalies_in_a_batch() {
        // The batched abundance measurement over the SPD family: the
        // Gram-flavoured mixtures put SYRK's FLOP savings against the
        // small-order rate collapse of the symmetric kernels, so the family
        // as a whole produces predicted anomalies at small-to-medium dims.
        let plans = plan_family(&spd_scenarios(), 20, 13, 400);
        assert!(predicted_anomalies(&plans) > 0);
    }

    #[test]
    fn triangular_scenarios_show_predicted_anomalies_in_a_batch() {
        // The batched analogue of the paper's abundance measurements, over
        // the triangular family: at small-to-medium dimensions the TRMM/TRSM
        // FLOP savings are frequently defeated by their lower FLOP rates.
        let plans = plan_family(&triangular_scenarios(), 20, 11, 400);
        assert!(predicted_anomalies(&plans) > 0);
    }

    #[test]
    fn sweeping_scenarios_produces_one_row_each_and_csv() {
        let scenarios = vec![
            Scenario::new("aatb", "A*A^T*B"),
            Scenario::new("abbt", "A*B*B^T"),
        ];
        let mut exec = SimulatedExecutor::paper_like();
        let config = SearchConfig {
            target_anomalies: usize::MAX,
            max_samples: 60,
            seed: 11,
            ..SearchConfig::paper_aatb()
        };
        let rows = sweep_scenarios(&scenarios, &mut exec, &config);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.result.samples_drawn, 60);
            assert_eq!(row.num_dims, 3);
        }
        let csv = sweep_csv(&rows);
        assert!(csv.starts_with("scenario,expression,dims,"));
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("A*A^T*B"));
    }

    #[test]
    fn scenario_batches_are_deterministic_and_well_formed() {
        let scenarios = mixed_transpose_scenarios();
        let a = scenario_batch_requests(&scenarios, 4, 99, 50, 400);
        let b = scenario_batch_requests(&scenarios, 4, 99, 50, 400);
        assert_eq!(a.len(), scenarios.len() * 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.expr.text(), y.expr.text());
            assert_eq!(x.dims, y.dims);
            assert!(x.dims.iter().all(|&d| (50..=400).contains(&d)));
        }
        // A different seed draws different dims.
        let c = scenario_batch_requests(&scenarios, 4, 100, 50, 400);
        assert!(a.iter().zip(&c).any(|(x, y)| x.dims != y.dims));
    }

    #[test]
    fn batched_plans_separate_the_gram_scenario_from_the_chain() {
        let scenarios = vec![
            Scenario::new("aatb", "A*A^T*B"),
            Scenario::new("chain4", "A*B*C*D"),
        ];
        let plans = plan_family(&scenarios, 25, 7, 600);
        for plan in &plans {
            let chosen = plan.chosen_score().predicted_seconds.unwrap();
            let flop_optimal = plan.flop_optimal_score().predicted_seconds.unwrap();
            assert!(chosen > 0.0 && chosen <= flop_optimal + 1e-15);
        }
        // The Gram-flavoured scenario mixes kernels and shows far more
        // predicted anomalies than the GEMM-only chain (the paper's thesis).
        assert!(predicted_anomalies(&plans[..25]) > predicted_anomalies(&plans[25..]));
    }

    #[test]
    fn gram_scenarios_find_anomalies_like_the_paper_expression() {
        // A*B*B^T has the same SYRK/SYMM-versus-GEMM structure as A*A^T*B,
        // so the simulator should flag anomalies for it too.
        let scenario = Scenario::new("abbt", "A*B*B^T");
        let mut exec = SimulatedExecutor::paper_like();
        let config = SearchConfig {
            target_anomalies: 5,
            max_samples: 4000,
            seed: 3,
            ..SearchConfig::paper_aatb()
        };
        let result = run_random_search(&scenario.expression, &mut exec, &config);
        assert!(
            !result.anomalies.is_empty(),
            "no anomalies in {} samples",
            result.samples_drawn
        );
    }
}
