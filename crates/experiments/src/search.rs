//! Experiment 1: random search for anomalies (Section 3.4.1).
//!
//! Instances are sampled uniformly at random (with replacement) from the
//! search box; every algorithm of the expression is timed on each instance;
//! the instance is classified as an anomaly or not; the search stops when the
//! target number of *distinct* anomalies has been found (or the sample cap is
//! reached). A draw the enumerator rejects (a wide operand under `^+`, say)
//! lies outside the expression's domain: it is redrawn and counted apart.

use crate::config::SearchConfig;
use lamb_expr::Expression;
use lamb_perfmodel::Executor;
use lamb_plan::{Plan, PlanExecution, Planner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// One anomaly found by the random search.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyRecord {
    /// The instance's dimension tuple.
    pub dims: Vec<usize>,
    /// Its time score (Section 3.3).
    pub time_score: f64,
    /// Its FLOP score (Section 3.3).
    pub flop_score: f64,
    /// Indices of the cheapest algorithms.
    pub cheapest: Vec<usize>,
    /// Indices of the fastest algorithms.
    pub fastest: Vec<usize>,
}

/// The outcome of a random search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Name of the expression that was searched.
    pub expression: String,
    /// Name of the executor that timed the algorithms.
    pub executor: String,
    /// Time-score threshold used for classification.
    pub threshold: f64,
    /// Number of instances sampled (with replacement) and classified.
    pub samples_drawn: usize,
    /// Number of draws the enumerator rejected as outside the expression's
    /// domain; each was redrawn and none counts as a sample.
    pub samples_rejected: usize,
    /// The anomalies found, in discovery order.
    pub anomalies: Vec<AnomalyRecord>,
}

impl SearchResult {
    /// Estimated anomaly abundance: anomalies found per sample drawn
    /// (the paper reports 0.4% for the chain and 9.7% for `A·Aᵀ·B`).
    #[must_use]
    pub fn abundance(&self) -> f64 {
        if self.samples_drawn == 0 {
            0.0
        } else {
            self.anomalies.len() as f64 / self.samples_drawn as f64
        }
    }

    /// Fraction of anomalies with a time score above `time` or a FLOP score
    /// above `flop` (the paper reports 39.2% for 20%/30% on `A·Aᵀ·B`).
    #[must_use]
    pub fn severe_fraction(&self, time: f64, flop: f64) -> f64 {
        if self.anomalies.is_empty() {
            return 0.0;
        }
        let severe = self
            .anomalies
            .iter()
            .filter(|a| a.time_score > time || a.flop_score > flop)
            .count();
        severe as f64 / self.anomalies.len() as f64
    }

    /// The `(flop_score, time_score)` pairs of all anomalies — the scatter
    /// data of the paper's Figures 6 and 9.
    #[must_use]
    pub fn scatter(&self) -> Vec<(f64, f64)> {
        self.anomalies
            .iter()
            .map(|a| (a.flop_score, a.time_score))
            .collect()
    }
}

/// Sample one instance uniformly from the search box.
pub(crate) fn sample_dims(rng: &mut StdRng, num_dims: usize, config: &SearchConfig) -> Vec<usize> {
    (0..num_dims)
        .map(|_| rng.random_range(config.box_min..=config.box_max))
        .collect()
}

/// The experiment pipeline for `expr` at `threshold`: plan, execute, judge —
/// with prediction scoring disabled (classification needs only executions).
pub(crate) fn pipeline(expr: &dyn Expression, threshold: f64) -> Planner<'_> {
    Planner::for_expression(expr)
        .threshold(threshold)
        .score_predictions(false)
}

/// Plan `dims` and time every algorithm with `executor`: the plan and its
/// judged execution. `None` when the instance cannot be planned: it lies
/// outside the expression's domain, which a uniform sampler or a line walk
/// can reach and has to step over.
pub(crate) fn judge(
    planner: &Planner<'_>,
    executor: &mut dyn Executor,
    dims: &[usize],
) -> Option<(Plan, PlanExecution)> {
    let plan = planner.plan_with(dims, executor).ok()?;
    let execution = plan.execute_with(executor);
    Some((plan, execution))
}

/// Run Experiment 1.
pub fn run_random_search(
    expr: &dyn Expression,
    executor: &mut dyn Executor,
    config: &SearchConfig,
) -> SearchResult {
    let planner = pipeline(expr, config.time_score_threshold);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut anomalies = Vec::new();
    let mut seen: HashSet<Vec<usize>> = HashSet::new();
    let mut samples_drawn = 0;
    let mut samples_rejected = 0;
    // A run of `max_samples` rejected draws means the box holds (next to) no
    // instance of the expression's domain; without this bound an expression
    // no instance realises (`A^+*A^T`) would be redrawn forever.
    let mut rejected_run = 0;
    while anomalies.len() < config.target_anomalies
        && samples_drawn < config.max_samples
        && rejected_run < config.max_samples
    {
        let dims = sample_dims(&mut rng, expr.num_dims(), config);
        let Some((_, executed)) = judge(&planner, executor, &dims) else {
            samples_rejected += 1;
            rejected_run += 1;
            continue;
        };
        rejected_run = 0;
        samples_drawn += 1;
        let classification = executed.verdict;
        if classification.is_anomaly && !seen.contains(&dims) {
            seen.insert(dims.clone());
            anomalies.push(AnomalyRecord {
                dims,
                time_score: classification.time_score,
                flop_score: classification.flop_score,
                cheapest: classification.cheapest,
                fastest: classification.fastest,
            });
        }
    }
    SearchResult {
        expression: expr.name(),
        executor: executor.name(),
        threshold: config.time_score_threshold,
        samples_drawn,
        samples_rejected,
        anomalies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamb_expr::TreeExpression;
    use lamb_perfmodel::{
        AnalyticEfficiencyModel, MachineModel, SimulatedExecutor, SimulatorConfig,
    };

    fn quick_config(target: usize, samples: usize) -> SearchConfig {
        SearchConfig {
            box_min: 20,
            box_max: 1200,
            target_anomalies: target,
            max_samples: samples,
            time_score_threshold: 0.10,
            seed: 7,
        }
    }

    #[test]
    fn sampling_respects_the_box() {
        let config = quick_config(1, 1);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let dims = sample_dims(&mut rng, 5, &config);
            assert_eq!(dims.len(), 5);
            assert!(dims.iter().all(|&d| (20..=1200).contains(&d)));
        }
    }

    #[test]
    fn aatb_search_finds_anomalies_quickly_on_the_simulator() {
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let mut exec = SimulatedExecutor::paper_like();
        let result = run_random_search(&expr, &mut exec, &quick_config(10, 3000));
        assert_eq!(
            result.anomalies.len(),
            10,
            "sampled {}",
            result.samples_drawn
        );
        assert!(
            result.abundance() > 0.01,
            "abundance {}",
            result.abundance()
        );
        for a in &result.anomalies {
            assert!(a.time_score > 0.10);
            assert!(a.flop_score > 0.0);
            assert!(a.cheapest.iter().all(|i| !a.fastest.contains(i)));
        }
    }

    #[test]
    fn chain_anomalies_are_rarer_than_aatb_anomalies() {
        // The qualitative headline of the paper's Experiment 1: anomalies are
        // much more abundant for A·Aᵀ·B than for the GEMM-only chain.
        let mut exec = SimulatedExecutor::paper_like();
        let chain_cfg = SearchConfig {
            target_anomalies: usize::MAX,
            max_samples: 400,
            ..quick_config(0, 0)
        };
        let chain = run_random_search(
            &TreeExpression::parse("A*B*C*D").unwrap(),
            &mut exec,
            &chain_cfg,
        );
        let aatb = run_random_search(
            &TreeExpression::parse("A*A^T*B").unwrap(),
            &mut exec,
            &chain_cfg,
        );
        assert!(
            aatb.abundance() > chain.abundance(),
            "aatb {} vs chain {}",
            aatb.abundance(),
            chain.abundance()
        );
    }

    #[test]
    fn search_is_deterministic_for_a_fixed_seed() {
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let mut e1 = SimulatedExecutor::paper_like();
        let mut e2 = SimulatedExecutor::paper_like();
        let cfg = quick_config(5, 2000);
        let r1 = run_random_search(&expr, &mut e1, &cfg);
        let r2 = run_random_search(&expr, &mut e2, &cfg);
        assert_eq!(r1, r2);
    }

    #[test]
    fn sample_cap_is_honoured() {
        let expr = TreeExpression::parse("A*B*C*D").unwrap();
        let mut exec = SimulatedExecutor::paper_like();
        let result = run_random_search(&expr, &mut exec, &quick_config(1_000_000, 50));
        assert_eq!(result.samples_drawn, 50);
    }

    #[test]
    fn scatter_and_severity_summaries() {
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let mut exec = SimulatedExecutor::paper_like();
        let result = run_random_search(&expr, &mut exec, &quick_config(8, 3000));
        let scatter = result.scatter();
        assert_eq!(scatter.len(), result.anomalies.len());
        assert!(result.severe_fraction(0.0, 0.0) >= result.severe_fraction(0.2, 0.3));
        assert!(result.severe_fraction(2.0, 2.0) == 0.0);
    }

    #[test]
    fn draws_outside_the_domain_are_redrawn_and_counted_apart() {
        // `A^+*b` needs a tall `A`; dims are (columns, rows, rhs), so uniform
        // sampling draws a wide operand about half the time.
        let expr = TreeExpression::parse("A^+*b").unwrap();
        let mut exec = SimulatedExecutor::paper_like();
        let config = quick_config(usize::MAX, 60);
        let result = run_random_search(&expr, &mut exec, &config);
        assert_eq!(
            result.samples_drawn, 60,
            "the cap counts classified samples"
        );
        // Replaying the sampler: exactly the wide draws were rejected, so
        // every classified instance was tall.
        let mut rng = StdRng::seed_from_u64(config.seed);
        let draws = result.samples_drawn + result.samples_rejected;
        let wide = (0..draws).filter(|_| {
            let dims = sample_dims(&mut rng, 3, &config);
            dims[0] > dims[1]
        });
        assert_eq!(wide.count(), result.samples_rejected);
        assert!(result.samples_rejected > 0);

        // An expression no instance realises ends the search instead.
        let expr = TreeExpression::parse("A^+*A^T").unwrap();
        let result = run_random_search(&expr, &mut exec, &quick_config(1, 40));
        assert_eq!((result.samples_drawn, result.samples_rejected), (0, 40));
    }

    #[test]
    fn most_anomalies_survive_without_inter_kernel_cache_effects() {
        // The abstract: "most of the anomalies remained as such even after
        // filtering out the inter-kernel cache effects".
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let mut with_cache = SimulatedExecutor::paper_like();
        let search = run_random_search(&expr, &mut with_cache, &quick_config(20, 5000));
        assert_eq!(search.anomalies.len(), 20);
        let mut no_cache = SimulatedExecutor::new(
            MachineModel::paper_xeon_silver_4210(),
            AnalyticEfficiencyModel::default(),
            SimulatorConfig {
                cache_reuse_gain: 0.0,
                ..SimulatorConfig::default()
            },
        );
        let planner = pipeline(&expr, search.threshold);
        let survives = |a: &&AnomalyRecord| {
            let (_, executed) =
                judge(&planner, &mut no_cache, &a.dims).expect("a recorded instance plans");
            executed.is_anomaly()
        };
        let survived = search.anomalies.iter().filter(survives).count();
        assert!(2 * survived > 20, "only {survived} of 20 anomalies survive");
    }
}
