//! The builder-style [`Planner`] and the one pipeline behind it.
//!
//! Everything a planner configures apart from the expression — policy,
//! executor factory, threshold, caches — is one private `Settings` value.
//! [`Planner`] is an expression plus settings,
//! [`BatchPlanner`](crate::BatchPlanner) is settings alone, and both run
//! `Settings::plan_with`, so a request plans identically through either.

use crate::cache::{CachingExecutor, PredictionCache};
use crate::plan::{AlgorithmScore, Plan, PlanError};
use lamb_expr::{Algorithm, Expression, SharedStr};
use lamb_perfmodel::{Executor, FactorCache, SimulatedExecutor};
use lamb_select::{MinFlops, MinPredictedTime, SelectError, SelectionPolicy};
use rayon::prelude::*;
use std::sync::{Arc, OnceLock};

/// Builds the executors a planner times algorithms with.
pub(crate) type ExecutorFactory = Arc<dyn Fn() -> Box<dyn Executor> + Send + Sync>;

/// A selection policy and its name, resolved once: every plan it makes
/// shares the name.
#[derive(Clone)]
pub(crate) struct NamedPolicy {
    pub(crate) policy: Arc<dyn SelectionPolicy>,
    pub(crate) name: SharedStr,
}

impl NamedPolicy {
    pub(crate) fn new(policy: impl SelectionPolicy + 'static) -> Self {
        NamedPolicy {
            name: policy.name().into(),
            policy: Arc::new(policy),
        }
    }

    /// The default of [`Planner`]: [`MinFlops`], built once per process.
    pub(crate) fn min_flops() -> Self {
        static DEFAULT: OnceLock<NamedPolicy> = OnceLock::new();
        DEFAULT.get_or_init(|| NamedPolicy::new(MinFlops)).clone()
    }

    /// The default of [`BatchPlanner`](crate::BatchPlanner):
    /// [`MinPredictedTime`], built once per process.
    pub(crate) fn min_predicted_time() -> Self {
        static DEFAULT: OnceLock<NamedPolicy> = OnceLock::new();
        DEFAULT
            .get_or_init(|| NamedPolicy::new(MinPredictedTime))
            .clone()
    }
}

/// The default executor factory (the paper-like simulator), built once per
/// process.
fn simulated_factory() -> ExecutorFactory {
    static DEFAULT: OnceLock<ExecutorFactory> = OnceLock::new();
    Arc::clone(DEFAULT.get_or_init(|| Arc::new(|| Box::new(SimulatedExecutor::paper_like()))))
}

/// The expression-independent configuration of a planner, and the pipeline
/// it drives.
pub(crate) struct Settings {
    pub(crate) policy: NamedPolicy,
    pub(crate) factory: ExecutorFactory,
    pub(crate) threshold: f64,
    pub(crate) score_predictions: bool,
    pub(crate) top_k: Option<usize>,
    /// Created on first use, so a planner that is handed a shared cache
    /// never builds one of its own.
    cache: OnceLock<Arc<PredictionCache>>,
    pub(crate) use_cse: bool,
    pub(crate) factor_cache: Option<Arc<FactorCache>>,
}

impl Settings {
    /// The defaults under `policy`: the paper-like simulated executor,
    /// predicted-time scoring enabled, the 10% anomaly threshold of
    /// Experiment 1, a cold prediction cache, CSE enabled, no factor cache
    /// and no enumeration cap.
    pub(crate) fn new(policy: NamedPolicy) -> Self {
        Settings {
            policy,
            factory: simulated_factory(),
            threshold: 0.10,
            score_predictions: true,
            top_k: None,
            cache: OnceLock::new(),
            use_cse: true,
            factor_cache: None,
        }
    }

    /// The prediction cache: the shared one, or a cold one of this
    /// planner's own.
    pub(crate) fn cache(&self) -> &Arc<PredictionCache> {
        self.cache.get_or_init(|| Arc::new(PredictionCache::new()))
    }

    /// Use `cache` from now on.
    pub(crate) fn set_cache(&mut self, cache: Arc<PredictionCache>) {
        self.cache = OnceLock::from(cache);
    }

    /// Plan one instance of `expr`, named `name` in the plan: enumerate
    /// (pruned, in shared form) → deduplicate → verify gate → score →
    /// select. `factors` is the factor cache to price residency against and
    /// to register the chosen algorithm's factors in (`None` plans the
    /// instance independently of every other).
    pub(crate) fn plan_with(
        &self,
        expr: &dyn Expression,
        name: &SharedStr,
        dims: &[usize],
        executor: &mut dyn Executor,
        factors: Option<&FactorCache>,
    ) -> Result<Plan, PlanError> {
        // Zero dimensions are deliberately *not* rejected here: every kernel,
        // FLOP model and executor handles degenerate (empty) operands, and
        // the degenerate-dimension proptests drive zero- and unit-sized
        // instances through this exact path.
        let expected = expr.num_dims();
        if dims.len() != expected {
            return Err(PlanError::DimensionMismatch {
                expected,
                got: dims.len(),
            });
        }
        // With CSE on, every candidate comes in its shared (DAG) form, so
        // each distinct node is computed — and charged — once.
        let mut algorithms = expr.candidates(dims, self.top_k, self.use_cse)?;
        // Drop algorithms whose kernel-call signature duplicates an earlier
        // one, on the *post-CSE* canonical form: rewrites can derive
        // sequences that only become identical once their internal
        // duplicates are merged.
        let enumerated = algorithms.len();
        let mut kept = 0;
        for i in 0..enumerated {
            if !algorithms[..kept]
                .iter()
                .any(|k| same_calls(k, &algorithms[i]))
            {
                algorithms.swap(kept, i);
                kept += 1;
            }
        }
        algorithms.truncate(kept);
        let duplicates_removed = enumerated - kept;
        if algorithms.is_empty() {
            return Err(PlanError::NoAlgorithms);
        }
        // Debug-mode gate: every candidate the policy may pick must pass the
        // static analyser. Compiled out in release builds (no timing skew).
        for alg in &algorithms {
            lamb_verify::debug_assert_verified(alg);
        }
        let (scores, chosen) = self.score(&algorithms, executor, factors)?;
        if let Some(fc) = factors {
            // The chosen algorithm's factors become resident for later
            // instances planned against the same cache (bytes arrive when an
            // execution actually computes them).
            fc.note_factors(&algorithms[chosen]);
        }
        Ok(Plan {
            dims: dims.to_vec(),
            expression: name.clone(),
            algorithms,
            scores,
            chosen,
            policy: self.policy.name.clone(),
            duplicates_removed,
            threshold: self.threshold,
            factory: Arc::clone(&self.factory),
        })
    }

    /// Score every algorithm — FLOPs, and predicted seconds through the
    /// shared prediction cache when prediction scoring is on — and let the
    /// policy choose. Factors resident in `factors` are priced at zero FLOPs
    /// and zero seconds, for the scores and for the policy alike; a
    /// candidate's FLOPs and seconds are priced in one pass over its calls.
    /// Scores and policy share one [`CachingExecutor`], so each distinct
    /// timing key is looked up in the shared cache once per plan.
    pub(crate) fn score(
        &self,
        algorithms: &[Algorithm],
        executor: &mut dyn Executor,
        factors: Option<&FactorCache>,
    ) -> Result<(Vec<AlgorithmScore>, usize), SelectError> {
        let mut caching = CachingExecutor::new(executor, self.cache()).with_factor_cache(factors);
        let scores = algorithms
            .iter()
            .enumerate()
            .map(|(index, alg)| {
                let (flops, predicted_seconds) = caching.price(alg, self.score_predictions);
                AlgorithmScore {
                    index,
                    name: alg.name.clone(),
                    flops,
                    predicted_seconds,
                }
            })
            .collect();
        let chosen = self.policy.policy.select(algorithms, &mut caching)?;
        Ok((scores, chosen))
    }

    /// Plan `items` across worker threads: one contiguous chunk and one
    /// executor from the factory per worker, results in input order.
    pub(crate) fn fan_out<T: Sync>(
        &self,
        items: &[T],
        plan_one: impl Fn(&T, &mut dyn Executor) -> Result<Plan, PlanError> + Sync,
    ) -> Vec<Result<Plan, PlanError>> {
        let workers = rayon::current_num_threads().max(1);
        let chunks: Vec<&[T]> = items.chunks(items.len().div_ceil(workers).max(1)).collect();
        let per_chunk: Vec<Vec<Result<Plan, PlanError>>> = chunks
            .into_par_iter()
            .map(|chunk| {
                let mut executor = (self.factory)();
                chunk
                    .iter()
                    .map(|item| plan_one(item, executor.as_mut()))
                    .collect()
            })
            .collect();
        per_chunk.into_iter().flatten().collect()
    }
}

/// Stamps the configuration surface [`Planner`] and
/// [`BatchPlanner`](crate::BatchPlanner) share onto a type holding a
/// `settings: Settings` field, so each setter has one body and one doc
/// comment. `impl_settings_builder!([generics] Type)`.
macro_rules! impl_settings_builder {
    ([$($generics:tt)*] $ty:ty) => {
        impl<$($generics)*> $ty {
            /// Use `policy` to choose among the enumerated algorithms: any
            /// [`SelectionPolicy`](lamb_select::SelectionPolicy) — a built-in
            /// policy struct, a custom implementation, or a boxed one chosen
            /// at run time.
            #[must_use]
            pub fn policy(
                mut self,
                policy: impl lamb_select::SelectionPolicy + 'static,
            ) -> Self {
                self.settings.policy = crate::planner::NamedPolicy::new(policy);
                self
            }

            /// Time algorithms with executors built by `factory`: one per
            /// single-instance plan, one per worker thread of a fan-out.
            #[must_use]
            pub fn executor_factory(
                mut self,
                factory: impl Fn() -> Box<dyn lamb_perfmodel::Executor> + Send + Sync + 'static,
            ) -> Self {
                self.settings.factory = std::sync::Arc::new(factory);
                self
            }

            /// Time-score threshold at which plans classify anomalies,
            /// predicted and executed (paper: 10% in Experiment 1, 5% in
            /// Experiments 2-3).
            #[must_use]
            pub fn threshold(mut self, threshold: f64) -> Self {
                self.settings.threshold = threshold;
                self
            }

            /// Restrict enumeration to the `k` algorithms with the smallest
            /// FLOP counts (branch-and-bound pruned by the general
            /// enumerator). This keeps planning tractable on long chains,
            /// whose full algorithm set grows factorially.
            #[must_use]
            pub fn top_k(mut self, k: usize) -> Self {
                self.settings.top_k = Some(k.max(1));
                self
            }

            /// Enable or disable common-subexpression elimination over the
            /// enumerated kernel-call sequences (on by default). With CSE on,
            /// every candidate algorithm is rewritten so identical
            /// subcomputations — repeated POTRFs of one SPD operand, repeated
            /// SYRK Gram products, repeated TRSM half-solves — are computed
            /// once and referenced thereafter, and the FLOP scores charge each
            /// distinct node once. Disable for an ablation (`--no-cse` in the
            /// CLI).
            #[must_use]
            pub fn cse(mut self, enabled: bool) -> Self {
                self.settings.use_cse = enabled;
                self
            }

            /// Plan against a shared [`FactorCache`](crate::FactorCache):
            /// cacheable factors already resident in it score as free — zero
            /// FLOPs, zero predicted seconds — so `MinPredictedTime` (and
            /// `Hybrid`) prefer algorithms that reuse them, and each plan's
            /// chosen algorithm registers its own factors for the instances
            /// that follow. A batch applies it in input order, after its
            /// parallel planning pass, so the outcome does not depend on the
            /// worker count. Off by default: without a factor cache every
            /// instance plans independently of every other.
            #[must_use]
            pub fn factor_cache(mut self, cache: std::sync::Arc<crate::FactorCache>) -> Self {
                self.settings.factor_cache = Some(cache);
                self
            }

            /// Share `cache` with other planners, single-expression and batch
            /// alike: every planner wired to the same cache benchmarks each
            /// distinct kernel call at most once between them.
            #[must_use]
            pub fn shared_cache(
                mut self,
                cache: std::sync::Arc<crate::PredictionCache>,
            ) -> Self {
                self.settings.set_cache(cache);
                self
            }

            /// Warm-start the prediction cache from a persisted
            /// [`CalibrationStore`](lamb_perfmodel::CalibrationStore): every
            /// kernel call whose timing key the store covers is a cache hit
            /// instead of a fresh benchmark (`snapshot_cache` is the other
            /// half of the round trip).
            ///
            /// Stores written by `calibrate --autotune` also carry the
            /// autotuned `BlockConfig` (`CalibrationStore::tuned_block_config`);
            /// pair this with an `executor_factory` that builds its measured
            /// executors under that configuration, so cached timings and
            /// fresh benchmarks describe the same blocking (the CLI's
            /// executor factory does this).
            #[must_use]
            pub fn with_store(self, store: &lamb_perfmodel::CalibrationStore) -> Self {
                self.settings.cache().preload(&store.calls);
                self
            }

            /// Export the prediction cache (preloaded entries plus everything
            /// benchmarked since) as a
            /// [`CallTimeTable`](lamb_perfmodel::CallTimeTable), e.g. to merge
            /// back into a calibration store.
            #[must_use]
            pub fn snapshot_cache(&self) -> lamb_perfmodel::CallTimeTable {
                self.settings.cache().snapshot()
            }

            /// `(hits, misses)` of the shared prediction cache.
            #[must_use]
            pub fn cache_stats(&self) -> (usize, usize) {
                self.settings.cache().stats()
            }
        }
    };
}
pub(crate) use impl_settings_builder;

/// Plans expression instances: enumerate the mathematically equivalent
/// algorithms, score them, and let a [`SelectionPolicy`] choose.
///
/// ```
/// use lamb_expr::TreeExpression;
/// use lamb_plan::Planner;
/// use lamb_select::MinPredictedTime;
///
/// let expr = TreeExpression::parse("A*A^T*B").unwrap();
/// let planner = Planner::for_expression(&expr).policy(MinPredictedTime);
/// let plan = planner.plan(&[80, 514, 768]).unwrap();
/// let outcome = plan.execute();
/// // On this paper instance the cheapest algorithms are not the fastest,
/// // and the prediction-based policy avoids the trap.
/// assert!(outcome.is_anomaly());
/// assert!(outcome.regret() < 0.05);
/// ```
pub struct Planner<'e> {
    expr: &'e dyn Expression,
    /// The expression's name, shared by every plan of this planner.
    name: SharedStr,
    settings: Settings,
}

impl_settings_builder!(['e] Planner<'e>);

impl<'e> Planner<'e> {
    /// Start planning for `expr` with the defaults: the `MinFlops` policy
    /// (what Linnea/Armadillo/Julia do), the paper-like simulated executor,
    /// predicted-time scoring enabled, and the 10% anomaly threshold of
    /// Experiment 1.
    #[must_use]
    pub fn for_expression(expr: &'e dyn Expression) -> Self {
        Planner {
            expr,
            name: expr.name().into(),
            settings: Settings::new(NamedPolicy::min_flops()),
        }
    }

    /// Whether [`Plan::scores`](crate::Plan) should include predicted times
    /// (benchmarked through the shared cache). Disable for tight loops that
    /// only need the FLOP scores and the policy's choice.
    #[must_use]
    pub fn score_predictions(mut self, enabled: bool) -> Self {
        self.settings.score_predictions = enabled;
        self
    }

    /// The expression being planned.
    #[must_use]
    pub fn expression(&self) -> &'e dyn Expression {
        self.expr
    }

    /// The shared prediction cache: distinct kernel calls benchmarked so far.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.settings.cache().len()
    }

    /// Plan one instance with a fresh executor from the factory.
    ///
    /// ```
    /// use lamb_expr::TreeExpression;
    /// use lamb_plan::{MinPredictedTime, Planner};
    ///
    /// let expr = TreeExpression::parse("A*A^T*B").unwrap();
    /// let planner = Planner::for_expression(&expr).policy(MinPredictedTime);
    /// let plan = planner.plan(&[80, 514, 768]).unwrap();
    ///
    /// // Five mathematically equivalent algorithms, each scored by FLOPs and
    /// // by predicted time from (cached) isolated-call benchmarks.
    /// assert_eq!(plan.algorithms.len(), 5);
    /// assert!(plan.scores.iter().all(|s| s.predicted_seconds.is_some()));
    /// // On this paper instance the FLOP-cheapest algorithm is NOT the one
    /// // the prediction-based policy picks: the anomaly the paper studies.
    /// let min_flops = plan.scores.iter().map(|s| s.flops).min().unwrap();
    /// assert_ne!(plan.chosen_score().flops, min_flops);
    /// ```
    ///
    /// # Errors
    ///
    /// See [`PlanError`].
    pub fn plan(&self, dims: &[usize]) -> Result<Plan, PlanError> {
        let mut executor = (self.settings.factory)();
        self.plan_with(dims, executor.as_mut())
    }

    /// Plan one instance, consulting `executor` (through the shared
    /// prediction cache) for predicted times. The per-algorithm predicted
    /// times of the paper's Experiment 3 are the plan's scores:
    /// [`Plan::predicted_anomaly`] classifies them in place.
    ///
    /// # Errors
    ///
    /// See [`PlanError`].
    pub fn plan_with(
        &self,
        dims: &[usize],
        executor: &mut dyn Executor,
    ) -> Result<Plan, PlanError> {
        let factors = self.settings.factor_cache.as_deref();
        self.settings
            .plan_with(self.expr, &self.name, dims, executor, factors)
    }

    /// Plan a batch of instances, fanning out across worker threads: the
    /// grid is split into one contiguous chunk per worker, each worker
    /// builds one executor from the factory, and the prediction cache is
    /// shared by all of them.
    ///
    /// Results come back in input order, one per instance; an invalid
    /// instance yields its own `Err` without failing the rest. Verdicts are
    /// independent of the number of worker threads because the deterministic
    /// executors key their timings on the kernel-call signatures alone.
    #[must_use]
    pub fn plan_grid(&self, grid: &[Vec<usize>]) -> Vec<Result<Plan, PlanError>> {
        self.settings
            .fan_out(grid, |dims, executor| self.plan_with(dims, executor))
    }
}

/// Whether two algorithms have the same behavioural identity: the same
/// kernel-call signature (operation, operand wiring), labels aside.
fn same_calls(a: &Algorithm, b: &Algorithm) -> bool {
    a.calls.len() == b.calls.len()
        && a.calls
            .iter()
            .zip(&b.calls)
            .all(|(x, y)| x.op == y.op && x.inputs == y.inputs && x.output == y.output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::residency;
    use lamb_expr::{GenerateError, TreeExpression};
    use lamb_select::{MinPredictedTime, Oracle};

    #[test]
    fn planning_validates_dimensions() {
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let planner = Planner::for_expression(&expr);
        assert_eq!(
            planner.plan(&[10, 20]).unwrap_err(),
            PlanError::DimensionMismatch {
                expected: 3,
                got: 2
            }
        );
        // Zero dimensions are legal degenerate instances, not errors: they
        // plan (and execute to empty/zero results) like any other size.
        let degenerate = planner.plan(&[10, 0, 30]).unwrap();
        assert_eq!(degenerate.chosen_algorithm().output().unwrap().cols, 30);
    }

    #[test]
    fn default_policy_is_min_flops() {
        let expr = TreeExpression::parse("A*B*C*D").unwrap();
        let planner = Planner::for_expression(&expr);
        let plan = planner.plan(&[100, 20, 300, 20, 500]).unwrap();
        assert_eq!(plan.policy, "min-flops");
        let min = plan.scores.iter().map(|s| s.flops).min().unwrap();
        assert_eq!(plan.chosen_score().flops, min);
        assert_eq!(plan.algorithms.len(), 6);
        assert_eq!(plan.expression, expr.name());
    }

    #[test]
    fn scores_include_predictions_by_default_and_can_be_disabled() {
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let planner = Planner::for_expression(&expr);
        let plan = planner.plan(&[80, 100, 120]).unwrap();
        assert!(plan.scores.iter().all(|s| s.predicted_seconds.is_some()));
        assert!(planner.cache_len() > 0);

        let lean = Planner::for_expression(&expr).score_predictions(false);
        let plan = lean.plan(&[80, 100, 120]).unwrap();
        assert!(plan.scores.iter().all(|s| s.predicted_seconds.is_none()));
        assert_eq!(lean.cache_len(), 0, "min-flops must not benchmark");
    }

    #[test]
    fn a_boxed_policy_plans_like_the_policy_it_holds() {
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let dims = [400usize, 100, 1100];
        let direct = Planner::for_expression(&expr)
            .policy(MinPredictedTime)
            .plan(&dims)
            .unwrap();
        let boxed: Box<dyn SelectionPolicy> = Box::new(MinPredictedTime);
        let via_box = Planner::for_expression(&expr)
            .policy(boxed)
            .plan(&dims)
            .unwrap();
        assert_eq!(direct.chosen, via_box.chosen);
        assert_eq!(direct.policy, via_box.policy);
    }

    #[test]
    fn execution_judges_the_choice_against_the_optimum() {
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let oracle = Planner::for_expression(&expr).policy(Oracle);
        let outcome = oracle.plan(&[300, 700, 900]).unwrap().execute();
        assert!(outcome.regret() < 1e-12, "the oracle has no regret");
        assert_eq!(outcome.timings.len(), 5);
        assert!(outcome.best_seconds() > 0.0);
    }

    #[test]
    fn select_errors_surface_as_plan_errors() {
        // A planner over an expression that enumerates nothing.
        struct Empty;
        impl Expression for Empty {
            fn name(&self) -> String {
                "empty".into()
            }
            fn num_dims(&self) -> usize {
                1
            }
            fn algorithms_pruned(
                &self,
                _dims: &[usize],
                _top_k: Option<usize>,
            ) -> Result<Vec<Algorithm>, GenerateError> {
                Ok(Vec::new())
            }
        }
        let expr = Empty;
        let planner = Planner::for_expression(&expr);
        assert_eq!(planner.plan(&[10]).unwrap_err(), PlanError::NoAlgorithms);
        // And the SelectError conversion is exercised directly.
        assert_eq!(
            PlanError::from(SelectError::EmptyAlgorithmSet),
            PlanError::Select(SelectError::EmptyAlgorithmSet)
        );
    }

    #[test]
    fn enumeration_errors_surface_as_plan_errors() {
        struct Broken;
        impl Expression for Broken {
            fn name(&self) -> String {
                "broken".into()
            }
            fn num_dims(&self) -> usize {
                1
            }
            fn algorithms_pruned(
                &self,
                _dims: &[usize],
                _top_k: Option<usize>,
            ) -> Result<Vec<Algorithm>, GenerateError> {
                Err(GenerateError::Empty)
            }
        }
        let expr = Broken;
        let planner = Planner::for_expression(&expr);
        assert_eq!(
            planner.plan(&[10]).unwrap_err(),
            PlanError::Generate(GenerateError::Empty)
        );
        let message = planner.plan(&[10]).unwrap_err().to_string();
        assert!(message.contains("enumeration failed"), "{message}");
    }

    #[test]
    fn duplicate_call_signatures_are_removed_and_reported() {
        // An expression that (artificially) enumerates the same algorithm
        // twice under different names.
        struct Doubled;
        impl Expression for Doubled {
            fn name(&self) -> String {
                "doubled".into()
            }
            fn num_dims(&self) -> usize {
                3
            }
            fn algorithms_pruned(
                &self,
                dims: &[usize],
                _top_k: Option<usize>,
            ) -> Result<Vec<Algorithm>, GenerateError> {
                let aatb = TreeExpression::parse("A*A^T*B").unwrap();
                let mut algs = aatb.algorithms(dims)?;
                let mut twin = algs[0].clone();
                twin.name = "the same algorithm again".into();
                for call in &mut twin.calls {
                    call.label = format!("{} (relabelled)", call.label).into();
                }
                algs.push(twin);
                Ok(algs)
            }
        }
        let expr = Doubled;
        let plan = Planner::for_expression(&expr)
            .plan(&[80, 100, 120])
            .unwrap();
        assert_eq!(plan.duplicates_removed, 1, "the relabelled twin is a dup");
        assert_eq!(plan.algorithms.len(), 5);
        // The paper expressions have no duplicates.
        let aatb = TreeExpression::parse("A*A^T*B").unwrap();
        let plan = Planner::for_expression(&aatb)
            .plan(&[80, 100, 120])
            .unwrap();
        assert_eq!(plan.duplicates_removed, 0);
        assert_eq!(plan.algorithms.len(), 5);
    }

    #[test]
    fn dedup_happens_on_the_post_cse_canonical_form() {
        use lamb_expr::{KernelCall, KernelOp, OperandId, OperandInfo, OperandRole};
        use lamb_matrix::{Structure, Trans};
        // (A*B)*(A*B) on square operands, enumerated two ways: one algorithm
        // shares the product T = A*B, its twin recomputes it into a second
        // intermediate. The kernel-call signatures differ *until* CSE merges
        // the recomputation, at which point the twin collapses onto the
        // original and must be removed as a duplicate.
        struct TwinnedByRedundancy;
        impl Expression for TwinnedByRedundancy {
            fn name(&self) -> String {
                "twinned".into()
            }
            fn num_dims(&self) -> usize {
                1
            }
            fn algorithms_pruned(
                &self,
                dims: &[usize],
                _top_k: Option<usize>,
            ) -> Result<Vec<Algorithm>, GenerateError> {
                let s = dims[0];
                let square = |id: usize, name: &str, role: OperandRole| OperandInfo {
                    id: OperandId(id),
                    rows: s,
                    cols: s,
                    role,
                    name: name.into(),
                    structure: Structure::General,
                };
                let gemm = |a: usize, b: usize, out: usize, label: &str| KernelCall {
                    op: KernelOp::Gemm {
                        transa: Trans::No,
                        transb: Trans::No,
                        m: s,
                        n: s,
                        k: s,
                    },
                    inputs: [OperandId(a), OperandId(b)].into(),
                    output: OperandId(out),
                    label: label.into(),
                };
                let shared = Algorithm {
                    name: "share the product".into(),
                    operands: vec![
                        square(0, "A", OperandRole::Input),
                        square(1, "B", OperandRole::Input),
                        square(2, "T", OperandRole::Intermediate),
                        square(3, "out", OperandRole::Output),
                    ],
                    calls: vec![gemm(0, 1, 2, "T = A B"), gemm(2, 2, 3, "out = T T")],
                };
                let mut twin = shared.clone();
                twin.name = "recompute the product".into();
                twin.operands
                    .push(square(4, "T (recomputed)", OperandRole::Intermediate));
                twin.calls = vec![
                    gemm(0, 1, 2, "T = A B"),
                    gemm(0, 1, 4, "T' = A B (again)"),
                    gemm(2, 4, 3, "out = T T'"),
                ];
                Ok(vec![shared, twin])
            }
        }
        let expr = TwinnedByRedundancy;
        // With CSE (the default) the twin is canonicalised back onto the
        // original and deduplicated.
        let plan = Planner::for_expression(&expr)
            .score_predictions(false)
            .plan(&[32])
            .unwrap();
        assert_eq!(plan.duplicates_removed, 1, "the twin is a post-CSE dup");
        assert_eq!(plan.algorithms.len(), 1);
        // The --no-cse ablation sees two genuinely different call sequences.
        let plan = Planner::for_expression(&expr)
            .score_predictions(false)
            .cse(false)
            .plan(&[32])
            .unwrap();
        assert_eq!(plan.duplicates_removed, 0, "pre-CSE the signatures differ");
        assert_eq!(plan.algorithms.len(), 2);
    }

    #[test]
    fn a_shared_factor_cache_warms_successive_plans() {
        let expr = TreeExpression::parse("S[spd]^-1*B").unwrap();
        let cache = Arc::new(crate::FactorCache::new());
        let planner = Planner::for_expression(&expr)
            .policy(MinPredictedTime)
            .factor_cache(Arc::clone(&cache));
        let cold = planner.plan(&[120, 16]).unwrap();
        assert!(
            !cache.is_empty(),
            "the chosen algorithm's factors are registered"
        );
        let warm = planner.plan(&[120, 16]).unwrap();
        let cold_seconds = cold.chosen_score().predicted_seconds.unwrap();
        let warm_seconds = warm.chosen_score().predicted_seconds.unwrap();
        assert!(
            warm_seconds < cold_seconds,
            "resident factors must discount the warm prediction \
             ({warm_seconds} vs {cold_seconds})"
        );
        assert!(
            warm.chosen_score().flops < cold.chosen_score().flops,
            "effective FLOPs are discounted once the factors are resident"
        );
        // Without the factor cache the two plans are identical (and both
        // match the cold plan): planning stays instance-independent.
        let independent = Planner::for_expression(&expr).policy(MinPredictedTime);
        let first = independent.plan(&[120, 16]).unwrap();
        let second = independent.plan(&[120, 16]).unwrap();
        assert_eq!(first.chosen, second.chosen);
        assert_eq!(
            first.chosen_score().predicted_seconds,
            second.chosen_score().predicted_seconds
        );
    }

    #[test]
    fn top_k_limits_the_scored_algorithm_set() {
        let expr = TreeExpression::parse("A*B*C*D*E*F").unwrap();
        let planner = Planner::for_expression(&expr).score_predictions(false);
        let dims = [60, 20, 90, 30, 120, 40, 70];
        let full = planner.plan(&dims).unwrap();
        assert_eq!(full.algorithms.len(), 120); // 5!
        let pruned_planner = Planner::for_expression(&expr)
            .score_predictions(false)
            .top_k(8);
        let pruned = pruned_planner.plan(&dims).unwrap();
        assert_eq!(pruned.algorithms.len(), 8);
        // The pruned set contains the FLOP-cheapest algorithm, so min-flops
        // selection is unaffected.
        assert_eq!(
            pruned.chosen_score().flops,
            full.scores.iter().map(|s| s.flops).min().unwrap()
        );
    }

    #[test]
    fn plan_grid_builds_at_most_one_executor_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let built = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&built);
        let planner = Planner::for_expression(&expr).executor_factory(move || {
            counter.fetch_add(1, Ordering::Relaxed);
            Box::new(lamb_perfmodel::SimulatedExecutor::paper_like())
        });
        let grid: Vec<Vec<usize>> = (1..=64).map(|i| vec![20 + i, 100, 200]).collect();
        let results = planner.plan_grid(&grid);
        assert_eq!(results.len(), 64);
        assert!(results.iter().all(Result::is_ok));
        let factories = built.load(Ordering::Relaxed);
        assert!(
            factories <= rayon::current_num_threads(),
            "{factories} executors for {} workers",
            rayon::current_num_threads()
        );
    }

    #[test]
    fn the_shared_cache_spans_instances() {
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let planner = Planner::for_expression(&expr).policy(MinPredictedTime);
        let _ = planner.plan(&[80, 100, 120]).unwrap();
        let after_first = planner.cache_stats();
        // The same instance again: only hits, no new misses.
        let _ = planner.plan(&[80, 100, 120]).unwrap();
        let after_second = planner.cache_stats();
        assert_eq!(after_first.1, after_second.1, "no new benchmarks");
        assert!(after_second.0 > after_first.0, "cache hits increased");
    }

    /// The distinct timing keys of the calls of `algorithms` that are not
    /// resident in `factors`.
    fn distinct_keys(algorithms: &[Algorithm], factors: Option<&FactorCache>) -> usize {
        let mut keys: Vec<lamb_expr::KernelOp> = Vec::new();
        for alg in algorithms {
            for (call, resident) in alg.calls.iter().zip(residency(factors, alg)) {
                let key = call.op.timing_key();
                if !resident && !keys.contains(&key) {
                    keys.push(key);
                }
            }
        }
        keys.len()
    }

    #[test]
    fn a_plan_reaches_the_shared_cache_once_per_distinct_timing_key() {
        let instances: [(&str, &[usize]); 5] = [
            ("A*A^T*B", &[80, 514, 768]),
            ("A*B*C*D", &[100, 20, 300, 20, 500]),
            ("S[spd]^-1*A*B", &[60, 30, 20]),
            ("A^T*B*A", &[40, 70]),
            ("A^+*B*C", &[40, 90, 30, 20]),
        ];
        for (text, dims) in instances {
            let expr = TreeExpression::parse(text).unwrap();
            let planner = Planner::for_expression(&expr).policy(MinPredictedTime);
            let cold = planner.plan(dims).unwrap();
            let keys = distinct_keys(&cold.algorithms, None);
            assert!(keys < cold.algorithms.iter().map(|a| a.calls.len()).sum());
            assert_eq!(planner.cache_stats(), (0, keys), "{text}: cold");
            planner.plan(dims).unwrap();
            assert_eq!(planner.cache_stats(), (keys, keys), "{text}: warm");
        }
        // Resident calls price at zero without a lookup.
        let expr = TreeExpression::parse("S[spd]^-1*B").unwrap();
        let factors = Arc::new(crate::FactorCache::new());
        let planner = Planner::for_expression(&expr)
            .policy(MinPredictedTime)
            .factor_cache(Arc::clone(&factors));
        planner.plan(&[120, 16]).unwrap();
        let (hits, misses) = planner.cache_stats();
        let warm = planner.plan(&[120, 16]).unwrap();
        let keys = distinct_keys(&warm.algorithms, Some(&factors));
        assert!(keys < distinct_keys(&warm.algorithms, None));
        let (hits_after, misses_after) = planner.cache_stats();
        assert_eq!(hits_after + misses_after - hits - misses, keys);
    }

    #[test]
    fn min_predicted_time_chooses_the_argmin_of_the_plans_own_scores() {
        let instances: [(&str, &[usize]); 6] = [
            ("A*A^T*B", &[80, 514, 768]),
            ("A*A^T*B", &[400, 100, 1100]),
            ("A*B*C*D", &[331, 279, 338, 854, 427]),
            ("S[spd]*A*A^T", &[200, 90]),
            ("A*B*L[lower]^-1", &[70, 110, 40]),
            ("A^-1*B*C", &[120, 60, 90]),
        ];
        for (text, dims) in instances {
            let expr = TreeExpression::parse(text).unwrap();
            let plan = Planner::for_expression(&expr)
                .policy(MinPredictedTime)
                .plan(dims)
                .unwrap();
            let seconds: Vec<f64> = plan
                .scores
                .iter()
                .map(|s| s.predicted_seconds.unwrap())
                .collect();
            // The scores are the uncached prediction, bit for bit.
            let mut reference = SimulatedExecutor::paper_like();
            for (alg, s) in plan.algorithms.iter().zip(&seconds) {
                let want = reference.predict_from_isolated_calls(alg).seconds;
                assert_eq!(s.to_bits(), want.to_bits(), "{text}: {}", alg.name);
            }
            // The first of the minima, as the policy breaks ties.
            let argmin =
                (0..seconds.len()).fold(
                    0,
                    |best, i| {
                        if seconds[i] < seconds[best] {
                            i
                        } else {
                            best
                        }
                    },
                );
            assert_eq!(plan.chosen, argmin, "{text} {dims:?}");
        }
    }
}
