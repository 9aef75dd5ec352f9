//! Batched planning: many expressions, one warm calibration, aggregate
//! statistics.
//!
//! The single-expression [`Planner`] answers "which algorithm
//! should evaluate *this* instance?". Production traffic asks a different
//! question: given thousands of expression instances, plan them all, as fast
//! as possible, against calibration data that was paid for **once**. That is
//! this module:
//!
//! * [`BatchRequest`] — one parsed expression plus its dimension tuple
//!   (parsed from text lines like `A*A^T*B 80 514 768`);
//! * [`BatchPlanner`] — the same settings a [`Planner`] holds (policy,
//!   executor factory, the shared, sharded prediction cache, optionally
//!   warm-started from a
//!   [`CalibrationStore`](lamb_perfmodel::CalibrationStore)) without an
//!   expression: each request brings its own;
//! * [`BatchPlanner::plan_batch`] — fans the requests out across rayon
//!   workers (one executor per worker, results in input order), every
//!   request through the pipeline a [`Planner`] runs, and returns
//!   per-request [`Plan`]s plus a [`BatchStats`] aggregate: cache hit rate,
//!   total predicted time of the chosen algorithms versus the FLOP-optimal
//!   ones, and the predicted-anomaly count.
//!
//! Because the deterministic executors key isolated-call benchmarks on the
//! call's timing key alone, batch results are independent of worker count
//! and of whether the cache started cold or warm — a warm start only makes
//! them *faster*.
//!
//! [`Planner`]: crate::Planner

use crate::plan::{Plan, PlanError};
use crate::planner::{impl_settings_builder, NamedPolicy, Settings};
use lamb_expr::{ParseError, TreeExpression};
use lamb_perfmodel::FactorCache;
use std::fmt;
use std::time::Instant;

/// One unit of batch work: a parsed expression and its instance dimensions.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// The parsed, dimension-parameterised expression; its normalised text
    /// (`expr.text()`) names the request in reports.
    pub expr: TreeExpression,
    /// The instance's dimension tuple.
    pub dims: Vec<usize>,
}

/// Why a batch-request line could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchParseError {
    /// 1-based line number within the input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for BatchParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for BatchParseError {}

impl BatchRequest {
    /// Build a request from an already parsed expression.
    ///
    /// # Errors
    ///
    /// Rejects a dimension tuple whose length does not match the expression.
    pub fn new(expr: TreeExpression, dims: Vec<usize>) -> Result<Self, String> {
        use lamb_expr::Expression;
        if dims.len() != expr.num_dims() {
            return Err(format!(
                "`{}` needs {} dimension sizes, got {}",
                expr.name(),
                expr.num_dims(),
                dims.len()
            ));
        }
        Ok(BatchRequest { expr, dims })
    }

    /// Parse one whitespace-separated line: an expression followed by its
    /// dimension sizes, e.g. `A*A^T*B 80 514 768`.
    ///
    /// # Errors
    ///
    /// Reports unparsable expressions, non-numeric or zero dimensions, and
    /// dimension tuples of the wrong length (all with `line_number`).
    pub fn parse_line(line: &str, line_number: usize) -> Result<Self, BatchParseError> {
        let err = |message: String| BatchParseError {
            line: line_number,
            message,
        };
        let mut tokens = line.split_whitespace();
        let text = tokens
            .next()
            .ok_or_else(|| err("empty request line".into()))?;
        let expr = TreeExpression::parse(text)
            .map_err(|e: ParseError| err(format!("cannot parse `{text}`: {e}")))?;
        let dims: Vec<usize> = tokens
            .map(|t| {
                t.parse::<usize>()
                    .map_err(|_| err(format!("invalid dimension `{t}`")))
                    .and_then(|d| {
                        if d == 0 {
                            Err(err("dimension sizes must be positive".into()))
                        } else {
                            Ok(d)
                        }
                    })
            })
            .collect::<Result<_, _>>()?;
        BatchRequest::new(expr, dims).map_err(err)
    }

    /// Parse a whole request file: one request per line, blank lines and
    /// `#`-comments skipped.
    ///
    /// # Errors
    ///
    /// The first offending line aborts the parse (a batch with silently
    /// dropped requests would misreport coverage).
    pub fn parse_file(contents: &str) -> Result<Vec<Self>, BatchParseError> {
        contents
            .lines()
            .enumerate()
            .filter(|(_, line)| {
                let trimmed = line.trim();
                !trimmed.is_empty() && !trimmed.starts_with('#')
            })
            .map(|(i, line)| BatchRequest::parse_line(line, i + 1))
            .collect()
    }
}

/// Aggregate statistics of one [`BatchPlanner::plan_batch`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    /// Requests submitted.
    pub requests: usize,
    /// Requests that produced a [`Plan`].
    pub planned: usize,
    /// Requests that failed (their `Err` is in the results vector).
    pub failed: usize,
    /// Instances that are *predicted* anomalies
    /// ([`Plan::predicted_anomaly`]): the paper's Section 3.3 classification
    /// applied to the predicted times.
    pub predicted_anomalies: usize,
    /// Prediction-cache hits during this batch. A plan looks each distinct
    /// non-resident timing key of its candidates up once (its
    /// [`CachingExecutor`](crate::CachingExecutor) answers the repeats), so
    /// this counts distinct keys per request, not priced calls.
    pub cache_hits: usize,
    /// Prediction-cache misses (fresh benchmarks) during this batch.
    pub cache_misses: usize,
    /// Distinct timing keys in the cache after the batch.
    pub distinct_calls: usize,
    /// Sum over planned instances of the predicted time of the *chosen*
    /// algorithm, in seconds.
    pub chosen_predicted_seconds: f64,
    /// Sum over planned instances of the predicted time of the FLOP-minimal
    /// algorithm, in seconds — what a pure FLOP discriminant would pay.
    pub flop_optimal_predicted_seconds: f64,
    /// Wall-clock duration of the batch, in seconds.
    pub elapsed_seconds: f64,
}

impl BatchStats {
    /// Cache hits over total cache accesses (0 when nothing was accessed).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Planned expressions per wall-clock second.
    #[must_use]
    pub fn expressions_per_second(&self) -> f64 {
        if self.elapsed_seconds <= 0.0 {
            0.0
        } else {
            self.planned as f64 / self.elapsed_seconds
        }
    }

    /// Predicted seconds saved versus always choosing the FLOP-minimal
    /// algorithm (non-negative for the predicted-time policy).
    #[must_use]
    pub fn predicted_seconds_saved(&self) -> f64 {
        self.flop_optimal_predicted_seconds - self.chosen_predicted_seconds
    }
}

/// The outcome of a batch: per-request results (input order) and aggregates.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One entry per request: the plan, or why it failed.
    pub results: Vec<Result<Plan, PlanError>>,
    /// Aggregate statistics.
    pub stats: BatchStats,
}

impl BatchOutcome {
    /// The successfully planned requests, in input order.
    pub fn plans(&self) -> impl Iterator<Item = &Plan> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }
}

/// Plans whole slices of parsed expressions against one shared, sharded
/// prediction cache. It is a [`Planner`] without the expression — the same
/// settings, the same setters, the same pipeline per request — and its
/// default policy is `MinPredictedTime`, because batch serving exists
/// precisely to exploit measured kernel performance.
///
/// ```
/// use lamb_plan::{BatchPlanner, BatchRequest};
///
/// // One request per line; `#` comments and blank lines are skipped. The
/// // second line is the paper's Figure-11 anomaly instance.
/// let file = "A*B*C*D 331 279 338 854 427\n# comment\nA*A^T*B 80 514 768\n";
/// let requests = BatchRequest::parse_file(file).unwrap();
/// let outcome = BatchPlanner::new().plan_batch(&requests);
/// assert_eq!(outcome.results.len(), 2);
/// assert_eq!(outcome.stats.planned, 2);
/// assert_eq!(outcome.stats.predicted_anomalies, 1); // A*A^T*B at (80,514,768)
/// ```
///
/// [`Planner`]: crate::Planner
pub struct BatchPlanner {
    settings: Settings,
}

impl_settings_builder!([] BatchPlanner);

impl Default for BatchPlanner {
    fn default() -> Self {
        BatchPlanner::new()
    }
}

impl BatchPlanner {
    /// A batch planner with the defaults: `MinPredictedTime` policy, the
    /// paper-like simulated executor, the 10% anomaly threshold, a cold
    /// cache, CSE enabled, no factor cache, and no enumeration cap.
    #[must_use]
    pub fn new() -> Self {
        BatchPlanner {
            settings: Settings::new(NamedPolicy::min_predicted_time()),
        }
    }

    /// Plan every request, fanning out across rayon workers: the slice is
    /// split into one contiguous chunk per worker, each worker builds one
    /// executor, and all workers share the sharded prediction cache. Results
    /// come back in input order; an invalid request yields its own `Err`
    /// without failing the rest.
    ///
    /// The returned [`BatchStats`] cover *this* call: cache hits/misses are
    /// deltas against the cache's counters at entry, so a warm-started cache
    /// reports its preloaded entries as hits.
    #[must_use]
    pub fn plan_batch(&self, requests: &[BatchRequest]) -> BatchOutcome {
        let settings = &self.settings;
        let start = Instant::now();
        let cache = settings.cache();
        let (hits_before, misses_before) = cache.stats();
        // Every request plans independently here; factor residency is an
        // order-dependent matter and is applied afterwards, in input order.
        let mut results = settings.fan_out(requests, |req, executor| {
            settings.plan_with(&req.expr, req.expr.shared_text(), &req.dims, executor, None)
        });
        if let Some(fc) = &settings.factor_cache {
            self.rescore_with_factor_reuse(fc, &mut results);
        }
        let elapsed_seconds = start.elapsed().as_secs_f64();
        let (hits_after, misses_after) = cache.stats();

        let mut stats = BatchStats {
            requests: requests.len(),
            planned: 0,
            failed: 0,
            predicted_anomalies: 0,
            cache_hits: hits_after - hits_before,
            cache_misses: misses_after - misses_before,
            distinct_calls: cache.len(),
            chosen_predicted_seconds: 0.0,
            flop_optimal_predicted_seconds: 0.0,
            elapsed_seconds,
        };
        for result in &results {
            let Ok(plan) = result else {
                stats.failed += 1;
                continue;
            };
            stats.planned += 1;
            if let Some(chosen) = plan.chosen_score().predicted_seconds {
                stats.chosen_predicted_seconds += chosen;
            }
            if let Some(flop_optimal) = plan.flop_optimal_score().predicted_seconds {
                stats.flop_optimal_predicted_seconds += flop_optimal;
            }
            if plan.predicted_anomaly() == Some(true) {
                stats.predicted_anomalies += 1;
            }
        }
        BatchOutcome { results, stats }
    }

    /// The factor-reuse pass: walk the planned results *sequentially, in
    /// input order* (so the outcome is independent of worker count), re-score
    /// each plan against the residency the earlier requests established,
    /// let the policy re-select, and register the chosen algorithm's factors
    /// for the requests that follow.
    fn rescore_with_factor_reuse(&self, fc: &FactorCache, results: &mut [Result<Plan, PlanError>]) {
        let settings = &self.settings;
        let mut executor = (settings.factory)();
        for plan in results.iter_mut().flatten() {
            // Fast path: a plan none of whose candidates can reuse anything
            // resident keeps its phase-one scores untouched.
            let any_resident = plan
                .algorithms
                .iter()
                .any(|alg| !fc.resident_calls(alg).is_empty());
            if any_resident {
                let rescored = settings.score(&plan.algorithms, executor.as_mut(), Some(fc));
                if let Ok(rescored) = rescored {
                    (plan.scores, plan.chosen) = rescored;
                }
            }
            fc.note_factors(plan.chosen_algorithm());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamb_select::MinFlops;
    use std::sync::Arc;

    fn requests() -> Vec<BatchRequest> {
        BatchRequest::parse_file(
            "# mixed batch: chains and Gram products\n\
             A*B*C*D 331 279 338 854 427\n\
             A*A^T*B 80 514 768\n\
             A*A^T*B 1000 1000 1000\n\
             A*B*B^T 300 700 900\n\
             \n\
             A*B*C*D*E 60 20 90 30 120 40\n",
        )
        .unwrap()
    }

    #[test]
    fn request_lines_parse_and_validate() {
        let reqs = requests();
        assert_eq!(reqs.len(), 5);
        assert_eq!(reqs[0].dims, vec![331, 279, 338, 854, 427]);
        assert_eq!(reqs[1].expr.text(), "A*A^T*B");

        let err = BatchRequest::parse_line("A*B 10", 3).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("needs 3 dimension sizes"));
        assert!(BatchRequest::parse_line("A*B 10 0 20", 1)
            .unwrap_err()
            .message
            .contains("positive"));
        assert!(BatchRequest::parse_line("A*)B 1 2 3", 1)
            .unwrap_err()
            .message
            .contains("cannot parse"));
        assert!(BatchRequest::parse_line("A*B ten 20 30", 1)
            .unwrap_err()
            .message
            .contains("invalid dimension"));
        assert!(BatchRequest::parse_file("A*B 10 20 30\nbogus*)\n").is_err());
    }

    #[test]
    fn batch_results_keep_input_order_and_count_anomalies() {
        let reqs = requests();
        let outcome = BatchPlanner::new().plan_batch(&reqs);
        assert_eq!(outcome.results.len(), 5);
        assert_eq!(outcome.stats.planned, 5);
        assert_eq!(outcome.stats.failed, 0);
        for (req, result) in reqs.iter().zip(&outcome.results) {
            let plan = result.as_ref().unwrap();
            assert_eq!(plan.dims, req.dims);
        }
        // The paper's Figure-11 instance is a predicted anomaly; the large
        // square A*A^T*B instance is not.
        assert!(outcome.stats.predicted_anomalies >= 1);
        assert!(outcome.stats.predicted_anomalies < 5);
        // The predicted-time policy never does worse than the FLOP policy on
        // its own predictions.
        assert!(outcome.stats.predicted_seconds_saved() >= 0.0);
        assert!(outcome.stats.chosen_predicted_seconds > 0.0);
        assert!(outcome.stats.elapsed_seconds > 0.0);
        assert!(outcome.stats.expressions_per_second() > 0.0);
        assert_eq!(outcome.plans().count(), 5);
    }

    /// How many of `outcome`'s plans the Section 3.3 judge calls anomalies
    /// over their scores, at the batch planner's default threshold.
    fn classified_anomalies(outcome: &BatchOutcome) -> usize {
        outcome
            .plans()
            .filter(|plan| {
                let rows = plan
                    .scores
                    .iter()
                    .map(|s| (s.flops, s.predicted_seconds.unwrap()));
                lamb_select::classify(rows, 0.10).is_anomaly
            })
            .count()
    }

    #[test]
    fn predicted_anomalies_count_the_classified_scores_of_each_plan() {
        let plain = BatchPlanner::new().plan_batch(&requests());
        assert!(plain.stats.predicted_anomalies >= 1);
        assert_eq!(
            plain.stats.predicted_anomalies,
            classified_anomalies(&plain)
        );
        // Under a factor cache the reuse pass rewrites the scores of the
        // solves that follow the first; the count reads the rewritten ones.
        let reqs = BatchRequest::parse_file(
            "S[spd]^-1*A*B 96 40 12\n\
             S[spd]^-1*A*B 96 40 12\n\
             S[spd]^-1*A*B 96 40 12\n\
             A*A^T*B 80 514 768\n",
        )
        .unwrap();
        let fresh = BatchPlanner::new().plan_batch(&reqs);
        let reused = BatchPlanner::new()
            .factor_cache(Arc::new(FactorCache::new()))
            .plan_batch(&reqs);
        assert!(
            reused
                .plans()
                .zip(fresh.plans())
                .any(|(r, f)| r.scores != f.scores),
            "the reuse pass rewrote some scores"
        );
        assert!(reused.stats.predicted_anomalies >= 1);
        assert_eq!(
            reused.stats.predicted_anomalies,
            classified_anomalies(&reused)
        );
    }

    #[test]
    fn failures_are_isolated_per_request() {
        let mut reqs = requests();
        reqs[2].dims = vec![10, 20]; // wrong arity, bypassing the constructor
        let outcome = BatchPlanner::new().plan_batch(&reqs);
        assert_eq!(outcome.stats.planned, 4);
        assert_eq!(outcome.stats.failed, 1);
        assert!(outcome.results[2].is_err());
        assert!(outcome.results[3].is_ok());
    }

    #[test]
    fn warm_batches_agree_with_cold_batches_and_stop_benchmarking() {
        let reqs = requests();
        let cold_planner = BatchPlanner::new();
        let cold = cold_planner.plan_batch(&reqs);
        assert!(cold.stats.cache_misses > 0, "a cold cache benchmarks");

        // Build a store from the cold run's cache and warm-start a new batch.
        let mut store = lamb_perfmodel::CalibrationStore::new(
            lamb_perfmodel::MachineModel::paper_xeon_silver_4210(),
            "simulated",
        );
        store.calls = cold_planner.snapshot_cache();
        let warm_planner = BatchPlanner::new().with_store(&store);
        let warm = warm_planner.plan_batch(&reqs);
        assert_eq!(warm.stats.cache_misses, 0, "warm batch must not benchmark");
        assert!(warm.stats.hit_rate() > 0.99);

        for (c, w) in cold.results.iter().zip(&warm.results) {
            let (c, w) = (c.as_ref().unwrap(), w.as_ref().unwrap());
            assert_eq!(c.chosen, w.chosen);
            for (cs, ws) in c.scores.iter().zip(&w.scores) {
                assert_eq!(
                    cs.predicted_seconds.unwrap().to_bits(),
                    ws.predicted_seconds.unwrap().to_bits(),
                    "warm predictions must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn policies_and_top_k_apply_to_every_request() {
        let reqs = BatchRequest::parse_file("A*B*C*D*E*F 60 20 90 30 120 40 70\n").unwrap();
        let outcome = BatchPlanner::new()
            .policy(MinFlops)
            .top_k(4)
            .plan_batch(&reqs);
        let plan = outcome.results[0].as_ref().unwrap();
        assert_eq!(plan.algorithms.len(), 4);
        assert_eq!(plan.policy, "min-flops");
        let min = plan.scores.iter().map(|s| s.flops).min().unwrap();
        assert_eq!(plan.chosen_score().flops, min);
    }

    #[test]
    fn a_factor_cache_steers_later_solves_onto_the_resident_factorisation() {
        use lamb_perfmodel::{Executor as _, MeasuredExecutor};
        let reqs = BatchRequest::parse_file(
            "S[spd]^-1*B 96 12\n\
             S[spd]^-1*B 96 12\n\
             S[spd]^-1*B 96 12\n\
             S[spd]^-1*B 96 12\n",
        )
        .unwrap();
        let fc = Arc::new(FactorCache::new());
        let planner = BatchPlanner::new().factor_cache(Arc::clone(&fc));
        let outcome = planner.plan_batch(&reqs);
        assert_eq!(outcome.stats.planned, 4);
        assert!(!fc.is_empty(), "chosen factors registered");
        let plans: Vec<&Plan> = outcome.plans().collect();
        let first = plans[0].chosen_score().predicted_seconds.unwrap();
        let warm = plans[1].chosen_score().predicted_seconds.unwrap();
        assert!(
            warm < first,
            "later solves against the same operand are predicted cheaper \
             ({warm} vs {first})"
        );
        assert!(
            plans[1].chosen_score().flops < plans[0].chosen_score().flops,
            "effective FLOPs are discounted for the warm requests"
        );
        // Executing the four chosen algorithms against one shared store
        // factors the operand exactly once: 1 POTRF for the whole batch.
        let store = FactorCache::new();
        let mut exec = MeasuredExecutor::quick();
        let mut potrfs = 0;
        for plan in &plans {
            let (_, report) = exec.execute_algorithm_reusing(plan.chosen_algorithm(), &store);
            potrfs += report.executed("potrf");
        }
        assert_eq!(potrfs, 1, "one factorisation serves the whole batch");
    }

    #[test]
    fn repeated_general_solves_execute_exactly_one_getrf() {
        use lamb_perfmodel::{Executor as _, MeasuredExecutor};
        let reqs = BatchRequest::parse_file(
            "A^-1*B 72 9\n\
             A^-1*B 72 9\n\
             A^-1*B 72 9\n\
             A^-1*B 72 9\n",
        )
        .unwrap();
        let fc = Arc::new(FactorCache::new());
        let planner = BatchPlanner::new().factor_cache(Arc::clone(&fc));
        let outcome = planner.plan_batch(&reqs);
        assert_eq!(outcome.stats.planned, 4);
        assert!(!fc.is_empty(), "LU factors registered");
        // Executing the four chosen algorithms against one shared store
        // pivots and factors the operand exactly once.
        let store = FactorCache::new();
        let mut exec = MeasuredExecutor::quick();
        let mut getrfs = 0;
        for plan in outcome.plans() {
            let (_, report) = exec.execute_algorithm_reusing(plan.chosen_algorithm(), &store);
            getrfs += report.executed("getrf");
        }
        assert_eq!(getrfs, 1, "one LU factorisation serves the whole batch");
    }

    #[test]
    fn mixed_spd_and_general_factor_identities_never_collide() {
        use lamb_perfmodel::{Executor as _, MeasuredExecutor};
        use std::collections::HashMap;
        // Same operand name, same dims: only the declared structure (and so
        // the factorisation kind) distinguishes the two families.
        let reqs = BatchRequest::parse_file(
            "A^-1*B 64 9\n\
             A^-1*B 64 9\n\
             A[spd]^-1*B 64 9\n\
             A[spd]^-1*B 64 9\n",
        )
        .unwrap();
        let fc = Arc::new(FactorCache::new());
        let planner = BatchPlanner::new().factor_cache(Arc::clone(&fc));
        let outcome = planner.plan_batch(&reqs);
        assert_eq!(outcome.stats.planned, 4);
        let plans: Vec<&Plan> = outcome.plans().collect();
        // Each cacheable value's key, with the kernel that produces it.
        let identities = |plan: &Plan| -> HashMap<_, &str> {
            let alg = plan.chosen_algorithm();
            (fc.keys(alg).into_iter())
                .map(|(i, key)| (key, alg.calls[i].op.mnemonic()))
                .collect()
        };
        let lu = identities(plans[0]);
        let chol = identities(plans[2]);
        assert!(lu.values().any(|&kernel| kernel == "getrf"), "{lu:?}");
        assert!(chol.values().any(|&kernel| kernel == "potrf"), "{chol:?}");
        assert!(
            lu.keys().all(|key| !chol.contains_key(key)),
            "LU and Cholesky factor identities must never collide: {lu:?} vs {chol:?}"
        );
        // And under one shared store, each family factors exactly once.
        let store = FactorCache::new();
        let mut exec = MeasuredExecutor::quick();
        let (mut getrfs, mut potrfs) = (0, 0);
        for plan in &plans {
            let (_, report) = exec.execute_algorithm_reusing(plan.chosen_algorithm(), &store);
            getrfs += report.executed("getrf");
            potrfs += report.executed("potrf");
        }
        assert_eq!((getrfs, potrfs), (1, 1));
    }

    #[test]
    fn empty_batches_are_fine() {
        let outcome = BatchPlanner::new().plan_batch(&[]);
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.stats.requests, 0);
        assert_eq!(outcome.stats.hit_rate(), 0.0);
        assert_eq!(outcome.stats.expressions_per_second(), 0.0);
    }
}
