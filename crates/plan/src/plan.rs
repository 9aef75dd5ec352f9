//! The output of planning: a scored, selected algorithm set that can be
//! executed and judged.

use crate::planner::ExecutorFactory;
use lamb_expr::{Algorithm, GenerateError, SharedStr};
use lamb_perfmodel::{AlgorithmTiming, Executor};
use lamb_select::{AlgorithmMeasurement, Classification, InstanceEvaluation, SelectError};
use std::fmt;

/// Why a planner could not produce a [`Plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The dimension tuple had the wrong length for the expression.
    DimensionMismatch {
        /// Number of dimensions the expression requires.
        expected: usize,
        /// Number of dimensions supplied.
        got: usize,
    },
    /// The expression enumerated no algorithms for this instance.
    NoAlgorithms,
    /// Algorithm enumeration itself failed (shape inconsistency, degenerate
    /// chain, inconsistent operand reuse, ...).
    Generate(GenerateError),
    /// The selection policy failed.
    Select(SelectError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected} dimension sizes, got {got}")
            }
            PlanError::NoAlgorithms => write!(f, "the expression enumerated no algorithms"),
            PlanError::Generate(e) => write!(f, "enumeration failed: {e}"),
            PlanError::Select(e) => write!(f, "selection failed: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<SelectError> for PlanError {
    fn from(e: SelectError) -> Self {
        PlanError::Select(e)
    }
}

impl From<GenerateError> for PlanError {
    fn from(e: GenerateError) -> Self {
        PlanError::Generate(e)
    }
}

/// Per-algorithm scores recorded while planning.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmScore {
    /// Index of the algorithm in the plan's algorithm list.
    pub index: usize,
    /// Algorithm name.
    pub name: SharedStr,
    /// FLOP count on this instance (Section 3.1 models).
    pub flops: u64,
    /// Time predicted from (cached) isolated-call benchmarks, when the
    /// planner was asked to score predictions (`None` otherwise).
    pub predicted_seconds: Option<f64>,
}

/// A fully planned expression instance: the enumerated algorithm set, its
/// scores, and the policy's choice. Produced by
/// [`Planner::plan`](crate::Planner::plan); execute it with
/// [`Plan::execute`] or [`Plan::execute_with`].
#[derive(Clone)]
pub struct Plan {
    /// The instance's dimension tuple.
    pub dims: Vec<usize>,
    /// Name of the expression that was planned.
    pub expression: SharedStr,
    /// Every mathematically equivalent algorithm for this instance.
    pub algorithms: Vec<Algorithm>,
    /// One score entry per algorithm.
    pub scores: Vec<AlgorithmScore>,
    /// Index (into `algorithms`) of the algorithm the policy selected.
    pub chosen: usize,
    /// Name of the policy that made the choice.
    pub policy: SharedStr,
    /// How many enumerated algorithms were dropped because their kernel-call
    /// signature duplicated an earlier one (rewrites can derive the same
    /// call sequence along different paths).
    pub duplicates_removed: usize,
    pub(crate) threshold: f64,
    pub(crate) factory: ExecutorFactory,
}

impl fmt::Debug for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Plan")
            .field("dims", &self.dims)
            .field("expression", &self.expression)
            .field("algorithms", &self.algorithms.len())
            .field("chosen", &self.chosen)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl Plan {
    /// The algorithm the policy selected.
    #[must_use]
    pub fn chosen_algorithm(&self) -> &Algorithm {
        &self.algorithms[self.chosen]
    }

    /// The score entry of the chosen algorithm.
    #[must_use]
    pub fn chosen_score(&self) -> &AlgorithmScore {
        &self.scores[self.chosen]
    }

    /// The score entry of the FLOP-minimal algorithm — what a pure FLOP
    /// discriminant (Linnea, Armadillo, Julia) would select: the first of
    /// the algorithms tied on the minimum.
    #[must_use]
    pub fn flop_optimal_score(&self) -> &AlgorithmScore {
        self.scores
            .iter()
            .min_by_key(|s| s.flops)
            .expect("a plan has at least one algorithm")
    }

    /// The *predicted* evaluation of the instance: one measurement per
    /// algorithm whose time is the plan's predicted score — the sum of
    /// (cached) isolated-call benchmarks, the predictor of the paper's
    /// Experiment 3. Classify it to get the predicted anomaly verdict. `None`
    /// when the plan was made without prediction scoring.
    #[must_use]
    pub fn predicted_evaluation(&self) -> Option<InstanceEvaluation> {
        let measurements = self
            .scores
            .iter()
            .map(|s| {
                Some(AlgorithmMeasurement {
                    index: s.index,
                    name: s.name.clone(),
                    flops: s.flops,
                    seconds: s.predicted_seconds?,
                })
            })
            .collect::<Option<_>>()?;
        Some(InstanceEvaluation {
            dims: self.dims.clone(),
            measurements,
        })
    }

    /// Whether the instance is *predicted* to be an anomaly: the Section 3.3
    /// classification of [`Plan::predicted_evaluation`] at the plan's
    /// threshold — none of the FLOP-minimal algorithms is predicted fastest,
    /// and the best of them trails the fastest by more than the threshold in
    /// time score. `None` when the plan was made without prediction scoring.
    #[must_use]
    pub fn predicted_anomaly(&self) -> Option<bool> {
        let evaluation = self.predicted_evaluation()?;
        Some(evaluation.classify(self.threshold).is_anomaly)
    }

    /// Execute every algorithm with a fresh executor from the planner's
    /// factory and judge the choice. See [`Plan::execute_with`].
    #[must_use]
    pub fn execute(&self) -> PlanExecution {
        let mut executor = (self.factory)();
        self.execute_with(executor.as_mut())
    }

    /// Execute every algorithm of the instance with `executor`, classify the
    /// instance (anomaly or not) at the planner's threshold, and judge the
    /// policy's choice against the empirical optimum.
    #[must_use]
    pub fn execute_with(&self, executor: &mut dyn Executor) -> PlanExecution {
        let timings: Vec<AlgorithmTiming> = self
            .algorithms
            .iter()
            .map(|alg| executor.execute_algorithm(alg))
            .collect();
        let measurements = timings
            .iter()
            .zip(&self.algorithms)
            .enumerate()
            .map(|(i, (t, alg))| AlgorithmMeasurement {
                index: i,
                name: alg.name.clone(),
                flops: t.flops,
                seconds: t.seconds,
            })
            .collect();
        let evaluation = InstanceEvaluation {
            dims: self.dims.clone(),
            measurements,
        };
        let verdict = evaluation.classify(self.threshold);
        let chosen_seconds = timings[self.chosen].seconds;
        let best_seconds = timings
            .iter()
            .map(|t| t.seconds)
            .fold(f64::INFINITY, f64::min);
        PlanExecution {
            evaluation,
            verdict,
            timings,
            chosen: self.chosen,
            chosen_seconds,
            best_seconds,
        }
    }
}

/// The result of executing a [`Plan`]: timings for every algorithm, the
/// anomaly verdict, and how the policy's choice fared.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanExecution {
    /// Execution times of every algorithm, as an anomaly-classification
    /// input.
    pub evaluation: InstanceEvaluation,
    /// The anomaly classification at the planner's threshold.
    pub verdict: Classification,
    /// Full per-call timings of every algorithm.
    pub timings: Vec<AlgorithmTiming>,
    /// Index of the algorithm the policy selected.
    pub chosen: usize,
    /// Actual execution time of the chosen algorithm (seconds).
    pub chosen_seconds: f64,
    /// Actual execution time of the best algorithm (seconds).
    pub best_seconds: f64,
}

impl PlanExecution {
    /// Relative slowdown of the chosen algorithm versus the empirical optimum
    /// (0 means the policy picked a fastest algorithm).
    #[must_use]
    pub fn regret(&self) -> f64 {
        if self.best_seconds <= 0.0 {
            return 0.0;
        }
        (self.chosen_seconds - self.best_seconds).max(0.0) / self.best_seconds
    }

    /// Whether the instance is an anomaly (the minimum-FLOPs algorithms are
    /// all measurably slower than the fastest) at the planner's threshold.
    #[must_use]
    pub fn is_anomaly(&self) -> bool {
        self.verdict.is_anomaly
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamb_perfmodel::SimulatedExecutor;
    use lamb_select::{Hybrid, MinFlops, MinPredictedTime, Oracle};
    use std::sync::Arc;

    /// A plan over placeholder algorithms whose scores are the given
    /// `(flops, predicted seconds)` pairs, made at `threshold`.
    fn plan_with_scores(threshold: f64, scores: &[(u64, f64)]) -> Plan {
        let aatb = lamb_expr::TreeExpression::parse("A*A^T*B").unwrap();
        let algorithms = lamb_expr::Expression::algorithms(&aatb, &[8, 8, 8]).unwrap();
        Plan {
            dims: vec![8, 8, 8],
            expression: "hand-built".into(),
            algorithms: algorithms[..scores.len()].to_vec(),
            scores: scores
                .iter()
                .enumerate()
                .map(|(index, &(flops, seconds))| AlgorithmScore {
                    index,
                    name: format!("alg {index}").into(),
                    flops,
                    predicted_seconds: Some(seconds),
                })
                .collect(),
            chosen: 0,
            policy: "hand-built".into(),
            duplicates_removed: 0,
            threshold,
            factory: Arc::new(|| Box::new(SimulatedExecutor::paper_like())),
        }
    }

    #[test]
    fn a_flop_tie_is_judged_by_the_fastest_of_the_tied_algorithms() {
        // Algorithms 0 and 1 tie on FLOPs; the second of them is the
        // predicted-fastest of all three, so a FLOP-minimal algorithm *is*
        // among the fastest and Section 3.3 sees no anomaly — although the
        // first of the tie, which a pure FLOP selector picks, is slow.
        let plan = plan_with_scores(0.10, &[(100, 3.0), (100, 1.0), (400, 2.0)]);
        assert_eq!(plan.flop_optimal_score().index, 0, "first of the ties");
        assert_eq!(plan.predicted_anomaly(), Some(false));
        // With the expensive algorithm fastest, the time score is taken from
        // the *better* of the tied pair: (2.0 - 1.0) / 2.0.
        let plan = plan_with_scores(0.10, &[(100, 3.0), (100, 2.0), (400, 1.0)]);
        let verdict = plan.predicted_evaluation().unwrap().classify(0.10);
        assert!((verdict.time_score - 0.5).abs() < 1e-12);
        assert_eq!(plan.predicted_anomaly(), Some(true));
    }

    #[test]
    fn the_threshold_applies_to_the_time_score_not_to_the_time_ratio() {
        // The FLOP-minimal algorithm is predicted 10.5% slower than the
        // fastest: a ratio above 1.10, but a time score of 0.105 / 1.105 =
        // 0.095, which the 10% threshold does not reach.
        let plan = plan_with_scores(0.10, &[(100, 1.105), (150, 1.0)]);
        let verdict = plan.predicted_evaluation().unwrap().classify(0.10);
        assert!((verdict.time_score - 0.105 / 1.105).abs() < 1e-12);
        assert_eq!(plan.predicted_anomaly(), Some(false));
        assert_eq!(
            plan_with_scores(0.09, &[(100, 1.105), (150, 1.0)]).predicted_anomaly(),
            Some(true)
        );
    }

    /// Plan `text` at `dims` under `policy` on the paper-like simulator and
    /// execute every algorithm.
    fn judge(
        text: &str,
        dims: &[usize],
        policy: impl lamb_select::SelectionPolicy + 'static,
    ) -> (Plan, PlanExecution) {
        let expr = lamb_expr::TreeExpression::parse(text).unwrap();
        let plan = crate::Planner::for_expression(&expr)
            .policy(policy)
            .plan(dims)
            .unwrap();
        let outcome = plan.execute();
        assert_eq!(outcome.evaluation.measurements.len(), plan.algorithms.len());
        assert!(outcome
            .evaluation
            .measurements
            .iter()
            .all(|m| m.seconds > 0.0));
        (plan, outcome)
    }

    /// Whether the plan's algorithm `i` calls `kernel`.
    fn calls(plan: &Plan, i: usize, kernel: &str) -> bool {
        plan.algorithms[i].kernel_summary().contains(kernel)
    }

    #[test]
    fn triangular_anomalies_are_classified_like_the_paper_families() {
        // Small triangular order, wide right-hand side: the FLOP-minimal
        // TRMM algorithm's FLOP rate trails GEMM by more than 2x, so the
        // cheapest and fastest sets separate — a paper-style anomaly over
        // the enlarged (TRMM-bearing) algorithm set.
        let (plan, flops) = judge("L[lower]*B", &[72, 700], MinFlops);
        assert_eq!(plan.algorithms.len(), 2);
        assert!(calls(&plan, 0, "trmm"));
        let c = &flops.verdict;
        assert_eq!(c.cheapest, vec![0], "TRMM is the FLOP-minimal algorithm");
        assert_eq!(c.fastest, vec![1], "GEMM is simulated fastest");
        assert!(c.is_anomaly, "time score {} too small", c.time_score);
        assert!(c.flop_score > 0.4, "the fastest does ~2x the FLOPs");
        // The prediction-driven policy dodges the anomaly; FLOPs do not.
        assert!(flops.regret() > 0.10);
        let (_, predicted) = judge("L[lower]*B", &[72, 700], MinPredictedTime);
        assert!(predicted.regret() < 1e-9);
        // At large triangular orders the structured kernel is fastest and
        // the anomaly disappears.
        let (_, big) = judge("L[lower]*B", &[2000, 700], MinFlops);
        assert!(!big.is_anomaly());
    }

    #[test]
    fn spd_gram_anomalies_are_classified_over_the_enlarged_algorithm_set() {
        // The SPD analogue of the paper's A*A^T*B regime: S[spd]*A*A^T at a
        // small symmetric order enumerates SYRK/SYMM-based algorithms
        // (FLOP-minimal) alongside GEMM-based ones (fastest), and classifies
        // exactly like the paper's.
        let (plan, flops) = judge("S[spd]*A*A^T", &[80, 514], MinFlops);
        assert!(plan.algorithms.len() > 2, "got {}", plan.algorithms.len());
        assert!((0..plan.algorithms.len()).any(|i| calls(&plan, i, "syrk")));
        assert!((0..plan.algorithms.len()).any(|i| calls(&plan, i, "symm")));
        let c = &flops.verdict;
        assert!(c.is_anomaly, "time score {} too small", c.time_score);
        // The FLOP-minimal set is SYRK-based; the fastest is not.
        assert!(c.cheapest.iter().all(|&i| calls(&plan, i, "syrk")));
        assert!(c.fastest.iter().all(|&i| !calls(&plan, i, "syrk")));
        assert!(flops.regret() > 0.10);
        let (_, predicted) = judge("S[spd]*A*A^T", &[80, 514], MinPredictedTime);
        assert!(predicted.regret() < 1e-9);
    }

    #[test]
    fn single_realisation_solves_agree_under_every_policy() {
        // A triangular solve and an SPD solve each have one realisation:
        // every policy picks it, with no regret, and the classification
        // degenerates gracefully.
        for (text, dims, kernels) in [
            ("L[lower]^-1*B", [300, 90], "trsm"),
            ("S[spd]^-1*B", [200, 60], "potrf,trsm,trsm"),
        ] {
            let policies: [Box<dyn lamb_select::SelectionPolicy>; 4] = [
                Box::new(MinFlops),
                Box::new(MinPredictedTime),
                Box::new(Hybrid { flop_margin: 0.5 }),
                Box::new(Oracle),
            ];
            for policy in policies {
                let (plan, outcome) = judge(text, &dims, policy);
                assert_eq!(plan.algorithms.len(), 1, "{text}");
                assert_eq!(plan.algorithms[0].kernel_summary(), kernels);
                assert_eq!(plan.chosen, 0);
                assert_eq!(outcome.regret(), 0.0);
                assert!(!outcome.is_anomaly());
            }
        }
    }

    #[test]
    fn the_oracle_has_no_regret_and_prediction_beats_flops() {
        // A solve chain offers competing orders; the oracle picks a fastest.
        let (plan, oracle) = judge("S[spd]^-1*B*C", &[200, 60, 35], Oracle);
        assert!(plan.algorithms.len() >= 2);
        assert!(oracle.regret() < 1e-12);
        // Where the SYRK/SYMM route is cheapest but slower (d2 much larger
        // than d1), the predicted-time policy does at least as well as FLOPs.
        let dims = [400, 100, 1100];
        let (_, flops) = judge("A*A^T*B", &dims, MinFlops);
        let (_, predicted) = judge("A*A^T*B", &dims, MinPredictedTime);
        assert!(predicted.regret() <= flops.regret() + 1e-9);
    }

    #[test]
    fn plans_without_predictions_have_no_predicted_verdict() {
        let mut plan = plan_with_scores(0.10, &[(100, 2.0), (150, 1.0)]);
        assert_eq!(plan.predicted_anomaly(), Some(true));
        plan.scores[1].predicted_seconds = None;
        assert!(plan.predicted_evaluation().is_none());
        assert_eq!(plan.predicted_anomaly(), None);
    }
}
