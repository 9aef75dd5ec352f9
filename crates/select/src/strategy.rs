//! The closed enumeration of built-in selection strategies.
//!
//! [`Strategy`] predates the open [`SelectionPolicy`] trait and is kept as a
//! thin, `Copy`able constructor over the built-in policies: it is convenient
//! to iterate over in experiments (`for strategy in [Strategy::MinFlops,
//! ...]`) and to parse from command-line flags. It is itself a
//! [`SelectionPolicy`] (delegating to the policy it names), so the
//! `lamb-plan` `Planner` takes it like any other; new selection logic should
//! implement the trait directly.

use crate::anomaly::{AlgorithmMeasurement, InstanceEvaluation};
use crate::policy::{Hybrid, MinFlops, MinPredictedTime, Oracle, SelectError, SelectionPolicy};
use lamb_expr::Algorithm;
use lamb_perfmodel::Executor;

/// An algorithm selection strategy (constructor for the built-in
/// [`SelectionPolicy`] implementations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Pick (one of) the algorithm(s) with the minimum FLOP count — the
    /// discriminant whose reliability the paper studies.
    MinFlops,
    /// Pick the algorithm whose time, predicted by summing isolated-call
    /// benchmarks (kernel performance profiles), is minimal.
    MinPredictedTime,
    /// Consider only algorithms within `flop_margin` (relative) of the
    /// minimum FLOP count, then pick the one with the best predicted time.
    Hybrid {
        /// Relative FLOP slack, e.g. `0.5` admits algorithms with up to 50%
        /// more FLOPs than the cheapest.
        flop_margin: f64,
    },
    /// Pick the algorithm with the minimum *actual* execution time (brute
    /// force / empirical oracle).
    Oracle,
}

impl Strategy {
    /// The equivalent boxed [`SelectionPolicy`].
    #[must_use]
    pub fn to_policy(&self) -> Box<dyn SelectionPolicy> {
        match *self {
            Strategy::MinFlops => Box::new(MinFlops),
            Strategy::MinPredictedTime => Box::new(MinPredictedTime),
            Strategy::Hybrid { flop_margin } => Box::new(Hybrid { flop_margin }),
            Strategy::Oracle => Box::new(Oracle),
        }
    }
}

impl SelectionPolicy for Strategy {
    fn name(&self) -> String {
        self.to_policy().name()
    }

    fn select(
        &self,
        algorithms: &[Algorithm],
        executor: &mut dyn Executor,
    ) -> Result<usize, SelectError> {
        self.to_policy().select(algorithms, executor)
    }
}

/// The outcome of applying a strategy to one instance, judged against actual
/// execution times.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyOutcome {
    /// Strategy that was evaluated.
    pub strategy: String,
    /// Index of the chosen algorithm.
    pub chosen: usize,
    /// Actual execution time of the chosen algorithm (seconds).
    pub chosen_seconds: f64,
    /// Actual execution time of the best algorithm (seconds).
    pub best_seconds: f64,
}

impl StrategyOutcome {
    /// Relative slowdown of the chosen algorithm versus the true optimum
    /// (0 means the strategy picked a fastest algorithm).
    #[must_use]
    pub fn regret(&self) -> f64 {
        if self.best_seconds <= 0.0 {
            return 0.0;
        }
        (self.chosen_seconds - self.best_seconds).max(0.0) / self.best_seconds
    }
}

/// Evaluate a strategy on one instance: let it choose using `executor`, then
/// judge the choice against the actual execution time of every algorithm.
///
/// # Panics
///
/// Panics if `algorithms` is empty — there is nothing to evaluate. Use
/// [`SelectionPolicy::select`] directly to handle that case as an error.
pub fn evaluate_strategy(
    strategy: Strategy,
    algorithms: &[Algorithm],
    executor: &mut dyn Executor,
) -> StrategyOutcome {
    let chosen = strategy
        .select(algorithms, executor)
        .expect("cannot evaluate a strategy on an empty algorithm set");
    let timings: Vec<f64> = algorithms
        .iter()
        .map(|a| executor.execute_algorithm(a).seconds)
        .collect();
    let best_seconds = timings.iter().copied().fold(f64::INFINITY, f64::min);
    StrategyOutcome {
        strategy: strategy.name(),
        chosen,
        chosen_seconds: timings[chosen],
        best_seconds,
    }
}

/// Build an [`InstanceEvaluation`] (the anomaly-classification input) from
/// actual executions of every algorithm on one instance.
pub fn evaluate_instance(
    dims: &[usize],
    algorithms: &[Algorithm],
    executor: &mut dyn Executor,
) -> InstanceEvaluation {
    let measurements = algorithms
        .iter()
        .enumerate()
        .map(|(i, alg)| AlgorithmMeasurement {
            index: i,
            name: alg.name.clone(),
            flops: alg.flops(),
            seconds: executor.execute_algorithm(alg).seconds,
        })
        .collect();
    InstanceEvaluation {
        dims: dims.to_vec(),
        measurements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamb_expr::{Expression, TreeExpression};

    /// The algorithms of `text` at `dims`.
    fn algorithms_of(text: &str, dims: &[usize]) -> Vec<Algorithm> {
        let expr = TreeExpression::parse(text).unwrap();
        expr.algorithms(dims).unwrap()
    }
    use lamb_perfmodel::SimulatedExecutor;

    #[test]
    fn min_flops_picks_a_cheapest_algorithm() {
        let algs = algorithms_of("A*B*C*D", &[100, 20, 300, 20, 500]);
        let mut exec = SimulatedExecutor::paper_like();
        let chosen = Strategy::MinFlops.select(&algs, &mut exec).unwrap();
        let min = algs.iter().map(Algorithm::flops).min().unwrap();
        assert_eq!(algs[chosen].flops(), min);
    }

    #[test]
    fn oracle_never_has_regret() {
        let algs = algorithms_of("A*A^T*B", &[300, 700, 900]);
        let mut exec = SimulatedExecutor::paper_like();
        let outcome = evaluate_strategy(Strategy::Oracle, &algs, &mut exec);
        assert!(outcome.regret() < 1e-12);
    }

    #[test]
    fn predicted_time_is_at_least_as_good_as_min_flops_on_anomalous_instances() {
        // Pick an instance where the SYRK/SYMM route is cheapest but slower:
        // d2 much larger than d1 makes the second (GEMM vs SYMM) product dominate.
        let algs = algorithms_of("A*A^T*B", &[400, 100, 1100]);
        let mut exec = SimulatedExecutor::paper_like();
        let flops_outcome = evaluate_strategy(Strategy::MinFlops, &algs, &mut exec);
        let pred_outcome = evaluate_strategy(Strategy::MinPredictedTime, &algs, &mut exec);
        assert!(pred_outcome.regret() <= flops_outcome.regret() + 1e-9);
    }

    #[test]
    fn hybrid_with_zero_margin_reduces_to_min_flops_choice_set() {
        let algs = algorithms_of("A*A^T*B", &[200, 300, 400]);
        let mut exec = SimulatedExecutor::paper_like();
        let chosen = Strategy::Hybrid { flop_margin: 0.0 }
            .select(&algs, &mut exec)
            .unwrap();
        let min = algs.iter().map(Algorithm::flops).min().unwrap();
        assert_eq!(algs[chosen].flops(), min);
    }

    #[test]
    fn triangular_anomalies_are_classified_like_the_paper_families() {
        // Small triangular order, wide right-hand side: the FLOP-minimal
        // TRMM algorithm's FLOP rate trails GEMM by more than 2x, so the
        // cheapest and fastest sets separate — a paper-style anomaly over
        // the enlarged (TRMM-bearing) algorithm set.
        use lamb_expr::expr::Expr;
        use lamb_matrix::Uplo;
        let l = Expr::tri_var("L", 72, Uplo::Lower);
        let b = Expr::var("B", 72, 700);
        let algs = lamb_expr::enumerate_expr_algorithms(&l.mul(b), None).unwrap();
        assert_eq!(algs.len(), 2);
        assert!(algs[0].kernel_summary().contains("trmm"));
        let mut exec = SimulatedExecutor::paper_like();
        let eval = evaluate_instance(&[72, 700], &algs, &mut exec);
        let c = eval.classify(0.10);
        assert_eq!(c.cheapest, vec![0], "TRMM is the FLOP-minimal algorithm");
        assert_eq!(c.fastest, vec![1], "GEMM is predicted fastest");
        assert!(c.is_anomaly, "time score {} too small", c.time_score);
        assert!(c.flop_score > 0.4, "the fastest does ~2x the FLOPs");
        // The prediction-driven strategy dodges the anomaly.
        let pred = evaluate_strategy(Strategy::MinPredictedTime, &algs, &mut exec);
        assert!(pred.regret() < 1e-9);
        let flops = evaluate_strategy(Strategy::MinFlops, &algs, &mut exec);
        assert!(flops.regret() > 0.10);
        // At large triangular orders the structured kernel is fastest and
        // the anomaly disappears.
        let l_big = Expr::tri_var("L", 2000, Uplo::Lower);
        let b_big = Expr::var("B", 2000, 700);
        let big = lamb_expr::enumerate_expr_algorithms(&l_big.mul(b_big), None).unwrap();
        let eval_big = evaluate_instance(&[2000, 700], &big, &mut exec);
        assert!(!eval_big.classify(0.10).is_anomaly);
    }

    #[test]
    fn trsm_solves_select_through_every_strategy() {
        // The solve has a single realisation: every strategy agrees, with no
        // regret, and the classification degenerates gracefully.
        use lamb_expr::expr::Expr;
        use lamb_matrix::Uplo;
        let l = Expr::tri_var("L", 300, Uplo::Lower);
        let b = Expr::var("B", 300, 90);
        let algs = lamb_expr::enumerate_expr_algorithms(&l.inv().mul(b), None).unwrap();
        assert_eq!(algs.len(), 1);
        assert_eq!(algs[0].kernel_summary(), "trsm");
        let mut exec = SimulatedExecutor::paper_like();
        for strategy in [
            Strategy::MinFlops,
            Strategy::MinPredictedTime,
            Strategy::Oracle,
        ] {
            assert_eq!(strategy.select(&algs, &mut exec).unwrap(), 0);
        }
        let eval = evaluate_instance(&[300, 90], &algs, &mut exec);
        assert!(!eval.classify(0.10).is_anomaly);
    }

    #[test]
    fn spd_gram_anomalies_are_classified_over_the_enlarged_algorithm_set() {
        // The SPD analogue of the paper's A*A^T*B regime: S[spd]*A*A^T at a
        // small symmetric order enumerates SYRK/SYMM-based algorithms
        // (FLOP-minimal) alongside GEMM-based ones (fastest) — the enlarged,
        // SPD-bearing algorithm set classifies exactly like the paper's.
        use lamb_expr::expr::Expr;
        let s = Expr::spd_var("S", 80);
        let a = Expr::var("A", 80, 514);
        let algs =
            lamb_expr::enumerate_expr_algorithms(&s.mul(a.clone().mul(a.t())), None).unwrap();
        assert!(algs.len() > 2, "got {}", algs.len());
        assert!(algs.iter().any(|a| a.kernel_summary().contains("syrk")));
        assert!(algs.iter().any(|a| a.kernel_summary().contains("symm")));
        let mut exec = SimulatedExecutor::paper_like();
        let eval = evaluate_instance(&[80, 514], &algs, &mut exec);
        let c = eval.classify(0.10);
        assert!(c.is_anomaly, "time score {} too small", c.time_score);
        // The FLOP-minimal set is SYRK-based; the fastest is not.
        for &i in &c.cheapest {
            assert!(
                algs[i].kernel_summary().contains("syrk"),
                "{}",
                algs[i].name
            );
        }
        for &i in &c.fastest {
            assert!(
                !algs[i].kernel_summary().contains("syrk"),
                "{}",
                algs[i].name
            );
        }
        // Prediction-driven selection dodges the anomaly; FLOPs do not.
        let pred = evaluate_strategy(Strategy::MinPredictedTime, &algs, &mut exec);
        assert!(pred.regret() < 1e-9);
        let flops = evaluate_strategy(Strategy::MinFlops, &algs, &mut exec);
        assert!(flops.regret() > 0.10);
    }

    #[test]
    fn spd_solves_select_consistently_across_strategies() {
        // The pure SPD solve has a single (Cholesky) realisation: every
        // strategy agrees with zero regret, and the solve chain's competing
        // orders select without error.
        use lamb_expr::expr::Expr;
        let s = Expr::spd_var("S", 200);
        let b = Expr::var("B", 200, 60);
        let algs = lamb_expr::enumerate_expr_algorithms(&s.clone().inv().mul(b), None).unwrap();
        assert_eq!(algs.len(), 1);
        assert_eq!(algs[0].kernel_summary(), "potrf,trsm,trsm");
        let mut exec = SimulatedExecutor::paper_like();
        for strategy in [
            Strategy::MinFlops,
            Strategy::MinPredictedTime,
            Strategy::Oracle,
        ] {
            assert_eq!(strategy.select(&algs, &mut exec).unwrap(), 0);
        }
        let eval = evaluate_instance(&[200, 60], &algs, &mut exec);
        assert!(!eval.classify(0.10).is_anomaly);
        // A solve chain offers competing orders; selection never errors and
        // the oracle has no regret.
        let c = Expr::var("C", 60, 35);
        let chain =
            lamb_expr::enumerate_expr_algorithms(&s.inv().mul(b2(200, 60)).mul(c), None).unwrap();
        assert!(chain.len() >= 2);
        let outcome = evaluate_strategy(Strategy::Oracle, &chain, &mut exec);
        assert!(outcome.regret() < 1e-12);
    }

    fn b2(r: usize, c: usize) -> lamb_expr::expr::Expr {
        lamb_expr::expr::Expr::var("B", r, c)
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(Strategy::MinFlops.name(), "min-flops");
        assert_eq!(Strategy::Oracle.name(), "oracle");
        assert!(Strategy::Hybrid { flop_margin: 0.5 }.name().contains("0.5"));
    }

    #[test]
    fn evaluate_instance_produces_one_measurement_per_algorithm() {
        let algs = algorithms_of("A*B*C*D", &[50, 60, 70, 80, 90]);
        let mut exec = SimulatedExecutor::paper_like();
        let eval = evaluate_instance(&[50, 60, 70, 80, 90], &algs, &mut exec);
        assert_eq!(eval.measurements.len(), 6);
        assert!(eval.measurements.iter().all(|m| m.seconds > 0.0));
        let c = eval.classify(0.10);
        assert!(c.cheapest.len() + c.fastest.len() >= 2);
    }

    #[test]
    fn selecting_from_nothing_is_an_error_not_a_panic() {
        let mut exec = SimulatedExecutor::paper_like();
        for strategy in [
            Strategy::MinFlops,
            Strategy::MinPredictedTime,
            Strategy::Hybrid { flop_margin: 0.5 },
            Strategy::Oracle,
        ] {
            assert_eq!(
                strategy.select(&[], &mut exec),
                Err(SelectError::EmptyAlgorithmSet),
                "{}",
                strategy.name()
            );
        }
    }
}
