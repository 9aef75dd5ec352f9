//! Object-safe selection policies.
//!
//! A [`SelectionPolicy`] picks one algorithm out of an enumerated set,
//! consulting an [`Executor`] for predicted (or, for the oracle, actual)
//! execution times. The four policies of the paper — minimum FLOP count,
//! minimum predicted time, the FLOP-margin hybrid, and the empirical oracle —
//! are provided as built-in implementations; external crates can implement
//! the trait to plug new policies into the `lamb-plan` `Planner` without
//! touching this crate.
//!
//! `select` reports failure through [`SelectError`] rather than panicking. A
//! boxed policy is a policy too, so a choice made at run time (the CLI's
//! `--strategy`) reaches the planner like any other.

use lamb_expr::Algorithm;
use lamb_perfmodel::Executor;
use std::fmt;

/// Why a policy could not select an algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectError {
    /// The algorithm set was empty: there is nothing to select from.
    EmptyAlgorithmSet,
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectError::EmptyAlgorithmSet => {
                write!(f, "cannot select from an empty algorithm set")
            }
        }
    }
}

impl std::error::Error for SelectError {}

/// An algorithm selection policy.
///
/// Implementations must be deterministic for a deterministic executor: the
/// planner's grid fan-out relies on `select` returning the same index for the
/// same `(algorithms, executor state)` regardless of which thread calls it.
pub trait SelectionPolicy: Send + Sync {
    /// Short name for reports, e.g. `"min-flops"`.
    fn name(&self) -> String;

    /// Select an algorithm index from `algorithms`, consulting `executor` for
    /// predictions or (for the oracle) actual executions.
    ///
    /// # Errors
    ///
    /// Returns [`SelectError::EmptyAlgorithmSet`] when `algorithms` is empty.
    fn select(
        &self,
        algorithms: &[Algorithm],
        executor: &mut dyn Executor,
    ) -> Result<usize, SelectError>;
}

impl<P: SelectionPolicy + ?Sized> SelectionPolicy for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn select(
        &self,
        algorithms: &[Algorithm],
        executor: &mut dyn Executor,
    ) -> Result<usize, SelectError> {
        (**self).select(algorithms, executor)
    }
}

/// Index of the algorithm minimising `key`, or an error on an empty set.
pub(crate) fn argmin_by_key(
    algorithms: &[Algorithm],
    mut key: impl FnMut(&Algorithm) -> f64,
) -> Result<usize, SelectError> {
    let mut best = None;
    let mut best_key = f64::INFINITY;
    for (i, alg) in algorithms.iter().enumerate() {
        let k = key(alg);
        if best.is_none() || k < best_key {
            best_key = k;
            best = Some(i);
        }
    }
    best.ok_or(SelectError::EmptyAlgorithmSet)
}

/// Pick (one of) the algorithm(s) with the minimum FLOP count — the
/// discriminant whose reliability the paper studies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinFlops;

impl SelectionPolicy for MinFlops {
    fn name(&self) -> String {
        "min-flops".into()
    }

    fn select(
        &self,
        algorithms: &[Algorithm],
        _executor: &mut dyn Executor,
    ) -> Result<usize, SelectError> {
        argmin_by_key(algorithms, |a| a.flops() as f64)
    }
}

/// Pick the algorithm whose time, predicted by summing isolated-call
/// benchmarks (kernel performance profiles), is minimal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinPredictedTime;

impl SelectionPolicy for MinPredictedTime {
    fn name(&self) -> String {
        "min-predicted-time".into()
    }

    fn select(
        &self,
        algorithms: &[Algorithm],
        executor: &mut dyn Executor,
    ) -> Result<usize, SelectError> {
        argmin_by_key(algorithms, |a| executor.predicted_seconds(a))
    }
}

/// Consider only algorithms within `flop_margin` (relative) of the minimum
/// FLOP count, then pick the one with the best predicted time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hybrid {
    /// Relative FLOP slack, e.g. `0.5` admits algorithms with up to 50% more
    /// FLOPs than the cheapest.
    pub flop_margin: f64,
}

impl SelectionPolicy for Hybrid {
    fn name(&self) -> String {
        format!("hybrid(margin={})", self.flop_margin)
    }

    fn select(
        &self,
        algorithms: &[Algorithm],
        executor: &mut dyn Executor,
    ) -> Result<usize, SelectError> {
        if algorithms.is_empty() {
            return Err(SelectError::EmptyAlgorithmSet);
        }
        let min_flops = algorithms.iter().map(Algorithm::flops).min().unwrap_or(0) as f64;
        let limit = min_flops * (1.0 + self.flop_margin.max(0.0));
        let mut best = None;
        let mut best_time = f64::INFINITY;
        for (i, alg) in algorithms.iter().enumerate() {
            if alg.flops() as f64 <= limit {
                let t = executor.predicted_seconds(alg);
                if t < best_time {
                    best_time = t;
                    best = Some(i);
                }
            }
        }
        Ok(best.unwrap_or(0))
    }
}

/// Pick the algorithm with the minimum *actual* execution time (brute force /
/// empirical oracle).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Oracle;

impl SelectionPolicy for Oracle {
    fn name(&self) -> String {
        "oracle".into()
    }

    fn select(
        &self,
        algorithms: &[Algorithm],
        executor: &mut dyn Executor,
    ) -> Result<usize, SelectError> {
        argmin_by_key(algorithms, |a| executor.execute_algorithm(a).seconds)
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
    fn policies_are_object_safe_and_nameable() {
        let policies: Vec<Box<dyn SelectionPolicy>> = vec![
            Box::new(MinFlops),
            Box::new(MinPredictedTime),
            Box::new(Hybrid { flop_margin: 0.5 }),
            Box::new(Oracle),
        ];
        // The names reach `Plan::policy`, `lamb select` output and reports.
        let names: Vec<String> = policies.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "min-flops",
                "min-predicted-time",
                "hybrid(margin=0.5)",
                "oracle"
            ]
        );
        let algs = algorithms_of("A*B*C*D", &[60, 70, 80, 90, 100]);
        let mut exec = SimulatedExecutor::paper_like();
        for p in &policies {
            let chosen = p.select(&algs, &mut exec).unwrap();
            assert!(chosen < algs.len());
        }
    }

    #[test]
    fn every_policy_reports_the_empty_set() {
        let policies: Vec<Box<dyn SelectionPolicy>> = vec![
            Box::new(MinFlops),
            Box::new(MinPredictedTime),
            Box::new(Hybrid { flop_margin: 0.5 }),
            Box::new(Oracle),
        ];
        let mut exec = SimulatedExecutor::paper_like();
        for p in &policies {
            assert_eq!(
                p.select(&[], &mut exec),
                Err(SelectError::EmptyAlgorithmSet),
                "{}",
                p.name()
            );
        }
    }

    #[test]
    fn min_flops_ignores_the_executor_and_matches_the_minimum() {
        let algs = algorithms_of("A*A^T*B", &[150, 300, 450]);
        let mut exec = SimulatedExecutor::paper_like();
        let chosen = MinFlops.select(&algs, &mut exec).unwrap();
        let min = algs.iter().map(Algorithm::flops).min().unwrap();
        assert_eq!(algs[chosen].flops(), min);
    }

    #[test]
    fn hybrid_with_zero_margin_picks_a_cheapest_algorithm() {
        let algs = algorithms_of("A*A^T*B", &[200, 300, 400]);
        let mut exec = SimulatedExecutor::paper_like();
        let chosen = Hybrid { flop_margin: 0.0 }
            .select(&algs, &mut exec)
            .unwrap();
        let min = algs.iter().map(Algorithm::flops).min().unwrap();
        assert_eq!(algs[chosen].flops(), min);
    }

    #[test]
    fn hybrid_with_huge_margin_equals_min_predicted_time() {
        let algs = algorithms_of("A*A^T*B", &[400, 100, 1100]);
        let mut e1 = SimulatedExecutor::paper_like();
        let mut e2 = SimulatedExecutor::paper_like();
        let hybrid = Hybrid { flop_margin: 1.0e9 }
            .select(&algs, &mut e1)
            .unwrap();
        let predicted = MinPredictedTime.select(&algs, &mut e2).unwrap();
        assert_eq!(hybrid, predicted);
    }
}
