//! Per-call backend assignment: once a policy has chosen *which algorithm*
//! to run, the executor may still offer several kernel implementations
//! (backends) per call. This module picks, for every call of the chosen
//! algorithm, the backend whose isolated benchmark is fastest — the same
//! benchmark-driven discrimination the paper applies to whole algorithms,
//! applied one level down.

use lamb_expr::Algorithm;
use lamb_perfmodel::{BackendId, Executor};

/// The backend chosen for one kernel call.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendChoice {
    /// Index of the call within the algorithm.
    pub call_index: usize,
    /// The call's human-readable label.
    pub label: String,
    /// The chosen backend.
    pub backend: BackendId,
    /// Predicted (isolated-benchmark) time under the chosen backend.
    pub seconds: f64,
}

/// A per-call backend assignment for one algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendAssignment {
    /// One choice per kernel call, in call order.
    pub per_call: Vec<BackendChoice>,
    /// Sum of the chosen per-call predicted times.
    pub seconds: f64,
}

impl BackendAssignment {
    /// The assignment as the per-call list, in call order, that
    /// [`Executor::set_backend_assignment`] consumes.
    #[must_use]
    pub fn backends(&self) -> Vec<BackendId> {
        self.per_call.iter().map(|c| c.backend).collect()
    }

    /// Whether the assignment uses more than one distinct backend.
    #[must_use]
    pub fn is_mixed(&self) -> bool {
        self.per_call
            .windows(2)
            .any(|w| w[0].backend != w[1].backend)
    }

    /// The distinct backends used, in first-use order.
    #[must_use]
    pub fn backends_used(&self) -> Vec<BackendId> {
        let mut used: Vec<BackendId> = Vec::new();
        for c in &self.per_call {
            if !used.contains(&c.backend) {
                used.push(c.backend);
            }
        }
        used
    }
}

/// Assign each call of `alg` the backend whose isolated benchmark under
/// `executor` is fastest. Ties (and executors that report a single backend)
/// resolve to the earliest id in [`Executor::backends`] order, so the
/// default backend wins when it is not strictly beaten.
pub fn assign_backends(alg: &Algorithm, executor: &mut dyn Executor) -> BackendAssignment {
    let backends = executor.backends();
    let per_call: Vec<BackendChoice> = alg
        .calls
        .iter()
        .enumerate()
        .map(|(i, call)| {
            let mut best = backends[0];
            let mut best_t = executor.time_isolated_call_on(alg, i, best);
            for &backend in &backends[1..] {
                let t = executor.time_isolated_call_on(alg, i, backend);
                if t < best_t {
                    best_t = t;
                    best = backend;
                }
            }
            BackendChoice {
                call_index: i,
                label: call.label.clone(),
                backend: best,
                seconds: best_t,
            }
        })
        .collect();
    BackendAssignment {
        seconds: per_call.iter().map(|c| c.seconds).sum(),
        per_call,
    }
}

/// The assignment that pins *every* call of `alg` to one backend — the
/// `--backend <name>` ablation.
pub fn pinned_backends(
    alg: &Algorithm,
    executor: &mut dyn Executor,
    backend: BackendId,
) -> BackendAssignment {
    let per_call: Vec<BackendChoice> = alg
        .calls
        .iter()
        .enumerate()
        .map(|(i, call)| BackendChoice {
            call_index: i,
            label: call.label.clone(),
            backend,
            seconds: executor.time_isolated_call_on(alg, i, backend),
        })
        .collect();
    BackendAssignment {
        seconds: per_call.iter().map(|c| c.seconds).sum(),
        per_call,
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
    fn assignment_mixes_backends_when_call_sizes_straddle_the_crossover() {
        // One large product (native wins) and one tiny product (reference
        // wins) in a single chain.
        let mut sim = SimulatedExecutor::paper_like();
        let algs = algorithms_of("A*B*C*D", &[300, 300, 300, 8, 8]);
        let alg = algs
            .iter()
            .find(|a| {
                let mut flops: Vec<u64> =
                    a.calls.iter().map(lamb_expr::KernelCall::flops).collect();
                flops.sort_unstable();
                flops[0] * 100 < flops[flops.len() - 1]
            })
            .expect("a parenthesisation with one large and one tiny call");
        let assignment = assign_backends(alg, &mut sim);
        assert_eq!(assignment.per_call.len(), alg.calls.len());
        assert!(
            assignment.is_mixed(),
            "expected mixed backends, got {:?}",
            assignment.backends_used()
        );
        assert!(assignment.seconds > 0.0);
        assert_eq!(assignment.backends().len(), alg.calls.len());
        // The assignment is at least as fast (per the model) as either pin.
        for backend in BackendId::ALL {
            let pinned = pinned_backends(alg, &mut sim, backend);
            assert!(assignment.seconds <= pinned.seconds + 1e-15, "{backend}");
        }
    }

    #[test]
    fn pinned_assignment_uses_one_backend_everywhere() {
        let mut sim = SimulatedExecutor::paper_like();
        let alg = &algorithms_of("A*B*C*D", &[60, 60, 60, 60, 60])[0];
        let pinned = pinned_backends(alg, &mut sim, BackendId::Reference);
        assert!(!pinned.is_mixed());
        assert_eq!(pinned.backends_used(), vec![BackendId::Reference]);
        assert!(pinned.per_call.iter().all(|c| c.seconds > 0.0));
    }
}
