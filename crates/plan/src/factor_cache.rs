//! Factor reuse as the planner prices it.
//!
//! The store itself is [`FactorCache`], which lives beside the executors
//! that fill it (`lamb_perfmodel::reuse`) and is re-exported here. Shared
//! across the plans of a [`Planner`](crate::Planner) or the requests of a
//! [`BatchPlanner`](crate::BatchPlanner) batch it carries factor residency
//! *between instances*: once one request's chosen algorithm factors an SPD
//! operand, every later solve against the same operand starts warm.
//!
//! This module holds what scoring needs of it: which calls of an algorithm
//! are resident, the FLOPs the algorithm pays once those are discounted
//! ([`effective_flops`]), and the registration of a chosen algorithm's
//! factors. The matching *time* discount — a resident call predicts zero
//! seconds — is applied by [`CachingExecutor`](crate::CachingExecutor) when
//! it is given the factor cache, so `MinPredictedTime` (and `Hybrid`)
//! actively prefer algorithms that reuse cached factors.

use lamb_expr::{cacheable_identities, Algorithm};
pub use lamb_perfmodel::FactorCache;

/// Indices of the calls of `alg` whose cacheable result is resident in
/// `cache` (none without a cache). Node identities are a string per operand,
/// so callers resolve this once per algorithm rather than once per call.
pub(crate) fn resident_calls(alg: &Algorithm, cache: Option<&FactorCache>) -> Vec<usize> {
    let Some(cache) = cache else {
        return Vec::new();
    };
    cacheable_identities(alg)
        .into_iter()
        .filter(|(_, _, identity)| cache.contains(identity))
        .map(|(index, _, _)| index)
        .collect()
}

/// Register every cacheable result `alg` computes as resident in `cache`.
pub(crate) fn note_factors(alg: &Algorithm, cache: &FactorCache) {
    for (_, _, identity) in cacheable_identities(alg) {
        cache.note(&identity);
    }
}

/// The FLOPs `alg` actually pays given the residency of `cache`: its (already
/// DAG-deduplicated) total minus the calls whose cacheable result is
/// resident. This is the batch-level FLOP discriminant — a shared-factor
/// algorithm gets cheaper as the cache warms.
#[must_use]
pub fn effective_flops(alg: &Algorithm, cache: &FactorCache) -> u64 {
    let resident = resident_calls(alg, Some(cache));
    let saved: u64 = resident.iter().map(|&i| alg.calls[i].flops()).sum();
    alg.flops().saturating_sub(saved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CachingExecutor, PredictionCache};
    use lamb_expr::{Expression, TreeExpression};
    use lamb_perfmodel::{Executor, SimulatedExecutor};

    fn solve_algorithm() -> Algorithm {
        let expr = TreeExpression::parse("S[spd]^-1*B").unwrap();
        expr.algorithms(&[64, 8])
            .unwrap()
            .into_iter()
            .find(|a| a.kernel_summary().contains("potrf"))
            .unwrap()
    }

    #[test]
    fn resident_factors_zero_their_isolated_times_and_discount_flops() {
        let alg = solve_algorithm();
        let factors = FactorCache::new();
        let predictions = PredictionCache::new();
        let mut sim = SimulatedExecutor::paper_like();
        let mut reuse =
            CachingExecutor::new(&mut sim, &predictions).with_factor_cache(Some(&factors));
        let per_call = |reuse: &mut CachingExecutor| -> Vec<f64> {
            (0..alg.calls.len())
                .map(|i| reuse.time_isolated_call(&alg, i))
                .collect()
        };
        let cold = per_call(&mut reuse);
        assert!(cold.iter().all(|&t| t > 0.0));
        // One resolution of the resident calls per prediction gives exactly
        // the per-call sum it replaces.
        let predicted = reuse.predict_from_isolated_calls(&alg);
        assert_eq!(predicted.seconds, cold.iter().sum::<f64>());
        assert_eq!(effective_flops(&alg, &factors), alg.flops());
        assert!(resident_calls(&alg, Some(&factors)).is_empty());

        // Mark every cacheable node resident, as a batch would after planning
        // an identical earlier request.
        note_factors(&alg, &factors);
        let potrf_index = alg
            .calls
            .iter()
            .position(|c| c.op.mnemonic() == "potrf")
            .unwrap();
        assert!(resident_calls(&alg, Some(&factors)).contains(&potrf_index));
        let warm = per_call(&mut reuse);
        assert_eq!(warm[potrf_index], 0.0);
        let predicted = reuse.predict_from_isolated_calls(&alg);
        assert_eq!(predicted.seconds, warm.iter().sum::<f64>());
        let by_call: Vec<f64> = predicted.per_call.iter().map(|c| c.seconds).collect();
        assert_eq!(by_call, warm);
        assert!(predicted.seconds < cold.iter().sum::<f64>());
        assert!(effective_flops(&alg, &factors) < alg.flops());
        // Executions pass through untouched (no store mutation on selection).
        let before = factors.len();
        let _ = reuse.execute_algorithm(&alg);
        assert_eq!(factors.len(), before);
    }
}
