//! The planner's shared, memoized prediction cache.
//!
//! Predicting an algorithm's time from isolated-call benchmarks (the paper's
//! Experiment 3, and the `MinPredictedTime` / `Hybrid` policies) repeatedly
//! times the *same* kernel calls: equivalent algorithms of one instance share
//! calls, neighbouring instances of a grid sweep share calls, and every
//! selection consults the same profiles. [`PredictionCache`] memoizes those
//! benchmarks keyed by the kernel call's *timing key*
//! ([`KernelOp::timing_key`](lamb_expr::KernelOp::timing_key) — operation and
//! operand dimensions, with timing-irrelevant GEMM transposition flags
//! cleared), so one cache can be shared by all algorithms, instances and
//! worker threads of a planner.
//!
//! The table is **sharded**: entries are distributed over a fixed set of
//! independently locked shards by the hash of their timing key, so the many
//! worker threads of a batched planning run ([`crate::BatchPlanner`],
//! [`crate::Planner::plan_grid`]) do not serialise on a single mutex. A
//! lookup canonicalises and hashes the call once ([`TimingKey`]): the hash
//! picks the shard and files the entry within it.
//!
//! A miss is **single flight**: the worker that misses a key claims it, and
//! a worker that misses it meanwhile waits for that value (a hit) instead of
//! timing the kernel again; a benchmark that panics releases its claim.
//!
//! A plan reaches the shared cache once per *distinct* timing key of its
//! candidates: its [`CachingExecutor`] keeps what it has priced in a small
//! per-plan memo, so the policy's pass over the candidates the planner has
//! just scored, and every call an algorithm shares with an earlier one,
//! costs neither a hash nor a lock. A cache
//! can be **warm-started** from a persisted
//! [`CalibrationStore`](lamb_perfmodel::CalibrationStore) via
//! [`PredictionCache::preload`] and exported back with
//! [`PredictionCache::snapshot`].

use lamb_expr::Algorithm;
use lamb_perfmodel::{
    AlgorithmTiming, CallTimeTable, Executor, FactorCache, MachineModel, TimingKey,
};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Number of independently locked shards; a small power of two well above
/// the worker counts rayon uses on typical machines.
const SHARD_COUNT: usize = 16;

/// A thread-safe, sharded memo table of isolated-call benchmark times.
#[derive(Debug, Default)]
pub struct PredictionCache {
    shards: [Shard; SHARD_COUNT],
}

/// One shard: its part of the table, the keys being benchmarked now, and
/// the signal that a claim was released.
#[derive(Debug, Default)]
struct Shard {
    state: Mutex<ShardState>,
    released: Condvar,
}

#[derive(Debug, Default)]
struct ShardState {
    times: CallTimeTable,
    claimed: Vec<TimingKey>,
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, ShardState> {
        self.state.lock().expect("cache poisoned")
    }
}

/// A key a worker is benchmarking. Dropping it files the measured seconds,
/// if any, releases the key and wakes the waiters — also when the benchmark
/// panics, so they retry instead of hanging.
struct Claim<'a> {
    shard: &'a Shard,
    key: &'a TimingKey,
    seconds: Option<f64>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut state = (self.shard.state.lock()).unwrap_or_else(PoisonError::into_inner);
        if let Some(seconds) = self.seconds {
            state.times.insert_key(self.key.clone(), seconds);
        }
        state.claimed.retain(|key| key != self.key);
        drop(state);
        self.shard.released.notify_all();
    }
}

impl PredictionCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        PredictionCache::default()
    }

    /// A cache warm-started with every entry of `table` (typically the call
    /// table of a loaded calibration store).
    #[must_use]
    pub fn from_table(table: &CallTimeTable) -> Self {
        let cache = PredictionCache::new();
        cache.preload(table);
        cache
    }

    /// The shard responsible for `key`: read from the high half of its
    /// digest, since a shard's table files entries by the low bits.
    fn shard(&self, key: &TimingKey) -> &Shard {
        &self.shards[((key.digest() >> 32) as usize) % SHARD_COUNT]
    }

    /// Insert every entry of `table` (later entries win over earlier ones
    /// with the same timing key). Hit/miss counters are unaffected.
    ///
    /// Entries are canonicalised to their timing key *before* shard routing:
    /// [`cached_isolated_call`](PredictionCache::cached_isolated_call) hashes
    /// the canonical key to pick a shard, so a non-canonical key in a loaded
    /// or merged calibration store (e.g. a transposed GEMM variant) would
    /// otherwise land in a shard the lookups never consult — silently turning
    /// every warm start into a cold re-benchmark.
    pub fn preload(&self, table: &CallTimeTable) {
        for (op, seconds) in table.entries() {
            let key = TimingKey::of(op);
            self.shard(&key).lock().times.insert_key(key, seconds);
        }
    }

    /// Export the merged contents of all shards as one [`CallTimeTable`]
    /// (with fresh hit/miss counters), e.g. to persist newly benchmarked
    /// calls into a calibration store.
    #[must_use]
    pub fn snapshot(&self) -> CallTimeTable {
        let mut merged = CallTimeTable::new();
        for shard in &self.shards {
            merged.merge_from(&shard.lock().times);
        }
        merged
    }

    /// Time call `index` of `alg` in isolation, reusing the memoised result
    /// when a call with the same timing key has been benchmarked before.
    ///
    /// The shard lock is *not* held while the executor runs, so concurrent
    /// workers never serialise on a slow benchmark of another key; a worker
    /// that misses a key another one is benchmarking waits for that value
    /// instead of benchmarking it again (see the module documentation).
    pub fn cached_isolated_call(
        &self,
        executor: &mut dyn Executor,
        alg: &Algorithm,
        index: usize,
    ) -> f64 {
        let key = TimingKey::of(&alg.calls[index].op);
        self.seconds_of(&key, || executor.time_isolated_call(alg, index))
    }

    /// The memoised seconds of `key`, or those `benchmark` measures (stored
    /// for the next lookup). One hit or one miss either way: a key another
    /// worker is benchmarking is waited for and counts a hit.
    fn seconds_of(&self, key: &TimingKey, benchmark: impl FnOnce() -> f64) -> f64 {
        let shard = self.shard(key);
        let mut state = (shard.released)
            .wait_while(shard.lock(), |state| state.claimed.contains(key))
            .expect("cache poisoned");
        if let Some(t) = state.times.lookup_key(key) {
            return t;
        }
        state.claimed.push(key.clone());
        drop(state);
        let mut claim = Claim {
            shard,
            key,
            seconds: None,
        };
        let t = benchmark();
        claim.seconds = Some(t);
        t
    }

    /// Predict `alg`'s time as the sum of its (cached) isolated-call
    /// benchmarks — what [`Executor::predict_from_isolated_calls`] returns
    /// through a [`CachingExecutor`] over this cache.
    pub fn predict(&self, executor: &mut dyn Executor, alg: &Algorithm) -> AlgorithmTiming {
        AlgorithmTiming::from_calls(alg, |i, _| self.cached_isolated_call(executor, alg, i))
    }

    /// Number of distinct timing keys benchmarked (or preloaded) so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().times.len()).sum()
    }

    /// Whether nothing has been benchmarked yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters summed over the shards: how much
    /// benchmarking the memoisation avoided. A plan counts one lookup per
    /// distinct non-resident timing key of its candidates (its
    /// [`CachingExecutor`] answers the repeats), not one per call it prices.
    #[must_use]
    pub fn stats(&self) -> (usize, usize) {
        self.shards
            .iter()
            .map(|s| s.lock().times.stats())
            .fold((0, 0), |(h, m), (sh, sm)| (h + sh, m + sm))
    }
}

/// Most distinct timing keys a [`CachingExecutor`] remembers. The
/// candidates of a top-8 plan share a handful (five or six on the
/// benchmark's texts); past the cap, further keys go to the shared cache on
/// every use, so an adapter that is kept for many plans stays cheap to
/// search.
const MEMO_KEYS: usize = 64;

/// An [`Executor`] adapter that routes isolated-call benchmarks through a
/// [`PredictionCache`] and passes whole-algorithm executions straight
/// through.
///
/// Selection policies receive this adapter from the planner, so
/// `MinPredictedTime` and `Hybrid` transparently share profile benchmarks
/// across algorithms, instances and planner invocations. Whole-algorithm
/// executions are *not* cached: for measured executors they are genuine
/// timing runs, and for the anomaly classification every instance must be
/// executed.
///
/// The adapter remembers the seconds of every timing key it has priced (up
/// to 64 of them), so within one plan each distinct key reaches
/// the shared cache once: the planner's scores and the policy's choice read
/// the same per-call seconds, summed in the same order.
///
/// Given a [`FactorCache`] ([`CachingExecutor::with_factor_cache`]) the
/// adapter is also *residency aware*: a call whose cacheable result is
/// resident costs zero seconds (it would be injected, not recomputed) and
/// never reaches the prediction cache or the memo. Executions still pass
/// through untouched — selection-time execution must not deposit factors
/// the batch never actually computes.
pub struct CachingExecutor<'a> {
    inner: &'a mut dyn Executor,
    cache: &'a PredictionCache,
    factors: Option<&'a FactorCache>,
    memo: Vec<(TimingKey, f64)>,
}

impl<'a> CachingExecutor<'a> {
    /// Wrap `inner`, memoizing isolated-call timings in `cache`.
    pub fn new(inner: &'a mut dyn Executor, cache: &'a PredictionCache) -> Self {
        CachingExecutor {
            inner,
            cache,
            factors: None,
            memo: Vec::new(),
        }
    }

    /// Price the calls resident in `factors` at zero seconds (`None`, the
    /// default, prices every call by its benchmark).
    #[must_use]
    pub fn with_factor_cache(mut self, factors: Option<&'a FactorCache>) -> Self {
        self.factors = factors;
        self
    }

    /// The isolated-call seconds of call `index` of `alg`: zero when it is
    /// one of the `resident` calls, else from the memo, else from the shared
    /// cache (benchmarked by the inner executor on a miss) and remembered.
    fn call_seconds(&mut self, alg: &Algorithm, resident: &[usize], index: usize) -> f64 {
        if resident.contains(&index) {
            return 0.0;
        }
        let key = TimingKey::of(&alg.calls[index].op);
        if let Some(&(_, t)) = self.memo.iter().find(|(known, _)| *known == key) {
            return t;
        }
        let inner = &mut *self.inner;
        let t = self
            .cache
            .seconds_of(&key, || inner.time_isolated_call(alg, index));
        if self.memo.len() < MEMO_KEYS {
            // One allocation holds the keys of a typical plan.
            if self.memo.capacity() == 0 {
                self.memo.reserve(16);
            }
            self.memo.push((key, t));
        }
        t
    }
}

impl Executor for CachingExecutor<'_> {
    fn name(&self) -> String {
        format!("cached({})", self.inner.name())
    }

    fn machine(&self) -> &MachineModel {
        self.inner.machine()
    }

    fn execute_algorithm(&mut self, alg: &Algorithm) -> AlgorithmTiming {
        self.inner.execute_algorithm(alg)
    }

    fn time_isolated_call(&mut self, alg: &Algorithm, call_index: usize) -> f64 {
        let resident = self
            .factors
            .map_or_else(Vec::new, |fc| fc.resident_calls(alg));
        self.call_seconds(alg, &resident, call_index)
    }

    /// The sum of the isolated-call times, with the resident calls resolved
    /// once for the whole algorithm instead of once per call.
    fn predict_from_isolated_calls(&mut self, alg: &Algorithm) -> AlgorithmTiming {
        let resident = self
            .factors
            .map_or_else(Vec::new, |fc| fc.resident_calls(alg));
        AlgorithmTiming::from_calls(alg, |i, _| self.call_seconds(alg, &resident, i))
    }

    /// The same sum without the per-call breakdown, the resident calls
    /// again resolved once.
    fn predicted_seconds(&mut self, alg: &Algorithm) -> f64 {
        let resident = self
            .factors
            .map_or_else(Vec::new, |fc| fc.resident_calls(alg));
        (0..alg.calls.len()).fold(0.0, |total, i| total + self.call_seconds(alg, &resident, i))
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
    fn cached_prediction_equals_uncached_prediction() {
        let cache = PredictionCache::new();
        let mut cached_exec = SimulatedExecutor::paper_like();
        let mut plain_exec = SimulatedExecutor::paper_like();
        for alg in algorithms_of("A*A^T*B", &[80, 514, 768]) {
            let cached = cache.predict(&mut cached_exec, &alg);
            let plain = plain_exec.predict_from_isolated_calls(&alg);
            assert_eq!(cached.seconds, plain.seconds, "{}", alg.name);
            assert_eq!(cached.per_call, plain.per_call, "{}", alg.name);
        }
    }

    #[test]
    fn repeated_predictions_hit_the_cache() {
        let cache = PredictionCache::new();
        let mut exec = SimulatedExecutor::paper_like();
        let algs = algorithms_of("A*A^T*B", &[100, 200, 300]);
        for alg in &algs {
            cache.predict(&mut exec, alg);
        }
        let (_, misses_first) = cache.stats();
        for alg in &algs {
            cache.predict(&mut exec, alg);
        }
        let (hits, misses) = cache.stats();
        assert_eq!(misses, misses_first, "second pass must not re-benchmark");
        assert!(hits >= algs.iter().map(|a| a.calls.len()).sum::<usize>());
    }

    #[test]
    fn preload_makes_every_benchmark_a_hit_and_snapshot_round_trips() {
        // Fill a cache by predicting, snapshot it, warm-start a second cache
        // from the snapshot: the second cache never misses and produces
        // bit-identical predictions.
        let first = PredictionCache::new();
        let mut exec = SimulatedExecutor::paper_like();
        let algs = algorithms_of("A*A^T*B", &[120, 340, 560]);
        let baseline: Vec<f64> = algs
            .iter()
            .map(|a| first.predict(&mut exec, a).seconds)
            .collect();
        let snapshot = first.snapshot();
        assert_eq!(snapshot.len(), first.len());

        let warmed = PredictionCache::from_table(&snapshot);
        assert_eq!(warmed.len(), first.len());
        let warm_predictions: Vec<f64> = algs
            .iter()
            .map(|a| warmed.predict(&mut exec, a).seconds)
            .collect();
        for (cold, warm) in baseline.iter().zip(&warm_predictions) {
            assert_eq!(cold.to_bits(), warm.to_bits());
        }
        let (hits, misses) = warmed.stats();
        assert_eq!(misses, 0, "a warm-started cache must not re-benchmark");
        assert!(hits > 0);
    }

    #[test]
    fn preload_canonicalises_transposed_variant_store_entries() {
        // Warm-start regression test: a calibration store recorded under
        // transposed kernel variants must warm-start the cache so that
        // *every* spelling of the same timing key hits. `preload` used to
        // route entries to shards by the raw key's hash while
        // `cached_isolated_call` routes lookups by the canonical key's hash
        // — safe only because every `CallTimeTable` mutation path happens to
        // canonicalise on insert. `preload` (and `merge_from`) now enforce
        // the invariant locally, so a non-canonical producer (an older or
        // external serialisation) can never silently turn warm starts into
        // cold re-benchmarks.
        use lamb_expr::KernelOp;
        use lamb_matrix::{Side, Trans, Uplo};
        use lamb_perfmodel::single_call_algorithm;

        let variants = [
            (Trans::Yes, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::Yes),
            (Trans::No, Trans::No),
        ];
        // A store recorded under non-canonical spellings: a TT GEMM and a
        // stored-lower transposed TRMM (timing key: upper, untransposed).
        let table = CallTimeTable::from_entries([
            (
                KernelOp::Gemm {
                    transa: Trans::Yes,
                    transb: Trans::Yes,
                    m: 64,
                    n: 48,
                    k: 32,
                },
                1.5e-3,
            ),
            (
                KernelOp::Trmm {
                    side: Side::Left,
                    uplo: Uplo::Lower,
                    trans: Trans::Yes,
                    m: 40,
                    n: 24,
                },
                2.5e-4,
            ),
            // A *right*-side TRMM recorded under a transposed spelling. Its
            // timing key folds `(uplo, trans)` but must keep `side`: folding
            // side away would alias this entry with a left-side TRMM of the
            // same dimensions and poison both predictions.
            (
                KernelOp::Trmm {
                    side: Side::Right,
                    uplo: Uplo::Upper,
                    trans: Trans::Yes,
                    m: 40,
                    n: 24,
                },
                7.5e-4,
            ),
        ]);
        let cache = PredictionCache::from_table(&table);
        assert_eq!(
            cache.len(),
            3,
            "left- and right-side entries of equal dimensions must not alias"
        );
        let mut exec = SimulatedExecutor::paper_like();
        for (transa, transb) in variants {
            let alg = single_call_algorithm(KernelOp::Gemm {
                transa,
                transb,
                m: 64,
                n: 48,
                k: 32,
            });
            assert_eq!(
                cache.cached_isolated_call(&mut exec, &alg, 0),
                1.5e-3,
                "{transa:?}{transb:?} must hit the preloaded entry"
            );
        }
        // The transposed TRMM's canonical spelling hits too.
        let trmm = single_call_algorithm(KernelOp::Trmm {
            side: Side::Left,
            uplo: Uplo::Upper,
            trans: Trans::No,
            m: 40,
            n: 24,
        });
        assert_eq!(cache.cached_isolated_call(&mut exec, &trmm, 0), 2.5e-4);
        // The right-side entry hits under *its* canonical spelling and stays
        // distinct from the left-side entry of identical dimensions.
        let trmm_r = single_call_algorithm(KernelOp::Trmm {
            side: Side::Right,
            uplo: Uplo::Lower,
            trans: Trans::No,
            m: 40,
            n: 24,
        });
        assert_eq!(cache.cached_isolated_call(&mut exec, &trmm_r, 0), 7.5e-4);
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 0, "a warm-started cache must never re-benchmark");
        assert_eq!(hits, variants.len() + 2);
        // The snapshot/merge path preserves canonical keys bit-identically.
        let snapshot = cache.snapshot();
        assert_eq!(snapshot.len(), 3);
        let rewarmed = PredictionCache::from_table(&snapshot);
        assert_eq!(rewarmed.cached_isolated_call(&mut exec, &trmm, 0), 2.5e-4);
        assert_eq!(rewarmed.cached_isolated_call(&mut exec, &trmm_r, 0), 7.5e-4);
        assert_eq!(rewarmed.stats().1, 0);
    }

    #[test]
    fn caching_executor_is_transparent_for_whole_algorithm_execution() {
        let cache = PredictionCache::new();
        let mut inner = SimulatedExecutor::paper_like();
        let mut reference = SimulatedExecutor::paper_like();
        let alg = &algorithms_of("A*A^T*B", &[90, 110, 130])[0];
        let mut wrapped = CachingExecutor::new(&mut inner, &cache);
        assert_eq!(
            wrapped.execute_algorithm(alg),
            reference.execute_algorithm(alg)
        );
        assert!(wrapped.name().contains("simulated"));
        assert!(cache.is_empty(), "execution must not touch the cache");
        let _ = wrapped.predict_from_isolated_calls(alg);
        assert_eq!(cache.len(), alg.calls.len());
    }

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
        assert_eq!(factors.effective_flops(&alg), alg.flops());
        assert!(factors.resident_calls(&alg).is_empty());

        // Mark every cacheable node resident, as a batch would after planning
        // an identical earlier request.
        factors.note_factors(&alg);
        let potrf_index = alg
            .calls
            .iter()
            .position(|c| c.op.mnemonic() == "potrf")
            .unwrap();
        assert!(factors.resident_calls(&alg).contains(&potrf_index));
        let warm = per_call(&mut reuse);
        assert_eq!(warm[potrf_index], 0.0);
        let predicted = reuse.predict_from_isolated_calls(&alg);
        assert_eq!(predicted.seconds, warm.iter().sum::<f64>());
        let by_call: Vec<f64> = predicted.per_call.iter().map(|c| c.seconds).collect();
        assert_eq!(by_call, warm);
        assert!(predicted.seconds < cold.iter().sum::<f64>());
        assert!(factors.effective_flops(&alg) < alg.flops());
        // Executions pass through untouched (no store mutation on selection).
        let before = factors.len();
        let _ = reuse.execute_algorithm(&alg);
        assert_eq!(factors.len(), before);
    }
}
