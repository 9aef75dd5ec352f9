//! Cross-execution factor reuse: the [`FactorCache`] that holds computed
//! factors between executions and answers every residency question, and
//! the [`ReuseReport`] accounting executors produce when they run an
//! algorithm against it.
//!
//! The cache files a factor under its structural key
//! ([`lamb_expr::factor_keys`]): a 128-bit value that pins down the exact
//! computation (kernel, flags, logical dimensions) applied to the exact
//! input bytes (leaves are seeded from their operand ids by the
//! deterministic executors). Two calls with equal keys produce bit-identical
//! values, so a resident factor can be injected in place of re-running the
//! call — the factor-once/solve-many pattern of implicit ODE steppers,
//! applied to the paper's repeated-solve workloads.
//!
//! An entry holds actual bytes (measured execution) or is merely *noted* as
//! resident (planning and simulated execution, where only the time model
//! needs to know a factor would be warm). [`FactorCache`] is the one store
//! and the one place residency is answered: the executors' walks read an
//! algorithm's keys from it, and `lamb-plan` (which re-exports it) asks it
//! which calls are resident and what FLOPs remain. A single mutex-guarded
//! map: every caller walks one algorithm at a time, so nothing contends for
//! it.

use lamb_expr::{factor_keys, Algorithm, FactorKey, KernelCall, KernelOp};
use lamb_matrix::Matrix;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

#[derive(Debug, Default)]
struct Entries {
    /// Key → resident factor (`None` = noted, bytes not held).
    factors: HashMap<FactorKey, Option<Arc<Matrix>>>,
    hits: usize,
}

/// A thread-safe store of computed factors keyed by structural key, shared
/// across the executions of a batch.
#[derive(Debug, Default)]
pub struct FactorCache {
    entries: Mutex<Entries>,
}

impl FactorCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        FactorCache::default()
    }

    fn entries(&self) -> MutexGuard<'_, Entries> {
        self.entries.lock().expect("factor cache poisoned")
    }

    /// Number of resident keys (noted or held).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries().factors.len()
    }

    /// Whether nothing is resident yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Successful byte-serving lookups so far (factors injected instead of
    /// recomputed).
    #[must_use]
    pub fn hits(&self) -> usize {
        self.entries().hits
    }

    /// Total bytes of the factors whose contents are held.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.entries()
            .factors
            .values()
            .flatten()
            .map(|m| (m.len() * 8) as u64)
            .sum()
    }

    /// The key of every [cacheable](lamb_expr::is_cacheable_op) call of
    /// `alg`, by call index: what an executor's walk consults the cache
    /// under.
    #[must_use]
    pub fn keys(&self, alg: &Algorithm) -> HashMap<usize, FactorKey> {
        let mut keys = HashMap::new();
        factor_keys(alg, |index, key| {
            keys.insert(index, key);
        });
        keys
    }

    /// The resident matrix for `key`, if its bytes are held.
    #[must_use]
    pub fn lookup(&self, key: &FactorKey) -> Option<Arc<Matrix>> {
        let mut entries = self.entries();
        let found = entries.factors.get(key).and_then(Clone::clone);
        if found.is_some() {
            entries.hits += 1;
        }
        found
    }

    /// Hold the bytes of a computed factor under `key`.
    pub fn store(&self, key: FactorKey, value: Arc<Matrix>) {
        self.entries().factors.insert(key, Some(value));
    }

    /// Whether `key` is resident — either its bytes are held or it was
    /// [noted](FactorCache::note) as computed.
    #[must_use]
    pub fn contains(&self, key: &FactorKey) -> bool {
        self.entries().factors.contains_key(key)
    }

    /// Mark `key` as resident without holding bytes (prediction-side
    /// residency). Never downgrades held bytes to a bare note.
    pub fn note(&self, key: FactorKey) {
        self.entries().factors.entry(key).or_insert(None);
    }

    /// Indices of the calls of `alg` whose cacheable result is resident,
    /// ascending.
    #[must_use]
    pub fn resident_calls(&self, alg: &Algorithm) -> Vec<usize> {
        let entries = self.entries();
        let mut resident = Vec::new();
        factor_keys(alg, |index, key| {
            if entries.factors.contains_key(&key) {
                resident.push(index);
            }
        });
        resident
    }

    /// The FLOPs `alg` actually pays given the residency here: its (already
    /// DAG-deduplicated) total minus the calls whose cacheable result is
    /// resident. This is the batch-level FLOP discriminant — a shared-factor
    /// algorithm gets cheaper as the cache warms.
    #[must_use]
    pub fn effective_flops(&self, alg: &Algorithm) -> u64 {
        let entries = self.entries();
        let mut saved = 0;
        factor_keys(alg, |index, key| {
            if entries.factors.contains_key(&key) {
                saved += alg.calls[index].flops();
            }
        });
        alg.flops().saturating_sub(saved)
    }

    /// Note every cacheable result `alg` computes as resident (the planner
    /// registers a chosen algorithm's factors for the requests after it).
    pub fn note_factors(&self, alg: &Algorithm) {
        let mut entries = self.entries();
        factor_keys(alg, |_, key| {
            entries.factors.entry(key).or_insert(None);
        });
    }
}

/// What an executor did with a factor store during one algorithm execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReuseReport {
    /// Calls actually executed.
    pub executed_calls: usize,
    /// Calls skipped because their result was resident in the store.
    pub reused_calls: usize,
    /// FLOPs of the skipped calls (work saved by reuse).
    pub reused_flops: u64,
    /// Executed calls per kernel variant, by [`KernelOp::ordinal`].
    executed_by_op: [usize; KernelOp::MNEMONICS.len()],
}

impl ReuseReport {
    /// The report of an execution that reused nothing: every call executed.
    #[must_use]
    pub fn all_executed(alg: &Algorithm) -> Self {
        let mut report = ReuseReport::default();
        for call in &alg.calls {
            report.record(call, false);
        }
        report
    }

    /// Record `call` as reused (its result was injected) or executed.
    pub(crate) fn record(&mut self, call: &KernelCall, reused: bool) {
        if reused {
            self.reused_calls += 1;
            self.reused_flops += call.flops();
        } else {
            self.executed_calls += 1;
            self.executed_by_op[call.op.ordinal()] += 1;
        }
    }

    /// Executed-call count for one kernel mnemonic (`"potrf"`, `"syrk"`,
    /// ...), the accounting the repeated-solve acceptance checks read.
    #[must_use]
    pub fn executed(&self, mnemonic: &str) -> usize {
        KernelOp::MNEMONICS
            .iter()
            .position(|&m| m == mnemonic)
            .map_or(0, |ordinal| self.executed_by_op[ordinal])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_call_algorithm;
    use lamb_matrix::Uplo;

    /// The key of the one call of a POTRF of order `n`.
    fn potrf_key(n: usize) -> FactorKey {
        let alg = single_call_algorithm(KernelOp::Potrf {
            uplo: Uplo::Lower,
            n,
        });
        FactorCache::new().keys(&alg)[&0]
    }

    #[test]
    fn cache_holds_notes_and_bytes_with_hit_accounting() {
        let cache = FactorCache::new();
        let a = potrf_key(4);
        assert!(cache.is_empty());
        assert!(!cache.contains(&a));
        cache.note(a);
        assert!(cache.contains(&a));
        assert!(cache.lookup(&a).is_none(), "a note serves no bytes");
        assert_eq!(cache.hits(), 0);
        cache.store(a, Arc::new(Matrix::identity(4)));
        assert!(cache.lookup(&a).is_some());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.resident_bytes(), 16 * 8);
        cache.note(a);
        assert!(cache.lookup(&a).is_some(), "a note never evicts bytes");
        assert_eq!(cache.len(), 1);
        for n in 5..105 {
            cache.note(potrf_key(n));
        }
        assert_eq!(cache.len(), 101);
        assert_eq!(cache.resident_bytes(), 16 * 8, "notes hold no bytes");
    }

    #[test]
    fn reuse_report_accounts_executed_and_reused_calls() {
        let call = |op| single_call_algorithm(op).calls.remove(0);
        let potrf = call(KernelOp::Potrf {
            uplo: Uplo::Lower,
            n: 6,
        });
        let trsm = call(KernelOp::Trsm {
            side: lamb_matrix::Side::Left,
            uplo: Uplo::Lower,
            trans: lamb_matrix::Trans::No,
            m: 6,
            n: 2,
        });
        let mut a = ReuseReport::default();
        a.record(&potrf, false);
        a.record(&trsm, false);
        a.record(&trsm, false);
        a.record(&potrf, true);
        a.record(&trsm, true);
        assert_eq!(a.executed_calls, 3);
        assert_eq!(a.reused_calls, 2);
        assert_eq!(a.reused_flops, potrf.flops() + trsm.flops());
        assert_eq!(a.executed("trsm"), 2);
        assert_eq!(a.executed("potrf"), 1);
        assert_eq!(a.executed("gemm"), 0);
        assert_eq!(a.executed("no such kernel"), 0);
    }
}
