//! Cross-execution factor reuse: the [`FactorCache`] that holds computed
//! factors between executions, and the [`ReuseReport`] accounting executors
//! produce when they run an algorithm against it.
//!
//! The cache is keyed by the *canonical node identities* of
//! [`lamb_expr::node_identities`]: a string that pins down the exact
//! computation (kernel, flags, logical dimensions) applied to the exact input
//! bytes (leaves are seeded from their operand ids by the deterministic
//! executors). Two calls with equal identities produce bit-identical values,
//! so a resident factor can be injected in place of re-running the call —
//! the factor-once/solve-many pattern of implicit ODE steppers, applied to
//! the paper's repeated-solve workloads.
//!
//! An entry holds actual bytes (measured execution) or is merely *noted* as
//! resident (planning and simulated execution, where only the time model
//! needs to know a factor would be warm). [`FactorCache`] is the one store:
//! the executors here fill and read it, and `lamb-plan` (which re-exports it)
//! prices resident factors at zero while scoring. A single mutex-guarded map:
//! every caller walks one algorithm at a time, so nothing contends for it.

use lamb_expr::{cacheable_identities, Algorithm, KernelCall};
use lamb_matrix::Matrix;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};

#[derive(Debug, Default)]
struct Entries {
    /// Identity → resident factor (`None` = noted, bytes not held).
    factors: HashMap<String, Option<Arc<Matrix>>>,
    hits: usize,
}

/// A thread-safe store of computed factors keyed by canonical node identity,
/// shared across the executions of a batch.
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

    /// Number of resident identities (noted or held).
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

    /// The resident matrix for `key`, if its bytes are held.
    #[must_use]
    pub fn lookup(&self, key: &str) -> Option<Arc<Matrix>> {
        let mut entries = self.entries();
        let found = entries.factors.get(key).and_then(Clone::clone);
        if found.is_some() {
            entries.hits += 1;
        }
        found
    }

    /// Hold the bytes of a computed factor under `key`.
    pub fn store(&self, key: &str, value: Arc<Matrix>) {
        self.entries().factors.insert(key.to_string(), Some(value));
    }

    /// Whether `key` is resident — either its bytes are held or it was
    /// [noted](FactorCache::note) as computed.
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.entries().factors.contains_key(key)
    }

    /// Mark `key` as resident without holding bytes (prediction-side
    /// residency: the planner notes what a chosen algorithm will compute).
    /// Never downgrades held bytes to a bare note.
    pub fn note(&self, key: &str) {
        self.entries()
            .factors
            .entry(key.to_string())
            .or_insert(None);
    }
}

/// The identities an executor's call walk consults `store` under: call index
/// → identity for every cacheable call of `alg`. Empty without a store, so a
/// store-less walk derives no identity at all.
pub(crate) fn cacheable_keys(
    alg: &Algorithm,
    store: Option<&FactorCache>,
) -> HashMap<usize, String> {
    match store {
        Some(_) => cacheable_identities(alg)
            .into_iter()
            .map(|(i, _, identity)| (i, identity))
            .collect(),
        None => HashMap::new(),
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
    /// Executed-call count per kernel mnemonic (`"potrf"`, `"syrk"`, ...),
    /// the accounting the repeated-solve acceptance check reads.
    pub executed_kernels: BTreeMap<String, usize>,
}

impl ReuseReport {
    /// The report of an execution that reused nothing: every call executed.
    #[must_use]
    pub fn all_executed(alg: &Algorithm) -> Self {
        let mut report = ReuseReport::default();
        for call in &alg.calls {
            report.record_executed(call.op.mnemonic());
        }
        report
    }

    /// Record one executed call.
    pub fn record_executed(&mut self, mnemonic: &str) {
        self.executed_calls += 1;
        *self
            .executed_kernels
            .entry(mnemonic.to_string())
            .or_insert(0) += 1;
    }

    /// Record one reused (skipped) call of `flops` FLOPs.
    pub fn record_reused(&mut self, flops: u64) {
        self.reused_calls += 1;
        self.reused_flops += flops;
    }

    /// Record `call` as reused (its result was injected) or executed.
    pub(crate) fn record(&mut self, call: &KernelCall, reused: bool) {
        if reused {
            self.record_reused(call.flops());
        } else {
            self.record_executed(call.op.mnemonic());
        }
    }

    /// Executed-call count for one kernel mnemonic.
    #[must_use]
    pub fn executed(&self, mnemonic: &str) -> usize {
        self.executed_kernels.get(mnemonic).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_holds_notes_and_bytes_with_hit_accounting() {
        let cache = FactorCache::new();
        assert!(cache.is_empty());
        assert!(!cache.contains("a"));
        cache.note("a");
        assert!(cache.contains("a"));
        assert!(cache.lookup("a").is_none(), "a note serves no bytes");
        assert_eq!(cache.hits(), 0);
        cache.store("a", Arc::new(Matrix::identity(4)));
        assert!(cache.lookup("a").is_some());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.resident_bytes(), 16 * 8);
        cache.note("a");
        assert!(cache.lookup("a").is_some(), "a note never evicts bytes");
        assert_eq!(cache.len(), 1);
        for i in 0..100 {
            cache.note(&format!("key-{i}"));
        }
        assert_eq!(cache.len(), 101);
        assert_eq!(cache.resident_bytes(), 16 * 8, "notes hold no bytes");
    }

    #[test]
    fn reuse_report_accounts_executed_and_reused_calls() {
        let mut a = ReuseReport::default();
        a.record_executed("potrf");
        a.record_executed("trsm");
        a.record_executed("trsm");
        a.record_reused(100);
        a.record_reused(50);
        assert_eq!(a.executed_calls, 3);
        assert_eq!(a.reused_calls, 2);
        assert_eq!(a.reused_flops, 150);
        assert_eq!(a.executed("trsm"), 2);
        assert_eq!(a.executed("potrf"), 1);
        assert_eq!(a.executed("gemm"), 0);
    }
}
