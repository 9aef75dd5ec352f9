//! Kernel performance profiles.
//!
//! Two flavours are provided:
//!
//! * [`SquareProfile`] — efficiency as a function of the (square) operand
//!   size for one kernel, i.e. one curve of the paper's Figure 1, with linear
//!   interpolation between sampled sizes.
//! * [`CallTimeTable`] — a memo table from kernel calls (canonicalised by
//!   [`KernelOp::timing_key`], which drops GEMM's timing-irrelevant
//!   transposition flags) to their isolated-call benchmark time. Experiment 3
//!   benchmarks "the small set of specific calls" generated by the algorithms
//!   along each line; memoising them mirrors that deduplication.

use lamb_expr::KernelOp;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::OnceLock;

/// Efficiency-versus-size curve for one kernel on square operands.
#[derive(Debug, Clone, PartialEq)]
pub struct SquareProfile {
    /// Kernel name (`"gemm"`, `"syrk"`, `"symm"`).
    pub kernel: String,
    /// Sampled operand sizes, strictly increasing.
    pub sizes: Vec<usize>,
    /// Efficiency at each sampled size, same length as `sizes`.
    pub efficiencies: Vec<f64>,
}

impl SquareProfile {
    /// Create a profile, validating that sizes and efficiencies correspond.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths, are empty, or the sizes
    /// are not strictly increasing.
    #[must_use]
    pub fn new(kernel: &str, sizes: Vec<usize>, efficiencies: Vec<f64>) -> Self {
        assert_eq!(
            sizes.len(),
            efficiencies.len(),
            "size/efficiency length mismatch"
        );
        assert!(!sizes.is_empty(), "a profile needs at least one sample");
        assert!(
            sizes.windows(2).all(|w| w[0] < w[1]),
            "sizes must be strictly increasing"
        );
        SquareProfile {
            kernel: kernel.to_string(),
            sizes,
            efficiencies,
        }
    }

    /// Efficiency at `size`, linearly interpolated between samples and clamped
    /// to the first/last sample outside the sampled range.
    #[must_use]
    pub fn interpolate(&self, size: usize) -> f64 {
        let s = size as f64;
        if size <= self.sizes[0] {
            return self.efficiencies[0];
        }
        if size >= *self.sizes.last().expect("non-empty") {
            return *self.efficiencies.last().expect("non-empty");
        }
        let idx = self.sizes.partition_point(|&x| x <= size);
        let (x0, x1) = (self.sizes[idx - 1] as f64, self.sizes[idx] as f64);
        let (y0, y1) = (self.efficiencies[idx - 1], self.efficiencies[idx]);
        y0 + (y1 - y0) * (s - x0) / (x1 - x0)
    }

    /// Peak (maximum) efficiency in the profile.
    #[must_use]
    pub fn max_efficiency(&self) -> f64 {
        self.efficiencies.iter().copied().fold(0.0, f64::max)
    }

    /// Serialise as CSV rows `size,efficiency` with a header.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("size,efficiency\n");
        for (s, e) in self.sizes.iter().zip(&self.efficiencies) {
            out.push_str(&format!("{s},{e:.6}\n"));
        }
        out
    }
}

/// A kernel call's *timing key* ([`KernelOp::timing_key`]) with its hash,
/// each computed once: [`CallTimeTable`] files an entry under this hash, and
/// a sharded cache routes the key to a shard by it, so one lookup
/// canonicalises and hashes the call once. The hash is the standard
/// library's keyed hash under one key per process, so a calibration store
/// read from disk cannot be crafted to make its keys collide.
#[derive(Debug, Clone)]
pub struct TimingKey {
    hash: u64,
    op: KernelOp,
}

impl TimingKey {
    /// The timing key of `op`.
    #[must_use]
    pub fn of(op: &KernelOp) -> Self {
        static KEYS: OnceLock<RandomState> = OnceLock::new();
        let op = op.timing_key();
        TimingKey {
            hash: KEYS.get_or_init(RandomState::new).hash_one(&op),
            op,
        }
    }

    /// The key's hash.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.hash
    }
}

impl PartialEq for TimingKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.op == other.op
    }
}

impl Eq for TimingKey {}

impl Hash for TimingKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Hands a [`TimingKey`]'s precomputed hash to the table unchanged.
#[derive(Default)]
struct Precomputed(u64);

impl Hasher for Precomputed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a timing key hashes as one u64");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Memo table of isolated-call benchmark times keyed by the operation's
/// *timing key* ([`KernelOp::timing_key`]).
///
/// Keys are canonicalised on every access: a GEMM's transposition flags do
/// not change its isolated-call time (the logical `m×n×k` work is the same),
/// so `gemm(NN m×n×k)` and `gemm(TN m×n×k)` share one entry instead of being
/// benchmarked twice. A caller holding a [`TimingKey`] already
/// ([`CallTimeTable::lookup_key`], [`CallTimeTable::insert_key`]) skips the
/// canonicalisation and the hash.
#[derive(Debug, Default, Clone)]
pub struct CallTimeTable {
    times: HashMap<TimingKey, f64, BuildHasherDefault<Precomputed>>,
    hits: usize,
    misses: usize,
}

impl CallTimeTable {
    /// Empty table.
    #[must_use]
    pub fn new() -> Self {
        CallTimeTable::default()
    }

    /// Build a table from `(operation, seconds)` pairs (e.g. a calibration
    /// store). Keys are canonicalised; a later duplicate overwrites an
    /// earlier one. Hit/miss counters start at zero.
    #[must_use]
    pub fn from_entries(entries: impl IntoIterator<Item = (KernelOp, f64)>) -> Self {
        let mut table = CallTimeTable::new();
        for (op, seconds) in entries {
            table.insert(op, seconds);
        }
        table
    }

    /// Return the memoised time for `op` if present, recording a hit or miss.
    ///
    /// Together with [`CallTimeTable::insert`] this supports callers (like the
    /// planner's shared prediction cache) that must not hold a lock on the
    /// table while the benchmark itself runs.
    pub fn lookup(&mut self, op: &KernelOp) -> Option<f64> {
        self.lookup_key(&TimingKey::of(op))
    }

    /// [`CallTimeTable::lookup`] of a key canonicalised and hashed already.
    pub fn lookup_key(&mut self, key: &TimingKey) -> Option<f64> {
        match self.times.get(key) {
            Some(&t) => {
                self.hits += 1;
                Some(t)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Store the benchmark time for `op` (overwriting any previous value
    /// under the same timing key).
    pub fn insert(&mut self, op: KernelOp, seconds: f64) {
        self.insert_key(TimingKey::of(&op), seconds);
    }

    /// [`CallTimeTable::insert`] under a key canonicalised and hashed
    /// already.
    pub fn insert_key(&mut self, key: TimingKey, seconds: f64) {
        self.times.insert(key, seconds);
    }

    /// The memoised time for `op` without touching the hit/miss counters
    /// (for reporting and store round-trip checks).
    #[must_use]
    pub fn get(&self, op: &KernelOp) -> Option<f64> {
        self.times.get(&TimingKey::of(op)).copied()
    }

    /// Iterate over the `(timing key, seconds)` entries in unspecified order.
    pub fn entries(&self) -> impl Iterator<Item = (&KernelOp, f64)> {
        self.times.iter().map(|(key, &t)| (&key.op, t))
    }

    /// Absorb every entry of `other` into this table (`other` wins on
    /// conflicting keys — it is assumed to be the fresher measurement). The
    /// hit/miss counters of `self` are preserved; `other`'s are dropped.
    ///
    /// Keys are re-canonicalised on the way in: every insert path maintains
    /// the invariant that stored keys are timing keys, but a table built by
    /// an older serialisation (or a future non-canonical producer) must not
    /// be able to smuggle a raw key past the lookups, which always
    /// canonicalise their query.
    pub fn merge_from(&mut self, other: &CallTimeTable) {
        for (op, t) in other.entries() {
            self.insert(op.clone(), t);
        }
    }

    /// Number of distinct calls benchmarked so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether no call has been benchmarked yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// `(hits, misses)` counters, useful for reporting how much benchmarking
    /// the memoisation avoided.
    #[must_use]
    pub fn stats(&self) -> (usize, usize) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamb_matrix::Trans;

    fn gemm_op(k: usize) -> KernelOp {
        KernelOp::Gemm {
            transa: Trans::No,
            transb: Trans::No,
            m: 100,
            n: 100,
            k,
        }
    }

    #[test]
    fn interpolation_passes_through_samples_and_interpolates_between() {
        let p = SquareProfile::new("gemm", vec![100, 200, 400], vec![0.2, 0.4, 0.8]);
        assert_eq!(p.interpolate(100), 0.2);
        assert_eq!(p.interpolate(200), 0.4);
        assert!((p.interpolate(300) - 0.6).abs() < 1e-12);
        // Clamped outside the range.
        assert_eq!(p.interpolate(10), 0.2);
        assert_eq!(p.interpolate(4000), 0.8);
        assert_eq!(p.max_efficiency(), 0.8);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_sizes_are_rejected() {
        let _ = SquareProfile::new("gemm", vec![100, 100], vec![0.1, 0.2]);
    }

    #[test]
    fn csv_has_header_and_one_row_per_sample() {
        let p = SquareProfile::new("syrk", vec![10, 20], vec![0.1, 0.3]);
        let csv = p.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("size,efficiency"));
        assert!(csv.contains("20,0.300000"));
    }

    /// The time `table` memoises for `op`, computed by `compute` and filed
    /// on a miss: a lookup and an insert under one key.
    fn memoised(table: &mut CallTimeTable, op: &KernelOp, compute: impl FnOnce() -> f64) -> f64 {
        let key = TimingKey::of(op);
        table.lookup_key(&key).unwrap_or_else(|| {
            let t = compute();
            table.insert_key(key, t);
            t
        })
    }

    #[test]
    fn call_table_memoises() {
        let mut table = CallTimeTable::new();
        let mut evaluations = 0;
        for _ in 0..3 {
            let t = memoised(&mut table, &gemm_op(50), || {
                evaluations += 1;
                1.25
            });
            assert_eq!(t, 1.25);
        }
        assert_eq!(evaluations, 1);
        assert_eq!(table.len(), 1);
        assert!(!table.is_empty());
        assert_eq!(table.stats(), (2, 1));
        // A different k is a different call.
        memoised(&mut table, &gemm_op(51), || 2.0);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn gemm_transpose_variants_share_one_timing_entry() {
        // Regression test: gemm(TN m×n×k) and gemm(NN m×n×k) perform the same
        // logical work, so the table must not benchmark them separately.
        let mut table = CallTimeTable::new();
        table.insert(gemm_op(50), 1.5);
        let transposed = KernelOp::Gemm {
            transa: Trans::Yes,
            transb: Trans::Yes,
            m: 100,
            n: 100,
            k: 50,
        };
        assert_eq!(table.lookup(&transposed), Some(1.5));
        assert_eq!(table.len(), 1);
        let mut benchmarked = false;
        let t = memoised(&mut table, &transposed, || {
            benchmarked = true;
            9.9
        });
        assert_eq!(t, 1.5);
        assert!(!benchmarked, "the canonical entry must be reused");
        // Non-GEMM flags still distinguish entries.
        let syrk_lower = KernelOp::Syrk {
            uplo: lamb_matrix::Uplo::Lower,
            trans: Trans::No,
            n: 10,
            k: 20,
        };
        let syrk_upper = KernelOp::Syrk {
            uplo: lamb_matrix::Uplo::Upper,
            trans: Trans::No,
            n: 10,
            k: 20,
        };
        table.insert(syrk_lower, 2.0);
        assert_eq!(table.lookup(&syrk_upper), None);
    }

    #[test]
    fn entries_round_trip_through_from_entries_and_merge() {
        let mut table = CallTimeTable::new();
        table.insert(gemm_op(10), 0.5);
        table.insert(gemm_op(20), 0.7);
        let rebuilt = CallTimeTable::from_entries(table.entries().map(|(op, t)| (op.clone(), t)));
        assert_eq!(rebuilt.len(), 2);
        assert_eq!(rebuilt.stats(), (0, 0), "counters start fresh");
        let mut base = CallTimeTable::new();
        base.insert(gemm_op(10), 9.0); // stale value, overwritten by merge
        base.insert(gemm_op(30), 1.1);
        base.merge_from(&rebuilt);
        assert_eq!(base.len(), 3);
        let mut check = base.clone();
        assert_eq!(check.lookup(&gemm_op(10)), Some(0.5));
        assert_eq!(check.lookup(&gemm_op(30)), Some(1.1));
    }
}
