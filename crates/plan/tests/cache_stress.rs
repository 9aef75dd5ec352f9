//! Concurrency stress for the two shared caches of the planner.
//!
//! The single-mutex [`FactorCache`]: many threads noting, storing, looking
//! up and probing overlapping keys; afterwards the entry count, the hit
//! counter and "a note never evicts bytes" all hold.
//!
//! The sharded [`PredictionCache`]: many threads
//! preloading calibration tables (with non-canonical keys), taking
//! snapshots, predicting algorithm times and running whole plans against one
//! shared cache, concurrently. The invariants checked at every step and at
//! the end:
//!
//! * every snapshot — including mid-stress snapshots — contains only
//!   canonical timing keys with finite, non-negative times (checked with
//!   `lamb-verify`'s table lint, the PR-5 cache-poisoning class);
//! * concurrent preloads of transposed-variant entries never split one
//!   benchmark entry into several;
//! * predictions and plans agree with a single-threaded reference run.
//!
//! Run under ThreadSanitizer (see the `concurrency` CI job) to turn data
//! races into hard failures; under the normal test profile this still
//! hammers the shard locks enough to catch logic races.

use lamb_expr::{Expression, KernelOp, TreeExpression};
use lamb_matrix::{Matrix, Trans};
use lamb_perfmodel::{CallTimeTable, SimulatedExecutor};
use lamb_plan::{FactorCache, MinPredictedTime, Planner, PredictionCache};
use lamb_verify::verify_call_table;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

/// A small calibration table whose keys are deliberately *non-canonical*
/// spellings (transposed GEMMs): every ingest path must canonicalise them.
fn transposed_variant_table(seed: usize) -> CallTimeTable {
    let base = 16 + (seed % 7) * 8;
    CallTimeTable::from_entries(vec![
        (
            KernelOp::Gemm {
                transa: Trans::Yes,
                transb: Trans::No,
                m: base,
                n: base + 4,
                k: base + 8,
            },
            1.0e-4 + seed as f64 * 1.0e-6,
        ),
        (
            KernelOp::Gemm {
                transa: Trans::No,
                transb: Trans::Yes,
                m: base + 4,
                n: base,
                k: base + 8,
            },
            2.0e-4,
        ),
    ])
}

#[test]
fn sharded_cache_survives_concurrent_preload_snapshot_and_planning() {
    let cache = Arc::new(PredictionCache::new());
    let aatb = TreeExpression::parse("A*A^T*B").unwrap();
    let chain = TreeExpression::parse("A*B*C*D").unwrap();
    let failed = Arc::new(AtomicBool::new(false));

    let threads = 12;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let cache = Arc::clone(&cache);
            let aatb = &aatb;
            let chain = &chain;
            let failed = Arc::clone(&failed);
            scope.spawn(move || {
                let mut executor = SimulatedExecutor::paper_like();
                for round in 0..20 {
                    match (t + round) % 4 {
                        // Preloaders: hammer every shard with canonicalised
                        // and to-be-canonicalised entries.
                        0 => cache.preload(&transposed_variant_table(t * 31 + round)),
                        // Snapshotters: a mid-stress snapshot must already
                        // be canonical and finite.
                        1 => {
                            let report = verify_call_table(&cache.snapshot());
                            if !report.is_clean() {
                                eprintln!("mid-stress snapshot unclean:\n{report}");
                                failed.store(true, Ordering::Relaxed);
                            }
                        }
                        // Predictors: fill the cache through the miss path.
                        2 => {
                            let dims = [40 + round, 60 + t, 80];
                            for alg in aatb.algorithms(&dims).unwrap() {
                                let timing = cache.predict(&mut executor, &alg);
                                if !timing.seconds.is_finite() || timing.seconds < 0.0 {
                                    failed.store(true, Ordering::Relaxed);
                                }
                            }
                        }
                        // Planners: the full pipeline over the shared cache.
                        _ => {
                            let planner = Planner::for_expression(chain)
                                .policy(MinPredictedTime)
                                .shared_cache(Arc::clone(&cache));
                            let dims = vec![30 + t, 40, 20 + round, 50, 25];
                            if planner.plan(&dims).is_err() {
                                failed.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });
    assert!(!failed.load(Ordering::Relaxed), "a stress thread failed");

    // Final snapshot: canonical keys only, finite times, and the transposed
    // GEMM variants collapsed into single canonical entries.
    let snapshot = cache.snapshot();
    let report = verify_call_table(&snapshot);
    assert!(report.is_clean(), "final snapshot unclean:\n{report}");
    assert!(!snapshot.is_empty());
    let (hits, misses) = cache.stats();
    assert!(misses > 0, "predictors must have filled the cache");
    assert!(hits > 0, "repeated instances must have hit the cache");

    // Reference check: a fresh single-threaded prediction over the same
    // expression agrees with one computed through the stressed cache (the
    // deterministic executor keys timings on call signatures alone).
    let mut executor = SimulatedExecutor::paper_like();
    let reference = PredictionCache::new();
    let dims = [40, 60, 80];
    for alg in aatb.algorithms(&dims).unwrap() {
        let fresh = reference.predict(&mut executor, &alg).seconds;
        let stressed = cache.predict(&mut executor, &alg).seconds;
        assert!(
            (fresh - stressed).abs() <= 1e-12 * fresh.max(1.0),
            "stressed cache diverged: {stressed} vs {fresh}"
        );
    }
}

#[test]
fn concurrent_preloads_of_equivalent_keys_collapse_to_one_entry() {
    let cache = Arc::new(PredictionCache::new());
    std::thread::scope(|scope| {
        for t in 0..8 {
            let cache = Arc::clone(&cache);
            scope.spawn(move || {
                for _ in 0..50 {
                    // Same logical GEMM under the four transposition
                    // spellings: one canonical entry must result.
                    for (ta, tb) in [
                        (Trans::No, Trans::No),
                        (Trans::Yes, Trans::No),
                        (Trans::No, Trans::Yes),
                        (Trans::Yes, Trans::Yes),
                    ] {
                        cache.preload(&CallTimeTable::from_entries(vec![(
                            KernelOp::Gemm {
                                transa: ta,
                                transb: tb,
                                m: 32,
                                n: 24,
                                k: 48,
                            },
                            1.0e-4 + t as f64 * 1.0e-7,
                        )]));
                    }
                }
            });
        }
    });
    let snapshot = cache.snapshot();
    assert_eq!(snapshot.len(), 1, "variants must collapse to one entry");
    assert!(verify_call_table(&snapshot).is_clean());
}

#[test]
fn factor_cache_survives_concurrent_notes_stores_and_lookups() {
    const THREADS: usize = 8;
    const KEYS: usize = 24;
    const ROUNDS: usize = 40;
    let cache = FactorCache::new();
    let key = |k: usize| format!("potrf(leaf:S#{k}:8x8:Spd)");
    // Bytes are held for the even keys up front; the odd keys only ever get
    // noted, so no lookup of them may ever serve bytes.
    for k in (0..KEYS).step_by(2) {
        cache.store(&key(k), Arc::new(Matrix::identity(8)));
    }
    let served = AtomicUsize::new(0);
    let violated = AtomicBool::new(false);
    // Every thread starts its rounds at the same moment, on the same keys.
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (cache, served, violated, barrier) = (&cache, &served, &violated, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    for k in 0..KEYS {
                        let key = key(k);
                        match (t + round + k) % 4 {
                            0 => cache.note(&key),
                            1 if k % 2 == 0 => cache.store(&key, Arc::new(Matrix::identity(8))),
                            2 => {
                                let found = cache.lookup(&key);
                                if found.is_some() != (k % 2 == 0) {
                                    violated.store(true, Ordering::Relaxed);
                                }
                                served.fetch_add(usize::from(found.is_some()), Ordering::Relaxed);
                            }
                            _ => {
                                if k % 2 == 0 && !cache.contains(&key) {
                                    violated.store(true, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                }
            });
        }
    });
    assert!(
        !violated.load(Ordering::Relaxed),
        "a note evicted bytes, a note served bytes, or a stored key vanished"
    );
    assert_eq!(cache.len(), KEYS, "overlapping writers must not split keys");
    assert_eq!(
        cache.hits(),
        served.load(Ordering::Relaxed),
        "every byte-serving lookup is counted exactly once"
    );
    assert!(cache.hits() > 0);
    assert_eq!(cache.resident_bytes(), (KEYS / 2 * 64 * 8) as u64);
    for k in 0..KEYS {
        assert_eq!(cache.lookup(&key(k)).is_some(), k % 2 == 0, "key {k}");
    }
}
