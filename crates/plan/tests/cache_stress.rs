//! Concurrency stress for the two shared caches of the planner.
//!
//! The single-mutex [`FactorCache`]: many threads noting, storing, looking
//! up and probing overlapping keys; afterwards the entry count, the hit
//! counter and "a note never evicts bytes" all hold.
//!
//! The single-flight miss of the [`PredictionCache`]: eight workers, each
//! with its own [`CachingExecutor`], that miss every key at once benchmark
//! each key exactly once, and a benchmark that panics leaves no worker
//! waiting.
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
//! The process-wide template memo of `lamb-expr`: threads whose first plan
//! of a text is concurrent derive and share its template, and every plan
//! equals the one the per-request search gives a single thread.
//!
//! The process-wide parse memo of `lamb-expr`: threads whose first parse of
//! a text is concurrent end up sharing one parse (and the template it
//! resolves), and plan exactly as the search does on one thread.
//!
//! Run under ThreadSanitizer (see the `concurrency` CI job) to turn data
//! races into hard failures; under the normal test profile this still
//! hammers the shard locks enough to catch logic races.

use lamb_expr::{
    enumerate_expr_algorithms, factor_keys, Algorithm, Expression, GenerateError, KernelOp,
    TreeExpression,
};
use lamb_matrix::{Matrix, Trans, Uplo};
use lamb_perfmodel::{
    single_call_algorithm, AlgorithmTiming, CallTimeTable, Executor, MachineModel,
    SimulatedExecutor,
};
use lamb_plan::{CachingExecutor, FactorCache, MinPredictedTime, Planner, PredictionCache};
use lamb_verify::verify_call_table;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

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
                let mut caching = CachingExecutor::new(&mut executor, &cache);
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
                                let timing = caching.predict_from_isolated_calls(&alg);
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
        let fresh = (CachingExecutor::new(&mut executor, &reference))
            .predict_from_isolated_calls(&alg)
            .seconds;
        let stressed = (CachingExecutor::new(&mut executor, &cache))
            .predict_from_isolated_calls(&alg)
            .seconds;
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

/// Times every isolated call at one millisecond after a pause long enough
/// for the other workers to miss the same key meanwhile, and records each
/// benchmark's timing key in a list its clones share. With `fail_first`
/// set, the first benchmark any clone runs panics.
#[derive(Clone)]
struct CountingExecutor {
    machine: MachineModel,
    benchmarked: Arc<Mutex<Vec<KernelOp>>>,
    fail_first: Arc<AtomicBool>,
}

impl Executor for CountingExecutor {
    fn name(&self) -> String {
        "counting".into()
    }

    fn machine(&self) -> &MachineModel {
        &self.machine
    }

    fn execute_algorithm(&mut self, _: &Algorithm) -> AlgorithmTiming {
        unreachable!("the single-flight stress only benchmarks isolated calls")
    }

    fn time_isolated_call(&mut self, alg: &Algorithm, call_index: usize) -> f64 {
        let key = alg.calls[call_index].op.timing_key();
        self.benchmarked.lock().unwrap().push(key.clone());
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            !self.fail_first.swap(false, Ordering::SeqCst),
            "the benchmark of {key} failed"
        );
        1e-3
    }
}

#[test]
fn every_missed_key_is_benchmarked_once_and_a_failed_benchmark_hangs_no_one() {
    const THREADS: usize = 8;
    let algorithms: Vec<Algorithm> = (0..6)
        .map(|i| {
            single_call_algorithm(KernelOp::Gemm {
                transa: Trans::No,
                transb: Trans::No,
                m: 16 + i,
                n: 16,
                k: 16,
            })
        })
        .collect();
    let executor = CountingExecutor {
        machine: MachineModel::generic_laptop(),
        benchmarked: Arc::default(),
        fail_first: Arc::default(),
    };
    // Every worker misses every key at once, in the same order.
    let cache = PredictionCache::new();
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let (cache, barrier, algorithms) = (&cache, &barrier, &algorithms);
            let mut executor = executor.clone();
            scope.spawn(move || {
                let mut caching = CachingExecutor::new(&mut executor, cache);
                barrier.wait();
                for alg in algorithms {
                    assert_eq!(caching.time_isolated_call(alg, 0), 1e-3);
                }
            });
        }
    });
    let mut benchmarked = std::mem::take(&mut *executor.benchmarked.lock().unwrap());
    let benchmarks = benchmarked.len();
    benchmarked.dedup();
    assert_eq!(benchmarks, algorithms.len(), "each key benchmarked once");
    assert_eq!(benchmarked.len(), algorithms.len());
    let keys = algorithms.len();
    assert_eq!(cache.stats(), (THREADS * keys - keys, keys));

    // The first benchmark panics: its claim is released, one waiter
    // benchmarks the key itself and the others read that value.
    let cache = PredictionCache::new();
    executor.fail_first.store(true, Ordering::SeqCst);
    let outcomes: Vec<Result<f64, _>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let (cache, barrier, alg) = (&cache, &barrier, &algorithms[0]);
                let mut executor = executor.clone();
                scope.spawn(move || {
                    let mut caching = CachingExecutor::new(&mut executor, cache);
                    barrier.wait();
                    caching.time_isolated_call(alg, 0)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join()).collect()
    });
    assert_eq!(outcomes.iter().filter(|o| o.is_err()).count(), 1);
    assert!(outcomes.iter().flatten().all(|&t| t == 1e-3));
    assert_eq!(executor.benchmarked.lock().unwrap().len(), 2);
    assert_eq!(cache.stats(), (THREADS - 2, 2));
    assert_eq!(cache.len(), 1);
}

#[test]
fn factor_cache_survives_concurrent_notes_stores_and_lookups() {
    const THREADS: usize = 8;
    const KEYS: usize = 24;
    const ROUNDS: usize = 40;
    let cache = FactorCache::new();
    // The key of a POTRF of order `8 + k`.
    let key = |k: usize| {
        let alg = single_call_algorithm(KernelOp::Potrf {
            uplo: Uplo::Lower,
            n: 8 + k,
        });
        let (_, key) = factor_keys(&alg).next().expect("POTRF is cacheable");
        key
    };
    // Bytes are held for the even keys up front; the odd keys only ever get
    // noted, so no lookup of them may ever serve bytes.
    for k in (0..KEYS).step_by(2) {
        cache.store(key(k), Arc::new(Matrix::identity(8)));
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
                            0 => cache.note(key),
                            1 if k % 2 == 0 => cache.store(key, Arc::new(Matrix::identity(8))),
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

/// `TreeExpression` planned through the per-request search on the bound
/// tree, never through the text's memoised template.
struct Searched(TreeExpression);

impl Expression for Searched {
    fn name(&self) -> String {
        self.0.name()
    }

    fn num_dims(&self) -> usize {
        self.0.num_dims()
    }

    fn algorithms_pruned(
        &self,
        dims: &[usize],
        top_k: Option<usize>,
    ) -> Result<Vec<Algorithm>, GenerateError> {
        enumerate_expr_algorithms(&self.0.bind(dims), top_k)
    }
}

/// Every plan of `expr` at a few instances, CSE on and off, as text.
fn plans_of(expr: &dyn Expression) -> Vec<String> {
    let mut out = Vec::new();
    for (i, cse) in [(0, true), (1, true), (2, false)] {
        let dims: Vec<usize> = (0..expr.num_dims())
            .map(|d| 9 + 7 * ((d + i) % 3))
            .collect();
        let planned = Planner::for_expression(expr)
            .policy(MinPredictedTime)
            .top_k(3)
            .cse(cse)
            .plan(&dims)
            .map(|p| (p.algorithms, p.scores, p.chosen, p.duplicates_removed));
        out.push(format!("{planned:#?}"));
    }
    out
}

#[test]
fn concurrent_first_uses_of_a_text_plan_like_the_search_on_one_thread() {
    // Texts no other test of this binary plans: every template here is
    // derived while eight threads ask for it at once.
    const TEXTS: [&str; 5] = [
        "P*P^T*Q",
        "R[lower]^-1*U*V",
        "W[spd]^-1*W^-1*Y",
        "F*G*H*K*N",
        "Z^+*J",
    ];
    const THREADS: usize = 8;
    let barrier = Barrier::new(THREADS);
    let per_thread: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    TEXTS
                        .iter()
                        .flat_map(|text| plans_of(&TreeExpression::parse(text).unwrap()))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a planning thread panicked"))
            .collect()
    });
    let reference: Vec<String> = TEXTS
        .iter()
        .flat_map(|text| plans_of(&Searched(TreeExpression::parse(text).unwrap())))
        .collect();
    for (t, plans) in per_thread.iter().enumerate() {
        for (i, (got, want)) in plans.iter().zip(&reference).enumerate() {
            assert_eq!(got, want, "thread {t}, plan {i}");
        }
    }
}

#[test]
fn concurrent_first_parses_share_one_tree_and_plan_like_the_search() {
    // Texts no other test of this binary parses, in spellings that are
    // distinct memo entries: whitespace variants of one tree, and two
    // groupings of one normalised text.
    const TEXTS: [&str; 6] = [
        "E1*E1^T*E2",
        "E1 * E1^T * E2",
        "(G1*G2)*G3[lower]^-1",
        "G1*(G2*G3[lower]^-1)",
        "H[spd]^-1*H2*H3",
        "K^+*K2",
    ];
    const THREADS: usize = 8;
    let cache = Arc::new(PredictionCache::new());
    let barrier = Barrier::new(THREADS);
    let per_thread: Vec<(Vec<TreeExpression>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (barrier, cache) = (&barrier, &cache);
                scope.spawn(move || {
                    barrier.wait();
                    let parsed: Vec<TreeExpression> = TEXTS
                        .iter()
                        .map(|text| TreeExpression::parse(text).unwrap())
                        .collect();
                    let plans = parsed
                        .iter()
                        .map(|expr| {
                            let dims: Vec<usize> =
                                (0..expr.num_dims()).map(|d| 12 + 5 * d).collect();
                            let plan = Planner::for_expression(expr)
                                .policy(MinPredictedTime)
                                .shared_cache(Arc::clone(cache))
                                .plan(&dims)
                                .map(|p| (p.algorithms, p.scores, p.chosen));
                            format!("{plan:#?}")
                        })
                        .collect();
                    (parsed, plans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a parsing thread panicked"))
            .collect()
    });
    let (first, first_plans) = &per_thread[0];
    for (t, (parsed, plans)) in per_thread.iter().enumerate() {
        for (i, expr) in parsed.iter().enumerate() {
            assert!(
                std::ptr::eq(expr.shared_text().as_str(), first[i].shared_text().as_str()),
                "thread {t}, text {i}: one parse per text"
            );
        }
        assert_eq!(plans, first_plans, "thread {t}");
    }
    assert_eq!(first[0], first[1], "whitespace variants parse alike");
    assert_ne!(first[2], first[3], "groupings parse apart");
    let reference: Vec<String> = first
        .iter()
        .map(|expr| {
            let dims: Vec<usize> = (0..expr.num_dims()).map(|d| 12 + 5 * d).collect();
            let plan = Planner::for_expression(&Searched(expr.clone()))
                .policy(MinPredictedTime)
                .plan(&dims)
                .map(|p| (p.algorithms, p.scores, p.chosen));
            format!("{plan:#?}")
        })
        .collect();
    assert_eq!(first_plans, &reference);
    assert!(
        first_plans.iter().all(|p| p.starts_with("Ok(")),
        "{first_plans:#?}"
    );
}
