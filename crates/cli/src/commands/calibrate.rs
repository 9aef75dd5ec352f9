//! `lamb calibrate` — run calibration sweeps and persist them.
//!
//! Builds (or refines) a versioned on-disk [`CalibrationStore`]:
//!
//! * a **square sweep** measures the GEMM/SYRK/SYMM/TRMM/TRSM/POTRF/GETRF/QR
//!   efficiency curves on square operands (the paper's Figure 1, extended
//!   with the triangular and factorisation kernels) and seeds the
//!   isolated-call table with those benchmarks;
//! * an optional **workload sweep** (`--exprs FILE`) benchmarks every
//!   distinct kernel call the given batch of expression instances needs, so
//!   a later `lamb batch` against the same workload starts 100% warm.
//!
//! By default a new sweep *merges* into an existing store (newer entries
//! win); `--no-merge` replaces it. The command prints coverage (distinct
//! calls per kernel) and staleness warnings.
//!
//! ```text
//! lamb calibrate --store results/calibration.json --sizes 1200
//! lamb calibrate --store store.json --exprs workload.txt --executor measured
//! ```

use super::common::{self, CommonOptions};
use lamb_perfmodel::store::now_unix;
use lamb_perfmodel::{measure_square_profiles, CalibrationStore};
use lamb_plan::{BatchPlanner, BatchRequest};

/// Run the subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    let opts = common::parse(args)?;
    let executor_label = opts.executor.name();

    // `--autotune`: search the blocking space first, so the sweep below runs
    // under — and is fingerprinted with — the winning configuration.
    let tuned = if opts.autotune {
        let base = opts.block_config();
        println!(
            "autotuning block configuration ({} mode, starting from {}) ...",
            if opts.quick { "quick" } else { "full" },
            base.fingerprint()
        );
        let (outcome, tuned) = lamb_perfmodel::autotune_measured(&base, opts.quick);
        println!(
            "  winner : {} after {} evaluation(s) in {} pass(es)",
            tuned.config.fingerprint(),
            outcome.evaluations,
            outcome.passes
        );
        let (size, reps) = lamb_perfmodel::tuned_gemm_probe(opts.quick);
        println!(
            "  gemm   : {:.2} → {:.2} GFLOP/s (starting → tuned configuration, n = {size})",
            lamb_perfmodel::measured_gemm_gflops(&base, size, reps),
            tuned.gflops
        );
        Some(tuned)
    } else {
        None
    };
    let block_config = tuned
        .as_ref()
        .map(|t| t.config.clone())
        .unwrap_or_else(|| opts.block_config());
    let block_fingerprint = block_config.fingerprint();
    let (_, timing_reps) = opts.timing_metadata();
    let mut executor = opts.build_executor_with(block_config);

    let mut store = CalibrationStore::new(executor.machine().clone(), executor_label);
    store.meta.block_fingerprint = block_fingerprint.clone();
    store.meta.timing_reps = timing_reps;
    store.tuned = tuned;

    // Square sweep: benchmark every compute kernel on square operands, fill
    // the call table, and derive the efficiency curves from the same times.
    let sizes = opts.figure1_sizes();
    println!(
        "calibrating ({executor_label}) on square sizes {}..={} ...",
        sizes.first().copied().unwrap_or(0),
        sizes.last().copied().unwrap_or(0)
    );
    for profile in measure_square_profiles(executor.as_mut(), &sizes, &mut store.calls) {
        println!(
            "  {:<5}: {} sizes, peak efficiency {:.2}",
            profile.kernel,
            profile.sizes.len(),
            profile.max_efficiency()
        );
        store.profiles.push(profile);
    }

    // Workload sweep: benchmark exactly the calls a request file needs.
    if let Some(path) = &opts.exprs_file {
        let contents = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read --exprs {}: {e}", path.display()))?;
        let requests = BatchRequest::parse_file(&contents).map_err(|e| e.to_string())?;
        let factory_opts = opts.clone();
        let planner = BatchPlanner::new()
            .executor_factory(move || factory_opts.build_executor())
            .threshold(opts.threshold.unwrap_or(0.10));
        let planner = match opts.top_k {
            Some(k) => planner.top_k(k),
            None => planner,
        };
        let outcome = planner.plan_batch(&requests);
        store.calls.merge_from(&planner.snapshot_cache());
        println!(
            "  workload: {} request(s) from {}, {} distinct call(s) benchmarked",
            requests.len(),
            path.display(),
            outcome.stats.cache_misses
        );
        if outcome.stats.failed > 0 {
            return Err(format!(
                "{} request(s) in {} failed to plan",
                outcome.stats.failed,
                path.display()
            ));
        }
    }

    // Merge into (or replace) the on-disk store. A newly tuned block
    // configuration makes old timings incomparable, so when `--autotune`
    // lands on a different fingerprint than the existing store was measured
    // under, the sweep replaces the store instead of merging (which the
    // store's own fingerprint check would refuse anyway).
    let path = opts.store_path();
    let mut merge = path.exists() && !opts.no_merge;
    if merge && opts.autotune {
        if let Ok(existing) = CalibrationStore::load(&path) {
            if !existing.meta.block_fingerprint.is_empty()
                && existing.meta.block_fingerprint != block_fingerprint
            {
                println!(
                    "  note   : existing store was measured under `{}`; replacing it — \
                     timings under the tuned `{}` are not comparable",
                    existing.meta.block_fingerprint, block_fingerprint
                );
                merge = false;
            }
        }
    }
    let final_store = if merge {
        let mut existing = CalibrationStore::load(&path).map_err(|e| {
            format!(
                "cannot merge into {}: {e} (use --no-merge to overwrite)",
                path.display()
            )
        })?;
        existing.merge_from(&store).map_err(|e| {
            format!(
                "cannot merge into {}: {e} (use --no-merge to overwrite)",
                path.display()
            )
        })?;
        existing
    } else {
        store
    };
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    final_store
        .save(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    print_coverage(&final_store, &opts, &block_fingerprint);
    println!("wrote {}", path.display());
    Ok(())
}

fn print_coverage(store: &CalibrationStore, opts: &CommonOptions, block_fingerprint: &str) {
    let coverage = store.coverage();
    let per_kernel: Vec<String> = coverage
        .iter()
        .map(|(kernel, count)| format!("{kernel} {count}"))
        .collect();
    println!(
        "store: version {}, executor {}, {} sweep(s)",
        lamb_perfmodel::STORE_FORMAT_VERSION,
        store.meta.executor,
        store.meta.sweeps
    );
    println!(
        "  calls  : {} distinct ({})",
        store.calls.len(),
        per_kernel.join(", ")
    );
    if let Some(tuned) = &store.tuned {
        println!(
            "  tuned  : {} ({:.2} GFLOP/s GEMM)",
            tuned.config.fingerprint(),
            tuned.gflops
        );
    }
    let missing = store.missing_kernels();
    if !missing.is_empty() {
        println!(
            "  gaps   : no benchmarks yet for {} (run another sweep to cover them)",
            missing.join(", ")
        );
    }
    println!(
        "  curves : {}",
        store
            .profiles
            .iter()
            .map(|p| format!("{} [{} samples]", p.kernel, p.sizes.len()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let warnings = store.staleness(
        opts.build_executor().machine(),
        block_fingerprint,
        now_unix(),
    );
    if warnings.is_empty() {
        println!("  status : fresh");
    } else {
        for warning in warnings {
            println!("  stale  : {warning}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lamb-calibrate-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn calibrate_writes_a_loadable_store_and_merges_on_rerun() {
        let dir = temp_dir("merge");
        let store_path = dir.join("calibration.json");
        let store_arg = store_path.to_string_lossy().to_string();
        run(&strs(&["--store", &store_arg, "--sizes", "300"])).unwrap();
        let first = CalibrationStore::load(&store_path).unwrap();
        assert_eq!(first.meta.sweeps, 1);
        let text = std::fs::read_to_string(&store_path).unwrap();
        assert!(!text.contains("\"backends\""), "one sweep, one table");
        assert_eq!(first.calls.len(), 33); // 11 kernels x 3 sizes
        assert_eq!(first.profiles.len(), 11);
        assert!(
            first.missing_kernels().is_empty(),
            "sweep covers every kernel"
        );

        // A second, larger sweep merges: coverage grows, sweeps accumulate.
        run(&strs(&["--store", &store_arg, "--sizes", "500"])).unwrap();
        let merged = CalibrationStore::load(&store_path).unwrap();
        assert_eq!(merged.meta.sweeps, 2);
        assert_eq!(merged.calls.len(), 55); // 11 kernels x 5 sizes
        assert_eq!(merged.profiles[0].sizes.len(), 5);

        // --no-merge replaces instead.
        run(&strs(&[
            "--store",
            &store_arg,
            "--sizes",
            "200",
            "--no-merge",
        ]))
        .unwrap();
        let replaced = CalibrationStore::load(&store_path).unwrap();
        assert_eq!(replaced.meta.sweeps, 1);
        assert_eq!(replaced.calls.len(), 22);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workload_calibration_covers_a_request_file() {
        let dir = temp_dir("workload");
        let exprs = dir.join("workload.txt");
        std::fs::write(
            &exprs,
            "A*A^T*B 80 514 768\nA*B*C*D 100 20 300 20 500\nL[lower]*A*B 60 40 20\nL[lower]^-1*B 90 30\n",
        )
        .unwrap();
        let store_path = dir.join("store.json");
        run(&strs(&[
            "--store",
            &store_path.to_string_lossy(),
            "--exprs",
            &exprs.to_string_lossy(),
            "--sizes",
            "100",
        ]))
        .unwrap();
        let store = CalibrationStore::load(&store_path).unwrap();
        // Square sweep (5 calls) plus the workload's distinct calls,
        // including the triangular kernels the workload needs.
        assert!(store.calls.len() > 5);
        let coverage = store.coverage();
        assert!(coverage.get("trmm").copied().unwrap_or(0) >= 2);
        assert!(coverage.get("trsm").copied().unwrap_or(0) >= 2);
        // A warm batch against the same workload never benchmarks.
        let requests = BatchRequest::parse_file(&std::fs::read_to_string(&exprs).unwrap()).unwrap();
        let outcome = BatchPlanner::new().with_store(&store).plan_batch(&requests);
        assert_eq!(outcome.stats.cache_misses, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn autotune_records_a_tuned_config_and_warm_starts_use_it() {
        let dir = temp_dir("autotune");
        let store_path = dir.join("calibration.json");
        let store_arg = store_path.to_string_lossy().to_string();
        run(&strs(&[
            "--store",
            &store_arg,
            "--sizes",
            "100",
            "--autotune",
            "--quick",
        ]))
        .unwrap();
        let store = CalibrationStore::load(&store_path).unwrap();
        let tuned = store
            .tuned
            .as_ref()
            .expect("--autotune records a tuned configuration");
        assert_eq!(store.meta.block_fingerprint, tuned.config.fingerprint());
        assert!(tuned.gflops > 0.0);

        // Warm start: options pointed at the store resolve the tuned config,
        // so executors and staleness fingerprints both follow it.
        let opts = common::parse(&strs(&["--store", &store_arg])).unwrap();
        assert_eq!(opts.block_config(), tuned.config);
        assert_eq!(opts.timing_metadata().0, tuned.config.fingerprint());

        // A later plain sweep runs under the tuned fingerprint, so it merges
        // instead of being refused, and the tuned section survives the merge.
        run(&strs(&["--store", &store_arg, "--sizes", "200"])).unwrap();
        let merged = CalibrationStore::load(&store_path).unwrap();
        assert_eq!(merged.meta.sweeps, 2);
        assert_eq!(merged.tuned, store.tuned);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merging_across_executors_is_refused() {
        let dir = temp_dir("mixed");
        let store_path = dir.join("store.json");
        let store_arg = store_path.to_string_lossy().to_string();
        run(&strs(&["--store", &store_arg, "--sizes", "100"])).unwrap();
        let err = run(&strs(&[
            "--store",
            &store_arg,
            "--sizes",
            "100",
            "--executor",
            "smooth",
        ]))
        .unwrap_err();
        assert!(err.contains("cannot merge"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
