//! `lamb batch` — plan a whole file of expression instances against a
//! calibration store and emit a CSV report.
//!
//! The serving half of "calibrate once, plan many": requests are read from
//! `--exprs FILE` (one `EXPR d0 d1 ...` per line, `#` comments allowed) or
//! generated from the built-in scenario set (`--demo N`), fanned out across
//! worker threads with a shared prediction cache warm-started from
//! `--store`, and summarised: cache hit rate, expressions per second, the
//! predicted cost of the chosen algorithms versus the FLOP-optimal ones, and
//! the predicted-anomaly count.
//!
//! ```text
//! lamb batch --exprs workload.txt --store results/calibration.json
//! lamb batch --demo 50 --store store.json --update-store --strategy predicted
//! ```

use super::common::{self, parse_strategy};
use lamb_experiments::all_scenarios;
use lamb_perfmodel::store::now_unix;
use lamb_perfmodel::CalibrationStore;
use lamb_plan::{BatchOutcome, BatchPlanner, BatchRequest, FactorCache};
use lamb_select::SelectionPolicy;
use std::sync::Arc;

/// Run the subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    let opts = common::parse(args)?;
    let executor_label = opts.executor.name();
    let policy = parse_strategy(opts.strategy.as_deref().unwrap_or("predicted"))?;
    let policy_name = policy.name();
    let threshold = opts.threshold.unwrap_or(0.10);

    // The workload: a request file, or a generated scenario batch.
    let requests: Vec<BatchRequest> = if let Some(path) = &opts.exprs_file {
        let contents = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read --exprs {}: {e}", path.display()))?;
        BatchRequest::parse_file(&contents).map_err(|e| e.to_string())?
    } else if let Some(per_scenario) = opts.demo {
        lamb_experiments::scenario_batch_requests(
            &all_scenarios(),
            per_scenario,
            opts.seed,
            60,
            900,
        )
    } else {
        return Err("missing workload: give --exprs FILE or --demo N".into());
    };
    if requests.is_empty() {
        return Err("the workload contains no requests".into());
    }

    let factory_opts = opts.clone();
    let mut planner = BatchPlanner::new()
        .policy(policy)
        .threshold(threshold)
        .cse(!opts.no_cse)
        .executor_factory(move || factory_opts.build_executor());
    let factor_cache = (!opts.no_factor_cache).then(|| Arc::new(FactorCache::new()));
    if let Some(fc) = &factor_cache {
        planner = planner.factor_cache(Arc::clone(fc));
    }
    if let Some(k) = opts.top_k {
        planner = planner.top_k(k);
    }

    // Warm-start from the store, when one exists.
    let store_path = opts.store_path();
    let loaded_store = if store_path.exists() {
        let store = CalibrationStore::load(&store_path)
            .map_err(|e| format!("cannot load {}: {e}", store_path.display()))?;
        let (block_fingerprint, _) = opts.timing_metadata();
        if store.meta.executor != executor_label {
            return Err(format!(
                "store {} was calibrated with the `{}` executor, this run uses `{executor_label}`",
                store_path.display(),
                store.meta.executor
            ));
        }
        for warning in store.staleness(
            opts.build_executor().machine(),
            &block_fingerprint,
            now_unix(),
        ) {
            println!("warning: store is stale: {warning}");
        }
        planner = planner.with_store(&store);
        println!(
            "warm start: {} call(s) from {}",
            store.calls.len(),
            store_path.display()
        );
        Some(store)
    } else {
        println!("cold start: no store at {}", store_path.display());
        None
    };

    let outcome = planner.plan_batch(&requests);

    // The CSV report.
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let report_path = opts.out_dir.join("batch_report.csv");
    std::fs::write(&report_path, report_csv(&requests, &outcome))
        .map_err(|e| format!("cannot write {}: {e}", report_path.display()))?;

    // Optionally persist what this batch benchmarked. The new calls are
    // wrapped in a sweep store and merged through
    // `CalibrationStore::merge_from`, so its executor/block-config
    // compatibility guards apply (a store must never silently mix times
    // measured under different configurations).
    if opts.update_store {
        let executor = opts.build_executor();
        let mut sweep = CalibrationStore::new(executor.machine().clone(), executor_label);
        let (block_fingerprint, timing_reps) = opts.timing_metadata();
        sweep.meta.block_fingerprint = block_fingerprint;
        sweep.meta.timing_reps = timing_reps;
        sweep.calls = planner.snapshot_cache();
        let mut store = match loaded_store {
            Some(mut store) => {
                store
                    .merge_from(&sweep)
                    .map_err(|e| format!("cannot update {}: {e}", store_path.display()))?;
                store
            }
            None => sweep,
        };
        store.meta.updated_unix = now_unix();
        if let Some(dir) = store_path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            }
        }
        store
            .save(&store_path)
            .map_err(|e| format!("cannot write {}: {e}", store_path.display()))?;
        println!(
            "updated store: {} call(s) -> {}",
            store.calls.len(),
            store_path.display()
        );
    }

    let stats = &outcome.stats;
    println!(
        "planned {}/{} request(s) in {:.3} s ({:.0} expressions/s, policy {})",
        stats.planned,
        stats.requests,
        stats.elapsed_seconds,
        stats.expressions_per_second(),
        policy_name,
    );
    println!(
        "cache: {} hit(s), {} miss(es) ({:.1}% hit rate), {} distinct call(s)",
        stats.cache_hits,
        stats.cache_misses,
        100.0 * stats.hit_rate(),
        stats.distinct_calls
    );
    println!(
        "predicted time: chosen {:.6} s vs FLOP-optimal {:.6} s (saved {:.6} s)",
        stats.chosen_predicted_seconds,
        stats.flop_optimal_predicted_seconds,
        stats.predicted_seconds_saved()
    );
    match &factor_cache {
        Some(fc) => println!(
            "factor cache: {} reusable factor identity(ies) across the batch",
            fc.len()
        ),
        None => println!("factor cache: disabled (--no-factor-cache)"),
    }
    if opts.no_cse {
        println!("cse: disabled (--no-cse)");
    }
    println!(
        "predicted anomalies: {} of {} ({:.1}%)",
        stats.predicted_anomalies,
        stats.planned,
        if stats.planned == 0 {
            0.0
        } else {
            100.0 * stats.predicted_anomalies as f64 / stats.planned as f64
        }
    );
    println!("wrote report: {}", report_path.display());
    if stats.failed > 0 {
        return Err(format!("{} request(s) failed to plan", stats.failed));
    }
    Ok(())
}

/// One CSV row per request: what was planned, what it costs, and whether
/// the FLOP discriminant is predicted to be misled (at each plan's
/// threshold).
fn report_csv(requests: &[BatchRequest], outcome: &BatchOutcome) -> String {
    let mut rows: Vec<Vec<String>> = Vec::with_capacity(requests.len());
    for (req, result) in requests.iter().zip(&outcome.results) {
        let dims = req
            .dims
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" ");
        match result {
            Ok(plan) => {
                let chosen = plan.chosen_score();
                let flop_optimal = plan.flop_optimal_score();
                rows.push(vec![
                    req.text.clone(),
                    dims,
                    "ok".into(),
                    plan.algorithms.len().to_string(),
                    plan.chosen_algorithm().name.to_string(),
                    chosen.flops.to_string(),
                    flop_optimal.flops.to_string(),
                    format_opt_seconds(chosen.predicted_seconds),
                    format_opt_seconds(flop_optimal.predicted_seconds),
                    plan.predicted_anomaly().unwrap_or(false).to_string(),
                ]);
            }
            Err(e) => rows.push(vec![
                req.text.clone(),
                dims,
                format!("error: {e}"),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ]),
        }
    }
    lamb_experiments::csvout::csv_from_rows(
        &[
            "expression",
            "dims",
            "status",
            "algorithms",
            "chosen",
            "chosen_flops",
            "min_flops",
            "chosen_predicted_s",
            "flop_optimal_predicted_s",
            "predicted_anomaly",
        ],
        &rows,
    )
}

fn format_opt_seconds(seconds: Option<f64>) -> String {
    seconds.map_or(String::new(), |s| format!("{s:.9e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// The fields of one CSV line, split at the commas outside quotes, with
    /// quoted fields unquoted (RFC 4180; no field of the report spans lines).
    fn fields(line: &str) -> Vec<String> {
        let (mut fields, mut field, mut quoted) = (Vec::new(), String::new(), false);
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted && chars.peek() == Some(&'"') => {
                    field.push('"');
                    chars.next();
                }
                '"' => quoted = !quoted,
                ',' if !quoted => fields.push(std::mem::take(&mut field)),
                c => field.push(c),
            }
        }
        fields.push(field);
        fields
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lamb-batch-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn batch_plans_a_request_file_and_writes_the_report() {
        let dir = temp_dir("file");
        let exprs = dir.join("workload.txt");
        std::fs::write(
            &exprs,
            "# two instances\nA*A^T*B 80 514 768\nA*B*C*D 331 279 338 854 427\n",
        )
        .unwrap();
        run(&strs(&[
            "--exprs",
            &exprs.to_string_lossy(),
            "--out",
            &dir.to_string_lossy(),
        ]))
        .unwrap();
        let report = std::fs::read_to_string(dir.join("batch_report.csv")).unwrap();
        assert_eq!(report.lines().count(), 3);
        assert!(report.starts_with("expression,dims,status,"));
        // Every row has the header's fields, although the chosen algorithms'
        // names hold commas (their kernel summaries).
        let rows: Vec<Vec<String>> = report.lines().map(fields).collect();
        for row in &rows {
            assert_eq!(row.len(), rows[0].len(), "{row:?}");
        }
        let chosen = rows[0].iter().position(|h| h == "chosen").unwrap();
        assert!(
            rows[1..].iter().all(|r| r[chosen].contains(',')),
            "{rows:?}"
        );
        // The Figure-11 instance is a predicted anomaly.
        let row = rows.iter().find(|r| r[0] == "A*A^T*B").unwrap();
        assert_eq!(row.last().map(String::as_str), Some("true"), "{row:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn calibrate_then_batch_is_fully_warm_and_update_store_persists_growth() {
        let dir = temp_dir("roundtrip");
        let exprs = dir.join("workload.txt");
        std::fs::write(&exprs, "A*A^T*B 80 514 768\nA*B*B^T 300 700 900\n").unwrap();
        let store_path = dir.join("store.json");

        // First run: cold, but --update-store persists what it benchmarked.
        run(&strs(&[
            "--exprs",
            &exprs.to_string_lossy(),
            "--store",
            &store_path.to_string_lossy(),
            "--out",
            &dir.to_string_lossy(),
            "--update-store",
        ]))
        .unwrap();
        let store = CalibrationStore::load(&store_path).unwrap();
        assert!(!store.calls.is_empty());

        // Second run over the same workload: everything is a cache hit, and
        // the report is byte-identical (bit-identical predictions).
        let first_report = std::fs::read_to_string(dir.join("batch_report.csv")).unwrap();
        run(&strs(&[
            "--exprs",
            &exprs.to_string_lossy(),
            "--store",
            &store_path.to_string_lossy(),
            "--out",
            &dir.to_string_lossy(),
        ]))
        .unwrap();
        let second_report = std::fs::read_to_string(dir.join("batch_report.csv")).unwrap();
        assert_eq!(first_report, second_report);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn demo_workloads_and_bad_flags_behave() {
        let dir = temp_dir("demo");
        run(&strs(&[
            "--demo",
            "3",
            "--out",
            &dir.to_string_lossy(),
            "--top-k",
            "6",
            "--seed",
            "5",
        ]))
        .unwrap();
        assert!(dir.join("batch_report.csv").exists());
        assert!(run(&strs(&[])).unwrap_err().contains("missing workload"));
        assert!(run(&strs(&["--demo", "0"])).is_err());
        let err = run(&strs(&["--exprs", "/nonexistent/file.txt"])).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_factor_cache_discounts_repeated_solves_and_the_ablation_does_not() {
        let dir = temp_dir("reuse");
        let exprs = dir.join("workload.txt");
        std::fs::write(
            &exprs,
            "S[spd]^-1*B 96 12\nS[spd]^-1*B 96 12\nS[spd]^-1*B 96 12\n",
        )
        .unwrap();
        let run_and_read = |extra: &[&str]| {
            let mut args = strs(&[
                "--exprs",
                &exprs.to_string_lossy(),
                "--out",
                &dir.to_string_lossy(),
            ]);
            args.extend(strs(extra));
            run(&args).unwrap();
            std::fs::read_to_string(dir.join("batch_report.csv")).unwrap()
        };
        let chosen_flops = |report: &str| -> Vec<u64> {
            let mut rows = report.lines().map(fields);
            let header = rows.next().unwrap();
            let column = header.iter().position(|h| h == "chosen_flops").unwrap();
            rows.map(|r| r[column].parse().unwrap()).collect()
        };
        // Warm requests are discounted: the resident POTRF/TRSM factors make
        // later identical solves cheaper than the cold first one.
        let cached = chosen_flops(&run_and_read(&[]));
        assert_eq!(cached.len(), 3);
        assert!(cached[1] < cached[0], "{cached:?}");
        assert_eq!(cached[1], cached[2], "{cached:?}");
        // The ablation re-factors every time: all three rows identical.
        let ablated = chosen_flops(&run_and_read(&["--no-factor-cache"]));
        assert_eq!(ablated, vec![cached[0]; 3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn executor_mismatch_with_the_store_is_refused() {
        let dir = temp_dir("mismatch");
        let exprs = dir.join("w.txt");
        std::fs::write(&exprs, "A*B 10 20 30\n").unwrap();
        let store_path = dir.join("store.json");
        run(&strs(&[
            "--exprs",
            &exprs.to_string_lossy(),
            "--store",
            &store_path.to_string_lossy(),
            "--out",
            &dir.to_string_lossy(),
            "--update-store",
        ]))
        .unwrap();
        let err = run(&strs(&[
            "--exprs",
            &exprs.to_string_lossy(),
            "--store",
            &store_path.to_string_lossy(),
            "--out",
            &dir.to_string_lossy(),
            "--executor",
            "smooth",
        ]))
        .unwrap_err();
        assert!(err.contains("calibrated with"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
