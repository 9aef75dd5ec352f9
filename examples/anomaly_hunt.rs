//! A miniature version of the paper's experimental campaign: hunt for
//! anomalies at random (Experiment 1), map the region around the first one
//! (Experiment 2), and check how well isolated kernel benchmarks would have
//! predicted them (Experiment 3).
//!
//! Runs on the simulated executor at a reduced scale so it finishes in
//! seconds; pass `--measured` to use the real kernels at an even smaller
//! scale.
//!
//! ```text
//! cargo run --release --example anomaly_hunt [-- --measured]
//! ```

use lamb::experiments::{
    predict_from_benchmarks, prediction_report, region_report, run_random_search,
    scan_lines_around, search_report, LineConfig, PredictConfig, SearchConfig,
};
use lamb::prelude::*;

fn main() {
    let measured = std::env::args().any(|a| a == "--measured");
    let expr = TreeExpression::parse("A*A^T*B").unwrap();

    let mut executor: Box<dyn Executor> = if measured {
        Box::new(MeasuredExecutor::new(
            MachineModel::generic_laptop(),
            BlockConfig::default(),
            3,
            32 * 1024 * 1024,
        ))
    } else {
        Box::new(SimulatedExecutor::paper_like())
    };

    // Experiment 1: random search, scaled down from the paper's 1000 anomalies.
    let search_cfg = SearchConfig {
        target_anomalies: if measured { 2 } else { 25 },
        max_samples: if measured { 60 } else { 5_000 },
        // Keep measured instances small so each sample takes milliseconds.
        box_max: if measured { 400 } else { 1200 },
        ..SearchConfig::paper_aatb()
    };
    let search = run_random_search(&expr, executor.as_mut(), &search_cfg);
    println!("{}", search_report(&search));
    if search.anomalies.is_empty() {
        println!("no anomalies found at this scale — try more samples");
        return;
    }
    let first = &search.anomalies[0];
    println!(
        "first anomaly: dims {:?}, {:.0}% faster with {:.0}% more FLOPs\n",
        first.dims,
        100.0 * first.time_score,
        100.0 * first.flop_score / (1.0 - first.flop_score)
    );

    // Experiment 2: walk the axis-aligned lines around the first anomaly.
    let mut line_cfg = LineConfig::paper().with_max_anomalies(1);
    if measured {
        line_cfg.box_max = 400;
    }
    let scans = scan_lines_around(&expr, executor.as_mut(), &search.anomalies, &line_cfg);
    println!("{}", region_report(&scans, expr.num_dims()));

    // Experiment 3: would isolated kernel benchmarks have predicted them?
    let prediction =
        predict_from_benchmarks(&expr, executor.as_mut(), &scans, &PredictConfig::paper());
    println!("{}", prediction_report(&prediction));
}
