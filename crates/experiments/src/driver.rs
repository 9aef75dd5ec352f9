//! High-level drivers: one function per paper artifact (figure or table).
//!
//! Each driver runs the necessary experiment(s), writes the raw data series
//! as CSV into an output directory, and returns a textual report. The `lamb`
//! CLI (`lamb paper <id>`, `figure1`, `exp1`, `pipeline`) is a thin wrapper
//! around these functions, so the artifacts can also be regenerated
//! programmatically (e.g. from the integration tests).

use crate::config::{LineConfig, PredictConfig, SearchConfig};
use crate::csvout::write_text;
use crate::figures::{
    efficiency_along_line, figure1_csv, figure1_kernel_efficiency, scatter_csv,
    thickness_distribution_csv,
};
use crate::lines::{scan_lines_around, LineScan};
use crate::predict::{predict_from_benchmarks, PredictionResult};
use crate::report::{prediction_report, region_report, search_report};
use crate::search::{run_random_search, SearchResult};
use lamb_expr::Expression;
use lamb_perfmodel::Executor;
use std::fmt::Write as _;
use std::path::Path;

/// The report and artifact paths produced by one driver invocation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DriverOutput {
    /// Human-readable summary.
    pub report: String,
    /// CSV files written, as `(label, path)` pairs.
    pub artifacts: Vec<(String, String)>,
}

impl DriverOutput {
    fn add_artifact(&mut self, label: &str, path: &Path) {
        self.artifacts
            .push((label.to_string(), path.display().to_string()));
    }
}

/// Figure 1: kernel efficiency versus square operand size.
pub fn run_figure1(
    executor: &mut dyn Executor,
    sizes: &[usize],
    out_dir: &Path,
) -> std::io::Result<DriverOutput> {
    let profiles = figure1_kernel_efficiency(executor, sizes);
    let csv = figure1_csv(&profiles);
    let mut out = DriverOutput::default();
    let path = write_text(out_dir, "figure1_kernel_efficiency.csv", &csv)?;
    out.add_artifact("figure 1 data", &path);
    let _ = writeln!(
        out.report,
        "Figure 1 — kernel efficiency vs size ({} executor)",
        executor.name()
    );
    for p in &profiles {
        let last = p.efficiencies.last().copied().unwrap_or(0.0);
        let first = p.efficiencies.first().copied().unwrap_or(0.0);
        let _ = writeln!(
            out.report,
            "  {:<5} efficiency: {:.2} at size {} -> {:.2} at size {}",
            p.kernel,
            first,
            p.sizes.first().copied().unwrap_or(0),
            last,
            p.sizes.last().copied().unwrap_or(0)
        );
    }
    Ok(out)
}

/// Experiment 1 for one expression (Figures 6 / 9 and the abundance numbers
/// of Sections 4.1.1 / 4.2.1).
pub fn run_experiment1(
    expr: &dyn Expression,
    executor: &mut dyn Executor,
    config: &SearchConfig,
    out_dir: &Path,
    label: &str,
) -> std::io::Result<(SearchResult, DriverOutput)> {
    let result = run_random_search(expr, executor, config);
    let mut out = DriverOutput {
        report: search_report(&result),
        artifacts: Vec::new(),
    };
    let path = write_text(
        out_dir,
        &format!("{label}_scatter.csv"),
        &scatter_csv(&result),
    )?;
    out.add_artifact("time-score vs FLOP-score scatter", &path);
    Ok((result, out))
}

/// Experiment 2 for one expression (Figures 7 / 10).
pub fn run_experiment2(
    expr: &dyn Expression,
    executor: &mut dyn Executor,
    search: &SearchResult,
    config: &LineConfig,
    out_dir: &Path,
    label: &str,
) -> std::io::Result<(Vec<LineScan>, DriverOutput)> {
    let scans = scan_lines_around(expr, executor, &search.anomalies, config);
    let mut out = DriverOutput {
        report: region_report(&scans, expr.num_dims()),
        artifacts: Vec::new(),
    };
    let csv = thickness_distribution_csv(&scans, expr.num_dims());
    let path = write_text(out_dir, &format!("{label}_region_thickness.csv"), &csv)?;
    out.add_artifact("region thickness per dimension", &path);
    Ok((scans, out))
}

/// Experiment 3 for one expression (Tables 1 / 2).
pub fn run_experiment3(
    expr: &dyn Expression,
    executor: &mut dyn Executor,
    scans: &[LineScan],
    config: &PredictConfig,
    out_dir: &Path,
    label: &str,
) -> std::io::Result<(PredictionResult, DriverOutput)> {
    let result = predict_from_benchmarks(expr, executor, scans, config);
    let mut out = DriverOutput {
        report: prediction_report(&result),
        artifacts: Vec::new(),
    };
    let c = &result.confusion;
    let csv = format!(
        "actual,predicted_no,predicted_yes\nno,{},{}\nyes,{},{}\n",
        c.true_negative, c.false_positive, c.false_negative, c.true_positive
    );
    let path = write_text(out_dir, &format!("{label}_confusion_matrix.csv"), &csv)?;
    out.add_artifact("confusion matrix", &path);
    Ok((result, out))
}

/// Figures 8 / 11: per-algorithm efficiencies along an axis-aligned line.
pub fn run_efficiency_line(
    expr: &dyn Expression,
    executor: &mut dyn Executor,
    base_dims: &[usize],
    dimension: usize,
    config: &LineConfig,
    out_dir: &Path,
    label: &str,
) -> std::io::Result<DriverOutput> {
    let line = efficiency_along_line(expr, executor, base_dims, dimension, config);
    let mut out = DriverOutput::default();
    let path = write_text(
        out_dir,
        &format!("{label}_efficiency_line.csv"),
        &line.to_csv(),
    )?;
    out.add_artifact("per-algorithm efficiency along line", &path);
    let anomalous = line.points.iter().filter(|p| p.is_anomaly).count();
    let _ = writeln!(
        out.report,
        "Efficiency line through {:?} along d{} ({} executor): {} points, {} anomalous",
        base_dims,
        dimension,
        executor.name(),
        line.points.len(),
        anomalous
    );
    // Report which algorithm is fastest / cheapest at the line centre.
    if let Some(centre) = line
        .points
        .iter()
        .min_by_key(|p| (p.value as i64 - base_dims[dimension] as i64).abs())
    {
        for alg in &centre.algorithms {
            let _ = writeln!(
                out.report,
                "  at d{}={}: {:<40} total eff {:.2} cheapest={} fastest={}",
                dimension, centre.value, alg.name, alg.total, alg.is_cheapest, alg.is_fastest
            );
        }
    }
    Ok(out)
}

/// Run the full pipeline (Experiments 1, 2 and 3) for one expression and
/// return the combined report (`lamb pipeline`, and `lamb paper` for
/// Figures 7 / 10 and Tables 1 / 2).
pub fn run_full_pipeline(
    expr: &dyn Expression,
    executor: &mut dyn Executor,
    search_cfg: &SearchConfig,
    line_cfg: &LineConfig,
    predict_cfg: &PredictConfig,
    out_dir: &Path,
    label: &str,
) -> std::io::Result<DriverOutput> {
    let (search, o1) = run_experiment1(expr, executor, search_cfg, out_dir, label)?;
    let (scans, o2) = run_experiment2(expr, executor, &search, line_cfg, out_dir, label)?;
    let (_, o3) = run_experiment3(expr, executor, &scans, predict_cfg, out_dir, label)?;
    Ok(DriverOutput {
        report: format!("{}\n{}\n{}", o1.report, o2.report, o3.report),
        artifacts: [o1.artifacts, o2.artifacts, o3.artifacts].concat(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamb_expr::TreeExpression;
    use lamb_perfmodel::SimulatedExecutor;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lamb-driver-{tag}-{}", std::process::id()))
    }

    #[test]
    fn figure1_driver_writes_csv_and_report() {
        let dir = temp_dir("fig1");
        let mut exec = SimulatedExecutor::paper_like();
        let out = run_figure1(&mut exec, &[100, 500, 1000], &dir).unwrap();
        assert_eq!(out.artifacts.len(), 1);
        assert!(PathBuf::from(&out.artifacts[0].1).exists());
        assert!(out.report.contains("gemm"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_pipeline_runs_at_reduced_scale() {
        let dir = temp_dir("pipeline");
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let mut exec = SimulatedExecutor::paper_like();
        let search_cfg = SearchConfig {
            target_anomalies: 2,
            max_samples: 3000,
            ..SearchConfig::paper_aatb()
        };
        let line_cfg = LineConfig::paper().with_max_anomalies(1);
        let out = run_full_pipeline(
            &expr,
            &mut exec,
            &search_cfg,
            &line_cfg,
            &PredictConfig::paper(),
            &dir,
            "aatb_test",
        )
        .unwrap();
        assert_eq!(out.artifacts.len(), 3);
        assert!(out.report.contains("Experiment 1"));
        assert!(out.report.contains("Experiment 2"));
        assert!(out.report.contains("Experiment 3"));
        for (_, path) in &out.artifacts {
            assert!(PathBuf::from(path).exists(), "{path} missing");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn efficiency_line_driver_reports_centre_classification() {
        let dir = temp_dir("line");
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let mut exec = SimulatedExecutor::paper_like();
        let mut cfg = LineConfig::paper();
        cfg.box_min = 80;
        cfg.box_max = 200;
        let out = run_efficiency_line(
            &expr,
            &mut exec,
            &[110, 301, 938],
            0,
            &cfg,
            &dir,
            "fig11_right",
        )
        .unwrap();
        assert!(out.report.contains("Efficiency line"));
        assert!(out.report.contains("cheapest="));
        std::fs::remove_dir_all(&dir).ok();
    }
}
