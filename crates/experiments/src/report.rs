//! Human-readable reporting of experiment results.

use crate::lines::LineScan;
use crate::predict::PredictionResult;
use crate::search::SearchResult;
use std::fmt::Write as _;

/// Summary statistics of a set of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryStats {
    /// Number of samples.
    pub count: usize,
    /// Minimum value.
    pub min: f64,
    /// Median value.
    pub median: f64,
    /// Mean value.
    pub mean: f64,
    /// Maximum value.
    pub max: f64,
}

/// Compute summary statistics of a sample set.
#[must_use]
pub fn summary_stats(values: &[f64]) -> SummaryStats {
    if values.is_empty() {
        return SummaryStats {
            count: 0,
            min: 0.0,
            median: 0.0,
            mean: 0.0,
            max: 0.0,
        };
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    };
    SummaryStats {
        count: n,
        min: sorted[0],
        median,
        mean: sorted.iter().sum::<f64>() / n as f64,
        max: sorted[n - 1],
    }
}

/// Render an Experiment-1 summary in the style of Sections 4.1.1 / 4.2.1.
#[must_use]
pub fn search_report(result: &SearchResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Experiment 1 (random search) — {}", result.expression);
    let _ = writeln!(out, "  executor            : {}", result.executor);
    let _ = writeln!(
        out,
        "  time-score threshold: {:.0}%",
        100.0 * result.threshold
    );
    let _ = writeln!(out, "  samples drawn       : {}", result.samples_drawn);
    if result.samples_rejected > 0 {
        let _ = writeln!(out, "  redrawn (no plan)   : {}", result.samples_rejected);
    }
    let _ = writeln!(out, "  anomalies found     : {}", result.anomalies.len());
    let _ = writeln!(
        out,
        "  abundance           : {:.2}%",
        100.0 * result.abundance()
    );
    let _ = writeln!(
        out,
        "  severe (ts>20% or fs>30%): {:.1}%",
        100.0 * result.severe_fraction(0.20, 0.30)
    );
    let time_scores: Vec<f64> = result.anomalies.iter().map(|a| a.time_score).collect();
    let flop_scores: Vec<f64> = result.anomalies.iter().map(|a| a.flop_score).collect();
    let ts = summary_stats(&time_scores);
    let fs = summary_stats(&flop_scores);
    let _ = writeln!(
        out,
        "  time score  : min {:.2} median {:.2} mean {:.2} max {:.2}",
        ts.min, ts.median, ts.mean, ts.max
    );
    let _ = writeln!(
        out,
        "  FLOP score  : min {:.2} median {:.2} mean {:.2} max {:.2}",
        fs.min, fs.median, fs.mean, fs.max
    );
    out
}

/// Render an Experiment-2 summary in the style of Sections 4.1.2 / 4.2.2.
#[must_use]
pub fn region_report(scans: &[LineScan], num_dims: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Experiment 2 (regions around anomalies)");
    let _ = writeln!(out, "  lines scanned : {}", scans.len());
    let points: usize = scans.iter().map(LineScan::len).sum();
    let _ = writeln!(out, "  instances     : {points}");
    for d in 0..num_dims {
        let thicknesses: Vec<f64> = scans
            .iter()
            .filter(|s| s.dimension == d)
            .map(|s| s.thickness() as f64)
            .collect();
        let st = summary_stats(&thicknesses);
        let _ = writeln!(
            out,
            "  d{d}: {} lines, thickness min {:.0} median {:.0} mean {:.0} max {:.0}",
            st.count, st.min, st.median, st.mean, st.max
        );
    }
    out
}

/// Render an Experiment-3 summary in the style of Tables 1 and 2.
#[must_use]
pub fn prediction_report(result: &PredictionResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Experiment 3 (prediction from isolated kernel benchmarks)"
    );
    let _ = writeln!(out, "  instances evaluated : {}", result.instances);
    let _ = writeln!(out, "  distinct calls      : {}", result.distinct_calls);
    let _ = writeln!(out, "{}", result.confusion);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::ConfusionMatrix;
    use crate::region::RegionExtent;
    use crate::search::AnomalyRecord;

    fn fake_search_result() -> SearchResult {
        SearchResult {
            expression: "A*A^T*B".into(),
            executor: "simulated".into(),
            threshold: 0.10,
            samples_drawn: 1000,
            samples_rejected: 0,
            anomalies: vec![
                AnomalyRecord {
                    dims: vec![100, 200, 300],
                    time_score: 0.25,
                    flop_score: 0.10,
                    cheapest: vec![0, 1],
                    fastest: vec![3],
                },
                AnomalyRecord {
                    dims: vec![400, 500, 600],
                    time_score: 0.15,
                    flop_score: 0.35,
                    cheapest: vec![0],
                    fastest: vec![4],
                },
            ],
        }
    }

    #[test]
    fn summary_stats_basic_properties() {
        let s = summary_stats(&[3.0, 1.0, 2.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(summary_stats(&[]).count, 0);
    }

    #[test]
    fn search_report_contains_key_numbers() {
        let report = search_report(&fake_search_result());
        assert!(report.contains("abundance"));
        assert!(report.contains("0.20%"));
        assert!(report.contains("anomalies found     : 2"));
        // Both anomalies are severe under the 20%/30% rule.
        assert!(report.contains("100.0%"));
    }

    #[test]
    fn region_report_groups_by_dimension() {
        let scan = LineScan {
            anomaly_dims: vec![100, 200, 300],
            dimension: 1,
            points: Vec::new(),
            region: RegionExtent {
                lower: 150,
                upper: 260,
            },
        };
        let report = region_report(&[scan], 3);
        assert!(report.contains("d1: 1 lines"));
        assert!(report.contains("d0: 0 lines"));
        assert!(report.contains("109"));
    }

    #[test]
    fn prediction_report_embeds_confusion_matrix() {
        let mut confusion = ConfusionMatrix::default();
        confusion.record(true, true);
        confusion.record(false, false);
        let result = PredictionResult {
            confusion,
            distinct_calls: 12,
            instances: 2,
        };
        let report = prediction_report(&result);
        assert!(report.contains("distinct calls      : 12"));
        assert!(report.contains("recall"));
    }
}
