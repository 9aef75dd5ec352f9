//! Experiment 3: predicting anomalies from isolated kernel benchmarks
//! (Section 3.4.3).
//!
//! For every instance visited in Experiment 2, each algorithm's execution
//! time is *predicted* as the sum of isolated-call benchmark times (cold
//! cache, one call at a time). The anomaly classification derived from the
//! measured whole-algorithm times (Experiment 2) is taken as ground truth and
//! compared against the classification derived from the predictions, yielding
//! the confusion matrices of the paper's Tables 1 and 2.

use crate::config::PredictConfig;
use crate::lines::LineScan;
use lamb_expr::Expression;
use lamb_perfmodel::Executor;
use lamb_plan::{classify, Planner};
use std::fmt;

/// A 2x2 confusion matrix over (actual anomaly, predicted anomaly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// Actual no, predicted no.
    pub true_negative: usize,
    /// Actual no, predicted yes.
    pub false_positive: usize,
    /// Actual yes, predicted no.
    pub false_negative: usize,
    /// Actual yes, predicted yes.
    pub true_positive: usize,
}

impl ConfusionMatrix {
    /// Record one instance.
    pub fn record(&mut self, actual: bool, predicted: bool) {
        match (actual, predicted) {
            (false, false) => self.true_negative += 1,
            (false, true) => self.false_positive += 1,
            (true, false) => self.false_negative += 1,
            (true, true) => self.true_positive += 1,
        }
    }

    /// Total number of instances.
    #[must_use]
    pub fn total(&self) -> usize {
        self.true_negative + self.false_positive + self.false_negative + self.true_positive
    }

    /// Fraction of actual anomalies that were predicted
    /// (the paper reports ≈92% for the chain and ≈75% for `A·Aᵀ·B`).
    #[must_use]
    pub fn recall(&self) -> f64 {
        let actual_yes = self.true_positive + self.false_negative;
        if actual_yes == 0 {
            0.0
        } else {
            self.true_positive as f64 / actual_yes as f64
        }
    }

    /// Fraction of predicted anomalies that are actual anomalies
    /// (the paper reports ≈96% and ≈98.5%).
    #[must_use]
    pub fn precision(&self) -> f64 {
        let predicted_yes = self.true_positive + self.false_positive;
        if predicted_yes == 0 {
            0.0
        } else {
            self.true_positive as f64 / predicted_yes as f64
        }
    }

    /// Fraction of instances classified identically by measurement and
    /// prediction.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.true_positive + self.true_negative) as f64 / t as f64
        }
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "                 Predicted")?;
        writeln!(f, "                 No       Yes      Total")?;
        writeln!(
            f,
            "Actual  No   {:>8} {:>8} {:>10}",
            self.true_negative,
            self.false_positive,
            self.true_negative + self.false_positive
        )?;
        writeln!(
            f,
            "        Yes  {:>8} {:>8} {:>10}",
            self.false_negative,
            self.true_positive,
            self.false_negative + self.true_positive
        )?;
        writeln!(
            f,
            "        Total{:>8} {:>8} {:>10}",
            self.true_negative + self.false_negative,
            self.false_positive + self.true_positive,
            self.total()
        )?;
        writeln!(
            f,
            "recall = {:.1}%  precision = {:.1}%  accuracy = {:.1}%",
            100.0 * self.recall(),
            100.0 * self.precision(),
            100.0 * self.accuracy()
        )
    }
}

/// The outcome of Experiment 3.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionResult {
    /// Confusion matrix over all instances visited in Experiment 2.
    pub confusion: ConfusionMatrix,
    /// Number of distinct isolated calls that had to be benchmarked
    /// (identical calls are benchmarked once and memoised).
    pub distinct_calls: usize,
    /// Number of instances evaluated.
    pub instances: usize,
}

/// Run Experiment 3 over the instances visited by Experiment 2.
///
/// Both sides are the one Section 3.3 judge at the Experiment-3 threshold:
/// the ground truth classifies the stored Experiment-2 timings again, the
/// prediction is each [`Plan`](lamb_plan::Plan)'s own verdict over its
/// predicted scores
/// ([`Plan::predicted_anomaly`](lamb_plan::Plan::predicted_anomaly)), whose
/// shared cache memoises the isolated-call benchmarks by kernel-call
/// signature — identical calls are benchmarked once across all scans.
pub fn predict_from_benchmarks(
    expr: &dyn Expression,
    executor: &mut dyn Executor,
    scans: &[LineScan],
    config: &PredictConfig,
) -> PredictionResult {
    let threshold = config.time_score_threshold;
    let planner = Planner::for_expression(expr).threshold(threshold);
    let mut confusion = ConfusionMatrix::default();
    let mut instances = 0;
    for scan in scans {
        for point in &scan.points {
            // Every point of a scan was planned once; one that no longer
            // plans has no prediction to compare and is left out.
            let Some(predicted) = planner
                .plan_with(&point.dims, executor)
                .ok()
                .and_then(|plan| plan.predicted_anomaly())
            else {
                continue;
            };
            instances += 1;
            let timings = point.execution.timings.iter();
            let actual = classify(timings.map(|t| (t.flops, t.seconds)), threshold).is_anomaly;
            confusion.record(actual, predicted);
        }
    }
    PredictionResult {
        confusion,
        distinct_calls: planner.cache_len(),
        instances,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LineConfig, SearchConfig};
    use crate::lines::scan_lines_around;
    use crate::search::run_random_search;
    use lamb_expr::TreeExpression;
    use lamb_perfmodel::SimulatedExecutor;

    #[test]
    fn confusion_matrix_statistics() {
        let mut m = ConfusionMatrix::default();
        for _ in 0..90 {
            m.record(true, true);
        }
        for _ in 0..10 {
            m.record(true, false);
        }
        for _ in 0..5 {
            m.record(false, true);
        }
        for _ in 0..95 {
            m.record(false, false);
        }
        assert_eq!(m.total(), 200);
        assert!((m.recall() - 0.9).abs() < 1e-12);
        assert!((m.precision() - 90.0 / 95.0).abs() < 1e-12);
        assert!((m.accuracy() - 185.0 / 200.0).abs() < 1e-12);
        let text = m.to_string();
        assert!(text.contains("Predicted"));
        assert!(text.contains("recall"));
    }

    #[test]
    fn empty_matrix_is_safe() {
        let m = ConfusionMatrix::default();
        assert_eq!(m.total(), 0);
        assert_eq!(m.recall(), 0.0);
        assert_eq!(m.precision(), 0.0);
        assert_eq!(m.accuracy(), 0.0);
    }

    #[test]
    fn prediction_experiment_runs_end_to_end_on_the_simulator() {
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let mut exec = SimulatedExecutor::paper_like();
        let search_cfg = SearchConfig {
            target_anomalies: 2,
            max_samples: 5000,
            ..SearchConfig::paper_aatb()
        };
        let search = run_random_search(&expr, &mut exec, &search_cfg);
        assert_eq!(search.anomalies.len(), 2);
        let scans = scan_lines_around(&expr, &mut exec, &search.anomalies, &LineConfig::paper());
        let result = predict_from_benchmarks(&expr, &mut exec, &scans, &PredictConfig::paper());
        let expected_instances: usize = scans.iter().map(|s| s.points.len()).sum();
        assert_eq!(result.instances, expected_instances);
        assert_eq!(result.confusion.total(), expected_instances);
        assert!(result.distinct_calls > 0);
        // The predictor captures the dominant (kernel-profile) component of
        // the time model, so most anomalies must be predictable — the paper
        // reports 75-92% recall and >95% precision.
        assert!(
            result.confusion.recall() > 0.5,
            "recall {}",
            result.confusion.recall()
        );
        assert!(
            result.confusion.precision() > 0.5,
            "precision {}",
            result.confusion.precision()
        );
    }
}
