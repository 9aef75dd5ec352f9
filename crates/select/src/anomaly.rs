//! Anomaly classification (Section 3.3 of the paper).
//!
//! An instance is an *anomaly* when none of the cheapest (minimum FLOP count)
//! algorithms is among the fastest algorithms, and the time score exceeds a
//! threshold (10% in Experiment 1, 5% in Experiments 2 and 3).

use crate::scores::{flop_score, time_score};
use lamb_expr::SharedStr;

/// FLOP count and execution time of one algorithm on one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmMeasurement {
    /// Index of the algorithm in the expression's algorithm list.
    pub index: usize,
    /// Algorithm name.
    pub name: SharedStr,
    /// FLOP count on this instance.
    pub flops: u64,
    /// Execution (or predicted) time in seconds on this instance.
    pub seconds: f64,
}

/// The evaluation of every algorithm of an expression on one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceEvaluation {
    /// The instance's dimension tuple.
    pub dims: Vec<usize>,
    /// One measurement per algorithm.
    pub measurements: Vec<AlgorithmMeasurement>,
}

/// The outcome of classifying one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// Indices of the cheapest algorithms (minimum FLOP count, with ties).
    pub cheapest: Vec<usize>,
    /// Indices of the fastest algorithms (minimum time, with ties).
    pub fastest: Vec<usize>,
    /// Time score of Section 3.3.
    pub time_score: f64,
    /// FLOP score of Section 3.3.
    pub flop_score: f64,
    /// Whether the instance is classified as an anomaly at the requested
    /// threshold.
    pub is_anomaly: bool,
}

impl InstanceEvaluation {
    /// Indices of the algorithms with the minimum FLOP count.
    #[must_use]
    pub fn cheapest_set(&self) -> Vec<usize> {
        let Some(min) = self.measurements.iter().map(|m| m.flops).min() else {
            return Vec::new();
        };
        self.measurements
            .iter()
            .filter(|m| m.flops == min)
            .map(|m| m.index)
            .collect()
    }

    /// Indices of the algorithms with the minimum execution time. Ties within
    /// a relative tolerance of `1e-12` are kept (exact float ties are rare but
    /// possible with simulated timings).
    #[must_use]
    pub fn fastest_set(&self) -> Vec<usize> {
        let Some(min) = self
            .measurements
            .iter()
            .map(|m| m.seconds)
            .min_by(|a, b| a.partial_cmp(b).expect("finite times"))
        else {
            return Vec::new();
        };
        self.measurements
            .iter()
            .filter(|m| m.seconds <= min * (1.0 + 1e-12))
            .map(|m| m.index)
            .collect()
    }

    /// Classify the instance at the given time-score threshold.
    #[must_use]
    pub fn classify(&self, time_score_threshold: f64) -> Classification {
        let cheapest = self.cheapest_set();
        let fastest = self.fastest_set();
        if cheapest.is_empty() || fastest.is_empty() {
            return Classification {
                cheapest,
                fastest,
                time_score: 0.0,
                flop_score: 0.0,
                is_anomaly: false,
            };
        }
        let by_index = |idx: usize| {
            self.measurements
                .iter()
                .find(|m| m.index == idx)
                .expect("index from the measurement set")
        };
        // Shortest time among the cheapest algorithms.
        let t_cheapest = cheapest
            .iter()
            .map(|&i| by_index(i).seconds)
            .fold(f64::INFINITY, f64::min);
        // Shortest time overall.
        let t_fastest = fastest
            .iter()
            .map(|&i| by_index(i).seconds)
            .fold(f64::INFINITY, f64::min);
        // FLOP count of the cheapest algorithms and of the cheapest among the
        // fastest algorithms.
        let f_cheapest = cheapest
            .iter()
            .map(|&i| by_index(i).flops)
            .min()
            .unwrap_or(0);
        let f_fastest = fastest
            .iter()
            .map(|&i| by_index(i).flops)
            .min()
            .unwrap_or(0);

        let ts = time_score(t_cheapest, t_fastest);
        let fs = flop_score(f_cheapest, f_fastest);
        let disjoint = !cheapest.iter().any(|i| fastest.contains(i));
        Classification {
            cheapest,
            fastest,
            time_score: ts,
            flop_score: fs,
            is_anomaly: disjoint && ts > time_score_threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(entries: &[(u64, f64)]) -> InstanceEvaluation {
        InstanceEvaluation {
            dims: vec![0; 3],
            measurements: entries
                .iter()
                .enumerate()
                .map(|(i, &(flops, seconds))| AlgorithmMeasurement {
                    index: i,
                    name: format!("alg {i}").into(),
                    flops,
                    seconds,
                })
                .collect(),
        }
    }

    #[test]
    fn cheapest_and_fastest_sets_handle_ties() {
        let e = eval(&[(100, 2.0), (100, 1.5), (200, 1.0), (200, 1.0)]);
        assert_eq!(e.cheapest_set(), vec![0, 1]);
        assert_eq!(e.fastest_set(), vec![2, 3]);
    }

    #[test]
    fn anomaly_when_sets_are_disjoint_and_score_exceeds_threshold() {
        // Cheapest (100 FLOPs) takes 2.0 s; an algorithm with 150 FLOPs takes 1.0 s.
        let e = eval(&[(100, 2.0), (150, 1.0)]);
        let c = e.classify(0.10);
        assert!(c.is_anomaly);
        assert!((c.time_score - 0.5).abs() < 1e-12);
        assert!((c.flop_score - (50.0 / 150.0)).abs() < 1e-12);
        assert_eq!(c.cheapest, vec![0]);
        assert_eq!(c.fastest, vec![1]);
    }

    #[test]
    fn not_an_anomaly_when_a_cheapest_algorithm_is_fastest() {
        let e = eval(&[(100, 1.0), (150, 1.2), (300, 4.0)]);
        let c = e.classify(0.10);
        assert!(!c.is_anomaly);
        assert_eq!(c.time_score, 0.0);
        assert_eq!(c.flop_score, 0.0);
    }

    #[test]
    fn threshold_filters_marginal_anomalies() {
        // Disjoint sets but only 5% faster: not an anomaly at the 10% threshold,
        // an anomaly at the 1% threshold.
        let e = eval(&[(100, 1.00), (150, 0.95)]);
        assert!(!e.classify(0.10).is_anomaly);
        assert!(e.classify(0.01).is_anomaly);
    }

    #[test]
    fn tie_between_cheapest_algorithms_uses_their_best_time() {
        // Two cheapest algorithms, one slow, one fast; the fast one is the
        // overall fastest, so no anomaly.
        let e = eval(&[(100, 3.0), (100, 1.0), (400, 1.1)]);
        let c = e.classify(0.05);
        assert!(!c.is_anomaly);
        // And when the expensive algorithm is fastest, the time score compares
        // against the *better* of the cheapest pair.
        let e2 = eval(&[(100, 3.0), (100, 2.0), (400, 1.0)]);
        let c2 = e2.classify(0.05);
        assert!(c2.is_anomaly);
        assert!((c2.time_score - 0.5).abs() < 1e-12);
    }

    #[test]
    fn flop_score_uses_cheapest_among_fastest() {
        // Two fastest algorithms tie on time; the FLOP score uses the cheaper
        // of the two (300, not 500).
        let e = eval(&[(100, 2.0), (300, 1.0), (500, 1.0)]);
        let c = e.classify(0.05);
        assert!(c.is_anomaly);
        assert!((c.flop_score - (200.0 / 300.0)).abs() < 1e-12);
    }

    #[test]
    fn paper_severity_example() {
        // "performing 45% more FLOPs reduces the execution time by 40%".
        let e = eval(&[(1000, 1.0), (1450, 0.6)]);
        let c = e.classify(0.10);
        assert!(c.is_anomaly);
        assert!((c.time_score - 0.4).abs() < 1e-12);
        assert!((c.flop_score - 450.0 / 1450.0).abs() < 1e-12);
    }

    #[test]
    fn empty_evaluation_is_not_an_anomaly() {
        let e = eval(&[]);
        let c = e.classify(0.1);
        assert!(!c.is_anomaly);
        assert!(c.cheapest.is_empty());
    }
}
