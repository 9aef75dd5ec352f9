//! Anomaly classification (Section 3.3 of the paper).
//!
//! An instance is an *anomaly* when none of the cheapest (minimum FLOP count)
//! algorithms is among the fastest algorithms, and the time score exceeds a
//! threshold (10% in Experiment 1, 5% in Experiments 2 and 3).
//!
//! [`classify`] is the one judge: it reads one `(flops, seconds)` row per
//! algorithm from wherever the caller keeps them — a plan's predicted scores,
//! an execution's timings — so there is no record type to build first.

use crate::scores::{flop_score, time_score};

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

/// Classify one instance at `time_score_threshold` from its per-algorithm
/// `(flops, seconds)` rows, in algorithm order; the indices of the verdict
/// are positions in `rows`.
///
/// The cheapest set holds the algorithms with the minimum FLOP count, the
/// fastest set those within a relative `1e-12` of the minimum time (exact
/// float ties are rare but possible with simulated timings). The time score
/// compares the best time of the cheapest set against the best time
/// overall, the FLOP score the cheapest FLOP count against the cheapest
/// among the fastest; the instance is an anomaly when the two sets are
/// disjoint and the time score exceeds the threshold.
///
/// # Panics
///
/// Panics if a time is NaN.
#[must_use]
pub fn classify(
    rows: impl IntoIterator<Item = (u64, f64), IntoIter: Clone>,
    time_score_threshold: f64,
) -> Classification {
    let rows = rows.into_iter();
    let min_flops = rows.clone().map(|(flops, _)| flops).min().unwrap_or(0);
    let min_seconds = rows
        .clone()
        .map(|(_, seconds)| seconds)
        .min_by(|a, b| a.partial_cmp(b).expect("finite times"))
        .unwrap_or(0.0);
    let is_cheapest = |&(flops, _): &(u64, f64)| flops == min_flops;
    let is_fastest = |&(_, seconds): &(u64, f64)| seconds <= min_seconds * (1.0 + 1e-12);
    let cheapest = positions(rows.clone(), is_cheapest);
    let fastest = positions(rows.clone(), is_fastest);
    if cheapest.is_empty() || fastest.is_empty() {
        return Classification {
            cheapest,
            fastest,
            time_score: 0.0,
            flop_score: 0.0,
            is_anomaly: false,
        };
    }
    // Shortest time among the cheapest algorithms, and overall.
    let seconds = |(_, seconds): (u64, f64)| seconds;
    let t_cheapest = rows
        .clone()
        .filter(is_cheapest)
        .map(seconds)
        .fold(f64::INFINITY, f64::min);
    let t_fastest = rows
        .clone()
        .filter(is_fastest)
        .map(seconds)
        .fold(f64::INFINITY, f64::min);
    // FLOP count of the cheapest among the fastest algorithms.
    let f_fastest = rows
        .filter(is_fastest)
        .map(|(flops, _)| flops)
        .min()
        .unwrap_or(0);

    let ts = time_score(t_cheapest, t_fastest);
    let fs = flop_score(min_flops, f_fastest);
    let disjoint = !cheapest.iter().any(|i| fastest.contains(i));
    Classification {
        cheapest,
        fastest,
        time_score: ts,
        flop_score: fs,
        is_anomaly: disjoint && ts > time_score_threshold,
    }
}

/// Positions of the rows `keep` accepts.
fn positions(
    rows: impl Iterator<Item = (u64, f64)>,
    keep: impl Fn(&(u64, f64)) -> bool,
) -> Vec<usize> {
    rows.enumerate()
        .filter(|(_, row)| keep(row))
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheapest_and_fastest_ties_are_kept() {
        let c = classify([(100, 2.0), (100, 1.5), (200, 1.0), (200, 1.0)], 0.10);
        assert_eq!(c.cheapest, vec![0, 1]);
        assert_eq!(c.fastest, vec![2, 3]);
    }

    #[test]
    fn anomaly_when_sets_are_disjoint_and_score_exceeds_threshold() {
        // Cheapest (100 FLOPs) takes 2.0 s; an algorithm with 150 FLOPs takes 1.0 s.
        let c = classify([(100, 2.0), (150, 1.0)], 0.10);
        assert!(c.is_anomaly);
        assert!((c.time_score - 0.5).abs() < 1e-12);
        assert!((c.flop_score - (50.0 / 150.0)).abs() < 1e-12);
        assert_eq!(c.cheapest, vec![0]);
        assert_eq!(c.fastest, vec![1]);
    }

    #[test]
    fn not_an_anomaly_when_a_cheapest_algorithm_is_fastest() {
        let c = classify([(100, 1.0), (150, 1.2), (300, 4.0)], 0.10);
        assert!(!c.is_anomaly);
        assert_eq!(c.time_score, 0.0);
        assert_eq!(c.flop_score, 0.0);
    }

    #[test]
    fn threshold_filters_marginal_anomalies() {
        // Disjoint sets but only 5% faster: not an anomaly at the 10% threshold,
        // an anomaly at the 1% threshold.
        let rows = [(100, 1.00), (150, 0.95)];
        assert!(!classify(rows, 0.10).is_anomaly);
        assert!(classify(rows, 0.01).is_anomaly);
    }

    #[test]
    fn tie_between_cheapest_algorithms_uses_their_best_time() {
        // Two cheapest algorithms, one slow, one fast; the fast one is the
        // overall fastest, so no anomaly.
        let c = classify([(100, 3.0), (100, 1.0), (400, 1.1)], 0.05);
        assert!(!c.is_anomaly);
        // And when the expensive algorithm is fastest, the time score compares
        // against the *better* of the cheapest pair.
        let c2 = classify([(100, 3.0), (100, 2.0), (400, 1.0)], 0.05);
        assert!(c2.is_anomaly);
        assert!((c2.time_score - 0.5).abs() < 1e-12);
    }

    #[test]
    fn flop_score_uses_cheapest_among_fastest() {
        // Two fastest algorithms tie on time; the FLOP score uses the cheaper
        // of the two (300, not 500).
        let c = classify([(100, 2.0), (300, 1.0), (500, 1.0)], 0.05);
        assert!(c.is_anomaly);
        assert!((c.flop_score - (200.0 / 300.0)).abs() < 1e-12);
    }

    #[test]
    fn paper_severity_example() {
        // "performing 45% more FLOPs reduces the execution time by 40%".
        let c = classify([(1000, 1.0), (1450, 0.6)], 0.10);
        assert!(c.is_anomaly);
        assert!((c.time_score - 0.4).abs() < 1e-12);
        assert!((c.flop_score - 450.0 / 1450.0).abs() < 1e-12);
    }

    #[test]
    fn empty_evaluation_is_not_an_anomaly() {
        let c = classify([], 0.1);
        assert!(!c.is_anomaly);
        assert!(c.cheapest.is_empty());
    }
}
