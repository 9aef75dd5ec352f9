//! The paper's summary statistic over a measurement's repetitions: "each
//! test was repeated ten times and the median was recorded as the execution
//! time. To eliminate cache effects, the cache was flushed prior to each
//! repetition." The repetition loop and its flush live in `lamb-perfmodel`'s
//! `MeasuredExecutor`; this module holds the median it records.

/// The repetition times of one measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingResult {
    /// Individual repetition times in seconds, in execution order.
    pub samples: Vec<f64>,
}

impl TimingResult {
    /// Median execution time (the paper's summary statistic).
    #[must_use]
    pub fn median(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
        let n = sorted.len();
        if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sample_counts() {
        let odd = TimingResult {
            samples: vec![3.0, 1.0, 2.0],
        };
        assert_eq!(odd.median(), 2.0);
        let even = TimingResult {
            samples: vec![4.0, 1.0, 3.0, 2.0],
        };
        assert!((even.median() - 2.5).abs() < 1e-15);
    }

    #[test]
    fn empty_result_is_zero() {
        let r = TimingResult { samples: vec![] };
        assert_eq!(r.median(), 0.0);
    }
}
