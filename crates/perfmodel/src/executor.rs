//! The [`Executor`] abstraction: something that can attach execution times to
//! an algorithm, either by running it (measured) or by evaluating a
//! performance model (simulated).

use crate::machine::MachineModel;
use crate::reuse::{FactorCache, ReuseReport};
use lamb_expr::{Algorithm, KernelCall};

/// The time attributed to one kernel call of an algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct CallTiming {
    /// Index of the call within the algorithm.
    pub index: usize,
    /// FLOP count of the call (Section 3.1 models).
    pub flops: u64,
    /// Execution time in seconds.
    pub seconds: f64,
}

/// The result of timing a whole algorithm: numbers only (the algorithm's
/// name and call labels stay with the algorithm).
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmTiming {
    /// Total execution time in seconds (median over repetitions for measured
    /// executors).
    pub seconds: f64,
    /// Per-call breakdown.
    pub per_call: Vec<CallTiming>,
    /// Total FLOP count of the algorithm.
    pub flops: u64,
}

impl AlgorithmTiming {
    /// The timing of `alg` given one time per call: `seconds_of(i, call)` is
    /// asked once for every call, in call order, and the total is the sum of
    /// the answers.
    pub fn from_calls(
        alg: &Algorithm,
        mut seconds_of: impl FnMut(usize, &KernelCall) -> f64,
    ) -> Self {
        let per_call: Vec<CallTiming> = alg
            .calls
            .iter()
            .enumerate()
            .map(|(index, call)| CallTiming {
                index,
                flops: call.flops(),
                seconds: seconds_of(index, call),
            })
            .collect();
        let mut timing = AlgorithmTiming {
            seconds: 0.0,
            per_call,
            flops: alg.flops(),
        };
        timing.seconds = timing.sum_of_calls();
        timing
    }

    /// Whole-algorithm efficiency: FLOP rate over machine peak (the solid
    /// "Total" curves of the paper's Figures 8 and 11).
    #[must_use]
    pub fn efficiency(&self, machine: &MachineModel) -> f64 {
        machine.efficiency(self.flops, self.seconds)
    }

    /// Efficiency of an individual call (the per-kernel curves of Figures 8
    /// and 11). Calls with zero FLOPs (the triangle copy) report 0.
    #[must_use]
    pub fn call_efficiency(&self, index: usize, machine: &MachineModel) -> f64 {
        self.per_call
            .get(index)
            .map_or(0.0, |c| machine.efficiency(c.flops, c.seconds))
    }

    /// Sum of the per-call times. For measured executors this can differ
    /// slightly from `seconds` (which is the median of whole-algorithm
    /// repetitions); for simulated executors they coincide. Folded from
    /// `0.0`: `Iterator::sum` starts at `-0.0`, which a call-free algorithm
    /// would report as its time.
    #[must_use]
    pub fn sum_of_calls(&self) -> f64 {
        self.per_call.iter().fold(0.0, |total, c| total + c.seconds)
    }
}

/// Attaches execution times to algorithms.
///
/// Implementations may panic if handed an algorithm that is not well-formed
/// (see [`Algorithm::is_well_formed`]); all algorithms produced by the
/// enumerators in `lamb-expr` are well-formed.
pub trait Executor: Send {
    /// Short descriptive name (`"measured"`, `"simulated"`, ...).
    fn name(&self) -> String;

    /// The machine model times are interpreted against (used to convert
    /// between time and efficiency).
    fn machine(&self) -> &MachineModel;

    /// Execute (or simulate) the algorithm as a whole — one call after the
    /// other, starting from a cold cache, with inter-call cache effects
    /// included — and return its timing.
    fn execute_algorithm(&mut self, alg: &Algorithm) -> AlgorithmTiming;

    /// Time a single call of the algorithm in isolation with a cold cache
    /// (the paper's Experiment 3 benchmarks).
    fn time_isolated_call(&mut self, alg: &Algorithm, call_index: usize) -> f64;

    /// Execute the algorithm against a store of already-computed factors:
    /// calls whose result is resident in `store` may be skipped (their value
    /// injected from the store), and factors this execution computes may be
    /// deposited for later executions. The default implementation ignores the
    /// store and executes everything — executors that honour reuse
    /// ([`crate::MeasuredExecutor`], [`crate::SimulatedExecutor`]) override
    /// it.
    fn execute_algorithm_reusing(
        &mut self,
        alg: &Algorithm,
        _store: &FactorCache,
    ) -> (AlgorithmTiming, ReuseReport) {
        (self.execute_algorithm(alg), ReuseReport::all_executed(alg))
    }

    /// Predict the algorithm's time as the sum of its isolated-call
    /// benchmarks — the predictor evaluated in the paper's Experiment 3.
    fn predict_from_isolated_calls(&mut self, alg: &Algorithm) -> AlgorithmTiming {
        AlgorithmTiming::from_calls(alg, |i, _| self.time_isolated_call(alg, i))
    }

    /// The `seconds` of
    /// [`predict_from_isolated_calls`](Executor::predict_from_isolated_calls),
    /// bit for bit, without building the per-call breakdown: the
    /// isolated-call times folded from `0.0` in call order.
    fn predicted_seconds(&mut self, alg: &Algorithm) -> f64 {
        (0..alg.calls.len()).fold(0.0, |total, i| total + self.time_isolated_call(alg, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_timing() -> AlgorithmTiming {
        AlgorithmTiming {
            seconds: 2.0,
            per_call: vec![
                CallTiming {
                    index: 0,
                    flops: 100_000_000_000,
                    seconds: 1.0,
                },
                CallTiming {
                    index: 1,
                    flops: 50_000_000_000,
                    seconds: 0.9,
                },
            ],
            flops: 150_000_000_000,
        }
    }

    #[test]
    fn efficiency_uses_total_time_and_flops() {
        let m = MachineModel::paper_xeon_silver_4210();
        let t = toy_timing();
        let expected = (150.0e9 / 2.0) / m.peak_flops;
        assert!((t.efficiency(&m) - expected).abs() < 1e-12);
    }

    #[test]
    fn call_efficiency_indexes_safely() {
        let m = MachineModel::paper_xeon_silver_4210();
        let t = toy_timing();
        assert!(t.call_efficiency(0, &m) > 0.0);
        assert_eq!(t.call_efficiency(5, &m), 0.0);
    }

    #[test]
    fn sum_of_calls_adds_per_call_times() {
        let t = toy_timing();
        assert!((t.sum_of_calls() - 1.9).abs() < 1e-12);
    }

    #[test]
    fn a_call_free_algorithm_takes_positive_zero_seconds() {
        let leaf = Algorithm {
            name: "A".into(),
            operands: Vec::new(),
            calls: Vec::new(),
        };
        let timing = AlgorithmTiming::from_calls(&leaf, |_, _| unreachable!("no calls"));
        assert_eq!(timing.seconds.to_bits(), 0);
        assert_eq!(timing.sum_of_calls().to_bits(), 0);
    }
}
