//! Machine models: the handful of hardware parameters the time models need.

use std::sync::OnceLock;

/// A coarse description of the machine executing (or simulated to execute)
/// the kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineModel {
    /// Human-readable name.
    pub name: String,
    /// Theoretical double-precision peak of the whole machine, in FLOP/s.
    pub peak_flops: f64,
    /// Number of physical cores used.
    pub cores: usize,
    /// Last-level cache capacity in bytes (shared).
    pub llc_bytes: u64,
    /// Sustainable memory bandwidth in bytes/s (used for the copy kernel and
    /// the inter-kernel cache model).
    pub mem_bandwidth: f64,
}

impl MachineModel {
    /// The machine used in the paper's experiments: a 10-core Intel Xeon
    /// Silver 4210 (Cascade Lake, one AVX-512 FMA unit per core) with 40 GB of
    /// RAM. Peak ≈ 10 cores × 2.2 GHz × 16 DP FLOP/cycle ≈ 352 GFLOP/s;
    /// 13.75 MiB LLC; ~100 GB/s of practical memory bandwidth.
    #[must_use]
    pub fn paper_xeon_silver_4210() -> Self {
        MachineModel {
            name: "Intel Xeon Silver 4210 (10 cores, paper setup)".into(),
            peak_flops: 352.0e9,
            cores: 10,
            llc_bytes: 14 * 1024 * 1024,
            mem_bandwidth: 100.0e9,
        }
    }

    /// A small generic model for the machine running the tests: the absolute
    /// values only matter for converting between time and efficiency, so the
    /// defaults are deliberately conservative.
    ///
    /// The core count is asked of the operating system once per process:
    /// `available_parallelism` reads cgroup files, tens of microseconds per
    /// call, and a batch planner builds a model with every worker's
    /// executor.
    #[must_use]
    pub fn generic_laptop() -> Self {
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores =
            *CORES.get_or_init(|| std::thread::available_parallelism().map_or(4, usize::from));
        MachineModel {
            name: format!("generic machine ({cores} cores)"),
            // 8 DP FLOP/cycle/core at 3 GHz is a conservative FMA+AVX2 estimate.
            peak_flops: cores as f64 * 3.0e9 * 8.0,
            cores,
            llc_bytes: 16 * 1024 * 1024,
            mem_bandwidth: 40.0e9,
        }
    }

    /// Build a model with an explicitly measured/estimated peak (see
    /// [`crate::calibrate::estimate_peak_flops`]).
    #[must_use]
    pub fn with_peak(mut self, peak_flops: f64) -> Self {
        self.peak_flops = peak_flops;
        self
    }

    /// Convert a FLOP count and a time into an efficiency in `[0, 1]` — the
    /// paper's definition: measured performance over theoretical peak.
    #[must_use]
    pub fn efficiency(&self, flops: u64, seconds: f64) -> f64 {
        if seconds <= 0.0 || self.peak_flops <= 0.0 {
            return 0.0;
        }
        (flops as f64 / seconds) / self.peak_flops
    }

    /// Time that a computation of `flops` FLOPs takes at a given efficiency.
    #[must_use]
    pub fn time_at_efficiency(&self, flops: u64, efficiency: f64) -> f64 {
        if efficiency <= 0.0 {
            return f64::INFINITY;
        }
        flops as f64 / (self.peak_flops * efficiency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_has_expected_scale() {
        let m = MachineModel::paper_xeon_silver_4210();
        assert_eq!(m.cores, 10);
        assert!(m.peak_flops > 100.0e9 && m.peak_flops < 1.0e12);
        assert!(m.llc_bytes > 10 * 1024 * 1024);
    }

    #[test]
    fn efficiency_and_time_round_trip() {
        let m = MachineModel::paper_xeon_silver_4210();
        let flops = 2u64 * 1000 * 1000 * 1000;
        let t = m.time_at_efficiency(flops, 0.8);
        let e = m.efficiency(flops, t);
        assert!((e - 0.8).abs() < 1e-12);
    }

    #[test]
    fn repeated_generic_models_agree_with_the_machine() {
        let first = MachineModel::generic_laptop();
        let cores = std::thread::available_parallelism().map_or(4, usize::from);
        assert_eq!(first.cores, cores);
        let again: Vec<MachineModel> = (0..4).map(|_| MachineModel::generic_laptop()).collect();
        assert!(again.iter().all(|m| *m == first));
        let from_threads: Vec<MachineModel> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| scope.spawn(MachineModel::generic_laptop))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(from_threads.iter().all(|m| *m == first));
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        let m = MachineModel::generic_laptop();
        assert_eq!(m.efficiency(1000, 0.0), 0.0);
        assert!(m.time_at_efficiency(1000, 0.0).is_infinite());
    }

    #[test]
    fn with_peak_overrides_only_the_peak() {
        let m = MachineModel::generic_laptop().with_peak(123.0e9);
        assert_eq!(m.peak_flops, 123.0e9);
        assert!(m.cores >= 1);
    }
}
