//! The simulated executor: a deterministic machine model that stands in for
//! the paper's Xeon + MKL testbed.
//!
//! Time attribution per kernel call:
//!
//! ```text
//! t(call) = flops / (peak · efficiency(call))  + overhead        (compute kernels)
//! t(copy) = moved_bytes / memory_bandwidth     + overhead        (triangle copy)
//! ```
//!
//! When an algorithm is executed *as a sequence*, a call that consumes the
//! operand produced by the immediately preceding call gets a bounded speedup
//! if that operand fits in the last-level cache — the *inter-kernel cache
//! effect* the paper discusses in Experiment 3. Isolated-call timings (the
//! benchmarks of Experiment 3) never receive this speedup, so the
//! benchmark-based predictor systematically differs from sequence execution
//! in exactly the way the paper's confusion matrices quantify.
//!
//! A small deterministic, instance-keyed multiplicative noise models run-to-
//! run and instance-to-instance measurement variability without breaking
//! reproducibility.

use crate::efficiency::AnalyticEfficiencyModel;
use crate::executor::{AlgorithmTiming, Executor};
use crate::machine::MachineModel;
use crate::reuse::{FactorCache, ReuseReport};
use lamb_expr::{factor_keys, Algorithm, KernelCall, KernelOp};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Tunable parameters of the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatorConfig {
    /// Fixed per-call overhead in seconds (library dispatch, thread wake-up).
    pub per_call_overhead: f64,
    /// Maximum fractional speedup a call can get from finding its producer's
    /// output still in cache (0 disables inter-kernel cache effects).
    pub cache_reuse_gain: f64,
    /// Relative standard deviation of the multiplicative timing noise
    /// (0 disables noise).
    pub noise_sigma: f64,
    /// Seed mixed into the deterministic noise.
    pub noise_seed: u64,
}

impl Default for SimulatorConfig {
    fn default() -> Self {
        SimulatorConfig {
            per_call_overhead: 3.0e-6,
            cache_reuse_gain: 0.10,
            noise_sigma: 0.015,
            noise_seed: 0x5EED,
        }
    }
}

impl SimulatorConfig {
    /// A configuration with neither inter-kernel cache effects nor noise:
    /// sequence execution then equals the sum of isolated calls exactly.
    #[must_use]
    pub fn idealised() -> Self {
        SimulatorConfig {
            per_call_overhead: 0.0,
            cache_reuse_gain: 0.0,
            noise_sigma: 0.0,
            noise_seed: 0,
        }
    }
}

/// A deterministic executor driven by an [`AnalyticEfficiencyModel`].
#[derive(Debug, Clone)]
pub struct SimulatedExecutor {
    machine: MachineModel,
    model: AnalyticEfficiencyModel,
    config: SimulatorConfig,
}

impl SimulatedExecutor {
    /// A simulator configured to resemble the paper's testbed: the Xeon Silver
    /// 4210 machine model and the default analytic efficiency surfaces.
    #[must_use]
    pub fn paper_like() -> Self {
        SimulatedExecutor::new(
            MachineModel::paper_xeon_silver_4210(),
            AnalyticEfficiencyModel::default(),
            SimulatorConfig::default(),
        )
    }

    /// The paper-like simulator but with the smooth (no variant switches)
    /// efficiency model.
    #[must_use]
    pub fn paper_like_smooth() -> Self {
        SimulatedExecutor::new(
            MachineModel::paper_xeon_silver_4210(),
            AnalyticEfficiencyModel::smooth(),
            SimulatorConfig::default(),
        )
    }

    /// Build a simulator from its three ingredients.
    #[must_use]
    pub fn new(
        machine: MachineModel,
        model: AnalyticEfficiencyModel,
        config: SimulatorConfig,
    ) -> Self {
        SimulatedExecutor {
            machine,
            model,
            config,
        }
    }

    /// The simulator configuration.
    #[must_use]
    pub fn config(&self) -> &SimulatorConfig {
        &self.config
    }

    /// Base (noise-free, isolation) time of a single call.
    fn base_call_time(&self, call: &KernelCall) -> f64 {
        let t = match call.op {
            KernelOp::CopyTriangle { n, .. } => {
                // Read one triangle, write the other: n(n-1)/2 elements each way.
                let elements = (n as f64) * (n as f64 - 1.0) / 2.0;
                let bytes = elements * 8.0 * 2.0;
                bytes / self.machine.mem_bandwidth
            }
            _ => {
                let eff = self.model.efficiency(&call.op);
                self.machine.time_at_efficiency(call.flops(), eff)
            }
        };
        t + self.config.per_call_overhead
    }

    /// Deterministic multiplicative noise in `[1 - 2σ, 1 + 2σ]`, keyed by an
    /// operation, a position, and the timing context.
    fn noise_factor(&self, op: &KernelOp, index: usize, context: &str) -> f64 {
        if self.config.noise_sigma == 0.0 {
            return 1.0;
        }
        let mut hasher = DefaultHasher::new();
        self.config.noise_seed.hash(&mut hasher);
        op.hash(&mut hasher);
        index.hash(&mut hasher);
        context.hash(&mut hasher);
        let u = (hasher.finish() >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        1.0 + self.config.noise_sigma * 2.0 * (2.0 * u - 1.0)
    }

    /// Fractional speedup applied to `call` when the previous call produced
    /// one of its inputs and that operand fits in the LLC.
    fn cache_reuse_factor(&self, alg: &Algorithm, index: usize) -> f64 {
        if index == 0 || self.config.cache_reuse_gain == 0.0 {
            return 1.0;
        }
        let prev = &alg.calls[index - 1];
        let call = &alg.calls[index];
        if !call.reads(prev.output) {
            return 1.0;
        }
        let Some(info) = alg.operand(prev.output) else {
            return 1.0;
        };
        let bytes = info.bytes() as f64;
        let llc = self.machine.llc_bytes as f64;
        if bytes >= llc {
            return 1.0;
        }
        // The benefit shrinks as the reused operand approaches the LLC size.
        let residency = 1.0 - bytes / llc;
        1.0 - self.config.cache_reuse_gain * residency
    }

    /// The one walk over an algorithm's calls as a sequence: each call costs
    /// its base time, scaled by the inter-kernel cache effect and the
    /// sequence noise. With a factor store,
    /// a call whose [cacheable](lamb_expr::is_cacheable_op) result is
    /// resident costs zero seconds (the value would be injected, not
    /// recomputed) and every cacheable result the walk produces is *noted* —
    /// the simulator models time, it has no bytes to deposit. `observe` sees
    /// every call and whether it was reused.
    fn walk_calls(
        &self,
        alg: &Algorithm,
        store: Option<&FactorCache>,
        mut observe: impl FnMut(&KernelCall, bool),
    ) -> AlgorithmTiming {
        let mut keys = store.map(|_| factor_keys(alg).peekable());
        AlgorithmTiming::from_calls(alg, |i, call| {
            let key = keys
                .as_mut()
                .and_then(|keys| keys.next_if(|&(j, _)| j == i));
            let key = store.zip(key.map(|(_, key)| key));
            let reused = key.is_some_and(|(store, key)| store.contains(&key));
            observe(call, reused);
            if reused {
                return 0.0;
            }
            if let Some((store, key)) = key {
                store.note(key);
            }
            self.base_call_time(call)
                * self.cache_reuse_factor(alg, i)
                * self.noise_factor(&call.op, i, "sequence")
        })
    }
}

impl Executor for SimulatedExecutor {
    fn name(&self) -> String {
        "simulated".into()
    }

    fn machine(&self) -> &MachineModel {
        &self.machine
    }

    fn execute_algorithm(&mut self, alg: &Algorithm) -> AlgorithmTiming {
        self.walk_calls(alg, None, |_, _| {})
    }

    fn execute_algorithm_reusing(
        &mut self,
        alg: &Algorithm,
        store: &FactorCache,
    ) -> (AlgorithmTiming, ReuseReport) {
        let mut report = ReuseReport::default();
        let timing = self.walk_calls(alg, Some(store), |call, reused| {
            report.record(call, reused);
        });
        (timing, report)
    }

    fn time_isolated_call(&mut self, alg: &Algorithm, call_index: usize) -> f64 {
        // An isolated benchmark is identified by the call's *timing key*
        // alone: it has no notion of the position the call occupies inside
        // some algorithm, so (unlike sequence noise) its noise must not be
        // keyed on `call_index`, and it must not distinguish transposition
        // variants whose base time is identical (the efficiency model ignores
        // GEMM's transposition flags). This makes the benchmark memoisable by
        // timing key — Experiment 3, the planner's prediction cache and the
        // calibration store all rely on calls with equal timing keys having
        // identical isolated times.
        let call = &alg.calls[call_index];
        self.base_call_time(call) * self.noise_factor(&call.op.timing_key(), 0, "isolated")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamb_expr::{Expression, TreeExpression};

    /// The algorithms of `text` at `dims`.
    fn algorithms_of(text: &str, dims: &[usize]) -> Vec<Algorithm> {
        let expr = TreeExpression::parse(text).unwrap();
        expr.algorithms(dims).unwrap()
    }

    #[test]
    fn simulation_is_deterministic() {
        let mut sim = SimulatedExecutor::paper_like();
        let algs = algorithms_of("A*B*C*D", &[300, 200, 100, 400, 250]);
        let t1 = sim.execute_algorithm(&algs[0]);
        let t2 = sim.execute_algorithm(&algs[0]);
        assert_eq!(t1, t2);
    }

    #[test]
    fn times_are_positive_and_scale_with_work() {
        let mut sim = SimulatedExecutor::paper_like();
        let small = algorithms_of("A*B*C*D", &[50, 50, 50, 50, 50]);
        let large = algorithms_of("A*B*C*D", &[500, 500, 500, 500, 500]);
        let ts = sim.execute_algorithm(&small[0]).seconds;
        let tl = sim.execute_algorithm(&large[0]).seconds;
        assert!(ts > 0.0);
        assert!(tl > ts * 100.0, "1000x more FLOPs must take much longer");
    }

    #[test]
    fn efficiency_is_in_unit_interval_for_all_algorithms() {
        let mut sim = SimulatedExecutor::paper_like();
        let machine = sim.machine().clone();
        for alg in algorithms_of("A*A^T*B", &[700, 450, 900]) {
            let t = sim.execute_algorithm(&alg);
            let e = t.efficiency(&machine);
            assert!(e > 0.0 && e <= 1.0, "{}: efficiency {e}", alg.name);
        }
    }

    #[test]
    fn isolated_prediction_differs_only_through_cache_and_noise() {
        // With the idealised config the sequence time equals the sum of
        // isolated calls exactly.
        let mut ideal = SimulatedExecutor::new(
            MachineModel::paper_xeon_silver_4210(),
            AnalyticEfficiencyModel::default(),
            SimulatorConfig::idealised(),
        );
        let alg = &algorithms_of("A*A^T*B", &[400, 300, 200])[0];
        let seq = ideal.execute_algorithm(alg);
        let pred = ideal.predict_from_isolated_calls(alg);
        assert!((seq.seconds - pred.seconds).abs() < 1e-15);

        // With the default config the consumer of the previous output is
        // faster in sequence than in isolation (cache reuse), so the
        // prediction overestimates.
        let mut real = SimulatedExecutor::paper_like();
        let seq = real.execute_algorithm(alg);
        let pred = real.predict_from_isolated_calls(alg);
        assert!(pred.seconds > seq.seconds * 0.98);
    }

    #[test]
    fn cache_reuse_only_applies_to_producer_consumer_pairs() {
        let sim = SimulatedExecutor::paper_like();
        let alg = &algorithms_of("A*A^T*B", &[300, 200, 100])[0];
        // Call 1 (symm) consumes the output of call 0 (syrk): factor < 1.
        assert!(sim.cache_reuse_factor(alg, 1) < 1.0);
        // The first call never gets a reuse bonus.
        assert_eq!(sim.cache_reuse_factor(alg, 0), 1.0);
    }

    #[test]
    fn large_intermediates_do_not_fit_in_cache() {
        let sim = SimulatedExecutor::paper_like();
        // d0 = 2000 gives a 2000x2000 intermediate (32 MB) > 14 MiB LLC.
        let alg = &algorithms_of("A*A^T*B", &[2000, 100, 100])[0];
        assert_eq!(sim.cache_reuse_factor(alg, 1), 1.0);
    }

    #[test]
    fn copy_triangle_costs_memory_time_not_flop_time() {
        let mut sim = SimulatedExecutor::paper_like();
        let algs = algorithms_of("A*A^T*B", &[1000, 500, 500]);
        let alg2 = &algs[1]; // syrk + copy + gemm
        let timing = sim.execute_algorithm(alg2);
        let copy = &timing.per_call[1];
        assert_eq!(copy.flops, 0);
        assert!(copy.seconds > 0.0);
        // The copy is memory bound and much cheaper than the surrounding
        // compute calls at this size.
        assert!(copy.seconds < timing.per_call[0].seconds);
        assert!(copy.seconds < timing.per_call[2].seconds);
    }

    #[test]
    fn noise_is_bounded() {
        let sim = SimulatedExecutor::paper_like();
        let alg = &algorithms_of("A*B*C*D", &[100, 100, 100, 100, 100])[0];
        for (i, call) in alg.calls.iter().enumerate() {
            let f = sim.noise_factor(&call.op, i, "sequence");
            assert!((f - 1.0).abs() <= 2.0 * sim.config().noise_sigma + 1e-12);
        }
    }

    #[test]
    fn resident_factors_cost_nothing_in_simulated_reuse() {
        let algs = algorithms_of("S[spd]^-1*B", &[300, 40]);
        let solve = algs
            .iter()
            .find(|a| a.kernel_summary().contains("potrf"))
            .unwrap();
        let mut sim = SimulatedExecutor::paper_like();
        let store = FactorCache::new();
        let (cold_t, cold) = sim.execute_algorithm_reusing(solve, &store);
        assert_eq!(cold.reused_calls, 0);
        assert_eq!(cold.executed("potrf"), 1);
        assert!(store.contains(&factor_keys(solve).next().unwrap().1));
        let (warm_t, warm) = sim.execute_algorithm_reusing(solve, &store);
        assert_eq!(warm.executed("potrf"), 0);
        assert!(warm.reused_flops > 0);
        assert!(
            warm_t.seconds < cold_t.seconds * 0.7,
            "warm {} vs cold {}",
            warm_t.seconds,
            cold_t.seconds
        );
        // Reused calls are attributed exactly zero seconds.
        assert!(warm_t.per_call.iter().any(|c| c.seconds == 0.0));
    }

    #[test]
    fn isolated_times_are_invariant_under_gemm_transposition() {
        use crate::calibrate::single_call_algorithm;
        use lamb_matrix::Trans;
        let mut sim = SimulatedExecutor::paper_like();
        let plain = single_call_algorithm(KernelOp::Gemm {
            transa: Trans::No,
            transb: Trans::No,
            m: 300,
            n: 200,
            k: 150,
        });
        let transposed = single_call_algorithm(KernelOp::Gemm {
            transa: Trans::Yes,
            transb: Trans::No,
            m: 300,
            n: 200,
            k: 150,
        });
        assert_eq!(
            sim.time_isolated_call(&plain, 0),
            sim.time_isolated_call(&transposed, 0),
            "equal timing keys must give bit-identical isolated times"
        );
    }
}
