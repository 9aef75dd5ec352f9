//! The measured executor: turns symbolic kernel-call sequences into actual
//! invocations of the `lamb-kernels` BLAS-3 kernels and times them following
//! the paper's protocol (median of N repetitions, cache flushed before each
//! repetition).

use crate::executor::{AlgorithmTiming, Executor};
use crate::machine::MachineModel;
use crate::reuse::{cacheable_keys, FactorCache, ReuseReport};
use lamb_expr::{Algorithm, KernelCall, KernelOp, OperandId, OperandInfo, OperandRole};
use lamb_kernels::{Backend, BackendId, BlockConfig, CacheFlusher, NativeBackend};
use lamb_matrix::ops::{is_symmetric, is_triangular};
use lamb_matrix::random::{random_seeded, random_spd, random_triangular};
use lamb_matrix::{Matrix, Structure};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Executes algorithms with the real kernels and wall-clock timing.
#[derive(Debug)]
pub struct MeasuredExecutor {
    machine: MachineModel,
    cfg: BlockConfig,
    reps: usize,
    flusher: Option<CacheFlusher>,
    seed: u64,
    backend: Arc<dyn Backend>,
    /// Per-call overrides of `backend`, in call order (see
    /// [`Executor::set_backend_assignment`]).
    call_backends: Vec<BackendId>,
}

impl MeasuredExecutor {
    /// Full-protocol executor: `reps` repetitions per measurement and a cache
    /// flush of `flush_bytes` bytes before each repetition (the paper uses 10
    /// repetitions).
    #[must_use]
    pub fn new(machine: MachineModel, cfg: BlockConfig, reps: usize, flush_bytes: usize) -> Self {
        MeasuredExecutor {
            machine,
            cfg,
            reps: reps.max(1),
            flusher: if flush_bytes > 0 {
                Some(CacheFlusher::new(flush_bytes))
            } else {
                None
            },
            seed: 42,
            backend: Arc::new(NativeBackend),
            call_backends: Vec::new(),
        }
    }

    /// A cheap configuration for tests and quick explorations: three
    /// repetitions, a 16 MiB flush buffer, generic machine model.
    #[must_use]
    pub fn quick() -> Self {
        MeasuredExecutor::new(
            MachineModel::generic_laptop(),
            BlockConfig::default(),
            3,
            16 * 1024 * 1024,
        )
    }

    /// Override the seed used to fill input operands.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run every kernel call through the given backend (the default is the
    /// blocked native backend) — what a `--backend <name>` pin constructs.
    #[must_use]
    pub fn with_backend(mut self, backend: Arc<dyn Backend>) -> Self {
        self.backend = backend;
        self
    }

    /// The backend calls run through when no per-call override applies.
    #[must_use]
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.backend
    }

    /// Number of repetitions per measurement.
    #[must_use]
    pub fn reps(&self) -> usize {
        self.reps
    }

    /// Materialise one input operand. Triangular inputs are genuinely
    /// triangular (zeros outside the stored triangle) and diagonally
    /// dominant, so a TRMM that reads only the triangle, a GEMM that reads
    /// the whole matrix and a TRSM that inverts the triangle all see the
    /// same, well-conditioned mathematical operand. SPD inputs are exactly
    /// symmetric and diagonally dominant with a positive diagonal, so a SYMM
    /// that reads one triangle, a GEMM that reads everything and a POTRF
    /// that factors the matrix all agree — and the factorisation is well
    /// conditioned.
    fn input_matrix(&self, info: &OperandInfo) -> Matrix {
        let seed = self.seed ^ (info.id.index() as u64);
        match info.structure {
            Structure::Triangular(uplo) => random_triangular(info.rows, uplo, seed),
            Structure::Spd => random_spd(info.rows, seed),
            Structure::General => random_seeded(info.rows, info.cols, seed),
        }
    }

    /// Allocate every operand of the algorithm: inputs are filled with
    /// reproducible random values, intermediates and the output with zeros.
    fn allocate_operands(&self, alg: &Algorithm) -> HashMap<OperandId, Matrix> {
        alg.operands
            .iter()
            .map(|info| {
                let m = match info.role {
                    OperandRole::Input => self.input_matrix(info),
                    _ => Matrix::zeros(info.rows, info.cols),
                };
                (info.id, m)
            })
            .collect()
    }

    /// Execute one call against the operand map.
    ///
    /// # Panics
    ///
    /// Panics if the algorithm references operands it does not declare or if
    /// kernel shape checks fail — both indicate a malformed algorithm.
    fn run_call(&self, index: usize, call: &KernelCall, operands: &mut HashMap<OperandId, Matrix>) {
        let mut out = operands
            .remove(&call.output)
            .expect("output operand must be allocated");
        // An input that is also the output (the in-place triangle copy)
        // reaches the backend through `out`, not through the input list.
        let inputs: Vec<&Matrix> = call
            .inputs
            .iter()
            .filter(|&&id| id != call.output)
            .map(|id| &operands[id])
            .collect();
        if let KernelOp::Trmm { uplo, .. } | KernelOp::Trsm { uplo, .. } = call.op {
            debug_assert!(
                is_triangular(inputs[0], uplo).unwrap_or(false),
                "triangular operand of {} is not {uplo:?}-triangular",
                call.op.mnemonic()
            );
        }
        if let KernelOp::Potrf { .. } = call.op {
            // Full SPD validation is O(n³); assert the cheap symmetric
            // half here — POTRF itself reports indefiniteness exactly.
            debug_assert!(
                is_symmetric(inputs[0], 0.0).unwrap_or(false),
                "SPD operand of potrf is not exactly symmetric"
            );
        }
        let assigned = self.call_backends.get(index).map(|id| id.backend());
        let backend = assigned.as_ref().unwrap_or(&self.backend);
        backend
            .run_into(&call.op, &inputs, &mut out, &self.cfg)
            .expect("kernel shapes consistent (TRSM nonsingular, POTRF positive definite)");
        operands.insert(call.output, out);
    }

    /// The one walk over an algorithm's calls: run each call, in order,
    /// against `operands` and report it to `observe` with the seconds it
    /// took. With a factor store, a call whose
    /// [cacheable](lamb_expr::is_cacheable_op) result is resident is not run
    /// — its bytes are injected and `observe` sees `None` — and every
    /// cacheable result the walk does compute is deposited. Without one,
    /// no node identity is derived at all.
    fn walk_calls(
        &self,
        alg: &Algorithm,
        operands: &mut HashMap<OperandId, Matrix>,
        store: Option<&FactorCache>,
        mut observe: impl FnMut(usize, &KernelCall, Option<f64>),
    ) {
        let cacheable = cacheable_keys(alg, store);
        for (i, call) in alg.calls.iter().enumerate() {
            let key = store.zip(cacheable.get(&i));
            if let Some(resident) = key.and_then(|(store, key)| store.lookup(key)) {
                operands.insert(call.output, (*resident).clone());
                observe(i, call, None);
                continue;
            }
            let start = Instant::now();
            self.run_call(i, call, operands);
            let seconds = start.elapsed().as_secs_f64();
            if let Some((store, key)) = key {
                // Snapshot now: a later in-place copy would mutate the map
                // entry, but the clone is immune (and the identity of the
                // copied operand advances, so it can never alias this key).
                store.store(key, Arc::new(operands[&call.output].clone()));
            }
            observe(i, call, Some(seconds));
        }
    }

    /// The output operand of `alg` after a walk.
    fn take_output(alg: &Algorithm, mut operands: HashMap<OperandId, Matrix>) -> Matrix {
        let out_id = alg.output().expect("algorithm declares an output").id;
        operands.remove(&out_id).expect("output operand allocated")
    }

    /// Execute the algorithm once (untimed) with the real kernels and return
    /// the final result matrix. Inputs are filled from the executor's seed,
    /// so two algorithms of the same expression see identical operands —
    /// this is how the numerical-equivalence tests check that every
    /// enumerated algorithm computes the same mathematical object.
    ///
    /// # Panics
    ///
    /// Panics if the algorithm is malformed (no declared output operand or
    /// inconsistent kernel shapes).
    #[must_use]
    pub fn compute_result(&self, alg: &Algorithm) -> Matrix {
        let mut operands = self.allocate_operands(alg);
        self.walk_calls(alg, &mut operands, None, |_, _, _| {});
        Self::take_output(alg, operands)
    }

    /// Execute the algorithm once (untimed) against a factor store — the
    /// numerics-checking counterpart of
    /// [`Executor::execute_algorithm_reusing`]: resident cacheable results
    /// are injected instead of recomputed, newly computed cacheable results
    /// are deposited, and the final result matrix is returned together with
    /// the reuse accounting.
    ///
    /// # Panics
    ///
    /// Panics if the algorithm is malformed (no declared output operand or
    /// inconsistent kernel shapes).
    #[must_use]
    pub fn compute_result_reusing(
        &self,
        alg: &Algorithm,
        store: &FactorCache,
    ) -> (Matrix, ReuseReport) {
        let mut operands = self.allocate_operands(alg);
        let mut report = ReuseReport::default();
        self.walk_calls(alg, &mut operands, Some(store), |_, call, seconds| {
            report.record(call, seconds.is_none());
        });
        (Self::take_output(alg, operands), report)
    }

    fn median(mut samples: Vec<f64>) -> f64 {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let n = samples.len();
        if n == 0 {
            0.0
        } else if n % 2 == 1 {
            samples[n / 2]
        } else {
            0.5 * (samples[n / 2 - 1] + samples[n / 2])
        }
    }
}

impl Executor for MeasuredExecutor {
    fn name(&self) -> String {
        "measured".into()
    }

    fn machine(&self) -> &MachineModel {
        &self.machine
    }

    fn execute_algorithm(&mut self, alg: &Algorithm) -> AlgorithmTiming {
        let mut operands = self.allocate_operands(alg);
        let mut total_samples = Vec::with_capacity(self.reps);
        let mut call_samples = vec![Vec::with_capacity(self.reps); alg.calls.len()];
        for _ in 0..self.reps {
            if let Some(flusher) = &mut self.flusher {
                flusher.flush();
            }
            let mut total = 0.0;
            self.walk_calls(alg, &mut operands, None, |i, _, seconds| {
                let dt = seconds.expect("without a store every call runs");
                call_samples[i].push(dt);
                total += dt;
            });
            total_samples.push(total);
        }
        let mut timing =
            AlgorithmTiming::from_calls(alg, |i, _| Self::median(call_samples[i].clone()));
        timing.seconds = Self::median(total_samples);
        timing
    }

    /// Serving-style execution against a factor store: a *single* timed pass
    /// (no repetitions, no cache flush — a warm cache is the point of reuse)
    /// in which injected factors are attributed zero seconds. The injected
    /// bytes are exactly what the call would have produced (node identities
    /// pin the computation to the seeded leaf contents), so downstream
    /// numerics are unchanged.
    fn execute_algorithm_reusing(
        &mut self,
        alg: &Algorithm,
        store: &FactorCache,
    ) -> (AlgorithmTiming, ReuseReport) {
        let mut operands = self.allocate_operands(alg);
        let mut report = ReuseReport::default();
        let mut seconds_of = vec![0.0; alg.calls.len()];
        self.walk_calls(alg, &mut operands, Some(store), |i, call, seconds| {
            report.record(call, seconds.is_none());
            seconds_of[i] = seconds.unwrap_or(0.0);
        });
        let timing = AlgorithmTiming::from_calls(alg, |i, _| seconds_of[i]);
        (timing, report)
    }

    fn time_isolated_call(&mut self, alg: &Algorithm, call_index: usize) -> f64 {
        let call = &alg.calls[call_index];
        // Only the operands touched by this call are needed; their contents do
        // not affect performance (dense operands), so inputs that are
        // intermediates elsewhere are simply random here — except triangular
        // operands, which must be genuinely triangular and nonsingular (a
        // TRSM against a random dense matrix could overflow mid-benchmark).
        let mut operands: HashMap<OperandId, Matrix> = HashMap::new();
        for id in call.inputs.iter().copied().chain([call.output]) {
            let info = alg.operand(id).expect("operand declared");
            operands
                .entry(id)
                .or_insert_with(|| self.input_matrix(info));
        }
        let mut samples = Vec::with_capacity(self.reps);
        for _ in 0..self.reps {
            if let Some(flusher) = &mut self.flusher {
                flusher.flush();
            }
            let start = Instant::now();
            self.run_call(call_index, call, &mut operands);
            samples.push(start.elapsed().as_secs_f64());
        }
        Self::median(samples)
    }

    fn backends(&self) -> Vec<BackendId> {
        // Default backend first, then every other registered backend.
        let default = self.backend.id();
        let others = BackendId::ALL.into_iter().filter(|&id| id != default);
        std::iter::once(default).chain(others).collect()
    }

    fn time_isolated_call_on(
        &mut self,
        alg: &Algorithm,
        call_index: usize,
        backend: BackendId,
    ) -> f64 {
        // Swap in the requested backend (and suspend per-call overrides, which
        // would shadow it) for the duration of the measurement.
        let saved_backend = std::mem::replace(&mut self.backend, backend.backend());
        let saved_overrides = std::mem::take(&mut self.call_backends);
        let seconds = self.time_isolated_call(alg, call_index);
        self.backend = saved_backend;
        self.call_backends = saved_overrides;
        seconds
    }

    fn set_backend_assignment(&mut self, assignment: &[BackendId]) {
        self.call_backends = assignment.to_vec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamb_expr::{enumerate_aatb_algorithms, enumerate_chain_algorithms};
    use lamb_matrix::ops::max_abs_diff;

    fn tiny_executor() -> MeasuredExecutor {
        MeasuredExecutor::new(MachineModel::generic_laptop(), BlockConfig::default(), 2, 0)
    }

    #[test]
    fn all_chain_algorithms_produce_the_same_result_matrix() {
        // Execute each of the six ABCD algorithms with identical inputs and
        // compare the output operands numerically.
        let exec = tiny_executor();
        let algs = enumerate_chain_algorithms(&[30, 25, 20, 15, 10]).unwrap();
        let results: Vec<Matrix> = algs.iter().map(|a| exec.compute_result(a)).collect();
        for other in &results[1..] {
            assert!(max_abs_diff(&results[0], other).unwrap() < 1e-9);
        }
    }

    #[test]
    fn all_aatb_algorithms_produce_the_same_result_matrix() {
        let exec = tiny_executor();
        let algs = enumerate_aatb_algorithms(28, 17, 22);
        let results: Vec<Matrix> = algs.iter().map(|a| exec.compute_result(a)).collect();
        for other in &results[1..] {
            assert!(max_abs_diff(&results[0], other).unwrap() < 1e-9);
        }
    }

    #[test]
    fn all_triangular_algorithms_produce_the_same_result_matrix() {
        // Every algorithm of L[lower]*A*B — TRMM-based and GEMM-based, in
        // both merge orders — computes the same mathematical object.
        use lamb_expr::{Expression, TreeExpression};
        let exec = tiny_executor();
        let expr = TreeExpression::parse("L[lower]*A*B").unwrap();
        let algs = expr.algorithms(&[24, 18, 13]).unwrap();
        assert!(algs.iter().any(|a| a.kernel_summary().contains("trmm")));
        let results: Vec<Matrix> = algs.iter().map(|a| exec.compute_result(a)).collect();
        for other in &results[1..] {
            assert!(max_abs_diff(&results[0], other).unwrap() < 1e-9);
        }
    }

    #[test]
    fn trsm_algorithms_solve_consistently_across_orders() {
        // L^-1*A*B: solve-then-multiply equals multiply-then-solve.
        use lamb_expr::{Expression, TreeExpression};
        let exec = tiny_executor();
        let expr = TreeExpression::parse("L[lower]^-1*A*B").unwrap();
        let algs = expr.algorithms(&[20, 15, 11]).unwrap();
        assert!(algs.len() >= 2);
        let results: Vec<Matrix> = algs.iter().map(|a| exec.compute_result(a)).collect();
        for other in &results[1..] {
            assert!(max_abs_diff(&results[0], other).unwrap() < 1e-9);
        }
    }

    #[test]
    fn spd_solve_chains_execute_consistently_across_orders() {
        // S[spd]^-1*B*C: the Cholesky realisation in both merge orders
        // computes the same mathematical object.
        use lamb_expr::{Expression, TreeExpression};
        let exec = tiny_executor();
        let expr = TreeExpression::parse("S[spd]^-1*B*C").unwrap();
        let algs = expr.algorithms(&[18, 12, 7]).unwrap();
        assert!(algs.iter().all(|a| a.kernel_summary().contains("potrf")));
        let results: Vec<Matrix> = algs.iter().map(|a| exec.compute_result(a)).collect();
        for other in &results[1..] {
            assert!(max_abs_diff(&results[0], other).unwrap() < 1e-9);
        }
        // An isolated POTRF call benchmarks without panicking.
        let mut exec = tiny_executor();
        let solve = &expr.algorithms(&[18, 12, 7]).unwrap()[0];
        let potrf_index = solve
            .calls
            .iter()
            .position(|c| c.op.mnemonic() == "potrf")
            .unwrap();
        assert!(exec.time_isolated_call(solve, potrf_index) > 0.0);
    }

    #[test]
    fn timings_have_one_entry_per_call_and_are_positive() {
        let mut exec = tiny_executor();
        let alg = &enumerate_aatb_algorithms(40, 30, 20)[1]; // syrk + copy + gemm
        let timing = exec.execute_algorithm(alg);
        assert_eq!(timing.per_call.len(), 3);
        assert!(timing.seconds > 0.0);
        assert!(timing.per_call.iter().all(|c| c.seconds > 0.0));
        assert_eq!(timing.flops, alg.flops());
    }

    #[test]
    fn isolated_call_timing_is_positive() {
        let mut exec = tiny_executor();
        let alg = &enumerate_chain_algorithms(&[40, 30, 20, 10, 50]).unwrap()[0];
        for i in 0..alg.calls.len() {
            assert!(exec.time_isolated_call(alg, i) > 0.0);
        }
    }

    #[test]
    fn factor_store_reuse_skips_the_potrf_and_preserves_numerics() {
        use lamb_expr::{Expression, TreeExpression};
        let expr = TreeExpression::parse("S[spd]^-1*B").unwrap();
        let algs = expr.algorithms(&[24, 7]).unwrap();
        let solve = algs
            .iter()
            .find(|a| a.kernel_summary().contains("potrf"))
            .unwrap();
        let mut exec = tiny_executor();
        let reference = exec.compute_result(solve);
        let store = FactorCache::new();
        // Cold pass: everything executes, factors are deposited.
        let (_, cold) = exec.execute_algorithm_reusing(solve, &store);
        assert_eq!(cold.reused_calls, 0);
        assert_eq!(cold.executed("potrf"), 1);
        assert!(store.len() >= 2, "potrf + trsm results deposited");
        // Warm pass: the factorisation and both half-solves are injected.
        let (timing, warm) = exec.execute_algorithm_reusing(solve, &store);
        assert_eq!(warm.executed("potrf"), 0);
        assert!(warm.reused_calls >= 1);
        assert!(warm.reused_flops > 0);
        // The injected factors leave the result bit-identical to a fresh
        // execution (identical seeded inputs → identical bytes).
        let (warm_result, warm_report) = exec.compute_result_reusing(solve, &store);
        assert!(warm_report.reused_calls >= 1);
        assert_eq!(warm_report.executed("potrf"), 0);
        assert_eq!(max_abs_diff(&reference, &warm_result).unwrap(), 0.0);
        assert_eq!(timing.per_call.len(), solve.calls.len());
    }

    #[test]
    fn factor_store_reuse_skips_the_getrf_and_preserves_numerics() {
        use lamb_expr::{Expression, TreeExpression};
        let expr = TreeExpression::parse("A^-1*B").unwrap();
        let algs = expr.algorithms(&[24, 7]).unwrap();
        let solve = algs
            .iter()
            .find(|a| a.kernel_summary().contains("getrf"))
            .unwrap();
        let mut exec = tiny_executor();
        let reference = exec.compute_result(solve);
        let store = FactorCache::new();
        // Cold pass: the LU pipeline runs in full and deposits its factor.
        let (_, cold) = exec.execute_algorithm_reusing(solve, &store);
        assert_eq!(cold.reused_calls, 0);
        assert_eq!(cold.executed("getrf"), 1);
        // Warm pass: the packed factor is injected; no re-factorisation.
        let (timing, warm) = exec.execute_algorithm_reusing(solve, &store);
        assert_eq!(warm.executed("getrf"), 0);
        assert!(warm.reused_calls >= 1);
        assert!(warm.reused_flops > 0);
        // The injected factor (pivots included) leaves the result
        // bit-identical to a fresh execution.
        let (warm_result, warm_report) = exec.compute_result_reusing(solve, &store);
        assert!(warm_report.reused_calls >= 1);
        assert_eq!(warm_report.executed("getrf"), 0);
        assert_eq!(max_abs_diff(&reference, &warm_result).unwrap(), 0.0);
        assert_eq!(timing.per_call.len(), solve.calls.len());
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(MeasuredExecutor::median(vec![]), 0.0);
        assert_eq!(MeasuredExecutor::median(vec![2.0]), 2.0);
        assert_eq!(MeasuredExecutor::median(vec![3.0, 1.0]), 2.0);
        assert_eq!(MeasuredExecutor::median(vec![5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn quick_constructor_is_usable() {
        let mut exec = MeasuredExecutor::quick().with_seed(7);
        assert_eq!(exec.name(), "measured");
        assert!(exec.reps() >= 1);
        let alg = &enumerate_chain_algorithms(&[16, 16, 16, 16, 16]).unwrap()[0];
        let t = exec.execute_algorithm(alg);
        assert!(t.seconds > 0.0);
        assert!(exec.machine().peak_flops > 0.0);
    }

    #[test]
    fn reference_backend_execution_matches_native_numerics() {
        use lamb_expr::{Expression, TreeExpression};
        use lamb_kernels::ReferenceBackend;
        let expr = TreeExpression::parse("L[lower]*A*B").unwrap();
        let algs = expr.algorithms(&[20, 14, 9]).unwrap();
        let native = tiny_executor();
        let reference = tiny_executor().with_backend(Arc::new(ReferenceBackend));
        assert_eq!(reference.backend().name(), "reference");
        for alg in &algs {
            let a = native.compute_result(alg);
            let b = reference.compute_result(alg);
            assert!(max_abs_diff(&a, &b).unwrap() < 1e-9, "{}", alg.name);
        }
    }

    #[test]
    fn per_call_backend_overrides_execute_and_preserve_numerics() {
        let alg = &enumerate_chain_algorithms(&[18, 14, 10, 8, 6]).unwrap()[0];
        let expected = tiny_executor().compute_result(alg);
        let mut mixed = tiny_executor();
        // Route only the first call through the reference backend.
        mixed.set_backend_assignment(&[BackendId::Reference]);
        let got = mixed.compute_result(alg);
        assert!(max_abs_diff(&expected, &got).unwrap() < 1e-9);
        let timing = mixed.execute_algorithm(alg);
        assert!(timing.seconds > 0.0);
    }
}
