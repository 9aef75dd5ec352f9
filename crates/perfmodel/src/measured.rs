//! The measured executor: turns symbolic kernel-call sequences into actual
//! invocations of the `lamb-kernels` BLAS-3 kernels and times them following
//! the paper's protocol (median of N repetitions, cache flushed before each
//! repetition).

use crate::executor::{AlgorithmTiming, Executor};
use crate::machine::MachineModel;
use crate::reuse::{FactorCache, ReuseReport};
use lamb_expr::{
    factor_keys, is_cacheable_op, Algorithm, KernelCall, KernelOp, OperandId, OperandInfo,
    OperandRole,
};
use lamb_kernels::{Backend, BlockConfig, CacheFlusher, NativeBackend, TimingResult};
use lamb_matrix::ops::{is_symmetric, is_triangular};
use lamb_matrix::random::{random_seeded_into, random_spd_into, random_triangular_into};
use lamb_matrix::{Matrix, Structure};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// The operands of one execution, indexed by their dense [`OperandId`] (a
/// well-formed algorithm numbers its operands `0..n` in table order), `None`
/// until the walk allocates one and after it hands one back. An operand is
/// either owned by the walk (the only handle) or shared with a
/// [`FactorCache`] — a resident factor injected on a hit, or a result the
/// walk computed and deposited — and whoever writes one goes through
/// [`Arc::make_mut`]: a sole owner is mutated in place, a shared operand is
/// copied first, so bytes the cache holds never change. A walk's slots are
/// sized for all of its algorithm's operands up front.
type Operands = Vec<Option<Arc<Matrix>>>;

/// Operand storage recycled from one walk to the next, so that steady-state
/// requests neither fault in fresh pages nor zero what the fill overwrites.
/// A walk draws each operand that dies with it from here (best fit by
/// capacity) and hands it back once no later call reads it, or when the walk
/// ends — unless a factor cache or the caller still holds it. The buffers
/// idle between walks never exceed the bound: the most any one walk has
/// held at once so far. A walk that finds no buffer to fit first evicts idle
/// ones (smallest first) until the idle buffers and its own leave room under
/// the bound for the fresh one.
#[derive(Debug, Default)]
struct OperandPool(Mutex<PoolState>);

#[derive(Debug, Default)]
struct PoolState {
    idle: Vec<Vec<f64>>,
    /// Bytes of capacity the idle buffers hold.
    idle_bytes: usize,
    /// The most bytes of capacity one walk has held at once so far.
    bound: usize,
}

/// What one walk holds of the pool's storage, in bytes of capacity.
#[derive(Debug, Default, Clone, Copy)]
struct Draw {
    held: usize,
    peak: usize,
}

/// Bytes of capacity a buffer holds.
fn capacity_bytes(buf: &Vec<f64>) -> usize {
    buf.capacity() * std::mem::size_of::<f64>()
}

impl PoolState {
    /// Drop the smallest idle buffer.
    fn evict_smallest(&mut self) {
        if let Some(k) = (0..self.idle.len()).min_by_key(|&k| self.idle[k].capacity()) {
            let evicted = self.idle.swap_remove(k);
            self.idle_bytes -= capacity_bytes(&evicted);
        }
    }
}

impl OperandPool {
    fn state(&self) -> MutexGuard<'_, PoolState> {
        self.0.lock().expect("operand pool poisoned")
    }

    /// Storage for `len` elements: the smallest idle buffer that fits, else
    /// a fresh one of exactly `len`.
    fn take(&self, len: usize, draw: &mut Draw) -> Vec<f64> {
        if len == 0 {
            return Vec::new();
        }
        let mut state = self.state();
        let fit = (0..state.idle.len())
            .filter(|&k| state.idle[k].capacity() >= len)
            .min_by_key(|&k| state.idle[k].capacity());
        let buf = match fit {
            Some(k) => {
                let buf = state.idle.swap_remove(k);
                state.idle_bytes -= capacity_bytes(&buf);
                buf
            }
            None => {
                let need = len * std::mem::size_of::<f64>();
                while !state.idle.is_empty() && state.idle_bytes + draw.held + need > state.bound {
                    state.evict_smallest();
                }
                Vec::with_capacity(len)
            }
        };
        draw.held += capacity_bytes(&buf);
        draw.peak = draw.peak.max(draw.held);
        buf
    }

    /// Hand back a buffer the walk no longer needs: idle again, for the
    /// walk's own later operands too.
    fn put(&self, buf: Vec<f64>, draw: &mut Draw) {
        let bytes = capacity_bytes(&buf);
        if bytes > 0 {
            draw.held = draw.held.saturating_sub(bytes);
            let mut state = self.state();
            state.idle_bytes += bytes;
            state.idle.push(buf);
        }
    }

    /// The end of a walk: raise the bound to what it held at its peak, then
    /// evict the smallest idle buffers until they fit under the bound.
    fn end(&self, draw: Draw) {
        let mut state = self.state();
        state.bound = state.bound.max(draw.peak);
        while state.idle_bytes > state.bound {
            state.evict_smallest();
        }
    }
}

/// One walk over an algorithm: its operands and what it holds of the
/// executor's [`OperandPool`]. Dropping the walk hands back every operand it
/// alone holds — whatever a factor cache or the caller keeps is not.
struct Walk<'e> {
    exec: &'e MeasuredExecutor,
    alg: &'e Algorithm,
    operands: Operands,
    /// Whether the caller receives the output operand: then it outlives the
    /// walk and is allocated at its exact size, never drawn from the pool.
    returns_output: bool,
    /// Whether an operand is handed back after the last call that touches
    /// it; a walk that runs its calls more than once keeps all of them.
    release_dead: bool,
    draw: Draw,
}

impl<'e> Walk<'e> {
    fn new(exec: &'e MeasuredExecutor, alg: &'e Algorithm, returns_output: bool) -> Self {
        Walk {
            exec,
            alg,
            operands: vec![None; alg.operands.len()],
            returns_output,
            release_dead: true,
            draw: Draw::default(),
        }
    }

    /// A walk whose calls run more than once over the same operands.
    fn repeated(exec: &'e MeasuredExecutor, alg: &'e Algorithm) -> Self {
        let mut walk = Walk::new(exec, alg, false);
        walk.release_dead = false;
        walk
    }

    /// One operand as the walk first sees it: an operand some call writes
    /// starts as zeros; every other one is an input — the lone leaf of a
    /// call-free algorithm too, whatever its role — and is filled with
    /// reproducible random values, as is every operand of an isolated call
    /// (`all_inputs`). An operand that `escapes` the walk is allocated at
    /// its exact size; any other is drawn from the pool and overwritten
    /// (the fill or the zeroing writes every element).
    fn materialise(&mut self, info: &OperandInfo, escapes: bool, all_inputs: bool) -> Matrix {
        let (rows, cols) = (info.rows, info.cols);
        let mut m = if escapes {
            Matrix::zeros(rows, cols)
        } else {
            let storage = self.exec.pool.take(rows * cols, &mut self.draw);
            Matrix::from_storage(rows, cols, storage)
        };
        let written = self.alg.calls.iter().any(|call| call.output == info.id);
        if all_inputs || info.role == OperandRole::Input || !written {
            self.exec.fill_input(&mut m, info);
        } else if !escapes {
            m.fill(0.0);
        }
        m
    }

    /// Allocate the operands `call` touches that the map does not hold yet.
    /// A walk does this before a call that actually runs, so an operand
    /// whose only readers were served from a factor store (the matrix behind
    /// a resident factorisation) is never generated. With `deposits` set
    /// (the walk has a factor store), the operands a cacheable call writes
    /// are handed to it.
    fn allocate(&mut self, call: &KernelCall, deposits: bool, all_inputs: bool) {
        for id in call.inputs.iter().copied().chain([call.output]) {
            if self.held(id).is_none() {
                let info = self.alg.operand(id).expect("operand declared");
                let returned = self.returns_output && self.output_id() == Some(id);
                let deposited = deposits
                    && (self.alg.calls.iter()).any(|c| c.output == id && is_cacheable_op(&c.op));
                let m = self.materialise(info, returned || deposited, all_inputs);
                self.operands[id.index()] = Some(Arc::new(m));
            }
        }
    }

    /// The operand `id`, if the walk holds it.
    fn held(&self, id: OperandId) -> Option<&Arc<Matrix>> {
        self.operands.get(id.index()).and_then(Option::as_ref)
    }

    fn output_id(&self) -> Option<OperandId> {
        self.alg.output().map(|o| o.id)
    }

    /// Hand `m` back to the pool if the walk alone holds it.
    fn recycle(&mut self, m: Arc<Matrix>) {
        if let Ok(m) = Arc::try_unwrap(m) {
            self.exec.pool.put(m.into_vec(), &mut self.draw);
        }
    }

    /// Run each call, in order, against the operands and report it to
    /// `observe` with the seconds it took. With a factor store, a call whose
    /// [cacheable](lamb_expr::is_cacheable_op) result is resident is not run
    /// — the resident matrix itself becomes the operand and `observe` sees
    /// `None` — and every cacheable result the walk does compute is
    /// deposited, shared rather than copied (see [`Operands`]). Without a
    /// store no factor key is derived at all. Either way the operands of
    /// a call are allocated when the first call that runs touches them,
    /// outside its timed seconds, so the walk may start with none; unless
    /// the walk is [repeated](Walk::repeated), each is recycled after the
    /// last call that touches it (the output never is).
    fn run(
        &mut self,
        store: Option<&FactorCache>,
        mut observe: impl FnMut(usize, &KernelCall, Option<f64>),
    ) {
        let alg = self.alg;
        let mut keys = store.map(|_| factor_keys(alg).peekable());
        // The last call that touches each operand (none for the output,
        // which is never recycled, nor for any when nothing is released).
        let mut last_use = vec![usize::MAX; self.operands.len()];
        if self.release_dead {
            for (i, call) in alg.calls.iter().enumerate() {
                for id in call.inputs.iter().chain([&call.output]) {
                    last_use[id.index()] = i;
                }
            }
            let output = self.output_id().expect("algorithm declares an output");
            last_use[output.index()] = usize::MAX;
        }
        for (i, call) in alg.calls.iter().enumerate() {
            let key = keys
                .as_mut()
                .and_then(|keys| keys.next_if(|&(j, _)| j == i));
            let key = store.zip(key.map(|(_, key)| key));
            if let Some(resident) = key.and_then(|(store, key)| store.lookup(&key)) {
                let slot = &mut self.operands[call.output.index()];
                if let Some(displaced) = slot.replace(resident) {
                    self.recycle(displaced);
                }
                observe(i, call, None);
            } else {
                self.allocate(call, store.is_some(), false);
                let start = Instant::now();
                self.exec.run_call(call, &mut self.operands);
                let seconds = start.elapsed().as_secs_f64();
                if let Some((store, key)) = key {
                    // The deposit is a snapshot: a later in-place copy writes
                    // to a copy of its own (and re-keys the copied operand,
                    // so it can never alias this key).
                    let computed = self.held(call.output).expect("output allocated");
                    store.store(key, Arc::clone(computed));
                }
                observe(i, call, Some(seconds));
            }
            for id in call.inputs.iter().chain([&call.output]) {
                if last_use[id.index()] == i {
                    if let Some(m) = self.operands[id.index()].take() {
                        self.recycle(m);
                    }
                }
            }
        }
    }

    /// The output operand after the walk, as the caller's own matrix:
    /// copied if a factor store shares it, allocated now if no call ran
    /// against it (a call-free algorithm walked from an empty map).
    fn take_output(mut self) -> Matrix {
        let info = self.alg.output().expect("algorithm declares an output");
        match self.operands[info.id.index()].take() {
            Some(out) => Arc::try_unwrap(out).unwrap_or_else(|shared| (*shared).clone()),
            None => self.materialise(info, true, false),
        }
    }
}

impl Drop for Walk<'_> {
    fn drop(&mut self) {
        for m in std::mem::take(&mut self.operands).into_iter().flatten() {
            self.recycle(m);
        }
        self.exec.pool.end(self.draw);
    }
}

/// Executes algorithms with the real kernels and wall-clock timing.
#[derive(Debug)]
pub struct MeasuredExecutor {
    machine: MachineModel,
    cfg: BlockConfig,
    reps: usize,
    flusher: Option<CacheFlusher>,
    seed: u64,
    backend: Arc<dyn Backend>,
    pool: OperandPool,
}

impl MeasuredExecutor {
    /// Full-protocol executor: `reps` repetitions per measurement and a cache
    /// flush of `flush_bytes` bytes before each repetition (the paper uses 10
    /// repetitions). The flush buffer is mapped by the first measurement, so
    /// an executor that only plans or computes results costs none.
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
            pool: OperandPool::default(),
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

    /// Run every kernel call through the given backend instead of the
    /// blocked native one — how a result is recomputed on the
    /// [`lamb_kernels::ReferenceBackend`] oracle.
    #[must_use]
    pub fn with_backend(mut self, backend: Arc<dyn Backend>) -> Self {
        self.backend = backend;
        self
    }

    /// Number of repetitions per measurement.
    #[must_use]
    pub fn reps(&self) -> usize {
        self.reps
    }

    /// Overwrite `m` with the input operand `info`. Triangular inputs are
    /// genuinely triangular (zeros outside the stored triangle) and
    /// diagonally dominant, so a TRMM that reads only the triangle, a GEMM
    /// that reads the whole matrix and a TRSM that inverts the triangle all
    /// see the same, well-conditioned mathematical operand. SPD inputs are
    /// exactly symmetric and diagonally dominant with a positive diagonal, so
    /// a SYMM that reads one triangle, a GEMM that reads everything and a
    /// POTRF that factors the matrix all agree — and the factorisation is
    /// well conditioned.
    fn fill_input(&self, m: &mut Matrix, info: &OperandInfo) {
        let seed = self.seed ^ (info.id.index() as u64);
        match info.structure {
            Structure::Triangular(uplo) => random_triangular_into(m, uplo, seed),
            Structure::Spd => random_spd_into(m, seed),
            Structure::General => random_seeded_into(m, seed),
        }
    }

    /// Execute one call against the operand map.
    ///
    /// # Panics
    ///
    /// Panics if the algorithm references operands it does not declare or if
    /// kernel shape checks fail — both indicate a malformed algorithm.
    fn run_call(&self, call: &KernelCall, operands: &mut Operands) {
        let slot = call.output.index();
        let mut shared_out = operands[slot]
            .take()
            .expect("output operand must be allocated");
        // Copy on write: only the in-place triangle copy ever finds its
        // output shared (with the cache its producer deposited it in).
        let out = Arc::make_mut(&mut shared_out);
        // An input that is also the output (the in-place triangle copy)
        // reaches the backend through `out`, not through the input list.
        // No op reads more than two operands, so the list lives on the
        // stack.
        let mut read = (call.inputs.iter())
            .filter(|&&id| id != call.output)
            .map(|id| &**operands[id.index()].as_ref().expect("input allocated"));
        let pair: [&Matrix; 2];
        let inputs: &[&Matrix] = match (read.next(), read.next()) {
            (Some(a), Some(b)) => {
                assert!(
                    read.next().is_none(),
                    "a kernel call reads at most two operands"
                );
                pair = [a, b];
                &pair
            }
            (Some(a), None) => {
                pair = [a, a];
                &pair[..1]
            }
            _ => &[],
        };
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
        self.backend
            .run_into(&call.op, inputs, out, &self.cfg)
            .expect("kernel shapes consistent (TRSM nonsingular, POTRF positive definite)");
        operands[slot] = Some(shared_out);
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
        let mut walk = Walk::new(self, alg, true);
        walk.run(None, |_, _, _| {});
        walk.take_output()
    }

    /// Execute the algorithm once (untimed) against a factor store — the
    /// numerics-checking counterpart of
    /// [`Executor::execute_algorithm_reusing`]: resident cacheable results
    /// are injected instead of recomputed, newly computed cacheable results
    /// are deposited, and the final result matrix is returned together with
    /// the reuse accounting. Operands are allocated as calls that run reach
    /// them (see `Walk::run`), so a request served from resident factors
    /// never fills the matrix that was factored.
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
        let mut walk = Walk::new(self, alg, true);
        let mut report = ReuseReport::default();
        walk.run(Some(store), |_, call, seconds| {
            report.record(call, seconds.is_none());
        });
        (walk.take_output(), report)
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
        // The walk borrows the executor, so the flusher is held aside.
        let mut flusher = self.flusher.take();
        // Every operand is filled before the first flush, so each timed
        // repetition starts from operands the flush evicted. Nothing the
        // walk computes leaves it.
        let mut walk = Walk::repeated(self, alg);
        for call in &alg.calls {
            walk.allocate(call, false, false);
        }
        let mut total_samples = Vec::with_capacity(self.reps);
        let mut call_samples = vec![Vec::with_capacity(self.reps); alg.calls.len()];
        for _ in 0..self.reps {
            if let Some(flusher) = &mut flusher {
                flusher.flush();
            }
            let mut total = 0.0;
            walk.run(None, |i, _, seconds| {
                let dt = seconds.expect("without a store every call runs");
                call_samples[i].push(dt);
                total += dt;
            });
            total_samples.push(total);
        }
        drop(walk);
        self.flusher = flusher;
        let median = |samples: &mut Vec<f64>| {
            let samples = std::mem::take(samples);
            TimingResult { samples }.median()
        };
        let mut timing = AlgorithmTiming::from_calls(alg, |i, _| median(&mut call_samples[i]));
        timing.seconds = median(&mut total_samples);
        timing
    }

    /// Serving-style execution against a factor store: a *single* timed pass
    /// (no repetitions, no cache flush — a warm cache is the point of reuse)
    /// in which injected factors are attributed zero seconds. The injected
    /// bytes are exactly what the call would have produced (factor keys
    /// pin the computation to the seeded leaf contents), so downstream
    /// numerics are unchanged.
    fn execute_algorithm_reusing(
        &mut self,
        alg: &Algorithm,
        store: &FactorCache,
    ) -> (AlgorithmTiming, ReuseReport) {
        let mut walk = Walk::new(self, alg, false);
        let mut report = ReuseReport::default();
        let mut seconds_of = vec![0.0; alg.calls.len()];
        walk.run(Some(store), |i, call, seconds| {
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
        let mut flusher = self.flusher.take();
        let mut walk = Walk::repeated(self, alg);
        walk.allocate(call, false, true);
        let mut samples = Vec::with_capacity(self.reps);
        for _ in 0..self.reps {
            if let Some(flusher) = &mut flusher {
                flusher.flush();
            }
            let start = Instant::now();
            self.run_call(call, &mut walk.operands);
            samples.push(start.elapsed().as_secs_f64());
        }
        drop(walk);
        self.flusher = flusher;
        TimingResult { samples }.median()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamb_matrix::ops::max_abs_diff;

    fn tiny_executor() -> MeasuredExecutor {
        MeasuredExecutor::new(MachineModel::generic_laptop(), BlockConfig::default(), 2, 0)
    }

    /// The factor key of call `index` of `alg`.
    fn key_of(alg: &Algorithm, index: usize) -> lamb_expr::FactorKey {
        let mut keys = factor_keys(alg);
        keys.find(|&(i, _)| i == index).expect("a cacheable call").1
    }

    #[test]
    fn all_chain_algorithms_produce_the_same_result_matrix() {
        // Execute each of the six ABCD algorithms with identical inputs and
        // compare the output operands numerically.
        let exec = tiny_executor();
        let algs = algorithms_of("A*B*C*D", &[30, 25, 20, 15, 10]);
        let results: Vec<Matrix> = algs.iter().map(|a| exec.compute_result(a)).collect();
        for other in &results[1..] {
            assert!(max_abs_diff(&results[0], other).unwrap() < 1e-9);
        }
    }

    #[test]
    fn all_aatb_algorithms_produce_the_same_result_matrix() {
        let exec = tiny_executor();
        let algs = algorithms_of("A*A^T*B", &[28, 17, 22]);
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
        let alg = &algorithms_of("A*A^T*B", &[40, 30, 20])[1]; // syrk + copy + gemm
        let timing = exec.execute_algorithm(alg);
        assert_eq!(timing.per_call.len(), 3);
        assert!(timing.seconds > 0.0);
        assert!(timing.per_call.iter().all(|c| c.seconds > 0.0));
        assert_eq!(timing.flops, alg.flops());
    }

    #[test]
    fn isolated_call_timing_is_positive() {
        let mut exec = tiny_executor();
        let alg = &algorithms_of("A*B*C*D", &[40, 30, 20, 10, 50])[0];
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
        // Cold pass: everything executes, and exactly the one-input calls
        // deposit: the POTRF, not the solves that read `B`.
        let (_, cold) = exec.execute_algorithm_reusing(solve, &store);
        assert_eq!(cold.reused_calls, 0);
        assert_eq!(cold.executed("potrf"), 1);
        let one_input = (solve.calls.iter()).filter(|c| c.inputs.len() == 1);
        assert_eq!((store.len(), one_input.count()), (1, 1), "the potrf alone");
        // Warm pass: the factorisation is injected; both solves run.
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
        // The kernels' median is the one the executor summarises with: it
        // must keep the conventions the executor's own copy had.
        let median = |samples: &[f64]| {
            let samples = samples.to_vec();
            TimingResult { samples }.median()
        };
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[2.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    /// The algorithms of `text` at `dims`.
    fn algorithms_of(text: &str, dims: &[usize]) -> Vec<Algorithm> {
        use lamb_expr::{Expression, TreeExpression};
        TreeExpression::parse(text)
            .unwrap()
            .algorithms(dims)
            .unwrap()
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn an_operand_read_only_by_resident_factors_is_never_generated() {
        let algs = algorithms_of("S[spd]^-1*B", &[24, 7]);
        let solve = algs
            .iter()
            .find(|a| a.kernel_summary().contains("potrf"))
            .unwrap();
        let exec = tiny_executor();
        // A store in which only the factorisation is resident.
        let cold = FactorCache::new();
        let _ = exec.compute_result_reusing(solve, &cold);
        let potrf = solve
            .calls
            .iter()
            .position(|c| c.op.mnemonic() == "potrf")
            .unwrap();
        let key = key_of(solve, potrf);
        let store = FactorCache::new();
        store.store(key, cold.lookup(&key).unwrap());

        // A walk that keeps its operands, so the map can be inspected.
        let mut walk = Walk::new(&exec, solve, true);
        walk.release_dead = false;
        let mut ran = Vec::new();
        walk.run(Some(&store), |i, _, seconds| {
            if seconds.is_some() {
                ran.push(i);
            }
        });
        assert!(!ran.contains(&potrf) && !ran.is_empty());
        let s = solve.inputs().find(|o| o.name == "S").unwrap();
        let b = solve.inputs().find(|o| o.name == "B").unwrap();
        assert!(walk.held(s.id).is_none(), "S is read by the POTRF only");
        assert!(walk.held(b.id).is_some());
        // The factor in the walk is the cache's own matrix, not a copy.
        let factor = walk.held(solve.calls[potrf].output).unwrap();
        assert!(Arc::ptr_eq(factor, &store.lookup(&key).unwrap()));
        let result = walk.take_output();
        assert_eq!(bits(&result), bits(&exec.compute_result(solve)));
    }

    #[test]
    fn cold_warm_and_storeless_executions_agree_bit_for_bit() {
        // The four reuse texts, each at two sizes (the larger one crosses a
        // block edge of every factorisation kernel).
        let cases: [(&str, [&[usize]; 2]); 4] = [
            ("S[spd]^-1*B", [&[24, 7], &[65, 33]]),
            ("A^-1*B", [&[24, 7], &[65, 33]]),
            // `A^+` puts the column count first: the operands are 24 x 16 and 70 x 33.
            ("A^+*b", [&[16, 24, 1], &[33, 70, 3]]),
            ("S[spd]^-1*A*B", [&[24, 7, 5], &[65, 33, 12]]),
        ];
        for (text, sizes) in cases {
            for dims in sizes {
                let mut exec = tiny_executor();
                for alg in &algorithms_of(text, dims) {
                    let cacheable = factor_keys(alg).count();
                    let reference = bits(&exec.compute_result(alg));
                    let store = FactorCache::new();
                    let (cold, cold_report) = exec.compute_result_reusing(alg, &store);
                    assert_eq!(bits(&cold), reference, "{text} {dims:?} cold");
                    assert_eq!(cold_report, ReuseReport::all_executed(alg));
                    assert_eq!(store.hits(), 0);
                    assert_eq!(store.len(), cacheable, "{text} {dims:?}");
                    let resident = store.resident_bytes();
                    // Warm: every cacheable call is served, the rest run.
                    let (warm, warm_report) = exec.compute_result_reusing(alg, &store);
                    assert_eq!(bits(&warm), reference, "{text} {dims:?} warm");
                    assert_eq!(warm_report.reused_calls, cacheable);
                    assert_eq!(
                        warm_report.executed_calls,
                        alg.calls.len() - cacheable,
                        "{text} {dims:?}"
                    );
                    assert_eq!(store.hits(), cacheable);
                    assert_eq!(store.resident_bytes(), resident, "a hit deposits nothing");
                    // The timed pass takes the same route through the store.
                    let (timing, timed_report) = exec.execute_algorithm_reusing(alg, &store);
                    assert_eq!(timed_report, warm_report);
                    assert_eq!(store.hits(), 2 * cacheable);
                    assert_eq!(timing.per_call.len(), alg.calls.len());
                }
            }
        }
    }

    #[test]
    fn distinct_right_hand_sides_leave_the_resident_bytes_where_the_first_put_them() {
        // Eight requests per solve text, each against another right-hand
        // side of one factored operand: only the first deposits anything.
        const WIDTHS: [usize; 8] = [1, 2, 3, 5, 7, 8, 11, 13];
        let exec = tiny_executor();
        let store = FactorCache::new();
        for text in ["S[spd]^-1*B", "A^-1*B", "A^+*b"] {
            let mut first = None;
            for w in WIDTHS {
                // `A^+` puts the column count first: its operand is 24 x 16.
                let dims = if text == "A^+*b" {
                    vec![16, 24, w]
                } else {
                    vec![24, w]
                };
                for alg in &algorithms_of(text, &dims) {
                    let (result, _) = exec.compute_result_reusing(alg, &store);
                    let reference = exec.compute_result(alg);
                    assert_eq!(bits(&result), bits(&reference), "{text} {dims:?}");
                }
                let resident = *first.get_or_insert(store.resident_bytes());
                assert_eq!(store.resident_bytes(), resident, "{text} {dims:?}");
            }
        }
    }

    #[test]
    fn an_in_place_copy_after_a_deposit_leaves_the_cached_bytes_alone() {
        // M := A*A^T (syrk, deposited), then M := full(M) in place: the
        // output is the copied operand itself.
        use lamb_matrix::{Trans, Uplo};
        let (n, k) = (9, 4);
        let operand = |id, rows, cols, role, name: &str| OperandInfo {
            id: OperandId(id),
            rows,
            cols,
            role,
            name: name.into(),
            structure: Structure::General,
        };
        let uplo = Uplo::Lower;
        let (trans, m) = (Trans::No, OperandId(1));
        let alg = Algorithm {
            name: "syrk+copy".into(),
            operands: vec![
                operand(0, n, k, OperandRole::Input, "A"),
                operand(1, n, n, OperandRole::Output, "M"),
            ],
            calls: vec![
                KernelCall {
                    op: KernelOp::Syrk { uplo, trans, n, k },
                    inputs: [OperandId(0)].into(),
                    output: m,
                    label: "M := A*A^T".into(),
                },
                KernelCall {
                    op: KernelOp::CopyTriangle { uplo, n },
                    inputs: [m].into(),
                    output: m,
                    label: "M := full(M)".into(),
                },
            ],
        };
        assert!(alg.is_well_formed());
        let exec = tiny_executor();
        let reference = exec.compute_result(&alg);
        assert!(is_symmetric(&reference, 0.0).unwrap());

        let store = FactorCache::new();
        let key = &key_of(&alg, 0);
        let mut walk = Walk::new(&exec, &alg, true);
        let mut snapshot = None;
        walk.run(Some(&store), |i, _, _| {
            if i == 0 {
                snapshot = Some(bits(&store.lookup(key).expect("syrk deposited")));
            }
        });
        let copied = walk.held(m).unwrap();
        let cached = store.lookup(key).unwrap();
        let snapshot = snapshot.unwrap();
        // The copy wrote to a matrix of its own: the deposit is still the
        // one-triangle SYRK result, and nothing but the store holds it.
        assert_eq!(bits(&cached), snapshot);
        assert!(!is_symmetric(&cached, 0.0).unwrap());
        assert!(!Arc::ptr_eq(&cached, copied));
        assert_eq!(Arc::strong_count(&cached), 2, "the store and this handle");
        assert_eq!(bits(copied), bits(&reference));
        drop(walk);

        // Warm: the deposit is injected, and the copy again leaves it alone.
        let (mut warm, report) = exec.compute_result_reusing(&alg, &store);
        assert_eq!((report.reused_calls, report.executed_calls), (1, 1));
        assert_eq!(bits(&warm), bits(&reference));
        assert_eq!(bits(&cached), snapshot);
        // What the caller receives is the caller's own.
        warm.fill(-1.0);
        assert_eq!(bits(&store.lookup(key).unwrap()), snapshot);
    }

    #[test]
    fn a_shared_output_is_copied_out_to_the_caller() {
        // The final call, a POTRF, is deposited, so the walk's output is
        // shared with the store; mutating the returned matrix touches neither.
        use lamb_matrix::Uplo;
        let (n, uplo) = (9, Uplo::Lower);
        let alg = Algorithm {
            name: "potrf".into(),
            operands: vec![
                OperandInfo {
                    id: OperandId(0),
                    rows: n,
                    cols: n,
                    role: OperandRole::Input,
                    name: "S".into(),
                    structure: Structure::Spd,
                },
                OperandInfo {
                    id: OperandId(1),
                    rows: n,
                    cols: n,
                    role: OperandRole::Output,
                    name: "L".into(),
                    structure: Structure::Triangular(uplo),
                },
            ],
            calls: vec![KernelCall {
                op: KernelOp::Potrf { uplo, n },
                inputs: [OperandId(0)].into(),
                output: OperandId(1),
                label: "L := chol(S)".into(),
            }],
        };
        assert!(alg.is_well_formed());
        let exec = tiny_executor();
        let store = FactorCache::new();
        let key = &key_of(&alg, 0);
        for pass in ["cold", "warm"] {
            let (mut result, _) = exec.compute_result_reusing(&alg, &store);
            let cached = store.lookup(key).expect("final factorisation deposited");
            assert_eq!(Arc::strong_count(&cached), 2, "{pass}: no handle leaked");
            assert_eq!(bits(&result), bits(&cached), "{pass}");
            result.fill(0.5);
            assert_ne!(bits(&result), bits(&cached), "{pass}");
        }
    }

    #[test]
    fn a_call_free_algorithm_returns_its_operand_from_an_empty_map() {
        let leaf = &algorithms_of("A", &[5, 3])[0];
        assert!(leaf.calls.is_empty());
        let exec = tiny_executor();
        let direct = exec.compute_result(leaf);
        let store = FactorCache::new();
        let (late, report) = exec.compute_result_reusing(leaf, &store);
        assert_eq!((late.rows(), late.cols()), (5, 3));
        assert_eq!(bits(&late), bits(&direct));
        // The result is the leaf itself, seeded like any input operand.
        let operand = &leaf.operands[0];
        let mut seeded = Matrix::zeros(5, 3);
        exec.fill_input(&mut seeded, operand);
        assert_eq!(bits(&direct), bits(&seeded));
        assert!(direct.as_slice().iter().any(|&v| v != 0.0));
        assert_eq!(report, ReuseReport::default());
        assert!(store.is_empty());
    }

    #[test]
    fn quick_constructor_is_usable() {
        let mut exec = MeasuredExecutor::quick().with_seed(7);
        assert_eq!(exec.name(), "measured");
        assert!(exec.reps() >= 1);
        let alg = &algorithms_of("A*B*C*D", &[16, 16, 16, 16, 16])[0];
        let t = exec.execute_algorithm(alg);
        assert!(t.seconds > 0.0);
        assert!(exec.machine().peak_flops > 0.0);
    }

    /// Nine texts covering every kernel family, both sides and all three
    /// solvers, and the four repeated-solve texts.
    const CORE_TEXTS: [&str; 9] = [
        "A*B*C*D",
        "A*A^T*B",
        "L[lower]*A*B",
        "S[spd]*A*A^T",
        "A*S[spd]*B",
        "S[spd]^-1*A*B",
        "A^-1*B*C",
        "A*B*L[lower]^-1",
        "A^+*B*C",
    ];
    const REUSE_TEXTS: [&str; 4] = ["S[spd]^-1*B", "A^-1*B", "A^+*b", "S[spd]^-1*A*B"];

    /// The algorithms of `text` at `dims` cut to its dimension count
    /// (increasing, so a pseudo-inverse's operand is tall).
    fn algorithms_at(text: &str, dims: &[usize]) -> Vec<Algorithm> {
        use lamb_expr::{Expression, TreeExpression};
        let expr = TreeExpression::parse(text).unwrap();
        expr.algorithms(&dims[..expr.num_dims()]).unwrap()
    }

    /// Replace `exec`'s idle storage with NaN-filled buffers, one for each
    /// operand of `alg`, one element longer than it: a recycled buffer that
    /// reached the caller or a cache would show as `capacity > len`.
    fn poison(exec: &MeasuredExecutor, alg: &Algorithm) {
        let mut state = exec.pool.state();
        state.idle = alg
            .operands
            .iter()
            .map(|o| vec![f64::NAN; o.rows * o.cols + 1])
            .collect();
        state.idle_bytes = state.idle.iter().map(capacity_bytes).sum();
        state.bound = state.bound.max(state.idle_bytes);
    }

    /// The store's deposits for `alg`, each its own exact-size allocation.
    fn assert_deposits_exact(store: &FactorCache, alg: &Algorithm, what: &str) {
        for (_, key) in factor_keys(alg) {
            if let Some(m) = store.lookup(&key) {
                assert_eq!(m.capacity(), m.len(), "{what}: deposit {key:?}");
            }
        }
    }

    #[test]
    fn recycled_storage_is_invisible() {
        let dims = [21, 29, 37, 45, 33];
        let fresh = || tiny_executor();
        for text in CORE_TEXTS.iter().chain(&REUSE_TEXTS) {
            let recycled = tiny_executor();
            for alg in &algorithms_at(text, &dims) {
                let what = format!("{text}: {}", alg.name);
                let reference = bits(&fresh().compute_result(alg));
                poison(&recycled, alg);
                let storeless = recycled.compute_result(alg);
                assert_eq!(bits(&storeless), reference, "{what} storeless");
                assert_eq!(storeless.capacity(), storeless.len(), "{what}");
                // No operand keeps a stale element, not even in a triangle
                // no kernel writes.
                poison(&recycled, alg);
                let mut walk = Walk::new(&recycled, alg, true);
                walk.release_dead = false;
                walk.run(None, |_, _, _| {});
                for (id, m) in walk.operands.iter().enumerate() {
                    if let Some(m) = m {
                        assert!(!m.as_slice().iter().any(|x| x.is_nan()), "{what}: #{id}");
                    }
                }
                drop(walk);

                let store = FactorCache::new();
                for pass in ["cold", "warm"] {
                    poison(&recycled, alg);
                    let (result, _) = recycled.compute_result_reusing(alg, &store);
                    assert_eq!(bits(&result), reference, "{what} {pass}");
                    assert_eq!(result.capacity(), result.len(), "{what} {pass}");
                    assert_deposits_exact(&store, alg, &what);
                }
                // The timed walks draw from the same pool and leave real,
                // stale results in it; what follows them is unchanged too.
                let mut timed = tiny_executor();
                poison(&timed, alg);
                let _ = timed.execute_algorithm(alg);
                let _ = timed.execute_algorithm_reusing(alg, &store);
                for i in 0..alg.calls.len() {
                    let _ = timed.time_isolated_call(alg, i);
                }
                assert_eq!(
                    bits(&timed.compute_result(alg)),
                    reference,
                    "{what} after timing"
                );
            }
        }
    }

    #[test]
    fn retained_storage_stays_under_the_largest_walk() {
        let exec = tiny_executor();
        let mut timed = tiny_executor();
        let check = |exec: &MeasuredExecutor, what: &str| {
            let state = exec.pool.state();
            let held: usize = state.idle.iter().map(capacity_bytes).sum();
            assert_eq!(held, state.idle_bytes, "{what}");
            assert!(
                state.idle_bytes <= state.bound,
                "{what}: {} > {}",
                state.idle_bytes,
                state.bound
            );
            state.bound
        };
        // The most any one algorithm's operands occupy.
        let mut largest = 0;
        for (k, dims) in [
            [40, 12, 70, 9, 33],
            [8, 9, 10, 11, 12],
            [65, 33, 90, 70, 48],
            [5, 70, 6, 80, 7],
        ]
        .iter()
        .cycle()
        .take(8)
        .enumerate()
        {
            for text in CORE_TEXTS.iter().chain(&REUSE_TEXTS) {
                let mut dims = *dims;
                dims.sort_unstable(); // a pseudo-inverse's operand is tall
                let store = FactorCache::new();
                for alg in &algorithms_at(text, &dims) {
                    let bytes: usize = alg.operands.iter().map(|o| o.rows * o.cols * 8).sum();
                    largest = largest.max(bytes);
                    let what = format!("round {k}, {text} {dims:?}: {}", alg.name);
                    let _ = exec.compute_result(alg);
                    let _ = exec.compute_result_reusing(alg, &store);
                    check(&exec, &what);
                    let _ = timed.execute_algorithm(alg);
                    let _ = timed.time_isolated_call(alg, 0);
                    check(&timed, &what);
                }
            }
        }
        for exec in [&exec, &timed] {
            let bound = check(exec, "end");
            assert!(
                bound > 0 && bound <= 2 * largest,
                "bound {bound} against {largest}"
            );
        }
    }

    #[test]
    fn reference_backend_execution_matches_native_numerics() {
        use lamb_expr::{Expression, TreeExpression};
        use lamb_kernels::ReferenceBackend;
        let expr = TreeExpression::parse("L[lower]*A*B").unwrap();
        let algs = expr.algorithms(&[20, 14, 9]).unwrap();
        let native = tiny_executor();
        let reference = tiny_executor().with_backend(Arc::new(ReferenceBackend));
        for alg in &algs {
            let a = native.compute_result(alg);
            let b = reference.compute_result(alg);
            assert!(max_abs_diff(&a, &b).unwrap() < 1e-9, "{}", alg.name);
        }
    }
}
