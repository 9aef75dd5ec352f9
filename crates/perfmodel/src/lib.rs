//! # lamb-perfmodel
//!
//! Machine and kernel performance models plus the two executors that attach
//! execution times to the symbolic algorithms of `lamb-expr`:
//!
//! * [`MeasuredExecutor`] runs the real `lamb-kernels` BLAS-3 kernels and
//!   times them with the paper's protocol (median of N repetitions, cache
//!   flushed before each repetition).
//! * [`SimulatedExecutor`] evaluates a deterministic analytic performance
//!   model calibrated to reproduce the *qualitative* behaviour of the paper's
//!   Xeon + MKL testbed: shape-dependent efficiency ramps, a GEMM > SYMM >
//!   SYRK efficiency ordering, abrupt internal-variant switches, inter-kernel
//!   cache effects, and bounded measurement noise. This is the substitution
//!   that makes the paper-scale experiments — tens of thousands of
//!   instances, hundreds of thousands of isolated-call benchmarks — feasible
//!   and reproducible on any machine.
//!
//! Both implement the [`Executor`] trait, so every experiment driver in
//! `lamb-experiments` runs unchanged on either.
//!
//! Calibration data — [`MachineModel`], [`SquareProfile`] curves and the
//! [`CallTimeTable`] of isolated-call benchmark times — persists across runs
//! through the [`store`] module's versioned JSON [`CalibrationStore`]
//! (serialised without `serde` via the tiny [`json`] module), so a machine is
//! calibrated once and every later planning run starts warm.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod autotune;
pub mod calibrate;
pub mod efficiency;
pub mod executor;
pub mod json;
pub mod machine;
pub mod measured;
pub mod profile;
pub mod reuse;
pub mod simulate;
pub mod store;

pub use autotune::{
    autotune_measured, coordinate_descent, measured_gemm_gflops, tuned_gemm_probe, TuneOutcome,
};
pub use calibrate::{
    estimate_peak_flops, measure_square_profiles, single_call_algorithm, SQUARE_SWEEP_KERNELS,
};
pub use efficiency::{AnalyticEfficiencyModel, EfficiencyModel, ReferenceEfficiencyModel};
pub use executor::{AlgorithmTiming, CallTiming, Executor};
pub use lamb_kernels::backend::{
    all_backends, backend_by_name, Backend, BackendId, NativeBackend, ReferenceBackend,
    NATIVE_BACKEND_NAME, REFERENCE_BACKEND_NAME,
};
pub use machine::MachineModel;
pub use measured::MeasuredExecutor;
pub use profile::{CallTimeTable, SquareProfile};
pub use reuse::{FactorCache, ReuseReport};
pub use simulate::{SimulatedExecutor, SimulatorConfig};
pub use store::{
    kernel_coverage_key, BackendCalibration, CalibrationStore, StalenessWarning, StoreError,
    StoreMeta, TunedConfig, EXPECTED_KERNELS, STORE_FORMAT_VERSION,
};
