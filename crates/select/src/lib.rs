//! # lamb-select
//!
//! Algorithm selection and anomaly analysis:
//!
//! * the **time score** and **FLOP score** of Section 3.3 of the paper
//!   ([`scores`]),
//! * **anomaly classification** of an instance from the per-algorithm FLOP
//!   counts and execution times ([`anomaly`]), and
//! * **selection policies** — minimum FLOP count (the discriminant under
//!   study), performance-profile-based prediction, a hybrid of the two, and
//!   an empirical oracle, behind the object-safe [`SelectionPolicy`] trait
//!   ([`policy`]), with the closed [`Strategy`] enum kept as a thin
//!   constructor ([`strategy`]).
//!
//! Selection is over algorithms only: every kernel call of the chosen
//! algorithm runs on the native kernels, so there is no per-call
//! implementation to choose. The `lamb-plan` crate builds the user-facing
//! `Planner` pipeline on top of these pieces.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod anomaly;
pub mod policy;
pub mod scores;
pub mod strategy;

pub use anomaly::{AlgorithmMeasurement, Classification, InstanceEvaluation};
pub use policy::{Hybrid, MinFlops, MinPredictedTime, Oracle, SelectError, SelectionPolicy};
pub use scores::{flop_score, time_score};
pub use strategy::{evaluate_instance, evaluate_strategy, Strategy, StrategyOutcome};

/// The algorithm's predicted time as the sum of its isolated-call
/// benchmarks. Kept only under the name the repository benchmark's
/// `select.assign_backends_us` row times; the benchmark's scheduled refresh
/// (ROADMAP item 3(a)) drops that row, and this function with it.
#[doc(hidden)]
pub fn assign_backends(
    alg: &lamb_expr::Algorithm,
    executor: &mut dyn lamb_perfmodel::Executor,
) -> lamb_perfmodel::AlgorithmTiming {
    executor.predict_from_isolated_calls(alg)
}
