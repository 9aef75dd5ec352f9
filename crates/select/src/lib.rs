//! # lamb-select
//!
//! Algorithm selection and anomaly analysis:
//!
//! * the **time score** and **FLOP score** of Section 3.3 of the paper
//!   ([`scores`]),
//! * **anomaly classification** of an instance from its per-algorithm
//!   `(flops, seconds)` rows — one judge, [`classify`], that reads the rows
//!   where the caller already keeps them ([`anomaly`]), and
//! * **selection policies** — minimum FLOP count (the discriminant under
//!   study), performance-profile-based prediction, a hybrid of the two, and
//!   an empirical oracle, each a plain struct implementing the object-safe
//!   [`SelectionPolicy`] trait ([`policy`]).
//!
//! Selection is over algorithms only: every kernel call of the chosen
//! algorithm runs on the native kernels, so there is no per-call
//! implementation to choose. A policy only chooses: the `lamb-plan` crate
//! builds the user-facing `Planner` pipeline on top of these pieces, and its
//! `Plan::execute_with` is where a choice is judged — every algorithm timed,
//! the timings classified by [`classify`], the regret against the empirical
//! optimum taken. `Plan::predicted_anomaly` runs the same judge over the
//! plan's predicted scores.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod anomaly;
pub mod policy;
pub mod scores;

pub use anomaly::{classify, Classification};
pub use policy::{Hybrid, MinFlops, MinPredictedTime, Oracle, SelectError, SelectionPolicy};
pub use scores::{flop_score, time_score};

/// The algorithm's predicted time as the sum of its isolated-call
/// benchmarks. Kept only under the name the repository benchmark's
/// `select.assign_backends_us` row times; the benchmark's scheduled refresh
/// drops that row, and this function with it.
#[doc(hidden)]
pub fn assign_backends(
    alg: &lamb_expr::Algorithm,
    executor: &mut dyn lamb_perfmodel::Executor,
) -> lamb_perfmodel::AlgorithmTiming {
    executor.predict_from_isolated_calls(alg)
}
