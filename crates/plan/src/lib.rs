//! # lamb-plan
//!
//! The unified planning pipeline of the `lamb` workspace: **one** code path
//! from an expression instance to a selected, executed algorithm and its
//! anomaly verdict.
//!
//! The ICPP'22 paper this workspace reproduces is fundamentally about a
//! selection pipeline: enumerate the mathematically equivalent algorithms of
//! an expression instance, rank them by a discriminant (FLOP count, predicted
//! time, or a hybrid), execute the choice, and ask whether the discriminant
//! was misled (an *anomaly*). [`Planner`] packages that pipeline behind a
//! builder:
//!
//! ```
//! use lamb_expr::TreeExpression;
//! use lamb_plan::Planner;
//! use lamb_select::MinPredictedTime;
//!
//! let expr = TreeExpression::parse("A*A^T*B").unwrap();
//! let plan = Planner::for_expression(&expr)
//!     .policy(MinPredictedTime)          // or any custom SelectionPolicy
//!     .threshold(0.10)                   // anomaly time-score threshold
//!     .plan(&[80, 514, 768])             // the paper's Figure-11 instance
//!     .unwrap();
//!
//! println!("chosen: {}", plan.chosen_algorithm().name);
//! let outcome = plan.execute();
//! assert!(outcome.is_anomaly());        // FLOP counts mislead here...
//! assert!(outcome.regret() < 0.05);     // ...but prediction does not.
//! ```
//!
//! The pieces:
//!
//! * [`Planner`] — builder over an expression: policy, executor (factory),
//!   threshold, prediction scoring; `plan` / `plan_with` for one instance,
//!   [`Planner::plan_grid`] for a batched sweep fanned out across worker
//!   threads. Everything it configures apart from the expression is one
//!   private settings value, and the pipeline — enumerate → CSE → deduplicate
//!   → verify gate → score → select — is written once on it.
//! * [`Plan`] — the enumerated algorithm set with per-algorithm
//!   [`AlgorithmScore`]s and the policy's chosen index;
//!   [`Plan::execute`] / [`Plan::execute_with`] time every algorithm and
//!   produce a [`PlanExecution`]: the timings and the [`Classification`]
//!   [`classify`] makes of them. [`Plan::predicted_anomaly`] runs the same
//!   judge over the predicted times the plan's scores already carry (the
//!   Experiment-3-style verdict).
//! * [`PredictionCache`] / [`CachingExecutor`] — a sharded memo table of
//!   isolated-call benchmark times keyed by the call's timing key
//!   (operation and dimensions, with timing-irrelevant GEMM transposition
//!   flags cleared), shared across algorithms, instances and threads, so
//!   repeated profile benchmarks are paid once, and the one [`Executor`]
//!   adapter policies see it through. It warm-starts from a
//!   persisted [`CalibrationStore`](lamb_perfmodel::CalibrationStore)
//!   ([`Planner::with_store`]) and exports back to one
//!   ([`Planner::snapshot_cache`]).
//! * [`FactorCache`] — the factor store (defined beside the executors in
//!   `lamb_perfmodel::reuse`, re-exported here): computed factors (Cholesky,
//!   LU and QR factors, the triangles extracted from them, Gram products)
//!   filed by structural key, shared across the plans of a planner or the
//!   requests of a batch. A value that reads a right-hand side (a solve, an
//!   ORMQR, a product) is never held: it is recomputed per request. Given
//!   one, scoring prices resident factors at zero FLOPs and zero seconds:
//!   the [`CachingExecutor`] streams each candidate's factor keys once, in
//!   call order, and asks [`FactorCache::contains`] per key while it prices
//!   the FLOP score and the predicted seconds together, so
//!   `MinPredictedTime` prefers shared-factor algorithms.
//! * [`BatchPlanner`] / [`BatchRequest`] — the batch-serving front end: the
//!   same settings and setters as [`Planner`] without the expression. It
//!   parses a whole file of expression instances, fans them out across rayon
//!   workers through the same pipeline against the shared cache, and reports
//!   aggregate [`BatchStats`] (cache hit rate, predicted versus FLOP-optimal
//!   time, anomaly count). "Calibrate once, plan many."
//!
//! [`Executor`]: lamb_perfmodel::Executor

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod batch;
pub mod cache;
mod plan;
mod planner;

pub use batch::{BatchOutcome, BatchParseError, BatchPlanner, BatchRequest, BatchStats};
pub use cache::{CachingExecutor, PredictionCache};
pub use lamb_perfmodel::FactorCache;
pub use plan::{AlgorithmScore, Plan, PlanError, PlanExecution};
pub use planner::Planner;

// The selection vocabulary the planner builds on, re-exported so that
// `lamb_plan` alone suffices for most call sites.
pub use lamb_select::{
    classify, Classification, Hybrid, MinFlops, MinPredictedTime, Oracle, SelectError,
    SelectionPolicy,
};
