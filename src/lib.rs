//! # lamb
//!
//! A Rust reproduction of **"FLOPs as a Discriminant for Dense Linear Algebra
//! Algorithms"** (López, Karlsson, Bientinesi — ICPP 2022), packaged as a
//! workspace of focused crates and re-exported here as a single facade.
//!
//! A linear algebra expression such as the matrix chain `A·B·C·D` or
//! `A·Aᵀ·B` can be evaluated by many mathematically equivalent sequences of
//! BLAS kernel calls. High-level tools usually pick the sequence with the
//! fewest floating-point operations. The paper — and this library — study
//! *anomalies*: problem instances where that minimum-FLOP choice is **not**
//! among the fastest algorithms.
//!
//! ## What is in the box
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`matrix`] | `lamb-matrix` | dense column-major matrices, views, triangular helpers |
//! | [`kernels`] | `lamb-kernels` | one blocked, packed, Rayon-parallel engine driving GEMM / SYRK / SYMM / TRMM / TRSM, the POTRF / GETRF / QR factorisations + FLOP models |
//! | [`expr`] | `lamb-expr` | expressions, kernel-call IR, algorithm enumeration (6 chain + 5 `A·Aᵀ·B` algorithms) |
//! | [`perfmodel`] | `lamb-perfmodel` | machine models, measured & simulated executors, performance profiles |
//! | [`select`] | `lamb-select` | FLOP/time scores, anomaly classification, selection policies |
//! | [`plan`] | `lamb-plan` | the unified `Planner` pipeline: plan → select → execute → verdict |
//! | [`verify`] | `lamb-verify` | pass-based static analyser for the kernel-call IR (def-use, shape, structure, cost, aliasing) |
//! | [`experiments`] | `lamb-experiments` | the paper's Experiments 1–3, figure/table data generators |
//!
//! ## Quickstart: the `Planner` is the front door
//!
//! ```
//! use lamb::prelude::*;
//!
//! // The paper's second expression: X := A·Aᵀ·B with A 80x514 and B 80x768.
//! let expr = TreeExpression::parse("A*A^T*B").unwrap();
//! let plan = Planner::for_expression(&expr)
//!     .policy(MinPredictedTime)   // FLOPs + kernel performance profiles
//!     .threshold(0.10)            // Experiment-1 anomaly threshold
//!     .plan(&[80, 514, 768])
//!     .unwrap();
//! assert_eq!(plan.algorithms.len(), 5);
//!
//! // Execute every algorithm on the simulated machine model and classify.
//! let outcome = plan.execute();
//!
//! // On this instance the cheapest (SYRK/SYMM-based) algorithms are *not*
//! // the fastest: a FLOP-count discriminant picks a slow algorithm, while
//! // the prediction-based policy stays near the optimum.
//! assert!(outcome.is_anomaly());
//! assert!(outcome.verdict.time_score > 0.10);
//! assert!(outcome.regret() < 0.05);
//!
//! // One judge, `classify`, reads `(flops, seconds)` rows where they are
//! // kept: the verdict is its reading of the timings, and the plan's own
//! // predicted scores foresee the anomaly (the paper's Experiment 3).
//! let rows = outcome.timings.iter().map(|t| (t.flops, t.seconds));
//! assert_eq!(classify(rows, 0.10), outcome.verdict);
//! assert_eq!(plan.predicted_anomaly(), Some(true));
//!
//! // Batched sweeps fan out across worker threads with a shared
//! // prediction cache:
//! let grid: Vec<Vec<usize>> = (1..=4).map(|i| vec![80 * i, 514, 768]).collect();
//! let plans = Planner::for_expression(&expr).plan_grid(&grid);
//! assert_eq!(plans.len(), 4);
//! # assert!(plans.iter().all(|p| p.is_ok()));
//! ```
//!
//! The lower-level pieces remain available: [`prelude::Expression::algorithms`]
//! for the raw algorithm set of an instance,
//! [`prelude::enumerate_expr_algorithms`] for that of an expression tree, and
//! the policy structs ([`prelude::MinFlops`], [`prelude::MinPredictedTime`],
//! [`prelude::Hybrid`], [`prelude::Oracle`]) whose
//! [`prelude::SelectionPolicy::select`] picks from a raw algorithm set. A
//! choice is judged in one place: [`prelude::Plan::execute_with`] times every
//! algorithm, classifies the timings with [`prelude::classify`] and reports
//! the regret.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use lamb_experiments as experiments;
pub use lamb_expr as expr;
pub use lamb_kernels as kernels;
pub use lamb_matrix as matrix;
pub use lamb_perfmodel as perfmodel;
pub use lamb_plan as plan;
pub use lamb_select as select;
pub use lamb_verify as verify;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use lamb_experiments::{
        run_efficiency_line, run_experiment1, run_experiment2, run_experiment3, run_figure1,
        run_full_pipeline, run_random_search, LineConfig, PredictConfig, SearchConfig,
    };
    pub use lamb_expr::expr::Expr;
    pub use lamb_expr::{
        enumerate_expr_algorithms, Algorithm, Expression, GenerateError, KernelCall, KernelOp,
        ParseError, TreeExpression,
    };
    pub use lamb_kernels::{gemm, symm, syrk, Backend, BlockConfig, NativeBackend};
    pub use lamb_matrix::{Matrix, Side, Trans, Uplo};
    pub use lamb_perfmodel::{
        AlgorithmTiming, AnalyticEfficiencyModel, CalibrationStore, CallTimeTable, Executor,
        MachineModel, MeasuredExecutor, SimulatedExecutor, SimulatorConfig, StalenessWarning,
        StoreError,
    };
    pub use lamb_plan::{
        AlgorithmScore, BatchOutcome, BatchPlanner, BatchRequest, BatchStats, CachingExecutor,
        Plan, PlanError, PlanExecution, Planner, PredictionCache,
    };
    pub use lamb_select::{
        classify, Classification, Hybrid, MinFlops, MinPredictedTime, Oracle, SelectError,
        SelectionPolicy,
    };
    pub use lamb_verify::{
        verify_algorithm, verify_call_table, Diagnostic, PassId, Report, Severity, VerifyExt,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_re_exports_are_usable_together() {
        let chain = TreeExpression::parse("A*B*C*D").unwrap();
        let algs = chain
            .algorithms(&[100, 40, 120, 30, 90])
            .expect("valid chain");
        let mut exec = SimulatedExecutor::paper_like();
        assert!(MinFlops.select(&algs, &mut exec).unwrap() < algs.len());
        let timings: Vec<AlgorithmTiming> = Planner::for_expression(&chain)
            .plan_with(&[100, 40, 120, 30, 90], &mut exec)
            .unwrap()
            .execute_with(&mut exec)
            .timings;
        let class: Classification = classify(timings.iter().map(|t| (t.flops, t.seconds)), 0.10);
        assert_eq!(timings.len(), 6);
        assert!(!class.cheapest.is_empty());
        assert!(!class.fastest.is_empty());
    }

    #[test]
    fn the_planner_front_door_is_reachable_from_the_prelude() {
        let expr = TreeExpression::parse("A*B*C*D").unwrap();
        let plan = Planner::for_expression(&expr)
            .policy(MinFlops)
            .plan(&[100, 40, 120, 30, 90])
            .unwrap();
        assert_eq!(plan.algorithms.len(), 6);
        let outcome = plan.execute();
        assert_eq!(outcome.timings.len(), 6);
        assert!(outcome.best_seconds() > 0.0);
    }
}
