//! # lamb-experiments
//!
//! The experimental apparatus of the ICPP'22 paper *"FLOPs as a Discriminant
//! for Dense Linear Algebra Algorithms"*:
//!
//! * **Experiment 1** ([`search`]) — random search for anomalies, estimating
//!   their abundance and severity (Figures 6 and 9, Sections 4.1.1 / 4.2.1).
//! * **Experiment 2** ([`lines`], [`region`]) — axis-aligned lines through the
//!   regions around each anomaly, measuring how anomalies cluster (Figures 7,
//!   8, 10 and 11).
//! * **Experiment 3** ([`predict`]) — predicting anomalies from isolated
//!   kernel benchmarks, summarised as confusion matrices (Tables 1 and 2).
//!
//! The [`figures`] module generates the data series of every figure, and
//! [`report`] renders the textual summaries. All drivers are generic over the
//! [`lamb_perfmodel::Executor`], so they run identically on the measured and
//! the simulated back end.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod csvout;
pub mod driver;
pub mod figures;
pub mod lines;
pub mod predict;
pub mod region;
pub mod report;
pub mod scenarios;
pub mod search;

pub use config::{LineConfig, PredictConfig, SearchConfig};
pub use driver::{
    run_efficiency_line, run_experiment1, run_experiment2, run_experiment3, run_figure1,
    run_full_pipeline, DriverOutput,
};
pub use figures::{
    efficiency_along_line, figure1_csv, figure1_kernel_efficiency, scatter_csv,
    thickness_distribution_csv, EfficiencyLine,
};
pub use lines::{scan_line, scan_lines_around, thickness_by_dimension, LinePoint, LineScan};
pub use predict::{predict_from_benchmarks, ConfusionMatrix, PredictionResult};
pub use region::{find_boundary, RegionExtent};
pub use report::{prediction_report, region_report, search_report, summary_stats};
pub use scenarios::{
    all_scenarios, factor_reuse_scenarios, lu_qr_scenarios, mixed_transpose_scenarios,
    right_side_scenarios, scenario_batch_requests, spd_scenarios, sweep_csv, sweep_scenarios,
    triangular_scenarios, Scenario, ScenarioSweepRow, SCENARIO_FAMILIES,
};
pub use search::{run_random_search, AnomalyRecord, SearchResult};
