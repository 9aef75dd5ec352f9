//! Data generators for every figure of the paper's evaluation section.
//!
//! | Figure | Generator |
//! |--------|-----------|
//! | 1      | [`figure1_kernel_efficiency`] — GEMM/SYRK/SYMM (+ TRMM/TRSM) efficiency vs square size |
//! | 6, 9   | [`scatter_csv`] — time score vs FLOP score of the Experiment-1 anomalies |
//! | 7, 10  | [`thickness_distribution_csv`] — region thicknesses per dimension |
//! | 8, 11  | [`efficiency_along_line`] — per-algorithm and per-call efficiencies along a line |

use crate::lines::{scan_line, LineScan};
use crate::search::SearchResult;
use lamb_expr::Expression;
use lamb_perfmodel::{measure_square_profiles, Executor, SquareProfile};
use std::fmt::Write as _;

/// Figure 1: efficiency of the kernels on square operands of growing size
/// (the paper's GEMM/SYRK/SYMM trio plus the TRMM/TRSM extensions).
pub fn figure1_kernel_efficiency(
    executor: &mut dyn Executor,
    sizes: &[usize],
) -> Vec<SquareProfile> {
    measure_square_profiles(executor, sizes)
}

/// Merge the Figure-1 profiles into one CSV (`size,gemm,syrk,symm,trmm,trsm`).
#[must_use]
pub fn figure1_csv(profiles: &[SquareProfile]) -> String {
    let mut out = String::from("size");
    for p in profiles {
        let _ = write!(out, ",{}", p.kernel);
    }
    out.push('\n');
    if let Some(first) = profiles.first() {
        for (i, &size) in first.sizes.iter().enumerate() {
            let _ = write!(out, "{size}");
            for p in profiles {
                let _ = write!(out, ",{:.6}", p.efficiencies.get(i).copied().unwrap_or(0.0));
            }
            out.push('\n');
        }
    }
    out
}

/// Figures 6 and 9: scatter of time score versus FLOP score for the anomalies
/// found by Experiment 1.
#[must_use]
pub fn scatter_csv(result: &SearchResult) -> String {
    let mut out = String::from("flop_score,time_score\n");
    for (flop, time) in result.scatter() {
        let _ = writeln!(out, "{flop:.6},{time:.6}");
    }
    out
}

/// Figures 7 and 10: the distribution of region thicknesses in each
/// dimension. One CSV row per scanned line: `dimension,anomaly_index,thickness`.
#[must_use]
pub fn thickness_distribution_csv(scans: &[LineScan], num_dims: usize) -> String {
    let mut out = String::from("dimension,scan_index,thickness\n");
    let mut per_dim_counter = vec![0usize; num_dims];
    for scan in scans {
        let d = scan.dimension;
        let idx = per_dim_counter.get(d).copied().unwrap_or(0);
        let _ = writeln!(out, "d{d},{idx},{}", scan.thickness());
        if d < num_dims {
            per_dim_counter[d] += 1;
        }
    }
    out
}

/// One algorithm's efficiencies at one point of a Figure-8/11 line.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmEfficiencyPoint {
    /// Algorithm name.
    pub name: String,
    /// Whole-algorithm efficiency ("Total" curve).
    pub total: f64,
    /// Per-call efficiencies ("First", "Second", ... curves).
    pub per_call: Vec<f64>,
    /// Whether the algorithm is among the cheapest at this instance.
    pub is_cheapest: bool,
    /// Whether the algorithm is among the fastest at this instance.
    pub is_fastest: bool,
}

/// One sampled instance of a Figure-8/11 line.
#[derive(Debug, Clone, PartialEq)]
pub struct EfficiencyLinePoint {
    /// Value of the traversed dimension.
    pub value: usize,
    /// Efficiencies of every algorithm at this instance.
    pub algorithms: Vec<AlgorithmEfficiencyPoint>,
    /// Whether the instance is an anomaly at the configured threshold.
    pub is_anomaly: bool,
}

/// The data of one panel column of the paper's Figure 8 (matrix chain) or
/// Figure 11 (`A·Aᵀ·B`).
#[derive(Debug, Clone, PartialEq)]
pub struct EfficiencyLine {
    /// The base instance of the line.
    pub base_dims: Vec<usize>,
    /// The traversed dimension.
    pub dimension: usize,
    /// One entry per visited instance, in increasing dimension order.
    pub points: Vec<EfficiencyLinePoint>,
}

impl EfficiencyLine {
    /// Serialise as CSV with one row per `(value, algorithm)` pair.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("value,algorithm,total_efficiency,is_cheapest,is_fastest,is_anomaly,call_efficiencies\n");
        for point in &self.points {
            for alg in &point.algorithms {
                let calls = alg
                    .per_call
                    .iter()
                    .map(|e| format!("{e:.4}"))
                    .collect::<Vec<_>>()
                    .join("|");
                let _ = writeln!(
                    out,
                    "{},{},{:.6},{},{},{},{}",
                    point.value,
                    alg.name.replace(',', ";"),
                    alg.total,
                    alg.is_cheapest,
                    alg.is_fastest,
                    point.is_anomaly,
                    calls
                );
            }
        }
        out
    }
}

/// Figures 8 and 11: efficiencies of every algorithm (and of their individual
/// kernel calls) along the axis-aligned line through `base_dims` in dimension
/// `dim`, traversed across the whole search box.
///
/// Each point is the Experiment-2 traversal's one execution of the planned
/// candidates: the names are the plan's, the per-call timings and the
/// cheapest/fastest markers come from that execution, and all three index
/// the same algorithm list.
pub fn efficiency_along_line(
    expr: &dyn Expression,
    executor: &mut dyn Executor,
    base_dims: &[usize],
    dim: usize,
    config: &crate::config::LineConfig,
) -> EfficiencyLine {
    let scan = scan_line(expr, executor, base_dims, dim, config);
    let machine = executor.machine();
    let points = scan
        .points
        .iter()
        .map(|point| {
            let execution = &point.execution;
            let verdict = &execution.verdict;
            let algorithms = point
                .names
                .iter()
                .zip(&execution.timings)
                .enumerate()
                .map(|(i, (name, timing))| AlgorithmEfficiencyPoint {
                    name: name.to_string(),
                    total: timing.efficiency(machine),
                    per_call: (0..timing.per_call.len())
                        .map(|c| timing.call_efficiency(c, machine))
                        .collect(),
                    is_cheapest: verdict.cheapest.contains(&i),
                    is_fastest: verdict.fastest.contains(&i),
                })
                .collect();
            EfficiencyLinePoint {
                value: point.value,
                algorithms,
                is_anomaly: verdict.is_anomaly,
            }
        })
        .collect();
    EfficiencyLine {
        base_dims: base_dims.to_vec(),
        dimension: dim,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LineConfig, SearchConfig};
    use crate::search::run_random_search;
    use lamb_expr::TreeExpression;
    use lamb_perfmodel::SimulatedExecutor;

    #[test]
    fn figure1_csv_has_all_kernels_and_sizes() {
        let mut exec = SimulatedExecutor::paper_like();
        let profiles = figure1_kernel_efficiency(&mut exec, &[100, 500, 1000]);
        let csv = figure1_csv(&profiles);
        assert!(csv.starts_with("size,gemm,syrk,symm,trmm,trsm"));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn scatter_csv_has_one_row_per_anomaly() {
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let mut exec = SimulatedExecutor::paper_like();
        let cfg = SearchConfig {
            target_anomalies: 5,
            max_samples: 4000,
            ..SearchConfig::paper_aatb()
        };
        let result = run_random_search(&expr, &mut exec, &cfg);
        let csv = scatter_csv(&result);
        assert_eq!(csv.lines().count(), result.anomalies.len() + 1);
    }

    #[test]
    fn efficiency_line_reproduces_figure11_structure() {
        // Use the paper's Figure 11 centre column: line (80, 514±10x, 768).
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let mut exec = SimulatedExecutor::paper_like();
        let mut cfg = LineConfig::paper();
        // Keep the test fast: a narrow box around the centre.
        cfg.box_min = 450;
        cfg.box_max = 600;
        let line = efficiency_along_line(&expr, &mut exec, &[80, 514, 768], 1, &cfg);
        assert_eq!(line.dimension, 1);
        assert!(!line.points.is_empty());
        for p in &line.points {
            assert_eq!(p.algorithms.len(), 5);
            for a in &p.algorithms {
                assert!(a.total > 0.0 && a.total <= 1.0);
                assert!(!a.per_call.is_empty());
            }
            // Exactly the cheapest/fastest flags of the classification are set.
            assert!(p.algorithms.iter().any(|a| a.is_cheapest));
            assert!(p.algorithms.iter().any(|a| a.is_fastest));
        }
        let csv = line.to_csv();
        assert!(csv.lines().count() > 5);
    }

    /// A simulator that counts whole-algorithm executions.
    struct Counting {
        inner: SimulatedExecutor,
        executions: usize,
    }

    impl Executor for Counting {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn machine(&self) -> &lamb_perfmodel::MachineModel {
            self.inner.machine()
        }
        fn execute_algorithm(
            &mut self,
            alg: &lamb_expr::Algorithm,
        ) -> lamb_perfmodel::AlgorithmTiming {
            self.executions += 1;
            self.inner.execute_algorithm(alg)
        }
        fn time_isolated_call(&mut self, alg: &lamb_expr::Algorithm, call_index: usize) -> f64 {
            self.inner.time_isolated_call(alg, call_index)
        }
    }

    #[test]
    fn an_efficiency_line_executes_each_point_once() {
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let mut cfg = LineConfig::paper();
        cfg.box_min = 450;
        cfg.box_max = 600;
        let counting = || Counting {
            inner: SimulatedExecutor::paper_like(),
            executions: 0,
        };
        let mut scan_exec = counting();
        let scan = scan_line(&expr, &mut scan_exec, &[80, 514, 768], 1, &cfg);
        let mut line_exec = counting();
        let line = efficiency_along_line(&expr, &mut line_exec, &[80, 514, 768], 1, &cfg);
        assert!(scan_exec.executions > 0);
        assert_eq!(line_exec.executions, scan_exec.executions);
        // Every plotted name is the executed candidate at the same index.
        assert_eq!(line.points.len(), scan.points.len());
        for (plotted, executed) in line.points.iter().zip(&scan.points) {
            let plotted: Vec<&str> = plotted.algorithms.iter().map(|a| a.name.as_str()).collect();
            let executed: Vec<&str> = executed.names.iter().map(|name| &**name).collect();
            assert_eq!(plotted, executed);
        }
    }

    #[test]
    fn thickness_csv_is_grouped_by_dimension() {
        let expr = TreeExpression::parse("A*B*C*D").unwrap();
        let mut exec = SimulatedExecutor::paper_like();
        let cfg = SearchConfig {
            target_anomalies: 1,
            max_samples: 20000,
            time_score_threshold: 0.05,
            ..SearchConfig::paper_chain()
        };
        let result = run_random_search(&expr, &mut exec, &cfg);
        if result.anomalies.is_empty() {
            // Chain anomalies are rare; an empty result still exercises the CSV.
            let csv = thickness_distribution_csv(&[], 5);
            assert_eq!(csv.lines().count(), 1);
            return;
        }
        let scans = crate::lines::scan_lines_around(
            &expr,
            &mut exec,
            &result.anomalies,
            &LineConfig::paper(),
        );
        let csv = thickness_distribution_csv(&scans, 5);
        assert_eq!(csv.lines().count(), scans.len() + 1);
        assert!(csv.contains("d0,0,"));
    }
}
