//! Experiment 2: axis-aligned lines through anomalous regions (Section 3.4.2).
//!
//! For every anomaly found by Experiment 1 and every dimension of the
//! instance space, the line through the anomaly along that dimension is
//! traversed in steps of 10 in both directions. Each visited instance is
//! classified (threshold 5%), holes of up to two non-anomalous instances are
//! tolerated, and the region boundary/thickness is derived from the
//! classifications. A walk that reaches an instance outside the expression's
//! domain ends there, as it does at the edge of the box.

use crate::config::LineConfig;
use crate::region::{find_boundary, RegionExtent};
use crate::search::{judge, pipeline, AnomalyRecord};
use lamb_expr::{Expression, SharedStr};
use lamb_perfmodel::Executor;
use lamb_plan::{PlanExecution, Planner};

/// One instance visited during a line traversal.
#[derive(Debug, Clone, PartialEq)]
pub struct LinePoint {
    /// The instance's dimension tuple.
    pub dims: Vec<usize>,
    /// Value of the traversed dimension at this point.
    pub value: usize,
    /// The names of the instance's planned algorithms, in the plan's
    /// candidate order.
    pub names: Vec<SharedStr>,
    /// The one execution of those algorithms: whole and per-call timings in
    /// the same order, and the verdict at the threshold from [`LineConfig`].
    pub execution: PlanExecution,
}

/// The traversal of one line (one anomaly, one dimension).
#[derive(Debug, Clone, PartialEq)]
pub struct LineScan {
    /// The anomaly at the centre of the line.
    pub anomaly_dims: Vec<usize>,
    /// Index of the traversed dimension.
    pub dimension: usize,
    /// All visited instances, sorted by increasing dimension value
    /// (the anomaly itself included).
    pub points: Vec<LinePoint>,
    /// The detected region extent along this line.
    pub region: RegionExtent,
}

impl LineScan {
    /// Thickness of the region along this line (`b - a - 1`).
    #[must_use]
    pub fn thickness(&self) -> usize {
        self.region.thickness()
    }

    /// Number of instances visited.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the scan visited no instances: only when the centre of the
    /// line itself lies outside the expression's domain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Classify the instance obtained by replacing dimension `dim` of `base` with
/// `value`, routed through the [`Planner`] pipeline; `None` outside the
/// expression's domain.
fn classify_at(
    planner: &Planner<'_>,
    executor: &mut dyn Executor,
    base: &[usize],
    dim: usize,
    value: usize,
) -> Option<LinePoint> {
    let mut dims = base.to_vec();
    dims[dim] = value;
    let (plan, execution) = judge(planner, executor, &dims)?;
    Some(LinePoint {
        dims,
        value,
        names: plan.algorithms.into_iter().map(|alg| alg.name).collect(),
        execution,
    })
}

/// Traverse the line through `anomaly` along dimension `dim`.
pub fn scan_line(
    expr: &dyn Expression,
    executor: &mut dyn Executor,
    anomaly: &[usize],
    dim: usize,
    config: &LineConfig,
) -> LineScan {
    let planner = pipeline(expr, config.time_score_threshold);
    let centre_value = anomaly[dim];
    let Some(centre) = classify_at(&planner, executor, anomaly, dim, centre_value) else {
        return LineScan {
            anomaly_dims: anomaly.to_vec(),
            dimension: dim,
            points: Vec::new(),
            region: RegionExtent {
                lower: centre_value,
                upper: centre_value,
            },
        };
    };

    // Walk outwards in both directions until the region provably ends
    // (end_run consecutive non-anomalies) or the edge of the box or of the
    // expression's domain is reached.
    let mut walk = |direction: i64| -> (Vec<LinePoint>, usize) {
        let mut points = Vec::new();
        let mut flags = Vec::new();
        let mut clean_run = 0usize;
        let mut step_index = 1i64;
        loop {
            let value = centre_value as i64 + direction * step_index * config.step as i64;
            if value < config.box_min as i64 || value > config.box_max as i64 {
                break;
            }
            let value = value as usize;
            let Some(point) = classify_at(&planner, executor, anomaly, dim, value) else {
                break;
            };
            let is_anomaly = point.execution.is_anomaly();
            flags.push((value, is_anomaly));
            points.push(point);
            if is_anomaly {
                clean_run = 0;
            } else {
                clean_run += 1;
                if clean_run >= config.end_run {
                    break;
                }
            }
            step_index += 1;
        }
        let boundary = find_boundary(centre_value, &flags, config.end_run);
        (points, boundary)
    };

    let (up_points, upper) = walk(1);
    let (down_points, lower) = walk(-1);

    let mut points: Vec<LinePoint> = down_points.into_iter().rev().collect();
    points.push(centre);
    points.extend(up_points);

    LineScan {
        anomaly_dims: anomaly.to_vec(),
        dimension: dim,
        points,
        region: RegionExtent { lower, upper },
    }
}

/// Run Experiment 2: scan all axis-aligned lines through all (or the first
/// `max_anomalies`) anomalies.
pub fn scan_lines_around(
    expr: &dyn Expression,
    executor: &mut dyn Executor,
    anomalies: &[AnomalyRecord],
    config: &LineConfig,
) -> Vec<LineScan> {
    let limit = config.max_anomalies.unwrap_or(usize::MAX);
    let mut scans = Vec::new();
    for anomaly in anomalies.iter().take(limit) {
        for dim in 0..expr.num_dims() {
            scans.push(scan_line(expr, executor, &anomaly.dims, dim, config));
        }
    }
    scans
}

/// Group region thicknesses by traversed dimension: entry `d` of the result
/// holds the thicknesses of every scanned line along dimension `d`, in scan
/// order. This is the data behind the paper's Figures 7 and 10.
#[must_use]
pub fn thickness_by_dimension(scans: &[LineScan], num_dims: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); num_dims];
    for scan in scans {
        if scan.dimension < num_dims {
            out[scan.dimension].push(scan.thickness());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchConfig;
    use crate::search::run_random_search;
    use lamb_expr::TreeExpression;
    use lamb_perfmodel::SimulatedExecutor;

    fn find_one_anomaly() -> AnomalyRecord {
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let mut exec = SimulatedExecutor::paper_like();
        let cfg = SearchConfig {
            target_anomalies: 1,
            max_samples: 5000,
            ..SearchConfig::paper_aatb()
        };
        run_random_search(&expr, &mut exec, &cfg).anomalies[0].clone()
    }

    #[test]
    fn line_scan_contains_the_anomaly_and_is_sorted() {
        let anomaly = find_one_anomaly();
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let mut exec = SimulatedExecutor::paper_like();
        let scan = scan_line(&expr, &mut exec, &anomaly.dims, 0, &LineConfig::paper());
        assert!(!scan.is_empty());
        assert!(scan.points.windows(2).all(|w| w[0].value < w[1].value));
        // The centre value is among the visited points and anomalous at 5%.
        let centre = scan
            .points
            .iter()
            .find(|p| p.value == anomaly.dims[0])
            .expect("centre present");
        assert!(centre.execution.is_anomaly());
        // The region extent brackets the centre.
        assert!(scan.region.lower <= anomaly.dims[0]);
        assert!(scan.region.upper >= anomaly.dims[0]);
    }

    #[test]
    fn scans_cover_every_dimension() {
        let anomaly = find_one_anomaly();
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let mut exec = SimulatedExecutor::paper_like();
        let scans = scan_lines_around(&expr, &mut exec, &[anomaly], &LineConfig::paper());
        assert_eq!(scans.len(), 3);
        let dims: Vec<usize> = scans.iter().map(|s| s.dimension).collect();
        assert_eq!(dims, vec![0, 1, 2]);
        for scan in &scans {
            assert!(scan.thickness() < 1200);
        }
    }

    #[test]
    fn thickness_grouping_matches_scan_dimensions() {
        let anomaly = find_one_anomaly();
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let mut exec = SimulatedExecutor::paper_like();
        let scans = scan_lines_around(&expr, &mut exec, &[anomaly], &LineConfig::paper());
        let grouped = thickness_by_dimension(&scans, 3);
        assert_eq!(grouped.len(), 3);
        assert!(grouped.iter().all(|g| g.len() == 1));
    }

    #[test]
    fn max_anomalies_cap_limits_work() {
        let anomaly = find_one_anomaly();
        let anomalies = vec![anomaly.clone(), anomaly];
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let mut exec = SimulatedExecutor::paper_like();
        let cfg = LineConfig::paper().with_max_anomalies(1);
        let scans = scan_lines_around(&expr, &mut exec, &anomalies, &cfg);
        assert_eq!(scans.len(), 3);
    }

    #[test]
    fn points_respect_the_search_box() {
        let anomaly = find_one_anomaly();
        let expr = TreeExpression::parse("A*A^T*B").unwrap();
        let mut exec = SimulatedExecutor::paper_like();
        let cfg = LineConfig::paper();
        for dim in 0..3 {
            let scan = scan_line(&expr, &mut exec, &anomaly.dims, dim, &cfg);
            assert!(scan
                .points
                .iter()
                .all(|p| p.value >= cfg.box_min && p.value <= cfg.box_max));
            // All points lie on the step-10 grid centred at the anomaly.
            let centre = anomaly.dims[dim] as i64;
            assert!(scan
                .points
                .iter()
                .all(|p| (p.value as i64 - centre) % cfg.step as i64 == 0));
        }
    }

    #[test]
    fn a_walk_ends_where_the_domain_of_the_expression_does() {
        // `A^+*b` with dims (columns, rows, rhs) needs columns <= rows: the
        // walk up dimension 0 from (100, 150, 5) stops at 150 as it would at
        // the edge of the box, and a wide centre has no line at all.
        let expr = lamb_expr::TreeExpression::parse("A^+*b").unwrap();
        let mut exec = SimulatedExecutor::paper_like();
        let mut cfg = LineConfig::paper();
        cfg.end_run = usize::MAX; // only an edge ends this walk
        let scan = scan_line(&expr, &mut exec, &[100, 150, 5], 0, &cfg);
        assert_eq!(scan.points.last().map(|p| p.value), Some(150));
        assert_eq!(scan.region.upper, 150);
        let wide = scan_line(&expr, &mut exec, &[300, 150, 5], 0, &cfg);
        assert!(wide.is_empty() && wide.thickness() == 0);
    }
}
