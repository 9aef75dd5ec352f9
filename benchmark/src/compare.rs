//! `compare a.json b.json`: the before/after table every later performance
//! claim is read from.
//!
//! Each file is a result set written by `all`. Per workload and end-to-end
//! metric the table shows both medians, their ratio (b over a), the metric's
//! bound and a verdict:
//!
//! * `worse` / `better` — b's median is beyond the bound from a's;
//! * `same` — within the bound;
//! * `unresolved` — the run-to-run spread of either side (distance between
//!   the quartiles over the median) exceeds the bound, so the medians cannot
//!   settle it, unless every run of one side beats every run of the other.

use crate::json::{Value, ValueExt};
use crate::metrics::{median, quartiles, Better, EndToEnd, END_TO_END};
use std::collections::BTreeMap;

/// `(workload, metric)` → values of every untraced run in a result set.
type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Collect the end-to-end values of a result set, plus its failed-request
/// count.
///
/// # Errors
///
/// A document that is not a result set.
pub fn samples(doc: &Value) -> Result<(Samples, f64), String> {
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("not a result set: no `runs` array")?;
    let mut out = Samples::new();
    let mut failed = 0.0;
    for run in runs {
        if run.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("a run has no `workload`")?;
        failed += run.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        let metrics = run
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or("a run has no `metrics`")?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok((out, failed))
}

/// Spread of a side: quartile distance over the median; 0 with fewer than
/// three runs (nothing to estimate it from).
fn spread(values: &[f64]) -> f64 {
    match (values.len() >= 3, quartiles(values)) {
        (true, Some((q1, q3))) if median(values) != 0.0 => (q3 - q1) / median(values).abs(),
        _ => 0.0,
    }
}

/// One row's verdict.
pub fn verdict(def: &EndToEnd, a: &[f64], b: &[f64]) -> &'static str {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return "unresolved";
    }
    // Positive when b is worse than a.
    let worsening = match def.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    if spread(a).max(spread(b)) > def.bound {
        let better = |x: f64, y: f64| match def.better {
            Better::Lower => x < y,
            Better::Higher => x > y,
        };
        let all = |f: &dyn Fn(f64, f64) -> bool| a.iter().all(|&x| b.iter().all(|&y| f(x, y)));
        return if all(&|x, y| better(y, x)) {
            "better"
        } else if all(&|x, y| better(x, y)) && worsening > def.bound {
            "worse"
        } else {
            "unresolved"
        };
    }
    if worsening > def.bound {
        "worse"
    } else if worsening < -def.bound {
        "better"
    } else {
        "same"
    }
}

/// Print the comparison table. Returns whether anything is worse.
///
/// # Errors
///
/// Malformed result sets.
pub fn compare(a: &Value, b: &Value) -> Result<bool, String> {
    let ((sa, failed_a), (sb, failed_b)) = (samples(a)?, samples(b)?);
    println!(
        "{:<15} {:<21} {:>12} {:>12} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "b/a", "bound", "spread"
    );
    let mut any_worse = false;
    for ((workload, name), va) in &sa {
        let Some(def) = END_TO_END.iter().find(|d| d.name == name) else {
            continue;
        };
        let Some(vb) = sb.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let v = verdict(def, va, vb);
        any_worse |= v == "worse";
        println!(
            "{:<15} {:<21} {:>12.5} {:>12.5} {:>9.4} {:>6.0}% {:>6.1}%  {} (N={}/{})",
            workload,
            name,
            median(va),
            median(vb),
            median(vb) / median(va),
            def.bound * 100.0,
            spread(va).max(spread(vb)) * 100.0,
            v,
            va.len(),
            vb.len()
        );
    }
    println!("failed requests: a={failed_a} b={failed_b} (any increase is a regression)");
    if failed_b > failed_a {
        any_worse = true;
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with a 10 % bound, whatever the real table says.
    fn def(better: Better) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "u",
            better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lat = &def(Better::Lower);
        assert_eq!(verdict(lat, &[10.0], &[10.5]), "same");
        assert_eq!(verdict(lat, &[10.0], &[11.5]), "worse");
        assert_eq!(verdict(lat, &[10.0], &[8.0]), "better");
        let thr = &def(Better::Higher);
        assert_eq!(verdict(thr, &[100.0], &[85.0]), "worse");
        assert_eq!(verdict(thr, &[100.0], &[120.0]), "better");
        assert_eq!(verdict(thr, &[100.0], &[95.0]), "same");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_runs_separate() {
        let lat = &def(Better::Lower);
        let noisy = [8.0, 10.0, 12.0, 9.0, 13.0];
        assert_eq!(
            verdict(lat, &noisy, &[9.0, 11.0, 12.5, 10.0, 14.0]),
            "unresolved"
        );
        // Every run of b beats every run of a: resolved despite the spread.
        assert_eq!(verdict(lat, &noisy, &[5.0, 6.0, 7.0, 5.5, 6.5]), "better");
        assert_eq!(verdict(lat, &[5.0, 6.0, 7.0, 5.5, 6.5], &noisy), "worse");
    }

    #[test]
    fn result_sets_are_read_per_workload_and_metric() {
        let doc = Value::parse(
            r#"{"runs": [
                {"workload": "w", "trace": 0, "failed": 0, "metrics": {"latency_p50_ms": {"value": 2.0, "unit": "ms"}}},
                {"workload": "w", "trace": 0, "failed": 1, "metrics": {"latency_p50_ms": {"value": 4.0, "unit": "ms"}}},
                {"workload": "w", "trace": 1, "failed": 0, "metrics": {"expr.parse_us": {"value": 1.0, "unit": "us"}}}
            ]}"#,
        )
        .unwrap();
        let (s, failed) = samples(&doc).unwrap();
        assert_eq!(
            s[&("w".to_string(), "latency_p50_ms".to_string())],
            vec![2.0, 4.0]
        );
        assert_eq!(s.len(), 1, "traced runs are not compared");
        assert_eq!(failed, 1.0);
        assert!(samples(&Value::Null).is_err());
    }
}
