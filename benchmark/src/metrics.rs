//! Metric definitions (the contract `BENCHMARK.json` records) and the small
//! statistics the harness reports with.

use lamb::kernels::TileVariant;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports. `failure_share` is carried
/// by the `failed` / `attempted` counts of the result line (a metric that is
/// zero on a healthy run cannot have a relative bound).
///
/// Every timing carries the widest bound the contract allows. The sandbox the
/// baseline was measured on sets that floor, not the harness: a fixed
/// `mul_add` loop's one-second medians range over 0.93–1.28 of their own
/// median within 30 s, and the median of ten runs of a workload moved by up
/// to 15 % between two sets half an hour apart (`benchmark/README.md`,
/// "Steadiness"). A bound a same-code rerun can break flags nothing.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "warm_start_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "selection_efficiency",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Kernel operations probed on square operands.
pub const PROBE_OPS: [&str; 8] = [
    "gemm", "syrk", "symm", "trmm", "trsm", "potrf", "getrf", "qr",
];
/// Right-side variants, probed at one size.
pub const PROBE_OPS_RIGHT: [&str; 3] = ["symm_r", "trmm_r", "trsm_r"];
/// Operand orders of the kernel probes.
pub const PROBE_SIZES: [usize; 4] = [16, 64, 256, 1024];
/// Kernel families execution time is attributed to.
pub const EXEC_FAMILIES: [&str; 8] = [
    "gemm", "syrk", "symm", "trmm", "trsm", "potrf", "getrf", "other",
];

/// The per-layer metrics of a traced run: `(name, unit, better)`. A metric a
/// workload does not exercise reads 0 with N = 0.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    use Better::{Higher, Lower};
    let mut m: Vec<(String, &'static str, Better)> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        m.push((name.to_string(), unit, better));
    };
    add("machine.peak_gflops", "GFLOP/s", Higher);
    add("machine.peak1_gflops", "GFLOP/s", Higher);
    add("machine.nproc", "count", Higher);
    add("matrix.fill_gbs", "GB/s", Higher);
    add("matrix.zeros_gbs", "GB/s", Higher);
    for op in PROBE_OPS {
        for n in PROBE_SIZES {
            add(&format!("kernels.{op}.n{n}.frac_peak1"), "ratio", Higher);
        }
    }
    for op in PROBE_OPS_RIGHT {
        add(&format!("kernels.{op}.n256.frac_peak1"), "ratio", Higher);
    }
    add("kernels.driver.n256.frac_peak1", "ratio", Higher);
    for tile in TileVariant::ALL {
        add(
            &format!("kernels.microkernel.{}.frac_peak1", tile.tag()),
            "ratio",
            Higher,
        );
    }
    add("kernels.pack_a.gbs", "GB/s", Higher);
    add("kernels.pack_b.gbs", "GB/s", Higher);
    add("kernels.pack_a_trans.gbs", "GB/s", Higher);
    add("kernels.gemm.n256.pack_share_est", "ratio", Lower);
    add("kernels.gemm.n1024.pack_share_est", "ratio", Lower);
    for n in PROBE_SIZES {
        add(&format!("kernels.gemm.n{n}.par_speedup"), "ratio", Higher);
    }
    add("kernels.gemm.n16.call_us", "us", Lower);
    for n in [16, 32, 64] {
        add(
            &format!("kernels.gemm.n{n}.ref_over_native"),
            "ratio",
            Higher,
        );
    }
    add("kernels.pack_growth_events", "count", Lower);
    add("expr.parse_us", "us", Lower);
    add("expr.enumerate_us", "us", Lower);
    add("expr.cse_us", "us", Lower);
    add("expr.algorithms_per_request", "count", Lower);
    add("expr.calls_per_algorithm", "count", Lower);
    add("verify.verify_us", "us", Lower);
    add("verify.diagnostics", "count", Lower);
    add("perfmodel.predict_us", "us", Lower);
    add("select.select_us", "us", Lower);
    add("select.assign_backends_us", "us", Lower);
    add("plan.plan_us", "us", Lower);
    add("plan.unattributed_us", "us", Lower);
    add("plan.reconcile_pct", "%", Lower);
    add("plan.batch_ms", "ms", Lower);
    add("plan.cache_hits", "count", Higher);
    add("plan.cache_misses", "count", Lower);
    add("plan.duplicates_removed", "count", Lower);
    add("perfmodel.isolated_call_ms", "ms", Lower);
    add("perfmodel.calibration_keys", "count", Lower);
    add("perfmodel.store_save_ms", "ms", Lower);
    add("perfmodel.store_load_ms", "ms", Lower);
    add("perfmodel.store_bytes", "B", Lower);
    add("perfmodel.execute_ms", "ms", Lower);
    add("perfmodel.execute_kernel_share", "ratio", Higher);
    for family in EXEC_FAMILIES {
        add(&format!("perfmodel.exec_share.{family}"), "ratio", Lower);
    }
    add("plan.factor_cache_hits", "count", Higher);
    add("plan.factor_reused_calls", "count", Higher);
    add("plan.factor_resident_mb", "MiB", Lower);
    add("perfmodel.pred_rel_err_p50", "ratio", Lower);
    add("perfmodel.pred_rel_err_p90", "ratio", Lower);
    add("select.minflops_efficiency", "ratio", Higher);
    add("select.chosen_is_minflops_share", "ratio", Higher);
    add("select.anomalies_measured", "count", Lower);
    add("select.anomalies_predicted", "count", Lower);
    add("select.anomaly_true_positives", "count", Higher);
    add("trace.overhead_pct", "%", Lower);
    m
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub n: usize,
}

impl Metric {
    /// A reported value.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
        }
    }
}

/// Whether a metric name is well formed (`[A-Za-z0-9_.-]+`, at most 64).
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`; 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the percentiles 50, 75, 90, 95 and 99 that leaves at least
/// ten samples beyond it; 50 when even the median does not.
pub fn highest_supported_percentile(n: usize) -> f64 {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive); needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// The quiet-machine summary of repeated measurements of one duration: the
/// fifth percentile (the minimum below 20 samples); 0 for no samples. On a
/// shared sandbox interference only ever adds time, in bursts that last from
/// milliseconds to seconds, so the low end of the distribution is the
/// reproducible one: over ten runs the median of a run's samples spread two
/// to five times as widely as this does. The fifth percentile rather than the
/// minimum keeps one sample from setting the value where there are many.
pub fn quiet(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let pos = 0.05 * (v.len() + 1) as f64;
    if v.is_empty() {
        0.0
    } else if pos <= 1.0 {
        v[0]
    } else {
        let j = pos.floor() as usize;
        let delta = pos - j as f64;
        v[j - 1] * (1.0 - delta) + v[j] * delta
    }
}

/// Geometric mean; 0 for no samples.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _, _)| n));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(per_layer().len() <= 128);
        assert!(!valid_name("has space") && !valid_name("") && !valid_name(".x"));
    }

    #[test]
    fn bounds_respect_the_contract() {
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(199), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(999), 95.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(40), 75.0);
        assert_eq!(highest_supported_percentile(12), 50.0);
        // p95 of 200 samples leaves exactly ten beyond.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&v, 95.0);
        assert_eq!(v.iter().filter(|x| **x > p95).count(), 10);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quiet_is_the_fifth_percentile_and_never_below_the_minimum() {
        assert_eq!(quiet(&[]), 0.0);
        assert_eq!(quiet(&[3.0, 1.0, 2.0]), 1.0);
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(quiet(&v), 1.0);
        // statistics.quantiles(range(1, 100), n=20)[0] == 5.0
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!((quiet(&v) - 5.0).abs() < 1e-12);
        // One outlier on the fast side does not set the value of many samples.
        let mut v = vec![10.0; 99];
        v[0] = 1.0;
        assert_eq!(quiet(&v), 10.0);
    }
}
