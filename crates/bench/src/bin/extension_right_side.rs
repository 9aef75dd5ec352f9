//! Extension beyond the paper: the **right-side** scenario family and the
//! per-call **backend crossover** at small orders.
//!
//! Part 1 runs the Experiment-1 random search over expressions whose
//! structured operand sits on the *right* of the product (`B·L`, `B·L⁻¹`,
//! `A·S`), which lower to the `side = Right` TRMM/TRSM/SYMM kernels. Their
//! FLOP counts mirror the left-side twins exactly, so any abundance
//! difference is purely a property of the sided FLOP-rate surfaces.
//!
//! Part 2 sweeps the registered backends over small square orders to locate
//! the native/reference crossover, then demonstrates the per-call backend
//! assignment on a chain that straddles it: the benchmark-driven argmin
//! mixes backends and is never slower (per the model) than pinning either
//! one everywhere — the paper's discriminant argument applied one level
//! below algorithm selection. The headline numbers land in
//! `BENCH_right_side.json` for the perf trajectory.
//!
//! ```text
//! cargo run --release -p lamb-bench --bin extension_right_side [-- --scale 0.5]
//! ```

use lamb_bench::RunOptions;
use lamb_experiments::csvout::write_text;
use lamb_experiments::{right_side_scenarios, sweep_csv, sweep_scenarios, Scenario, SearchConfig};
use lamb_expr::{Expression, KernelOp, TreeExpression};
use lamb_matrix::{Side, Trans, Uplo};
use lamb_perfmodel::calibrate::single_call_algorithm;
use lamb_perfmodel::{BackendId, Executor, SimulatedExecutor};
use lamb_select::{assign_backends, pinned_backends};

/// One row of the small-order backend-crossover sweep.
struct CrossoverRow {
    size: usize,
    kernel: &'static str,
    native_seconds: f64,
    reference_seconds: f64,
}

impl CrossoverRow {
    fn winner(&self) -> &'static str {
        if self.reference_seconds < self.native_seconds {
            "reference"
        } else {
            "native"
        }
    }
}

/// Time one square op under both backends on the simulator.
fn crossover_row(
    sim: &mut SimulatedExecutor,
    kernel: &'static str,
    op: KernelOp,
    size: usize,
) -> CrossoverRow {
    let alg = single_call_algorithm(op);
    CrossoverRow {
        size,
        kernel,
        native_seconds: sim.time_isolated_call_on(&alg, 0, BackendId::Native),
        reference_seconds: sim.time_isolated_call_on(&alg, 0, BackendId::Reference),
    }
}

/// The headline numbers as a machine-readable perf data point, emitted as
/// `BENCH_right_side.json` for the perf trajectory.
#[allow(clippy::too_many_arguments)]
fn bench_json(
    right_abundance: f64,
    left_abundance: f64,
    crossover_order: usize,
    mixed: bool,
    assigned_seconds: f64,
    native_pin_seconds: f64,
    reference_pin_seconds: f64,
    samples: usize,
) -> String {
    format!(
        "{{\n  \"bench\": \"right_side\",\n  \"family\": \"right_side_structured\",\n  \
         \"samples_per_scenario\": {samples},\n  \
         \"right_side_abundance\": {right_abundance:.4},\n  \
         \"left_side_abundance\": {left_abundance:.4},\n  \
         \"gemm_crossover_order\": {crossover_order},\n  \
         \"assignment_is_mixed\": {mixed},\n  \
         \"assigned_seconds\": {assigned_seconds:.6},\n  \
         \"native_pin_seconds\": {native_pin_seconds:.6},\n  \
         \"reference_pin_seconds\": {reference_pin_seconds:.6}\n}}\n"
    )
}

fn main() {
    let opts = RunOptions::from_env();

    // Part 1: anomaly abundance across the right-side family, with the
    // left-side twins and a GEMM-only chain as baselines.
    let mut scenarios = right_side_scenarios();
    scenarios.push(Scenario::new("trmm_l_twin", "L[lower]*B"));
    scenarios.push(Scenario::new("symm_l_twin", "S[spd]*B"));
    scenarios.push(Scenario::new("chain4", "A*B*C*D"));
    let samples = ((4000.0 * opts.scale) as usize).max(200);
    let config = SearchConfig {
        target_anomalies: usize::MAX,
        max_samples: samples,
        seed: opts.seed,
        ..SearchConfig::paper_aatb()
    };
    let mut executor = opts.build_executor();

    println!(
        "anomaly abundance across right-side scenarios (threshold 10%, {} samples each)",
        samples
    );
    println!(
        "{:>16} {:<22} {:>6} {:>12} {:>12} {:>12}",
        "scenario", "expression", "dims", "algorithms", "anomalies", "abundance"
    );
    let rows = sweep_scenarios(&scenarios, executor.as_mut(), &config);
    for row in &rows {
        println!(
            "{:>16} {:<22} {:>6} {:>12} {:>12} {:>11.2}%",
            row.name,
            row.expression,
            row.num_dims,
            row.num_algorithms,
            row.result.anomalies.len(),
            100.0 * row.result.abundance()
        );
    }

    // Right-side scenarios with more than one realisation versus their
    // left-side twins (pure solves have a single realisation each).
    let abundance_of = |pred: &dyn Fn(&str) -> bool| {
        let vals: Vec<f64> = rows
            .iter()
            .filter(|r| pred(&r.name) && r.num_algorithms > 1)
            .map(|r| r.result.abundance())
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let right_abundance = abundance_of(&|n| n.contains("_r"));
    let left_abundance = abundance_of(&|n| n.ends_with("_twin"));

    match write_text(&opts.out_dir, "right_side_scenarios.csv", &sweep_csv(&rows)) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("cannot write CSV: {e}"),
    }

    // Part 2: the native/reference crossover at small square orders. The
    // reference backend's flat cost profile beats the blocked native kernels
    // below a small order, above which the native rate pulls away.
    let mut sim = SimulatedExecutor::paper_like();
    println!("\nbackend crossover at small orders (simulated, isolated benchmarks)");
    println!(
        "{:>6} {:>8} {:>14} {:>14} {:>10}",
        "n", "kernel", "native (s)", "reference (s)", "winner"
    );
    let mut crossover_rows: Vec<CrossoverRow> = Vec::new();
    for &size in &[8usize, 12, 16, 24, 32, 48, 64, 96] {
        let gemm = KernelOp::Gemm {
            transa: Trans::No,
            transb: Trans::No,
            m: size,
            n: size,
            k: size,
        };
        let trmm_r = KernelOp::Trmm {
            side: Side::Right,
            uplo: Uplo::Lower,
            trans: Trans::No,
            m: size,
            n: size,
        };
        crossover_rows.push(crossover_row(&mut sim, "gemm", gemm, size));
        crossover_rows.push(crossover_row(&mut sim, "trmm_r", trmm_r, size));
    }
    for row in &crossover_rows {
        println!(
            "{:>6} {:>8} {:>14.3e} {:>14.3e} {:>10}",
            row.size,
            row.kernel,
            row.native_seconds,
            row.reference_seconds,
            row.winner()
        );
    }
    let crossover_order = crossover_rows
        .iter()
        .filter(|r| r.kernel == "gemm" && r.winner() == "native")
        .map(|r| r.size)
        .min()
        .unwrap_or(0);
    assert!(
        crossover_rows.iter().any(|r| r.winner() == "reference"),
        "the reference backend should win somewhere at small orders"
    );
    assert!(
        crossover_order > 0,
        "the native backend should win by order 96"
    );

    let crossover_csv: String =
        std::iter::once("size,kernel,native_seconds,reference_seconds,winner".to_string())
            .chain(crossover_rows.iter().map(|r| {
                format!(
                    "{},{},{:.9},{:.9},{}",
                    r.size,
                    r.kernel,
                    r.native_seconds,
                    r.reference_seconds,
                    r.winner()
                )
            }))
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
    match write_text(&opts.out_dir, "backend_crossover.csv", &crossover_csv) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("cannot write CSV: {e}"),
    }

    // Part 3: the per-call assignment on a right-side chain that straddles
    // the crossover — one large GEMM (native territory) feeding a tiny
    // right-side TRMM (reference territory).
    let expr = TreeExpression::parse("A*B*L[lower]").expect("right-side chain parses");
    let dims = vec![360, 360, 10];
    let algs = expr.algorithms(&dims).expect("right-side chain enumerates");
    let alg = algs
        .iter()
        .min_by_key(|a| a.flops())
        .expect("at least one algorithm");
    let assignment = assign_backends(alg, &mut sim);
    let native_pin = pinned_backends(alg, &mut sim, BackendId::Native);
    let reference_pin = pinned_backends(alg, &mut sim, BackendId::Reference);
    println!(
        "\nper-call assignment for A*B*L[lower] at dims {dims:?} (algorithm `{}`):",
        alg.name
    );
    for choice in &assignment.per_call {
        println!(
            "  [{}] {:<28} -> {:<10} {:.3e} s",
            choice.call_index, choice.label, choice.backend, choice.seconds
        );
    }
    println!(
        "  assigned {:.3e} s | native pin {:.3e} s | reference pin {:.3e} s",
        assignment.seconds, native_pin.seconds, reference_pin.seconds
    );
    assert!(
        assignment.seconds <= native_pin.seconds + 1e-15
            && assignment.seconds <= reference_pin.seconds + 1e-15,
        "the per-call argmin must not lose to either pin"
    );

    match write_text(
        &opts.out_dir,
        "BENCH_right_side.json",
        &bench_json(
            right_abundance,
            left_abundance,
            crossover_order,
            assignment.is_mixed(),
            assignment.seconds,
            native_pin.seconds,
            reference_pin.seconds,
            samples,
        ),
    ) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write JSON: {e}"),
    }

    println!(
        "\nreading: the right-side scenarios average {:.2}% anomaly abundance versus\n\
         {:.2}% for their left-side twins — the sided kernels inherit the same\n\
         FLOPs-versus-rate tension, so the discriminant argument carries over\n\
         unchanged. Below order {} the reference backend's flat cost profile\n\
         beats the blocked native kernels, and the per-call assignment {} the\n\
         backends on the straddling chain ({:.1}% under the best pin).",
        100.0 * right_abundance,
        100.0 * left_abundance,
        crossover_order,
        if assignment.is_mixed() {
            "mixes"
        } else {
            "does not mix"
        },
        100.0 * (1.0 - assignment.seconds / native_pin.seconds.min(reference_pin.seconds)),
    );
}
