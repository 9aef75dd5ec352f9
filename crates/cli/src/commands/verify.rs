//! `lamb verify` — run the static analyser over enumerated algorithms.
//!
//! Every algorithm the enumerator emits for the requested instances is
//! checked by `lamb-verify`'s five passes (def-use, shape-flow,
//! structure-flow, cost-audit, alias-safety); any error-severity diagnostic
//! makes the command fail. With `--store`, the calibration store's timing
//! table is additionally linted for canonical keys and finite times.
//!
//! With `--cse-parity`, the command instead plans every built-in scenario
//! family twice — common-subexpression elimination on and off — and checks
//! the two chosen algorithms compute numerically identical results
//! (difference within `1e-10` of the result's magnitude).
//!
//! ```text
//! lamb verify --expr "A*A^T*B" --dims 80,514,768
//! lamb verify aatb 80 514 768
//! lamb verify --file workload.txt
//! lamb verify --demo 5 --seed 7                 all scenario families
//! lamb verify --store results/calibration.json --demo 3
//! lamb verify --cse-parity                      CSE on/off numerical parity sweep
//! ```

use super::common;
use lamb_experiments::{all_scenarios, factor_reuse_scenarios};
use lamb_expr::Expression;
use lamb_perfmodel::CalibrationStore;
use lamb_plan::BatchRequest;
use lamb_verify::{verify_algorithm, verify_call_table};

/// Run the subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    let opts = common::parse(args)?;
    if opts.cse_parity {
        return run_cse_parity();
    }

    // The workload: an instance given inline, a request file, or the
    // generated scenario batch.
    let mut collected: Vec<(String, Vec<lamb_expr::Algorithm>)> = Vec::new();
    if opts.exprs_file.is_none() && opts.demo.is_none() {
        if opts.expr_text.is_none() && opts.positional.is_empty() {
            if opts.store.is_some() {
                // Store-only lint: no algorithms to verify.
                return finish(verify_instances(collected.into_iter(), &opts)?);
            }
            return Err(
                "missing workload: give --expr/--dims, a named expression, --file FILE or --demo N"
                    .into(),
            );
        }
        let (name, expr) = opts.expression()?;
        let dims = opts.dims(expr.num_dims())?;
        let algorithms = expr
            .algorithms_pruned(&dims, opts.top_k)
            .map_err(|e| format!("enumeration failed: {e}"))?;
        collected.push((format!("{name} {dims:?}"), algorithms));
        return finish(verify_instances(collected.into_iter(), &opts)?);
    }

    let requests: Vec<BatchRequest> = if let Some(path) = &opts.exprs_file {
        let contents = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read --file {}: {e}", path.display()))?;
        BatchRequest::parse_file(&contents).map_err(|e| e.to_string())?
    } else {
        lamb_experiments::scenario_batch_requests(
            &all_scenarios(),
            opts.demo.unwrap_or(1),
            opts.seed,
            60,
            900,
        )
    };
    for req in requests {
        let algorithms = req
            .expr
            .algorithms_pruned(&req.dims, opts.top_k)
            .map_err(|e| format!("enumeration failed for `{}`: {e}", req.expr.text()))?;
        collected.push((format!("{} {:?}", req.expr.text(), req.dims), algorithms));
    }
    finish(verify_instances(collected.into_iter(), &opts)?)
}

/// Plan every scenario family with CSE on and off and check the two chosen
/// algorithms agree numerically: the CSE rewrite must be a pure cost
/// optimisation, never a semantic change.
fn run_cse_parity() -> Result<(), String> {
    use lamb_matrix::ops::{max_abs, max_abs_diff};
    use lamb_perfmodel::MeasuredExecutor;
    use lamb_plan::Planner;

    let executor = MeasuredExecutor::quick();
    let mut families = 0usize;
    for scenario in all_scenarios()
        .iter()
        .chain(factor_reuse_scenarios().iter())
    {
        // Small, distinct dimensions: large enough to exercise blocking,
        // small enough that the untimed numerical execution stays cheap.
        let dims: Vec<usize> = (0..scenario.expression.num_dims())
            .map(|i| 24 + 8 * i)
            .collect();
        let with_cse = Planner::for_expression(&scenario.expression)
            .plan(&dims)
            .map_err(|e| format!("{}: cannot plan with CSE: {e}", scenario.name))?;
        let without_cse = Planner::for_expression(&scenario.expression)
            .cse(false)
            .plan(&dims)
            .map_err(|e| format!("{}: cannot plan without CSE: {e}", scenario.name))?;
        let shared = executor.compute_result(with_cse.chosen_algorithm());
        let raw = executor.compute_result(without_cse.chosen_algorithm());
        let diff = max_abs_diff(&shared, &raw)
            .map_err(|e| format!("{}: result shapes disagree: {e}", scenario.name))?;
        let tolerance = 1e-10 * max_abs(&raw).max(1.0);
        if diff > tolerance {
            return Err(format!(
                "{}: CSE changed the numerics: |shared - raw| = {diff:e} > {tolerance:e} \
                 (chosen `{}` vs `{}`)",
                scenario.name,
                with_cse.chosen_algorithm().name,
                without_cse.chosen_algorithm().name
            ));
        }
        println!(
            "ok   {} {dims:?}: CSE on/off agree to {diff:e} (chosen `{}` / `{}`)",
            scenario.name,
            with_cse.chosen_algorithm().name,
            without_cse.chosen_algorithm().name
        );
        families += 1;
    }
    println!("cse parity: {families} scenario family(ies) numerically identical");
    Ok(())
}

struct Totals {
    algorithms: usize,
    errors: usize,
    warnings: usize,
}

fn verify_instances(
    instances: impl Iterator<Item = (String, Vec<lamb_expr::Algorithm>)>,
    opts: &common::CommonOptions,
) -> Result<Totals, String> {
    let mut totals = Totals {
        algorithms: 0,
        errors: 0,
        warnings: 0,
    };
    let mut shown = 0usize;
    for (label, algorithms) in instances {
        let mut instance_errors = 0usize;
        for alg in &algorithms {
            let report = verify_algorithm(alg);
            totals.algorithms += 1;
            totals.errors += report.errors().count();
            totals.warnings += report.warnings().count();
            if report.has_errors() {
                instance_errors += report.errors().count();
                // Cap the spam on a badly broken enumerator, keep full
                // detail for the first offenders.
                if shown < 20 {
                    println!("FAIL {label} :: {}", alg.name);
                    for d in report.errors() {
                        println!("    {d}");
                        shown += 1;
                    }
                }
            }
        }
        println!(
            "{} {label}: {} algorithm(s), {} error(s)",
            if instance_errors == 0 { "ok  " } else { "FAIL" },
            algorithms.len(),
            instance_errors
        );
    }

    // Optionally lint the calibration store's timing table too.
    if let Some(path) = &opts.store {
        let store = CalibrationStore::load(path)
            .map_err(|e| format!("cannot load --store {}: {e}", path.display()))?;
        let report = verify_call_table(&store.calls);
        let errors = report.errors().count();
        totals.errors += errors;
        totals.warnings += report.warnings().count();
        if errors > 0 {
            println!("FAIL store {}:", path.display());
            for d in report.errors() {
                println!("    {d}");
            }
        } else {
            println!(
                "ok   store {}: {} timing key(s) canonical",
                path.display(),
                store.calls.len()
            );
        }
    }
    Ok(totals)
}

fn finish(totals: Totals) -> Result<(), String> {
    println!(
        "verified {} algorithm(s): {} error(s), {} warning(s)",
        totals.algorithms, totals.errors, totals.warnings
    );
    if totals.errors > 0 {
        return Err(format!(
            "verification failed with {} error-severity diagnostic(s)",
            totals.errors
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cse_parity_holds_across_every_scenario_family() {
        run(&["--cse-parity".to_string()]).unwrap();
    }
}
