//! `lamb select` — plan a concrete instance with the unified `Planner`
//! pipeline: enumerate the algorithms, score them, let the selection policy
//! choose, execute, and report how the choice compares to the empirical
//! optimum (plus the instance's anomaly verdict).
//!
//! Besides the named paper expressions, any product expression can be given
//! as text and planned end to end:
//!
//! ```text
//! lamb select --expr "A*A^T*B" --dims 80,514,768
//! lamb select --expr "S[spd]^-1*B" --dims 200,60
//! lamb select --strategy predicted --expr "A*B*C*D*E*F*G*H" \
//!     --dims 600,40,800,30,900,50,700,60,500 --top-k 8
//! ```

use super::common::{self, parse_strategy};
use lamb_expr::Expression;
use lamb_plan::{FactorCache, Planner};
use lamb_select::Strategy;
use std::sync::Arc;

/// Run the subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    let opts = common::parse(args)?;
    let (_, expr) = opts.expression()?;
    let dims = opts.dims(expr.num_dims())?;
    let strategy = parse_strategy(opts.strategy.as_deref().unwrap_or("min-flops"))?;
    let mut executor = opts.build_executor();

    // Only benchmark predicted-time scores when the policy consults them:
    // with a measured executor, filling the column for min-flops/oracle would
    // run real isolated-call benchmarks the selection never uses.
    let wants_predictions = matches!(
        strategy,
        Strategy::MinPredictedTime | Strategy::Hybrid { .. }
    );
    let mut planner = Planner::for_expression(&expr)
        .policy(strategy)
        .score_predictions(wants_predictions)
        .cse(!opts.no_cse);
    let factor_cache = (!opts.no_factor_cache).then(|| Arc::new(FactorCache::new()));
    if let Some(fc) = &factor_cache {
        planner = planner.factor_cache(Arc::clone(fc));
    }
    if let Some(k) = opts.top_k {
        planner = planner.top_k(k);
    }
    let plan = planner
        .plan_with(&dims, executor.as_mut())
        .map_err(|e| e.to_string())?;
    let outcome = plan.execute_with(executor.as_mut());

    println!(
        "{} with dims {:?} ({} executor)",
        plan.expression,
        dims,
        opts.executor.name()
    );
    println!("policy          : {}", plan.policy);
    if plan.duplicates_removed > 0 {
        println!(
            "deduplication   : removed {} rewrite-equivalent algorithm(s)",
            plan.duplicates_removed
        );
    }
    if let Some(k) = opts.top_k {
        println!("pruning         : top-{k} by FLOP count");
    }
    if opts.no_cse {
        println!("ablation        : common-subexpression elimination disabled (--no-cse)");
    }
    if let Some(fc) = &factor_cache {
        if !fc.is_empty() {
            println!(
                "factor cache    : {} reusable factor identity(ies) noted for this plan",
                fc.len()
            );
        }
    } else {
        println!("ablation        : factor cache disabled (--no-factor-cache)");
    }
    println!("algorithm set   :");
    for score in &plan.scores {
        let marker = if score.index == plan.chosen {
            "->"
        } else {
            "  "
        };
        let predicted = score
            .predicted_seconds
            .map_or(String::from("      n/a"), |s| format!("{:9.6}", s));
        println!(
            "  {} [{}] {:<40} {:>16} FLOPs  predicted {predicted} s",
            marker, score.index, score.name, score.flops
        );
    }
    let chosen = plan.chosen_algorithm();
    println!("chosen algorithm: {}", chosen.name);
    println!("  kernels       : {}", chosen.kernel_summary());
    println!("  time          : {:.6} s", outcome.chosen_seconds);

    println!("best achievable : {:.6} s", outcome.best_seconds);
    println!("slowdown vs best: {:.2}%", 100.0 * outcome.regret());
    println!(
        "anomaly verdict : {} (time score {:.1}%, FLOP score {:.1}%)",
        if outcome.is_anomaly() {
            "ANOMALY"
        } else {
            "not an anomaly"
        },
        100.0 * outcome.verdict.time_score,
        100.0 * outcome.verdict.flop_score
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parsed_expression_round_trips_through_the_planner_to_a_verdict() {
        // The acceptance path of the general enumerator: text -> parse ->
        // enumerate -> select -> execute -> verdict, on the paper's A*A^T*B
        // anomaly instance.
        assert!(run(&strs(&["--expr", "A*A^T*B", "--dims", "80,514,768"])).is_ok());
        // And with a prediction-based strategy plus pruning on a long chain.
        assert!(run(&strs(&[
            "--strategy",
            "predicted",
            "--expr",
            "A*B*C*D*E*F",
            "--dims",
            "60,20,90,30,120,40,70",
            "--top-k",
            "4"
        ]))
        .is_ok());
    }

    #[test]
    fn named_expressions_still_select() {
        assert!(run(&strs(&["aatb", "40", "50", "60"])).is_ok());
    }

    #[test]
    fn triangular_structure_syntax_round_trips() {
        // TRMM products, chained structure, and TRSM solves all plan and
        // execute through the same path as the paper expressions.
        assert!(run(&strs(&["--expr", "L[lower]*A*B", "--dims", "96,64,48"])).is_ok());
        assert!(run(&strs(&[
            "--strategy",
            "predicted",
            "--expr",
            "L[lower]^-1*A*B",
            "--dims",
            "200,120,80"
        ]))
        .is_ok());
        // Unrealisable structure fails with the enumerator's message, not a
        // panic: a pseudo-inverse of a wide operand has no QR realisation.
        let err = run(&strs(&["--expr", "A^+*b", "--dims", "40,10,3"])).unwrap_err();
        assert!(err.contains("rows"), "{err}");
    }

    #[test]
    fn spd_structure_syntax_round_trips() {
        // SPD products (SYMM-versus-GEMM), Cholesky-realised solves, and the
        // solve chain's competing orders all plan and execute end to end.
        assert!(run(&strs(&["--expr", "S[spd]*B", "--dims", "96,48"])).is_ok());
        assert!(run(&strs(&["--expr", "S[spd]^-1*B", "--dims", "120,40"])).is_ok());
        assert!(run(&strs(&[
            "--strategy",
            "predicted",
            "--expr",
            "S[spd]^-1*B*C",
            "--dims",
            "150,90,30"
        ]))
        .is_ok());
        // The general inverse is realised too now, via the LU pipeline.
        assert!(run(&strs(&["--expr", "A^-1*B", "--dims", "40,10"])).is_ok());
        // And the least-squares form plans through the QR pipeline.
        assert!(run(&strs(&["--expr", "A^+*b", "--dims", "10,40,3"])).is_ok());
    }

    #[test]
    fn ablation_flags_round_trip_on_a_repeated_solve() {
        // The shared-factor expression plans with CSE + factor cache on by
        // default, and under both ablations.
        let base = ["--expr", "S[spd]^-1*S[spd]^-1*B", "--dims", "64,12"];
        assert!(run(&strs(&base)).is_ok());
        let mut no_cse = strs(&base);
        no_cse.push("--no-cse".into());
        assert!(run(&no_cse).is_ok());
        let mut no_cache = strs(&base);
        no_cache.push("--no-factor-cache".into());
        assert!(run(&no_cache).is_ok());
    }

    #[test]
    fn bad_expression_text_fails_cleanly() {
        let err = run(&strs(&["--expr", "A*(B", "--dims", "4,5,6"])).unwrap_err();
        assert!(err.contains("cannot parse"), "{err}");
        let err = run(&strs(&["--expr", "A*B", "--dims", "4,5"])).unwrap_err();
        assert!(err.contains("expected 3"), "{err}");
    }
}
