//! `lamb` — command-line driver for the ICPP'22 "FLOPs as a Discriminant"
//! reproduction.
//!
//! ```text
//! lamb algorithms chain 331 279 338 854 427      list the 6 ABCD algorithms + FLOPs
//! lamb algorithms aatb 227 260 549               list the 5 A*A^T*B algorithms + FLOPs
//! lamb select --strategy predicted aatb 80 514 768
//! lamb calibrate --store results/calibration.json --sizes 1200
//! lamb batch --exprs workload.txt --store results/calibration.json
//! lamb verify --demo 5                           static analysis of all enumerated algorithms
//! lamb paper table1 [--scale 0.05]               regenerate a figure/table of the paper by id
//! lamb paper --list                              the ids: fig1, fig6..fig11, table1, table2
//! lamb sweep spd|all [--scale 0.05]              Experiment 1 over a scenario family
//! lamb figure1 [--executor measured] [--sizes 1200]
//! lamb exp1 chain|aatb [--scale 0.1] [--executor simulated|smooth|measured]
//! lamb pipeline chain|aatb [--scale 0.05]        experiments 1+2+3 end to end
//! lamb help
//! ```

#![forbid(unsafe_code)]

mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        commands::print_help();
        return ExitCode::SUCCESS;
    };
    let result = match command.as_str() {
        "algorithms" | "algs" => commands::algorithms::run(rest),
        "select" => commands::select::run(rest),
        "calibrate" => commands::calibrate::run(rest),
        "batch" => commands::batch::run(rest),
        "verify" => commands::verify::run(rest),
        "paper" => commands::paper::run_paper(rest),
        "sweep" => commands::paper::run_sweep(rest),
        "figure1" | "fig1" => commands::paper::run_figure1(rest),
        "exp1" | "experiment1" => commands::paper::run_exp1(rest),
        "pipeline" => commands::paper::run_pipeline(rest),
        "help" | "--help" | "-h" => {
            commands::print_help();
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `lamb help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
