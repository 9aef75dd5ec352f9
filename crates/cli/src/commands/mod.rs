//! CLI subcommands.

pub mod algorithms;
pub mod batch;
pub mod calibrate;
pub mod common;
pub mod paper;
pub mod select;
pub mod verify;

/// Print the top-level usage text.
pub fn print_help() {
    println!(
        "lamb — FLOPs as a discriminant for dense linear algebra algorithms (ICPP'22 reproduction)

USAGE:
    lamb <COMMAND> [ARGS]

COMMANDS:
    algorithms chain d0 d1 d2 d3 d4    list the six ABCD algorithms with FLOP counts
    algorithms aatb d0 d1 d2           list the five A*A^T*B algorithms with FLOP counts
    algorithms --expr \"A*A^T*B\" --dims d0,d1,d2
                                       enumerate any parsed product expression
    select [--strategy S] EXPR dims..  select an algorithm (S: min-flops, predicted, hybrid, oracle)
    select --expr \"A*B*C*D\" --dims d0,..,d4 [--top-k K]
                                       parse, enumerate, select and execute any expression
    select --expr \"L[lower]*A*B\" --dims d0,d1,d2
                                       triangular structure: [lower]/[upper] unlock TRMM, ^-1 TRSM
    select --expr \"S[spd]^-1*B\" --dims d0,d1
                                       SPD structure: [spd] unlocks SYMM; ^-1 realises as
                                       a Cholesky factorisation (POTRF) plus two TRSMs
    calibrate [--store F] [OPTS]       run calibration sweeps, write/merge the store, print coverage
    batch --exprs FILE|--demo N [OPTS] plan a whole request file against a store, emit a CSV report
    verify EXPR dims.. | --expr \"...\" --dims d0,..
                                       statically verify every enumerated algorithm (5 passes:
                                       def-use, shape-flow, structure-flow, cost-audit, alias-safety)
    verify --file FILE | --demo N      verify a whole request file / all built-in scenario families
                                       (--store F additionally lints the store's timing keys)
    verify --cse-parity                plan every scenario family with CSE on and off and check
                                       the chosen algorithms compute identical numerics
    paper ID|all [OPTS]                regenerate an artefact of the paper by id: fig1, fig6..fig11,
                                       table1, table2 (`paper --list` prints the table)
    sweep FAMILY|all [OPTS]            Experiment 1 over a scenario family: mixed, triangular,
                                       spd, general, right (each with a GEMM-only chain baseline)
    figure1 [OPTS]                     kernel efficiency sweep (paper Figure 1)
    exp1 chain|aatb|--expr E [OPTS]    Experiment 1: random anomaly search (Figures 6/9)
    pipeline chain|aatb|--expr E [OPTS]  Experiments 1+2+3 end to end (Figures 7/10, Tables 1/2)
    help                               show this message

COMMON OPTIONS:
    --executor simulated|smooth|measured   (default: simulated)
    --expr <text>                          expression text, e.g. \"A*A^T*B\", \"L[lower]^-1*B\"
                                           or \"S[spd]^-1*B\" (^T / ' transpose, N[lower|upper]
                                           triangular, N[spd] SPD, ^-1 solve)
    --dims d0,d1,...                       comma-separated dimension tuple for --expr
    --top-k <K>                            keep only the K FLOP-cheapest algorithms (long chains)
    --scale <0..1>                         workload scale for experiments
    --seed <u64>                           sampling seed
    --out <dir>                            output directory for CSV artifacts (default: results)

CALIBRATION / BATCH OPTIONS:
    --store <file>                         calibration store path (default: <out>/calibration.json)
    --exprs <file>                         batch request file: one `EXPR d0 d1 ...` per line
    --demo <N>                             generate N instances per built-in scenario instead
    --threshold <t>                        anomaly time-score threshold (default: 0.10)
    --no-merge                             calibrate: overwrite an existing store instead of merging
    --update-store                         batch: write newly benchmarked calls back into the store
    --no-cse                               select/batch ablation: disable common-subexpression
                                           elimination (repeated POTRF/SYRK/TRSM stay duplicated)
    --no-factor-cache                      select/batch ablation: disable the shared factor cache
                                           (repeated solves against one operand re-factor each time)
"
    );
}
