//! The paper's artefacts from the command line.
//!
//! Each `lamb_experiments` driver has one caller here. `lamb figure1`,
//! `lamb exp1` and `lamb pipeline` are its generic spellings (any `--expr`);
//! `lamb paper <id>` looks the same call up in [`ARTEFACTS`], a table with one
//! row per figure and table of the paper; `lamb sweep <family>` runs
//! Experiment 1 over a scenario family of `lamb_experiments::scenarios`.

use super::common::{self, CommonOptions, NamedExpression};
use lamb_experiments::csvout::write_text;
use lamb_experiments::{
    run_efficiency_line, run_experiment1, run_full_pipeline, sweep_csv, sweep_scenarios,
    DriverOutput, PredictConfig, Scenario, SearchConfig, SCENARIO_FAMILIES,
};

/// The `lamb_experiments` driver that regenerates an artefact, with the
/// expression (`chain` or `aatb`) it runs on.
enum Driver {
    /// `run_figure1`: kernel efficiency on square operands.
    Figure1,
    /// `run_experiment1`: the random anomaly search.
    Experiment1(&'static str),
    /// `run_full_pipeline`: Experiments 1, 2 and 3.
    Pipeline(&'static str),
    /// `run_efficiency_line` along each `(panel, base instance, dimension)`.
    Lines(
        &'static str,
        &'static [(&'static str, &'static [usize], usize)],
    ),
}

/// One figure or table of the paper.
struct Artefact {
    /// What `lamb paper <id>` takes.
    id: &'static str,
    title: &'static str,
    driver: Driver,
    /// Every file the row writes starts with this.
    prefix: &'static str,
    /// The numbers the paper reports, where it reports any.
    reference: Option<&'static str>,
}

const ARTEFACTS: [Artefact; 9] = [
    Artefact {
        id: "fig1",
        title: "Figure 1: kernel efficiency vs operand size",
        driver: Driver::Figure1,
        prefix: "figure1",
        reference: None,
    },
    Artefact {
        id: "fig6",
        title: "Figure 6 / Section 4.1.1: chain anomalies (Experiment 1)",
        driver: Driver::Experiment1("chain"),
        prefix: "fig6_chain",
        reference: Some("100 anomalies in 22,962 samples (abundance 0.4%)"),
    },
    Artefact {
        id: "fig7",
        title: "Figure 7: region thickness per dimension (chain)",
        driver: Driver::Pipeline("chain"),
        prefix: "fig7_chain",
        reference: None,
    },
    Artefact {
        id: "fig8",
        title: "Figure 8: efficiencies along two lines through chain anomalies",
        driver: Driver::Lines(
            "chain",
            &[
                ("left", &[331, 279, 338, 854, 427], 4),
                ("right", &[320, 172, 293, 919, 284], 3),
            ],
        ),
        prefix: "fig8",
        reference: None,
    },
    Artefact {
        id: "fig9",
        title: "Figure 9 / Section 4.2.1: A*A^T*B anomalies (Experiment 1)",
        driver: Driver::Experiment1("aatb"),
        prefix: "fig9_aatb",
        reference: Some("1,000 anomalies in 10,258 samples (abundance 9.7%, 39.2% severe)"),
    },
    Artefact {
        id: "fig10",
        title: "Figure 10: region thickness per dimension (A*A^T*B)",
        driver: Driver::Pipeline("aatb"),
        prefix: "fig10_aatb",
        reference: None,
    },
    Artefact {
        id: "fig11",
        title: "Figure 11: efficiencies along three lines through A*A^T*B anomalies",
        driver: Driver::Lines(
            "aatb",
            &[
                ("left", &[227, 260, 549], 0),
                ("centre", &[80, 514, 768], 1),
                ("right", &[110, 301, 938], 2),
            ],
        ),
        prefix: "fig11",
        reference: None,
    },
    Artefact {
        id: "table1",
        title: "Table 1: benchmark-based anomaly prediction (chain)",
        driver: Driver::Pipeline("chain"),
        prefix: "table1_chain",
        reference: Some("~92% of anomalies predicted, ~96% of predictions are anomalies"),
    },
    Artefact {
        id: "table2",
        title: "Table 2: benchmark-based anomaly prediction (A*A^T*B)",
        driver: Driver::Pipeline("aatb"),
        prefix: "table2_aatb",
        reference: Some("~75% of anomalies predicted, ~98.5% of predictions are anomalies"),
    },
];

/// Print a driver's report and the files it wrote.
fn emit(output: std::io::Result<DriverOutput>) -> Result<(), String> {
    let output = output.map_err(|e| format!("failed to write artifacts: {e}"))?;
    println!("{}", output.report);
    for (label, path) in &output.artifacts {
        println!("wrote {label}: {path}");
    }
    Ok(())
}

fn figure1(opts: &CommonOptions) -> Result<(), String> {
    emit(lamb_experiments::run_figure1(
        opts.build_executor().as_mut(),
        &opts.figure1_sizes(),
        &opts.out_dir,
    ))
}

fn experiment1(
    opts: &CommonOptions,
    (name, expr): &NamedExpression,
    prefix: &str,
) -> Result<(), String> {
    let run = run_experiment1(
        expr,
        opts.build_executor().as_mut(),
        &opts.search_config(name),
        &opts.out_dir,
        prefix,
    );
    emit(run.map(|(_search, output)| output))
}

fn pipeline(
    opts: &CommonOptions,
    (name, expr): &NamedExpression,
    prefix: &str,
) -> Result<(), String> {
    emit(run_full_pipeline(
        expr,
        opts.build_executor().as_mut(),
        &opts.search_config(name),
        &opts.line_config(),
        &PredictConfig::paper(),
        &opts.out_dir,
        prefix,
    ))
}

fn lines(
    opts: &CommonOptions,
    (_, expr): &NamedExpression,
    prefix: &str,
    panels: &[(&str, &[usize], usize)],
) -> Result<(), String> {
    let mut executor = opts.build_executor();
    let config = opts.line_config();
    for &(panel, base, dim) in panels {
        emit(run_efficiency_line(
            expr,
            executor.as_mut(),
            base,
            dim,
            &config,
            &opts.out_dir,
            &format!("{prefix}_{panel}_d{dim}"),
        ))?;
    }
    Ok(())
}

/// `lamb figure1` — the kernel-efficiency sweep of the paper's Figure 1.
pub fn run_figure1(args: &[String]) -> Result<(), String> {
    figure1(&common::parse(args)?)
}

/// `lamb exp1` — Experiment 1 (random anomaly search) for any expression.
pub fn run_exp1(args: &[String]) -> Result<(), String> {
    let opts = common::parse(args)?;
    let named = opts.expression()?;
    experiment1(&opts, &named, &format!("cli_exp1_{}", named.0))
}

/// `lamb pipeline` — Experiments 1+2+3 end to end for any expression.
pub fn run_pipeline(args: &[String]) -> Result<(), String> {
    let opts = common::parse(args)?;
    let named = opts.expression()?;
    pipeline(&opts, &named, &format!("cli_pipeline_{}", named.0))
}

/// The rows of a by-name table that `which` selects: the one so named, or
/// every row for `all`. The error lists the names that would have done.
fn select<'t, T>(
    table: &'t [T],
    name_of: fn(&T) -> &'static str,
    which: Option<&String>,
    what: &str,
) -> Result<Vec<&'t T>, String> {
    let which = which.map_or("", String::as_str);
    let selected = |row: &&T| which == "all" || name_of(row) == which;
    let rows: Vec<&T> = table.iter().filter(selected).collect();
    if rows.is_empty() {
        let names: Vec<&str> = table.iter().map(name_of).collect();
        let names = names.join(", ");
        return Err(format!(
            "unknown {what} `{which}` (expected {names} or all)"
        ));
    }
    Ok(rows)
}

/// What `lamb paper --list` prints: one `id  title` line per table row.
fn list() -> String {
    let line = |row: &Artefact| format!("{:<8}{}\n", row.id, row.title);
    ARTEFACTS.iter().map(line).collect()
}

/// `lamb paper <id>|all|--list` — regenerate artefacts of the paper by id.
pub fn run_paper(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--list") {
        print!("{}", list());
        return Ok(());
    }
    let opts = common::parse(args)?;
    let which = opts.positional.first();
    for row in select(&ARTEFACTS, |row| row.id, which, "artefact")? {
        println!("==== {} ====", row.title);
        let named = common::named_expression;
        match row.driver {
            Driver::Figure1 => figure1(&opts)?,
            Driver::Experiment1(expr) => experiment1(&opts, &named(expr)?, row.prefix)?,
            Driver::Pipeline(expr) => pipeline(&opts, &named(expr)?, row.prefix)?,
            Driver::Lines(expr, panels) => lines(&opts, &named(expr)?, row.prefix, panels)?,
        }
        if let Some(reference) = row.reference {
            println!("paper reference: {reference}");
        }
    }
    Ok(())
}

/// `lamb sweep <family>|all` — Experiment 1 over every scenario of a family
/// (and a GEMM-only `chain4` row for contrast) under identical sampling
/// conditions; prints and writes one `sweep_<family>.csv` each.
pub fn run_sweep(args: &[String]) -> Result<(), String> {
    let opts = common::parse(args)?;
    let which = opts.positional.first();
    let config = SearchConfig {
        target_anomalies: usize::MAX,
        max_samples: ((4000.0 * opts.scale) as usize).max(200),
        seed: opts.seed,
        ..SearchConfig::paper_aatb()
    };
    for &(family, scenarios) in select(&SCENARIO_FAMILIES, |f| f.0, which, "scenario family")? {
        let mut scenarios = scenarios();
        if scenarios.iter().all(|s| s.name != "chain4") {
            scenarios.push(Scenario::new("chain4", "A*B*C*D"));
        }
        let rows = sweep_scenarios(&scenarios, opts.build_executor().as_mut(), &config);
        let csv = sweep_csv(&rows);
        let path = write_text(&opts.out_dir, &format!("sweep_{family}.csv"), &csv)
            .map_err(|e| format!("failed to write artifacts: {e}"))?;
        println!("==== sweep {family} ====\n{csv}wrote {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    type Command = fn(&[String]) -> Result<(), String>;

    /// Run `command args` on the simulator at a tiny scale into a fresh
    /// temporary directory; the `(name, contents)` of every file it wrote.
    fn files_of(command: Command, args: &[&str]) -> Vec<(String, Vec<u8>)> {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("lamb-paper-{}-{run}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let out = dir.to_string_lossy();
        let args = [args, &["--scale", "0.001", "--out", &out]].concat();
        let args: Vec<String> = args.into_iter().map(String::from).collect();
        command(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
        let mut files = Vec::new();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            files.push((name, std::fs::read(path).unwrap()));
        }
        files.sort();
        std::fs::remove_dir_all(&dir).ok();
        files
    }

    #[test]
    fn every_artefact_and_family_writes_only_non_empty_files_under_its_prefix() {
        let artefacts = ARTEFACTS.iter().map(|row| {
            let files = match row.driver {
                Driver::Figure1 | Driver::Experiment1(_) => 1,
                Driver::Pipeline(_) => 3,
                Driver::Lines(_, panels) => panels.len(),
            };
            (run_paper as Command, row.id, row.prefix.to_string(), files)
        });
        let families = SCENARIO_FAMILIES
            .iter()
            .map(|f| (run_sweep as Command, f.0, format!("sweep_{}", f.0), 1));
        for (command, name, prefix, expected) in artefacts.chain(families) {
            let files = files_of(command, &[name]);
            assert_eq!(files.len(), expected, "{name}");
            for (file, contents) in &files {
                assert!(file.starts_with(&prefix), "{name}: {file} lacks {prefix}");
                assert!(!contents.is_empty(), "{name}: {file} is empty");
            }
        }
    }

    #[test]
    fn the_general_family_sweeps_like_the_others_at_the_full_sample_count() {
        // Header, the four LU/QR scenarios, the chain4 baseline; redrawing
        // keeps the least-squares rows at the sample count of the rest.
        let csv = String::from_utf8(files_of(run_sweep, &["general"]).remove(0).1).unwrap();
        assert_eq!(csv.lines().count(), 6, "{csv}");
        assert!(csv.contains("lstsq,A^+*b,") && csv.contains("chain4,A*B*C*D,"));
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').nth(4), Some("200"), "{line}");
        }
    }

    #[test]
    fn one_seed_regenerates_table1_byte_for_byte() {
        let run = || files_of(run_paper, &["table1", "--seed", "7"]);
        assert_eq!(run(), run());
    }

    #[test]
    fn the_list_is_exactly_the_table_and_unknown_names_say_what_is_valid() {
        let listing = list();
        let listed = listing.lines().map(|line| line.split(' ').next().unwrap());
        let ids: Vec<&str> = ARTEFACTS.iter().map(|row| row.id).collect();
        assert_eq!(listed.collect::<Vec<_>>(), ids);
        assert!(run_paper(&["--list".to_string()]).is_ok());
        for args in [vec!["fig12".to_string()], vec![]] {
            let err = run_paper(&args).unwrap_err();
            assert!(err.contains("unknown artefact"), "{err}");
            assert!(ids.iter().all(|id| err.contains(id)), "{err}");
        }
        let err = run_sweep(&["pentagonal".to_string()]).unwrap_err();
        assert!(err.contains("unknown scenario family `pentagonal`"));
        assert!(SCENARIO_FAMILIES.iter().all(|f| err.contains(f.0)), "{err}");
    }
}
