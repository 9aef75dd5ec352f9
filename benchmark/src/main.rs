//! The repository benchmark. One command runs a seeded workload through the
//! pipeline's public functions, checks the results and prints every metric by
//! name; see `benchmark/README.md`.
//!
//! ```text
//! lamb-benchmark run --workload <name> --seed <u64> [--seconds <s>] [--trace [0|1]] [--smoke]
//! lamb-benchmark all [--seeds a,b] [--holdout] [--seconds <s>] [--traced] [--smoke] [--out <file>]
//! lamb-benchmark compare <a.json> <b.json>
//! lamb-benchmark describe
//! ```

mod compare;
mod fingerprint;
mod harness;
mod json;
mod metrics;
mod probes;
mod trace;
mod workload;

use fingerprint::Fingerprint;
use harness::{Options, RunResult};
use json::{Value, ValueExt};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workload::{Spec, DEFAULT_SEED, HOLDOUT_SEED, WORKLOADS};

/// How long one run measures unless `--seconds` says otherwise; recorded as
/// `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: u64 = 10;
/// Exit code of a build the fingerprint guard refuses.
const EXIT_BAD_BUILD: u8 = 3;

/// Parsed command-line flags: `--name value` pairs and bare words.
struct Args {
    flags: Vec<(String, Option<String>)>,
    words: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Self {
        let mut flags = Vec::new();
        let mut words = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            if let Some(name) = raw[i].strip_prefix("--") {
                let value = raw.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                // `--trace`, `--smoke` and `--traced` may stand alone; a
                // following 0/1 belongs to `--trace`.
                let takes_value = match name {
                    "smoke" | "traced" | "holdout" => false,
                    "trace" => matches!(value.as_deref(), Some("0" | "1")),
                    _ => true,
                };
                if takes_value && value.is_some() {
                    i += 1;
                    flags.push((name.to_string(), value));
                } else {
                    flags.push((name.to_string(), None));
                }
            } else {
                words.push(raw[i].clone());
            }
            i += 1;
        }
        Args { flags, words }
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: `{v}` is not a valid value")),
        }
    }

    fn options(&self, trace: bool) -> Result<Options, String> {
        let smoke = self.has("smoke");
        let seconds: f64 = self.number("seconds", if smoke { 0.3 } else { RUN_SECONDS as f64 })?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        Ok(Options {
            seed: self.number("seed", DEFAULT_SEED)?,
            seconds,
            trace,
            smoke,
            out_dir: PathBuf::from(self.value("out-dir").unwrap_or("benchmark/out")),
        })
    }
}

fn metrics_value(result: &RunResult) -> Value {
    Value::obj(result.metrics.iter().map(|m| {
        (
            m.name.clone(),
            Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
        )
    }))
}

/// The one line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(result: &RunResult) -> String {
    Value::obj([
        ("correct", Value::Bool(result.correct)),
        ("attempted", Value::Num(result.attempted as f64)),
        ("failed", Value::Num(result.failed as f64)),
        ("metrics", metrics_value(result)),
    ])
    .to_json()
}

fn print_header(spec: &Spec, opts: &Options, fp: &Fingerprint) {
    println!(
        "# lamb benchmark workload={} seed={} trace={} seconds={} smoke={}",
        spec.name,
        opts.seed,
        u8::from(opts.trace),
        opts.seconds,
        opts.smoke
    );
    println!("# why: {}", spec.why);
    println!("# fingerprint {}", fp.to_value().to_json());
}

fn cmd_run(args: &Args, fp: &Fingerprint) -> Result<ExitCode, String> {
    let name = args
        .value("workload")
        .ok_or("run needs --workload <name>")?;
    let spec = workload::spec(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; one of: {}", names.join(", "))
    })?;
    let trace = args.has("trace") && args.value("trace") != Some("0");
    let opts = args.options(trace)?;
    print_header(spec, &opts, fp);
    let result = harness::run(spec, &opts)?;
    for note in &result.notes {
        println!("# {note}");
    }
    for m in &result.metrics {
        println!("metric {} {} {} N={}", m.name, m.value, m.unit, m.n);
    }
    println!("{}", result_line(&result));
    Ok(ExitCode::SUCCESS)
}

/// Run every workload, each in a process of its own, and write one result
/// set.
fn cmd_all(args: &Args, fp: &Fingerprint) -> Result<ExitCode, String> {
    let mut seeds: Vec<u64> = match args.value("seeds") {
        None => vec![DEFAULT_SEED],
        Some(list) => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| format!("--seeds: bad seed `{s}`"))
            })
            .collect::<Result<_, _>>()?,
    };
    if args.has("holdout") {
        seeds.push(HOLDOUT_SEED);
    }
    let opts = args.options(false)?;
    let out = PathBuf::from(args.value("out").unwrap_or("benchmark/out/results.json"));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let traces: &[bool] = if args.has("traced") {
        &[false, true]
    } else {
        &[false]
    };
    let started = std::time::Instant::now();
    let mut runs = Vec::new();
    let mut all_correct = true;
    for spec in &WORKLOADS {
        for &seed in &seeds {
            for &trace in traces {
                let mut cmd = Command::new(&exe);
                cmd.args(["run", "--workload", spec.name])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &opts.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--out-dir")
                    .arg(&opts.out_dir)
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit());
                if opts.smoke {
                    cmd.arg("--smoke");
                }
                let output = cmd.output().map_err(|e| e.to_string())?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                if !output.status.success() {
                    return Err(format!(
                        "{} (seed {seed}) exited with {}",
                        spec.name, output.status
                    ));
                }
                let line = stdout.lines().last().ok_or("a run printed nothing")?;
                let Value::Obj(mut fields) = Value::parse(line).map_err(|e| e.to_string())? else {
                    return Err("a run's last line is not an object".into());
                };
                all_correct &= fields
                    .iter()
                    .any(|(k, v)| k == "correct" && *v == Value::Bool(true));
                let mut run = vec![
                    ("workload".to_string(), Value::str(spec.name)),
                    ("seed".to_string(), Value::Num(seed as f64)),
                    ("trace".to_string(), Value::Num(f64::from(u8::from(trace)))),
                ];
                run.append(&mut fields);
                runs.push(Value::Obj(run));
            }
        }
    }
    let doc = Value::obj([
        ("fingerprint", fp.to_value()),
        ("seconds", Value::Num(opts.seconds)),
        ("smoke", Value::Bool(opts.smoke)),
        ("runs", Value::Arr(runs)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    // One run per line keeps a committed baseline diffable.
    let text = doc.to_json().replace("{\"workload\"", "\n{\"workload\"");
    std::fs::write(&out, text + "\n").map_err(|e| e.to_string())?;
    println!(
        "# wrote {} ({:.1} s wall, all correct: {all_correct})",
        out.display(),
        started.elapsed().as_secs_f64()
    );
    // A smoke run checks that everything runs; it gates nothing.
    Ok(if all_correct || opts.smoke {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.words.as_slice() else {
        return Err("compare needs two result files".into());
    };
    let read = |p: &String| -> Result<Value, String> {
        Value::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let worse = compare::compare(&read(a)?, &read(b)?)?;
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The contents of `BENCHMARK.json`, from the same tables the harness runs
/// on (a test checks the committed file against this).
fn benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        let q: Vec<String> = items.iter().map(|s| Value::str(*s).to_json()).collect();
        format!("[{}]", q.join(", "))
    };
    let block = |lines: Vec<String>| format!("[\n    {}\n  ]", lines.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]).to_json())
        .collect();
    let end_to_end = metrics::END_TO_END
        .iter()
        .map(|m| {
            Value::obj([
                ("name", Value::str(m.name)),
                ("unit", Value::str(m.unit)),
                ("better", Value::str(m.better.word())),
                ("bound", Value::Num(m.bound)),
            ])
            .to_json()
        })
        .collect();
    let layers = metrics::per_layer()
        .into_iter()
        .map(|(name, unit, better)| {
            Value::obj([
                ("name", Value::Str(name)),
                ("unit", Value::str(unit)),
                ("better", Value::str(better.word())),
            ])
            .to_json()
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        quoted(&[
            "cargo",
            "run",
            "--release",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
            "run"
        ]),
        quoted(&["benchmark"]),
        block(workloads),
        block(end_to_end),
        block(layers),
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first() else {
        eprintln!("usage: lamb-benchmark <run|all|compare|describe> ...");
        return ExitCode::FAILURE;
    };
    let args = Args::parse(&raw[1..]);
    let outcome = match command.as_str() {
        "compare" => cmd_compare(&args),
        "describe" => {
            print!("{}", benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        "run" | "all" => {
            let fp = Fingerprint::collect();
            if let Err(why) = fp.check_build() {
                eprintln!("error: {why}");
                return ExitCode::from(EXIT_BAD_BUILD);
            }
            if command == "run" {
                cmd_run(&args, &fp)
            } else {
                cmd_all(&args, &fp)
            }
        }
        other => Err(format!("unknown command `{other}`")),
    };
    outcome.unwrap_or_else(|why| {
        eprintln!("error: {why}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(&list.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_argument_form_parses() {
        let a = args(&[
            "--workload",
            "solve-mid",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]);
        assert_eq!(a.value("workload"), Some("solve-mid"));
        assert_eq!(a.number("seed", 0u64), Ok(7));
        assert!(a.has("trace") && a.value("trace") == Some("1"));
        let a = args(&["--trace", "0", "--smoke"]);
        assert_eq!(a.value("trace"), Some("0"));
        assert!(a.has("smoke"));
        // A bare `--trace` means on and does not swallow the next flag.
        let a = args(&["--trace", "--seed", "3"]);
        assert!(a.has("trace") && a.value("trace").is_none());
        assert_eq!(a.number("seed", 0u64), Ok(3));
        assert!(args(&["--seed", "x"]).number("seed", 0u64).is_err());
        assert!(args(&["--seconds", "0"]).options(false).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![metrics::Metric {
                name: "setup_s".into(),
                value: 0.8127,
                unit: "s",
                n: 3,
            }],
            notes: vec![],
        };
        let line = result_line(&result);
        assert!(!line.contains('\n'));
        let v = Value::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(0.8127));
        assert_eq!(m.as_obj().unwrap().len(), 2);
    }

    /// `BENCHMARK.json` at the repository root is generated by `describe`;
    /// the harness's tables and the committed contract must not drift apart.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let generated = benchmark_json();
        let doc = Value::parse(&generated).expect("describe prints valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(generated.len() < 64 * 1024);
        assert_eq!(
            doc.get("workloads")
                .and_then(Value::as_array)
                .unwrap()
                .len(),
            6
        );
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(metrics::valid_name(w.name));
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed, generated,
            "regenerate with `describe > BENCHMARK.json`"
        );
    }
}
