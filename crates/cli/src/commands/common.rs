//! Shared argument parsing for the CLI subcommands.

use lamb_experiments::{LineConfig, SearchConfig};
use lamb_expr::TreeExpression;
use lamb_kernels::cache::DEFAULT_FLUSH_BYTES;
use lamb_kernels::BlockConfig;
use lamb_perfmodel::{
    CalibrationStore, Executor, MachineModel, MeasuredExecutor, SimulatedExecutor,
};
use lamb_select::{Hybrid, MinFlops, MinPredictedTime, Oracle, SelectionPolicy};
use std::path::PathBuf;

/// Which executor back end `--executor` selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Deterministic analytic machine model (default; paper-scale feasible).
    Simulated,
    /// Analytic model without abrupt variant switches (ablation).
    SimulatedSmooth,
    /// Real kernels, wall-clock timing, paper measurement protocol.
    Measured,
}

impl ExecutorKind {
    /// Parse the `--executor` flag value (every alias of a kind).
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "simulated" | "sim" => Some(ExecutorKind::Simulated),
            "smooth" | "simulated-smooth" => Some(ExecutorKind::SimulatedSmooth),
            "measured" | "real" => Some(ExecutorKind::Measured),
            _ => None,
        }
    }

    /// Canonical name for reports and store metadata (aliases like
    /// `sim`/`real` collapse onto one name, so stores stay mergeable).
    pub fn name(self) -> &'static str {
        match self {
            ExecutorKind::Simulated => "simulated",
            ExecutorKind::SimulatedSmooth => "simulated-smooth",
            ExecutorKind::Measured => "measured",
        }
    }
}

/// Options shared by the experiment-style subcommands.
#[derive(Debug, Clone)]
pub struct CommonOptions {
    /// Executor back end selected by `--executor`.
    pub executor: ExecutorKind,
    /// Workload scale factor in `(0, 1]`.
    pub scale: f64,
    /// Sampling seed.
    pub seed: u64,
    /// Output directory for CSV artifacts.
    pub out_dir: PathBuf,
    /// Maximum square size for Figure-1 sweeps.
    pub max_size: usize,
    /// Positional (non-flag) arguments, in order.
    pub positional: Vec<String>,
    /// Value of `--strategy`, if given.
    pub strategy: Option<String>,
    /// Expression text given via `--expr`, e.g. `"A*A^T*B"`.
    pub expr_text: Option<String>,
    /// Dimension tuple given via `--dims` (comma-separated).
    pub dims_flag: Option<Vec<usize>>,
    /// Enumeration cap given via `--top-k`.
    pub top_k: Option<usize>,
    /// Calibration-store path given via `--store`.
    pub store: Option<PathBuf>,
    /// Batch request file given via `--exprs` (alias: `--file`).
    pub exprs_file: Option<PathBuf>,
    /// `--no-merge`: overwrite an existing calibration store instead of
    /// merging the new sweep into it.
    pub no_merge: bool,
    /// `--update-store`: write newly benchmarked calls back into the store
    /// after a batch run.
    pub update_store: bool,
    /// Anomaly time-score threshold given via `--threshold`.
    pub threshold: Option<f64>,
    /// `--demo N`: generate N instances per built-in scenario instead of
    /// reading a request file.
    pub demo: Option<usize>,
    /// `--no-cse`: ablation — plan the raw enumerator output without
    /// common-subexpression elimination over the kernel-call IR.
    pub no_cse: bool,
    /// `--no-factor-cache`: ablation — plan without the shared factor cache,
    /// so repeated solves against the same operand re-factor every time.
    pub no_factor_cache: bool,
    /// `--cse-parity`: verify-only mode that plans each scenario family with
    /// CSE on and off and checks the chosen algorithms compute identical
    /// numerics.
    pub cse_parity: bool,
    /// `--autotune`: run the coordinate-descent blocking autotuner before a
    /// calibration sweep and record the winning configuration in the store.
    pub autotune: bool,
    /// `--quick`: reduced problem size and repetition count for the
    /// autotuner (CI smoke mode).
    pub quick: bool,
}

impl Default for CommonOptions {
    fn default() -> Self {
        CommonOptions {
            executor: ExecutorKind::Simulated,
            scale: 1.0,
            seed: 20220829,
            out_dir: PathBuf::from("results"),
            max_size: 3000,
            positional: Vec::new(),
            strategy: None,
            expr_text: None,
            dims_flag: None,
            top_k: None,
            store: None,
            exprs_file: None,
            no_merge: false,
            update_store: false,
            threshold: None,
            demo: None,
            no_cse: false,
            no_factor_cache: false,
            cse_parity: false,
            autotune: false,
            quick: false,
        }
    }
}

/// Parse flags and positional arguments.
pub fn parse(args: &[String]) -> Result<CommonOptions, String> {
    let mut opts = CommonOptions::default();
    let mut explicit_scale = false;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let value = |name: &str| -> Result<String, String> {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("flag {name} requires a value"))
        };
        match arg.as_str() {
            "--executor" => {
                let name = value("--executor")?;
                opts.executor = ExecutorKind::parse(&name).ok_or_else(|| {
                    format!("unknown executor `{name}` (expected simulated, smooth or measured)")
                })?;
                i += 1;
            }
            "--scale" => {
                let s: f64 = value("--scale")?
                    .parse()
                    .map_err(|e| format!("invalid --scale: {e}"))?;
                if !s.is_finite() {
                    return Err("--scale must be a finite number".into());
                }
                opts.scale = s.clamp(1.0e-6, 1.0);
                explicit_scale = true;
                i += 1;
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("invalid --seed: {e}"))?;
                i += 1;
            }
            "--out" => {
                opts.out_dir = PathBuf::from(value("--out")?);
                i += 1;
            }
            "--sizes" => {
                opts.max_size = value("--sizes")?
                    .parse()
                    .map_err(|e| format!("invalid --sizes: {e}"))?;
                i += 1;
            }
            "--strategy" => {
                opts.strategy = Some(value("--strategy")?);
                i += 1;
            }
            "--expr" => {
                opts.expr_text = Some(value("--expr")?);
                i += 1;
            }
            "--dims" => {
                let text = value("--dims")?;
                let dims: Result<Vec<usize>, _> =
                    text.split(',').map(|s| s.trim().parse::<usize>()).collect();
                opts.dims_flag = Some(dims.map_err(|e| format!("invalid --dims `{text}`: {e}"))?);
                i += 1;
            }
            "--top-k" => {
                let k: usize = value("--top-k")?
                    .parse()
                    .map_err(|e| format!("invalid --top-k: {e}"))?;
                if k == 0 {
                    return Err("--top-k must be at least 1".into());
                }
                opts.top_k = Some(k);
                i += 1;
            }
            "--store" => {
                opts.store = Some(PathBuf::from(value("--store")?));
                i += 1;
            }
            "--exprs" | "--file" => {
                opts.exprs_file = Some(PathBuf::from(value(arg)?));
                i += 1;
            }
            "--no-merge" => {
                opts.no_merge = true;
            }
            "--no-cse" => {
                opts.no_cse = true;
            }
            "--no-factor-cache" => {
                opts.no_factor_cache = true;
            }
            "--cse-parity" => {
                opts.cse_parity = true;
            }
            "--autotune" => {
                opts.autotune = true;
            }
            "--quick" => {
                opts.quick = true;
            }
            "--update-store" => {
                opts.update_store = true;
            }
            "--threshold" => {
                let t: f64 = value("--threshold")?
                    .parse()
                    .map_err(|e| format!("invalid --threshold: {e}"))?;
                if !(t.is_finite() && t >= 0.0) {
                    return Err("--threshold must be a non-negative number".into());
                }
                opts.threshold = Some(t);
                i += 1;
            }
            "--demo" => {
                let n: usize = value("--demo")?
                    .parse()
                    .map_err(|e| format!("invalid --demo: {e}"))?;
                if n == 0 {
                    return Err("--demo must be at least 1".into());
                }
                opts.demo = Some(n);
                i += 1;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`"));
            }
            positional => opts.positional.push(positional.to_string()),
        }
        i += 1;
    }
    // Measured runs are wall-clock expensive: default to a small scale
    // unless the user explicitly asked for more.
    if opts.executor == ExecutorKind::Measured && !explicit_scale {
        opts.scale = 0.02;
    }
    Ok(opts)
}

/// Repetitions per measurement of the CLI's measured executor (the paper's
/// protocol) — the single source for both the executor construction and the
/// `meta.reps` provenance recorded in calibration stores.
pub const MEASURED_REPS: usize = 10;

/// Parse the `--strategy` flag value into the policy it names, shared by
/// `select` and `batch`.
pub fn parse_strategy(name: &str) -> Result<Box<dyn SelectionPolicy>, String> {
    match name {
        "min-flops" | "flops" => Ok(Box::new(MinFlops)),
        "predicted" | "min-predicted-time" => Ok(Box::new(MinPredictedTime)),
        "hybrid" => Ok(Box::new(Hybrid { flop_margin: 0.5 })),
        "oracle" | "exhaustive" => Ok(Box::new(Oracle)),
        other => Err(format!(
            "unknown strategy `{other}` (expected min-flops, predicted, hybrid or oracle)"
        )),
    }
}

/// An expression with the name the experiment configurations and artefact
/// prefixes key on: `chain`, `aatb`, or `expr` for a parsed `--expr`.
pub type NamedExpression = (String, TreeExpression);

/// One of the paper's two expressions by name.
pub fn named_expression(name: &str) -> Result<NamedExpression, String> {
    let (name, text) = match name {
        "chain" | "abcd" => ("chain", "A*B*C*D"),
        "aatb" => ("aatb", "A*A^T*B"),
        other => {
            return Err(format!(
                "unknown expression `{other}` (expected chain, aatb, or --expr \"...\")"
            ))
        }
    };
    let expr = TreeExpression::parse(text).expect("the paper's expressions parse");
    Ok((name.into(), expr))
}

impl CommonOptions {
    /// Build the requested executor under [`CommonOptions::block_config`].
    pub fn build_executor(&self) -> Box<dyn Executor> {
        self.build_executor_with(self.block_config())
    }

    /// Build the requested executor under an explicit block configuration
    /// (the simulated back ends ignore it). `lamb calibrate --autotune` uses
    /// this to run its sweep under a configuration it just discovered — one
    /// that is not yet persisted where [`CommonOptions::block_config`] looks.
    pub fn build_executor_with(&self, cfg: BlockConfig) -> Box<dyn Executor> {
        match self.executor {
            ExecutorKind::Simulated => Box::new(SimulatedExecutor::paper_like()),
            ExecutorKind::SimulatedSmooth => Box::new(SimulatedExecutor::paper_like_smooth()),
            ExecutorKind::Measured => Box::new(MeasuredExecutor::new(
                MachineModel::generic_laptop(),
                cfg,
                MEASURED_REPS,
                DEFAULT_FLUSH_BYTES,
            )),
        }
    }

    /// The kernel block configuration the measured executor runs under.
    ///
    /// When the calibration store at [`CommonOptions::store_path`] exists and
    /// carries an autotuned configuration (its optional `tuned` section), that
    /// configuration wins — so a warm start after `lamb calibrate --autotune`
    /// both runs the kernels under the tuned blocking *and* records/compares
    /// the matching fingerprint in [`CommonOptions::timing_metadata`].
    /// Otherwise the compiled-in default applies.
    pub fn block_config(&self) -> BlockConfig {
        self.stored_tuned_config().unwrap_or_default()
    }

    /// The autotuned block configuration persisted in the calibration store
    /// at [`CommonOptions::store_path`], when one exists. A store that does
    /// not load (unreadable, or any format version but the current one)
    /// yields `None`; it is diagnosed elsewhere.
    pub fn stored_tuned_config(&self) -> Option<BlockConfig> {
        let path = self.store_path();
        if !path.exists() {
            return None;
        }
        let store = CalibrationStore::load(&path).ok()?;
        store.tuned_block_config().cloned()
    }

    /// Resolve the expression: either parsed from `--expr <text>` or named
    /// by the first positional argument.
    pub fn expression(&self) -> Result<NamedExpression, String> {
        if let Some(text) = &self.expr_text {
            let parsed = TreeExpression::parse(text)
                .map_err(|e| format!("cannot parse --expr `{text}`: {e}"))?;
            return Ok(("expr".into(), parsed));
        }
        let name = self
            .positional
            .first()
            .ok_or("missing expression (chain, aatb, or --expr \"...\")")?;
        named_expression(name)
    }

    /// Parse the dimension tuple — from `--dims` when given, otherwise from
    /// the positional arguments after the expression name — and validate its
    /// length.
    pub fn dims(&self, expected: usize) -> Result<Vec<usize>, String> {
        let dims = if let Some(dims) = &self.dims_flag {
            dims.clone()
        } else {
            let start = usize::from(self.expr_text.is_none());
            let parsed: Result<Vec<usize>, _> = self
                .positional
                .get(start.min(self.positional.len())..)
                .unwrap_or(&[])
                .iter()
                .map(|s| s.parse::<usize>())
                .collect();
            parsed.map_err(|e| format!("invalid dimension: {e}"))?
        };
        if dims.len() != expected {
            return Err(format!(
                "expected {expected} dimension sizes, got {}",
                dims.len()
            ));
        }
        if dims.contains(&0) {
            return Err("dimension sizes must be positive".into());
        }
        Ok(dims)
    }

    /// The scaled Experiment-1 configuration for the named expression.
    pub fn search_config(&self, expression: &str) -> SearchConfig {
        let base = if expression == "aatb" {
            SearchConfig::paper_aatb()
        } else {
            SearchConfig::paper_chain()
        };
        SearchConfig {
            seed: self.seed,
            ..base.scaled(self.scale)
        }
    }

    /// The Experiment-2 configuration (capped when the measured executor is
    /// selected).
    pub fn line_config(&self) -> LineConfig {
        let cfg = LineConfig::paper();
        if self.executor == ExecutorKind::Measured {
            cfg.with_max_anomalies(((100.0 * self.scale).ceil() as usize).max(1))
        } else {
            cfg
        }
    }

    /// Sizes for Figure-1 sweeps.
    pub fn figure1_sizes(&self) -> Vec<usize> {
        (1..=self.max_size.max(100) / 100)
            .map(|i| i * 100)
            .collect()
    }

    /// The calibration-store path: `--store` when given, else
    /// `<out_dir>/calibration.json`.
    pub fn store_path(&self) -> PathBuf {
        self.store
            .clone()
            .unwrap_or_else(|| self.out_dir.join("calibration.json"))
    }

    /// Timing-protocol metadata recorded in calibration stores: the block
    /// configuration fingerprint and repetitions per measurement of the
    /// executor that [`CommonOptions::build_executor`] constructs (both read
    /// from the same definitions the construction uses).
    pub fn timing_metadata(&self) -> (String, usize) {
        let reps = if self.executor == ExecutorKind::Measured {
            MEASURED_REPS
        } else {
            1
        };
        (self.block_config().fingerprint(), reps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let opts = parse(&strs(&[
            "aatb",
            "80",
            "514",
            "768",
            "--seed",
            "3",
            "--strategy",
            "oracle",
            "--out",
            "/tmp/x",
            "--sizes",
            "800",
        ]))
        .unwrap();
        assert_eq!(opts.positional, vec!["aatb", "80", "514", "768"]);
        assert_eq!(opts.seed, 3);
        assert_eq!(opts.out_dir, PathBuf::from("/tmp/x"));
        assert_eq!(opts.figure1_sizes().last(), Some(&800));
        assert_eq!(opts.strategy.as_deref(), Some("oracle"));
        assert_eq!(opts.dims(3).unwrap(), vec![80, 514, 768]);
        let (name, expr) = opts.expression().unwrap();
        assert_eq!(name, "aatb");
        assert_eq!(expr.text(), "A*A^T*B");
    }

    #[test]
    fn rejects_unknown_flags_and_bad_dims() {
        assert!(parse(&strs(&["--bogus"])).is_err());
        // Every call runs on the native kernels: there is no backend to pick.
        let err = parse(&strs(&["--backend", "reference"])).unwrap_err();
        assert_eq!(err, "unknown flag `--backend`");
        // A non-finite scale is an error; a finite one is clamped into range.
        for bad in ["NaN", "inf", "-inf"] {
            let err = parse(&strs(&["aatb", "--scale", bad])).unwrap_err();
            assert!(err.contains("--scale must be a finite number"), "{err}");
        }
        let opts = parse(&strs(&["aatb", "--scale", "5"])).unwrap();
        assert!((opts.scale - 1.0).abs() < 1e-12);
        let opts = parse(&strs(&["chain", "10", "20"])).unwrap();
        assert!(opts.dims(5).is_err());
        let opts = parse(&strs(&["chain", "10", "0", "3", "4", "5"])).unwrap();
        assert!(opts.dims(5).is_err());
    }

    #[test]
    fn measured_executor_defaults_to_reduced_scale() {
        let opts = parse(&strs(&["aatb", "--executor", "measured"])).unwrap();
        assert!(opts.scale < 0.1);
        assert!(opts.line_config().max_anomalies.is_some());
        let opts2 = parse(&strs(&["aatb", "--executor", "measured", "--scale", "0.9"])).unwrap();
        assert!((opts2.scale - 0.9).abs() < 1e-12);
    }

    #[test]
    fn search_config_scales_with_expression() {
        let opts = parse(&strs(&["aatb", "--scale", "0.1"])).unwrap();
        assert_eq!(opts.search_config("aatb").target_anomalies, 100);
        assert_eq!(opts.search_config("chain").target_anomalies, 10);
    }

    #[test]
    fn ablation_flags_default_off_and_parse() {
        let opts = parse(&strs(&["aatb", "40", "50", "60"])).unwrap();
        assert!(!opts.no_cse && !opts.no_factor_cache && !opts.cse_parity);
        let opts = parse(&strs(&[
            "aatb",
            "--no-cse",
            "--no-factor-cache",
            "--cse-parity",
        ]))
        .unwrap();
        assert!(opts.no_cse && opts.no_factor_cache && opts.cse_parity);
    }

    #[test]
    fn defaults_are_paper_scale_simulated() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.executor, ExecutorKind::Simulated);
        assert!((opts.scale - 1.0).abs() < 1e-12);
        assert_eq!(opts.search_config("chain").target_anomalies, 100);
        assert_eq!(opts.search_config("aatb").target_anomalies, 1000);
        assert!(opts.line_config().max_anomalies.is_none());
        assert_eq!(opts.figure1_sizes().len(), 30);
    }

    #[test]
    fn every_alias_of_an_executor_kind_configures_identically() {
        // `real` is the measured executor: reduced default scale and the
        // Experiment-2 cap, not paper scale on real kernels.
        for (aliases, cap, label, reps) in [
            (["simulated", "sim"], None, "simulated", 1),
            (["smooth", "simulated-smooth"], None, "simulated-smooth", 1),
            (["measured", "real"], Some(2), "measured", MEASURED_REPS),
        ] {
            for alias in aliases {
                let opts = parse(&strs(&["aatb", "--executor", alias])).unwrap();
                assert_eq!(
                    opts.scale,
                    if cap.is_some() { 0.02 } else { 1.0 },
                    "{alias}"
                );
                assert_eq!(opts.line_config().max_anomalies, cap, "{alias}");
                assert_eq!(opts.executor.name(), label);
                assert_eq!(opts.timing_metadata().1, reps, "{alias}");
                assert!(opts.build_executor().machine().peak_flops > 0.0);
            }
        }
        // An unknown name is rejected where it enters.
        let err = parse(&strs(&["chain", "--executor", "quantum"])).unwrap_err();
        assert!(err.contains("unknown executor `quantum`"), "{err}");
    }
}
