//! One benchmark run: set-up, correctness audit, timed passes and — for a
//! traced run — the attribution sections that produce the per-layer metrics.
//!
//! The harness drives the pipeline only through public functions of the
//! `lamb` facade (the list is in `benchmark/README.md`); it never reaches
//! into a crate's internals, so what it times is what a caller gets.
//!
//! Load shape: closed loop, one client thread, one process per run. Kernels
//! and `BatchPlanner` fan out to at most `nproc` threads on their own.

use crate::json::{Value, ValueExt};
use crate::metrics::{
    geomean, highest_supported_percentile, median, per_layer, percentile, quiet, Metric,
    END_TO_END, EXEC_FAMILIES,
};
use crate::probes;
use crate::trace::Tracer;
use crate::workload::{generate, Generated, Kind, Request, Spec};
use lamb::expr::{eliminate_common_subexpressions, Algorithm, Expression};
use lamb::kernels::{pack_buffer_growth_events, BlockConfig};
use lamb::matrix::ops::{max_abs, max_abs_diff};
use lamb::matrix::Matrix;
use lamb::perfmodel::{Executor, MachineModel, ReferenceBackend};
use lamb::plan::{CachingExecutor, FactorCache};
use lamb::prelude::{
    verify_algorithm, BatchPlanner, BatchRequest, CalibrationStore, MeasuredExecutor,
    MinPredictedTime, Plan, Planner, PredictionCache, SelectionPolicy, TreeExpression,
};
use lamb::select::assign_backends;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Algorithms kept per request (`Planner::top_k`).
const TOP_K: usize = 8;
/// Repetitions per calibration measurement.
const CAL_REPS: usize = 3;
/// Cache-flush buffer of the measured executor.
const FLUSH_BYTES: usize = 8 * 1024 * 1024;
/// Relative max-abs difference allowed between two algorithms' results.
const VERIFY_TOL: f64 = 1e-8;
/// Requests up to this many FLOPs are also checked against the reference
/// backend (its straight loops are too slow beyond).
const REFERENCE_FLOP_LIMIT: u64 = 50_000_000;
/// An audit timing is the minimum of three executions below this many FLOPs
/// and of two from there on.
const AUDIT_REPEAT_BELOW_FLOPS: u64 = 20_000_000;
/// Warm starts are measured a few at a time between the timed passes, so that
/// they span the whole run and a burst of interference reaches only some of
/// them: after each pass until they have taken `WARM_SHARE` of the time
/// measured so far, at most `WARM_ROUND_MAX` per round, and at least
/// `WARM_STARTS_MIN` per run.
const WARM_SHARE: f64 = 0.15;
const WARM_ROUND_MAX: usize = 32;
const WARM_STARTS_MIN: usize = 25;
/// Distinct requests replayed for the planner sub-step attribution.
const SHADOW_SAMPLE: usize = 200;
/// Distinct requests executed once more for the kernel-family attribution.
const EXEC_SAMPLE: usize = 60;

/// What `run` was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics instead.
    pub trace: bool,
    /// 1/20 of the request counts, for a quick check that everything runs.
    pub smoke: bool,
    /// Where the store file and the trace go.
    pub out_dir: PathBuf,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every check passed and no request failed.
    pub correct: bool,
    /// Requests served in timed passes plus audit checks.
    pub attempted: u64,
    /// How many of those failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Lines for the human reader: counts, the first failures, warnings.
    pub notes: Vec<String>,
}

fn measured_executor(seed: u64, reps: usize, flush_bytes: usize) -> MeasuredExecutor {
    MeasuredExecutor::new(
        MachineModel::generic_laptop(),
        BlockConfig::default(),
        reps,
        flush_bytes,
    )
    .with_seed(seed)
}

fn planner_for<'e>(
    expr: &'e TreeExpression,
    cache: &Arc<PredictionCache>,
    factors: Option<&Arc<FactorCache>>,
) -> Planner<'e> {
    let planner = Planner::for_expression(expr)
        .policy(MinPredictedTime)
        .top_k(TOP_K)
        .shared_cache(Arc::clone(cache));
    match factors {
        Some(fc) => planner.factor_cache(Arc::clone(fc)),
        None => planner,
    }
}

/// A `BatchPlanner` warm-started from `store`. Its fallback executors never
/// measure anything (every run asserts zero cache misses), so they are built
/// without a flush buffer: with one, every worker of every batch allocates
/// 8 MiB it never uses, and which of glibc's arenas end up holding those pages
/// turns `VmHWM` into a lottery (37–62 MiB from run to run on `plan-warm`).
fn batch_planner(store: &CalibrationStore, seed: u64) -> BatchPlanner {
    BatchPlanner::new()
        .with_store(store)
        .top_k(TOP_K)
        .executor_factory(move || Box::new(measured_executor(seed, CAL_REPS, 0)))
}

/// Failure bookkeeping shared by every phase.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Tally {
    /// Count `n` failed requests and keep the first few reasons.
    fn fail(&mut self, n: usize, what: String) {
        self.failed += n as u64;
        if self.messages.len() < 8 {
            self.messages.push(what);
        }
    }
}

/// Selection-quality samples: one per instance whose algorithms were all
/// timed.
#[derive(Debug, Default)]
struct Selection {
    efficiency: Vec<f64>,
    minflops_efficiency: Vec<f64>,
    chosen_is_minflops: usize,
    pred_rel_err: Vec<f64>,
    anomalies_measured: usize,
    anomalies_predicted: usize,
    anomaly_true_positives: usize,
}

impl Selection {
    /// Record one instance from the measured time of each of its algorithms.
    fn record(&mut self, plan: &Plan, seconds: &[f64]) {
        let best = seconds.iter().copied().fold(f64::INFINITY, f64::min);
        let minflops = plan.flop_optimal_score().index;
        self.efficiency.push(best / seconds[plan.chosen]);
        self.minflops_efficiency.push(best / seconds[minflops]);
        if plan.scores[plan.chosen].flops == plan.scores[minflops].flops {
            self.chosen_is_minflops += 1;
        }
    }
}

/// Factor-cache counters of the most recent reuse pass.
#[derive(Debug, Default, Clone, Copy)]
struct ReuseCounters {
    hits: usize,
    reused_calls: usize,
    resident_bytes: u64,
}

/// Everything a run carries between phases.
struct Ctx<'a> {
    spec: &'a Spec,
    gen: Generated,
    exec: MeasuredExecutor,
    cache: Arc<PredictionCache>,
    /// `PlanBatch` only: the serving planner, the request text of each batch
    /// and the choices of the warm-up pass every later batch must repeat.
    batch: Option<BatchPlanner>,
    batch_texts: Vec<String>,
    batch_chosen: Vec<Vec<usize>>,
    /// `Reuse` only: the factor cache the warm-up pass filled (the audit
    /// plans and executes against it) and the last pass's counters.
    warm_factors: Option<Arc<FactorCache>>,
    reuse: ReuseCounters,
    tracer: Tracer,
    tally: Tally,
    selection: Selection,
    next_request_id: u64,
}

/// What set-up measured besides its own duration.
#[derive(Debug, Default, Clone, Copy)]
struct SetupFacts {
    calibration_s: f64,
    keys: usize,
    save_ms: f64,
    load_ms: f64,
    store_bytes: u64,
}

fn check_result(result: &Matrix, alg: &Algorithm) -> Result<(), String> {
    let out = alg.output().ok_or("algorithm declares no output")?;
    if result.shape() != (out.rows, out.cols) {
        return Err(format!(
            "result is {:?}, expected {}x{}",
            result.shape(),
            out.rows,
            out.cols
        ));
    }
    let sum: f64 = result.as_slice().iter().sum();
    if !sum.is_finite() {
        return Err("result has a non-finite entry".into());
    }
    Ok(())
}

/// Check that two results agree to [`VERIFY_TOL`] (relative max-abs).
fn agree(a: &Matrix, b: &Matrix, what: &str) -> Result<(), String> {
    let diff = max_abs_diff(a, b).map_err(|e| e.to_string())? / max_abs(a).max(f64::MIN_POSITIVE);
    if diff.is_nan() || diff > VERIFY_TOL {
        return Err(format!("{what} differs by {diff:.3e} (relative max-abs)"));
    }
    Ok(())
}

impl<'a> Ctx<'a> {
    /// Units of one pass: single requests, or batches of `batch_len`.
    fn units(&self) -> usize {
        self.gen.pass.len().div_ceil(self.batch_len())
    }

    /// Requests per unit (1 except on `plan-warm`; a smoke pass may be
    /// shorter than one batch).
    fn batch_len(&self) -> usize {
        self.spec.batch_len.min(self.gen.pass.len())
    }

    /// Serve distinct request `index` end to end: text in, result out.
    /// Returns the latency in seconds.
    fn serve_request(
        &mut self,
        index: usize,
        factors: Option<&Arc<FactorCache>>,
    ) -> Result<f64, String> {
        let rid = self.next_request_id;
        self.next_request_id += 1;
        let Ctx {
            tracer,
            exec,
            cache,
            selection,
            reuse,
            spec,
            gen,
            ..
        } = self;
        let req = &gen.distinct[index];
        let start = Instant::now();
        let root = tracer.begin("request", None, rid);
        let expr = tracer
            .span("expr.parse", root.id(), rid, || {
                TreeExpression::parse(req.text)
            })
            .map_err(|e| e.to_string())?;
        let planner = planner_for(&expr, cache, factors);
        let plan = tracer
            .span("plan.plan_with", root.id(), rid, || {
                planner.plan_with(&req.dims, exec)
            })
            .map_err(|e| e.to_string())?;
        let alg = plan.chosen_algorithm();
        match spec.kind {
            Kind::Select => {
                let execution = tracer.span("plan.execute_with", root.id(), rid, || {
                    plan.execute_with(exec)
                });
                tracer.end(root);
                let latency = start.elapsed().as_secs_f64();
                let seconds: Vec<f64> = execution.timings.iter().map(|t| t.seconds).collect();
                if seconds.len() != plan.algorithms.len()
                    || seconds.iter().any(|s| !s.is_finite() || *s <= 0.0)
                {
                    return Err("an algorithm was not timed".into());
                }
                selection.record(&plan, &seconds);
                for (score, measured) in plan.scores.iter().zip(&seconds) {
                    if let Some(predicted) = score.predicted_seconds {
                        selection
                            .pred_rel_err
                            .push((predicted - measured).abs() / measured);
                    }
                }
                let predicted = plan.predicted_anomaly() == Some(true);
                selection.anomalies_measured += usize::from(execution.is_anomaly());
                selection.anomalies_predicted += usize::from(predicted);
                selection.anomaly_true_positives +=
                    usize::from(predicted && execution.is_anomaly());
                Ok(latency)
            }
            _ => {
                let result = match factors {
                    None => tracer.span("perfmodel.compute_result", root.id(), rid, || {
                        exec.compute_result(alg)
                    }),
                    Some(fc) => {
                        let (result, report) =
                            tracer.span("perfmodel.compute_result_reusing", root.id(), rid, || {
                                exec.compute_result_reusing(alg, fc.as_ref())
                            });
                        reuse.reused_calls += report.reused_calls;
                        result
                    }
                };
                tracer.end(root);
                let latency = start.elapsed().as_secs_f64();
                check_result(&result, alg)?;
                Ok(latency)
            }
        }
    }

    /// Serve batch `b`: request text in, plans out. Returns the latency and
    /// how many of the batch's requests failed.
    fn serve_batch(&mut self, b: usize) -> Result<(f64, usize), String> {
        let rid = self.next_request_id;
        self.next_request_id += 1;
        let planner = self.batch.as_ref().ok_or("no batch planner")?;
        let tracer = &mut self.tracer;
        let start = Instant::now();
        let root = tracer.begin("request", None, rid);
        let requests = tracer
            .span("plan.parse_file", root.id(), rid, || {
                BatchRequest::parse_file(&self.batch_texts[b])
            })
            .map_err(|e| e.to_string())?;
        let outcome = tracer.span("plan.plan_batch", root.id(), rid, || {
            planner.plan_batch(&requests)
        });
        tracer.end(root);
        let latency = start.elapsed().as_secs_f64();
        if outcome.stats.cache_misses > 0 {
            return Err(format!(
                "{} prediction-cache misses in a warm batch",
                outcome.stats.cache_misses
            ));
        }
        let chosen: Vec<usize> = outcome
            .results
            .iter()
            .map(|r| r.as_ref().map_or(usize::MAX, |p| p.chosen))
            .collect();
        let mut failed = outcome.stats.failed;
        match self.batch_chosen.get(b) {
            Some(expected) => {
                failed += expected.iter().zip(&chosen).filter(|(e, c)| e != c).count();
            }
            None => self.batch_chosen.push(chosen),
        }
        Ok((latency, failed))
    }

    /// One pass over the request list. Returns the wall time and the latency
    /// of each unit in seconds (`f64::MAX` for a failed one: a failed request
    /// misses every latency).
    fn serve_pass(&mut self, count: bool) -> (f64, Vec<f64>) {
        let factors = (self.spec.kind == Kind::Reuse).then(|| Arc::new(FactorCache::new()));
        self.reuse = ReuseCounters::default();
        let batch_len = self.batch_len();
        let mut latencies = Vec::with_capacity(self.units());
        let start = Instant::now();
        for unit in 0..self.units() {
            let requests = batch_len.min(self.gen.pass.len() - unit * batch_len);
            let served = catch_unwind(AssertUnwindSafe(|| {
                if self.spec.kind == Kind::PlanBatch {
                    self.serve_batch(unit)
                } else {
                    self.serve_request(self.gen.pass[unit], factors.as_ref())
                        .map(|l| (l, 0))
                }
            }))
            .unwrap_or_else(|_| Err("panicked".into()));
            let (latency, failed, why) = match served {
                Ok((latency, 0)) => (latency, 0, String::new()),
                Ok((_, failed)) => (
                    f64::MAX,
                    failed,
                    "plans differ from the warm-up pass".into(),
                ),
                Err(why) => (f64::MAX, requests, why),
            };
            if count {
                self.tally.attempted += requests as u64;
                if failed > 0 {
                    self.tally.fail(failed, format!("unit {unit}: {why}"));
                }
            }
            latencies.push(latency);
        }
        let wall = start.elapsed().as_secs_f64();
        if let Some(fc) = factors {
            self.reuse.hits = fc.hits();
            self.reuse.resident_bytes = fc.resident_bytes();
            self.warm_factors = Some(fc);
        }
        (wall, latencies)
    }
}

/// Set the system up the way a deployment would: generate the requests,
/// calibrate every distinct kernel call once (sequentially, through one
/// shared `PredictionCache`), persist the calibration, load it back, and
/// serve one untimed warm-up pass. Returns the context and the seconds it
/// all took.
fn set_up<'a>(spec: &'a Spec, opts: &Options) -> Result<(Ctx<'a>, f64, SetupFacts), String> {
    let start = Instant::now();
    let gen = generate(spec, opts.seed, if opts.smoke { 20 } else { 1 });
    let mut exec = measured_executor(gen.operand_seed, CAL_REPS, FLUSH_BYTES);

    let calibration = Arc::new(PredictionCache::new());
    let cal_start = Instant::now();
    for req in &gen.distinct {
        let expr = TreeExpression::parse(req.text).map_err(|e| format!("{}: {e}", req.line()))?;
        planner_for(&expr, &calibration, None)
            .plan_with(&req.dims, &mut exec)
            .map_err(|e| format!("{}: {e}", req.line()))?;
    }
    let mut facts = SetupFacts {
        calibration_s: cal_start.elapsed().as_secs_f64(),
        keys: calibration.len(),
        ..SetupFacts::default()
    };

    let mut store = CalibrationStore::new(MachineModel::generic_laptop(), "measured");
    store.meta.block_fingerprint = BlockConfig::default().fingerprint();
    store.meta.timing_reps = CAL_REPS;
    store.calls = calibration.snapshot();
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
    let path = store_path(spec, opts);
    let t = Instant::now();
    store.save(&path).map_err(|e| e.to_string())?;
    facts.save_ms = t.elapsed().as_secs_f64() * 1e3;
    facts.store_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let t = Instant::now();
    let loaded = CalibrationStore::load(&path).map_err(|e| e.to_string())?;
    facts.load_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut ctx = Ctx {
        spec,
        exec,
        cache: Arc::new(PredictionCache::from_table(&loaded.calls)),
        batch: (spec.kind == Kind::PlanBatch).then(|| batch_planner(&loaded, gen.operand_seed)),
        batch_texts: Vec::new(),
        batch_chosen: Vec::new(),
        warm_factors: None,
        reuse: ReuseCounters::default(),
        tracer: Tracer::new(false),
        tally: Tally::default(),
        selection: Selection::default(),
        next_request_id: 0,
        gen,
    };
    if spec.kind == Kind::PlanBatch {
        let lines: Vec<String> = ctx
            .gen
            .pass
            .iter()
            .map(|&i| ctx.gen.distinct[i].line())
            .collect();
        ctx.batch_texts = lines
            .chunks(ctx.batch_len())
            .map(|c| c.join("\n"))
            .collect();
    }
    ctx.serve_pass(false);
    // The warm-up pass's samples are not part of the measurement.
    ctx.selection = Selection::default();
    Ok((ctx, start.elapsed().as_secs_f64(), facts))
}

fn store_path(spec: &Spec, opts: &Options) -> PathBuf {
    opts.out_dir
        .join(format!("store-{}-{}.json", spec.name, std::process::id()))
}

/// Warm starts: the time from a store file on disk to the first planned
/// batch — load, build a `BatchPlanner`, plan every distinct request.
struct WarmStarter {
    requests: Vec<BatchRequest>,
    path: PathBuf,
    operand_seed: u64,
    ms: Vec<f64>,
    spent_s: f64,
    cache_hits: usize,
    cache_misses: usize,
    duplicates_removed: usize,
}

impl WarmStarter {
    fn new(ctx: &Ctx<'_>, opts: &Options) -> Result<Self, String> {
        let text: Vec<String> = ctx.gen.distinct.iter().map(Request::line).collect();
        Ok(WarmStarter {
            requests: BatchRequest::parse_file(&text.join("\n")).map_err(|e| e.to_string())?,
            path: store_path(ctx.spec, opts),
            operand_seed: ctx.gen.operand_seed,
            ms: Vec::new(),
            spent_s: 0.0,
            cache_hits: 0,
            cache_misses: 0,
            duplicates_removed: 0,
        })
    }

    /// One warm start. Returns the planner it built.
    fn once(&mut self, tally: &mut Tally) -> Result<BatchPlanner, String> {
        let start = Instant::now();
        let store = CalibrationStore::load(&self.path).map_err(|e| e.to_string())?;
        let planner = batch_planner(&store, self.operand_seed);
        let outcome = planner.plan_batch(&self.requests);
        let seconds = start.elapsed().as_secs_f64();
        self.ms.push(seconds * 1e3);
        self.spent_s += seconds;
        tally.attempted += 1;
        if outcome.stats.cache_misses > 0 || outcome.stats.failed > 0 {
            tally.fail(
                1,
                format!(
                    "warm start: {} cache misses, {} failed plans",
                    outcome.stats.cache_misses, outcome.stats.failed
                ),
            );
        }
        self.cache_hits = outcome.stats.cache_hits;
        self.cache_misses = outcome.stats.cache_misses;
        self.duplicates_removed = outcome.plans().map(|p| p.duplicates_removed).sum();
        Ok(planner)
    }

    /// One round between two passes, `elapsed_s` into the timed region.
    fn round(&mut self, tally: &mut Tally, elapsed_s: f64) -> Result<(), String> {
        for _ in 0..WARM_ROUND_MAX {
            if self.spent_s >= WARM_SHARE * elapsed_s {
                break;
            }
            self.once(tally)?;
        }
        Ok(())
    }

    /// Top the sample up to the minimum a quartile needs.
    fn finish(&mut self, tally: &mut Tally) -> Result<(), String> {
        while self.ms.len() < WARM_STARTS_MIN {
            self.once(tally)?;
        }
        Ok(())
    }

    /// Milliseconds of `batches` further `plan_batch` calls on a planner that
    /// has already planned the batch once (`plan.batch_ms`).
    fn warm_batches(&mut self, tally: &mut Tally, batches: usize) -> Result<Vec<f64>, String> {
        let planner = self.once(tally)?;
        Ok((0..batches)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(planner.plan_batch(&self.requests));
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect())
    }
}

/// Audit one distinct request outside the timed region: the chosen
/// algorithm's result must agree with every other enumerated algorithm's and,
/// for small requests, with the reference backend's. The execution times of
/// the algorithms give the request's selection-efficiency sample.
fn audit_request(ctx: &mut Ctx<'_>, req: &Request) -> Result<(), String> {
    let factors = ctx.warm_factors.clone();
    let expr = TreeExpression::parse(req.text).map_err(|e| e.to_string())?;
    let plan = planner_for(&expr, &ctx.cache, factors.as_ref())
        .plan_with(&req.dims, &mut ctx.exec)
        .map_err(|e| e.to_string())?;
    let chosen = plan.chosen_algorithm();
    let reps = if chosen.flops() < AUDIT_REPEAT_BELOW_FLOPS {
        3
    } else {
        2
    };
    let exec = &ctx.exec;
    // Repetitions are interleaved across the algorithms, so a burst of
    // interference slows the same repetition of all of them rather than every
    // repetition of one.
    let mut results: Vec<Matrix> = Vec::with_capacity(plan.algorithms.len());
    let mut seconds = vec![f64::INFINITY; plan.algorithms.len()];
    for rep in 0..reps {
        for (i, alg) in plan.algorithms.iter().enumerate() {
            let start = Instant::now();
            let result = match &factors {
                Some(fc) => exec.compute_result_reusing(alg, fc.as_ref()).0,
                None => exec.compute_result(alg),
            };
            seconds[i] = seconds[i].min(start.elapsed().as_secs_f64());
            if rep == 0 {
                results.push(result);
            }
        }
    }
    let reference = &results[plan.chosen];
    check_result(reference, chosen)?;
    for (i, other) in results.iter().enumerate() {
        agree(reference, other, &format!("algorithm {i}"))?;
    }
    if factors.is_some() {
        // A result served from resident factors must equal a fresh execution.
        agree(reference, &exec.compute_result(chosen), "a fresh execution")?;
    }
    if chosen.flops() <= REFERENCE_FLOP_LIMIT {
        let naive = measured_executor(ctx.gen.operand_seed, 1, 0)
            .with_backend(Arc::new(ReferenceBackend))
            .compute_result(chosen);
        agree(reference, &naive, "the reference backend")?;
    }
    if ctx.spec.kind != Kind::Select {
        ctx.selection.record(&plan, &seconds);
    }
    Ok(())
}

/// At most `limit` of the distinct requests, evenly strided so that every
/// expression text stays represented.
fn strided(distinct: &[Request], limit: usize) -> Vec<Request> {
    let step = distinct.len().div_ceil(limit).max(1);
    distinct.iter().step_by(step).cloned().collect()
}

fn audit(ctx: &mut Ctx<'_>) {
    for req in strided(&ctx.gen.distinct, ctx.spec.audit_limit) {
        ctx.tally.attempted += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| audit_request(ctx, &req)))
            .unwrap_or_else(|_| Err("panicked".into()));
        if let Err(why) = outcome {
            ctx.tally.fail(1, format!("audit `{}`: {why}", req.line()));
        }
    }
}

/// Timed passes: whole passes until `seconds` have elapsed, at least three.
/// Every pass is the same fixed request list, so the work per pass is
/// identical on every commit.
fn timed_passes(
    ctx: &mut Ctx<'_>,
    warm: &mut WarmStarter,
    seconds: f64,
) -> Result<Vec<(f64, Vec<f64>)>, String> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        passes.push(ctx.serve_pass(true));
        warm.round(&mut ctx.tally, start.elapsed().as_secs_f64())?;
    }
    warm.finish(&mut ctx.tally)?;
    Ok(passes)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one workload.
///
/// # Errors
///
/// Set-up failures and a peak probe that is not a ceiling; failed requests
/// are counted, not returned.
pub fn run(spec: &Spec, opts: &Options) -> Result<RunResult, String> {
    if opts.trace {
        return run_traced(spec, opts);
    }
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..spec.setup_reps.max(1) {
        let (ctx, seconds, _) = set_up(spec, opts)?;
        setups.push(seconds);
        last = Some(ctx);
    }
    let mut ctx = last.expect("at least one set-up");
    let mut warm = WarmStarter::new(&ctx, opts)?;
    let audit_start = Instant::now();
    audit(&mut ctx);
    let audit_s = audit_start.elapsed().as_secs_f64();
    let timed_start = Instant::now();
    let passes = timed_passes(&mut ctx, &mut warm, opts.seconds)?;
    let timed_s = timed_start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(store_path(spec, opts));
    // Every pass serves the same requests with the same operands in the same
    // order, so position `u` of each pass is a repeated measurement of one
    // request. Its quiet latency is what the request costs when nothing else
    // has the machine; the percentiles are over the pass's requests, and the
    // rate is the closed loop's on a quiet machine.
    let per_position_ms: Vec<f64> = (0..ctx.units())
        .map(|u| quiet(&passes.iter().map(|(_, l)| l[u] * 1e3).collect::<Vec<_>>()))
        .collect();
    let latencies = passes.len() * per_position_ms.len();
    let quiet_rate = ctx.gen.pass.len() as f64 / (per_position_ms.iter().sum::<f64>() / 1e3);
    let wall_rates: Vec<f64> = passes
        .iter()
        .map(|(wall, _)| ctx.gen.pass.len() as f64 / wall)
        .collect();
    let values = [
        ("setup_s", median(&setups), setups.len()),
        ("latency_p50_ms", median(&per_position_ms), latencies),
        (
            "latency_p95_ms",
            percentile(&per_position_ms, 95.0),
            latencies,
        ),
        ("throughput_rps", quiet_rate, passes.len()),
        ("warm_start_ms", quiet(&warm.ms), warm.ms.len()),
        (
            "selection_efficiency",
            geomean(&ctx.selection.efficiency),
            ctx.selection.efficiency.len(),
        ),
        ("peak_rss_mb", peak_rss_mb(), 1),
    ];
    let metrics = END_TO_END
        .iter()
        .map(|def| {
            let (_, value, n) = values
                .iter()
                .find(|(name, _, _)| *name == def.name)
                .expect("every end-to-end metric is measured");
            Metric::new(def.name, *value, def.unit, *n)
        })
        .collect();

    let mut notes = run_notes(&ctx, passes.len());
    notes.push(format!(
        "phases set-up {:.2} s ({} x), audit {audit_s:.2} s, timed {timed_s:.2} s of which warm starts {:.2} s",
        setups.iter().sum::<f64>(),
        setups.len(),
        warm.spent_s
    ));
    notes.push(format!(
        "rate over pass wall time, median pass: {} 1/s",
        median(&wall_rates)
    ));
    let supported = highest_supported_percentile(latencies);
    if supported < 95.0 {
        notes.push(format!(
            "warning: N={latencies} latencies leave fewer than ten beyond p95 (highest supported: p{supported})"
        ));
    }
    Ok(finish(ctx, metrics, notes))
}

fn run_notes(ctx: &Ctx<'_>, passes: usize) -> Vec<String> {
    vec![format!(
        "requests per_pass={} per_unit={} distinct={} passes={} hash={:#018x}",
        ctx.gen.pass.len(),
        ctx.batch_len(),
        ctx.gen.distinct.len(),
        passes,
        ctx.gen.hash()
    )]
}

fn finish(ctx: Ctx<'_>, metrics: Vec<Metric>, mut notes: Vec<String>) -> RunResult {
    let tally = ctx.tally;
    notes.push(format!(
        "failure_share {} ({} failed / {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    ));
    notes.extend(tally.messages.iter().map(|m| format!("failure: {m}")));
    RunResult {
        correct: tally.failed == 0 && metrics.iter().all(|m| m.value.is_finite()),
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics,
        notes,
    }
}

/// Per-request timings of the planner's sub-steps, replayed through the
/// public function each step is.
#[derive(Default)]
struct Shadow {
    parse: Vec<f64>,
    enumerate: Vec<f64>,
    cse: Vec<f64>,
    verify: Vec<f64>,
    predict: Vec<f64>,
    select: Vec<f64>,
    assign: Vec<f64>,
    plan: Vec<f64>,
    unattributed: Vec<f64>,
    algorithms: Vec<f64>,
    calls_per_algorithm: Vec<f64>,
    diagnostics: usize,
}

/// Replay what `plan_with` does for one request, one public call at a time,
/// right after timing `plan_with` itself on the same request. The verifier
/// is replayed too, although release builds of the planner skip it.
fn shadow_request(ctx: &mut Ctx<'_>, req: &Request, shadow: &mut Shadow) -> Result<(), String> {
    let rid = ctx.next_request_id;
    ctx.next_request_id += 1;
    let factors = ctx.warm_factors.clone();
    let Ctx {
        tracer,
        exec,
        cache,
        ..
    } = ctx;
    let root = tracer.begin("shadow.replay", None, rid);
    let parent = root.id();
    let (expr, us) = tracer.timed("expr.parse", parent, rid, || {
        TreeExpression::parse(req.text)
    });
    let expr = expr.map_err(|e| e.to_string())?;
    shadow.parse.push(us);
    let planner = planner_for(&expr, cache, factors.as_ref());
    let (plan, plan_us) = tracer.timed("plan.plan_with", parent, rid, || {
        planner.plan_with(&req.dims, exec)
    });
    plan.map_err(|e| e.to_string())?;
    shadow.plan.push(plan_us);

    let (enumerated, enumerate_us) = tracer.timed("expr.algorithms_pruned", parent, rid, || {
        expr.algorithms_pruned(&req.dims, Some(TOP_K))
    });
    let enumerated = enumerated.map_err(|e| e.to_string())?;
    shadow.enumerate.push(enumerate_us);
    let (algorithms, cse_us) = tracer.timed("expr.cse", parent, rid, || {
        enumerated
            .iter()
            .map(|a| eliminate_common_subexpressions(a).algorithm)
            .collect::<Vec<Algorithm>>()
    });
    shadow.cse.push(cse_us);
    let (diagnostics, verify_us) = tracer.timed("verify.verify_algorithm", parent, rid, || {
        algorithms
            .iter()
            .map(|a| verify_algorithm(a).diagnostics().len())
            .sum::<usize>()
    });
    shadow.verify.push(verify_us);
    shadow.diagnostics += diagnostics;
    let mut caching = CachingExecutor::new(exec, cache);
    let (_, predict_us) = tracer.timed("perfmodel.predict", parent, rid, || {
        for a in &algorithms {
            std::hint::black_box(caching.predict_from_isolated_calls(a));
        }
    });
    shadow.predict.push(predict_us);
    let (chosen, select_us) = tracer.timed("select.select", parent, rid, || {
        MinPredictedTime.select(&algorithms, &mut caching)
    });
    let chosen = chosen.map_err(|e| e.to_string())?;
    shadow.select.push(select_us);
    let (_, assign_us) = tracer.timed("select.assign_backends", parent, rid, || {
        std::hint::black_box(assign_backends(&algorithms[chosen], &mut caching));
    });
    shadow.assign.push(assign_us);
    tracer.end(root);

    shadow
        .unattributed
        .push(plan_us - (enumerate_us + cse_us + predict_us + select_us));
    shadow.algorithms.push(algorithms.len() as f64);
    let calls: usize = algorithms.iter().map(|a| a.calls.len()).sum();
    shadow
        .calls_per_algorithm
        .push(calls as f64 / algorithms.len().max(1) as f64);
    Ok(())
}

/// Which kernel family owns the execution time: execute the chosen algorithm
/// of each sampled request once more through the timed interface and split
/// the per-call seconds it reports by mnemonic (program-reported).
struct ExecShare {
    execute_ms: Vec<f64>,
    kernel_share: Vec<f64>,
    family_seconds: BTreeMap<&'static str, f64>,
    pred_rel_err: Vec<f64>,
}

fn execution_shares(ctx: &mut Ctx<'_>, sample: &[Request]) -> Result<ExecShare, String> {
    let mut out = ExecShare {
        execute_ms: Vec::new(),
        kernel_share: Vec::new(),
        family_seconds: BTreeMap::new(),
        pred_rel_err: Vec::new(),
    };
    let mut timed_exec = measured_executor(ctx.gen.operand_seed, 1, 0);
    let factors = ctx.warm_factors.clone();
    for req in sample {
        let expr = TreeExpression::parse(req.text).map_err(|e| e.to_string())?;
        let plan = planner_for(&expr, &ctx.cache, factors.as_ref())
            .plan_with(&req.dims, &mut ctx.exec)
            .map_err(|e| e.to_string())?;
        let alg = plan.chosen_algorithm();
        let start = Instant::now();
        let timing = match &factors {
            Some(fc) => timed_exec.execute_algorithm_reusing(alg, fc.as_ref()).0,
            None => timed_exec.execute_algorithm(alg),
        };
        let wall = start.elapsed().as_secs_f64();
        let kernels: f64 = timing.per_call.iter().map(|c| c.seconds).sum();
        out.execute_ms.push(wall * 1e3);
        out.kernel_share.push(kernels / wall);
        for (call, t) in alg.calls.iter().zip(&timing.per_call) {
            let mnemonic = call.op.mnemonic();
            let family = EXEC_FAMILIES
                .iter()
                .find(|f| **f == mnemonic)
                .copied()
                .unwrap_or("other");
            *out.family_seconds.entry(family).or_insert(0.0) += t.seconds;
        }
        if let (Some(predicted), true) = (plan.chosen_score().predicted_seconds, kernels > 0.0) {
            out.pred_rel_err.push((predicted - kernels).abs() / kernels);
        }
    }
    Ok(out)
}

/// What the request ids of a trace refer to: serving spans number their
/// requests consecutively from the warm-up pass on, so `request % of` is a
/// position in this list.
fn trace_preamble(ctx: &Ctx<'_>) -> Vec<Value> {
    let (units, batch_len) = (ctx.units(), ctx.batch_len());
    (0..units)
        .map(|u| {
            let lines = ctx.gen.pass[u * batch_len..]
                .iter()
                .take(batch_len)
                .map(|&i| Value::str(ctx.gen.distinct[i].line()))
                .collect();
            Value::obj([
                ("position", Value::Num(u as f64)),
                ("of", Value::Num(units as f64)),
                ("requests", Value::Arr(lines)),
            ])
        })
        .collect()
}

/// A traced run: the same workload with spans recorded around every public
/// call, then the attribution sections and the layer probes. Reports the
/// per-layer metrics; end-to-end metrics always come from the untraced run.
fn run_traced(spec: &Spec, opts: &Options) -> Result<RunResult, String> {
    let (mut ctx, _, facts) = set_up(spec, opts)?;
    let mut warm = WarmStarter::new(&ctx, opts)?;
    let batch_ms = warm.warm_batches(&mut ctx.tally, 15)?;
    audit(&mut ctx);

    // Untraced and traced passes alternate, so a drift in machine speed hits
    // both sides alike; the difference in pass time is the tracer's.
    let growth_before = pack_buffer_growth_events();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while untraced.len() < 2 || start.elapsed().as_secs_f64() < opts.seconds {
        ctx.tracer.set_enabled(false);
        untraced.push(ctx.serve_pass(true).0);
        ctx.tracer.set_enabled(true);
        traced.push(ctx.serve_pass(true).0);
    }
    let growth = pack_buffer_growth_events() - growth_before;
    let reuse = ctx.reuse;
    let overhead_pct = (quiet(&traced) / quiet(&untraced) - 1.0) * 100.0;

    let sample = strided(&ctx.gen.distinct, SHADOW_SAMPLE);
    let mut shadow = Shadow::default();
    for req in &sample {
        ctx.tally.attempted += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            shadow_request(&mut ctx, req, &mut shadow)
        }))
        .unwrap_or_else(|_| Err("panicked".into()));
        if let Err(why) = outcome {
            ctx.tally.fail(1, format!("shadow `{}`: {why}", req.line()));
        }
    }
    ctx.tracer.set_enabled(false);
    let shares = if spec.kind == Kind::PlanBatch {
        None
    } else {
        let sample = strided(&ctx.gen.distinct, EXEC_SAMPLE);
        Some(execution_shares(&mut ctx, &sample)?)
    };
    let _ = std::fs::remove_file(store_path(spec, opts));
    let trace_path = opts.out_dir.join(format!("trace-{}.jsonl", spec.name));
    ctx.tracer
        .write_jsonl(&trace_path, &trace_preamble(&ctx))
        .map_err(|e| e.to_string())?;

    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut measured: BTreeMap<String, (f64, usize)> = probes::run_all(nproc)?
        .into_iter()
        .map(|m| (m.name, (m.value, m.n)))
        .collect();
    let mut put = |name: &str, value: f64, n: usize| {
        measured.insert(name.to_string(), (value, n));
    };
    let med = |v: &[f64]| (median(v), v.len());

    put(
        "kernels.pack_growth_events",
        growth as f64,
        traced.len() + untraced.len(),
    );
    for (name, samples) in [
        ("expr.parse_us", &shadow.parse),
        ("expr.enumerate_us", &shadow.enumerate),
        ("expr.cse_us", &shadow.cse),
        ("expr.algorithms_per_request", &shadow.algorithms),
        ("expr.calls_per_algorithm", &shadow.calls_per_algorithm),
        ("verify.verify_us", &shadow.verify),
        ("perfmodel.predict_us", &shadow.predict),
        ("select.select_us", &shadow.select),
        ("select.assign_backends_us", &shadow.assign),
        ("plan.plan_us", &shadow.plan),
        ("plan.unattributed_us", &shadow.unattributed),
    ] {
        let (value, n) = med(samples);
        put(name, value, n);
    }
    put(
        "verify.diagnostics",
        shadow.diagnostics as f64,
        shadow.verify.len(),
    );
    // Do the medians of the parts add up to the median of the whole?
    let parts: f64 = [
        &shadow.enumerate,
        &shadow.cse,
        &shadow.predict,
        &shadow.select,
        &shadow.unattributed,
    ]
    .iter()
    .map(|v| median(v))
    .sum();
    let whole = median(&shadow.plan);
    if whole > 0.0 {
        put(
            "plan.reconcile_pct",
            (parts - whole).abs() / whole * 100.0,
            shadow.plan.len(),
        );
    }
    let (value, n) = med(&batch_ms);
    put("plan.batch_ms", value, n);
    put("plan.cache_hits", warm.cache_hits as f64, 1);
    put("plan.cache_misses", warm.cache_misses as f64, 1);
    put("plan.duplicates_removed", warm.duplicates_removed as f64, 1);
    put(
        "perfmodel.isolated_call_ms",
        facts.calibration_s * 1e3 / facts.keys.max(1) as f64,
        facts.keys,
    );
    put("perfmodel.calibration_keys", facts.keys as f64, 1);
    put("perfmodel.store_save_ms", facts.save_ms, 1);
    put("perfmodel.store_load_ms", facts.load_ms, 1);
    put("perfmodel.store_bytes", facts.store_bytes as f64, 1);
    let mut pred_rel_err = ctx.selection.pred_rel_err.clone();
    if let Some(shares) = &shares {
        let (value, n) = med(&shares.execute_ms);
        put("perfmodel.execute_ms", value, n);
        let (value, n) = med(&shares.kernel_share);
        put("perfmodel.execute_kernel_share", value, n);
        let total: f64 = shares.family_seconds.values().sum();
        for family in EXEC_FAMILIES {
            let seconds = shares.family_seconds.get(family).copied().unwrap_or(0.0);
            put(
                &format!("perfmodel.exec_share.{family}"),
                if total > 0.0 { seconds / total } else { 0.0 },
                shares.execute_ms.len(),
            );
        }
        if spec.kind != Kind::Select {
            pred_rel_err.clone_from(&shares.pred_rel_err);
        }
    }
    if spec.kind == Kind::Reuse {
        put("plan.factor_cache_hits", reuse.hits as f64, 1);
        put("plan.factor_reused_calls", reuse.reused_calls as f64, 1);
        put(
            "plan.factor_resident_mb",
            reuse.resident_bytes as f64 / (1024.0 * 1024.0),
            1,
        );
    }
    put(
        "perfmodel.pred_rel_err_p50",
        percentile(&pred_rel_err, 50.0),
        pred_rel_err.len(),
    );
    put(
        "perfmodel.pred_rel_err_p90",
        percentile(&pred_rel_err, 90.0),
        pred_rel_err.len(),
    );
    let sel = &ctx.selection;
    let instances = sel.efficiency.len();
    put(
        "select.minflops_efficiency",
        geomean(&sel.minflops_efficiency),
        instances,
    );
    put(
        "select.chosen_is_minflops_share",
        sel.chosen_is_minflops as f64 / instances.max(1) as f64,
        instances,
    );
    if spec.kind == Kind::Select {
        put(
            "select.anomalies_measured",
            sel.anomalies_measured as f64,
            instances,
        );
        put(
            "select.anomalies_predicted",
            sel.anomalies_predicted as f64,
            instances,
        );
        put(
            "select.anomaly_true_positives",
            sel.anomaly_true_positives as f64,
            instances,
        );
    }
    put(
        "trace.overhead_pct",
        overhead_pct,
        traced.len() + untraced.len(),
    );

    let metrics = per_layer()
        .into_iter()
        .map(|(name, unit, _)| {
            let (value, n) = measured.get(&name).copied().unwrap_or((0.0, 0));
            Metric::new(name, value, unit, n)
        })
        .collect();
    let mut notes = run_notes(&ctx, untraced.len() + traced.len());
    notes.push(format!(
        "trace {} spans -> {}",
        ctx.tracer.spans().len(),
        trace_path.display()
    ));
    notes.push(format!(
        "selection_efficiency {} N={} (untraced runs gate it)",
        geomean(&sel.efficiency),
        instances
    ));
    Ok(finish(ctx, metrics, notes))
}
