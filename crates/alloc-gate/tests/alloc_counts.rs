//! The allocation-count gate: heap allocations per request of each serving
//! phase, for fixed texts and dimension tuples, pinned in
//! `fixtures/alloc_counts.txt`.
//!
//! Phases, each counted on warm state (every memo and the shared prediction
//! cache filled by one uncounted pass first), the least of three runs:
//!
//! * `parse_hit` — `TreeExpression::parse` of a text parsed before;
//! * `plan_with` — `Planner::plan_with` (`MinPredictedTime`, top 8, a shared
//!   warm `PredictionCache`), the planner built outside the count;
//! * `request` — building that planner and `plan_with`, what a server that
//!   builds one planner per request pays;
//! * `parse_file` — `BatchRequest::parse_file` of that 264-line batch;
//! * `plan_batch` — `BatchPlanner::plan_batch` of the batch (33 texts x 8
//!   dimension tuples) on two workers;
//! * `compute_result` — `MeasuredExecutor::compute_result` of the chosen
//!   algorithm;
//! * `compute_result_reusing` — `MeasuredExecutor::compute_result_reusing`
//!   of the chosen algorithm against a warm `FactorCache`, for the four
//!   texts of the benchmark's reuse workload (`reuse4`), each at two
//!   right-hand-side widths against one operand, planned against that cache
//!   (the factors are served; every call that reads a right-hand side runs);
//! * `plan_with reuse4` — `Planner::plan_with` of those requests against
//!   the same warm `FactorCache`, where scoring asks the cache which calls
//!   are resident.
//!
//! The samples are the nine texts of the benchmark's solve workloads
//! (`core9`) and the 33 scenario texts (`scenario33`), each at two dimension
//! tuples. Beside the counts, `lookups` lines record how many times one plan
//! reaches the shared prediction cache against the distinct timing keys of
//! its candidates; the two must be equal.
//!
//! A count above the fixture fails. So does a count below it: record the
//! improvement by replacing the fixture with the rendering the failure
//! prints. The counts are those of a release build (a debug build's
//! planner runs the static verifier on every candidate), so a debug build
//! skips the gate: run it with `cargo test --release -p lamb-alloc-gate`.
//! They include the standard library's own allocations, which a compiler
//! release may change: the fixture's first line names the toolchain that
//! recorded it, and CI runs the gate on that toolchain.

use lamb::experiments::all_scenarios;
use lamb::plan::FactorCache;
use lamb::prelude::*;
use lamb_alloc_gate::{count, CountingAllocator};
use std::fmt::Write as _;
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The nine texts of the benchmark's solve workloads: every kernel family,
/// both sides and all three solvers.
const CORE9: [&str; 9] = [
    "A*B*C*D",
    "A*A^T*B",
    "L[lower]*A*B",
    "S[spd]*A*A^T",
    "A*S[spd]*B",
    "S[spd]^-1*A*B",
    "A^-1*B*C",
    "A*B*L[lower]^-1",
    "A^+*B*C",
];

const TOP_K: usize = 8;

/// One request of a sample.
struct Request {
    text: String,
    dims: Vec<usize>,
}

/// `texts` at a descending and an ascending dimension tuple (the ascending
/// one is where a pseudo-inverted operand is not tall).
fn sample(texts: &[String], descending: (usize, usize), ascending: (usize, usize)) -> Vec<Request> {
    let mut out = Vec::new();
    for text in texts {
        let n = TreeExpression::parse(text).unwrap().num_dims();
        out.push(Request {
            text: text.clone(),
            dims: (0..n).map(|i| descending.0 - descending.1 * i).collect(),
        });
        out.push(Request {
            text: text.clone(),
            dims: (0..n).map(|i| ascending.0 + ascending.1 * i).collect(),
        });
    }
    out
}

fn core9() -> Vec<Request> {
    let texts: Vec<String> = CORE9.iter().map(|t| (*t).to_string()).collect();
    sample(&texts, (48, 8), (8, 8))
}

fn scenario_texts() -> Vec<String> {
    all_scenarios()
        .iter()
        .map(|s| s.expression.name())
        .collect()
}

fn scenario33() -> Vec<Request> {
    sample(&scenario_texts(), (61, 7), (19, 5))
}

fn planner<'e>(expr: &'e TreeExpression, cache: &Arc<PredictionCache>) -> Planner<'e> {
    Planner::for_expression(expr)
        .policy(MinPredictedTime)
        .top_k(TOP_K)
        .shared_cache(Arc::clone(cache))
}

/// How many allocations one run of `phase` makes: the least of three
/// runs. The counter is process-wide, and two things outside the phase can
/// land in one run of it: the test harness's own thread allocating after
/// it starts the test (4 allocations in about one process of 200), and a
/// pool thread's first plan setting up its thread (which thread takes which
/// chunk of a batch is a matter of timing). Neither repeats, and the phases
/// run on warm state, so the least count is the phase's own.
fn steady<T>(mut phase: impl FnMut() -> T) -> (T, u64) {
    let (mut out, mut least) = count(&mut phase);
    for _ in 0..2 {
        let (again, allocations) = count(&mut phase);
        out = again;
        least = least.min(allocations);
    }
    (out, least)
}

/// One rendered fixture line.
fn line(out: &mut String, phase: &str, sample: &str, requests: usize, allocations: u64) {
    let _ = writeln!(
        out,
        "{phase} {sample} requests={requests} allocations={allocations} per_request={:.2}",
        allocations as f64 / requests as f64
    );
}

/// The distinct timing keys of a plan's candidates.
fn distinct_keys(plan: &Plan) -> usize {
    let mut keys: Vec<KernelOp> = Vec::new();
    for call in plan.algorithms.iter().flat_map(|a| &a.calls) {
        let key = call.op.timing_key();
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    keys.len()
}

/// The parse, plan and lookup lines of one sample.
fn planning_phases(out: &mut String, name: &str, requests: &[Request]) {
    let cache = Arc::new(PredictionCache::new());
    let mut exec = SimulatedExecutor::paper_like();
    // Warm pass: the parse and template memos, the prediction cache.
    for req in requests {
        let expr = TreeExpression::parse(&req.text).unwrap();
        let _ = planner(&expr, &cache).plan_with(&req.dims, &mut exec);
    }

    let (_, parse) = steady(|| {
        for req in requests {
            std::hint::black_box(TreeExpression::parse(&req.text).unwrap());
        }
    });
    line(out, "parse_hit", name, requests.len(), parse);

    let exprs: Vec<TreeExpression> = requests
        .iter()
        .map(|r| TreeExpression::parse(&r.text).unwrap())
        .collect();
    let planners: Vec<Planner<'_>> = exprs.iter().map(|e| planner(e, &cache)).collect();
    let (plans, allocations) = steady(|| {
        requests
            .iter()
            .zip(&planners)
            .map(|(req, p)| p.plan_with(&req.dims, &mut exec))
            .collect::<Vec<_>>()
    });
    line(out, "plan_with", name, requests.len(), allocations);

    let (_, allocations) = steady(|| {
        for (req, expr) in requests.iter().zip(&exprs) {
            std::hint::black_box(planner(expr, &cache).plan_with(&req.dims, &mut exec)).ok();
        }
    });
    line(out, "request", name, requests.len(), allocations);

    // Shared lookups, plan by plan.
    let (mut shared, mut distinct, mut planned) = (0, 0, 0);
    for ((req, p), plan) in requests.iter().zip(&planners).zip(&plans) {
        let Ok(plan) = plan else { continue };
        let before = cache.stats();
        p.plan_with(&req.dims, &mut exec).unwrap();
        let after = cache.stats();
        shared += (after.0 - before.0) + (after.1 - before.1);
        distinct += distinct_keys(plan);
        planned += 1;
    }
    let _ = writeln!(
        out,
        "lookups {name} plans={planned} shared={shared} distinct_keys={distinct}"
    );
}

/// The 264-line batch: the 33 scenario texts at eight dimension tuples.
fn batch() -> String {
    let palette = [48, 40, 32, 24, 16, 12, 8];
    let mut lines = String::new();
    for j in 0..8 {
        for text in scenario_texts() {
            let n = TreeExpression::parse(&text).unwrap().num_dims();
            let dims: Vec<String> = (0..n)
                .map(|i| palette[(i + j) % palette.len()].to_string())
                .collect();
            let _ = writeln!(lines, "{text} {}", dims.join(" "));
        }
    }
    lines
}

/// The texts of the benchmark's reuse workload, each at two right-hand-side
/// widths against one operand of order 24.
fn reuse4() -> Vec<Request> {
    let n = 24;
    let mut out = Vec::new();
    for w in [8, 16] {
        for (text, dims) in [
            ("S[spd]^-1*B", vec![n, w]),
            ("A^-1*B", vec![n, w]),
            ("A^+*b", vec![n, n + n / 2, w]),
            ("S[spd]^-1*A*B", vec![n, 16, w]),
        ] {
            out.push(Request {
                text: text.to_string(),
                dims,
            });
        }
    }
    out
}

fn render() -> String {
    let mut out = String::new();
    planning_phases(&mut out, "core9", &core9());
    planning_phases(&mut out, "scenario33", &scenario33());

    let lines = batch();
    let requests = BatchRequest::parse_file(&lines).unwrap();
    let (_, allocations) = steady(|| BatchRequest::parse_file(&lines).unwrap());
    line(
        &mut out,
        "parse_file",
        "batch264",
        requests.len(),
        allocations,
    );
    let batch_planner = BatchPlanner::new().top_k(TOP_K);
    let warm = batch_planner.plan_batch(&requests);
    assert_eq!(warm.results.len(), 264);
    let (outcome, allocations) = steady(|| batch_planner.plan_batch(&requests));
    assert_eq!(
        outcome.stats.cache_misses, 0,
        "a warm batch benchmarks nothing"
    );
    line(
        &mut out,
        "plan_batch",
        "batch264",
        requests.len(),
        allocations,
    );

    let cache = Arc::new(PredictionCache::new());
    let mut sim = SimulatedExecutor::paper_like();
    let exec = MeasuredExecutor::new(MachineModel::generic_laptop(), BlockConfig::default(), 1, 0)
        .with_seed(1);
    let chosen: Vec<Algorithm> = core9()
        .iter()
        .filter_map(|req| {
            let expr = TreeExpression::parse(&req.text).unwrap();
            let plan = planner(&expr, &cache).plan_with(&req.dims, &mut sim).ok()?;
            Some(plan.chosen_algorithm().clone())
        })
        .collect();
    for alg in &chosen {
        std::hint::black_box(exec.compute_result(alg));
    }
    let (_, allocations) = steady(|| {
        for alg in &chosen {
            std::hint::black_box(exec.compute_result(alg));
        }
    });
    line(
        &mut out,
        "compute_result",
        "core9",
        chosen.len(),
        allocations,
    );

    let factors = Arc::new(FactorCache::new());
    let chosen: Vec<Algorithm> = reuse4()
        .iter()
        .map(|req| {
            let expr = TreeExpression::parse(&req.text).unwrap();
            let plan = planner(&expr, &cache)
                .factor_cache(Arc::clone(&factors))
                .plan_with(&req.dims, &mut sim)
                .unwrap();
            plan.chosen_algorithm().clone()
        })
        .collect();
    // The warm pass computes and deposits every cacheable factor.
    for alg in &chosen {
        std::hint::black_box(exec.compute_result_reusing(alg, &factors));
    }
    let (_, allocations) = steady(|| {
        for alg in &chosen {
            std::hint::black_box(exec.compute_result_reusing(alg, &factors));
        }
    });
    line(
        &mut out,
        "compute_result_reusing",
        "reuse4",
        chosen.len(),
        allocations,
    );

    // Planning against that warm cache: every residency question is asked.
    let requests = reuse4();
    let exprs: Vec<TreeExpression> = requests
        .iter()
        .map(|r| TreeExpression::parse(&r.text).unwrap())
        .collect();
    let planners: Vec<Planner<'_>> = exprs
        .iter()
        .map(|e| planner(e, &cache).factor_cache(Arc::clone(&factors)))
        .collect();
    let (_, allocations) = steady(|| {
        for (req, p) in requests.iter().zip(&planners) {
            std::hint::black_box(p.plan_with(&req.dims, &mut sim).unwrap());
        }
    });
    line(&mut out, "plan_with", "reuse4", requests.len(), allocations);
    out
}

/// The `key=value` fields of a fixture line.
fn field(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|f| f.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "counts are pinned for release builds: cargo test --release -p lamb-alloc-gate"
)]
fn allocation_counts_match_the_fixture() {
    // `plan_batch` builds one executor per worker: fix the worker count
    // before anything asks for it, so the count does not depend on the
    // machine.
    std::env::set_var("RAYON_NUM_THREADS", "2");
    let actual = render();
    let fixture = include_str!("fixtures/alloc_counts.txt");
    // The first line names the toolchain that recorded the fixture.
    let (recorded_with, expected) = fixture.split_once('\n').unwrap_or_default();
    let mut problems = Vec::new();
    for line in actual.lines().filter(|l| l.starts_with("lookups ")) {
        if field(line, "shared") != field(line, "distinct_keys") {
            problems.push(format!(
                "not one shared lookup per distinct timing key and plan: `{line}`"
            ));
        }
    }
    for (want, got) in expected.lines().zip(actual.lines()) {
        let key = |l: &str| l.split_whitespace().take(2).collect::<Vec<_>>().join(" ");
        if key(want) != key(got) {
            problems.push(format!("line `{got}` where the fixture has `{want}`"));
            continue;
        }
        let (w, g) = (field(want, "allocations"), field(got, "allocations"));
        match (w, g) {
            (Some(w), Some(g)) if g > w => {
                problems.push(format!("allocations rose: `{got}` (fixture `{want}`)"));
            }
            (Some(w), Some(g)) if g < w => problems.push(format!(
                "allocations fell: `{got}` (fixture `{want}`); record the new counts"
            )),
            _ if want != got => problems.push(format!("`{got}` (fixture `{want}`)")),
            _ => {}
        }
    }
    if expected.lines().count() != actual.lines().count() {
        problems.push("the fixture and the rendering differ in length".into());
    }
    assert!(
        problems.is_empty(),
        "{}\n\nThe fixture's counts were {recorded_with}; another compiler's \
         standard library may allocate differently. The current rendering, \
         to follow a first line naming the toolchain in \
         crates/alloc-gate/tests/fixtures/alloc_counts.txt:\n{actual}",
        problems.join("\n")
    );
}
