//! Calibration-driven blocking autotuner: coordinate descent over
//! `(tile, mc, kc, nc, tri_block, parallel_flop_threshold)`.
//!
//! The paper's selection argument is only as sharp as the kernel roofline it
//! measures against, and the roofline depends on blocking parameters that are
//! machine facts, not constants. `lamb calibrate --autotune` runs the descent
//! in this module against *measured* GEMM/SYRK/TRSM timings, records the
//! winning [`BlockConfig`] (plus the GFLOP/s it achieved) in the calibration
//! store as the v5 `tuned` section, and every warm start — `Planner`,
//! `BatchPlanner`, [`crate::MeasuredExecutor`] builders in the CLI — runs its
//! kernels under the tuned configuration from then on.
//!
//! The search itself is deliberately separable from the clock: the descent
//! takes its objective as a closure `FnMut(&BlockConfig) -> f64` (seconds;
//! lower is better). Production passes [`measured_score`]; tests pass a fixed
//! timing table, which makes the tuner's determinism a testable property.

use crate::store::TunedConfig;
use lamb_kernels::{Backend, BlockConfig, KernelOp, NativeBackend, TileVariant};
use lamb_matrix::random::{random_seeded, random_triangular};
use lamb_matrix::{Matrix, Side, Trans, Uplo};
use std::collections::HashMap;
use std::time::Instant;

/// Candidate values per coordinate axis. The grids are small on purpose:
/// coordinate descent revisits every axis each pass, so a handful of
/// well-spread candidates per axis explores the cross products that matter
/// without the full grid's combinatorial cost.
pub mod grid {
    /// Cache-block rows of `C` per L2-resident block.
    pub const MC: [usize; 5] = [64, 96, 128, 192, 256];
    /// Inner (`k`) depth per cache block.
    pub const KC: [usize; 5] = [128, 192, 256, 384, 512];
    /// Output columns per outermost block.
    pub const NC: [usize; 4] = [512, 1024, 2048, 4096];
    /// Diagonal-block order of the triangular recurrences.
    pub const TRI_BLOCK: [usize; 5] = [32, 48, 64, 96, 128];
    /// Minimum useful FLOPs before forking to Rayon.
    pub const PARALLEL_FLOP_THRESHOLD: [u64; 3] = [
        2 * 128 * 128 * 128,
        2 * 192 * 192 * 192,
        2 * 256 * 256 * 256,
    ];
}

/// Number of coordinate axes the descent sweeps.
pub const NUM_AXES: usize = 6;

/// How a finished descent got to its answer — the winning configuration plus
/// the bookkeeping the CLI reports.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The coordinate-descent winner.
    pub config: BlockConfig,
    /// Objective value (seconds, lower is better) of the winner.
    pub score: f64,
    /// Objective value of the starting configuration.
    pub baseline_score: f64,
    /// Distinct configurations evaluated (memoised; re-visits are free).
    pub evaluations: usize,
    /// Full passes over the axes until the descent converged.
    pub passes: usize,
}

/// All candidate configurations along one axis, holding every other
/// coordinate of `base` fixed. Axis order is the descent's sweep order:
/// register tile first (it changes the meaning of every other block), then
/// the cache blocks outermost-in, then the triangular block, then the
/// parallel cutoff.
#[must_use]
pub fn axis_candidates(axis: usize, base: &BlockConfig) -> Vec<BlockConfig> {
    let with = |f: &dyn Fn(&mut BlockConfig)| {
        let mut cfg = base.clone();
        f(&mut cfg);
        cfg
    };
    match axis {
        0 => TileVariant::ALL
            .iter()
            .map(|&tile| with(&|c| c.tile = tile))
            .collect(),
        1 => grid::MC.iter().map(|&mc| with(&|c| c.mc = mc)).collect(),
        2 => grid::KC.iter().map(|&kc| with(&|c| c.kc = kc)).collect(),
        3 => grid::NC.iter().map(|&nc| with(&|c| c.nc = nc)).collect(),
        4 => grid::TRI_BLOCK
            .iter()
            .map(|&tb| with(&|c| c.tri_block = tb))
            .collect(),
        5 => grid::PARALLEL_FLOP_THRESHOLD
            .iter()
            .map(|&t| with(&|c| c.parallel_flop_threshold = t))
            .collect(),
        _ => Vec::new(),
    }
}

/// Coordinate descent from `base`: sweep each axis in order, adopting a
/// candidate only when it scores *strictly* better than the incumbent
/// (ties keep the current value, which makes the descent deterministic for
/// any deterministic objective), and stop after a full pass changes nothing
/// or `max_passes` passes have run. Scores are memoised by fingerprint, so
/// revisiting a configuration never re-measures it.
pub fn coordinate_descent(
    base: &BlockConfig,
    score: &mut dyn FnMut(&BlockConfig) -> f64,
    max_passes: usize,
) -> TuneOutcome {
    let mut cache: HashMap<String, f64> = HashMap::new();
    let mut evaluations = 0usize;
    let mut eval = |cfg: &BlockConfig, evaluations: &mut usize| -> f64 {
        *cache.entry(cfg.fingerprint()).or_insert_with(|| {
            *evaluations += 1;
            score(cfg)
        })
    };

    let mut current = base.clone();
    let baseline_score = eval(&current, &mut evaluations);
    let mut current_score = baseline_score;
    let mut passes = 0usize;
    for _ in 0..max_passes.max(1) {
        passes += 1;
        let before = current.fingerprint();
        for axis in 0..NUM_AXES {
            for candidate in axis_candidates(axis, &current) {
                let s = eval(&candidate, &mut evaluations);
                if s < current_score {
                    current = candidate;
                    current_score = s;
                }
            }
        }
        if current.fingerprint() == before {
            break;
        }
    }
    TuneOutcome {
        config: current,
        score: current_score,
        baseline_score,
        evaluations,
        passes,
    }
}

/// The measured objective: wall-clock seconds for one GEMM, one SYRK and one
/// TRSM of order `size` under `cfg` (best of `reps` repetitions each, so
/// scheduler noise inflates no candidate). Lower is better. The three-kernel
/// mix keeps the descent honest — `tri_block` only shows up in SYRK's
/// diagonal blocks, and a tile that wins GEMM but loses the triangular
/// kernels should not win overall.
#[must_use]
pub fn measured_score(cfg: &BlockConfig, size: usize, reps: usize) -> f64 {
    let n = size.max(8);
    let a = random_seeded(n, n, 0xA110);
    let b = random_seeded(n, n, 0xB110);
    let l = random_triangular(n, Uplo::Lower, 0x7110);
    let (uplo, trans) = (Uplo::Lower, Trans::No);
    let syrk = KernelOp::Syrk {
        uplo,
        trans,
        n,
        k: n,
    };
    let trsm = KernelOp::Trsm {
        side: Side::Left,
        uplo,
        trans,
        m: n,
        n,
    };
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let c = square_gemm(&a, &b, cfg);
        let s = NativeBackend
            .run_new(&syrk, &[&a], cfg)
            .expect("square syrk");
        let x = NativeBackend
            .run_new(&trsm, &[&l, &b], cfg)
            .expect("square trsm");
        let dt = start.elapsed().as_secs_f64();
        std::hint::black_box((c, s, x));
        best = best.min(dt);
    }
    best
}

/// `A·B` for square operands of one order on the native backend — the probe
/// the tuner and the peak estimate both time.
pub(crate) fn square_gemm(a: &Matrix, b: &Matrix, cfg: &BlockConfig) -> Matrix {
    let n = a.rows();
    let op = KernelOp::Gemm {
        transa: Trans::No,
        transb: Trans::No,
        m: n,
        n,
        k: n,
    };
    NativeBackend
        .run_new(&op, &[a, b], cfg)
        .expect("square gemm")
}

/// Measure sustained GEMM GFLOP/s of order `size` under `cfg` (best of
/// `reps`): the headline number recorded next to the tuned configuration.
#[must_use]
pub fn measured_gemm_gflops(cfg: &BlockConfig, size: usize, reps: usize) -> f64 {
    let n = size.max(8);
    let a = random_seeded(n, n, 0xA110);
    let b = random_seeded(n, n, 0xB110);
    let flops = 2.0 * (n as f64).powi(3);
    let mut best = 0.0f64;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let c = square_gemm(&a, &b, cfg);
        let dt = start.elapsed().as_secs_f64();
        std::hint::black_box(c);
        best = best.max(flops / dt / 1e9);
    }
    best
}

/// Square order and repetitions of the GEMM measurement recorded next to a
/// tuned configuration; `lamb calibrate --autotune` measures the configuration
/// it started from with the same probe, so the two numbers compare.
#[must_use]
pub fn tuned_gemm_probe(quick: bool) -> (usize, usize) {
    (if quick { 96 } else { 384 }, 2)
}

/// Run the full measured autotune from `base` and package the winner as the
/// store's [`TunedConfig`]. `quick` trades fidelity for speed (smaller
/// operands, one repetition, one pass) and exists for CI smoke tests; the
/// full setting is what `lamb calibrate --autotune` runs.
#[must_use]
pub fn autotune_measured(base: &BlockConfig, quick: bool) -> (TuneOutcome, TunedConfig) {
    let (size, headline_reps) = tuned_gemm_probe(quick);
    let (reps, passes) = if quick { (1, 1) } else { (2, 3) };
    let mut score = |cfg: &BlockConfig| measured_score(cfg, size, reps);
    let outcome = coordinate_descent(base, &mut score, passes);
    let gflops = measured_gemm_gflops(&outcome.config, size, headline_reps);
    let tuned = TunedConfig {
        config: outcome.config.clone(),
        gflops,
    };
    (outcome, tuned)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic synthetic objective with a unique global minimum that
    /// coordinate descent can reach one axis at a time.
    fn table_score(cfg: &BlockConfig) -> f64 {
        let tile_cost = match cfg.tile {
            TileVariant::T8x8 => 0.0,
            TileVariant::T8x4 => 1.0,
            TileVariant::T4x8 => 2.0,
            TileVariant::T16x4 => 3.0,
            TileVariant::T8x12 => 4.0,
        };
        tile_cost
            + (cfg.mc as f64 - 192.0).abs() / 64.0
            + (cfg.kc as f64 - 384.0).abs() / 128.0
            + (cfg.nc as f64 - 2048.0).abs() / 1024.0
            + (cfg.tri_block as f64 - 96.0).abs() / 32.0
            + (cfg.parallel_flop_threshold as f64 - 14_155_776.0).abs() / 1e6
    }

    #[test]
    fn descent_finds_the_synthetic_optimum() {
        let mut score = |c: &BlockConfig| table_score(c);
        let outcome = coordinate_descent(&BlockConfig::default(), &mut score, 4);
        assert_eq!(outcome.config.tile, TileVariant::T8x8);
        assert_eq!(outcome.config.mc, 192);
        assert_eq!(outcome.config.kc, 384);
        assert_eq!(outcome.config.nc, 2048);
        assert_eq!(outcome.config.tri_block, 96);
        assert_eq!(outcome.config.parallel_flop_threshold, 2 * 192 * 192 * 192);
        assert!(outcome.score < outcome.baseline_score);
        assert!(outcome.passes >= 2, "needs a pass to confirm convergence");
    }

    #[test]
    fn descent_is_deterministic_for_a_fixed_timing_table() {
        // The satellite determinism requirement: same timing table, same
        // winner — run to run, bit for bit (fingerprints included).
        let run = || {
            let mut score = |c: &BlockConfig| table_score(c);
            coordinate_descent(&BlockConfig::default(), &mut score, 4)
        };
        let first = run();
        let second = run();
        assert_eq!(first.config, second.config);
        assert_eq!(first.config.fingerprint(), second.config.fingerprint());
        assert_eq!(first.score.to_bits(), second.score.to_bits());
        assert_eq!(first.evaluations, second.evaluations);
        assert_eq!(first.passes, second.passes);
    }

    #[test]
    fn descent_memoises_scores_by_fingerprint() {
        let mut calls = 0usize;
        let mut score = |c: &BlockConfig| {
            calls += 1;
            table_score(c)
        };
        let outcome = coordinate_descent(&BlockConfig::default(), &mut score, 4);
        assert_eq!(
            calls, outcome.evaluations,
            "every scorer call is a distinct configuration"
        );
        // Multiple passes revisit configurations; memoisation keeps the call
        // count well under passes * axis-grid size.
        let grid_total = TileVariant::ALL.len()
            + grid::MC.len()
            + grid::KC.len()
            + grid::NC.len()
            + grid::TRI_BLOCK.len()
            + grid::PARALLEL_FLOP_THRESHOLD.len();
        assert!(outcome.evaluations <= outcome.passes * grid_total + 1);
    }

    #[test]
    fn ties_keep_the_incumbent() {
        // A constant objective must return the base configuration untouched:
        // nothing is strictly better, so nothing is adopted.
        let mut score = |_: &BlockConfig| 1.0;
        let base = BlockConfig::default();
        let outcome = coordinate_descent(&base, &mut score, 4);
        assert_eq!(outcome.config, base);
        assert_eq!(outcome.passes, 1);
    }

    #[test]
    fn axis_candidates_cover_every_axis_and_respect_the_base() {
        let base = BlockConfig::default();
        for axis in 0..NUM_AXES {
            let candidates = axis_candidates(axis, &base);
            assert!(!candidates.is_empty(), "axis {axis}");
            for c in &candidates {
                // Only the axis under sweep differs from the base.
                let mut reverted = c.clone();
                match axis {
                    0 => reverted.tile = base.tile,
                    1 => reverted.mc = base.mc,
                    2 => reverted.kc = base.kc,
                    3 => reverted.nc = base.nc,
                    4 => reverted.tri_block = base.tri_block,
                    _ => reverted.parallel_flop_threshold = base.parallel_flop_threshold,
                }
                assert_eq!(&reverted, &base, "axis {axis}");
            }
        }
        assert!(axis_candidates(NUM_AXES, &base).is_empty());
    }

    #[test]
    fn measured_quick_autotune_produces_a_valid_tuned_config() {
        // A tiny end-to-end smoke with real timings: sizes kept minimal so
        // the test is fast; only structural properties are asserted
        // (wall-clock winners are machine-dependent by design).
        let mut score = |cfg: &BlockConfig| measured_score(cfg, 24, 1);
        let outcome = coordinate_descent(&BlockConfig::serial(), &mut score, 1);
        assert!(outcome.score.is_finite() && outcome.score > 0.0);
        let gflops = measured_gemm_gflops(&outcome.config, 24, 1);
        assert!(gflops.is_finite() && gflops > 0.0);
    }
}
