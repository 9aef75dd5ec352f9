//! Outside-in probes of single layers: each times calls into one layer's
//! public functions. They run after a traced workload and produce the
//! `machine.*`, `matrix.*` and `kernels.*` metrics.
//!
//! The peak the kernel rows are divided by is measured here, in the same run,
//! by code that shares nothing with the kernels: a register-resident chain of
//! `f64::mul_add`. (`calibrate::estimate_peak_flops` times the repository's
//! own GEMM, so a fraction of *that* peak would be circular.)

use crate::metrics::{median, Metric, PROBE_OPS, PROBE_OPS_RIGHT, PROBE_SIZES};
use lamb::expr::{KernelOp, OperandRole};
use lamb::kernels::pack::{pack_a, pack_b};
use lamb::kernels::{microkernel_dyn, BlockConfig, BlockedDriver, TileVariant};
use lamb::matrix::random::{random_seeded, random_spd, random_triangular};
use lamb::matrix::{Matrix, Side, Structure, Trans, Uplo};
use lamb::perfmodel::{single_call_algorithm, Backend, NativeBackend, ReferenceBackend};
use std::hint::black_box;
use std::time::Instant;

/// Samples a probe aims for; rows whose single call takes tens of
/// milliseconds settle for fewer (at least three) to stay inside the run's
/// time budget.
const TARGET_SAMPLES: usize = 15;
/// Time one probe row may take.
const ROW_BUDGET_S: f64 = 0.2;
/// A sample batches calls until it lasts at least this long.
const MIN_SAMPLE_S: f64 = 100e-6;
/// A kernel row may read this far above the peak before the run fails: the
/// machine's speed drifts by several percent between the peak probe and a
/// kernel row, and a tile that saturates the FMA units reads 1.0.
const PEAK_TOLERANCE: f64 = 1.10;

/// `N` independent accumulators updated by `mul_add`: enough chains to cover
/// the FMA latency at every vector width the compiler may choose.
fn fma_chain<const N: usize>(iters: u64) -> f64 {
    let mut acc = [0.0f64; N];
    for (i, x) in acc.iter_mut().enumerate() {
        *x = i as f64 * 1e-3;
    }
    let (a, b) = (black_box(0.999_999_f64), black_box(1e-9_f64));
    let start = Instant::now();
    for _ in 0..iters {
        for x in &mut acc {
            *x = x.mul_add(a, b);
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    black_box(acc);
    (2 * N as u64 * iters) as f64 / seconds
}

/// Best FLOP rate of one thread over a few accumulator counts (which count
/// saturates the FMA ports depends on the vector width in use).
fn peak_one_thread() -> f64 {
    let iters = 400_000;
    (0..3)
        .flat_map(|_| {
            [
                fma_chain::<32>(iters),
                fma_chain::<48>(iters),
                fma_chain::<64>(iters),
                fma_chain::<96>(iters),
                fma_chain::<128>(iters / 2),
            ]
        })
        .fold(0.0, f64::max)
}

/// The FLOP rate of `nproc` threads running the one-thread probe at once.
fn peak_all_threads(nproc: usize) -> f64 {
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..nproc).map(|_| scope.spawn(peak_one_thread)).collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("peak probe thread panicked"))
            .sum()
    })
}

/// Median seconds per call of `f`, batching calls into samples of at least
/// [`MIN_SAMPLE_S`]. Returns `(seconds per call, samples taken)`.
pub fn time_call(mut f: impl FnMut()) -> (f64, usize) {
    f(); // warm caches, scratch buffers and lazy set-up
    let start = Instant::now();
    f();
    let once = start.elapsed().as_secs_f64().max(1e-9);
    let batch = ((MIN_SAMPLE_S / once).ceil() as usize).clamp(1, 10_000);
    let samples = ((ROW_BUDGET_S / (once * batch as f64)) as usize).clamp(3, TARGET_SAMPLES);
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    (median(&times), samples)
}

/// The square-operand kernel operation named `name` at order `n`.
fn square_op(name: &str, n: usize) -> KernelOp {
    let side = if name.ends_with("_r") {
        Side::Right
    } else {
        Side::Left
    };
    let (uplo, trans) = (Uplo::Lower, Trans::No);
    match name.trim_end_matches("_r") {
        "gemm" => KernelOp::Gemm {
            transa: Trans::No,
            transb: Trans::No,
            m: n,
            n,
            k: n,
        },
        "syrk" => KernelOp::Syrk {
            uplo,
            trans,
            n,
            k: n,
        },
        "symm" => KernelOp::Symm {
            side,
            uplo,
            m: n,
            n,
        },
        "trmm" => KernelOp::Trmm {
            side,
            uplo,
            trans,
            m: n,
            n,
        },
        "trsm" => KernelOp::Trsm {
            side,
            uplo,
            trans,
            m: n,
            n,
        },
        "potrf" => KernelOp::Potrf { uplo, n },
        "getrf" => KernelOp::Getrf { n },
        "qr" => KernelOp::Qr { m: n, n },
        other => panic!("no probe for kernel `{other}`"),
    }
}

/// One kernel call with materialised operands, run through a backend.
struct BoundCall {
    op: KernelOp,
    inputs: Vec<Matrix>,
    out: Matrix,
}

impl BoundCall {
    fn new(op: KernelOp) -> Self {
        let alg = single_call_algorithm(op.clone());
        let inputs = alg
            .operands
            .iter()
            .filter(|o| o.role == OperandRole::Input)
            .map(|o| {
                let seed = 0x5eed ^ o.id.index() as u64;
                match o.structure {
                    Structure::Triangular(uplo) => random_triangular(o.rows, uplo, seed),
                    Structure::Spd => random_spd(o.rows, seed),
                    Structure::General => random_seeded(o.rows, o.cols, seed),
                }
            })
            .collect();
        let (rows, cols) = op.output_shape();
        BoundCall {
            op,
            inputs,
            out: Matrix::zeros(rows, cols),
        }
    }

    /// Median seconds per call under `backend` and `cfg`.
    fn time(&mut self, backend: &dyn Backend, cfg: &BlockConfig) -> (f64, usize) {
        let inputs: Vec<&Matrix> = self.inputs.iter().collect();
        let (op, out) = (&self.op, &mut self.out);
        time_call(|| {
            backend
                .run_into(op, &inputs, out, cfg)
                .expect("probe operands are well formed");
            black_box(&*out);
        })
    }
}

/// Run every machine, matrix and kernel probe. Fails when a kernel row
/// exceeds the measured single-thread peak (by more than
/// [`PEAK_TOLERANCE`]) — then the peak is not a ceiling and every fraction of
/// it is meaningless.
///
/// # Errors
///
/// The offending row.
pub fn run_all(nproc: usize) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    // The machine's speed moves by a third within seconds, so the ceiling is
    // probed again between the sections below and the best reading counts: a
    // kernel row timed in a fast moment must not be divided by a peak taken in
    // a slow one. Rows keep their FLOP rate until the last probe is in.
    let mut peak1 = peak_one_thread();
    let mut peak = peak_all_threads(nproc);
    let mut peak_probes = 1;
    let mut rate_rows: Vec<(String, f64, usize)> = Vec::new();

    // Operand materialisation, at an order typical of the solve workloads.
    let bytes = (256 * 256 * 8) as f64;
    let (t, n) = time_call(|| {
        black_box(random_seeded(256, 256, 11));
    });
    out.push(Metric::new("matrix.fill_gbs", bytes / t / 1e9, "GB/s", n));
    let (t, n) = time_call(|| {
        black_box(Matrix::zeros(256, 256));
    });
    out.push(Metric::new("matrix.zeros_gbs", bytes / t / 1e9, "GB/s", n));

    let serial = BlockConfig::serial();
    let default = BlockConfig::default();
    let mut gemm_serial_s = std::collections::BTreeMap::new();
    for op_name in PROBE_OPS {
        for size in PROBE_SIZES {
            let mut call = BoundCall::new(square_op(op_name, size));
            let (t, n) = call.time(&NativeBackend, &serial);
            if op_name == "gemm" {
                gemm_serial_s.insert(size, t);
            }
            rate_rows.push((
                format!("kernels.{op_name}.n{size}.frac_peak1"),
                call.op.flops() as f64 / t,
                n,
            ));
        }
        peak1 = peak1.max(peak_one_thread());
        peak_probes += 1;
    }
    for op_name in PROBE_OPS_RIGHT {
        let mut call = BoundCall::new(square_op(op_name, 256));
        let (t, n) = call.time(&NativeBackend, &serial);
        rate_rows.push((
            format!("kernels.{op_name}.n256.frac_peak1"),
            call.op.flops() as f64 / t,
            n,
        ));
    }

    // The blocked driver directly, without the GEMM wrapper around it.
    {
        let (a, b) = (random_seeded(256, 256, 1), random_seeded(256, 256, 2));
        let mut c = Matrix::zeros(256, 256);
        let driver = BlockedDriver::new(&serial);
        let (load_a, load_b) = (
            |i: usize, p: usize| a[(i, p)],
            |p: usize, j: usize| b[(p, j)],
        );
        let (t, n) = time_call(|| {
            driver.accumulate_serial(256, 256, 256, 1.0, &load_a, &load_b, &mut c.view_mut());
        });
        rate_rows.push((
            "kernels.driver.n256.frac_peak1".into(),
            2.0 * 256f64.powi(3) / t,
            n,
        ));
    }

    // Each register tile on packed panels of one cache block's depth.
    let kb = default.kc;
    for tile in TileVariant::ALL {
        let (mr, nr) = (tile.mr(), tile.nr());
        let (mut ap, mut bp) = (Vec::new(), Vec::new());
        pack_a(mr, mr, kb, |i, p| (i + p) as f64 * 1e-3, &mut ap);
        pack_b(nr, kb, nr, |p, j| (p + 2 * j) as f64 * 1e-3, &mut bp);
        let mut acc = vec![0.0; tile.acc_len()];
        let (t, n) = time_call(|| {
            microkernel_dyn(tile, kb, black_box(&ap), black_box(&bp), &mut acc);
            black_box(&acc);
        });
        rate_rows.push((
            format!("kernels.microkernel.{}.frac_peak1", tile.tag()),
            (2 * mr * nr * kb) as f64 / t,
            n,
        ));
        // The tiles are the rows that come close to the ceiling.
        peak1 = peak1.max(peak_one_thread());
        peak_probes += 1;
    }

    // Packing rates on one MC x KC (A) and KC x 512 (B) block, in packed
    // bytes written per second.
    let tile = default.tile;
    let (mc, kc, nb) = (default.mc, default.kc, 512);
    let a = random_seeded(mc.max(kc), mc.max(kc), 3);
    let b = random_seeded(kc, nb, 4);
    let mut buf = Vec::new();
    let a_bytes = (mc * kc * 8) as f64;
    let (t_pack_a, n) = time_call(|| {
        pack_a(tile.mr(), mc, kc, |i, p| a[(i, p)], &mut buf);
        black_box(&buf);
    });
    out.push(Metric::new(
        "kernels.pack_a.gbs",
        a_bytes / t_pack_a / 1e9,
        "GB/s",
        n,
    ));
    let (t, n) = time_call(|| {
        pack_a(tile.mr(), mc, kc, |i, p| a[(p, i)], &mut buf);
        black_box(&buf);
    });
    out.push(Metric::new(
        "kernels.pack_a_trans.gbs",
        a_bytes / t / 1e9,
        "GB/s",
        n,
    ));
    let b_bytes = (kc * nb * 8) as f64;
    let (t_pack_b, n) = time_call(|| {
        pack_b(tile.nr(), kc, nb, |p, j| b[(p, j)], &mut buf);
        black_box(&buf);
    });
    out.push(Metric::new(
        "kernels.pack_b.gbs",
        b_bytes / t_pack_b / 1e9,
        "GB/s",
        n,
    ));
    // Computed, not measured inside the kernel: with n <= NC a GEMM of order n
    // packs A and B once each (n*n elements), at the rates above.
    for size in [256usize, 1024] {
        let packed = (size * size * 8) as f64;
        let est = packed / (a_bytes / t_pack_a) + packed / (b_bytes / t_pack_b);
        out.push(Metric::new(
            format!("kernels.gemm.n{size}.pack_share_est"),
            est / gemm_serial_s[&size],
            "ratio",
            1,
        ));
    }

    // What the default (parallel) configuration does to one GEMM call.
    for size in PROBE_SIZES {
        let mut call = BoundCall::new(square_op("gemm", size));
        let (t, n) = call.time(&NativeBackend, &default);
        out.push(Metric::new(
            format!("kernels.gemm.n{size}.par_speedup"),
            gemm_serial_s[&size] / t,
            "ratio",
            n,
        ));
        if size == 16 {
            out.push(Metric::new("kernels.gemm.n16.call_us", t * 1e6, "us", n));
        }
    }
    // The native/reference crossover, as the system runs it.
    for size in [16usize, 32, 64] {
        let mut call = BoundCall::new(square_op("gemm", size));
        let (native, n) = call.time(&NativeBackend, &default);
        let (reference, _) = call.time(&ReferenceBackend, &default);
        out.push(Metric::new(
            format!("kernels.gemm.n{size}.ref_over_native"),
            reference / native,
            "ratio",
            n,
        ));
    }

    peak = peak.max(peak_all_threads(nproc));
    // One probe is three rounds of five chains.
    let peak_samples = 15 * peak_probes;
    out.push(Metric::new(
        "machine.peak1_gflops",
        peak1 / 1e9,
        "GFLOP/s",
        peak_samples,
    ));
    out.push(Metric::new(
        "machine.peak_gflops",
        peak / 1e9,
        "GFLOP/s",
        30,
    ));
    out.push(Metric::new("machine.nproc", nproc as f64, "count", 1));
    for (name, rate, n) in rate_rows {
        let frac = rate / peak1;
        if frac > PEAK_TOLERANCE {
            return Err(format!(
                "{name} = {frac:.3} exceeds the measured single-thread peak of {:.1} GFLOP/s: \
                 the peak probe is not a ceiling on this build",
                peak1 / 1e9
            ));
        }
        out.push(Metric::new(name, frac, "ratio", n));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_probe_does_the_work_it_counts() {
        // Twice the iterations must take about twice as long: the compiler
        // has not folded the chain away.
        let rate_short = fma_chain::<64>(100_000);
        let rate_long = fma_chain::<64>(400_000);
        assert!(rate_short > 0.0 && rate_long > 0.0);
        let ratio = rate_long / rate_short;
        assert!(
            (0.4..2.5).contains(&ratio),
            "rates {rate_short} vs {rate_long}"
        );
    }

    #[test]
    fn every_probe_op_binds_to_well_formed_operands() {
        let cfg = BlockConfig::serial();
        for name in PROBE_OPS.iter().chain(&PROBE_OPS_RIGHT) {
            let mut call = BoundCall::new(square_op(name, 24));
            let inputs: Vec<&Matrix> = call.inputs.iter().collect();
            NativeBackend
                .run_into(&call.op, &inputs, &mut call.out, &cfg)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(call.out.as_slice().iter().all(|x| x.is_finite()), "{name}");
        }
    }

    #[test]
    fn time_call_reports_a_positive_median() {
        let mut x = 0u64;
        let (t, n) = time_call(|| {
            x = black_box(x.wrapping_add(1));
        });
        assert!(t > 0.0);
        assert!((3..=TARGET_SAMPLES).contains(&n));
    }
}
