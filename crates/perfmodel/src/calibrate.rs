//! Calibration utilities: estimating the machine peak and sweeping kernel
//! efficiency profiles (the data behind the paper's Figure 1).

use crate::autotune::square_gemm;
use crate::executor::Executor;
use crate::profile::SquareProfile;
use crate::store::kernel_coverage_key;
use lamb_expr::{Algorithm, KernelCall, KernelOp, OperandId, OperandInfo, OperandRole};
use lamb_kernels::BlockConfig;
use lamb_matrix::random::random_seeded;
use std::time::Instant;

/// Build a single-call algorithm wrapping `op`: one input operand per entry
/// of [`KernelOp::input_shapes`] (named `A`, `B` in argument order, with the
/// structure the op reads them as — so SYMM's symmetric operand and POTRF's
/// are declared SPD, TRMM/TRSM's triangle triangular) and a distinct output
/// `X` of the op's output shape and structure. Used to benchmark kernels in
/// isolation through the ordinary [`Executor`] interface; inside real
/// algorithms the triangle copy works in place on an intermediate, and the
/// packed-factor consumers read a factor some earlier call produced rather
/// than an algorithm input.
#[must_use]
pub fn single_call_algorithm(op: KernelOp) -> Algorithm {
    let mut operands: Vec<OperandInfo> = op
        .input_shapes()
        .zip(["A", "B"])
        .enumerate()
        .map(|(i, ((rows, cols, structure), name))| OperandInfo {
            id: OperandId(i),
            rows,
            cols,
            role: OperandRole::Input,
            structure,
            name: name.into(),
        })
        .collect();
    let inputs: Vec<OperandId> = operands.iter().map(|o| o.id).collect();
    let output = OperandId(operands.len());
    let (rows, cols) = op.output_shape();
    operands.push(OperandInfo {
        id: output,
        rows,
        cols,
        role: OperandRole::Output,
        structure: op.output_structure(),
        name: "X".into(),
    });
    let label = format!("X := {op}");
    Algorithm {
        name: format!("single call {}", op.mnemonic()),
        operands,
        calls: vec![KernelCall {
            op,
            inputs,
            output,
            label,
        }],
    }
}

/// Estimate the achievable peak FLOP rate of this machine by running a few
/// medium-sized GEMMs and taking the best observed rate. The value is meant to
/// normalise efficiencies for reporting, not to be a vendor-sheet peak.
#[must_use]
pub fn estimate_peak_flops(cfg: &BlockConfig, size: usize, trials: usize) -> f64 {
    let a = random_seeded(size, size, 11);
    let b = random_seeded(size, size, 12);
    let flops = 2.0 * (size as f64).powi(3);
    let mut best = 0.0f64;
    for _ in 0..trials.max(1) {
        let start = Instant::now();
        let c = square_gemm(&a, &b, cfg);
        let dt = start.elapsed().as_secs_f64();
        std::hint::black_box(c);
        best = best.max(flops / dt);
    }
    best
}

/// Names of the compute kernels swept by the square calibration, in sweep
/// order (the paper's Figure 1 trio plus the triangular, SPD and general
/// factorisation extensions, then the right-side variants of the sided
/// kernels — appended last so profile indices of the original eight are
/// stable across store versions).
pub const SQUARE_SWEEP_KERNELS: [&str; 11] = [
    "gemm", "syrk", "symm", "trmm", "trsm", "potrf", "getrf", "qr", "symm_r", "trmm_r", "trsm_r",
];

/// The square-operand kernel operations of the calibration sweep at a given
/// size, in [`SQUARE_SWEEP_KERNELS`] order: the members of
/// [`KernelOp::examples`] the sweep names.
///
/// # Panics
///
/// Panics if a sweep kernel has no example — a vocabulary bug.
#[must_use]
pub fn square_ops(size: usize) -> Vec<KernelOp> {
    let examples = KernelOp::examples(size);
    SQUARE_SWEEP_KERNELS
        .iter()
        .map(|name| {
            examples
                .iter()
                .find(|op| kernel_coverage_key(op) == *name)
                .expect("every sweep kernel has an example")
                .clone()
        })
        .collect()
}

/// Sweep the per-kernel efficiency curves on square operands using any
/// executor — the data behind the paper's Figure 1, extended with the
/// triangular kernels.
pub fn measure_square_profiles(executor: &mut dyn Executor, sizes: &[usize]) -> Vec<SquareProfile> {
    let machine = executor.machine().clone();
    let mut curves: Vec<(String, Vec<usize>, Vec<f64>)> = SQUARE_SWEEP_KERNELS
        .iter()
        .map(|name| ((*name).to_string(), Vec::new(), Vec::new()))
        .collect();
    for &size in sizes {
        for (idx, op) in square_ops(size).into_iter().enumerate() {
            let flops = op.flops();
            let alg = single_call_algorithm(op);
            let seconds = executor.time_isolated_call(&alg, 0);
            let eff = machine.efficiency(flops, seconds);
            curves[idx].1.push(size);
            curves[idx].2.push(eff);
        }
    }
    curves
        .into_iter()
        .map(|(name, sizes, effs)| SquareProfile::new(&name, sizes, effs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineModel;
    use crate::simulate::SimulatedExecutor;
    use crate::store::CalibrationStore;
    use lamb_kernels::{Backend, NativeBackend, ReferenceBackend};
    use lamb_matrix::ops::{is_triangular, max_abs_diff};
    use lamb_matrix::random::{random_spd, random_triangular};
    use lamb_matrix::{Matrix, Side, Structure, Trans, Uplo};

    #[test]
    fn single_call_algorithms_are_well_formed() {
        // The vocabulary-completeness test: every variant (the square
        // examples) plus rectangular shapes, upper triangles and
        // transpositions the examples do not reach goes through every layer
        // that spells the op set. A new variant either fails to compile
        // (exhaustive matches) or fails here.
        let rectangular = [
            KernelOp::Gemm {
                transa: Trans::Yes,
                transb: Trans::No,
                m: 5,
                n: 6,
                k: 7,
            },
            KernelOp::Syrk {
                uplo: Uplo::Lower,
                trans: Trans::No,
                n: 8,
                k: 3,
            },
            KernelOp::Symm {
                side: Side::Left,
                uplo: Uplo::Upper,
                m: 4,
                n: 9,
            },
            KernelOp::Trmm {
                side: Side::Left,
                uplo: Uplo::Lower,
                trans: Trans::Yes,
                m: 7,
                n: 4,
            },
            KernelOp::Trmm {
                side: Side::Right,
                uplo: Uplo::Upper,
                trans: Trans::No,
                m: 4,
                n: 7,
            },
            KernelOp::Trsm {
                side: Side::Left,
                uplo: Uplo::Upper,
                trans: Trans::No,
                m: 6,
                n: 5,
            },
            KernelOp::Trsm {
                side: Side::Right,
                uplo: Uplo::Lower,
                trans: Trans::Yes,
                m: 5,
                n: 6,
            },
            KernelOp::Potrf {
                uplo: Uplo::Lower,
                n: 7,
            },
            KernelOp::CopyTriangle {
                uplo: Uplo::Lower,
                n: 6,
            },
            KernelOp::Getrf { n: 9 },
            KernelOp::Qr { m: 11, n: 4 },
            KernelOp::Ormqr { m: 11, n: 4, k: 3 },
            KernelOp::FactorTri {
                uplo: Uplo::Upper,
                n: 5,
            },
            KernelOp::PivotApply {
                side: Side::Left,
                m: 8,
                n: 2,
            },
            KernelOp::PivotApply {
                side: Side::Right,
                m: 2,
                n: 8,
            },
        ];
        let cfg = BlockConfig::default();
        let materialise = |i: usize, (rows, cols, structure): (usize, usize, Structure)| {
            let seed = 40 + i as u64;
            match structure {
                Structure::Triangular(uplo) => random_triangular(rows, uplo, seed),
                Structure::Spd => random_spd(rows, seed),
                Structure::General => random_seeded(rows, cols, seed),
            }
        };
        for op in KernelOp::examples(7).into_iter().chain(rectangular) {
            // The IR layer: a well-formed, verifier-clean single call whose
            // FLOPs match the cost-audit pass's independent closed form.
            let alg = single_call_algorithm(op.clone());
            assert!(alg.is_well_formed(), "{op:?}");
            assert_eq!(alg.calls.len(), 1);
            assert_eq!(alg.flops(), op.flops());
            let report = lamb_verify::verify_algorithm(&alg);
            assert!(report.is_clean(), "{op}: {report}");

            // The execution layer: operands materialised from the op's own
            // input shapes run on every backend, agree, and come back with
            // the declared output shape and structure.
            let inputs: Vec<Matrix> = op
                .input_shapes()
                .enumerate()
                .map(|(i, shape)| materialise(i, shape))
                .collect();
            let refs: Vec<&Matrix> = inputs.iter().collect();
            let native = NativeBackend.run_new(&op, &refs, &cfg).unwrap();
            let reference = ReferenceBackend.run_new(&op, &refs, &cfg).unwrap();
            assert_eq!(native.shape(), op.output_shape(), "{op}");
            assert!(max_abs_diff(&native, &reference).unwrap() <= 1e-10, "{op}");
            if let Structure::Triangular(uplo) = op.output_structure() {
                assert!(is_triangular(&native, uplo).unwrap(), "{op}");
            }

            // The persistence layer: the store's per-op JSON round-trips.
            let mut store = CalibrationStore::new(MachineModel::generic_laptop(), "simulated");
            store.calls.insert(op.clone(), 1.0 / 7.0);
            let back = CalibrationStore::from_json(&store.to_json()).unwrap();
            assert_eq!(back.calls.get(&op), Some(1.0 / 7.0), "{op}");
        }
        // Both sides of every sided op are among the examples.
        let sided = |op: &KernelOp| match *op {
            KernelOp::Symm { side, .. }
            | KernelOp::Trmm { side, .. }
            | KernelOp::Trsm { side, .. }
            | KernelOp::PivotApply { side, .. } => Some(side),
            _ => None,
        };
        for side in [Side::Left, Side::Right] {
            let count = KernelOp::examples(7)
                .iter()
                .filter(|op| sided(op) == Some(side))
                .count();
            assert_eq!(count, 4, "{side:?}");
        }
    }

    #[test]
    fn gemm_operand_shapes_respect_transposition() {
        let alg = single_call_algorithm(KernelOp::Gemm {
            transa: Trans::Yes,
            transb: Trans::Yes,
            m: 3,
            n: 4,
            k: 5,
        });
        // op(A) is 3x5 so stored A is 5x3; op(B) is 5x4 so stored B is 4x5.
        let a = alg.operand(OperandId(0)).unwrap();
        let b = alg.operand(OperandId(1)).unwrap();
        assert_eq!((a.rows, a.cols), (5, 3));
        assert_eq!((b.rows, b.cols), (4, 5));
        let x = alg.output().unwrap();
        assert_eq!((x.rows, x.cols), (3, 4));
    }

    #[test]
    fn simulated_square_profiles_reproduce_figure1_ordering() {
        let mut sim = SimulatedExecutor::paper_like();
        let sizes = [100, 400, 800, 1600, 3000];
        let profiles = measure_square_profiles(&mut sim, &sizes);
        assert_eq!(profiles.len(), SQUARE_SWEEP_KERNELS.len());
        for (profile, name) in profiles.iter().zip(SQUARE_SWEEP_KERNELS) {
            assert_eq!(profile.kernel, name);
        }
        let gemm = &profiles[0];
        // GEMM dominates every other kernel at every sampled size (Figure 1,
        // extended to the triangular kernels).
        for other in &profiles[1..] {
            for i in 0..sizes.len() {
                assert!(
                    gemm.efficiencies[i] >= other.efficiencies[i],
                    "{}",
                    other.kernel
                );
            }
        }
        // Efficiency grows with size and ends up high for GEMM.
        assert!(gemm.efficiencies.last().unwrap() > &0.8);
        assert!(gemm.efficiencies[0] < gemm.efficiencies[sizes.len() - 1]);
    }

    #[test]
    fn peak_estimate_is_positive_and_finite() {
        let peak = estimate_peak_flops(&BlockConfig::default(), 96, 1);
        assert!(peak.is_finite());
        assert!(
            peak > 1.0e6,
            "even a tiny machine exceeds 1 MFLOP/s: {peak}"
        );
    }
}
