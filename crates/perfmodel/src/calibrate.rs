//! Calibration utilities: estimating the machine peak and sweeping kernel
//! efficiency profiles (the data behind the paper's Figure 1).

use crate::autotune::square_gemm;
use crate::executor::Executor;
use crate::profile::{CallTimeTable, SquareProfile};
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
    let inputs = operands.iter().map(|o| o.id).collect();
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
    let label = format!("X := {op}").into();
    Algorithm {
        name: format!("single call {}", op.mnemonic()).into(),
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
/// triangular kernels — filing each isolated-call time in `calls` (how
/// `lamb calibrate` seeds a store's call table with the same benchmarks).
pub fn measure_square_profiles(
    executor: &mut dyn Executor,
    sizes: &[usize],
    calls: &mut CallTimeTable,
) -> Vec<SquareProfile> {
    let machine = executor.machine().clone();
    let mut curves: Vec<(String, Vec<usize>, Vec<f64>)> = SQUARE_SWEEP_KERNELS
        .iter()
        .map(|name| ((*name).to_string(), Vec::new(), Vec::new()))
        .collect();
    for &size in sizes {
        for (idx, op) in square_ops(size).into_iter().enumerate() {
            let alg = single_call_algorithm(op.clone());
            let seconds = executor.time_isolated_call(&alg, 0);
            curves[idx].1.push(size);
            curves[idx].2.push(machine.efficiency(op.flops(), seconds));
            calls.insert(op, seconds);
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
    use crate::efficiency::AnalyticEfficiencyModel;
    use crate::machine::MachineModel;
    use crate::simulate::SimulatedExecutor;
    use crate::store::{CalibrationStore, StoreMeta, TunedConfig};
    use lamb_kernels::{Backend, FieldValue, NativeBackend, ReferenceBackend, TileVariant};
    use lamb_matrix::ops::{is_triangular, max_abs_diff};
    use lamb_matrix::random::{random_spd, random_triangular};
    use lamb_matrix::{Matrix, Side, Structure, Trans, Uplo};

    /// The op list of the vocabulary tests: every variant as a square example
    /// of order `size`, plus rectangular shapes, upper triangles and
    /// transpositions the examples do not reach.
    fn vocabulary_ops(size: usize) -> Vec<KernelOp> {
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
        KernelOp::examples(size)
            .into_iter()
            .chain(rectangular)
            .collect()
    }

    #[test]
    fn single_call_algorithms_are_well_formed() {
        // The vocabulary-completeness test: every op of `vocabulary_ops`
        // goes through every layer that spells the op set. A new variant
        // either fails to compile (exhaustive matches) or fails here.
        let cfg = BlockConfig::default();
        let materialise = |i: usize, (rows, cols, structure): (usize, usize, Structure)| {
            let seed = 40 + i as u64;
            match structure {
                Structure::Triangular(uplo) => random_triangular(rows, uplo, seed),
                Structure::Spd => random_spd(rows, seed),
                Structure::General => random_seeded(rows, cols, seed),
            }
        };
        for op in vocabulary_ops(7) {
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

            // The structural view: the op is its mnemonic plus its fields.
            let fields = op.fields();
            let get = |name: &str| fields.iter().find(|f| f.name == name).map(|f| f.value);
            assert_eq!(KernelOp::from_fields(op.mnemonic(), get), Ok(op.clone()));
            let first = fields[0];
            let without_first = |name: &str| get(name).filter(|_| name != first.name);
            assert_eq!(
                KernelOp::from_fields(op.mnemonic(), without_first).is_err(),
                first.keyed,
                "{op}: only a flag the timing key resets may be absent"
            );
            assert!(KernelOp::from_fields("axpy", get).is_err());
            if let FieldValue::Flag(_) = first.value {
                let bad_tag = |name: &str| {
                    let tag = FieldValue::Flag('X');
                    get(name).map(|v| if name == first.name { tag } else { v })
                };
                assert!(KernelOp::from_fields(op.mnemonic(), bad_tag).is_err());
            }

            // The persistence layer: the store's per-op JSON round-trips.
            let mut store = CalibrationStore::new(MachineModel::generic_laptop(), "simulated");
            store.calls.insert(op.clone(), 1.0 / 7.0);
            let back = CalibrationStore::from_json(&store.to_json()).unwrap();
            assert_eq!(back.calls.get(&op), Some(1.0 / 7.0), "{op}");
        }
        // Both sides of every sided op are among the examples.
        for side in [Side::Left, Side::Right] {
            let count = KernelOp::examples(7)
                .iter()
                .filter(|op| op.side() == Some(side))
                .count();
            assert_eq!(count, 4, "{side:?}");
        }
    }

    /// A store touching every section of the v6 document: every op of
    /// `vocabulary_ops(7)` in the call table, fixed timestamps, a profile and
    /// a tuned configuration.
    fn golden_store() -> CalibrationStore {
        let mut store = CalibrationStore::new(MachineModel::paper_xeon_silver_4210(), "simulated");
        store.meta = StoreMeta {
            executor: "simulated".into(),
            block_fingerprint: "mc128-kc256-nc4096-tb64-r8x4-pft14155776-par".into(),
            timing_reps: 10,
            created_unix: 1_700_000_000,
            updated_unix: 1_700_003_600,
            sweeps: 2,
        };
        store
            .profiles
            .push(SquareProfile::new("gemm", vec![100, 300], vec![0.3, 0.625]));
        for (i, op) in vocabulary_ops(7).into_iter().enumerate() {
            store.calls.insert(op, 1.0 / (i + 3) as f64);
        }
        store.tuned = Some(TunedConfig {
            config: BlockConfig {
                mc: 192,
                kc: 384,
                nc: 2048,
                tri_block: 96,
                tile: TileVariant::T8x8,
                parallel: true,
                parallel_flop_threshold: 1 << 21,
            },
            gflops: 100.0 / 7.0,
        });
        store
    }

    /// The `backends` member a v6 document carried while stores kept
    /// per-backend tables: the golden document had it last, after `tuned`.
    const RETIRED_BACKENDS_MEMBER: &str = r#"  "backends": [
    {
      "name": "reference",
      "profiles": [
        {
          "kernel": "trsm_r",
          "sizes": [
            50
          ],
          "efficiencies": [
            0.125
          ]
        }
      ],
      "calls": [
        {
          "op": "copy",
          "uplo": "L",
          "n": 5,
          "seconds": 0.022727272727272728
        },
        {
          "op": "factortri",
          "uplo": "L",
          "n": 5,
          "seconds": 0.020833333333333332
        },
        {
          "op": "gemm",
          "m": 5,
          "n": 5,
          "k": 5,
          "seconds": 0.024390243902439025
        },
        {
          "op": "getrf",
          "n": 5,
          "seconds": 0.022222222222222223
        },
        {
          "op": "laswp",
          "side": "L",
          "m": 5,
          "n": 5,
          "seconds": 0.019230769230769232
        },
        {
          "op": "laswp",
          "side": "R",
          "m": 5,
          "n": 5,
          "seconds": 0.017857142857142856
        },
        {
          "op": "ormqr",
          "m": 5,
          "n": 5,
          "k": 1,
          "seconds": 0.02127659574468085
        },
        {
          "op": "potrf",
          "uplo": "L",
          "n": 5,
          "seconds": 0.023255813953488372
        },
        {
          "op": "qr",
          "m": 5,
          "n": 5,
          "seconds": 0.021739130434782608
        },
        {
          "op": "symm",
          "side": "L",
          "uplo": "L",
          "m": 5,
          "n": 5,
          "seconds": 0.02040816326530612
        },
        {
          "op": "symm",
          "side": "R",
          "uplo": "L",
          "m": 5,
          "n": 5,
          "seconds": 0.018867924528301886
        },
        {
          "op": "syrk",
          "uplo": "L",
          "trans": "N",
          "n": 5,
          "k": 5,
          "seconds": 0.023809523809523808
        },
        {
          "op": "trmm",
          "side": "L",
          "uplo": "L",
          "m": 5,
          "n": 5,
          "seconds": 0.02
        },
        {
          "op": "trmm",
          "side": "R",
          "uplo": "L",
          "m": 5,
          "n": 5,
          "seconds": 0.018518518518518517
        },
        {
          "op": "trsm",
          "side": "L",
          "uplo": "L",
          "m": 5,
          "n": 5,
          "seconds": 0.0196078431372549
        },
        {
          "op": "trsm",
          "side": "R",
          "uplo": "L",
          "m": 5,
          "n": 5,
          "seconds": 0.01818181818181818
        }
      ]
    }
  ]"#;

    #[test]
    fn the_v6_document_is_byte_identical_to_the_golden_fixture() {
        // Recorded at 51b8032, before the per-op JSON arms became one generic
        // writer and reader over `KernelOp::fields`: the format must not move.
        // Its `backends` member has since been retired; a document that still
        // carries it is the golden text with the member spliced back in, and
        // it must read to the same store and write back as the golden text.
        let golden = include_str!("../tests/fixtures/store_v6_all_ops.json");
        let store = golden_store();
        assert_eq!(store.to_json(), golden);
        let body = golden.strip_suffix("\n}\n").unwrap();
        let with_backends = format!("{body},\n{RETIRED_BACKENDS_MEMBER}\n}}\n");
        for text in [golden, with_backends.as_str()] {
            let back = CalibrationStore::from_json(text).unwrap();
            assert_eq!(back.to_json(), golden);
            assert_eq!(back.meta, store.meta);
            assert_eq!(back.machine, store.machine);
            assert_eq!(back.tuned, store.tuned);
            assert_eq!(back.calls.len(), store.calls.len());
            for (op, seconds) in store.calls.entries() {
                assert_eq!(
                    back.calls.get(op).map(f64::to_bits),
                    Some(seconds.to_bits()),
                    "{op}"
                );
            }
        }
    }

    /// `(default, smooth)` efficiency bits of every op of `efficiency_ops`,
    /// recorded at 51b8032 (eight `*_rel` fields, nine `*_variant_factor`
    /// methods).
    const EFFICIENCY_BITS: [(u64, u64); 79] = [
        (0x3f6659aaf1eef81a, 0x3f7201f7234a8d06),
        (0x3f47bfffde3b3046, 0x3f565d6d050d8605),
        (0x3f37ebd15126fa43, 0x3f4b11bed8a323a2),
        (0x3ff0000000000000, 0x3ff0000000000000),
        (0x3f3647ff72792ffc, 0x3f49929f3e970d2d),
        (0x3f342c97610e103e, 0x3f469357e3176561),
        (0x3f20bd3f9ee383df, 0x3f313f2358411d3a),
        (0x3ff0000000000000, 0x3ff0000000000000),
        (0x3f500cae07820560, 0x3f608d8d7026cff0),
        (0x3f4af5e0c6eca9c5, 0x3f5c15393d8ff02d),
        (0x3f3d729f28ed8dc2, 0x3f5070a091760e4d),
        (0x3ff0000000000000, 0x3ff0000000000000),
        (0x3f500cae07820560, 0x3f608d8d7026cff0),
        (0x3f4af5e0c6eca9c5, 0x3f5c15393d8ff02d),
        (0x3f3d729f28ed8dc2, 0x3f5070a091760e4d),
        (0x3ff0000000000000, 0x3ff0000000000000),
        (0x3f5dbc358708f005, 0x3f67f52e2d35e7a8),
        (0x3f3b6515c65e57c5, 0x3f49cc1880b74e77),
        (0x3f3d3bf9f8626a6c, 0x3f4e26b7f387d74b),
        (0x3f40c3ec95841c20, 0x3f51769c10c51220),
        (0x3f40c3ec95841c20, 0x3f51769c10c51220),
        (0x3f3106b3490e5912, 0x3f4302b5e594afdf),
        (0x3f3106b3490e5912, 0x3f4302b5e594afdf),
        (0x3f37ebd15126fa43, 0x3f4b11bed8a323a2),
        (0x3ff0000000000000, 0x3ff0000000000000),
        (0x3f44c7fdcfbe315c, 0x3f57d9e363adaa7b),
        (0x3f2528c4eb510a78, 0x3f37ad89d83a7660),
        (0x3f33fd78f7b94e1b, 0x3f449896664fef3a),
        (0x3ff0000000000000, 0x3ff0000000000000),
        (0x3ff0000000000000, 0x3ff0000000000000),
        (0x3ff0000000000000, 0x3ff0000000000000),
        (0x3fcb9c6dace799f3, 0x3fd00d8d28fdb8c3),
        (0x3fb22c4463409eb3, 0x3fb8b298854e7fde),
        (0x3fa82536ba870550, 0x3faf8bcb9e02597d),
        (0x3ff0000000000000, 0x3ff0000000000000),
        (0x3fa71f0a5dcfbe22, 0x3faddf56d1d8249e),
        (0x3fa483332197c3d3, 0x3faa807eeb3c78b4),
        (0x3f66f42924b5de46, 0x3f74cfc26f628c85),
        (0x3ff0000000000000, 0x3ff0000000000000),
        (0x3fbb002a38eafaa1, 0x3fc0e12ef1d79679),
        (0x3fb710164575df28, 0x3fbd7831eab6ef37),
        (0x3fabfc539ff30da9, 0x3fb27d4d7070ae5f),
        (0x3ff0000000000000, 0x3ff0000000000000),
        (0x3fbb002a38eafaa1, 0x3fc0e12ef1d79679),
        (0x3fb710164575df28, 0x3fbd7831eab6ef37),
        (0x3fabfc539ff30da9, 0x3fb27d4d7070ae5f),
        (0x3ff0000000000000, 0x3ff0000000000000),
        (0x3fe5533f04c1dca8, 0x3fe5533f04c1dca8),
        (0x3fd82b2549a8829c, 0x3fd82b2549a8829c),
        (0x3fce9d3e3614c5d5, 0x3fd132f20d1fce10),
        (0x3ff0000000000000, 0x3ff0000000000000),
        (0x3fcd8a0c6c803efc, 0x3fd0692358b9068c),
        (0x3fcab4d5acbd2f40, 0x3fcdac7ba37cdf2a),
        (0x3f84602bc2d12bbe, 0x3f8d3bbef7ebd383),
        (0x3ff0000000000000, 0x3ff0000000000000),
        (0x3fdcd694a136ff77, 0x3fdcd694a136ff77),
        (0x3fda97714ef2a0bb, 0x3fda97714ef2a0bb),
        (0x3fd0c541f91773ea, 0x3fd30eb3b254d52d),
        (0x3ff0000000000000, 0x3ff0000000000000),
        (0x3fdcd694a136ff77, 0x3fdcd694a136ff77),
        (0x3fda97714ef2a0bb, 0x3fda97714ef2a0bb),
        (0x3fd0c541f91773ea, 0x3fd30eb3b254d52d),
        (0x3ff0000000000000, 0x3ff0000000000000),
        (0x3fead16a17d0d198, 0x3fead16a17d0d198),
        (0x3fe421e5473deed4, 0x3fe421e5473deed4),
        (0x3fdfa8b5b209f164, 0x3fdfa8b5b209f164),
        (0x3ff0000000000000, 0x3ff0000000000000),
        (0x3fde81310ff13809, 0x3fde81310ff13809),
        (0x3fdc528c24640690, 0x3fdc528c24640690),
        (0x3f8e773565f112aa, 0x3f95dad756b7f46b),
        (0x3ff0000000000000, 0x3ff0000000000000),
        (0x3fe5cd53e11c0384, 0x3fe5cd53e11c0384),
        (0x3fe4fec7a3a020aa, 0x3fe4fec7a3a020aa),
        (0x3fe0d6c1f10acbd3, 0x3fe0d6c1f10acbd3),
        (0x3ff0000000000000, 0x3ff0000000000000),
        (0x3fe5cd53e11c0384, 0x3fe5cd53e11c0384),
        (0x3fe4fec7a3a020aa, 0x3fe4fec7a3a020aa),
        (0x3fe0d6c1f10acbd3, 0x3fe0d6c1f10acbd3),
        (0x3ff0000000000000, 0x3ff0000000000000),
    ];

    fn efficiency_ops() -> Vec<KernelOp> {
        let mut ops = vocabulary_ops(7);
        for order in [64, 300, 1000] {
            ops.extend(KernelOp::examples(order));
        }
        ops
    }

    #[test]
    fn analytic_efficiencies_are_bit_identical_to_the_recorded_table() {
        let (default, smooth) = (
            AnalyticEfficiencyModel::default(),
            AnalyticEfficiencyModel::smooth(),
        );
        let ops = efficiency_ops();
        assert_eq!(ops.len(), EFFICIENCY_BITS.len());
        for (op, bits) in ops.iter().zip(EFFICIENCY_BITS) {
            let got = (
                default.efficiency(op).to_bits(),
                smooth.efficiency(op).to_bits(),
            );
            assert_eq!(got, bits, "{op}");
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
        let mut calls = CallTimeTable::new();
        let profiles = measure_square_profiles(&mut sim, &sizes, &mut calls);
        assert_eq!(calls.len(), sizes.len() * SQUARE_SWEEP_KERNELS.len());
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
