//! Kernel backends: interchangeable implementations of the kernel vocabulary
//! ([`KernelOp`]) the planner can choose between *per call*.
//!
//! The paper's discriminant question — "which algorithm is fastest?" — has a
//! second axis in any real library: which *implementation* of each kernel
//! runs. A [`Backend`] binds a [`KernelOp`] plus its input matrices to one
//! concrete implementation:
//!
//! * [`NativeBackend`] is the one `match` from an op to the blocked, packed,
//!   Rayon-parallel view-level kernels of this crate;
//! * [`ReferenceBackend`] runs straight-loop naive kernels for the BLAS-3
//!   multiplication family — no packing, no blocking, no parallel runtime —
//!   and is the oracle the native kernels are tested against.
//!
//! Factorisations (POTRF/GETRF/QR), reflector application and the zero-FLOP
//! packed-factor movers have a single shared implementation: the reference
//! backend delegates them to the native one, so *every* backend supports the
//! full vocabulary and a `--backend` pin can execute any algorithm
//! end-to-end.
//!
//! Both backends check a call's operands against the op's claimed
//! dimensions ([`KernelOp::input_shapes`], [`KernelOp::output_shape`]) before
//! touching them, so a malformed call is a [`MatrixError`], never a panic.

use crate::config::BlockConfig;
use crate::gemm::{gemm, naive::gemm_naive};
use crate::getrf::{
    factor_triangle_into, getrf_packed_into, pivot_apply_into, pivot_apply_right_into,
};
use crate::op::KernelOp;
use crate::potrf::potrf;
use crate::qr::{ormqr, qr_packed_into};
use crate::symm::symm;
use crate::syrk::syrk;
use crate::trmm::{trmm, trmm_naive};
use crate::trsm::{trsm, trsm_naive};
use lamb_matrix::{Matrix, MatrixError, Result, Side, Trans, Uplo};
use std::sync::Arc;

/// Name of the default blocked-driver backend.
pub const NATIVE_BACKEND_NAME: &str = "native";

/// Name of the naive straight-loop backend.
pub const REFERENCE_BACKEND_NAME: &str = "reference";

/// Identifies one of the backends this build ships — what a plan carries per
/// call. The string form ([`BackendId::name`]) is the key calibration data is
/// stored under and what `lamb select --backend <name>` parses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BackendId {
    /// [`NativeBackend`].
    Native,
    /// [`ReferenceBackend`].
    Reference,
}

impl BackendId {
    /// Every backend this build ships, native first.
    pub const ALL: [BackendId; 2] = [BackendId::Native, BackendId::Reference];

    /// The backend's stable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendId::Native => NATIVE_BACKEND_NAME,
            BackendId::Reference => REFERENCE_BACKEND_NAME,
        }
    }

    /// The backend with this stable name, if this build ships one.
    #[must_use]
    pub fn from_name(name: &str) -> Option<BackendId> {
        BackendId::ALL.into_iter().find(|id| id.name() == name)
    }

    /// The implementation this id names.
    #[must_use]
    pub fn backend(self) -> Arc<dyn Backend> {
        match self {
            BackendId::Native => Arc::new(NativeBackend),
            BackendId::Reference => Arc::new(ReferenceBackend),
        }
    }
}

impl std::fmt::Display for BackendId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.name())
    }
}

/// An interchangeable implementation of the kernel vocabulary.
///
/// Object safe: the measured executor holds an `Arc<dyn Backend>` and runs
/// whichever backend the plan chose for each call.
pub trait Backend: Send + Sync + std::fmt::Debug {
    /// Which registered backend this is.
    fn id(&self) -> BackendId;

    /// Stable name of this backend — the key its calibration data is stored
    /// under and what `lamb select --backend <name>` pins.
    fn name(&self) -> &'static str {
        self.id().name()
    }

    /// Whether this backend can execute the given operation. Honest by
    /// contract: `supports(op)` implies [`Backend::run_into`] succeeds on
    /// well-shaped operands.
    fn supports(&self, op: &KernelOp) -> bool;

    /// Execute `op` over `inputs` into `out` (already allocated at the op's
    /// output shape). Input order follows [`KernelOp::input_shapes`]: the
    /// structured operand (triangle, symmetric operand, packed factor)
    /// first, then the rectangular operand. The triangle copy works in place
    /// on `out`: when the copied operand *is* the output (the IR's in-place
    /// spelling) pass no input, otherwise the one input is copied into `out`
    /// first.
    ///
    /// # Errors
    ///
    /// [`MatrixError::ArityMismatch`] when `inputs` has the wrong length,
    /// [`MatrixError::DimensionMismatch`] when an operand's shape disagrees
    /// with the op's claimed dimensions; otherwise the underlying kernel's
    /// errors — TRSM's singularity error, POTRF's indefiniteness error.
    fn run_into(
        &self,
        op: &KernelOp,
        inputs: &[&Matrix],
        out: &mut Matrix,
        cfg: &BlockConfig,
    ) -> Result<()>;

    /// Execute `op` over `inputs` into a freshly allocated output of the
    /// op's [output shape](KernelOp::output_shape).
    ///
    /// # Errors
    ///
    /// See [`Backend::run_into`].
    fn run_new(&self, op: &KernelOp, inputs: &[&Matrix], cfg: &BlockConfig) -> Result<Matrix> {
        let (rows, cols) = op.output_shape();
        let mut out = Matrix::zeros(rows, cols);
        self.run_into(op, inputs, &mut out, cfg)?;
        Ok(out)
    }
}

/// Check a call's operands against the op's arity and claimed dimensions.
fn check_operands(op: &KernelOp, inputs: &[&Matrix], out: &Matrix) -> Result<()> {
    let mismatch = |what: &'static str, got: (usize, usize), want: (usize, usize)| {
        Err(MatrixError::DimensionMismatch {
            op: what,
            lhs: got,
            rhs: want,
        })
    };
    let arity = op.input_shapes().count();
    let in_place_copy = matches!(op, KernelOp::CopyTriangle { .. }) && inputs.is_empty();
    if inputs.len() != arity && !in_place_copy {
        return Err(MatrixError::ArityMismatch {
            op: op.mnemonic(),
            expected: arity,
            got: inputs.len(),
        });
    }
    for (input, (rows, cols, _)) in inputs.iter().zip(op.input_shapes()) {
        // A packed QR factor is taller than the triangle FactorTri extracts.
        let fits = match op {
            KernelOp::FactorTri { .. } => input.rows() >= rows && input.cols() == cols,
            _ => input.shape() == (rows, cols),
        };
        if !fits {
            return mismatch("kernel call input", input.shape(), (rows, cols));
        }
    }
    if out.shape() != op.output_shape() {
        return mismatch("kernel call output", out.shape(), op.output_shape());
    }
    Ok(())
}

/// The blocked, packed, Rayon-parallel kernels of this crate — the default
/// backend, and the one the store's top-level calibration tables describe.
#[derive(Debug, Clone, Copy, Default)]
pub struct NativeBackend;

impl Backend for NativeBackend {
    fn id(&self) -> BackendId {
        BackendId::Native
    }

    fn supports(&self, _op: &KernelOp) -> bool {
        true
    }

    fn run_into(
        &self,
        op: &KernelOp,
        inputs: &[&Matrix],
        out: &mut Matrix,
        cfg: &BlockConfig,
    ) -> Result<()> {
        check_operands(op, inputs, out)?;
        let c = &mut out.view_mut();
        match *op {
            KernelOp::Gemm { transa, transb, .. } => gemm(
                transa,
                transb,
                1.0,
                &inputs[0].view(),
                &inputs[1].view(),
                0.0,
                c,
                cfg,
            ),
            KernelOp::Syrk { uplo, trans, .. } => {
                syrk(uplo, trans, 1.0, &inputs[0].view(), 0.0, c, cfg)
            }
            KernelOp::Symm { side, uplo, .. } => symm(
                side,
                uplo,
                1.0,
                &inputs[0].view(),
                &inputs[1].view(),
                0.0,
                c,
                cfg,
            ),
            KernelOp::Trmm {
                side, uplo, trans, ..
            } => trmm(
                side,
                uplo,
                trans,
                1.0,
                &inputs[0].view(),
                &inputs[1].view(),
                c,
                cfg,
            ),
            KernelOp::Trsm {
                side, uplo, trans, ..
            } => trsm(
                side,
                uplo,
                trans,
                1.0,
                &inputs[0].view(),
                &inputs[1].view(),
                c,
                cfg,
            ),
            // The `uplo` triangle of the operand is copied into a zeroed
            // output and factored in place, so the result is an *explicitly*
            // triangular factor ready for TRMM/TRSM consumers.
            KernelOp::Potrf { uplo, .. } => {
                out.fill(0.0);
                out.copy_triangle(inputs[0], uplo)?;
                potrf(uplo, &mut out.view_mut(), cfg)
            }
            KernelOp::CopyTriangle { uplo, .. } => {
                if let Some(src) = inputs.first() {
                    out.as_mut_slice().copy_from_slice(src.as_slice());
                }
                out.symmetrize_from(uplo)
            }
            KernelOp::Getrf { .. } => getrf_packed_into(inputs[0], out, cfg),
            KernelOp::Qr { .. } => qr_packed_into(inputs[0], out, cfg),
            KernelOp::Ormqr { .. } => ormqr(inputs[0], inputs[1], out, cfg),
            KernelOp::FactorTri { uplo, .. } => factor_triangle_into(uplo, inputs[0], out),
            KernelOp::PivotApply { side, .. } => match side {
                Side::Left => pivot_apply_into(inputs[0], inputs[1], out),
                Side::Right => pivot_apply_right_into(inputs[0], inputs[1], out),
            },
        }
    }
}

/// Straight-loop naive kernels for the BLAS-3 multiplication family (GEMM,
/// SYRK, SYMM, TRMM, TRSM on either side); everything else delegates to the
/// native implementations.
///
/// Deliberately *not* a slowed-down copy of the native backend: the naive
/// loops skip packing, blocking and the parallel runtime entirely, which
/// makes them an independent oracle for the blocked kernels. They are also
/// the slower implementation at every measured order (8–17× at n = 16–64,
/// `BENCH_kernels.json`), so per-call backend selection settles on `native`
/// in practice.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceBackend;

impl Backend for ReferenceBackend {
    fn id(&self) -> BackendId {
        BackendId::Reference
    }

    fn supports(&self, _op: &KernelOp) -> bool {
        true
    }

    fn run_into(
        &self,
        op: &KernelOp,
        inputs: &[&Matrix],
        out: &mut Matrix,
        cfg: &BlockConfig,
    ) -> Result<()> {
        check_operands(op, inputs, out)?;
        match *op {
            KernelOp::Gemm { transa, transb, .. } => gemm_naive(
                transa,
                transb,
                1.0,
                &inputs[0].view(),
                &inputs[1].view(),
                0.0,
                &mut out.view_mut(),
            ),
            KernelOp::Syrk { uplo, trans, .. } => syrk_reference(uplo, trans, inputs[0], out),
            KernelOp::Symm { side, uplo, .. } => {
                symm_reference(side, uplo, inputs[0], inputs[1], out)
            }
            KernelOp::Trmm {
                side, uplo, trans, ..
            } => trmm_naive(
                side,
                uplo,
                trans,
                1.0,
                &inputs[0].view(),
                &inputs[1].view(),
                &mut out.view_mut(),
            ),
            KernelOp::Trsm {
                side, uplo, trans, ..
            } => trsm_naive(
                side,
                uplo,
                trans,
                1.0,
                &inputs[0].view(),
                &inputs[1].view(),
                &mut out.view_mut(),
            ),
            // Factorisations and packed-factor movers have one shared
            // implementation; see the module docs.
            _ => NativeBackend.run_into(op, inputs, out, cfg),
        }
    }
}

/// One triangle of `op(A)·op(A)ᵀ` by plain triple loop, the other triangle
/// left at zero — the same output contract as the blocked SYRK.
fn syrk_reference(uplo: Uplo, trans: Trans, a: &Matrix, c: &mut Matrix) -> Result<()> {
    let (n, k) = trans.apply(a.shape());
    if c.shape() != (n, n) {
        return Err(MatrixError::DimensionMismatch {
            op: "syrk (reference)",
            lhs: c.shape(),
            rhs: (n, n),
        });
    }
    let get = |i: usize, p: usize| match trans {
        Trans::No => a[(i, p)],
        Trans::Yes => a[(p, i)],
    };
    c.fill(0.0);
    for j in 0..n {
        let (lo, hi) = match uplo {
            Uplo::Lower => (j, n),
            Uplo::Upper => (0, j + 1),
        };
        for i in lo..hi {
            let mut acc = 0.0;
            for p in 0..k {
                acc += get(i, p) * get(j, p);
            }
            c[(i, j)] = acc;
        }
    }
    Ok(())
}

/// `A_sym·B` (Left) or `B·A_sym` (Right) by plain triple loop, reading the
/// symmetric operand through a mirror of its stored triangle — the same
/// input contract as the blocked SYMM.
fn symm_reference(
    side: Side,
    uplo: Uplo,
    a_sym: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
) -> Result<()> {
    let order = a_sym.rows();
    let ok = a_sym.cols() == order
        && c.shape() == b.shape()
        && match side {
            Side::Left => b.rows() == order,
            Side::Right => b.cols() == order,
        };
    if !ok {
        return Err(MatrixError::DimensionMismatch {
            op: "symm (reference)",
            lhs: a_sym.shape(),
            rhs: b.shape(),
        });
    }
    let sym = |i: usize, j: usize| {
        let mirrored = match uplo {
            Uplo::Lower => i < j,
            Uplo::Upper => i > j,
        };
        if mirrored {
            a_sym[(j, i)]
        } else {
            a_sym[(i, j)]
        }
    };
    let (m, n) = b.shape();
    for j in 0..n {
        for i in 0..m {
            let mut acc = 0.0;
            match side {
                Side::Left => {
                    for p in 0..order {
                        acc += sym(i, p) * b[(p, j)];
                    }
                }
                Side::Right => {
                    for p in 0..order {
                        acc += b[(i, p)] * sym(p, j);
                    }
                }
            }
            c[(i, j)] = acc;
        }
    }
    Ok(())
}

/// Look up a backend by its stable name.
#[must_use]
pub fn backend_by_name(name: &str) -> Option<Arc<dyn Backend>> {
    BackendId::from_name(name).map(BackendId::backend)
}

/// Every backend this build ships, native first.
#[must_use]
pub fn all_backends() -> Vec<Arc<dyn Backend>> {
    BackendId::ALL.into_iter().map(BackendId::backend).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamb_matrix::ops::max_abs_diff;
    use lamb_matrix::random::{random_seeded, random_spd, random_triangular};

    fn run(backend: &dyn Backend, op: &KernelOp, inputs: &[&Matrix]) -> Matrix {
        backend
            .run_new(op, inputs, &BlockConfig::default())
            .unwrap()
    }

    #[test]
    fn backends_agree_on_the_multiplication_family_both_sides() {
        let a = random_seeded(17, 13, 1);
        let b = random_seeded(13, 9, 2);
        let s = random_spd(17, 3);
        let sr = random_spd(9, 4);
        let l = random_triangular(17, Uplo::Lower, 5);
        let u = random_triangular(9, Uplo::Upper, 6);
        let rect = random_seeded(17, 9, 7);
        let cases: Vec<(KernelOp, Vec<&Matrix>)> = vec![
            (
                KernelOp::Gemm {
                    transa: Trans::No,
                    transb: Trans::No,
                    m: 17,
                    n: 9,
                    k: 13,
                },
                vec![&a, &b],
            ),
            (
                KernelOp::Syrk {
                    uplo: Uplo::Lower,
                    trans: Trans::No,
                    n: 17,
                    k: 13,
                },
                vec![&a],
            ),
            (
                KernelOp::Syrk {
                    uplo: Uplo::Upper,
                    trans: Trans::Yes,
                    n: 13,
                    k: 17,
                },
                vec![&a],
            ),
            (
                KernelOp::Symm {
                    side: Side::Left,
                    uplo: Uplo::Lower,
                    m: 17,
                    n: 9,
                },
                vec![&s, &rect],
            ),
            (
                KernelOp::Symm {
                    side: Side::Right,
                    uplo: Uplo::Upper,
                    m: 17,
                    n: 9,
                },
                vec![&sr, &rect],
            ),
            (
                KernelOp::Trmm {
                    side: Side::Left,
                    uplo: Uplo::Lower,
                    trans: Trans::No,
                    m: 17,
                    n: 9,
                },
                vec![&l, &rect],
            ),
            (
                KernelOp::Trmm {
                    side: Side::Right,
                    uplo: Uplo::Upper,
                    trans: Trans::Yes,
                    m: 17,
                    n: 9,
                },
                vec![&u, &rect],
            ),
            (
                KernelOp::Trsm {
                    side: Side::Left,
                    uplo: Uplo::Lower,
                    trans: Trans::No,
                    m: 17,
                    n: 9,
                },
                vec![&l, &rect],
            ),
            (
                KernelOp::Trsm {
                    side: Side::Right,
                    uplo: Uplo::Upper,
                    trans: Trans::No,
                    m: 17,
                    n: 9,
                },
                vec![&u, &rect],
            ),
        ];
        for (op, inputs) in cases {
            let native = run(&NativeBackend, &op, &inputs);
            let reference = run(&ReferenceBackend, &op, &inputs);
            assert!(max_abs_diff(&native, &reference).unwrap() < 1e-10, "{op}");
        }
    }

    #[test]
    fn reference_backend_delegates_the_factorisations() {
        let s = random_spd(12, 8);
        let op = KernelOp::Potrf {
            uplo: Uplo::Lower,
            n: 12,
        };
        let native = run(&NativeBackend, &op, &[&s]);
        let reference = run(&ReferenceBackend, &op, &[&s]);
        assert_eq!(max_abs_diff(&native, &reference).unwrap(), 0.0);
        let a = random_seeded(10, 10, 9);
        let op = KernelOp::Getrf { n: 10 };
        let native = run(&NativeBackend, &op, &[&a]);
        let reference = run(&ReferenceBackend, &op, &[&a]);
        assert_eq!(max_abs_diff(&native, &reference).unwrap(), 0.0);
    }

    #[test]
    fn both_backends_support_the_full_vocabulary() {
        let ops = [
            KernelOp::Gemm {
                transa: Trans::No,
                transb: Trans::No,
                m: 4,
                n: 4,
                k: 4,
            },
            KernelOp::Trsm {
                side: Side::Right,
                uplo: Uplo::Lower,
                trans: Trans::No,
                m: 4,
                n: 4,
            },
            KernelOp::PivotApply {
                side: Side::Right,
                m: 4,
                n: 4,
            },
            KernelOp::Qr { m: 6, n: 4 },
        ];
        for op in &ops {
            assert!(NativeBackend.supports(op));
            assert!(ReferenceBackend.supports(op));
        }
        assert_eq!(NativeBackend.name(), "native");
        assert_eq!(ReferenceBackend.name(), "reference");
        assert!(backend_by_name("native").is_some());
        assert!(backend_by_name("reference").is_some());
        assert!(backend_by_name("mkl").is_none());
        assert_eq!(all_backends().len(), 2);
    }

    #[test]
    fn degenerate_zero_dimensions_execute_cleanly() {
        let empty = Matrix::zeros(0, 0);
        let b = Matrix::zeros(0, 5);
        let op = KernelOp::Trmm {
            side: Side::Left,
            uplo: Uplo::Lower,
            trans: Trans::No,
            m: 0,
            n: 5,
        };
        for backend in all_backends() {
            let out = run(backend.as_ref(), &op, &[&empty, &b]);
            assert_eq!(out.shape(), (0, 5));
        }
    }

    #[test]
    fn shape_errors_are_reported_not_panicked() {
        let bad = Matrix::zeros(3, 3);
        let sym = Matrix::zeros(4, 4);
        let b = Matrix::zeros(4, 5);
        let op = KernelOp::Symm {
            side: Side::Left,
            uplo: Uplo::Lower,
            m: 4,
            n: 5,
        };
        let cfg = BlockConfig::default();
        let mut out = Matrix::zeros(4, 5);
        let mut small_out = Matrix::zeros(2, 2);
        for backend in all_backends() {
            // Operands that disagree with each other.
            assert!(backend.run_into(&op, &[&bad, &b], &mut out, &cfg).is_err());
            // Operands that conform with each other but not with the op's
            // claimed dimensions.
            let wide = Matrix::zeros(4, 6);
            let mut wide_out = Matrix::zeros(4, 6);
            assert!(matches!(
                backend.run_into(&op, &[&sym, &wide], &mut wide_out, &cfg),
                Err(MatrixError::DimensionMismatch { .. })
            ));
            // A mis-sized destination is rejected, not silently truncated.
            assert!(backend
                .run_into(&op, &[&sym, &b], &mut small_out, &cfg)
                .is_err());
            // Too few and too many inputs, and none at all.
            for inputs in [&[&sym][..], &[&sym, &b, &b][..], &[][..]] {
                let err = backend.run_into(&op, inputs, &mut out, &cfg).unwrap_err();
                assert_eq!(
                    err,
                    MatrixError::ArityMismatch {
                        op: "symm",
                        expected: 2,
                        got: inputs.len()
                    }
                );
                assert!(err.to_string().contains("symm takes 2"), "{err}");
            }
            // The factorisation tier is checked the same way.
            let getrf = KernelOp::Getrf { n: 4 };
            assert!(backend.run_into(&getrf, &[], &mut out, &cfg).is_err());
            assert!(backend.run_new(&getrf, &[&b], &cfg).is_err());
        }
    }
}
