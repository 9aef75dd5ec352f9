//! One generic entry point over the view-based kernels for owned [`Matrix`]
//! operands.
//!
//! A [`Kernel`] is a fully-parameterised kernel invocation bound to its input
//! matrices; [`Kernel::run_into`] executes it into an existing output and
//! [`Kernel::run_new`] into a freshly allocated one sized by
//! [`Kernel::output_shape`]. The former per-kernel `*_new`/`*_into` pairs are
//! thin wrappers over this single dispatcher — this is what the measured
//! executor in `lamb-perfmodel` calls when it turns a symbolic kernel-call
//! sequence into actual computation.

use crate::config::BlockConfig;
use crate::gemm::gemm;
use crate::getrf::{factor_triangle, getrf_packed_into, pivot_apply, pivot_apply_right};
use crate::potrf::potrf;
use crate::qr::{ormqr, qr_packed_into};
use crate::symm::symm;
use crate::syrk::syrk;
use crate::trmm::trmm;
use crate::trsm::trsm;
use lamb_matrix::{Matrix, MatrixError, Result, Side, Trans, Uplo};

/// A kernel invocation bound to its input operands.
#[derive(Debug, Clone, Copy)]
pub enum Kernel<'a> {
    /// `C := op(A) * op(B)`.
    Gemm {
        /// Transposition of the left operand.
        transa: Trans,
        /// Left operand.
        a: &'a Matrix,
        /// Transposition of the right operand.
        transb: Trans,
        /// Right operand.
        b: &'a Matrix,
    },
    /// One triangle of `op(A)·op(A)ᵀ` (the other triangle is left at zero).
    Syrk {
        /// Triangle of the result that is computed.
        uplo: Uplo,
        /// Transposition of the operand.
        trans: Trans,
        /// The operand.
        a: &'a Matrix,
    },
    /// `A_sym · B` (Left) or `B · A_sym` (Right).
    Symm {
        /// Side from which the symmetric operand multiplies.
        side: Side,
        /// Stored triangle of the symmetric operand.
        uplo: Uplo,
        /// The symmetric operand.
        a_sym: &'a Matrix,
        /// The rectangular operand.
        b: &'a Matrix,
    },
    /// `C := op(L) · B` (Left) or `C := B · op(L)` (Right) with `L`
    /// triangular.
    Trmm {
        /// Side from which the triangular operand multiplies.
        side: Side,
        /// Stored triangle of `L`.
        uplo: Uplo,
        /// Transposition of `L`.
        trans: Trans,
        /// The triangular operand.
        l: &'a Matrix,
        /// The rectangular operand.
        b: &'a Matrix,
    },
    /// `X := op(L)⁻¹ · B` (Left) or `X := B · op(L)⁻¹` (Right) with `L`
    /// triangular.
    Trsm {
        /// Side from which the triangular operand divides.
        side: Side,
        /// Stored triangle of `L`.
        uplo: Uplo,
        /// Transposition of `L`.
        trans: Trans,
        /// The triangular operand.
        l: &'a Matrix,
        /// The right-hand sides.
        b: &'a Matrix,
    },
    /// `L := chol(A)`: the out-of-place Cholesky factorisation of an SPD
    /// operand. The `uplo` triangle of `A` is copied into a zeroed output and
    /// factored in place, so the result is an *explicitly* triangular factor
    /// (exact zeros outside its triangle) ready for TRMM/TRSM consumers.
    Potrf {
        /// Triangle the factor is computed in (`Lower`: `A = L·Lᵀ`).
        uplo: Uplo,
        /// The symmetric positive-definite operand.
        a: &'a Matrix,
    },
    /// `F := lu(A)`: the out-of-place partially pivoted LU factorisation of a
    /// general square operand into the packed `n x (n+1)` form — LU factors
    /// in columns `0..n`, pivot row indices (as `f64`) in column `n`. See
    /// [`crate::getrf::getrf_packed`].
    Getrf {
        /// The general square operand.
        a: &'a Matrix,
    },
    /// `F := qr(A)`: the out-of-place Householder QR factorisation of a tall
    /// (`m >= n`) operand into the packed `m x (n+1)` form — reflectors and
    /// `R` in columns `0..n`, `tau` coefficients in column `n`. See
    /// [`crate::qr::qr_packed`].
    Qr {
        /// The general tall operand.
        a: &'a Matrix,
    },
    /// `C := (Qᵀ·B)[0..n, :]` from a packed QR factor: the least-squares
    /// right-hand-side reduction. See [`crate::qr::ormqr`].
    Ormqr {
        /// The packed QR factor (`m x (n+1)`).
        f: &'a Matrix,
        /// The right-hand sides (`m x k`).
        b: &'a Matrix,
    },
    /// `T := tri(F)`: extract an explicitly triangular `n x n` factor from a
    /// packed factor operand (`Lower`: LU's unit-lower `L`; `Upper`: LU's `U`
    /// or QR's `R`). Zero FLOPs. See [`crate::getrf::factor_triangle`].
    FactorTri {
        /// Which triangular factor to extract.
        uplo: Uplo,
        /// The packed factor operand (`r x (n+1)`).
        f: &'a Matrix,
    },
    /// `Bp := P·B` (left) or `Bp := B·P` (right): apply the permutation
    /// recorded in a packed LU factor's pivot column to `b`'s rows or
    /// columns. Zero FLOPs. See [`crate::getrf::pivot_apply`] and
    /// [`crate::getrf::pivot_apply_right`].
    PivotApply {
        /// Which side the permutation multiplies from.
        side: Side,
        /// The packed LU factor (`r x (r+1)` where `r` is `b`'s row count
        /// on the left, column count on the right).
        f: &'a Matrix,
        /// The operand being permuted.
        b: &'a Matrix,
    },
}

impl Kernel<'_> {
    /// Shape `(rows, cols)` of the output this invocation produces.
    #[must_use]
    pub fn output_shape(&self) -> (usize, usize) {
        match *self {
            Kernel::Gemm {
                transa,
                a,
                transb,
                b,
            } => {
                let (m, _) = transa.apply(a.shape());
                let (_, n) = transb.apply(b.shape());
                (m, n)
            }
            Kernel::Syrk { trans, a, .. } => {
                let (n, _) = trans.apply(a.shape());
                (n, n)
            }
            Kernel::Symm { b, .. } | Kernel::Trmm { b, .. } | Kernel::Trsm { b, .. } => b.shape(),
            Kernel::Potrf { a, .. } => a.shape(),
            Kernel::Getrf { a } => (a.rows(), a.rows() + 1),
            Kernel::Qr { a } => (a.rows(), a.cols() + 1),
            Kernel::Ormqr { f, b } => (f.cols().saturating_sub(1), b.cols()),
            Kernel::FactorTri { f, .. } => {
                let n = f.cols().saturating_sub(1);
                (n, n)
            }
            Kernel::PivotApply { b, .. } => b.shape(),
        }
    }

    /// Execute the invocation into an existing, correctly sized output.
    ///
    /// # Errors
    ///
    /// Propagates the underlying kernel's shape errors, TRSM's singularity
    /// error, and POTRF's [`lamb_matrix::MatrixError::NotPositiveDefinite`].
    pub fn run_into(&self, c: &mut Matrix, cfg: &BlockConfig) -> Result<()> {
        match *self {
            Kernel::Gemm {
                transa,
                a,
                transb,
                b,
            } => gemm(
                transa,
                transb,
                1.0,
                &a.view(),
                &b.view(),
                0.0,
                &mut c.view_mut(),
                cfg,
            ),
            Kernel::Syrk { uplo, trans, a } => {
                syrk(uplo, trans, 1.0, &a.view(), 0.0, &mut c.view_mut(), cfg)
            }
            Kernel::Symm {
                side,
                uplo,
                a_sym,
                b,
            } => symm(
                side,
                uplo,
                1.0,
                &a_sym.view(),
                &b.view(),
                0.0,
                &mut c.view_mut(),
                cfg,
            ),
            Kernel::Trmm {
                side,
                uplo,
                trans,
                l,
                b,
            } => trmm(
                side,
                uplo,
                trans,
                1.0,
                &l.view(),
                &b.view(),
                &mut c.view_mut(),
                cfg,
            ),
            Kernel::Trsm {
                side,
                uplo,
                trans,
                l,
                b,
            } => trsm(
                side,
                uplo,
                trans,
                1.0,
                &l.view(),
                &b.view(),
                &mut c.view_mut(),
                cfg,
            ),
            Kernel::Potrf { uplo, a } => {
                c.fill(0.0);
                c.copy_triangle(a, uplo)?;
                potrf(uplo, &mut c.view_mut(), cfg)
            }
            Kernel::Getrf { a } => getrf_packed_into(a, c, cfg),
            Kernel::Qr { a } => qr_packed_into(a, c, cfg),
            Kernel::Ormqr { f, b } => ormqr(f, b, c, cfg),
            Kernel::FactorTri { uplo, f } => copy_into(c, &factor_triangle(uplo, f)?),
            Kernel::PivotApply { side, f, b } => match side {
                Side::Left => copy_into(c, &pivot_apply(f, b)?),
                Side::Right => copy_into(c, &pivot_apply_right(f, b)?),
            },
        }
    }

    /// Execute the invocation into a freshly allocated output matrix.
    ///
    /// # Errors
    ///
    /// See [`Kernel::run_into`].
    pub fn run_new(&self, cfg: &BlockConfig) -> Result<Matrix> {
        let (m, n) = self.output_shape();
        let mut c = Matrix::zeros(m, n);
        self.run_into(&mut c, cfg)?;
        Ok(c)
    }
}

/// `C := op(A) * op(B)` into a freshly allocated matrix.
///
/// # Errors
///
/// Propagates shape errors from [`gemm`].
pub fn gemm_new(
    transa: Trans,
    a: &Matrix,
    transb: Trans,
    b: &Matrix,
    cfg: &BlockConfig,
) -> Result<Matrix> {
    Kernel::Gemm {
        transa,
        a,
        transb,
        b,
    }
    .run_new(cfg)
}

/// `C := op(A) * op(B)` into an existing, correctly sized output matrix.
///
/// # Errors
///
/// Propagates shape errors from [`gemm`].
pub fn gemm_into(
    transa: Trans,
    a: &Matrix,
    transb: Trans,
    b: &Matrix,
    c: &mut Matrix,
    cfg: &BlockConfig,
) -> Result<()> {
    Kernel::Gemm {
        transa,
        a,
        transb,
        b,
    }
    .run_into(c, cfg)
}

/// One triangle of `op(A)·op(A)ᵀ` into a freshly allocated matrix (the other
/// triangle is left at zero).
///
/// # Errors
///
/// Propagates shape errors from [`syrk`].
pub fn syrk_new(uplo: Uplo, trans: Trans, a: &Matrix, cfg: &BlockConfig) -> Result<Matrix> {
    Kernel::Syrk { uplo, trans, a }.run_new(cfg)
}

/// One triangle of `op(A)·op(A)ᵀ` into an existing output matrix.
///
/// # Errors
///
/// Propagates shape errors from [`syrk`].
pub fn syrk_into(
    uplo: Uplo,
    trans: Trans,
    a: &Matrix,
    c: &mut Matrix,
    cfg: &BlockConfig,
) -> Result<()> {
    Kernel::Syrk { uplo, trans, a }.run_into(c, cfg)
}

/// `A_sym · B` (Left) or `B · A_sym` (Right) into a freshly allocated matrix.
///
/// # Errors
///
/// Propagates shape errors from [`symm`].
pub fn symm_new(
    side: Side,
    uplo: Uplo,
    a_sym: &Matrix,
    b: &Matrix,
    cfg: &BlockConfig,
) -> Result<Matrix> {
    Kernel::Symm {
        side,
        uplo,
        a_sym,
        b,
    }
    .run_new(cfg)
}

/// `A_sym · B` (Left) or `B · A_sym` (Right) into an existing output matrix.
///
/// # Errors
///
/// Propagates shape errors from [`symm`].
pub fn symm_into(
    side: Side,
    uplo: Uplo,
    a_sym: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
    cfg: &BlockConfig,
) -> Result<()> {
    Kernel::Symm {
        side,
        uplo,
        a_sym,
        b,
    }
    .run_into(c, cfg)
}

/// `op(L) · B` (Left) or `B · op(L)` (Right) into a freshly allocated matrix.
///
/// # Errors
///
/// Propagates shape errors from [`trmm`].
pub fn trmm_new(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    l: &Matrix,
    b: &Matrix,
    cfg: &BlockConfig,
) -> Result<Matrix> {
    Kernel::Trmm {
        side,
        uplo,
        trans,
        l,
        b,
    }
    .run_new(cfg)
}

/// `op(L)⁻¹ · B` (Left) or `B · op(L)⁻¹` (Right) into a freshly allocated
/// matrix.
///
/// # Errors
///
/// Propagates shape and singularity errors from [`trsm`].
pub fn trsm_new(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    l: &Matrix,
    b: &Matrix,
    cfg: &BlockConfig,
) -> Result<Matrix> {
    Kernel::Trsm {
        side,
        uplo,
        trans,
        l,
        b,
    }
    .run_new(cfg)
}

/// The explicitly triangular Cholesky factor of an SPD matrix, freshly
/// allocated (zeros outside the factored triangle).
///
/// # Errors
///
/// Propagates shape and positive-definiteness errors from [`potrf`].
pub fn potrf_new(uplo: Uplo, a: &Matrix, cfg: &BlockConfig) -> Result<Matrix> {
    Kernel::Potrf { uplo, a }.run_new(cfg)
}

/// The packed `n x (n+1)` partially pivoted LU factor of a general square
/// matrix, freshly allocated.
///
/// # Errors
///
/// Propagates shape and singularity errors from [`crate::getrf::getrf`].
pub fn getrf_new(a: &Matrix, cfg: &BlockConfig) -> Result<Matrix> {
    Kernel::Getrf { a }.run_new(cfg)
}

/// The packed `m x (n+1)` Householder QR factor of a tall matrix, freshly
/// allocated.
///
/// # Errors
///
/// Propagates shape errors from [`crate::qr::qr`].
pub fn qr_new(a: &Matrix, cfg: &BlockConfig) -> Result<Matrix> {
    Kernel::Qr { a }.run_new(cfg)
}

/// The top `n` rows of `Qᵀ·B` from a packed QR factor, freshly allocated.
///
/// # Errors
///
/// Propagates shape errors from [`crate::qr::ormqr`].
pub fn ormqr_new(f: &Matrix, b: &Matrix, cfg: &BlockConfig) -> Result<Matrix> {
    Kernel::Ormqr { f, b }.run_new(cfg)
}

/// An explicitly triangular factor extracted from a packed factor operand,
/// freshly allocated.
///
/// # Errors
///
/// Propagates shape errors from [`crate::getrf::factor_triangle`].
pub fn factor_tri_new(uplo: Uplo, f: &Matrix, cfg: &BlockConfig) -> Result<Matrix> {
    Kernel::FactorTri { uplo, f }.run_new(cfg)
}

/// The pivoted operand `P·B` (left) or `B·P` (right) from a packed LU
/// factor, freshly allocated.
///
/// # Errors
///
/// Propagates shape errors from [`crate::getrf::pivot_apply`] /
/// [`crate::getrf::pivot_apply_right`].
pub fn pivot_apply_new(side: Side, f: &Matrix, b: &Matrix, cfg: &BlockConfig) -> Result<Matrix> {
    Kernel::PivotApply { side, f, b }.run_new(cfg)
}

/// Copy an owned kernel result into the caller's output operand, rejecting a
/// mis-sized destination the way the view-based kernels do.
fn copy_into(c: &mut Matrix, out: &Matrix) -> Result<()> {
    if c.shape() != out.shape() {
        return Err(MatrixError::DimensionMismatch {
            op: "kernel output",
            lhs: c.shape(),
            rhs: out.shape(),
        });
    }
    c.as_mut_slice().copy_from_slice(out.as_slice());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::naive::gemm_naive;
    use lamb_matrix::ops::max_abs_diff;
    use lamb_matrix::random::{random_seeded, random_triangular};

    #[test]
    fn gemm_new_and_into_agree() {
        let cfg = BlockConfig::default();
        let a = random_seeded(12, 9, 1);
        let b = random_seeded(9, 14, 2);
        let fresh = gemm_new(Trans::No, &a, Trans::No, &b, &cfg).unwrap();
        let mut reused = Matrix::filled(12, 14, f64::NAN);
        gemm_into(Trans::No, &a, Trans::No, &b, &mut reused, &cfg).unwrap();
        assert!(max_abs_diff(&fresh, &reused).unwrap() == 0.0);
    }

    #[test]
    fn gemm_new_transposed_output_shape() {
        let cfg = BlockConfig::default();
        let a = random_seeded(5, 8, 3);
        let b = random_seeded(5, 7, 4);
        // C = A^T * B : (8x5)*(5x7) = 8x7
        let c = gemm_new(Trans::Yes, &a, Trans::No, &b, &cfg).unwrap();
        assert_eq!(c.shape(), (8, 7));
    }

    #[test]
    fn output_shapes_cover_every_kernel() {
        let a = Matrix::zeros(6, 4);
        let sq = Matrix::zeros(6, 6);
        let b = Matrix::zeros(6, 9);
        assert_eq!(
            Kernel::Gemm {
                transa: Trans::No,
                a: &a,
                transb: Trans::No,
                b: &Matrix::zeros(4, 9),
            }
            .output_shape(),
            (6, 9)
        );
        assert_eq!(
            Kernel::Syrk {
                uplo: Uplo::Lower,
                trans: Trans::Yes,
                a: &a,
            }
            .output_shape(),
            (4, 4)
        );
        assert_eq!(
            Kernel::Symm {
                side: Side::Left,
                uplo: Uplo::Lower,
                a_sym: &sq,
                b: &b,
            }
            .output_shape(),
            (6, 9)
        );
        assert_eq!(
            Kernel::Trmm {
                side: Side::Left,
                uplo: Uplo::Lower,
                trans: Trans::No,
                l: &sq,
                b: &b,
            }
            .output_shape(),
            (6, 9)
        );
        assert_eq!(
            Kernel::Trsm {
                side: Side::Left,
                uplo: Uplo::Upper,
                trans: Trans::Yes,
                l: &sq,
                b: &b,
            }
            .output_shape(),
            (6, 9)
        );
        // Right side: the triangle sits on the column dimension, the output
        // shape is still B's.
        let t9 = Matrix::zeros(9, 9);
        assert_eq!(
            Kernel::Trmm {
                side: Side::Right,
                uplo: Uplo::Upper,
                trans: Trans::No,
                l: &t9,
                b: &b,
            }
            .output_shape(),
            (6, 9)
        );
    }

    #[test]
    fn syrk_new_produces_triangle_only() {
        let cfg = BlockConfig::default();
        let a = random_seeded(10, 6, 5);
        let c = syrk_new(Uplo::Lower, Trans::No, &a, &cfg).unwrap();
        assert_eq!(c.shape(), (10, 10));
        for i in 0..10 {
            for j in 0..10 {
                if i < j {
                    assert_eq!(c[(i, j)], 0.0, "upper triangle must stay zero");
                }
            }
        }
    }

    #[test]
    fn symm_new_matches_explicit_full_product() {
        let cfg = BlockConfig::default();
        let a = random_seeded(8, 8, 6);
        let mut sym_full = a.clone();
        sym_full.symmetrize_from(Uplo::Lower).unwrap();
        let b = random_seeded(8, 5, 7);
        let via_symm = symm_new(Side::Left, Uplo::Lower, &sym_full, &b, &cfg).unwrap();
        let mut expected = Matrix::zeros(8, 5);
        gemm_naive(
            Trans::No,
            Trans::No,
            1.0,
            &sym_full.view(),
            &b.view(),
            0.0,
            &mut expected.view_mut(),
        )
        .unwrap();
        assert!(max_abs_diff(&via_symm, &expected).unwrap() < 1e-11);
    }

    #[test]
    fn potrf_new_produces_an_explicit_triangular_factor() {
        use lamb_matrix::random::random_spd;
        let cfg = BlockConfig::default();
        let a = random_spd(18, 12);
        let l = potrf_new(Uplo::Lower, &a, &cfg).unwrap();
        assert_eq!(l.shape(), (18, 18));
        assert!(lamb_matrix::ops::is_triangular(&l, Uplo::Lower).unwrap());
        // The input operand is untouched (out-of-place realisation)...
        assert_eq!(a, random_spd(18, 12));
        // ...and L·Lᵀ reconstructs it.
        let mut back = Matrix::zeros(18, 18);
        gemm_naive(
            Trans::No,
            Trans::Yes,
            1.0,
            &l.view(),
            &l.view(),
            0.0,
            &mut back.view_mut(),
        )
        .unwrap();
        assert!(max_abs_diff(&back, &a).unwrap() < 1e-10 * 18.0);
        assert_eq!(
            Kernel::Potrf {
                uplo: Uplo::Lower,
                a: &a
            }
            .output_shape(),
            (18, 18)
        );
    }

    #[test]
    fn getrf_and_qr_solve_pipelines_through_the_dispatcher() {
        let cfg = BlockConfig::default();
        // LU: A⁻¹·B through GETRF → pivot → two TRSMs.
        let n = 19;
        let a = random_seeded(n, n, 31);
        let b = random_seeded(n, 4, 32);
        let f = getrf_new(&a, &cfg).unwrap();
        assert_eq!(f.shape(), (n, n + 1));
        let l = factor_tri_new(Uplo::Lower, &f, &cfg).unwrap();
        let u = factor_tri_new(Uplo::Upper, &f, &cfg).unwrap();
        let bp = pivot_apply_new(Side::Left, &f, &b, &cfg).unwrap();
        let y = trsm_new(Side::Left, Uplo::Lower, Trans::No, &l, &bp, &cfg).unwrap();
        let x = trsm_new(Side::Left, Uplo::Upper, Trans::No, &u, &y, &cfg).unwrap();
        let ax = gemm_new(Trans::No, &a, Trans::No, &x, &cfg).unwrap();
        assert!(max_abs_diff(&ax, &b).unwrap() < 1e-10 * n as f64);
        // QR: argmin ‖Ax - b‖ through QR → ORMQR → one TRSM.
        let (m, k) = (29, 11);
        let t = random_seeded(m, k, 33);
        let rhs = random_seeded(m, 3, 34);
        let fq = qr_new(&t, &cfg).unwrap();
        assert_eq!(fq.shape(), (m, k + 1));
        let r = factor_tri_new(Uplo::Upper, &fq, &cfg).unwrap();
        let c = ormqr_new(&fq, &rhs, &cfg).unwrap();
        assert_eq!(c.shape(), (k, 3));
        let x = trsm_new(Side::Left, Uplo::Upper, Trans::No, &r, &c, &cfg).unwrap();
        // Optimality: Aᵀ(A·X - B) = 0.
        let ax = gemm_new(Trans::No, &t, Trans::No, &x, &cfg).unwrap();
        let resid = Matrix::from_fn(m, 3, |i, j| ax[(i, j)] - rhs[(i, j)]);
        let normal = gemm_new(Trans::Yes, &t, Trans::No, &resid, &cfg).unwrap();
        assert!(lamb_matrix::ops::max_abs(&normal) < 1e-10 * m as f64);
        // A mis-sized destination is rejected, not silently truncated.
        let mut wrong = Matrix::zeros(2, 2);
        assert!(Kernel::Getrf { a: &a }.run_into(&mut wrong, &cfg).is_err());
    }

    #[test]
    fn trmm_and_trsm_round_trip_through_the_dispatcher() {
        let cfg = BlockConfig::default();
        let l = random_triangular(14, Uplo::Lower, 3);
        let b = random_seeded(14, 6, 4);
        let lb = trmm_new(Side::Left, Uplo::Lower, Trans::No, &l, &b, &cfg).unwrap();
        let back = trsm_new(Side::Left, Uplo::Lower, Trans::No, &l, &lb, &cfg).unwrap();
        assert!(max_abs_diff(&back, &b).unwrap() < 1e-10);
        // Right side: B·L then (B·L)·L⁻¹ recovers B.
        let r = random_triangular(6, Uplo::Upper, 5);
        let bl = trmm_new(Side::Right, Uplo::Upper, Trans::No, &r, &b, &cfg).unwrap();
        let back_r = trsm_new(Side::Right, Uplo::Upper, Trans::No, &r, &bl, &cfg).unwrap();
        assert!(max_abs_diff(&back_r, &b).unwrap() < 1e-10);
    }

    #[test]
    fn aatb_two_step_pipelines_agree() {
        // Full A*A^T*B computed two different ways must agree: this is the
        // numerical-equivalence property that underpins the paper's algorithm
        // set for the expression A·Aᵀ·B.
        let cfg = BlockConfig::default();
        let a = random_seeded(16, 9, 8);
        let b = random_seeded(16, 11, 9);
        // Way 1: M = A*A^T (full via gemm), X = M*B.
        let m_full = gemm_new(Trans::No, &a, Trans::Yes, &a, &cfg).unwrap();
        let x1 = gemm_new(Trans::No, &m_full, Trans::No, &b, &cfg).unwrap();
        // Way 2: M = A^T*B, X = A*M.
        let m2 = gemm_new(Trans::Yes, &a, Trans::No, &b, &cfg).unwrap();
        let x2 = gemm_new(Trans::No, &a, Trans::No, &m2, &cfg).unwrap();
        // Way 3: SYRK triangle + SYMM.
        let tri = syrk_new(Uplo::Lower, Trans::No, &a, &cfg).unwrap();
        let x3 = symm_new(Side::Left, Uplo::Lower, &tri, &b, &cfg).unwrap();
        assert!(max_abs_diff(&x1, &x2).unwrap() < 1e-10);
        assert!(max_abs_diff(&x1, &x3).unwrap() < 1e-10);
    }
}
