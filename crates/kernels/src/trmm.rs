//! Triangular matrix–matrix multiplication: `C := alpha * op(L) * B`
//! (`side == Left`, `L` an `m x m` triangle) or `C := alpha * B * op(L)`
//! (`side == Right`, `L` an `n x n` triangle), where only the [`Uplo`]
//! triangle of `L` is referenced.
//!
//! Unlike the BLAS routine (which overwrites `B` in place) this kernel is
//! out-of-place, matching how the executors materialise each intermediate of
//! an algorithm into its own operand. The triangular structure halves the
//! useful FLOPs relative to a GEMM of the same logical shape — `m²·n` versus
//! `2·m²·n` on the left, `n²·m` versus `2·n²·m` on the right (see
//! [`crate::flops::trmm_flops`]) — which is exactly the FLOPs-versus-time
//! tension the paper's anomaly taxonomy feeds on.
//!
//! The implementation is a thin specialisation of the shared
//! [`BlockedDriver`]. On the left, output columns are distributed as panels,
//! and within a panel the rows of `C` are walked in diagonal blocks of
//! [`BlockConfig::tri_block`] rows. On the right the roles of rows and
//! columns swap: within each column panel the *columns* are walked in
//! diagonal blocks of the triangle, since it is now the output column index
//! that selects a triangular stripe of `op(L)`. Either way each block's
//! contribution splits into a dense rectangle strictly inside the triangle
//! (handled by the packed rectangular core) plus the small diagonal block
//! itself (handled by the same core through a triangle-masked accessor).

use crate::config::BlockConfig;
use crate::driver::{scale_inplace, BlockedDriver};
use crate::pack::{Operand, Strided};
use lamb_matrix::{MatrixError, MatrixView, MatrixViewMut, Result, Side, Trans, Uplo};

/// Validate the operand shapes shared by TRMM and TRSM: `L` square of order
/// `m` (Left) or `n` (Right), `B` and the output both `m x n`.
pub(crate) fn check_triangular_shapes(
    op: &'static str,
    side: Side,
    l: &MatrixView<'_>,
    b: &MatrixView<'_>,
    c: &MatrixViewMut<'_>,
) -> Result<(usize, usize)> {
    if l.rows() != l.cols() {
        return Err(MatrixError::NotSquare {
            rows: l.rows(),
            cols: l.cols(),
        });
    }
    let m = c.rows();
    let n = c.cols();
    let order = match side {
        Side::Left => m,
        Side::Right => n,
    };
    if l.rows() != order {
        return Err(MatrixError::DimensionMismatch {
            op,
            lhs: (l.rows(), l.cols()),
            rhs: (order, order),
        });
    }
    if b.rows() != m || b.cols() != n {
        return Err(MatrixError::DimensionMismatch {
            op,
            lhs: (b.rows(), b.cols()),
            rhs: (m, n),
        });
    }
    Ok((m, n))
}

/// `C := alpha * op(L) * B` (Left) or `C := alpha * B * op(L)` (Right) where
/// `op(L)` is `L` or `Lᵀ` and only the `uplo` triangle of `L` is referenced
/// (the opposite triangle is treated as zero, whatever it contains).
///
/// The FLOP count attributed to this kernel by the Section-3.1-style model is
/// `m²·n` on the left and `n²·m` on the right
/// (see [`crate::flops::trmm_flops`]) — half of what a GEMM of the same shape
/// performs.
///
/// # Errors
///
/// Returns [`MatrixError::NotSquare`] or [`MatrixError::DimensionMismatch`]
/// when the operand shapes are inconsistent.
#[allow(clippy::too_many_arguments)] // BLAS-style interface
pub fn trmm(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    l: &MatrixView<'_>,
    b: &MatrixView<'_>,
    c: &mut MatrixViewMut<'_>,
    cfg: &BlockConfig,
) -> Result<()> {
    let (m, n) = check_triangular_shapes("trmm operand shape", side, l, b, c)?;
    scale_inplace(0.0, c);
    if m == 0 || n == 0 || alpha == 0.0 {
        return Ok(());
    }

    // op(L) ignoring the triangle mask.
    let op_l = Strided::new(l, trans);
    // The triangle op(L) effectively occupies: transposition flips it.
    let eff = uplo.under(trans);
    let op_b = Strided::new(b, Trans::No);

    let driver = BlockedDriver::new(cfg);
    let tb = cfg.tri_block.max(1);
    let inner = match side {
        Side::Left => m,
        Side::Right => n,
    };
    let parallel = cfg.should_parallelise(m, n, inner);
    match side {
        Side::Left => {
            driver.for_each_panel(c.subview_mut(0, 0, m, n), parallel, |j0, mut panel| {
                let w = panel.cols();
                let mut i0 = 0;
                while i0 < m {
                    let mb = tb.min(m - i0);
                    // Diagonal block: mask the accessor to the effective triangle.
                    {
                        let mut out = panel.subview_mut(i0, 0, mb, w);
                        let masked = |i: usize, p: usize| {
                            if eff.contains(i0 + i, i0 + p) {
                                op_l.at(i0 + i, i0 + p)
                            } else {
                                0.0
                            }
                        };
                        driver.accumulate_serial(
                            mb,
                            w,
                            mb,
                            alpha,
                            &masked,
                            &op_b.offset(i0, j0),
                            &mut out,
                        );
                    }
                    // Off-diagonal rectangle: entirely inside the triangle, so
                    // the packed core reads op(L) unmasked.
                    match eff {
                        Uplo::Lower if i0 > 0 => {
                            let mut out = panel.subview_mut(i0, 0, mb, w);
                            driver.accumulate_serial(
                                mb,
                                w,
                                i0,
                                alpha,
                                &op_l.offset(i0, 0),
                                &op_b.offset(0, j0),
                                &mut out,
                            );
                        }
                        Uplo::Upper if i0 + mb < m => {
                            let right = m - (i0 + mb);
                            let mut out = panel.subview_mut(i0, 0, mb, w);
                            driver.accumulate_serial(
                                mb,
                                w,
                                right,
                                alpha,
                                &op_l.offset(i0, i0 + mb),
                                &op_b.offset(i0 + mb, j0),
                                &mut out,
                            );
                        }
                        _ => {}
                    }
                    i0 += tb;
                }
            });
        }
        Side::Right => {
            // C[:, q] = sum_p B[:, p] * op(L)[p, q]: the output column index
            // selects the triangular stripe, so the diagonal-block walk runs
            // over column blocks inside each panel.
            driver.for_each_panel(c.subview_mut(0, 0, m, n), parallel, |j0, mut panel| {
                let w = panel.cols();
                let mut c0 = 0;
                while c0 < w {
                    let cb = tb.min(w - c0);
                    let q0 = j0 + c0;
                    // Diagonal block of op(L): triangle-masked accessor.
                    {
                        let mut out = panel.subview_mut(0, c0, m, cb);
                        let masked = |p: usize, j: usize| {
                            if eff.contains(q0 + p, q0 + j) {
                                op_l.at(q0 + p, q0 + j)
                            } else {
                                0.0
                            }
                        };
                        driver.accumulate_serial(
                            m,
                            cb,
                            cb,
                            alpha,
                            &op_b.offset(0, q0),
                            &masked,
                            &mut out,
                        );
                    }
                    // Off-diagonal rectangle of op(L) above (Upper) or below
                    // (Lower) the diagonal block: unmasked packed core.
                    match eff {
                        Uplo::Upper if q0 > 0 => {
                            let mut out = panel.subview_mut(0, c0, m, cb);
                            driver.accumulate_serial(
                                m,
                                cb,
                                q0,
                                alpha,
                                &op_b,
                                &op_l.offset(0, q0),
                                &mut out,
                            );
                        }
                        Uplo::Lower if q0 + cb < n => {
                            let below = n - (q0 + cb);
                            let mut out = panel.subview_mut(0, c0, m, cb);
                            driver.accumulate_serial(
                                m,
                                cb,
                                below,
                                alpha,
                                &op_b.offset(0, q0 + cb),
                                &op_l.offset(q0 + cb, q0),
                                &mut out,
                            );
                        }
                        _ => {}
                    }
                    c0 += tb;
                }
            });
        }
    }
    Ok(())
}

/// Reference TRMM: the textbook triple loop over the masked triangle. Used by
/// the unit and property tests to validate the blocked kernel.
///
/// # Errors
///
/// Same shape checks as [`trmm`].
#[allow(clippy::too_many_arguments)] // BLAS-style interface
pub fn trmm_naive(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    l: &MatrixView<'_>,
    b: &MatrixView<'_>,
    c: &mut MatrixViewMut<'_>,
) -> Result<()> {
    let (m, n) = check_triangular_shapes("trmm operand shape", side, l, b, c)?;
    let eff = uplo.under(trans);
    let op_l = |i: usize, p: usize| match trans {
        Trans::No => l.at(i, p),
        Trans::Yes => l.at(p, i),
    };
    for j in 0..n {
        for i in 0..m {
            let mut acc = 0.0;
            match side {
                Side::Left => {
                    for p in 0..m {
                        if eff.contains(i, p) {
                            acc += op_l(i, p) * b.at(p, j);
                        }
                    }
                }
                Side::Right => {
                    for p in 0..n {
                        if eff.contains(p, j) {
                            acc += b.at(i, p) * op_l(p, j);
                        }
                    }
                }
            }
            *c.at_mut(i, j) = alpha * acc;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::naive::gemm_naive;
    use lamb_matrix::ops::max_abs_diff;
    use lamb_matrix::random::{random_seeded, random_triangular};
    use lamb_matrix::Matrix;

    fn check(
        side: Side,
        uplo: Uplo,
        trans: Trans,
        m: usize,
        n: usize,
        alpha: f64,
        cfg: &BlockConfig,
    ) {
        let order = match side {
            Side::Left => m,
            Side::Right => n,
        };
        let l = random_triangular(order, uplo, 5 + order as u64);
        let b = random_seeded(m, n, 100 + n as u64);
        let mut fast = Matrix::filled(m, n, f64::NAN); // := semantics: old contents ignored
        trmm(
            side,
            uplo,
            trans,
            alpha,
            &l.view(),
            &b.view(),
            &mut fast.view_mut(),
            cfg,
        )
        .unwrap();
        let mut reference = Matrix::zeros(m, n);
        trmm_naive(
            side,
            uplo,
            trans,
            alpha,
            &l.view(),
            &b.view(),
            &mut reference.view_mut(),
        )
        .unwrap();
        let diff = max_abs_diff(&fast, &reference).unwrap();
        assert!(
            diff < 1e-11 * (order as f64).max(1.0),
            "side {side:?} uplo {uplo:?} trans {trans:?} {m}x{n} alpha {alpha}: diff {diff}"
        );
    }

    #[test]
    fn all_side_uplo_trans_combinations_match_naive() {
        let cfg = BlockConfig::serial();
        for side in [Side::Left, Side::Right] {
            for uplo in [Uplo::Lower, Uplo::Upper] {
                for trans in [Trans::No, Trans::Yes] {
                    check(side, uplo, trans, 23, 17, 1.0, &cfg);
                    check(side, uplo, trans, 9, 31, -0.5, &cfg);
                }
            }
        }
    }

    #[test]
    fn tiny_blocking_exercises_partial_diag_blocks() {
        let cfg = BlockConfig::tiny();
        check(Side::Left, Uplo::Lower, Trans::No, 13, 7, 1.0, &cfg);
        check(Side::Left, Uplo::Upper, Trans::Yes, 11, 9, 2.0, &cfg);
        check(Side::Right, Uplo::Lower, Trans::No, 13, 7, 1.0, &cfg);
        check(Side::Right, Uplo::Upper, Trans::Yes, 7, 13, 2.0, &cfg);
    }

    #[test]
    fn parallel_path_matches_naive() {
        let cfg = BlockConfig {
            parallel_flop_threshold: 1,
            ..BlockConfig::default()
        };
        check(Side::Left, Uplo::Lower, Trans::No, 90, 70, 1.0, &cfg);
        check(Side::Left, Uplo::Upper, Trans::No, 64, 110, 1.0, &cfg);
        check(Side::Right, Uplo::Lower, Trans::No, 90, 70, 1.0, &cfg);
        check(Side::Right, Uplo::Upper, Trans::Yes, 64, 110, 1.0, &cfg);
    }

    #[test]
    fn naive_trmm_agrees_with_gemm_on_materialised_triangle() {
        // op(L)·B computed by GEMM over the explicitly-zeroed triangle equals
        // TRMM reading only the stored triangle — the numerical identity that
        // lets TRMM- and GEMM-based algorithm variants coexist in one
        // algorithm set.
        let cfg = BlockConfig::serial();
        let m = 19;
        let n = 8;
        let l = random_triangular(m, Uplo::Lower, 3);
        let b = random_seeded(m, n, 4);
        let mut via_trmm = Matrix::zeros(m, n);
        trmm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l.view(),
            &b.view(),
            &mut via_trmm.view_mut(),
            &cfg,
        )
        .unwrap();
        let mut via_gemm = Matrix::zeros(m, n);
        gemm_naive(
            Trans::No,
            Trans::No,
            1.0,
            &l.view(),
            &b.view(),
            0.0,
            &mut via_gemm.view_mut(),
        )
        .unwrap();
        assert!(max_abs_diff(&via_trmm, &via_gemm).unwrap() < 1e-11);
    }

    #[test]
    fn right_side_agrees_with_gemm_on_materialised_triangle() {
        // B·op(L) via GEMM over the explicit triangle equals the right-side
        // TRMM reading only the stored triangle.
        let cfg = BlockConfig::serial();
        let m = 9;
        let n = 21;
        let l = random_triangular(n, Uplo::Upper, 13);
        let b = random_seeded(m, n, 14);
        let mut via_trmm = Matrix::zeros(m, n);
        trmm(
            Side::Right,
            Uplo::Upper,
            Trans::No,
            1.0,
            &l.view(),
            &b.view(),
            &mut via_trmm.view_mut(),
            &cfg,
        )
        .unwrap();
        let mut via_gemm = Matrix::zeros(m, n);
        gemm_naive(
            Trans::No,
            Trans::No,
            1.0,
            &b.view(),
            &l.view(),
            0.0,
            &mut via_gemm.view_mut(),
        )
        .unwrap();
        assert!(max_abs_diff(&via_trmm, &via_gemm).unwrap() < 1e-11);
    }

    #[test]
    fn opposite_triangle_is_never_read() {
        let cfg = BlockConfig::tiny();
        let m = 12;
        let n = 5;
        for side in [Side::Left, Side::Right] {
            let order = match side {
                Side::Left => m,
                Side::Right => n,
            };
            let mut l = random_triangular(order, Uplo::Lower, 7);
            let clean = l.clone();
            // Poison the unreferenced triangle: results must not change.
            for i in 0..order {
                for j in (i + 1)..order {
                    l[(i, j)] = 1.0e300;
                }
            }
            let b = random_seeded(m, n, 8);
            let mut poisoned = Matrix::zeros(m, n);
            let mut reference = Matrix::zeros(m, n);
            for (src, out) in [(&l, &mut poisoned), (&clean, &mut reference)] {
                trmm(
                    side,
                    Uplo::Lower,
                    Trans::No,
                    1.0,
                    &src.view(),
                    &b.view(),
                    &mut out.view_mut(),
                    &cfg,
                )
                .unwrap();
            }
            assert_eq!(
                max_abs_diff(&poisoned, &reference).unwrap(),
                0.0,
                "{side:?}"
            );
        }
    }

    #[test]
    fn degenerate_and_bad_shapes() {
        let cfg = BlockConfig::default();
        // m = 0 / n = 0 are no-ops.
        let l = Matrix::zeros(0, 0);
        let b = Matrix::zeros(0, 4);
        let mut c = Matrix::zeros(0, 4);
        trmm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l.view(),
            &b.view(),
            &mut c.view_mut(),
            &cfg,
        )
        .unwrap();
        // Right side with an empty triangle: n = 0.
        let l0 = Matrix::zeros(0, 0);
        let b0 = Matrix::zeros(4, 0);
        let mut c0 = Matrix::zeros(4, 0);
        trmm(
            Side::Right,
            Uplo::Upper,
            Trans::No,
            1.0,
            &l0.view(),
            &b0.view(),
            &mut c0.view_mut(),
            &cfg,
        )
        .unwrap();
        // Rectangular L is rejected.
        let l_bad = Matrix::zeros(3, 4);
        let b3 = Matrix::zeros(3, 2);
        let mut c3 = Matrix::zeros(3, 2);
        assert!(trmm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l_bad.view(),
            &b3.view(),
            &mut c3.view_mut(),
            &cfg
        )
        .is_err());
        // Mismatched B is rejected.
        let l3 = Matrix::zeros(3, 3);
        let b_bad = Matrix::zeros(4, 2);
        assert!(trmm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l3.view(),
            &b_bad.view(),
            &mut c3.view_mut(),
            &cfg
        )
        .is_err());
        // Right side: L must match the column count, not the row count.
        let l_cols = Matrix::zeros(2, 2);
        assert!(trmm(
            Side::Right,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l3.view(),
            &b3.view(),
            &mut c3.view_mut(),
            &cfg
        )
        .is_err());
        let mut c_ok = Matrix::zeros(3, 2);
        trmm(
            Side::Right,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l_cols.view(),
            &b3.view(),
            &mut c_ok.view_mut(),
            &cfg,
        )
        .unwrap();
    }
}
