//! Cholesky factorisation: `A = L·Lᵀ` (lower) or `A = Uᵀ·U` (upper) of a
//! symmetric positive-definite matrix, in place on the stored triangle.
//!
//! The factor overwrites the `uplo` triangle of `A`; the opposite triangle is
//! neither read nor written (callers that need an explicitly triangular
//! factor — zeros outside the triangle — start from a zeroed matrix and copy
//! only the stored triangle in, which is exactly what the out-of-place
//! [`crate::backend::NativeBackend`] realisation of `KernelOp::Potrf` does).
//!
//! Structure on the shared [`BlockedDriver`]
//! engine: the **right-looking blocked algorithm**, applied recursively. A
//! matrix wider than [`BlockConfig::tri_block`] splits off one such block, a
//! narrower one splits in half, and each step
//!
//! 1. factors the leading block (by the same recursion, down to the
//!    small-call rule the factorisation tier shares, below which the block
//!    is factored in place on column slices, reporting
//!    [`MatrixError::NotPositiveDefinite`] on a non-positive pivot),
//! 2. computes the panel below/right of it with one in-place triangular
//!    solve (see [`crate::trsm::trsm`]) against the freshly factored block,
//!    and
//! 3. folds the panel into the trailing submatrix with one rank-`kb`
//!    [`crate::syrk::syrk`] update (`alpha = -1`, `beta = 1`), which is then
//!    factored in turn.
//!
//! Steps 2 and 3 are where the `n³/3` bulk of the work happens, and both run
//! on the packed, cache-blocked, Rayon-capable engine. A matrix under the
//! rule is factored in place without them: the lower triangle left-looking
//! in panels of eight columns, each panel updated by one product on the
//! small tier and then factored column by column; the upper triangle
//! left-looking by columns.
//!
//! The Section-3.1-style FLOP model attributes `n³/3` FLOPs to the
//! factorisation (see [`crate::flops::potrf_flops`]): one sixth of the
//! equal-order GEMM, which is the FLOPs-versus-time tension that makes
//! Cholesky-based realisations of SPD inverses a fresh source of the paper's
//! anomalies.

use crate::config::BlockConfig;
use crate::driver::BlockedDriver;
use crate::leaf::{
    axpy, column_and_later, compact, dot, earlier_and_column, first_part, is_small, PANEL,
};
use crate::pack::Strided;
use crate::syrk::syrk;
use crate::trsm::trsm_in_place;
use lamb_matrix::{MatrixError, MatrixViewMut, Result, Side, Trans, Uplo};

/// Factor the `uplo` triangle of the square matrix `a` in place:
/// `A = L·Lᵀ` for [`Uplo::Lower`], `A = Uᵀ·U` for [`Uplo::Upper`]. Only the
/// `uplo` triangle is read and written.
///
/// # Errors
///
/// Returns [`MatrixError::NotSquare`] for rectangular input and
/// [`MatrixError::NotPositiveDefinite`] (with the absolute pivot index) when
/// the matrix is not positive definite, in which case the leading part of the
/// triangle holds a partial factor.
pub fn potrf(uplo: Uplo, a: &mut MatrixViewMut<'_>, cfg: &BlockConfig) -> Result<()> {
    check_square(a)?;
    factor(uplo, a, 0, cfg)
}

/// [`potrf`] on a trailing window whose first pivot has absolute index `k0`.
fn factor(uplo: Uplo, a: &mut MatrixViewMut<'_>, k0: usize, cfg: &BlockConfig) -> Result<()> {
    let n = a.rows();
    if is_small(n, n, n, cfg) {
        return factor_in_place(uplo, a, k0, cfg);
    }
    let kb = first_part(n, cfg.tri_block);
    let rest = n - kb;
    factor(uplo, &mut a.subview_mut(0, 0, kb, kb), k0, cfg)?;
    // The freshly factored block, copied out so the TRSM can borrow it while
    // the panel beside it — same columns (Lower) or same rows (Upper) of `a`
    // — is written.
    let diag = compact(a.as_view().subview(0, 0, kb, kb));
    match uplo {
        Uplo::Lower => {
            // Panel L21 := A21 · L11⁻ᵀ, then A22 (lower) -= L21 · L21ᵀ; the
            // panel and the trailing block live in disjoint column ranges.
            let (mut left, mut right) = a.subview_mut(0, 0, n, n).split_at_col_mut(kb);
            let mut l21 = left.subview_mut(kb, 0, rest, kb);
            trsm_in_place(Side::Right, uplo, Trans::Yes, &diag.view(), &mut l21, cfg)?;
            let mut a22 = right.subview_mut(kb, 0, rest, rest);
            syrk(uplo, Trans::No, -1.0, &l21.as_view(), 1.0, &mut a22, cfg)?;
        }
        Uplo::Upper => {
            // Panel U12 := U11⁻ᵀ · A12, then A22 (upper) -= U12ᵀ · U12; the
            // panel shares its columns with the trailing block, so the update
            // reads a copy.
            let mut a12 = a.subview_mut(0, kb, kb, rest);
            trsm_in_place(Side::Left, uplo, Trans::Yes, &diag.view(), &mut a12, cfg)?;
            let u12 = compact(a12.as_view());
            let mut a22 = a.subview_mut(kb, kb, rest, rest);
            syrk(uplo, Trans::Yes, -1.0, &u12.view(), 1.0, &mut a22, cfg)?;
        }
    }
    factor(uplo, &mut a.subview_mut(kb, kb, rest, rest), k0 + kb, cfg)
}

/// Cholesky of the whole window in place, on its `uplo` triangle: the small
/// tier, and the end of the recursion. Lower runs left-looking in panels of
/// [`PANEL`] columns (one panel up to twice that order) — every earlier
/// column folded into a panel by one product on the small tier, then the
/// panel factored column by column, one axpy per column pair; Upper runs
/// left-looking by columns, one dot product per element of the factor. Both stay on contiguous column slices. Pivot
/// failures report the *absolute* index `k0 + j`.
fn factor_in_place(
    uplo: Uplo,
    a: &mut MatrixViewMut<'_>,
    k0: usize,
    cfg: &BlockConfig,
) -> Result<()> {
    let n = a.rows();
    match uplo {
        Uplo::Lower => {
            let driver = BlockedDriver::new(cfg);
            // Up to two panels' worth, one panel is faster.
            let width = if n <= 2 * PANEL { n } else { PANEL };
            for j0 in (0..n).step_by(width.max(1)) {
                let jb = width.min(n - j0);
                let (done, mut rest) = a.subview_mut(0, 0, n, n).split_at_col_mut(j0);
                let mut panel = rest.subview_mut(j0, 0, n - j0, jb);
                if j0 > 0 {
                    // The panel's rows of L, and their transpose on its top.
                    let done = done.as_view();
                    let l = Strided::new(&done.subview(j0, 0, n - j0, j0), Trans::No);
                    let lt = Strided::new(&done.subview(j0, 0, jb, j0), Trans::Yes);
                    let ops = (&l, &lt);
                    driver.accumulate_small(n - j0, jb, j0, -1.0, ops, &mut panel, Some(uplo));
                }
                factor_lower_panel(&mut panel, k0 + j0)?;
            }
        }
        Uplo::Upper => {
            for j in 0..n {
                let (earlier, uj) = earlier_and_column(a, j);
                for (i, ui) in earlier.enumerate() {
                    uj[i] = (uj[i] - dot(&ui[..i], &uj[..i])) / ui[i];
                }
                uj[j] = pivot(uj[j] - dot(&uj[..j], &uj[..j]), k0 + j)?;
            }
        }
    }
    Ok(())
}

/// Right-looking Cholesky of the columns of a tall window whose `(0, 0)` is
/// the diagonal element of absolute index `k0`: the panel's diagonal block
/// is factored and the rows below it solved against it.
fn factor_lower_panel(a: &mut MatrixViewMut<'_>, k0: usize) -> Result<()> {
    for j in 0..a.cols() {
        let (l, later) = column_and_later(a, j);
        let d = pivot(l[j], k0 + j)?;
        l[j] = d;
        for v in &mut l[j + 1..] {
            *v /= d;
        }
        for (q, next) in (j + 1..).zip(later) {
            axpy(-l[q], &l[q..], &mut next[q..]);
        }
    }
    Ok(())
}

/// The factor's diagonal element from its reduced pivot `d`, or the
/// failure at absolute index `index`. The NaN check also rejects poisoned
/// pivots (e.g. inf - inf upstream), which would otherwise propagate
/// silently through sqrt.
fn pivot(d: f64, index: usize) -> Result<f64> {
    if d <= 0.0 || d.is_nan() {
        Err(MatrixError::NotPositiveDefinite { index })
    } else {
        Ok(d.sqrt())
    }
}

/// Reference POTRF: the unblocked Cholesky recurrence over the whole matrix.
/// Used by the unit and property tests to validate the blocked kernel.
/// (`lamb_matrix::ops::is_spd` carries its own copy of the same recurrence —
/// that crate sits below this one and cannot call in here.)
///
/// # Errors
///
/// Same checks as [`potrf`].
pub fn potrf_naive(uplo: Uplo, a: &mut MatrixViewMut<'_>) -> Result<()> {
    check_square(a)?;
    factor_unblocked(uplo, a, 0)
}

fn check_square(a: &MatrixViewMut<'_>) -> Result<usize> {
    if a.rows() != a.cols() {
        return Err(MatrixError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    Ok(a.rows())
}

/// Unblocked right-looking Cholesky of the whole window, reading and writing
/// only its `uplo` triangle. The triangle is copied once into a contiguous
/// lower-triangular scratch — for Upper the roles of rows and columns swap
/// (`A = UᵀU` is the Cholesky of the same matrix with the factor living in
/// the upper triangle) — so the recurrence itself is one axpy per column
/// pair. Pivot failures report the *absolute* index `k0 + j`.
fn factor_unblocked(uplo: Uplo, a: &mut MatrixViewMut<'_>, k0: usize) -> Result<()> {
    let n = a.rows();
    let stored = |i: usize, j: usize| match uplo {
        Uplo::Lower => (i, j),
        Uplo::Upper => (j, i),
    };
    let mut l = vec![0.0; n * n];
    for j in 0..n {
        for i in j..n {
            let (r, c) = stored(i, j);
            l[i + j * n] = a.at(r, c);
        }
    }
    let mut outcome = Ok(());
    for j in 0..n {
        let (done, todo) = l.split_at_mut((j + 1) * n);
        let col = &mut done[j * n + j..];
        // The NaN check also rejects poisoned pivots (e.g. inf - inf
        // upstream), which would otherwise propagate silently through sqrt.
        if col[0] <= 0.0 || col[0].is_nan() {
            outcome = Err(MatrixError::NotPositiveDefinite { index: k0 + j });
            break;
        }
        let d = col[0].sqrt();
        col[0] = d;
        for v in &mut col[1..] {
            *v /= d;
        }
        for (q, next) in todo.chunks_exact_mut(n).enumerate() {
            axpy(-col[q + 1], &col[q + 1..], &mut next[j + q + 1..]);
        }
    }
    for j in 0..n {
        for i in j..n {
            let (r, c) = stored(i, j);
            *a.at_mut(r, c) = l[i + j * n];
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::naive::gemm_naive;
    use crate::trsm::trsm_naive;
    use lamb_matrix::ops::max_abs_diff;
    use lamb_matrix::random::{random_seeded, random_spd};
    use lamb_matrix::Matrix;

    /// Zero the opposite triangle so the factor can be multiplied as a full
    /// matrix by the naive GEMM reference.
    fn explicit_triangle(a: &Matrix, uplo: Uplo) -> Matrix {
        Matrix::from_fn(a.rows(), a.cols(), |i, j| {
            if uplo.contains(i, j) {
                a[(i, j)]
            } else {
                0.0
            }
        })
    }

    fn check_reconstruction(uplo: Uplo, n: usize, seed: u64, cfg: &BlockConfig) {
        let a = random_spd(n, seed);
        let mut f = a.clone();
        potrf(uplo, &mut f.view_mut(), cfg).unwrap();
        let l = explicit_triangle(&f, uplo);
        // L·Lᵀ (lower) or Uᵀ·U (upper) must reproduce A.
        let (ta, tb) = match uplo {
            Uplo::Lower => (Trans::No, Trans::Yes),
            Uplo::Upper => (Trans::Yes, Trans::No),
        };
        let mut back = Matrix::zeros(n, n);
        gemm_naive(ta, tb, 1.0, &l.view(), &l.view(), 0.0, &mut back.view_mut()).unwrap();
        let diff = max_abs_diff(&back, &a).unwrap();
        assert!(
            diff < 1e-10 * (n as f64).max(1.0),
            "uplo {uplo:?} n {n}: reconstruction diff {diff}"
        );
    }

    #[test]
    fn blocked_factor_reconstructs_the_matrix() {
        let cfg = BlockConfig::serial();
        for uplo in [Uplo::Lower, Uplo::Upper] {
            for n in [1, 2, 5, 23, 64, 65, 97] {
                check_reconstruction(uplo, n, 7 + n as u64, &cfg);
            }
        }
    }

    #[test]
    fn both_triangles_match_naive_on_leaf_and_block_edges() {
        for (cfg, orders) in crate::leaf::tests::edge_grid() {
            for n in orders {
                for uplo in [Uplo::Lower, Uplo::Upper] {
                    let a = random_spd(n, 40 + n as u64);
                    let (mut blocked, mut naive) = (a.clone(), a.clone());
                    potrf(uplo, &mut blocked.view_mut(), &cfg).unwrap();
                    potrf_naive(uplo, &mut naive.view_mut()).unwrap();
                    // The opposite triangle is untouched input in both.
                    let diff = max_abs_diff(&blocked, &naive).unwrap();
                    assert!(diff <= 1e-10 * n as f64, "{uplo:?} n {n} {cfg:?}: {diff}");
                }
            }
        }
    }

    #[test]
    fn pivot_failures_in_later_blocks_keep_their_absolute_index() {
        // A diagonal entry pushed far below zero makes exactly that pivot
        // fail, whether it sits in the second or the third block.
        let cfg = BlockConfig::default();
        let n = 2 * cfg.tri_block + 9;
        for index in [cfg.tri_block + 5, n - 2] {
            for uplo in [Uplo::Lower, Uplo::Upper] {
                let mut a = random_spd(n, 51);
                a[(index, index)] = -1e6;
                let expected = Err(MatrixError::NotPositiveDefinite { index });
                assert_eq!(potrf(uplo, &mut a.clone().view_mut(), &cfg), expected);
                assert_eq!(potrf_naive(uplo, &mut a.view_mut()), expected);
            }
        }
    }

    #[test]
    fn tiny_blocking_exercises_partial_diag_blocks() {
        let cfg = BlockConfig::tiny(); // tri_block = 3
        for uplo in [Uplo::Lower, Uplo::Upper] {
            check_reconstruction(uplo, 13, 3, &cfg);
            check_reconstruction(uplo, 7, 4, &cfg);
        }
    }

    #[test]
    fn parallel_path_matches_naive() {
        let cfg = BlockConfig {
            parallel_flop_threshold: 1,
            ..BlockConfig::default()
        };
        for uplo in [Uplo::Lower, Uplo::Upper] {
            let a = random_spd(150, 17);
            let mut blocked = a.clone();
            potrf(uplo, &mut blocked.view_mut(), &cfg).unwrap();
            let mut naive = a.clone();
            potrf_naive(uplo, &mut naive.view_mut()).unwrap();
            // Compare only the factored triangle; the opposite one is
            // untouched original data in both.
            for i in 0..150 {
                for j in 0..150 {
                    if uplo.contains(i, j) {
                        assert!(
                            (blocked[(i, j)] - naive[(i, j)]).abs() < 1e-9,
                            "{uplo:?} ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn opposite_triangle_is_never_touched() {
        let cfg = BlockConfig::tiny();
        for uplo in [Uplo::Lower, Uplo::Upper] {
            let spd = random_spd(11, 5);
            // Poison the triangle POTRF must not reference.
            let mut a = Matrix::from_fn(11, 11, |i, j| {
                if uplo.contains(i, j) {
                    spd[(i, j)]
                } else {
                    777.0
                }
            });
            potrf(uplo, &mut a.view_mut(), &cfg).unwrap();
            for i in 0..11 {
                for j in 0..11 {
                    if !uplo.contains(i, j) {
                        assert_eq!(a[(i, j)], 777.0, "{uplo:?} wrote outside its triangle");
                    }
                }
            }
        }
    }

    #[test]
    fn factor_solves_spd_systems_through_two_trsms() {
        // The Cholesky realisation of A⁻¹·B: POTRF, then L⁻¹, then L⁻ᵀ. The
        // residual A·X - B certifies the pipeline end to end.
        let cfg = BlockConfig::serial();
        let n = 31;
        let a = random_spd(n, 9);
        let b = random_seeded(n, 6, 10);
        let mut f = a.clone();
        potrf(Uplo::Lower, &mut f.view_mut(), &cfg).unwrap();
        let l = explicit_triangle(&f, Uplo::Lower);
        let mut y = Matrix::zeros(n, 6);
        trsm_naive(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l.view(),
            &b.view(),
            &mut y.view_mut(),
        )
        .unwrap();
        let mut x = Matrix::zeros(n, 6);
        trsm_naive(
            Side::Left,
            Uplo::Lower,
            Trans::Yes,
            1.0,
            &l.view(),
            &y.view(),
            &mut x.view_mut(),
        )
        .unwrap();
        let mut ax = Matrix::zeros(n, 6);
        gemm_naive(
            Trans::No,
            Trans::No,
            1.0,
            &a.view(),
            &x.view(),
            0.0,
            &mut ax.view_mut(),
        )
        .unwrap();
        assert!(max_abs_diff(&ax, &b).unwrap() < 1e-10 * n as f64);
    }

    #[test]
    fn non_positive_definite_matrices_are_reported_with_the_pivot_index() {
        let cfg = BlockConfig::tiny();
        let mut a = random_spd(9, 21);
        a[(5, 5)] = -4.0; // breaks definiteness at (or before) index 5
        let err = potrf(Uplo::Lower, &mut a.clone().view_mut(), &cfg).unwrap_err();
        match err {
            MatrixError::NotPositiveDefinite { index } => assert!(index <= 5),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
        assert!(potrf_naive(Uplo::Upper, &mut a.view_mut()).is_err());
        // The identically-zero matrix fails on the very first pivot.
        let mut zero = Matrix::zeros(4, 4);
        assert_eq!(
            potrf(Uplo::Lower, &mut zero.view_mut(), &cfg).unwrap_err(),
            MatrixError::NotPositiveDefinite { index: 0 }
        );
    }

    #[test]
    fn degenerate_and_rectangular_inputs() {
        let cfg = BlockConfig::default();
        // n = 0 is a no-op.
        let mut empty = Matrix::zeros(0, 0);
        potrf(Uplo::Lower, &mut empty.view_mut(), &cfg).unwrap();
        potrf_naive(Uplo::Upper, &mut empty.view_mut()).unwrap();
        // n = 1 is a scalar square root.
        let mut one = Matrix::filled(1, 1, 9.0);
        potrf(Uplo::Upper, &mut one.view_mut(), &cfg).unwrap();
        assert_eq!(one[(0, 0)], 3.0);
        // Rectangular input is rejected.
        let mut rect = Matrix::zeros(3, 4);
        assert!(matches!(
            potrf(Uplo::Lower, &mut rect.view_mut(), &cfg),
            Err(MatrixError::NotSquare { .. })
        ));
    }

    #[test]
    fn blocked_and_naive_agree_on_the_factor_itself() {
        let cfg = BlockConfig::serial();
        for uplo in [Uplo::Lower, Uplo::Upper] {
            let a = random_spd(40, 33);
            let mut blocked = a.clone();
            let mut naive = a.clone();
            potrf(uplo, &mut blocked.view_mut(), &cfg).unwrap();
            potrf_naive(uplo, &mut naive.view_mut()).unwrap();
            assert!(max_abs_diff(&blocked, &naive).unwrap() < 1e-10, "{uplo:?}");
        }
    }
}
