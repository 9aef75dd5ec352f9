//! LU factorisation with partial pivoting: `P·A = L·U` for a general square
//! matrix, in place, LAPACK `dgetrf`-style.
//!
//! The factor overwrites `A`: the strictly lower triangle holds the
//! unit-lower factor `L` (its implicit unit diagonal is *not* stored) and the
//! upper triangle including the diagonal holds `U`. The pivot vector records,
//! for each step `j`, the absolute row index that was swapped into row `j`
//! (LAPACK `ipiv` convention, zero-based), so `P` is recovered by replaying
//! the swaps in order.
//!
//! Structure on the shared [`BlockedDriver`](crate::driver::BlockedDriver)
//! engine: the **right-looking blocked algorithm**, applied recursively to
//! column ranges. A range wider than [`BlockConfig::tri_block`] splits off
//! one such panel, a narrower one splits in half, and each step
//!
//! 1. factors the left columns (by the same recursion, down to the
//!    small-call rule the factorisation tier shares, below which the
//!    unblocked partial-pivot recurrence runs in place on column slices,
//!    reporting [`MatrixError::SingularDiagonal`] on an exactly-zero pivot
//!    column) and replays their row swaps on the right columns,
//! 2. computes the row panel `U₁₂ := L₁₁⁻¹·A₁₂` with one
//!    [`crate::trsm::trsm`] solve against the unit-lower diagonal block,
//! 3. folds the panels into the trailing submatrix with one rank-`kb`
//!    [`crate::gemm::gemm`] update `A₂₂ -= L₂₁·U₁₂` (`alpha = -1`,
//!    `beta = 1`), and
//! 4. factors the trailing columns and replays *their* swaps on the left.
//!
//! Steps 2 and 3 carry the `2n³/3` bulk of the work (see
//! [`crate::flops::getrf_flops`]) and both run on the packed, cache-blocked,
//! Rayon-capable engine. A matrix under the rule is factored by the
//! unblocked recurrence alone, in place, each pivot written straight into
//! the packed operand's pivot column. Row swaps
//! are applied a column range at a time, so each touches one contiguous
//! column after another.
//!
//! [`KernelOp::Getrf`](crate::op::KernelOp::Getrf) produces the
//! single-operand packed form the kernel-call IR uses: an `n x (n+1)` matrix
//! with the LU factors in columns `0..n` and the pivot indices, stored as
//! `f64`, in column `n` (the private `getrf_packed_into`).

use crate::config::BlockConfig;
use crate::gemm::gemm;
use crate::leaf::{axpy, column_and_later, compact, first_part, is_small, two_cols};
use crate::trsm::trsm;
use lamb_matrix::{Matrix, MatrixError, MatrixViewMut, Result, Side, Trans, Uplo};

/// Factor the square matrix `a` in place as `P·A = L·U` with partial
/// pivoting. On return `piv` holds, for each step `j`, the absolute index of
/// the row swapped into row `j` (`piv[j] >= j`; `piv[j] == j` means no swap).
///
/// # Errors
///
/// Returns [`MatrixError::NotSquare`] for rectangular input and
/// [`MatrixError::SingularDiagonal`] (with the absolute pivot index) when a
/// pivot column is exactly zero or NaN; `a` and `piv` then hold an unfinished
/// factorisation.
pub fn getrf(a: &mut MatrixViewMut<'_>, piv: &mut Vec<usize>, cfg: &BlockConfig) -> Result<()> {
    let n = check_square(a)?;
    piv.clear();
    piv.reserve(n);
    factor_columns(a.subview_mut(0, 0, n, n), piv, cfg)
}

/// [`getrf`] on the window `a` whose `(0, 0)` is the diagonal element of
/// absolute index `piv.len()`: factor all its columns, pushing one absolute
/// pivot index per column and swapping rows within the window only.
fn factor_columns(mut a: MatrixViewMut<'_>, piv: &mut Vec<usize>, cfg: &BlockConfig) -> Result<()> {
    let (m, nc, base) = (a.rows(), a.cols(), piv.len());
    if is_small(nc, nc, nc, cfg) {
        return factor_unblocked(&mut a, base, |p| piv.push(p));
    }
    let kb = first_part(nc, cfg.tri_block);
    let (below, rest) = (m - kb, nc - kb);
    // Left and right columns are disjoint ranges of the buffer, so L11 and
    // L21 are read in place while the right columns are written.
    let (mut left, mut right) = a.split_at_col_mut(kb);
    factor_columns(left.subview_mut(0, 0, m, kb), piv, cfg)?;
    swap_rows(&mut right, &piv[base..], base);
    // Row panel U12 := L11⁻¹ · A12 against the unit-lower diagonal block,
    // its implicit unit diagonal written out (the solve reads one triangle).
    let mut l11 = compact(left.as_view().subview(0, 0, kb, kb));
    for j in 0..kb {
        l11[(j, j)] = 1.0;
    }
    let mut u12 = Matrix::zeros(kb, rest);
    let a12 = right.as_view().subview(0, 0, kb, rest);
    trsm(
        Side::Left,
        Uplo::Lower,
        Trans::No,
        1.0,
        &l11.view(),
        &a12,
        &mut u12.view_mut(),
        cfg,
    )?;
    for j in 0..rest {
        right.col_mut(j)[..kb].copy_from_slice(u12.col(j));
    }
    // Trailing update A22 -= L21 · U12 (U12 shares its columns with A22, so
    // the product reads the copy), then the trailing columns themselves.
    let l21 = left.as_view().subview(kb, 0, below, kb);
    let mut a22 = right.subview_mut(kb, 0, below, rest);
    gemm(
        Trans::No,
        Trans::No,
        -1.0,
        &l21,
        &u12.view(),
        1.0,
        &mut a22,
        cfg,
    )?;
    factor_columns(a22, piv, cfg)?;
    swap_rows(
        &mut left.subview_mut(kb, 0, below, kb),
        &piv[base + kb..],
        base + kb,
    );
    Ok(())
}

/// Reference GETRF: the unblocked partial-pivot recurrence over the whole
/// matrix. Used by the unit and property tests to validate the blocked
/// kernel.
///
/// # Errors
///
/// Same checks as [`getrf`].
pub fn getrf_naive(a: &mut MatrixViewMut<'_>, piv: &mut Vec<usize>) -> Result<()> {
    check_square(a)?;
    piv.clear();
    factor_unblocked(a, 0, |p| piv.push(p))
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

/// Unblocked right-looking partial-pivot LU of every column of the window
/// `a` (whose `(0, 0)` is the diagonal element of absolute index `base`) in
/// place, one axpy per column pair: the small tier, the end of the
/// recursion, and the reference. Swaps rows within the window and hands each step's absolute
/// pivot row to `record`; pivot failures report the *absolute* column index.
fn factor_unblocked(
    a: &mut MatrixViewMut<'_>,
    base: usize,
    mut record: impl FnMut(usize),
) -> Result<()> {
    for j in 0..a.cols() {
        // Partial pivot: the first largest magnitude on or below the diagonal.
        let col = a.col_mut(j);
        let mut p = j;
        for (i, v) in col.iter().enumerate().skip(j + 1) {
            if v.abs() > col[p].abs() {
                p = i;
            }
        }
        if col[p] == 0.0 || col[p].is_nan() {
            return Err(MatrixError::SingularDiagonal { index: base + j });
        }
        record(base + p);
        if p != j {
            let (rows, ld, cols) = (a.rows(), a.ld(), a.cols());
            for col in a.as_mut_slice().chunks_mut(ld).take(cols) {
                col[..rows].swap(j, p);
            }
        }
        // Eliminate below the pivot and fold into the remaining columns.
        let (l, later) = column_and_later(a, j);
        let d = l[j];
        for v in &mut l[j + 1..] {
            *v /= d;
        }
        for next in later {
            if next[j] != 0.0 {
                axpy(-next[j], &l[j + 1..], &mut next[j + 1..]);
            }
        }
    }
    Ok(())
}

/// Replay, in order, the row swaps `s <-> piv[s] - first` on every column of
/// `a`: the pivots of the steps `first..`, on a window whose row 0 has
/// absolute index `first`.
fn swap_rows(a: &mut MatrixViewMut<'_>, piv: &[usize], first: usize) {
    for j in 0..a.cols() {
        let col = a.col_mut(j);
        for (s, &p) in piv.iter().enumerate() {
            col.swap(s, p - first);
        }
    }
}

/// Factor `a` out of place into the packed `n x (n+1)` operand `f` the
/// kernel-call IR uses ([`KernelOp::Getrf`](crate::op::KernelOp::Getrf)):
/// LU factors in columns `0..n` (unit-lower `L` strictly below the diagonal,
/// `U` on and above) and the pivot vector, stored as `f64` row indices, in
/// column `n`.
///
/// # Errors
///
/// Same checks as [`getrf`], plus [`MatrixError::DimensionMismatch`] for a
/// mis-sized `f`.
pub(crate) fn getrf_packed_into(a: &Matrix, f: &mut Matrix, cfg: &BlockConfig) -> Result<()> {
    let (m, n) = a.shape();
    if f.shape() != (m, n + 1) {
        return Err(MatrixError::DimensionMismatch {
            op: "getrf packed output",
            lhs: f.shape(),
            rhs: (m, n + 1),
        });
    }
    f.as_mut_slice()[..m * n].copy_from_slice(a.as_slice());
    let (mut lu, mut last) = f.view_mut().split_at_col_mut(n);
    if is_small(n, n, n, cfg) {
        // In place, each pivot written straight into its slot.
        check_square(&lu)?;
        let slots = last.col_mut(0);
        let mut step = 0;
        return factor_unblocked(&mut lu, 0, |p| {
            slots[step] = p as f64;
            step += 1;
        });
    }
    let mut piv = Vec::new();
    getrf(&mut lu, &mut piv, cfg)?;
    for (dst, &p) in last.col_mut(0).iter_mut().zip(&piv) {
        *dst = p as f64;
    }
    Ok(())
}

/// Apply the forward row swaps recorded in the pivot column of a packed LU
/// factor `f` (`m x (m+1)`, see [`getrf_packed_into`]) to `b`, into `out`
/// (`b`'s shape): `Bp := P·B`. Each column of `b` is copied once and every
/// swap is replayed on that contiguous column. Pivot entries are rounded and
/// clamped to the legal range `[j, m-1]`, so a factor operand filled with
/// arbitrary data (as the isolated-call benchmark harness does) still
/// applies a valid permutation.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] when `f` is not `m x (m+1)`
/// for `b`'s row count `m`, or `out` is not `b`'s shape.
pub(crate) fn pivot_apply_into(f: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<()> {
    let m = b.rows();
    if f.rows() != m || f.cols() != m + 1 || out.shape() != b.shape() {
        return Err(MatrixError::DimensionMismatch {
            op: "pivot_apply",
            lhs: f.shape(),
            rhs: b.shape(),
        });
    }
    let swaps = recorded_swaps(f, m);
    for c in 0..b.cols() {
        let col = out.col_mut(c);
        col.copy_from_slice(b.col(c));
        for &(j, p) in &swaps {
            col.swap(j, p);
        }
    }
    Ok(())
}

/// The forward swaps `(j, p)`, `p != j`, recorded in column `n` of the
/// packed factor `f`, in order; each entry is rounded and clamped to the
/// legal range `[j, n-1]` rather than trusted.
fn recorded_swaps(f: &Matrix, n: usize) -> Vec<(usize, usize)> {
    let recorded = &f.col(n)[..n];
    recorded
        .iter()
        .enumerate()
        .map(|(j, &p)| (j, (p.round().max(0.0) as usize).clamp(j, n - 1)))
        .filter(|&(j, p)| p != j)
        .collect()
}

/// Apply the permutation recorded in the pivot column of a packed LU factor
/// `f` (`n x (n+1)`, see [`getrf_packed_into`]) to the *columns* of `b`,
/// into `out` (`b`'s shape): `Bp := B·P`. With `P = Pₙ₋₁···P₀` (the forward
/// row swaps of [`pivot_apply_into`]), right-multiplication applies the same
/// transpositions as column swaps in *reverse* order, `j = n-1` down to `0`
/// — this is the last step of the right-side LU solve
/// `B·A⁻¹ = ((B·U⁻¹)·L⁻¹)·P`. Pivot entries are rounded and clamped to the
/// legal range like the left-side apply.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] when `f` is not `n x (n+1)`
/// for `b`'s column count `n`, or `out` is not `b`'s shape.
pub(crate) fn pivot_apply_right_into(f: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<()> {
    let n = b.cols();
    if f.rows() != n || f.cols() != n + 1 || out.shape() != b.shape() {
        return Err(MatrixError::DimensionMismatch {
            op: "pivot_apply_right",
            lhs: f.shape(),
            rhs: b.shape(),
        });
    }
    out.as_mut_slice().copy_from_slice(b.as_slice());
    let mut view = out.view_mut();
    for (j, p) in recorded_swaps(f, n).into_iter().rev() {
        let (cj, cp) = two_cols(&mut view, j, p);
        cj.swap_with_slice(cp);
    }
    Ok(())
}

/// Extract an explicit triangular factor from a packed factor operand `f`
/// (`r x (n+1)`, `n = cols - 1`; see [`getrf_packed_into`] and
/// [`crate::qr::qr_packed_into`]) into the `n x n` operand `out`, column
/// slice by column slice: [`Uplo::Lower`] materialises the unit-lower factor
/// (implicit unit diagonal written out), [`Uplo::Upper`] the upper factor
/// including its stored diagonal. Entries outside the extracted triangle are
/// exact zeros. Performs no floating-point arithmetic.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] when `f` has no pivot/tau
/// column (`cols == 0`), fewer than `n` rows, or `out` is not `n x n`.
pub(crate) fn factor_triangle_into(uplo: Uplo, f: &Matrix, out: &mut Matrix) -> Result<()> {
    let Some(n) = f.cols().checked_sub(1) else {
        return Err(MatrixError::DimensionMismatch {
            op: "factor_triangle",
            lhs: f.shape(),
            rhs: (0, 0),
        });
    };
    if f.rows() < n || out.shape() != (n, n) {
        return Err(MatrixError::DimensionMismatch {
            op: "factor_triangle",
            lhs: f.shape(),
            rhs: (n, n),
        });
    }
    for j in 0..n {
        let (src, dst) = (&f.col(j)[..n], out.col_mut(j));
        match uplo {
            Uplo::Lower => {
                dst[..j].fill(0.0);
                dst[j] = 1.0;
                dst[j + 1..].copy_from_slice(&src[j + 1..]);
            }
            Uplo::Upper => {
                dst[..=j].copy_from_slice(&src[..=j]);
                dst[j + 1..].fill(0.0);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, NativeBackend};
    use crate::gemm::naive::gemm_naive;
    use crate::op::KernelOp;
    use crate::trsm::trsm_naive;
    use lamb_matrix::ops::max_abs_diff;
    use lamb_matrix::random::random_seeded;

    /// `P·A`: replay the recorded forward swaps on a copy of `a`.
    fn permute(a: &Matrix, piv: &[usize]) -> Matrix {
        let mut out = a.clone();
        for (j, &p) in piv.iter().enumerate() {
            if p != j {
                for c in 0..out.cols() {
                    out.col_mut(c).swap(j, p);
                }
            }
        }
        out
    }

    fn check_reconstruction(n: usize, seed: u64, cfg: &BlockConfig) {
        let a = random_seeded(n, n, seed);
        let mut f = a.clone();
        let mut piv = Vec::new();
        getrf(&mut f.view_mut(), &mut piv, cfg).unwrap();
        assert_eq!(piv.len(), n);
        let packed = pad_pivot(&f, &piv);
        let l = NativeBackend
            .run_new(
                &KernelOp::FactorTri {
                    uplo: Uplo::Lower,
                    n,
                },
                &[&packed],
                cfg,
            )
            .unwrap();
        let u = NativeBackend
            .run_new(
                &KernelOp::FactorTri {
                    uplo: Uplo::Upper,
                    n,
                },
                &[&packed],
                cfg,
            )
            .unwrap();
        // L·U must reproduce P·A.
        let mut back = Matrix::zeros(n, n);
        gemm_naive(
            Trans::No,
            Trans::No,
            1.0,
            &l.view(),
            &u.view(),
            0.0,
            &mut back.view_mut(),
        )
        .unwrap();
        let pa = permute(&a, &piv);
        let diff = max_abs_diff(&back, &pa).unwrap();
        assert!(
            diff < 1e-10 * (n as f64).max(1.0),
            "n {n}: reconstruction diff {diff}"
        );
    }

    /// Pack a factored matrix plus pivot vector into the `n x (n+1)` form.
    fn pad_pivot(f: &Matrix, piv: &[usize]) -> Matrix {
        let n = f.rows();
        Matrix::from_fn(n, n + 1, |i, j| {
            if j < n {
                f[(i, j)]
            } else if i < piv.len() {
                piv[i] as f64
            } else {
                0.0
            }
        })
    }

    #[test]
    fn blocked_factor_reconstructs_the_permuted_matrix() {
        let cfg = BlockConfig::serial();
        for n in [1, 2, 5, 23, 64, 65, 97] {
            check_reconstruction(n, 11 + n as u64, &cfg);
        }
    }

    #[test]
    fn factor_and_pivots_match_naive_on_leaf_and_block_edges() {
        for (cfg, orders) in crate::leaf::tests::edge_grid() {
            for n in orders {
                let a = random_seeded(n, n, 60 + n as u64);
                let (mut blocked, mut naive) = (a.clone(), a.clone());
                let (mut piv_b, mut piv_n) = (Vec::new(), Vec::new());
                getrf(&mut blocked.view_mut(), &mut piv_b, &cfg).unwrap();
                getrf_naive(&mut naive.view_mut(), &mut piv_n).unwrap();
                assert_eq!(piv_b, piv_n, "n {n} {cfg:?}");
                let diff = max_abs_diff(&blocked, &naive).unwrap();
                assert!(diff <= 1e-10 * n as f64, "n {n} {cfg:?}: {diff}");
            }
        }
    }

    #[test]
    fn zero_columns_in_later_panels_keep_their_absolute_index() {
        // A zero column stays exactly zero under elimination, so its own
        // step is the one that finds no pivot — in the second panel or the
        // third.
        let cfg = BlockConfig::default();
        let n = 2 * cfg.tri_block + 9;
        for index in [cfg.tri_block + 5, n - 2] {
            let mut a = random_seeded(n, n, 61);
            a.col_mut(index).fill(0.0);
            let expected = Err(MatrixError::SingularDiagonal { index });
            let mut piv = Vec::new();
            assert_eq!(getrf(&mut a.clone().view_mut(), &mut piv, &cfg), expected);
            assert_eq!(getrf_naive(&mut a.view_mut(), &mut piv), expected);
        }
    }

    #[test]
    fn tiny_blocking_exercises_partial_panels() {
        let cfg = BlockConfig::tiny(); // tri_block = 3
        check_reconstruction(13, 3, &cfg);
        check_reconstruction(7, 4, &cfg);
    }

    #[test]
    fn parallel_path_matches_naive() {
        let cfg = BlockConfig {
            parallel_flop_threshold: 1,
            ..BlockConfig::default()
        };
        let a = random_seeded(150, 150, 17);
        let mut blocked = a.clone();
        let mut piv_b = Vec::new();
        getrf(&mut blocked.view_mut(), &mut piv_b, &cfg).unwrap();
        let mut naive = a.clone();
        let mut piv_n = Vec::new();
        getrf_naive(&mut naive.view_mut(), &mut piv_n).unwrap();
        assert_eq!(piv_b, piv_n, "pivot sequences must agree");
        assert!(max_abs_diff(&blocked, &naive).unwrap() < 1e-9);
    }

    #[test]
    fn blocked_and_naive_agree_on_the_factor_itself() {
        let cfg = BlockConfig::serial();
        let a = random_seeded(40, 40, 33);
        let mut blocked = a.clone();
        let mut naive = a.clone();
        let (mut pb, mut pn) = (Vec::new(), Vec::new());
        getrf(&mut blocked.view_mut(), &mut pb, &cfg).unwrap();
        getrf_naive(&mut naive.view_mut(), &mut pn).unwrap();
        assert_eq!(pb, pn);
        assert!(max_abs_diff(&blocked, &naive).unwrap() < 1e-10);
    }

    #[test]
    fn factor_solves_general_systems_through_pivot_and_two_trsms() {
        // The LU realisation of A⁻¹·B: GETRF, P·B, then L⁻¹, then U⁻¹. The
        // residual A·X - B certifies the pipeline end to end.
        let cfg = BlockConfig::serial();
        let n = 31;
        let a = random_seeded(n, n, 9);
        let b = random_seeded(n, 6, 10);
        let f = NativeBackend
            .run_new(&KernelOp::Getrf { n }, &[&a], &cfg)
            .unwrap();
        let l = NativeBackend
            .run_new(
                &KernelOp::FactorTri {
                    uplo: Uplo::Lower,
                    n,
                },
                &[&f],
                &cfg,
            )
            .unwrap();
        let u = NativeBackend
            .run_new(
                &KernelOp::FactorTri {
                    uplo: Uplo::Upper,
                    n,
                },
                &[&f],
                &cfg,
            )
            .unwrap();
        let left = KernelOp::PivotApply {
            side: Side::Left,
            m: n,
            n: 6,
        };
        let bp = NativeBackend.run_new(&left, &[&f, &b], &cfg).unwrap();
        let mut y = Matrix::zeros(n, 6);
        trsm_naive(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l.view(),
            &bp.view(),
            &mut y.view_mut(),
        )
        .unwrap();
        let mut x = Matrix::zeros(n, 6);
        trsm_naive(
            Side::Left,
            Uplo::Upper,
            Trans::No,
            1.0,
            &u.view(),
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
    fn singular_matrices_are_reported_with_the_pivot_index() {
        let cfg = BlockConfig::tiny();
        // A rank-deficient matrix: column 2 is a copy of column 1, so the
        // third pivot column is eliminated to exact... not exact zero in
        // floating point generally, so build a matrix with an exactly zero
        // trailing column instead.
        let mut a = random_seeded(9, 9, 21);
        for i in 0..9 {
            a[(i, 4)] = 0.0;
        }
        let mut piv = Vec::new();
        let err = getrf(&mut a.clone().view_mut(), &mut piv, &cfg).unwrap_err();
        assert_eq!(err, MatrixError::SingularDiagonal { index: 4 });
        assert!(getrf_naive(&mut a.view_mut(), &mut piv).is_err());
        // The identically-zero matrix fails on the very first pivot.
        let mut zero = Matrix::zeros(4, 4);
        assert_eq!(
            getrf(&mut zero.view_mut(), &mut Vec::new(), &cfg).unwrap_err(),
            MatrixError::SingularDiagonal { index: 0 }
        );
    }

    #[test]
    fn degenerate_and_rectangular_inputs() {
        let cfg = BlockConfig::default();
        // n = 0 is a no-op.
        let mut empty = Matrix::zeros(0, 0);
        let mut piv = Vec::new();
        getrf(&mut empty.view_mut(), &mut piv, &cfg).unwrap();
        assert!(piv.is_empty());
        getrf_naive(&mut empty.view_mut(), &mut piv).unwrap();
        let f = NativeBackend
            .run_new(&KernelOp::Getrf { n: 0 }, &[&Matrix::zeros(0, 0)], &cfg)
            .unwrap();
        assert_eq!(f.shape(), (0, 1));
        // n = 1 is the identity pivot.
        let mut one = Matrix::filled(1, 1, 4.0);
        getrf(&mut one.view_mut(), &mut piv, &cfg).unwrap();
        assert_eq!(piv, vec![0]);
        assert_eq!(one[(0, 0)], 4.0);
        // Rectangular input is rejected.
        let mut rect = Matrix::zeros(3, 4);
        assert!(matches!(
            getrf(&mut rect.view_mut(), &mut piv, &cfg),
            Err(MatrixError::NotSquare { .. })
        ));
        assert!(NativeBackend
            .run_new(&KernelOp::Getrf { n: 2 }, &[&Matrix::zeros(2, 5)], &cfg)
            .is_err());
    }

    #[test]
    fn right_pivot_apply_closes_the_mirrored_lu_solve() {
        // The LU realisation of B·A⁻¹: GETRF(A), then B·U⁻¹, then ·L⁻¹,
        // then ·P applied as reverse-order column swaps. The residual
        // X·A - B certifies the right-side pipeline end to end.
        let cfg = BlockConfig::serial();
        let (m, n) = (6, 23);
        let a = random_seeded(n, n, 11);
        let b = random_seeded(m, n, 12);
        let f = NativeBackend
            .run_new(&KernelOp::Getrf { n }, &[&a], &cfg)
            .unwrap();
        let l = NativeBackend
            .run_new(
                &KernelOp::FactorTri {
                    uplo: Uplo::Lower,
                    n,
                },
                &[&f],
                &cfg,
            )
            .unwrap();
        let u = NativeBackend
            .run_new(
                &KernelOp::FactorTri {
                    uplo: Uplo::Upper,
                    n,
                },
                &[&f],
                &cfg,
            )
            .unwrap();
        let mut y = Matrix::zeros(m, n);
        trsm_naive(
            Side::Right,
            Uplo::Upper,
            Trans::No,
            1.0,
            &u.view(),
            &b.view(),
            &mut y.view_mut(),
        )
        .unwrap();
        let mut z = Matrix::zeros(m, n);
        trsm_naive(
            Side::Right,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l.view(),
            &y.view(),
            &mut z.view_mut(),
        )
        .unwrap();
        let right = KernelOp::PivotApply {
            side: Side::Right,
            m,
            n,
        };
        let x = NativeBackend.run_new(&right, &[&f, &z], &cfg).unwrap();
        let mut xa = Matrix::zeros(m, n);
        gemm_naive(
            Trans::No,
            Trans::No,
            1.0,
            &x.view(),
            &a.view(),
            0.0,
            &mut xa.view_mut(),
        )
        .unwrap();
        assert!(max_abs_diff(&xa, &b).unwrap() < 1e-10 * n as f64);
        // The right apply inverts the left one: P·(Pᵀ·B)ᵀ round-trips.
        // Equivalently, (P·C)ᵀ = Cᵀ·Pᵀ, so applying the right swap order
        // to rows would undo the left apply; check via the simpler
        // identity-permutation and shape-error paths instead.
        assert!(NativeBackend
            .run_new(&right, &[&Matrix::zeros(n, n), &b], &cfg)
            .is_err());
        let none = KernelOp::PivotApply {
            side: Side::Right,
            m: 4,
            n: 0,
        };
        let empty = NativeBackend
            .run_new(&none, &[&Matrix::zeros(0, 1), &Matrix::zeros(4, 0)], &cfg)
            .unwrap();
        assert_eq!(empty.shape(), (4, 0));
    }

    #[test]
    fn right_pivot_apply_is_the_transpose_of_the_left_apply() {
        // B·P = (Pᵀ·Bᵀ)ᵀ and P⁻¹ = Pᵀ, so the right apply composed with
        // the left apply through a transpose must reproduce the operand
        // structure: compare against an explicitly materialised P.
        let cfg = BlockConfig::serial();
        let n = 9;
        let a = random_seeded(n, n, 13);
        let f = NativeBackend
            .run_new(&KernelOp::Getrf { n }, &[&a], &cfg)
            .unwrap();
        // P·I gives the permutation matrix; then B·P via plain GEMM.
        let left = KernelOp::PivotApply {
            side: Side::Left,
            m: n,
            n,
        };
        let p = NativeBackend
            .run_new(&left, &[&f, &Matrix::identity(n)], &cfg)
            .unwrap();
        let b = random_seeded(4, n, 14);
        let mut expect = Matrix::zeros(4, n);
        gemm_naive(
            Trans::No,
            Trans::No,
            1.0,
            &b.view(),
            &p.view(),
            0.0,
            &mut expect.view_mut(),
        )
        .unwrap();
        let right = KernelOp::PivotApply {
            side: Side::Right,
            m: 4,
            n,
        };
        let got = NativeBackend.run_new(&right, &[&f, &b], &cfg).unwrap();
        assert!(max_abs_diff(&got, &expect).unwrap() < 1e-12);
    }

    #[test]
    fn pivot_apply_clamps_untrusted_pivot_data() {
        // The isolated-call benchmark harness fills factor operands with
        // arbitrary random data; pivot application must stay in bounds.
        let b = random_seeded(5, 3, 2);
        let f = Matrix::from_fn(5, 6, |i, j| {
            if j == 5 {
                1000.0 * (i as f64) - 7.3
            } else {
                0.0
            }
        });
        let cfg = BlockConfig::serial();
        let left = KernelOp::PivotApply {
            side: Side::Left,
            m: 5,
            n: 3,
        };
        let out = NativeBackend.run_new(&left, &[&f, &b], &cfg).unwrap();
        assert_eq!(out.shape(), (5, 3));
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
        // Shape mismatches are rejected.
        assert!(NativeBackend
            .run_new(&left, &[&Matrix::zeros(5, 5), &b], &cfg)
            .is_err());
        // Degenerate: no rows, nothing to swap.
        let none = KernelOp::PivotApply {
            side: Side::Left,
            m: 0,
            n: 4,
        };
        let empty = NativeBackend
            .run_new(&none, &[&Matrix::zeros(0, 1), &Matrix::zeros(0, 4)], &cfg)
            .unwrap();
        assert_eq!(empty.shape(), (0, 4));
    }

    #[test]
    fn factor_triangle_extracts_unit_lower_and_upper() {
        let cfg = BlockConfig::serial();
        let a = random_seeded(8, 8, 5);
        let f = NativeBackend
            .run_new(&KernelOp::Getrf { n: 8 }, &[&a], &cfg)
            .unwrap();
        let tri = |uplo, n, f: &Matrix| {
            NativeBackend.run_new(&KernelOp::FactorTri { uplo, n }, &[f], &cfg)
        };
        let l = tri(Uplo::Lower, 8, &f).unwrap();
        let u = tri(Uplo::Upper, 8, &f).unwrap();
        assert!(lamb_matrix::ops::is_triangular(&l, Uplo::Lower).unwrap());
        assert!(lamb_matrix::ops::is_triangular(&u, Uplo::Upper).unwrap());
        for i in 0..8 {
            assert_eq!(l[(i, i)], 1.0, "L must carry an explicit unit diagonal");
        }
        // Degenerate and malformed inputs.
        assert_eq!(
            tri(Uplo::Lower, 0, &Matrix::zeros(0, 1)).unwrap().shape(),
            (0, 0)
        );
        assert!(tri(Uplo::Lower, 0, &Matrix::zeros(3, 0)).is_err());
        assert!(tri(Uplo::Upper, 3, &Matrix::zeros(2, 4)).is_err());
    }

    #[test]
    fn the_data_movers_write_exactly_the_element_wise_definitions() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (n, extra_rows, cols) in [(0, 0, 3), (1, 0, 1), (7, 0, 5), (9, 4, 2), (33, 0, 17)] {
            // Arbitrary factor data, with a pivot column of in-range,
            // out-of-range and negative entries; a taller factor stands for
            // a packed QR factor.
            let mut f = random_seeded(n + extra_rows, n + 1, 11 + n as u64);
            for (j, p) in f.col_mut(n).iter_mut().enumerate() {
                *p = ((7 * j + 3) % (n + 3)) as f64 - 1.4;
            }
            for uplo in [Uplo::Lower, Uplo::Upper] {
                let want = Matrix::from_fn(n, n, |i, j| match (uplo, i.cmp(&j)) {
                    (Uplo::Lower, std::cmp::Ordering::Greater)
                    | (Uplo::Upper, std::cmp::Ordering::Less | std::cmp::Ordering::Equal) => {
                        f[(i, j)]
                    }
                    (Uplo::Lower, std::cmp::Ordering::Equal) => 1.0,
                    _ => 0.0,
                });
                let got = NativeBackend
                    .run_new(
                        &KernelOp::FactorTri { uplo, n },
                        &[&f],
                        &BlockConfig::serial(),
                    )
                    .unwrap();
                assert_eq!(bits(&got), bits(&want), "factortri {uplo:?} n = {n}");
            }
            if extra_rows > 0 {
                continue;
            }
            let clamp = |j: usize| (f[(j, n)].round().max(0.0) as usize).clamp(j, n - 1);
            // Left: every row swap across every column, in order.
            let b = random_seeded(n, cols, 29);
            let mut want = b.clone();
            for j in 0..n {
                for c in 0..cols {
                    want.col_mut(c).swap(j, clamp(j));
                }
            }
            let op = KernelOp::PivotApply {
                side: Side::Left,
                m: n,
                n: cols,
            };
            let got = NativeBackend
                .run_new(&op, &[&f, &b], &BlockConfig::serial())
                .unwrap();
            assert_eq!(bits(&got), bits(&want), "laswp left n = {n}");
            // Right: the same transpositions as column swaps, last first.
            let b = random_seeded(cols, n, 31);
            let mut want = b.clone();
            for j in (0..n).rev() {
                for r in 0..cols {
                    let (x, y) = (want[(r, j)], want[(r, clamp(j))]);
                    want[(r, j)] = y;
                    want[(r, clamp(j))] = x;
                }
            }
            let op = KernelOp::PivotApply {
                side: Side::Right,
                m: cols,
                n,
            };
            let got = NativeBackend
                .run_new(&op, &[&f, &b], &BlockConfig::serial())
                .unwrap();
            assert_eq!(bits(&got), bits(&want), "laswp right n = {n}");
        }
    }
}
