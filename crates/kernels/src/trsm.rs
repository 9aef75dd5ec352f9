//! Triangular solve with multiple right-hand sides:
//! `X := alpha * op(L)⁻¹ * B` (`side == Left`, `L` an `m x m` triangle) or
//! `X := alpha * B * op(L)⁻¹` (`side == Right`, `L` an `n x n` triangle),
//! where only the [`Uplo`] triangle of `L` is referenced.
//!
//! Out-of-place, like [`crate::trmm::trmm`]: `B` is read, `X` is written. The
//! Section-3.1-style FLOP model attributes `m²·n` FLOPs to the left solve and
//! `n²·m` to the right solve — half of the GEMM with the inverse explicitly
//! formed — making TRSM, like TRMM, a structured kernel whose FLOP savings
//! need not translate into time savings.
//!
//! Structure on the shared [`BlockedDriver`]: one recursion over the coupled
//! dimension (the rows of `X` on the left, its columns on the right). A range
//! of unknowns is split into the part that is solved first — one
//! [`BlockConfig::tri_block`] while the range is wider than that, half of it
//! below — and the rest; the first part is solved, folded into the rest with
//! the packed rectangular core, and the rest is solved. The recursion ends at
//! a leaf: a diagonal block of at most eight unknowns (a private constant of
//! the crate, not a [`BlockConfig`] field), which is copied once into a
//! contiguous scratch *in solve order* — so `uplo` and `trans` are resolved
//! per block, not per element — and substituted on column slices. On the left
//! the right-hand-side columns are independent and are distributed as column
//! panels; on the right the rows are independent and the solve runs serially.

use crate::config::BlockConfig;
use crate::driver::BlockedDriver;
use crate::leaf::{axpy, first_part, two_cols, LEAF};
use crate::microkernel::fmadd;
use crate::pack::{Operand, Strided};
use crate::trmm::check_triangular_shapes;
use lamb_matrix::{MatrixError, MatrixView, MatrixViewMut, Result, Side, Trans, Uplo};

/// `X := alpha * op(L)⁻¹ * B` (Left) or `X := alpha * B * op(L)⁻¹` (Right)
/// where `op(L)` is `L` or `Lᵀ` and only the `uplo` triangle of `L` is
/// referenced.
///
/// The FLOP count attributed to this kernel is `m²·n` (Left) or `n²·m`
/// (Right); see [`crate::flops::trsm_flops`].
///
/// # Errors
///
/// Returns [`MatrixError::NotSquare`] / [`MatrixError::DimensionMismatch`]
/// for inconsistent shapes and [`MatrixError::SingularDiagonal`] when a
/// diagonal element of `L` is exactly zero or NaN (the solve does not exist).
#[allow(clippy::too_many_arguments)] // BLAS-style interface
pub fn trsm(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    l: &MatrixView<'_>,
    b: &MatrixView<'_>,
    x: &mut MatrixViewMut<'_>,
    cfg: &BlockConfig,
) -> Result<()> {
    let (_, n) = check_triangular_shapes("trsm operand shape", side, l, b, x)?;
    // Seed X with alpha * B; the substitution then runs in place on X.
    for j in 0..n {
        for (dst, &s) in x.col_mut(j).iter_mut().zip(b.col(j)) {
            *dst = alpha * s;
        }
    }
    trsm_in_place(side, uplo, trans, l, x, cfg)
}

/// [`trsm`] with `alpha = 1` on `X` itself: `X := op(L)⁻¹ * X` (Left) or
/// `X := X * op(L)⁻¹` (Right). What the factorisations call on a panel of
/// the matrix they are factoring.
///
/// # Errors
///
/// [`MatrixError::SingularDiagonal`], as for [`trsm`].
pub(crate) fn trsm_in_place(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    l: &MatrixView<'_>,
    x: &mut MatrixViewMut<'_>,
    cfg: &BlockConfig,
) -> Result<()> {
    let (m, n) = (x.rows(), x.cols());
    check_diagonal(l)?;
    if m == 0 || n == 0 {
        return Ok(());
    }
    // Lower solves forward on the left (top down) and backward on the right
    // (right to left): column q of X·op(L) reads the X columns p with
    // op(L)[p, q] nonzero.
    let lower = uplo.under(trans) == Uplo::Lower;
    let solve = Solve {
        op_l: Strided::new(l, trans),
        side,
        forward: lower == (side == Side::Left),
        driver: BlockedDriver::new(cfg),
        tri_block: cfg.tri_block,
    };
    match side {
        Side::Left => {
            let parallel = cfg.should_parallelise(m, n, m);
            let whole = x.subview_mut(0, 0, m, n);
            (solve.driver).for_each_panel(whole, parallel, |_, mut panel| {
                solve.left(&mut panel, 0, m, &mut Vec::new());
            });
        }
        Side::Right => solve.right(x, 0, n),
    }
    Ok(())
}

fn check_diagonal(l: &MatrixView<'_>) -> Result<()> {
    for index in 0..l.rows() {
        let d = l.at(index, index);
        if d == 0.0 || d.is_nan() {
            return Err(MatrixError::SingularDiagonal { index });
        }
    }
    Ok(())
}

/// One in-place solve: `op(L)` ignoring the triangle mask, and the order in
/// which the unknowns are eliminated.
struct Solve<'a> {
    op_l: Strided<'a>,
    side: Side,
    forward: bool,
    driver: BlockedDriver<'a>,
    tri_block: usize,
}

impl Solve<'_> {
    /// Split the unknowns `lo..lo + len` into `(start, len)` of the part
    /// solved first and of the rest.
    fn split(&self, lo: usize, len: usize) -> ((usize, usize), (usize, usize)) {
        let first = first_part(len, self.tri_block);
        if self.forward {
            ((lo, first), (lo + first, len - first))
        } else {
            ((lo + len - first, first), (lo, len - first))
        }
    }

    /// Offset within a leaf of `nb` unknowns of the one eliminated `s`-th.
    fn nth(&self, s: usize, nb: usize) -> usize {
        if self.forward {
            s
        } else {
            nb - 1 - s
        }
    }

    /// The diagonal block `lo..lo + nb` of `op(L)` in solve order, padded to
    /// the identity: `t[p][i]` (`i > p`) is the coefficient of unknown `p` in
    /// equation `i`, `t[p][p]` its own pivot.
    fn leaf_block(&self, lo: usize, nb: usize) -> [[f64; LEAF]; LEAF] {
        let mut t = [[0.0; LEAF]; LEAF];
        for (p, col) in t.iter_mut().enumerate() {
            col[p] = 1.0;
            for (i, v) in col.iter_mut().enumerate().take(nb).skip(p) {
                let (eq, unknown) = (lo + self.nth(i, nb), lo + self.nth(p, nb));
                *v = match self.side {
                    Side::Left => self.op_l.at(eq, unknown),
                    Side::Right => self.op_l.at(unknown, eq),
                };
            }
        }
        t
    }

    /// Solve rows `lo..lo + len` of one column panel; every earlier row of
    /// the solve order is already folded in. `solved` is scratch.
    fn left(&self, panel: &mut MatrixViewMut<'_>, lo: usize, len: usize, solved: &mut Vec<f64>) {
        let w = panel.cols();
        if len <= LEAF {
            let t = self.leaf_block(lo, len);
            for j in 0..w {
                let x = &mut panel.col_mut(j)[lo..lo + len];
                let mut v = [0.0; LEAF];
                for s in 0..len {
                    v[s] = x[self.nth(s, len)];
                }
                for p in 0..LEAF {
                    v[p] /= t[p][p];
                    for i in p + 1..LEAF {
                        v[i] = fmadd(v[i], -v[p], t[p][i]);
                    }
                }
                for s in 0..len {
                    x[self.nth(s, len)] = v[s];
                }
            }
            return;
        }
        let ((h0, hn), (r0, rn)) = self.split(lo, len);
        self.left(panel, h0, hn, solved);
        // X[rest] -= op(L)[rest, first] · X[first]. The two row ranges are
        // disjoint, which a column-major view cannot show the borrow
        // checker, so the solved rows are read from a compact copy.
        solved.clear();
        for j in 0..w {
            solved.extend_from_slice(&panel.col_mut(j)[h0..h0 + hn]);
        }
        self.driver.accumulate_serial(
            rn,
            w,
            hn,
            -1.0,
            &self.op_l.offset(r0, h0),
            &Strided {
                data: solved,
                rs: 1,
                cs: hn,
            },
            &mut panel.subview_mut(r0, 0, rn, w),
        );
        self.left(panel, r0, rn, solved);
    }

    /// Solve columns `lo..lo + len` of `X·op(L) = B`; every earlier column
    /// of the solve order is already folded in.
    fn right(&self, x: &mut MatrixViewMut<'_>, lo: usize, len: usize) {
        if len <= LEAF {
            let t = self.leaf_block(lo, len);
            for i in 0..len {
                let dst = lo + self.nth(i, len);
                for (p, col) in t.iter().enumerate().take(i) {
                    let (src, dst) = two_cols(x, lo + self.nth(p, len), dst);
                    axpy(-col[i], src, dst);
                }
                for v in x.col_mut(dst) {
                    *v /= t[i][i];
                }
            }
            return;
        }
        let ((h0, hn), (r0, rn)) = self.split(lo, len);
        self.right(x, h0, hn);
        // X[:, rest] -= X[:, first] · op(L)[first, rest]: disjoint column
        // ranges, which the split proves.
        let m = x.rows();
        let (low, high) = x
            .subview_mut(0, lo, m, len)
            .split_at_col_mut(h0.max(r0) - lo);
        let (first, mut rest) = if self.forward {
            (low, high)
        } else {
            (high, low)
        };
        self.driver.accumulate_serial(
            m,
            rn,
            hn,
            -1.0,
            &Strided::new(&first.as_view(), Trans::No),
            &self.op_l.offset(h0, r0),
            &mut rest,
        );
        self.right(x, r0, rn);
    }
}

/// Reference TRSM: unblocked column-by-column (Left) or column-recurrence
/// (Right) forward/backward substitution. Used by the unit and property tests
/// to validate the blocked kernel, and by the reference backend.
///
/// # Errors
///
/// Same checks as [`trsm`].
#[allow(clippy::too_many_arguments)] // BLAS-style interface
pub fn trsm_naive(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    l: &MatrixView<'_>,
    b: &MatrixView<'_>,
    x: &mut MatrixViewMut<'_>,
) -> Result<()> {
    let (m, n) = check_triangular_shapes("trsm operand shape", side, l, b, x)?;
    check_diagonal(l)?;
    let op_l = |i: usize, p: usize| match trans {
        Trans::No => l.at(i, p),
        Trans::Yes => l.at(p, i),
    };
    let eff = uplo.under(trans);
    match side {
        Side::Left => {
            for j in 0..n {
                match eff {
                    Uplo::Lower => {
                        for i in 0..m {
                            let mut s = alpha * b.at(i, j);
                            for p in 0..i {
                                s -= op_l(i, p) * x.at(p, j);
                            }
                            *x.at_mut(i, j) = s / op_l(i, i);
                        }
                    }
                    Uplo::Upper => {
                        for i in (0..m).rev() {
                            let mut s = alpha * b.at(i, j);
                            for p in (i + 1)..m {
                                s -= op_l(i, p) * x.at(p, j);
                            }
                            *x.at_mut(i, j) = s / op_l(i, i);
                        }
                    }
                }
            }
        }
        Side::Right => {
            let cols: Vec<usize> = match eff {
                Uplo::Upper => (0..n).collect(),
                Uplo::Lower => (0..n).rev().collect(),
            };
            for j in cols {
                for i in 0..m {
                    let mut s = alpha * b.at(i, j);
                    match eff {
                        Uplo::Upper => {
                            for p in 0..j {
                                s -= x.at(i, p) * op_l(p, j);
                            }
                        }
                        Uplo::Lower => {
                            for p in (j + 1)..n {
                                s -= x.at(i, p) * op_l(p, j);
                            }
                        }
                    }
                    *x.at_mut(i, j) = s / op_l(j, j);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trmm::trmm_naive;
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
        let l = random_triangular(order, uplo, 9 + order as u64);
        let b = random_seeded(m, n, 200 + n as u64);
        let mut fast = Matrix::filled(m, n, f64::NAN);
        trsm(
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
        trsm_naive(
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
            diff < 1e-10 * (order as f64).max(1.0),
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
                    check(side, uplo, trans, 9, 31, -2.0, &cfg);
                }
            }
        }
    }

    #[test]
    fn every_variant_matches_naive_on_leaf_and_block_edges() {
        for (cfg, orders) in crate::leaf::tests::edge_grid() {
            for order in orders {
                for uplo in [Uplo::Lower, Uplo::Upper] {
                    for trans in [Trans::No, Trans::Yes] {
                        // Wide enough on the left for two panels of any tile.
                        check(Side::Left, uplo, trans, order, 29, 1.0, &cfg);
                        check(Side::Right, uplo, trans, 13, order, -0.5, &cfg);
                    }
                }
            }
        }
    }

    #[test]
    fn tiny_blocking_exercises_partial_diag_blocks() {
        let cfg = BlockConfig::tiny();
        check(Side::Left, Uplo::Lower, Trans::No, 13, 7, 1.0, &cfg);
        check(Side::Left, Uplo::Upper, Trans::Yes, 11, 9, 0.5, &cfg);
        check(Side::Right, Uplo::Lower, Trans::No, 13, 7, 1.0, &cfg);
        check(Side::Right, Uplo::Upper, Trans::Yes, 7, 13, 0.5, &cfg);
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
    }

    #[test]
    fn solve_inverts_the_triangular_product() {
        // trsm(L, trmm(L, B)) == B — the round trip that certifies the two
        // triangular kernels against each other, on both sides.
        let cfg = BlockConfig::serial();
        let m = 27;
        let n = 11;
        for side in [Side::Left, Side::Right] {
            let order = match side {
                Side::Left => m,
                Side::Right => n,
            };
            for (uplo, trans) in [
                (Uplo::Lower, Trans::No),
                (Uplo::Upper, Trans::No),
                (Uplo::Lower, Trans::Yes),
            ] {
                let l = random_triangular(order, uplo, 33);
                let b = random_seeded(m, n, 34);
                let mut lb = Matrix::zeros(m, n);
                trmm_naive(
                    side,
                    uplo,
                    trans,
                    1.0,
                    &l.view(),
                    &b.view(),
                    &mut lb.view_mut(),
                )
                .unwrap();
                let mut recovered = Matrix::zeros(m, n);
                trsm(
                    side,
                    uplo,
                    trans,
                    1.0,
                    &l.view(),
                    &lb.view(),
                    &mut recovered.view_mut(),
                    &cfg,
                )
                .unwrap();
                assert!(
                    max_abs_diff(&recovered, &b).unwrap() < 1e-10,
                    "{side:?}/{uplo:?}/{trans:?}"
                );
            }
        }
    }

    #[test]
    fn singular_diagonal_is_reported() {
        let cfg = BlockConfig::default();
        let mut l = random_triangular(5, Uplo::Lower, 1);
        l[(3, 3)] = 0.0;
        let b = random_seeded(5, 2, 2);
        let mut x = Matrix::zeros(5, 2);
        let err = trsm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l.view(),
            &b.view(),
            &mut x.view_mut(),
            &cfg,
        )
        .unwrap_err();
        assert_eq!(err, MatrixError::SingularDiagonal { index: 3 });
        assert!(trsm_naive(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l.view(),
            &b.view(),
            &mut x.view_mut()
        )
        .is_err());
        // Right side: the singular triangle sits on the column dimension.
        let b_r = random_seeded(2, 5, 3);
        let mut x_r = Matrix::zeros(2, 5);
        let err_r = trsm(
            Side::Right,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l.view(),
            &b_r.view(),
            &mut x_r.view_mut(),
            &cfg,
        )
        .unwrap_err();
        assert_eq!(err_r, MatrixError::SingularDiagonal { index: 3 });
    }

    #[test]
    fn bad_diagonals_are_reported_with_their_absolute_index() {
        // Zero and NaN alike, wherever the entry sits: first leaf, second
        // block, third block; both sides; blocked kernel and oracle.
        let cfg = BlockConfig::default();
        let order = 2 * cfg.tri_block + 9;
        for index in [3, cfg.tri_block + 5, order - 2] {
            for bad in [0.0, f64::NAN] {
                for (side, m, n) in [(Side::Left, order, 4), (Side::Right, 4, order)] {
                    let mut l = random_triangular(order, Uplo::Upper, 7);
                    l[(index, index)] = bad;
                    let b = random_seeded(m, n, 8);
                    let mut x = Matrix::zeros(m, n);
                    let expected = Err(MatrixError::SingularDiagonal { index });
                    let (lv, bv) = (l.view(), b.view());
                    let blocked = trsm(
                        side,
                        Uplo::Upper,
                        Trans::Yes,
                        1.0,
                        &lv,
                        &bv,
                        &mut x.view_mut(),
                        &cfg,
                    );
                    assert_eq!(blocked, expected, "{side:?} index {index} value {bad}");
                    let naive = trsm_naive(
                        side,
                        Uplo::Upper,
                        Trans::Yes,
                        1.0,
                        &lv,
                        &bv,
                        &mut x.view_mut(),
                    );
                    assert_eq!(naive, expected, "naive {side:?} index {index} value {bad}");
                }
            }
        }
    }

    #[test]
    fn shape_errors_are_detected() {
        let cfg = BlockConfig::default();
        let l = Matrix::zeros(3, 4);
        let b = Matrix::zeros(3, 2);
        let mut x = Matrix::zeros(3, 2);
        assert!(trsm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l.view(),
            &b.view(),
            &mut x.view_mut(),
            &cfg
        )
        .is_err());
        // Right side: a square L of the wrong order is rejected.
        let l3 = Matrix::zeros(3, 3);
        assert!(trsm(
            Side::Right,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l3.view(),
            &b.view(),
            &mut x.view_mut(),
            &cfg
        )
        .is_err());
    }
}
