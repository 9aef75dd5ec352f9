//! Householder QR factorisation: `A = Q·R` for a general `m x n` matrix with
//! `m >= n`, in place, LAPACK `dgeqrf`-style.
//!
//! The factor overwrites `A`: the upper triangle including the diagonal holds
//! `R`, and each column's strictly-sub-diagonal part holds the essential part
//! of a Householder vector `v_j` (its leading 1 is implicit). Together with
//! the scalar coefficients `tau`, reflector `j` is `H_j = I - tau_j·v_j·v_jᵀ`
//! and `Q = H_0·H_1⋯H_{n-1}`.
//!
//! Structure on the shared [`BlockedDriver`] engine: the classic **blocked
//! compact-WY algorithm**. The matrix is walked in column panels of
//! [`BlockConfig::tri_block`] columns; each step
//!
//! 1. factors the panel with the unblocked Householder recurrence, one dot
//!    product and one axpy on column slices per reflector and column (an
//!    exactly-zero column yields `tau = 0`, i.e. the identity reflector —
//!    rank deficiency surfaces later as a zero on `R`'s diagonal, not here),
//! 2. accumulates the panel's triangular factor `T` (LAPACK `larft`, forward
//!    columnwise) so the panel's reflector product is `I - V·T·Vᵀ`, and
//! 3. applies `Qₚᵀ = I - V·Tᵀ·Vᵀ` to the trailing columns through the one
//!    block-reflector routine, three products on the packed engine:
//!    `W := VᵀC`, `W := TᵀW`, `C -= V·W`.
//!
//! Step 3 carries the `2mn² - 2n³/3` bulk of the work (see
//! [`crate::flops::qr_flops`]) on the packed, cache-blocked, Rayon-capable
//! engine.
//!
//! [`qr_packed`] produces the single-operand packed form the kernel-call IR
//! uses: an `m x (n+1)` matrix with the factors in columns `0..n` and the
//! `tau` coefficients in the first `n` rows of column `n`. [`ormqr`] applies
//! `Qᵀ` from such a packed factor, panel by panel through the same
//! block-reflector routine — the least-squares pipeline is
//! `x = R⁻¹·(Qᵀb)` via one ORMQR and one TRSM.

use crate::config::BlockConfig;
use crate::driver::BlockedDriver;
use crate::leaf::{axpy, dot, two_cols, LEAF};
use crate::pack::{Operand, Strided};
use lamb_matrix::{Matrix, MatrixError, MatrixView, MatrixViewMut, Result, Trans};
use std::cmp::Ordering;

/// Factor the `m x n` matrix `a` (`m >= n`) in place as `A = Q·R`. On return
/// `tau` holds the `n` Householder coefficients.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] when `m < n` (the wide case
/// needs an LQ factorisation this crate does not provide).
pub fn qr(a: &mut MatrixViewMut<'_>, tau: &mut Vec<f64>, cfg: &BlockConfig) -> Result<()> {
    let (m, n) = check_tall(a)?;
    tau.clear();
    tau.reserve(n);
    let tb = cfg.tri_block.max(1);
    let mut k0 = 0;
    while k0 < n {
        let kb = tb.min(n - k0);
        // Panel and trailing columns are disjoint ranges of the buffer, so
        // the reflectors are read in place while the trailing block is
        // updated.
        let (mut panel, mut trailing) = a.subview_mut(k0, k0, m - k0, n - k0).split_at_col_mut(kb);
        factor_panel(&mut panel, tau);
        if trailing.cols() > 0 {
            apply_block_reflector(&panel.as_view(), &tau[k0..], &mut trailing, cfg);
        }
        k0 += kb;
    }
    Ok(())
}

/// Reference QR: the unblocked Householder recurrence over the whole matrix.
/// Used by the unit and property tests to validate the blocked kernel.
///
/// # Errors
///
/// Same checks as [`qr`].
pub fn qr_naive(a: &mut MatrixViewMut<'_>, tau: &mut Vec<f64>) -> Result<()> {
    check_tall(a)?;
    tau.clear();
    factor_panel(a, tau);
    Ok(())
}

fn check_tall(a: &MatrixViewMut<'_>) -> Result<(usize, usize)> {
    if a.rows() < a.cols() {
        return Err(MatrixError::DimensionMismatch {
            op: "qr (requires rows >= cols)",
            lhs: (a.rows(), a.cols()),
            rhs: (a.cols(), a.cols()),
        });
    }
    Ok((a.rows(), a.cols()))
}

/// Unblocked Householder QR of every column of the window `a` (whose
/// `(0, 0)` is a diagonal element), pushing one `tau` per column and applying
/// each reflector to the remaining columns as it is formed.
fn factor_panel(a: &mut MatrixViewMut<'_>, tau: &mut Vec<f64>) {
    for j in 0..a.cols() {
        // Householder vector annihilating a[j+1.., j] into a[j, j].
        let col = a.col_mut(j);
        let alpha = col[j];
        let normsq = dot(&col[j + 1..], &col[j + 1..]);
        if normsq == 0.0 {
            // Already triangular in this column: the identity reflector.
            tau.push(0.0);
            continue;
        }
        let norm = (alpha * alpha + normsq).sqrt();
        let beta = if alpha >= 0.0 { -norm } else { norm };
        let t = (beta - alpha) / beta;
        tau.push(t);
        let scale = 1.0 / (alpha - beta);
        for v in &mut col[j + 1..] {
            *v *= scale;
        }
        col[j] = beta;
        // Apply H = I - tau·v·vᵀ to the remaining columns.
        for q in j + 1..a.cols() {
            let (v, c) = two_cols(a, j, q);
            let tw = t * (c[j] + dot(&v[j + 1..], &c[j + 1..]));
            c[j] -= tw;
            axpy(-tw, &v[j + 1..], &mut c[j + 1..]);
        }
    }
}

/// LAPACK `larft` (forward, columnwise): the upper-triangular `T` with
/// `H_0·H_1⋯H_{kb-1} = I - V·T·Vᵀ`, for the `kb` reflectors stored below the
/// diagonal of `v` (unit diagonal implicit) with coefficients `tau[..kb]`.
fn larft(v: &MatrixView<'_>, tau: &[f64]) -> Matrix {
    let kb = v.cols();
    let mut t = Matrix::zeros(kb, kb);
    let mut tj = vec![0.0; kb];
    for j in 0..kb {
        if tau[j] != 0.0 {
            // T(0..j, j) := -tau_j · T(0..j, 0..j) · (V(:, 0..j)ᵀ · v_j); v_j
            // is zero above row j and one on it.
            let vj = &v.col(j)[j + 1..];
            tj[..j].fill(0.0);
            for p in 0..j {
                let vp = &v.col(p)[j..];
                let z = vp[0] + dot(&vp[1..], vj);
                axpy(-tau[j] * z, &t.col(p)[..=p], &mut tj[..=p]);
            }
            t.col_mut(j)[..j].copy_from_slice(&tj[..j]);
        }
        t[(j, j)] = tau[j];
    }
    t
}

/// `C := (I - V·Tᵀ·Vᵀ)·C`: apply the transpose of the compact-WY block
/// `H_0⋯H_{kb-1} = I - V·T·Vᵀ` to `c`. `v` holds the `kb` reflectors below
/// its diagonal (unit diagonal implicit, upper triangle ignored) and spans
/// the same rows as `c`; `tau[..kb]` are their coefficients. The one routine
/// behind [`qr`]'s trailing update and [`ormqr`].
fn apply_block_reflector(
    v: &MatrixView<'_>,
    tau: &[f64],
    c: &mut MatrixViewMut<'_>,
    cfg: &BlockConfig,
) {
    let t = larft(v, tau);
    let (rows, kb, nc) = (v.rows(), v.cols(), c.cols());
    let (vd, ldv) = (v.as_slice(), v.ld());
    let v_at = move |i: usize, j: usize| match i.cmp(&j) {
        Ordering::Greater => vd[i + j * ldv],
        Ordering::Equal => 1.0,
        Ordering::Less => 0.0,
    };
    let driver = BlockedDriver::new(cfg);
    let mut w = Matrix::zeros(kb, nc);
    let c_in = Strided::new(&c.as_view(), Trans::No);
    driver.accumulate(kb, nc, rows, 1.0, &v_at.t(), &c_in, &mut w.view_mut());
    let mut tw = Matrix::zeros(kb, nc);
    let (t_t, w) = (
        Strided::new(&t.view(), Trans::Yes),
        Strided::new(&w.view(), Trans::No),
    );
    driver.accumulate(kb, nc, kb, 1.0, &t_t, &w, &mut tw.view_mut());
    let tw = Strided::new(&tw.view(), Trans::No);
    driver.accumulate(rows, nc, kb, -1.0, &v_at, &tw, c);
}

/// Factor `a` out of place into the packed `m x (n+1)` operand the
/// kernel-call IR uses: Householder vectors and `R` in columns `0..n` and the
/// `tau` coefficients, one per reflector, in the first `n` rows of column `n`.
///
/// # Errors
///
/// Same checks as [`qr`].
pub fn qr_packed(a: &Matrix, cfg: &BlockConfig) -> Result<Matrix> {
    let mut f = Matrix::zeros(a.rows(), a.cols() + 1);
    qr_packed_into(a, &mut f, cfg)?;
    Ok(f)
}

/// [`qr_packed`] into an existing `m x (n+1)` operand.
///
/// # Errors
///
/// Same checks as [`qr`], plus [`MatrixError::DimensionMismatch`] for a
/// mis-sized `f`.
pub fn qr_packed_into(a: &Matrix, f: &mut Matrix, cfg: &BlockConfig) -> Result<()> {
    let (m, n) = a.shape();
    if f.shape() != (m, n + 1) {
        return Err(MatrixError::DimensionMismatch {
            op: "qr packed output",
            lhs: f.shape(),
            rhs: (m, n + 1),
        });
    }
    f.as_mut_slice()[..m * n].copy_from_slice(a.as_slice());
    let mut tau = Vec::new();
    qr(&mut f.view_mut().subview_mut(0, 0, m, n), &mut tau, cfg)?;
    let last = f.col_mut(n);
    last.fill(0.0);
    last[..n].copy_from_slice(&tau);
    Ok(())
}

/// Apply `Qᵀ` from a packed QR factor `f` (`m x (n+1)`, see [`qr_packed`]) to
/// `b` (`m x k`) and write the *top `n` rows* of the product into `c`
/// (`n x k`) — exactly the `Qᵀb` block the least-squares triangular solve
/// `x = R⁻¹·(Qᵀb)` consumes. Blocked: one `T` factor and one block-reflector
/// application per [`BlockConfig::tri_block`] reflectors.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] when `f` has no tau column,
/// `b`'s row count differs from `f`'s, `n > m`, or `c` is not `n x k`.
pub fn ormqr(f: &Matrix, b: &Matrix, c: &mut Matrix, cfg: &BlockConfig) -> Result<()> {
    let (m, n, k) = check_ormqr(f, b, c)?;
    if k == 0 {
        return Ok(());
    }
    // Qᵀ·B = H_{n-1}⋯H_0·B: apply the panels in factorisation order.
    let mut work = b.clone();
    let tau = &f.col(n)[..n];
    let tb = cfg.tri_block.max(1).min(k.max(LEAF));
    let mut k0 = 0;
    while k0 < n {
        let kb = tb.min(n - k0);
        let v = f.subview(k0, k0, m - k0, kb);
        let mut rows = work.view_mut();
        let mut below = rows.subview_mut(k0, 0, m - k0, k);
        apply_block_reflector(&v, &tau[k0..], &mut below, cfg);
        k0 += kb;
    }
    for j in 0..k {
        c.col_mut(j).copy_from_slice(&work.col(j)[..n]);
    }
    Ok(())
}

/// Reference ORMQR: the reflectors applied one by one. Used by the unit and
/// property tests to validate the blocked kernel.
///
/// # Errors
///
/// Same checks as [`ormqr`].
pub fn ormqr_naive(f: &Matrix, b: &Matrix, c: &mut Matrix) -> Result<()> {
    let (m, n, k) = check_ormqr(f, b, c)?;
    let mut work = b.clone();
    for j in 0..n {
        let t = f[(j, n)];
        if t == 0.0 {
            continue;
        }
        for col in 0..k {
            let col = work.col_mut(col);
            let mut w = col[j];
            for i in (j + 1)..m {
                w += f[(i, j)] * col[i];
            }
            let tw = t * w;
            col[j] -= tw;
            for i in (j + 1)..m {
                col[i] -= tw * f[(i, j)];
            }
        }
    }
    for j in 0..k {
        c.col_mut(j).copy_from_slice(&work.col(j)[..n]);
    }
    Ok(())
}

/// Shapes `(m, n, k)` of an ORMQR call, validated.
fn check_ormqr(f: &Matrix, b: &Matrix, c: &Matrix) -> Result<(usize, usize, usize)> {
    let mismatch = MatrixError::DimensionMismatch {
        op: "ormqr",
        lhs: f.shape(),
        rhs: b.shape(),
    };
    let Some(n) = f.cols().checked_sub(1) else {
        return Err(mismatch);
    };
    if b.rows() != f.rows() || n > f.rows() || c.shape() != (n, b.cols()) {
        return Err(mismatch);
    }
    Ok((f.rows(), n, b.cols()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, NativeBackend};
    use crate::gemm::naive::gemm_naive;
    use crate::getrf::factor_triangle;
    use crate::op::KernelOp;
    use crate::trsm::trsm_naive;
    use lamb_matrix::ops::max_abs_diff;
    use lamb_matrix::random::random_seeded;
    use lamb_matrix::Trans;
    use lamb_matrix::{Side, Uplo};

    /// The top `n` rows of `Qᵀ·B` in a freshly allocated matrix.
    fn ormqr_alloc(f: &Matrix, b: &Matrix, cfg: &BlockConfig) -> Result<Matrix> {
        let mut c = Matrix::zeros(f.cols().saturating_sub(1), b.cols());
        ormqr(f, b, &mut c, cfg)?;
        Ok(c)
    }

    /// `Q·B` from a packed factor: apply the reflectors in reverse order.
    fn apply_q(f: &Matrix, b: &Matrix) -> Matrix {
        let m = f.rows();
        let n = f.cols() - 1;
        let mut work = b.clone();
        for j in (0..n).rev() {
            let t = f[(j, n)];
            if t == 0.0 {
                continue;
            }
            for c in 0..b.cols() {
                let col = work.col_mut(c);
                let mut w = col[j];
                for i in (j + 1)..m {
                    w += f[(i, j)] * col[i];
                }
                let tw = t * w;
                col[j] -= tw;
                for i in (j + 1)..m {
                    col[i] -= tw * f[(i, j)];
                }
            }
        }
        work
    }

    fn check_reconstruction(m: usize, n: usize, seed: u64, cfg: &BlockConfig) {
        let a = random_seeded(m, n, seed);
        let f = qr_packed(&a, cfg).unwrap();
        assert_eq!(f.shape(), (m, n + 1));
        // Q · [R; 0] must reproduce A.
        let r = factor_triangle(Uplo::Upper, &f).unwrap();
        let r_padded = Matrix::from_fn(m, n, |i, j| if i < n { r[(i, j)] } else { 0.0 });
        let back = apply_q(&f, &r_padded);
        let diff = max_abs_diff(&back, &a).unwrap();
        assert!(
            diff < 1e-10 * (m as f64).max(1.0),
            "m {m} n {n}: reconstruction diff {diff}"
        );
        // ORMQR must agree: Qᵀ·A is [R; 0], so its top n rows are R.
        let qta = ormqr_alloc(&f, &a, cfg).unwrap();
        assert!(max_abs_diff(&qta, &r).unwrap() < 1e-10 * (m as f64).max(1.0));
    }

    #[test]
    fn blocked_factor_reconstructs_the_matrix() {
        let cfg = BlockConfig::serial();
        for (m, n) in [(1, 1), (2, 1), (5, 3), (23, 23), (64, 40), (97, 13)] {
            check_reconstruction(m, n, 7 + (m + n) as u64, &cfg);
        }
    }

    #[test]
    fn factor_and_taus_match_naive_on_leaf_and_block_edges() {
        for (cfg, orders) in crate::leaf::tests::edge_grid() {
            for n in orders {
                // Square, and tall by half.
                for m in [n, n + n / 2] {
                    let a = random_seeded(m, n, 70 + n as u64);
                    let (mut blocked, mut naive) = (a.clone(), a.clone());
                    let (mut tau_b, mut tau_n) = (Vec::new(), Vec::new());
                    qr(&mut blocked.view_mut(), &mut tau_b, &cfg).unwrap();
                    qr_naive(&mut naive.view_mut(), &mut tau_n).unwrap();
                    let tol = 1e-10 * m as f64;
                    assert!(
                        max_abs_diff(&blocked, &naive).unwrap() <= tol,
                        "{m}x{n} {cfg:?}"
                    );
                    assert_eq!(tau_b.len(), n);
                    for (b, t) in tau_b.iter().zip(&tau_n) {
                        assert!((b - t).abs() <= tol, "{m}x{n} {cfg:?}: tau {b} vs {t}");
                    }
                }
            }
        }
    }

    /// Blocked and reference ORMQR on a fresh factor of a random `m x n`
    /// matrix, applied to `k` right-hand sides.
    fn check_ormqr(m: usize, n: usize, k: usize, cfg: &BlockConfig) {
        let f = qr_packed(&random_seeded(m, n, 80 + m as u64), cfg).unwrap();
        let b = random_seeded(m, k, 81 + k as u64);
        let mut blocked = Matrix::filled(n, k, f64::NAN);
        NativeBackend
            .run_into(&KernelOp::Ormqr { m, n, k }, &[&f, &b], &mut blocked, cfg)
            .unwrap();
        let mut naive = Matrix::filled(n, k, f64::NAN);
        ormqr_naive(&f, &b, &mut naive).unwrap();
        let diff = max_abs_diff(&blocked, &naive).unwrap();
        assert!(diff <= 1e-10 * (m as f64).max(1.0), "{m}x{n} k {k}: {diff}");
    }

    #[test]
    fn blocked_ormqr_matches_the_reflector_by_reflector_reference() {
        // Tall, square, a single right-hand side (the `A^+*b` case), fewer
        // right-hand sides than a panel is wide, and empty operands — through
        // the dispatcher, under the configuration it is handed.
        for cfg in [BlockConfig::default(), BlockConfig::tiny()] {
            for (m, n, k) in [
                (150, 70, 90),
                (131, 131, 17),
                (200, 140, 1),
                (9, 9, 1),
                (40, 0, 5),
                (40, 12, 0),
                (0, 0, 0),
            ] {
                check_ormqr(m, n, k, &cfg);
            }
        }
    }

    #[test]
    fn ormqr_blocks_by_the_configuration_it_is_given() {
        // Different panel widths round differently: if the dispatcher
        // dropped `cfg`, the two runs would be bit-identical.
        let f = qr_packed(&random_seeded(90, 60, 5), &BlockConfig::default()).unwrap();
        let b = random_seeded(90, 70, 6);
        let op = KernelOp::Ormqr {
            m: 90,
            n: 60,
            k: 70,
        };
        let wide = NativeBackend
            .run_new(&op, &[&f, &b], &BlockConfig::default())
            .unwrap();
        let narrow = NativeBackend
            .run_new(&op, &[&f, &b], &BlockConfig::tiny())
            .unwrap();
        assert!(max_abs_diff(&wide, &narrow).unwrap() > 0.0);
        assert!(max_abs_diff(&wide, &narrow).unwrap() < 1e-10 * 90.0);
    }

    #[test]
    fn tiny_blocking_exercises_partial_panels() {
        let cfg = BlockConfig::tiny(); // tri_block = 3
        check_reconstruction(13, 13, 3, &cfg);
        check_reconstruction(11, 7, 4, &cfg);
    }

    #[test]
    fn parallel_path_matches_naive() {
        let cfg = BlockConfig {
            parallel_flop_threshold: 1,
            ..BlockConfig::default()
        };
        let a = random_seeded(150, 90, 17);
        let mut blocked = a.clone();
        let mut tau_b = Vec::new();
        qr(&mut blocked.view_mut(), &mut tau_b, &cfg).unwrap();
        let mut naive = a.clone();
        let mut tau_n = Vec::new();
        qr_naive(&mut naive.view_mut(), &mut tau_n).unwrap();
        assert_eq!(tau_b.len(), tau_n.len());
        for (b, n) in tau_b.iter().zip(&tau_n) {
            assert!((b - n).abs() < 1e-9, "tau diverged: {b} vs {n}");
        }
        assert!(max_abs_diff(&blocked, &naive).unwrap() < 1e-9);
    }

    #[test]
    fn factor_solves_least_squares_through_ormqr_and_trsm() {
        // The QR realisation of argmin ‖Ax - b‖: ORMQR then one TRSM. The
        // normal-equations residual Aᵀ(A·X - B) certifies optimality.
        let cfg = BlockConfig::serial();
        let (m, n, k) = (37, 13, 4);
        let a = random_seeded(m, n, 9);
        let b = random_seeded(m, k, 10);
        let f = qr_packed(&a, &cfg).unwrap();
        let r = factor_triangle(Uplo::Upper, &f).unwrap();
        let c = ormqr_alloc(&f, &b, &cfg).unwrap();
        let mut x = Matrix::zeros(n, k);
        trsm_naive(
            Side::Left,
            Uplo::Upper,
            Trans::No,
            1.0,
            &r.view(),
            &c.view(),
            &mut x.view_mut(),
        )
        .unwrap();
        let mut ax = Matrix::zeros(m, k);
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
        let resid = Matrix::from_fn(m, k, |i, j| ax[(i, j)] - b[(i, j)]);
        let mut normal = Matrix::zeros(n, k);
        gemm_naive(
            Trans::Yes,
            Trans::No,
            1.0,
            &a.view(),
            &resid.view(),
            0.0,
            &mut normal.view_mut(),
        )
        .unwrap();
        assert!(lamb_matrix::ops::max_abs(&normal) < 1e-10 * m as f64);
    }

    #[test]
    fn zero_columns_factor_with_identity_reflectors() {
        // Rank deficiency is not an error at factor time: a zero column gives
        // tau = 0 and a zero on R's diagonal; only the later TRSM fails.
        let cfg = BlockConfig::tiny();
        let mut a = random_seeded(9, 5, 21);
        for i in 0..9 {
            a[(i, 2)] = 0.0;
        }
        let f = qr_packed(&a, &cfg).unwrap();
        let r = factor_triangle(Uplo::Upper, &f).unwrap();
        let r_padded = Matrix::from_fn(9, 5, |i, j| if i < 5 { r[(i, j)] } else { 0.0 });
        let back = apply_q(&f, &r_padded);
        assert!(max_abs_diff(&back, &a).unwrap() < 1e-10 * 9.0);
    }

    #[test]
    fn degenerate_and_wide_inputs() {
        let cfg = BlockConfig::default();
        // n = 0 factors to an empty R and a bare tau column.
        let f = qr_packed(&Matrix::zeros(3, 0), &cfg).unwrap();
        assert_eq!(f.shape(), (3, 1));
        let f0 = qr_packed(&Matrix::zeros(0, 0), &cfg).unwrap();
        assert_eq!(f0.shape(), (0, 1));
        // 1 x 1 is a single (possibly identity) reflector.
        let one = Matrix::filled(1, 1, -3.0);
        let f1 = qr_packed(&one, &cfg).unwrap();
        assert!((f1[(0, 0)].abs() - 3.0).abs() < 1e-14);
        // Wide input is rejected.
        let mut wide = Matrix::zeros(2, 5);
        assert!(matches!(
            qr(&mut wide.view_mut(), &mut Vec::new(), &cfg),
            Err(MatrixError::DimensionMismatch { .. })
        ));
        // ORMQR shape errors.
        let b = Matrix::zeros(4, 2);
        assert!(ormqr_alloc(&Matrix::zeros(4, 0), &b, &cfg).is_err());
        assert!(ormqr_alloc(&Matrix::zeros(3, 3), &b, &cfg).is_err());
        assert!(ormqr_alloc(&Matrix::zeros(4, 6), &b, &cfg).is_err());
        // Degenerate ORMQR: no reflectors leaves the top 0 rows.
        let c = ormqr_alloc(&Matrix::zeros(4, 1), &b, &cfg).unwrap();
        assert_eq!(c.shape(), (0, 2));
    }

    #[test]
    fn blocked_and_naive_agree_on_the_factor_itself() {
        let cfg = BlockConfig::serial();
        let a = random_seeded(40, 28, 33);
        let mut blocked = a.clone();
        let mut naive = a.clone();
        let (mut tb, mut tn) = (Vec::new(), Vec::new());
        qr(&mut blocked.view_mut(), &mut tb, &cfg).unwrap();
        qr_naive(&mut naive.view_mut(), &mut tn).unwrap();
        assert!(max_abs_diff(&blocked, &naive).unwrap() < 1e-10);
    }
}
