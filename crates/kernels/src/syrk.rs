//! Symmetric rank-k update: one triangle of `C := alpha * A·Aᵀ + beta * C`
//! (or `Aᵀ·A` with the transposed variant).
//!
//! Only the triangle selected by [`Uplo`] is read and written — the opposite
//! triangle of `C` is left untouched, exactly like the BLAS routine. This
//! matters for the paper's Algorithm 2 of `A·Aᵀ·B`, which must explicitly
//! copy the computed triangle into a full matrix before a subsequent GEMM can
//! use it.

use crate::config::BlockConfig;
use crate::driver::BlockedDriver;
use crate::leaf::is_small;
use crate::pack::Strided;
use lamb_matrix::{Matrix, MatrixError, MatrixView, MatrixViewMut, Result, Trans, Uplo};

/// `C_uplo := alpha * op(A)·op(A)ᵀ + beta * C_uplo` where `op(A)` is `A`
/// (`trans == No`, `A` is `n x k`) or `Aᵀ` (`trans == Yes`, `A` is `k x n`).
///
/// The FLOP count attributed to this kernel by the paper is `(n + 1)·n·k`
/// (see [`crate::flops::syrk_flops`]).
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if `C` is not `n x n`.
pub fn syrk(
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    a: &MatrixView<'_>,
    beta: f64,
    c: &mut MatrixViewMut<'_>,
    cfg: &BlockConfig,
) -> Result<()> {
    let (n, k) = trans.apply((a.rows(), a.cols()));
    if c.rows() != n || c.cols() != n {
        return Err(MatrixError::DimensionMismatch {
            op: "syrk output shape",
            lhs: (c.rows(), c.cols()),
            rhs: (n, n),
        });
    }

    scale_triangle(beta, uplo, c);
    if n == 0 || k == 0 || alpha == 0.0 {
        return Ok(());
    }

    // op(A), of shape n x k.
    let op_a = Strided::new(a, trans);

    let driver = BlockedDriver::new(cfg);
    if is_small(n, n, k, cfg) {
        // Only the tiles that reach into the triangle, written masked.
        driver.accumulate_small(n, n, k, alpha, (&op_a, &op_a.t()), c, Some(uplo));
        return Ok(());
    }
    let panels = if cfg.should_parallelise(n, n, k) {
        rayon::current_num_threads()
    } else {
        1
    };
    let tb = cfg.tri_block.max(1);
    driver.for_each_panel_ending(
        c.subview_mut(0, 0, n, n),
        &triangle_panel_ends(n, uplo, panels, cfg.tile.nr()),
        |j0, mut panel: MatrixViewMut<'_>| {
            // Walk the panel's stretch of the diagonal in blocks of at most
            // `tri_block` columns. Only a diagonal block needs the triangle
            // mask, so only it takes the detour through a scratch product;
            // the rest of its columns, below (or above) the diagonal, is a
            // plain rectangle. Whatever the panel width — a serial call is
            // one panel of width n — the product computed is the triangle
            // plus a `tri_block`-wide band along the diagonal.
            let w = panel.cols();
            let mut scratch = Matrix::zeros(tb.min(w), tb.min(w));
            for d0 in (0..w).step_by(tb) {
                let bw = tb.min(w - d0);
                // The block's first row and column in C.
                let g0 = j0 + d0;
                let mut scratch = scratch.view_mut();
                let mut diag = scratch.subview_mut(0, 0, bw, bw);
                diag.fill(0.0);
                driver.accumulate_serial(
                    bw,
                    bw,
                    k,
                    alpha,
                    &op_a.offset(g0, 0),
                    &op_a.t().offset(0, g0),
                    &mut diag,
                );
                // Fold only the selected triangle into C, so the opposite
                // triangle of C is never written.
                let diag = diag.as_view();
                for jj in 0..bw {
                    let rows = match uplo {
                        Uplo::Lower => jj..bw,
                        Uplo::Upper => 0..jj + 1,
                    };
                    let col = &mut panel.col_mut(d0 + jj)[g0..g0 + bw];
                    for (x, &d) in col[rows.clone()].iter_mut().zip(&diag.col(jj)[rows]) {
                        *x += d;
                    }
                }
                // Rows of C strictly below (Lower) or above (Upper) the block.
                let rect = match uplo {
                    Uplo::Lower => g0 + bw..n,
                    Uplo::Upper => 0..g0,
                };
                let (r0, rows) = (rect.start, rect.len());
                driver.accumulate_serial(
                    rows,
                    bw,
                    k,
                    alpha,
                    &op_a.offset(r0, 0),
                    &op_a.t().offset(0, g0),
                    &mut panel.subview_mut(r0, d0, rows, bw),
                );
            }
        },
    );
    Ok(())
}

/// Where each of `panels` column panels of the `uplo` triangle of order `n`
/// ends so that the panels hold equal shares of the triangle's *elements*
/// (equal widths would give the panel on the long-column side three times
/// the work of the other, with two): the first `x` of a lower triangle's
/// columns hold `1 - (1 - x/n)²` of it, of an upper triangle's `(x/n)²`.
/// Ends are rounded to whole `nr`-column micro-tiles; panels that round to
/// nothing are dropped.
fn triangle_panel_ends(n: usize, uplo: Uplo, panels: usize, nr: usize) -> Vec<usize> {
    let mut ends: Vec<usize> = (1..panels)
        .map(|i| {
            let share = i as f64 / panels as f64;
            let x = match uplo {
                Uplo::Lower => 1.0 - (1.0 - share).sqrt(),
                Uplo::Upper => share.sqrt(),
            };
            ((x * n as f64 / nr as f64).round() as usize * nr).min(n)
        })
        .chain([n])
        .filter(|&end| end > 0)
        .collect();
    ends.dedup();
    ends
}

/// Scale only the `uplo` triangle of `c` by `beta`, honouring the BLAS rule
/// that `beta == 0` writes zeros without reading the previous contents.
fn scale_triangle(beta: f64, uplo: Uplo, c: &mut MatrixViewMut<'_>) {
    if beta == 1.0 {
        return;
    }
    let n = c.cols();
    for j in 0..n {
        let range = match uplo {
            Uplo::Lower => j..n,
            Uplo::Upper => 0..j + 1,
        };
        let col = c.col_mut(j);
        for x in &mut col[range] {
            *x = if beta == 0.0 { 0.0 } else { beta * *x };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::naive::gemm_naive;
    use lamb_matrix::random::random_seeded;
    use lamb_matrix::Matrix;

    /// Reference: full product op(A)*op(A)^T via the naive kernel.
    fn reference_full(trans: Trans, a: &Matrix, alpha: f64) -> Matrix {
        let n = match trans {
            Trans::No => a.rows(),
            Trans::Yes => a.cols(),
        };
        let mut c = Matrix::zeros(n, n);
        gemm_naive(
            trans,
            trans.flip(),
            alpha,
            &a.view(),
            &a.view(),
            0.0,
            &mut c.view_mut(),
        )
        .unwrap();
        c
    }

    fn check(
        uplo: Uplo,
        trans: Trans,
        n: usize,
        k: usize,
        alpha: f64,
        beta: f64,
        cfg: &BlockConfig,
    ) {
        let (ar, ac) = trans.apply((n, k));
        let a = random_seeded(ar, ac, 100 + n as u64 + k as u64);
        let c0 = random_seeded(n, n, 55);
        let mut c = c0.clone();
        syrk(uplo, trans, alpha, &a.view(), beta, &mut c.view_mut(), cfg).unwrap();
        let full = reference_full(trans, &a, alpha);
        for i in 0..n {
            for j in 0..n {
                let expected = if uplo.contains(i, j) {
                    beta * c0[(i, j)] + full[(i, j)]
                } else {
                    // The opposite triangle must be untouched.
                    c0[(i, j)]
                };
                assert!(
                    (c[(i, j)] - expected).abs() < 1e-10 * (k as f64).max(1.0),
                    "uplo {:?} trans {:?} n={n} k={k} ({i},{j}): got {} expected {}",
                    uplo,
                    trans,
                    c[(i, j)],
                    expected
                );
            }
        }
    }

    #[test]
    fn lower_and_upper_match_reference_serial() {
        let cfg = BlockConfig::serial();
        for &uplo in &[Uplo::Lower, Uplo::Upper] {
            check(uplo, Trans::No, 17, 9, 1.0, 0.0, &cfg);
            check(uplo, Trans::No, 32, 40, 2.0, 1.0, &cfg);
            check(uplo, Trans::Yes, 21, 13, 1.0, 0.5, &cfg);
        }
    }

    #[test]
    fn parallel_path_matches_reference() {
        let cfg = BlockConfig {
            parallel_flop_threshold: 1,
            ..BlockConfig::default()
        };
        for &uplo in &[Uplo::Lower, Uplo::Upper] {
            check(uplo, Trans::No, 90, 64, 1.0, 0.0, &cfg);
            check(uplo, Trans::Yes, 70, 110, -1.0, 2.0, &cfg);
        }
    }

    #[test]
    fn parallel_panels_hold_equal_shares_of_the_triangle() {
        let cfg = BlockConfig::default();
        let nr = cfg.tile.nr();
        for n in [64usize, 200, 513] {
            for uplo in [Uplo::Lower, Uplo::Upper] {
                for panels in 2..=4 {
                    let ends = triangle_panel_ends(n, uplo, panels, nr);
                    // The panels tile 0..n exactly once, on micro-tile edges.
                    assert_eq!(ends.last(), Some(&n));
                    assert!(ends.windows(2).all(|w| w[0] < w[1]), "{ends:?}");
                    assert!(ends[..ends.len() - 1].iter().all(|e| e % nr == 0));
                    let starts = [0].into_iter().chain(ends.iter().copied());
                    let counts: Vec<usize> = starts
                        .zip(&ends)
                        .map(|(j0, &j1)| {
                            (j0..j1)
                                .map(|j| match uplo {
                                    Uplo::Lower => n - j,
                                    Uplo::Upper => j + 1,
                                })
                                .sum()
                        })
                        .collect();
                    assert_eq!(counts.iter().sum::<usize>(), n * (n + 1) / 2);
                    let mean = n * (n + 1) / 2 / counts.len();
                    let band = cfg.tri_block * n;
                    assert!(
                        counts.iter().all(|&c| c.abs_diff(mean) <= band),
                        "n={n} {uplo:?} {panels} panels: {counts:?} around {mean}"
                    );
                }
            }
        }
        assert!(triangle_panel_ends(0, Uplo::Lower, 2, nr).is_empty());
        assert_eq!(triangle_panel_ends(3, Uplo::Upper, 4, nr), [3]);
    }

    #[test]
    fn equal_area_panels_agree_with_the_serial_result() {
        // A column can move from a diagonal block's scratch sum to a
        // rectangle's in-place sum when the panel edges move, so the two
        // results agree to rounding, not bit for bit.
        let parallel = BlockConfig {
            parallel_flop_threshold: 1,
            ..BlockConfig::default()
        };
        let k = 40;
        for n in [64usize, 200, 513] {
            for uplo in [Uplo::Lower, Uplo::Upper] {
                let a = random_seeded(n, k, n as u64);
                let c0 = random_seeded(n, n, 56);
                let mut c_serial = c0.clone();
                let mut c_parallel = c0.clone();
                let serial = BlockConfig::serial();
                syrk(
                    uplo,
                    Trans::No,
                    1.0,
                    &a.view(),
                    0.5,
                    &mut c_serial.view_mut(),
                    &serial,
                )
                .unwrap();
                syrk(
                    uplo,
                    Trans::No,
                    1.0,
                    &a.view(),
                    0.5,
                    &mut c_parallel.view_mut(),
                    &parallel,
                )
                .unwrap();
                for j in 0..n {
                    for i in 0..n {
                        if uplo.contains(i, j) {
                            let diff = (c_serial[(i, j)] - c_parallel[(i, j)]).abs();
                            assert!(diff <= 1e-12 * k as f64, "n={n} {uplo:?} ({i},{j}): {diff}");
                        } else {
                            // The opposite triangle is never written.
                            assert_eq!(c_parallel[(i, j)].to_bits(), c0[(i, j)].to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tiny_blocking_exercises_partial_tiles() {
        let cfg = BlockConfig::tiny();
        check(Uplo::Lower, Trans::No, 13, 7, 1.0, 0.0, &cfg);
        check(Uplo::Upper, Trans::No, 13, 7, 1.0, 0.0, &cfg);
    }

    #[test]
    fn degenerate_sizes() {
        let cfg = BlockConfig::default();
        check(Uplo::Lower, Trans::No, 1, 1, 1.0, 0.0, &cfg);
        check(Uplo::Upper, Trans::No, 1, 5, 1.0, 3.0, &cfg);
        // k = 0: triangle is scaled by beta, nothing else happens.
        let a = Matrix::zeros(4, 0);
        let mut c = Matrix::filled(4, 4, 2.0);
        syrk(
            Uplo::Lower,
            Trans::No,
            1.0,
            &a.view(),
            0.5,
            &mut c.view_mut(),
            &cfg,
        )
        .unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let expected = if i >= j { 1.0 } else { 2.0 };
                assert_eq!(c[(i, j)], expected);
            }
        }
    }

    #[test]
    fn result_triangle_is_consistent_with_symmetry() {
        // Computing the lower triangle and mirroring must equal computing the
        // upper triangle and mirroring.
        let cfg = BlockConfig::serial();
        let a = random_seeded(25, 14, 9);
        let mut lower = Matrix::zeros(25, 25);
        let mut upper = Matrix::zeros(25, 25);
        syrk(
            Uplo::Lower,
            Trans::No,
            1.0,
            &a.view(),
            0.0,
            &mut lower.view_mut(),
            &cfg,
        )
        .unwrap();
        syrk(
            Uplo::Upper,
            Trans::No,
            1.0,
            &a.view(),
            0.0,
            &mut upper.view_mut(),
            &cfg,
        )
        .unwrap();
        lower.symmetrize_from(Uplo::Lower).unwrap();
        upper.symmetrize_from(Uplo::Upper).unwrap();
        assert!(lamb_matrix::ops::max_abs_diff(&lower, &upper).unwrap() < 1e-11);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let cfg = BlockConfig::default();
        let a = Matrix::zeros(5, 3);
        let mut c = Matrix::zeros(4, 4);
        assert!(syrk(
            Uplo::Lower,
            Trans::No,
            1.0,
            &a.view(),
            0.0,
            &mut c.view_mut(),
            &cfg
        )
        .is_err());
    }
}
