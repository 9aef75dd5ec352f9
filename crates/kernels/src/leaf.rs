//! Safe slice primitives shared by the leaf recurrences of POTRF, GETRF and
//! QR.
//!
//! Everything below the packed engine — a diagonal block no wider than
//! [`LEAF`], a pivot search, a Householder reflector applied inside its own
//! panel — runs on contiguous column slices through the three operations
//! here, so the per-kernel modules carry no bounds-checked element loop of
//! their own.

use crate::microkernel::fmadd;
use lamb_matrix::{Matrix, MatrixView, MatrixViewMut};

/// Order at which the recursive diagonal blocks stop splitting and solve
/// directly. Below it the engine's packing costs more than the block's own
/// arithmetic; it is the only size test on the factorisation tier.
pub(crate) const LEAF: usize = 8;

/// How many of `len` coupled unknowns the recursion solves before folding
/// them into the rest: one `tri_block` while the range is wider than that —
/// the blocked sweep — and half of it below.
pub(crate) fn first_part(len: usize, tri_block: usize) -> usize {
    if len > tri_block.max(1) {
        tri_block.max(1)
    } else {
        len / 2
    }
}

/// `xᵀ·y` over the common length, with independent partial sums so the
/// reduction vectorises.
pub(crate) fn dot(x: &[f64], y: &[f64]) -> f64 {
    const LANES: usize = 8;
    let (xc, yc) = (x.chunks_exact(LANES), y.chunks_exact(LANES));
    let mut tail = 0.0;
    for (&a, &b) in xc.remainder().iter().zip(yc.remainder()) {
        tail = fmadd(tail, a, b);
    }
    let mut acc = [0.0; LANES];
    for (a, b) in xc.zip(yc) {
        for l in 0..LANES {
            acc[l] = fmadd(acc[l], a[l], b[l]);
        }
    }
    acc.iter().sum::<f64>() + tail
}

/// `y += alpha·x` over the common length.
pub(crate) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = fmadd(*yi, alpha, xi);
    }
}

/// Columns `j` and `q` (`j != q`) of `a`, both mutable: two columns of a
/// column-major window never overlap, which `split_at_mut` proves.
pub(crate) fn two_cols<'a>(
    a: &'a mut MatrixViewMut<'_>,
    j: usize,
    q: usize,
) -> (&'a mut [f64], &'a mut [f64]) {
    assert!(
        j != q && j < a.cols() && q < a.cols(),
        "two distinct columns"
    );
    let (rows, ld) = (a.rows(), a.ld());
    let (lo, hi) = (j.min(q), j.max(q));
    let (head, tail) = a.as_mut_slice().split_at_mut(hi * ld);
    let (low, high) = (&mut head[lo * ld..lo * ld + rows], &mut tail[..rows]);
    if j < q {
        (low, high)
    } else {
        (high, low)
    }
}

/// An owned, contiguous copy of a window, column by column.
pub(crate) fn compact(v: MatrixView<'_>) -> Matrix {
    Matrix::from_vec(v.rows(), v.cols(), v.to_compact_vec())
        .expect("a compact copy holds rows * cols elements")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{BlockConfig, TileVariant};

    /// The sweep the factorisation-tier kernels share: every register tile,
    /// serial and forced-parallel, under a small and the default
    /// `tri_block`, each with the operand orders that sit on the edges of
    /// the recursion — one, around a leaf, around a block, and two blocks
    /// with a remainder.
    pub(crate) fn edge_grid() -> Vec<(BlockConfig, Vec<usize>)> {
        let mut grid = Vec::new();
        for tb in [20, BlockConfig::default().tri_block] {
            for tile in TileVariant::ALL {
                for parallel in [false, true] {
                    let cfg = BlockConfig {
                        tri_block: tb,
                        tile,
                        parallel,
                        parallel_flop_threshold: 1,
                        ..BlockConfig::default()
                    };
                    let orders = vec![1, LEAF - 1, LEAF, LEAF + 1, tb - 1, tb, tb + 1, 2 * tb + 3];
                    grid.push((cfg, orders));
                }
            }
        }
        grid
    }

    #[test]
    fn dot_and_axpy_match_the_scalar_definitions_at_every_remainder() {
        for n in 0..40 {
            let x: Vec<f64> = (0..n).map(|i| 0.5 + i as f64).collect();
            let y: Vec<f64> = (0..n).map(|i| 1.0 - 0.25 * i as f64).collect();
            let expect: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            assert!((dot(&x, &y) - expect).abs() <= 1e-9 * expect.abs().max(1.0));
            let mut z = y.clone();
            axpy(-2.0, &x, &mut z);
            for i in 0..n {
                assert!((z[i] - (y[i] - 2.0 * x[i])).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn two_cols_returns_the_requested_columns_in_the_requested_order() {
        let mut m = Matrix::from_fn(3, 5, |i, j| (10 * j + i) as f64);
        let mut full = m.view_mut();
        // A window with ld > rows: rows 1..3 of columns 1..5.
        let mut v = full.subview_mut(1, 1, 2, 4);
        let (a, b) = two_cols(&mut v, 3, 0);
        assert_eq!((&*a, &*b), (&[41.0, 42.0][..], &[11.0, 12.0][..]));
        a.swap_with_slice(b);
        assert_eq!(m[(1, 1)], 41.0);
        assert_eq!(m[(2, 4)], 12.0);
        assert_eq!(m[(0, 1)], 10.0);
    }
}
