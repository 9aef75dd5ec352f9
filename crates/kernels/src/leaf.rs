//! The small-call rule, and the safe slice primitives shared by the
//! in-place factorisations of POTRF, GETRF and QR.
//!
//! A call whose operands fit a few register tiles spends more on the packed
//! engine's machinery — packing, thread-local scratch, the parallel check,
//! per-level copies of the recursion — than on its arithmetic. The rule here
//! ([`is_small`]) is the one size test that sends such a call to the small
//! tier instead: products run straight from storage
//! ([`crate::driver::BlockedDriver::accumulate`]), TRSM substitutes on its
//! operands, ORMQR applies its reflectors one by one, and POTRF, GETRF and QR
//! factor in place on contiguous column slices through the primitives here,
//! so the per-kernel modules carry no bounds-checked element loop of their
//! own. The recursive factorisations stop splitting at the same rule.

use crate::config::BlockConfig;
use crate::microkernel::fmadd;
use lamb_matrix::{Matrix, MatrixView, MatrixViewMut};

/// How many register tiles, counted along the tile's longer side, the
/// largest small call spans in each dimension.
const SMALL_TILES: usize = 6;

/// The largest order the small tier takes under any configuration: what its
/// stack buffers are sized for. A multiple of every tile's `MR` and `NR`.
pub(crate) const SMALL_MAX: usize = 48;

/// The small-call rule's order under `cfg`: [`SMALL_TILES`] register tiles
/// along the tile's longer side, no deeper than one cache block (`kc`), and
/// at most [`SMALL_MAX`]; at least one, so every recursion ends.
pub(crate) fn small_order(cfg: &BlockConfig) -> usize {
    let (mr, nr) = (cfg.tile.mr(), cfg.tile.nr());
    (SMALL_TILES * mr.max(nr)).min(cfg.kc).clamp(1, SMALL_MAX)
}

/// Whether a call with extents `m x n` and depth `k` (for a factorisation or
/// a solve: its order and its right-hand sides) takes the small tier.
pub(crate) fn is_small(m: usize, n: usize, k: usize, cfg: &BlockConfig) -> bool {
    let order = small_order(cfg);
    m <= order && n <= order && k <= order
}

/// The most elements [`on_stack`] provides: a packed `op(A)` of the largest
/// small call and one `NR`-column sliver of its `op(B)`.
const STACK_MAX: usize = SMALL_MAX * (SMALL_MAX + 16);

/// Columns per panel of the in-place Cholesky: each panel is factored
/// column by column, and everything else is a product on the small tier.
pub(crate) const PANEL: usize = 8;

/// Run `f` on a zeroed stack buffer of `len <= STACK_MAX` elements. The
/// buffer comes in four sizes, so a short one costs a short zeroing; `f` is
/// called through a trait object, so the caller's loop nest is compiled once.
pub(crate) fn on_stack(len: usize, f: &mut dyn FnMut(&mut [f64])) {
    // Never inlined: each size keeps a stack frame of its own.
    #[inline(never)]
    fn with<const N: usize>(len: usize, f: &mut dyn FnMut(&mut [f64])) {
        let mut buf = [0.0; N];
        f(&mut buf[..len]);
    }
    match len {
        0..=256 => with::<256>(len, f),
        257..=768 => with::<768>(len, f),
        769..=1536 => with::<1536>(len, f),
        _ => with::<STACK_MAX>(len, f),
    }
}

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

/// Column `j` of `a` and the columns after it, in order: the operands of a
/// right-looking step, split once rather than per column pair.
pub(crate) fn column_and_later<'a>(
    a: &'a mut MatrixViewMut<'_>,
    j: usize,
) -> (&'a mut [f64], impl Iterator<Item = &'a mut [f64]>) {
    let (rows, ld, later) = (a.rows(), a.ld(), a.cols() - j - 1);
    let data = a.as_mut_slice();
    let (head, tail) = data.split_at_mut(((j + 1) * ld).min(data.len()));
    let columns = tail.chunks_mut(ld).take(later).map(move |c| &mut c[..rows]);
    (&mut head[j * ld..j * ld + rows], columns)
}

/// The columns before `j` of `a`, in order, and column `j` itself: the
/// operands of a left-looking step.
pub(crate) fn earlier_and_column<'a>(
    a: &'a mut MatrixViewMut<'_>,
    j: usize,
) -> (impl Iterator<Item = &'a [f64]>, &'a mut [f64]) {
    let (rows, ld) = (a.rows(), a.ld());
    let (head, tail) = a.as_mut_slice().split_at_mut(j * ld);
    let earlier = head.chunks(ld).take(j).map(move |c| &c[..rows]);
    (earlier, &mut tail[..rows])
}

/// An owned, contiguous copy of a window, column by column: what a blocked
/// step above the rule reads while it writes the columns the window shares.
pub(crate) fn compact(v: MatrixView<'_>) -> Matrix {
    Matrix::from_vec(v.rows(), v.cols(), v.to_compact_vec())
        .expect("a compact copy holds rows * cols elements")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::TileVariant;

    /// The sweep the factorisation-tier kernels share: every register tile,
    /// serial and forced-parallel, under a small and the default
    /// `tri_block`, each with the operand orders that sit on the edges of
    /// the tiers — one and two, around the small-call rule, around a block,
    /// and two blocks with a remainder.
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
                    let rule = small_order(&cfg);
                    let mut orders = vec![1, 2, rule - 1, rule, rule + 1, rule + 2];
                    orders.extend([tb - 1, tb, tb + 1, 2 * tb + 3]);
                    orders.sort_unstable();
                    orders.dedup();
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
