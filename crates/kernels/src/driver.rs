//! The shared blocked-kernel engine behind every BLAS-3 kernel in this crate.
//!
//! GEMM, SYRK, SYMM, TRMM and TRSM all reduce to the same three ingredients:
//!
//! 1. a **packed serial core** ([`BlockedDriver::accumulate_serial`]) that
//!    accumulates `C += alpha * OpA * OpB` with cache blocking, packing and a
//!    register-tiled micro-kernel, where the logical operands are presented
//!    as [`Operand`]s: strided windows of storage, which the packer reads
//!    at copy rates, or element accessors for what is not storage;
//! 2. a **column-panel partitioner** ([`BlockedDriver::for_each_panel`]) that
//!    splits the output into disjoint column panels and runs a per-panel
//!    closure either serially or on the Rayon pool (the calling thread
//!    included);
//! 3. the **beta-scaling rule** ([`scale_inplace`]) with the BLAS convention
//!    that `beta == 0` writes zeros without reading the previous contents.
//!
//! The per-kernel modules are thin specialisations: GEMM feeds plain (possibly
//! transposed) [`Strided`](crate::pack::Strided) windows, SYMM a mirroring
//! accessor for its symmetric operand, SYRK adds the triangle mask on the
//! diagonal blocks of its panel closure, and TRMM walks the triangular
//! operand in diagonal blocks of [`BlockConfig::tri_block`] rows, handling
//! everything off the diagonal with the same packed core on offset windows.
//! TRSM and QR's block reflector pack what they share across products once
//! and call the micro-kernel on it themselves, handing out column panels
//! through [`BlockedDriver::for_each_panel`].
//! Presenting operands through one trait is what lets every kernel share one
//! loop nest without materialising transposed, mirrored or masked copies,
//! and without the dense ones paying for the accessors the others need.
//!
//! ## Tile dispatch
//!
//! The register tile is chosen at runtime ([`BlockConfig::tile`]) but the hot
//! loop nest is monomorphic: [`BlockedDriver::accumulate_serial`] matches the
//! [`TileVariant`] exactly once per call and enters a `const`-generic core, so
//! the macro-kernel, the partial-tile edge handling and the micro-kernel all
//! see compile-time `MR`/`NR`.
//!
//! ## Small calls
//!
//! A product under the small-call rule (the private `leaf` module's one size
//! test) skips all of the above: no thread-local scratch, no parallel check,
//! and for column-major `op(A)` no packing of its full `MR`-row slivers,
//! which the micro-kernel reads in place; `op(B)` is copied one `NR`-column
//! sliver at a time onto the stack. SYRK's triangle goes the same way with a
//! mask on the write-back.
//!
//! ## Packing-buffer reuse
//!
//! The packed-panel buffers are thread-local scratch, taken at the start of a
//! serial-core call and returned at the end, so the cache-block loop nest —
//! and every subsequent kernel call on the same thread — reuses one pair of
//! allocations instead of reallocating per panel. That holds for the parallel
//! path too: the panels of a call run on the calling thread and on the
//! pool's helper threads, which live as long as the process, so a helper's
//! scratch is as warm on its second panel as the caller's is on its second
//! call. [`pack_buffer_growth_events`] counts how often a buffer actually had
//! to grow, which tests use to assert the steady state allocates nothing.

use crate::config::{BlockConfig, TileVariant, MAX_TILE_ACC};
use crate::leaf::{is_small, on_stack, SMALL_MAX};
use crate::microkernel::{microkernel, microkernel_strided};
use crate::pack::{pack_a, pack_a_into, pack_b, packed_a_len, packed_b_len, Operand};
use lamb_matrix::{MatrixViewMut, Uplo};
use rayon::prelude::*;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Per-thread packed-panel scratch: `(a_pack, b_pack)`. Taken (moved out)
    /// for the duration of a serial-core call rather than borrowed, so a
    /// reentrant call through an operand's accessor can never hit a `RefCell`
    /// double-borrow — it simply starts from empty buffers.
    static PACK_SCRATCH: RefCell<Option<(Vec<f64>, Vec<f64>)>> = const { RefCell::new(None) };
}

/// Global count of packed-buffer growth events (a pack call that had to
/// enlarge its scratch allocation). Monotonically increasing across all
/// threads; see [`pack_buffer_growth_events`].
static PACK_GROWTH_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Number of times any packing buffer had to grow since process start.
///
/// After a warm-up call of a given shape, further kernel calls of the same
/// (or smaller) blocking reuse the thread-local scratch and this counter
/// stays flat — the property the allocation-reuse regression test pins down.
#[must_use]
pub fn pack_buffer_growth_events() -> u64 {
    PACK_GROWTH_EVENTS.load(Ordering::Relaxed)
}

/// `C := beta * C` over a view, with the BLAS convention that `beta == 0`
/// writes zeros without reading the (possibly uninitialised) contents.
pub fn scale_inplace(beta: f64, c: &mut MatrixViewMut<'_>) {
    if beta == 1.0 {
        return;
    }
    for j in 0..c.cols() {
        let col = c.col_mut(j);
        if beta == 0.0 {
            col.fill(0.0);
        } else {
            for x in col {
                *x *= beta;
            }
        }
    }
}

/// The blocked-kernel engine: a [`BlockConfig`] plus the shared packing,
/// cache-blocking and Rayon partitioning machinery. Construction is free;
/// kernels create one per call.
#[derive(Debug, Clone, Copy)]
pub struct BlockedDriver<'a> {
    cfg: &'a BlockConfig,
}

impl<'a> BlockedDriver<'a> {
    /// A driver over the given blocking configuration.
    #[must_use]
    pub fn new(cfg: &'a BlockConfig) -> Self {
        BlockedDriver { cfg }
    }

    /// The configuration this driver blocks and parallelises with.
    #[must_use]
    pub fn cfg(&self) -> &'a BlockConfig {
        self.cfg
    }

    /// Accumulate `C += alpha * OpA * OpB` serially with cache blocking and
    /// packing. `load_a` is the logical `m x k` left operand and `load_b` the
    /// logical `k x n` right operand.
    ///
    /// Dispatches once on [`BlockConfig::tile`] into a monomorphic core, so
    /// the entire blocked loop nest below this call sees compile-time
    /// `MR`/`NR`.
    #[allow(clippy::too_many_arguments)] // BLAS-style interface
    pub fn accumulate_serial<FA, FB>(
        &self,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        load_a: &FA,
        load_b: &FB,
        c: &mut MatrixViewMut<'_>,
    ) where
        FA: Operand,
        FB: Operand,
    {
        if is_small(m, n, k, self.cfg) {
            self.accumulate_small(m, n, k, alpha, (load_a, load_b), c, None);
            return;
        }
        match self.cfg.tile {
            TileVariant::T8x4 => self.serial_core::<8, 4, _, _>(m, n, k, alpha, load_a, load_b, c),
            TileVariant::T8x8 => self.serial_core::<8, 8, _, _>(m, n, k, alpha, load_a, load_b, c),
            TileVariant::T4x8 => self.serial_core::<4, 8, _, _>(m, n, k, alpha, load_a, load_b, c),
            TileVariant::T16x4 => {
                self.serial_core::<16, 4, _, _>(m, n, k, alpha, load_a, load_b, c)
            }
            TileVariant::T8x12 => {
                self.serial_core::<8, 12, _, _>(m, n, k, alpha, load_a, load_b, c)
            }
        }
    }

    /// The small-call tier of [`BlockedDriver::accumulate_serial`], for a
    /// product under the rule ([`is_small`]): `C += alpha * OpA * OpB`
    /// straight from storage, into the `mask` triangle of `C` only when one
    /// is given (SYRK's output). Dispatches once on the tile, like the
    /// packed core.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn accumulate_small<FA, FB>(
        &self,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        (load_a, load_b): (&FA, &FB),
        c: &mut MatrixViewMut<'_>,
        mask: Option<Uplo>,
    ) where
        FA: Operand,
        FB: Operand,
    {
        let ops = (load_a, load_b);
        match self.cfg.tile {
            TileVariant::T8x4 => small_core::<8, 4, _, _>(m, n, k, alpha, ops, c, mask),
            TileVariant::T8x8 => small_core::<8, 8, _, _>(m, n, k, alpha, ops, c, mask),
            TileVariant::T4x8 => small_core::<4, 8, _, _>(m, n, k, alpha, ops, c, mask),
            TileVariant::T16x4 => small_core::<16, 4, _, _>(m, n, k, alpha, ops, c, mask),
            TileVariant::T8x12 => small_core::<8, 12, _, _>(m, n, k, alpha, ops, c, mask),
        }
    }

    /// The monomorphic serial core behind [`BlockedDriver::accumulate_serial`].
    #[allow(clippy::too_many_arguments)]
    fn serial_core<const MR: usize, const NR: usize, FA, FB>(
        &self,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        load_a: &FA,
        load_b: &FB,
        c: &mut MatrixViewMut<'_>,
    ) where
        FA: Operand,
        FB: Operand,
    {
        debug_assert_eq!(c.rows(), m);
        debug_assert_eq!(c.cols(), n);
        if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
            return;
        }
        let mc = self.cfg.mc.max(MR);
        let kc = self.cfg.kc.max(1);
        let nc = self.cfg.nc.max(NR);

        // Move the thread-local scratch out (never borrow across the packing
        // closures), use it for the whole loop nest, then return it.
        let (mut a_pack, mut b_pack) =
            PACK_SCRATCH.with(|cell| cell.borrow_mut().take().unwrap_or_default());
        let mut acc = [0.0f64; MAX_TILE_ACC];
        let acc = &mut acc[..MR * NR];

        let mut jc = 0;
        while jc < n {
            let ncb = nc.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kcb = kc.min(k - pc);
                if b_pack.capacity() < packed_b_len(NR, kcb, ncb) {
                    PACK_GROWTH_EVENTS.fetch_add(1, Ordering::Relaxed);
                }
                pack_b(NR, kcb, ncb, load_b.offset(pc, jc), &mut b_pack);
                let mut ic = 0;
                while ic < m {
                    let mcb = mc.min(m - ic);
                    if a_pack.capacity() < packed_a_len(MR, mcb, kcb) {
                        PACK_GROWTH_EVENTS.fetch_add(1, Ordering::Relaxed);
                    }
                    pack_a(MR, mcb, kcb, load_a.offset(ic, pc), &mut a_pack);
                    macro_kernel::<MR, NR>(
                        mcb,
                        ncb,
                        kcb,
                        alpha,
                        &a_pack,
                        &b_pack,
                        &mut c.subview_mut(ic, jc, mcb, ncb),
                        acc,
                    );
                    ic += mc;
                }
                pc += kc;
            }
            jc += nc;
        }

        PACK_SCRATCH.with(|cell| *cell.borrow_mut() = Some((a_pack, b_pack)));
    }

    /// Accumulate `C += alpha * OpA * OpB`, automatically distributing
    /// disjoint column panels of `C` across Rayon workers when the problem is
    /// large enough under this driver's configuration (each worker runs the
    /// serial core on its panel with a column-shifted `OpB`).
    #[allow(clippy::too_many_arguments)] // BLAS-style interface
    pub fn accumulate<FA, FB>(
        &self,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        load_a: &FA,
        load_b: &FB,
        c: &mut MatrixViewMut<'_>,
    ) where
        FA: Operand + Sync,
        FB: Operand + Sync,
    {
        if !is_small(m, n, k, self.cfg) && self.cfg.should_parallelise(m, n, k) {
            self.for_each_panel(c.subview_mut(0, 0, m, n), true, |j0, mut panel| {
                let ncols = panel.cols();
                let shifted_b = load_b.offset(0, j0);
                self.accumulate_serial(m, ncols, k, alpha, load_a, &shifted_b, &mut panel);
            });
        } else {
            self.accumulate_serial(m, n, k, alpha, load_a, load_b, c);
        }
    }

    /// Partition `c` into disjoint column panels and run `f(j0, panel)` for
    /// each, where `j0` is the panel's first column in `c`. With
    /// `parallel == true` the panels are sized for the Rayon pool — equal
    /// widths, one per thread — and run concurrently; otherwise `f` sees the
    /// whole view as one panel.
    pub fn for_each_panel<F>(&self, c: MatrixViewMut<'_>, parallel: bool, f: F)
    where
        F: Fn(usize, MatrixViewMut<'_>) + Sync,
    {
        let n = c.cols();
        if !parallel {
            if n > 0 {
                f(0, c);
            }
            return;
        }
        let width = self.cfg.parallel_panel_width(n);
        let ends: Vec<usize> = (1..=n.div_ceil(width))
            .map(|panel| (panel * width).min(n))
            .collect();
        self.for_each_panel_ending(c, &ends, f);
    }

    /// [`BlockedDriver::for_each_panel`] with the caller choosing where each
    /// panel ends: `ends` is strictly ascending and its last entry is
    /// `c.cols()`. More than one panel means the Rayon pool.
    ///
    /// This is the one place in the crate that hands output columns to
    /// workers — SYRK's equal-area panels, TRSM's independent
    /// right-hand-side columns and the parallel GEMM path all go through it.
    pub fn for_each_panel_ending<F>(&self, c: MatrixViewMut<'_>, ends: &[usize], f: F)
    where
        F: Fn(usize, MatrixViewMut<'_>) + Sync,
    {
        if let [_] = ends {
            return f(0, c);
        }
        let mut panels = Vec::with_capacity(ends.len());
        let (mut rest, mut j0) = (c, 0);
        for &end in ends {
            let (panel, tail) = rest.split_at_col_mut(end - j0);
            panels.push((j0, panel));
            (rest, j0) = (tail, end);
        }
        if panels.len() > 1 {
            panels.into_par_iter().for_each(|(j0, panel)| f(j0, panel));
        } else {
            panels.into_iter().for_each(|(j0, panel)| f(j0, panel));
        }
    }
}

/// The small-call core: `C += alpha * OpA * OpB` with no packed scratch
/// beyond the stack. `op(A)`'s full `MR`-row slivers are read where they are
/// stored when it is column-major storage, and the rest of it is packed once;
/// `op(B)` is copied one `NR`-column sliver at a time, once per panel. Every
/// tile accumulates in a monomorphic micro-kernel, as in the packed core —
/// the write-back below indexes at run time, and a tile kept in the same
/// function would not stay in registers. With `mask`, only the tiles that
/// reach into that triangle of `C` are formed, and only its elements are
/// written.
#[allow(clippy::too_many_arguments)]
fn small_core<const MR: usize, const NR: usize, FA, FB>(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    (load_a, load_b): (&FA, &FB),
    c: &mut MatrixViewMut<'_>,
    mask: Option<Uplo>,
) where
    FA: Operand,
    FB: Operand,
{
    debug_assert_eq!((c.rows(), c.cols()), (m, n));
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    let (stored, lda, in_place) = match load_a.columns() {
        Some((data, ld)) => (data, ld, m / MR * MR),
        None => (&[][..], 0, 0),
    };
    let a_len = packed_a_len(MR, m - in_place, k);
    on_stack(a_len + k * NR, &mut |buf| {
        let (a_pack, b_pack) = buf.split_at_mut(a_len);
        if load_a.t().columns().is_some() {
            // Rows of `op(A)` are stored: an `MR`-row sliver of `op(A)` is an
            // `MR`-column sliver of `op(A)ᵀ`.
            let (a_rows, _) = a_pack.as_chunks_mut::<MR>();
            for (q, panel) in a_rows.chunks_exact_mut(k).enumerate() {
                let i0 = in_place + q * MR;
                copy_sliver(&load_a.t(), i0, MR.min(m - i0), panel);
            }
        } else {
            pack_a_into(MR, m - in_place, k, load_a.offset(in_place, 0), a_pack);
        }
        let (sliver, _) = b_pack.as_chunks_mut::<NR>();
        let mut acc = [0.0f64; MAX_TILE_ACC];
        for jr in (0..n).step_by(NR) {
            let nrb = NR.min(n - jr);
            copy_sliver(load_b, jr, nrb, sliver);
            let b_sliver = sliver.as_flattened();
            for ir in (0..m).step_by(MR) {
                let mrb = MR.min(m - ir);
                let outside = match mask {
                    Some(Uplo::Lower) => ir + mrb <= jr,
                    Some(Uplo::Upper) => ir >= jr + nrb,
                    None => false,
                };
                if outside {
                    continue;
                }
                if ir < in_place {
                    microkernel_strided::<MR, NR>(k, &stored[ir..], lda, b_sliver, &mut acc);
                } else {
                    let panel = (ir - in_place) * k;
                    microkernel::<MR, NR>(k, &a_pack[panel..panel + MR * k], b_sliver, &mut acc);
                }
                let whole = mrb == MR && nrb == NR;
                let inside = match mask {
                    Some(Uplo::Lower) => ir >= jr + NR - 1,
                    Some(Uplo::Upper) => ir + MR <= jr + 1,
                    None => true,
                };
                if whole && inside {
                    add_tile::<MR, NR>(alpha, &acc, c, ir, jr);
                    continue;
                }
                for jj in 0..nrb {
                    // The tile's rows of column `j` inside the mask.
                    let j = jr + jj;
                    let rows = match mask {
                        Some(Uplo::Lower) => j.saturating_sub(ir).min(mrb)..mrb,
                        Some(Uplo::Upper) => 0..(j + 1).saturating_sub(ir).min(mrb),
                        None => 0..mrb,
                    };
                    let col = &mut c.col_mut(j)[ir..ir + mrb];
                    let tile = &acc[jj * MR..jj * MR + mrb];
                    for (x, &t) in col[rows.clone()].iter_mut().zip(&tile[rows]) {
                        *x += alpha * t;
                    }
                }
            }
        }
    });
}

/// Copy `op(B)`'s columns `j0..j0 + width` into `sliver` — row `p` holds
/// their `NR` values at depth `p`, zero past `width` — the micro-kernel's
/// packed-`B` layout (and, for `op(B) = op(A)ᵀ`, its packed-`A` layout).
/// Storage is copied a stored column or row at a time.
fn copy_sliver<const NR: usize, FB: Operand>(
    load_b: &FB,
    j0: usize,
    width: usize,
    sliver: &mut [[f64; NR]],
) {
    let k = sliver.len();
    if let Some((data, ld)) = load_b.columns() {
        const ZEROS: [f64; SMALL_MAX] = [0.0; SMALL_MAX];
        let cols: [&[f64]; NR] = std::array::from_fn(|lane| {
            if lane < width {
                &data[(j0 + lane) * ld..][..k]
            } else {
                &ZEROS[..k]
            }
        });
        for (p, row) in sliver.iter_mut().enumerate() {
            for (slot, col) in row.iter_mut().zip(&cols) {
                *slot = col[p];
            }
        }
    } else if let Some((data, ld)) = load_b.t().columns() {
        for (p, row) in sliver.iter_mut().enumerate() {
            let (live, pad) = row.split_at_mut(width);
            live.copy_from_slice(&data[p * ld + j0..][..width]);
            pad.fill(0.0);
        }
    } else {
        pack_a_into(
            NR,
            width,
            k,
            load_b.offset(0, j0).t(),
            sliver.as_flattened_mut(),
        );
    }
}

/// `C[i0.., j0..] += alpha * acc` for one whole `MR x NR` tile.
fn add_tile<const MR: usize, const NR: usize>(
    alpha: f64,
    acc: &[f64],
    c: &mut MatrixViewMut<'_>,
    i0: usize,
    j0: usize,
) {
    let ld = c.ld();
    let data = c.as_mut_slice();
    for (jj, tile) in acc[..MR * NR].chunks_exact(MR).enumerate() {
        let col: &mut [f64; MR] = (&mut data[i0 + (j0 + jj) * ld..][..MR])
            .try_into()
            .expect("MR rows");
        for (x, &t) in col.iter_mut().zip(tile) {
            *x += alpha * t;
        }
    }
}

/// Inner macro-kernel: sweep the packed block with `MR x NR` micro-tiles and
/// accumulate `alpha` times the result into the output block. Monomorphic in
/// the tile shape; partial edge tiles read only the `mrb x nrb` valid corner
/// of the accumulator.
#[allow(clippy::too_many_arguments)]
fn macro_kernel<const MR: usize, const NR: usize>(
    mcb: usize,
    ncb: usize,
    kcb: usize,
    alpha: f64,
    a_pack: &[f64],
    b_pack: &[f64],
    c_block: &mut MatrixViewMut<'_>,
    acc: &mut [f64],
) {
    let mut jr = 0;
    while jr < ncb {
        let nrb = NR.min(ncb - jr);
        let b_panel = &b_pack[(jr / NR) * kcb * NR..(jr / NR + 1) * kcb * NR];
        let mut ir = 0;
        while ir < mcb {
            let mrb = MR.min(mcb - ir);
            let a_panel = &a_pack[(ir / MR) * kcb * MR..(ir / MR + 1) * kcb * MR];
            microkernel::<MR, NR>(kcb, a_panel, b_panel, acc);
            for jj in 0..nrb {
                let col = c_block.col_mut(jr + jj);
                let acc_col = &acc[jj * MR..jj * MR + mrb];
                for (ci, &av) in col[ir..ir + mrb].iter_mut().zip(acc_col) {
                    *ci += alpha * av;
                }
            }
            ir += MR;
        }
        jr += NR;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::naive::gemm_naive;
    use crate::pack::Strided;
    use lamb_matrix::ops::max_abs_diff;
    use lamb_matrix::random::random_seeded;
    use lamb_matrix::{Matrix, Trans};

    fn reference(a: &Matrix, b: &Matrix, alpha: f64) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        gemm_naive(
            Trans::No,
            Trans::No,
            alpha,
            &a.view(),
            &b.view(),
            0.0,
            &mut c.view_mut(),
        )
        .unwrap();
        c
    }

    #[test]
    fn serial_core_matches_naive_for_awkward_sizes() {
        // Sizes chosen to produce partial tiles in every blocking dimension,
        // under every register-tile variant.
        for tile in TileVariant::ALL {
            for &(m, n, k) in &[
                (1, 1, 1),
                (3, 5, 7),
                (17, 13, 9),
                (33, 29, 31),
                (40, 24, 56),
            ] {
                let a = random_seeded(m, k, 1000 + m as u64);
                let b = random_seeded(k, n, 2000 + n as u64);
                let mut c = Matrix::zeros(m, n);
                let cfg = BlockConfig {
                    tile,
                    ..BlockConfig::tiny()
                };
                let a_s = a.as_slice();
                let b_s = b.as_slice();
                BlockedDriver::new(&cfg).accumulate_serial(
                    m,
                    n,
                    k,
                    1.0,
                    &|i, p| a_s[i + p * m],
                    &|p, j| b_s[p + j * k],
                    &mut c.view_mut(),
                );
                let expected = reference(&a, &b, 1.0);
                assert!(
                    max_abs_diff(&c, &expected).unwrap() < 1e-12,
                    "{tile} size {m}x{n}x{k}"
                );
                // The same product from strided windows — A as stored, B
                // through its stored transpose — whole and split into panels.
                let bt = b.transposed();
                let op_a = Strided::new(&a.view(), Trans::No);
                let op_b = Strided::new(&bt.view(), Trans::Yes);
                let forced = BlockConfig {
                    parallel: true,
                    parallel_flop_threshold: 1,
                    ..cfg.clone()
                };
                for cfg in [&cfg, &forced] {
                    let mut c = Matrix::zeros(m, n);
                    BlockedDriver::new(cfg).accumulate(
                        m,
                        n,
                        k,
                        1.0,
                        &op_a,
                        &op_b,
                        &mut c.view_mut(),
                    );
                    assert!(
                        max_abs_diff(&c, &expected).unwrap() < 1e-12,
                        "{tile} size {m}x{n}x{k} strided, parallel {}",
                        cfg.parallel
                    );
                }
            }
        }
    }

    #[test]
    fn small_tier_matches_naive_for_every_kind_of_operand() {
        // Column-major `op(A)` read in place (with an edge sliver), a
        // transposed one copied by rows, and an accessor packed element by
        // element; SYRK's triangle mask keeps the other triangle untouched.
        for tile in TileVariant::ALL {
            let cfg = BlockConfig::serial().with_tile(tile);
            let driver = BlockedDriver::new(&cfg);
            let (mr, nr) = (tile.mr(), tile.nr());
            for (m, n, k) in [(mr + 3, nr + 1, 5), (2 * mr, nr - 1, 1), (47, 45, 48)] {
                let a = random_seeded(m, k, 3);
                let at = a.transposed();
                let b = random_seeded(k, n, 4);
                let op_b = Strided::new(&b.view(), Trans::No);
                let a_s = a.as_slice();
                let expected = reference(&a, &b, 1.0);
                let stored = Strided::new(&a.view(), Trans::No);
                let by_rows = Strided::new(&at.view(), Trans::Yes);
                let accessor = |i: usize, p: usize| a_s[i + p * m];
                for kind in ["stored", "by rows", "accessor"] {
                    let mut c = Matrix::zeros(m, n);
                    let cv = &mut c.view_mut();
                    match kind {
                        "stored" => {
                            driver.accumulate_small(m, n, k, 1.0, (&stored, &op_b), cv, None)
                        }
                        "by rows" => {
                            driver.accumulate_small(m, n, k, 1.0, (&by_rows, &op_b), cv, None)
                        }
                        _ => driver.accumulate_small(m, n, k, 1.0, (&accessor, &op_b), cv, None),
                    }
                    let diff = max_abs_diff(&c, &expected).unwrap();
                    assert!(diff < 1e-12, "{tile} {m}x{n}x{k} {kind}: {diff}");
                }
            }
            // The masked form writes the selected triangle only.
            let n = 2 * nr + 3;
            let a = random_seeded(n, 7, 5);
            let op_a = Strided::new(&a.view(), Trans::No);
            let full = {
                let mut f = Matrix::zeros(n, n);
                gemm_naive(
                    Trans::No,
                    Trans::Yes,
                    1.0,
                    &a.view(),
                    &a.view(),
                    0.0,
                    &mut f.view_mut(),
                )
                .unwrap();
                f
            };
            for uplo in [Uplo::Lower, Uplo::Upper] {
                let mut c = Matrix::filled(n, n, f64::NAN);
                for j in 0..n {
                    for i in 0..n {
                        if uplo.contains(i, j) {
                            c[(i, j)] = 0.0;
                        }
                    }
                }
                driver.accumulate_small(
                    n,
                    n,
                    7,
                    1.0,
                    (&op_a, &op_a.t()),
                    &mut c.view_mut(),
                    Some(uplo),
                );
                for j in 0..n {
                    for i in 0..n {
                        if uplo.contains(i, j) {
                            assert!((c[(i, j)] - full[(i, j)]).abs() < 1e-12, "{tile} {uplo:?}");
                        } else {
                            assert!(c[(i, j)].is_nan(), "{tile} {uplo:?} wrote ({i}, {j})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn accumulation_adds_to_existing_contents() {
        let m = 6;
        let n = 6;
        let k = 6;
        let a = random_seeded(m, k, 7);
        let b = random_seeded(k, n, 8);
        let mut c = Matrix::filled(m, n, 2.0);
        let a_s = a.as_slice();
        let b_s = b.as_slice();
        let cfg = BlockConfig::tiny();
        BlockedDriver::new(&cfg).accumulate_serial(
            m,
            n,
            k,
            0.5,
            &|i, p| a_s[i + p * m],
            &|p, j| b_s[p + j * k],
            &mut c.view_mut(),
        );
        let mut expected = Matrix::filled(m, n, 2.0);
        gemm_naive(
            Trans::No,
            Trans::No,
            0.5,
            &a.view(),
            &b.view(),
            1.0,
            &mut expected.view_mut(),
        )
        .unwrap();
        assert!(max_abs_diff(&c, &expected).unwrap() < 1e-12);
    }

    #[test]
    fn alpha_zero_is_a_no_op() {
        let mut c = Matrix::filled(4, 4, 3.0);
        let cfg = BlockConfig::tiny();
        BlockedDriver::new(&cfg).accumulate_serial(
            4,
            4,
            4,
            0.0,
            &|_, _| f64::NAN,
            &|_, _| f64::NAN,
            &mut c.view_mut(),
        );
        assert!(c.as_slice().iter().all(|&x| x == 3.0));
    }

    #[test]
    fn auto_accumulate_parallel_matches_serial() {
        let (m, n, k) = (70, 90, 40);
        let a = random_seeded(m, k, 21);
        let b = random_seeded(k, n, 22);
        let a_s = a.as_slice();
        let b_s = b.as_slice();
        let serial_cfg = BlockConfig::serial();
        let parallel_cfg = BlockConfig {
            parallel_flop_threshold: 1,
            ..BlockConfig::default()
        };
        let mut c_serial = Matrix::zeros(m, n);
        let mut c_parallel = Matrix::zeros(m, n);
        BlockedDriver::new(&serial_cfg).accumulate(
            m,
            n,
            k,
            1.0,
            &|i, p| a_s[i + p * m],
            &|p, j| b_s[p + j * k],
            &mut c_serial.view_mut(),
        );
        BlockedDriver::new(&parallel_cfg).accumulate(
            m,
            n,
            k,
            1.0,
            &|i, p| a_s[i + p * m],
            &|p, j| b_s[p + j * k],
            &mut c_parallel.view_mut(),
        );
        assert!(max_abs_diff(&c_serial, &c_parallel).unwrap() < 1e-12);
    }

    /// Whether some repeat of `run` sees no packing buffer grow anywhere in
    /// the process, each repeat returning what `first` did.
    ///
    /// The counter is process-wide, and the first kernel call of every other
    /// test thread (and of every pool helper) grows a fresh scratch: a single
    /// observation can count their events. A repeat call that did grow would
    /// show in every window, so one quiet window proves the property.
    fn some_repeat_grows_nothing(first: &Matrix, run: impl Fn() -> Matrix) -> bool {
        (0..400).any(|_| {
            let before = pack_buffer_growth_events();
            let again = run();
            let after = pack_buffer_growth_events();
            assert!(max_abs_diff(first, &again).unwrap() == 0.0);
            after == before || {
                std::thread::sleep(std::time::Duration::from_millis(25));
                false
            }
        })
    }

    #[test]
    fn pack_scratch_is_reused_after_warmup() {
        // Two identical calls: the first may grow the thread-local scratch,
        // the second must not allocate at all. (Above the small-call rule,
        // which packs nothing.)
        let (m, n, k) = (64, 64, 64);
        let a = random_seeded(m, k, 31);
        let b = random_seeded(k, n, 32);
        let a_s = a.as_slice();
        let b_s = b.as_slice();
        let cfg = BlockConfig::serial();
        let driver = BlockedDriver::new(&cfg);
        let run = || {
            let mut c = Matrix::zeros(m, n);
            driver.accumulate_serial(
                m,
                n,
                k,
                1.0,
                &|i, p| a_s[i + p * m],
                &|p, j| b_s[p + j * k],
                &mut c.view_mut(),
            );
            c
        };
        let first = run();
        assert!(
            some_repeat_grows_nothing(&first, run),
            "warm repeat call must not grow packing buffers"
        );
    }

    #[test]
    fn pack_scratch_is_reused_by_the_parallel_path_too() {
        // The same property with every call forced through the pool: the
        // panels land on the caller and on helper threads that outlive the
        // call, so once each of them has packed a panel of this shape a
        // repeat grows nothing. With workers spawned per call, every call's
        // workers would start from empty scratch and no window could be
        // quiet.
        let (m, n, k) = (64, 96, 64);
        let a = random_seeded(m, k, 33);
        let b = random_seeded(k, n, 34);
        let a_s = a.as_slice();
        let b_s = b.as_slice();
        let cfg = BlockConfig {
            parallel_flop_threshold: 1,
            ..BlockConfig::default()
        };
        let driver = BlockedDriver::new(&cfg);
        let run = || {
            let mut c = Matrix::zeros(m, n);
            driver.accumulate(
                m,
                n,
                k,
                1.0,
                &|i, p| a_s[i + p * m],
                &|p, j| b_s[p + j * k],
                &mut c.view_mut(),
            );
            c
        };
        let first = run();
        assert!(
            some_repeat_grows_nothing(&first, run),
            "warm parallel repeat call must not grow packing buffers"
        );
    }

    #[test]
    fn for_each_panel_covers_every_column_exactly_once() {
        let cfg = BlockConfig::default();
        let driver = BlockedDriver::new(&cfg);
        for parallel in [false, true] {
            let mut c = Matrix::zeros(5, 37);
            driver.for_each_panel(c.view_mut(), parallel, |j0, mut panel| {
                for j in 0..panel.cols() {
                    for x in panel.col_mut(j) {
                        *x += (j0 + j) as f64 + 1.0;
                    }
                }
            });
            for j in 0..37 {
                assert!(c.col(j).iter().all(|&x| x == j as f64 + 1.0), "col {j}");
            }
        }
    }

    #[test]
    fn scale_inplace_handles_beta_zero_with_nan() {
        let mut c = Matrix::filled(3, 3, f64::NAN);
        scale_inplace(0.0, &mut c.view_mut());
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn scale_inplace_multiplies() {
        let mut c = Matrix::filled(3, 2, 2.0);
        scale_inplace(-1.5, &mut c.view_mut());
        assert!(c.as_slice().iter().all(|&x| x == -3.0));
        scale_inplace(1.0, &mut c.view_mut());
        assert!(c.as_slice().iter().all(|&x| x == -3.0));
    }
}
