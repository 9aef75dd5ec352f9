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
//! Structure: the BLIS-style fused solve, blocked like GEMM's loop nest.
//! Both sides are one problem, `C·Y = Y` over the *coupled* index (the rows
//! of `X` on the left, its columns on the right; `C` is `op(L)` or its
//! transpose, `Y` is `X` or `Xᵀ`). The unknowns are taken in blocks of
//! [`BlockConfig::kc`] (whole `MR`-row panels), in solve order. A block's own
//! panels are packed once, each as its diagonal block (with the reciprocal
//! pivots, which the substitution multiplies by, when every reciprocal is a
//! normal number; with the pivots, which it divides by, otherwise) followed
//! by the coefficients of the block's unknowns solved before it — the
//! micro-kernel's packed-`A` layout. Then, `NR`-column sliver by sliver,
//! each own panel's tile gets its update from one [`microkernel`] call, is
//! substituted against the diagonal block in registers, and is written both
//! to `X` and to the sliver's packed rows of the block. Last, the later
//! panels are folded [`BlockConfig::mc`] rows at a time: their coefficients
//! of the block are packed, and every sliver's tiles subtract the block with
//! one more micro-kernel call each. So every FLOP outside a diagonal block
//! runs in the micro-kernel at a depth of at most `kc`, and the scratch is
//! one block's own panels, one `mc x kc` block and one block of solved rows.
//! On the left the right-hand-side columns are independent and are
//! distributed as column panels that share each block's packed own panels
//! (the later panels each pack for themselves, as the engine's panels pack
//! their `A`); on the right the rows are independent and the solve runs
//! serially.
//!
//! A solve under the small-call rule packs nothing: it substitutes against
//! `C` where it is stored, `NR` right-hand sides at a time.

use crate::config::{with_tile, BlockConfig, MAX_TILE_ACC};
use crate::driver::BlockedDriver;
use crate::leaf::{is_small, SMALL_MAX};
use crate::microkernel::{fmadd, microkernel};
use crate::pack::{Operand, Strided};
use crate::trmm::check_triangular_shapes;
use lamb_matrix::{MatrixError, MatrixView, MatrixViewMut, Result, Side, Trans, Uplo};
use std::ops::Range;

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
    check_diagonal(l)?;
    if x.rows() == 0 || x.cols() == 0 {
        return Ok(());
    }
    // The coupled unknowns run forward when `C` is lower triangular: on the
    // left `C = op(L)`, on the right `C = op(L)ᵀ`.
    let op_l = Strided::new(l, trans);
    let (c, forward) = match side {
        Side::Left => (op_l, uplo.under(trans) == Uplo::Lower),
        Side::Right => (op_l.t(), uplo.under(trans) == Uplo::Upper),
    };
    let (order, others) = match side {
        Side::Left => (x.rows(), x.cols()),
        Side::Right => (x.cols(), x.rows()),
    };
    if is_small(order, others, order, cfg) {
        substitute(c, forward, side, order, x, cfg.tile.nr());
        return Ok(());
    }
    with_tile!(cfg.tile, MR, NR => {
        Triangle::<MR>::new(c, forward, side, x, cfg.mc).solve::<NR>(x, cfg);
    });
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

/// [`trsm_in_place`] under the small-call rule: substitution against `C`
/// where it is stored, nothing packed. The independent right-hand sides are
/// taken `NR` at a time — columns of `X` on the left, rows on the right — and
/// copied into one row of `NR` values per unknown; the unknowns are solved a
/// few at a time and subtracted from each later row in one pass. Pivots
/// are multiplied by as reciprocals when every reciprocal is a normal number,
/// and divided by otherwise, as in the packed solve.
fn substitute(
    c: Strided<'_>,
    forward: bool,
    side: Side,
    order: usize,
    x: &mut MatrixViewMut<'_>,
    nr: usize,
) {
    let invert = (0..order).all(|i| (1.0 / c.at(i, i)).is_normal());
    let mut pivots = [0.0; SMALL_MAX];
    for (i, d) in pivots[..order].iter_mut().enumerate() {
        let pivot = c.at(i, i);
        *d = if invert { 1.0 / pivot } else { pivot };
    }
    let sub = Substitution {
        c,
        forward,
        pivots: &pivots[..order],
        invert,
    };
    match nr {
        4 => sub.solve_all::<4>(side, x),
        8 => sub.solve_all::<8>(side, x),
        _ => sub.solve_all::<12>(side, x),
    }
}

/// One small solve `C·Y = Y`: the coefficients, the direction and the
/// pivots (or their reciprocals).
struct Substitution<'c> {
    c: Strided<'c>,
    forward: bool,
    pivots: &'c [f64],
    invert: bool,
}

impl Substitution<'_> {
    /// Solve every right-hand side of `X`, `NR` at a time: on the left the
    /// unknowns of one are a column of `X`, on the right a row.
    fn solve_all<const NR: usize>(&self, side: Side, x: &mut MatrixViewMut<'_>) {
        let order = self.pivots.len();
        let others = match side {
            Side::Left => x.cols(),
            Side::Right => x.rows(),
        };
        let mut rows = [[0.0f64; NR]; SMALL_MAX];
        let rows = &mut rows[..order];
        for r0 in (0..others).step_by(NR) {
            let width = NR.min(others - r0);
            match side {
                Side::Left => {
                    for lane in 0..NR {
                        if lane < width {
                            let col = x.col_mut(r0 + lane);
                            for (row, &v) in rows.iter_mut().zip(col.iter()) {
                                row[lane] = v;
                            }
                        } else {
                            rows.iter_mut().for_each(|row| row[lane] = 0.0);
                        }
                    }
                }
                Side::Right => {
                    for (p, row) in rows.iter_mut().enumerate() {
                        let (live, pad) = row.split_at_mut(width);
                        live.copy_from_slice(&x.col_mut(p)[r0..r0 + width]);
                        pad.fill(0.0);
                    }
                }
            }
            self.solve_rows(rows);
            match side {
                Side::Left => {
                    for lane in 0..width {
                        let col = x.col_mut(r0 + lane);
                        col.iter_mut()
                            .zip(rows.iter())
                            .for_each(|(v, row)| *v = row[lane]);
                    }
                }
                Side::Right => {
                    for (p, row) in rows.iter().enumerate() {
                        x.col_mut(p)[r0..r0 + width].copy_from_slice(&row[..width]);
                    }
                }
            }
        }
    }

    /// `C·Y = Y` on `NR` right-hand sides, row `u` of `rows` holding
    /// unknown `u` of each. The unknowns are taken [`GROUP`] at a time in
    /// solve order: the group is solved against its own diagonal block, then
    /// folded into every later row in one pass, so each later row is read
    /// and written once per group rather than once per unknown.
    fn solve_rows<const NR: usize>(&self, rows: &mut [[f64; NR]]) {
        let order = rows.len();
        let (c, forward) = (self.c, self.forward);
        let coef = |i: usize, p: usize| c.data[i * c.rs + p * c.cs];
        for s0 in (0..order).step_by(GROUP) {
            let width = GROUP.min(order - s0);
            let unknown = |q: usize| {
                let s = s0 + q.min(width - 1);
                if forward {
                    s
                } else {
                    order - 1 - s
                }
            };
            let mut solved = [[0.0; NR]; GROUP];
            for q in 0..width {
                let p = unknown(q);
                let mut y = rows[p];
                for (r, earlier) in solved.iter().enumerate().take(q) {
                    let cr = coef(p, unknown(r));
                    for (v, &e) in y.iter_mut().zip(earlier) {
                        *v = fmadd(*v, -cr, e);
                    }
                }
                solved[q] = y.map(|v| {
                    if self.invert {
                        v * self.pivots[p]
                    } else {
                        v / self.pivots[p]
                    }
                });
                rows[p] = solved[q];
            }
            let last = unknown(width - 1);
            let later = if forward { last + 1..order } else { 0..last };
            for i in later {
                // Zero past the group's width: those slots of `solved` are zero.
                let cs: [f64; GROUP] =
                    std::array::from_fn(|q| if q < width { coef(i, unknown(q)) } else { 0.0 });
                for (l, y) in rows[i].iter_mut().enumerate() {
                    let mut v = *y;
                    for (q, &cq) in cs.iter().enumerate() {
                        v = fmadd(v, -cq, solved[q][l]);
                    }
                    *y = v;
                }
            }
        }
    }
}

/// Unknowns a small solve takes at a time: each later row of the right-hand
/// sides is updated by all of them in one pass.
const GROUP: usize = 4;

/// The coefficient triangle `C` of one solve, walked in `MR`-row panels:
/// panel `q` holds the coupled unknowns `q·MR..(q + 1)·MR`, the last one
/// cut short by the order.
struct Triangle<'c, const MR: usize> {
    c: Strided<'c>,
    order: usize,
    forward: bool,
    side: Side,
    /// Rows of later panels folded per sweep of the slivers.
    mc: usize,
    /// Whether the pivots are packed as their reciprocals, which the
    /// substitution multiplies by: only when every reciprocal is a normal
    /// number, so a pivot too small or too large for that is divided by.
    invert: bool,
}

/// One block of unknowns: its panels and the panels solved after it, both
/// in solve order, and the unknowns it covers.
struct Block<'p> {
    own: &'p [usize],
    later: &'p [usize],
    unknowns: Range<usize>,
}

impl<'c, const MR: usize> Triangle<'c, MR> {
    fn new(c: Strided<'c>, forward: bool, side: Side, x: &MatrixViewMut<'_>, mc: usize) -> Self {
        let order = match side {
            Side::Left => x.rows(),
            Side::Right => x.cols(),
        };
        let invert = (0..order).all(|i| (1.0 / c.at(i, i)).is_normal());
        Triangle {
            c,
            order,
            forward,
            side,
            mc,
            invert,
        }
    }

    /// The valid rows of panel `q`.
    fn rows(&self, q: usize) -> usize {
        MR.min(self.order - q * MR)
    }

    /// The unknowns of `block` solved before panel `q` of it.
    fn before(&self, q: usize, block: &Range<usize>) -> Range<usize> {
        if self.forward {
            block.start..q * MR
        } else {
            ((q + 1) * MR).min(self.order)..block.end
        }
    }

    /// Solve for every column of `Y`, block by block.
    fn solve<const NR: usize>(&self, x: &mut MatrixViewMut<'_>, cfg: &BlockConfig) {
        let count = self.order.div_ceil(MR);
        let panels: Vec<usize> = if self.forward {
            (0..count).collect()
        } else {
            (0..count).rev().collect()
        };
        let (m, n) = (x.rows(), x.cols());
        let parallel = self.side == Side::Left && cfg.should_parallelise(m, n, m);
        let per_block = (cfg.kc / MR).max(1);
        let mut packed = Vec::new();
        for (b, own) in panels.chunks(per_block).enumerate() {
            let (first, last) = (own[0], own[own.len() - 1]);
            let (low, high) = if self.forward {
                (first, last)
            } else {
                (last, first)
            };
            let block = Block {
                own,
                later: &panels[b * per_block + own.len()..],
                unknowns: low * MR..((high + 1) * MR).min(self.order),
            };
            self.pack(&block, &mut packed);
            match self.side {
                Side::Left => {
                    let whole = x.subview_mut(0, 0, m, n);
                    BlockedDriver::new(cfg).for_each_panel(whole, parallel, |_, mut panel| {
                        let (cols, ld) = (panel.cols(), panel.ld());
                        let y = panel.as_mut_slice();
                        self.solve_block::<NR>(&block, &packed, y, (1, ld), cols);
                    });
                }
                // Y = Xᵀ: the coupled index walks the columns of X.
                Side::Right => {
                    let ld = x.ld();
                    self.solve_block::<NR>(&block, &packed, x.as_mut_slice(), (ld, 1), m);
                }
            }
        }
    }

    /// Pack `block`'s own panels into `buf`, each as its `MR x MR` diagonal
    /// block — the pivots (or their reciprocals), the coefficients of the
    /// panel's earlier unknowns on one side of them, zeros on the other, the
    /// identity past the order — followed by one `MR`-tall column per unknown
    /// of the block solved before it, in ascending unknown order.
    fn pack(&self, block: &Block<'_>, buf: &mut Vec<f64>) {
        let unknowns = &block.unknowns;
        let own: usize = (block.own.iter())
            .map(|&q| (MR + self.before(q, unknowns).len()) * MR)
            .sum();
        // Every slot is overwritten: only growth needs initialising.
        buf.resize(own, 0.0);
        let mut rest = &mut buf[..own];
        for &q in block.own {
            let before = self.before(q, unknowns);
            let (panel, tail) = std::mem::take(&mut rest).split_at_mut((MR + before.len()) * MR);
            rest = tail;
            let (diag, update) = panel.split_at_mut(MR * MR);
            let (i0, rows) = (q * MR, self.rows(q));
            for (p, col) in diag.chunks_exact_mut(MR).enumerate() {
                for (r, slot) in col.iter_mut().enumerate() {
                    let earlier = if self.forward { p < r } else { p > r };
                    *slot = if r >= rows || p >= rows {
                        f64::from(u8::from(r == p))
                    } else if r == p && self.invert {
                        1.0 / self.c.at(i0 + r, i0 + p)
                    } else if r == p || earlier {
                        self.c.at(i0 + r, i0 + p)
                    } else {
                        0.0
                    };
                }
            }
            self.pack_columns(q, before, update);
        }
    }

    /// The coefficients of the unknowns `cols` in the rows of panel `q`, as
    /// `MR`-tall columns (zero past the order).
    fn pack_columns(&self, q: usize, cols: Range<usize>, out: &mut [f64]) {
        let (c, i0, rows) = (self.c, q * MR, self.rows(q));
        if c.cs == 1 {
            // Rows of `C` are contiguous: read them whole, spread them over
            // the columns.
            for r in 0..MR {
                let row = (r < rows).then(|| &c.offset(i0 + r, cols.start).data[..cols.len()]);
                for (s, col) in out.chunks_exact_mut(MR).enumerate() {
                    col[r] = row.map_or(0.0, |row| row[s]);
                }
            }
        } else {
            for (v, col) in cols.zip(out.chunks_exact_mut(MR)) {
                let src = &c.data[i0 * c.rs + v * c.cs..];
                if c.rs == 1 && rows == MR {
                    col.copy_from_slice(&src[..MR]);
                } else {
                    for (r, slot) in col.iter_mut().enumerate() {
                        *slot = if r < rows { src[r * c.rs] } else { 0.0 };
                    }
                }
            }
        }
    }

    /// Solve `block`'s unknowns in `cols` independent columns of `Y` and fold
    /// them into the later unknowns, where `Y(u, j)` is
    /// `y[u·strides.0 + j·strides.1]`.
    fn solve_block<const NR: usize>(
        &self,
        block: &Block<'_>,
        packed: &[f64],
        y: &mut [f64],
        strides: (usize, usize),
        cols: usize,
    ) {
        // The block's solved unknowns, `NR` values per unknown per sliver:
        // the packed right operand of every update from the block.
        let per_sliver = block.unknowns.len().div_ceil(MR) * MR * NR;
        let mut solved = vec![0.0; cols.div_ceil(NR) * per_sliver];
        self.solve_own::<NR>(block, packed, y, strides, &mut solved, cols);
        self.fold_later::<NR>(block, y, strides, &solved, cols);
    }

    /// Solve the tiles of `block`'s own panels, packed in `packed`, into `y`
    /// and into the slivers of `solved`.
    ///
    /// Panel by panel, and within a panel sliver by sliver: consecutive tiles
    /// are independent, so one tile's substitution overlaps the next one's
    /// update, and the packed panel is read from L1 by every sliver.
    fn solve_own<const NR: usize>(
        &self,
        block: &Block<'_>,
        packed: &[f64],
        y: &mut [f64],
        (rs, cs): (usize, usize),
        solved: &mut [f64],
        cols: usize,
    ) {
        let unknowns = &block.unknowns;
        let per_sliver = solved.len() / cols.div_ceil(NR);
        let mut acc = [0.0; MAX_TILE_ACC];
        let mut panel = packed;
        for &q in block.own {
            let (i0, rows, before) = (q * MR, self.rows(q), self.before(q, unknowns));
            let (diag, rest) = panel.split_at(MR * MR);
            let (update, rest) = rest.split_at(before.len() * MR);
            panel = rest;
            let (b0, b1) = (before.start - unknowns.start, before.end - unknowns.start);
            for (j, sliver) in solved.chunks_exact_mut(per_sliver).enumerate() {
                let (j0, width) = (j * NR, NR.min(cols - j * NR));
                // The tile's update from the block's unknowns solved before it.
                microkernel::<MR, NR>(before.len(), update, &sliver[b0 * NR..b1 * NR], &mut acc);
                let mut z = [[0.0; NR]; MR];
                for (c, upd) in acc.chunks_exact(MR).enumerate().take(width) {
                    let at = i0 * rs + (j0 + c) * cs;
                    for (r, (zr, u)) in z.iter_mut().zip(upd).enumerate().take(rows) {
                        zr[c] = y[at + r * rs] - u;
                    }
                }
                // Substitute against the diagonal block, in solve order.
                for s in 0..MR {
                    let p = if self.forward { s } else { MR - 1 - s };
                    let d = &diag[p * MR..(p + 1) * MR];
                    let zp = if self.invert {
                        z[p].map(|v| v * d[p])
                    } else {
                        z[p].map(|v| v / d[p])
                    };
                    z[p] = zp;
                    let later = if self.forward { p + 1..MR } else { 0..p };
                    for r in later {
                        for c in 0..NR {
                            z[r][c] = fmadd(z[r][c], -d[r], zp[c]);
                        }
                    }
                }
                for c in 0..width {
                    let at = i0 * rs + (j0 + c) * cs;
                    for (r, zr) in z.iter().enumerate().take(rows) {
                        y[at + r * rs] = zr[c];
                    }
                }
                let start = (i0 - unknowns.start) * NR;
                let rows_out = sliver[start..start + MR * NR].chunks_exact_mut(NR);
                for (dst, zr) in rows_out.zip(&z) {
                    dst.copy_from_slice(zr);
                }
            }
        }
    }

    /// Subtract the solved block in `solved` from the tiles of every later
    /// panel, `mc` rows of panels at a time: their coefficients of the block
    /// are packed into an `mc x kc` block that, like the engine's packed `A`,
    /// stays in L2 while every sliver meets it.
    fn fold_later<const NR: usize>(
        &self,
        block: &Block<'_>,
        y: &mut [f64],
        (rs, cs): (usize, usize),
        solved: &[f64],
        cols: usize,
    ) {
        let (unknowns, depth) = (&block.unknowns, block.unknowns.len());
        let per_sliver = solved.len() / cols.div_ceil(NR);
        let mut acc = [0.0; MAX_TILE_ACC];
        let mut packed = Vec::new();
        for qs in block.later.chunks((self.mc / MR).max(1)) {
            // Every slot is overwritten: only growth needs initialising.
            packed.resize(qs.len() * depth * MR, 0.0);
            for (&q, a) in qs.iter().zip(packed.chunks_exact_mut(depth * MR)) {
                self.pack_columns(q, unknowns.clone(), a);
            }
            for (j, sliver) in solved.chunks_exact(per_sliver).enumerate() {
                let (j0, width) = (j * NR, NR.min(cols - j * NR));
                for (&q, a) in qs.iter().zip(packed.chunks_exact(depth * MR)) {
                    let (i0, rows) = (q * MR, self.rows(q));
                    microkernel::<MR, NR>(depth, a, sliver, &mut acc);
                    for (c, upd) in acc.chunks_exact(MR).enumerate().take(width) {
                        let at = i0 * rs + (j0 + c) * cs;
                        for (r, u) in upd.iter().enumerate().take(rows) {
                            y[at + r * rs] -= u;
                        }
                    }
                }
            }
        }
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
    use crate::config::TileVariant;
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
            let (mr, nr) = (cfg.tile.mr(), cfg.tile.nr());
            // Around a row panel of the packed triangle too.
            for order in orders.into_iter().chain([mr - 1, mr + 1]) {
                for uplo in [Uplo::Lower, Uplo::Upper] {
                    for trans in [Trans::No, Trans::Yes] {
                        // One column, a sliver either side of full, and
                        // two slivers with a remainder: the thin in-place
                        // path, the packed path and its panel split.
                        for width in [1, nr - 1, nr, nr + 1, 2 * nr + 1] {
                            check(Side::Left, uplo, trans, order, width, 1.0, &cfg);
                            check(Side::Right, uplo, trans, width, order, -0.5, &cfg);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_variant_matches_naive_across_kc_blocks() {
        // Blocks of one panel, of two panels with `kc` not a multiple of
        // `MR`, and of three; orders on either side of a block boundary and
        // over several blocks with a partial panel, which the backward solve
        // takes first. The later panels are folded as many at a time as a
        // block holds.
        for tile in TileVariant::ALL {
            let (mr, nr) = (tile.mr(), tile.nr());
            for (kc, parallel) in [(mr, false), (2 * mr + 1, true), (3 * mr, false)] {
                let cfg = BlockConfig {
                    kc,
                    mc: kc,
                    tile,
                    parallel,
                    parallel_flop_threshold: 1,
                    ..BlockConfig::default()
                };
                let block = (kc / mr) * mr;
                for order in [block - 1, block + 1, 2 * block, 3 * block + mr / 2 + 1] {
                    for uplo in [Uplo::Lower, Uplo::Upper] {
                        for trans in [Trans::No, Trans::Yes] {
                            for width in [1, nr + 1, 2 * nr + 1] {
                                check(Side::Left, uplo, trans, order, width, 1.0, &cfg);
                                check(Side::Right, uplo, trans, width, order, -0.5, &cfg);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pivots_whose_reciprocal_is_not_normal_are_divided_by() {
        // A pivot below 1/f64::MAX has an infinite reciprocal, one above
        // 1/f64::MIN_POSITIVE a subnormal one; x = b / d is finite and
        // correctly rounded either way. A diagonal triangle makes every
        // entry of X one division.
        let cfg = BlockConfig::serial();
        let order = 11;
        for (pivot, scale) in [(1e-310, 1e-300), (1e308, 1.0)] {
            for side in [Side::Left, Side::Right] {
                for uplo in [Uplo::Lower, Uplo::Upper] {
                    let mut l = random_triangular(order, uplo, 41);
                    for i in 0..order {
                        for j in (0..order).filter(|&j| j != i) {
                            l[(i, j)] = 0.0;
                        }
                    }
                    l[(4, 4)] = pivot;
                    let (m, n) = match side {
                        Side::Left => (order, 3),
                        Side::Right => (3, order),
                    };
                    let b = Matrix::from_fn(m, n, |i, j| scale * (1 + i + j) as f64);
                    let mut x = Matrix::zeros(m, n);
                    let (lv, bv) = (l.view(), b.view());
                    trsm(
                        side,
                        uplo,
                        Trans::No,
                        1.0,
                        &lv,
                        &bv,
                        &mut x.view_mut(),
                        &cfg,
                    )
                    .unwrap();
                    for i in 0..m {
                        for j in 0..n {
                            let d = match side {
                                Side::Left => l[(i, i)],
                                Side::Right => l[(j, j)],
                            };
                            let at = format!("{pivot:e} {side:?} {uplo:?} ({i}, {j})");
                            assert_eq!(x[(i, j)], b[(i, j)] / d, "{at}");
                        }
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
