//! Householder QR factorisation: `A = Q·R` for a general `m x n` matrix with
//! `m >= n`, in place, LAPACK `dgeqrf`-style.
//!
//! The factor overwrites `A`: the upper triangle including the diagonal holds
//! `R`, and each column's strictly-sub-diagonal part holds the essential part
//! of a Householder vector `v_j` (its leading 1 is implicit). Together with
//! the scalar coefficients `tau`, reflector `j` is `H_j = I - tau_j·v_j·v_jᵀ`
//! and `Q = H_0·H_1⋯H_{n-1}`.
//!
//! Structure: the classic **blocked compact-WY algorithm**. The matrix is
//! walked in column panels of [`BlockConfig::tri_block`] columns; each step
//!
//! 1. factors the panel with the unblocked Householder recurrence, one dot
//!    product and one axpy on column slices per reflector and column (an
//!    exactly-zero column yields `tau = 0`, i.e. the identity reflector —
//!    rank deficiency surfaces later as a zero on `R`'s diagonal, not here),
//!    and
//! 2. applies `Qₚᵀ = I - V·Tᵀ·Vᵀ` to the trailing columns through the one
//!    block-reflector routine: `[VᵀV W] := Vᵀ·[V C]` in one product, the
//!    triangular factor `T` from `VᵀV` (LAPACK `larft`, forward columnwise),
//!    then `W := TᵀW` and `C -= V·W` on the packed engine.
//!
//! The reflectors are read as storage — a materialised unit-lower top block
//! and a strided window of the factor below it — so every product packs at
//! copy rates, and `Vᵀ` is packed once per panel for both `VᵀV` and `VᵀC`.
//! Step 2 carries the `2mn² - 2n³/3` bulk of the work (see
//! [`crate::flops::qr_flops`]) on the packed, cache-blocked, Rayon-capable
//! engine. Under the small-call rule the whole matrix is one panel, factored
//! in place, its `tau` written straight into the packed operand.
//!
//! [`qr_packed`] produces the single-operand packed form the kernel-call IR
//! uses: an `m x (n+1)` matrix with the factors in columns `0..n` and the
//! `tau` coefficients in the first `n` rows of column `n`. [`ormqr`] applies
//! `Qᵀ` from such a packed factor, panel by panel through the same
//! block-reflector routine — or, under the rule, reflector by reflector
//! without `T` — and the least-squares pipeline is `x = R⁻¹·(Qᵀb)` via one
//! ORMQR and one TRSM.

use crate::config::{BlockConfig, TileVariant, MAX_TILE_ACC};
use crate::driver::BlockedDriver;
use crate::leaf::{axpy, column_and_later, dot, is_small, SMALL_MAX};
use crate::microkernel::{fmadd, microkernel};
use crate::pack::{pack_a, pack_b, Strided};
use lamb_matrix::{Matrix, MatrixError, MatrixView, MatrixViewMut, Result, Trans};

/// Factor the `m x n` matrix `a` (`m >= n`) in place as `A = Q·R`. On return
/// `tau` holds the `n` Householder coefficients.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] when `m < n` (the wide case
/// needs an LQ factorisation this crate does not provide).
pub fn qr(a: &mut MatrixViewMut<'_>, tau: &mut Vec<f64>, cfg: &BlockConfig) -> Result<()> {
    let (_, n) = check_tall(a)?;
    tau.clear();
    tau.resize(n, 0.0);
    factor(a, tau, cfg);
    Ok(())
}

/// [`qr`] of a tall window into `tau` (one slot per column). Under the
/// small-call rule the whole window is one panel, factored in place.
fn factor(a: &mut MatrixViewMut<'_>, tau: &mut [f64], cfg: &BlockConfig) {
    let (m, n) = (a.rows(), a.cols());
    if is_small(m, n, n, cfg) {
        factor_panel(a, tau);
        return;
    }
    let tb = cfg.tri_block.max(1);
    let mut reflector = BlockReflector::new(cfg);
    let mut k0 = 0;
    while k0 < n {
        let kb = tb.min(n - k0);
        // Panel and trailing columns are disjoint ranges of the buffer, so
        // the reflectors are read in place while the trailing block is
        // updated.
        let (mut panel, mut trailing) = a.subview_mut(k0, k0, m - k0, n - k0).split_at_col_mut(kb);
        factor_panel(&mut panel, &mut tau[k0..k0 + kb]);
        if trailing.cols() > 0 {
            reflector.apply(&panel.as_view(), &tau[k0..], &mut trailing);
        }
        k0 += kb;
    }
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
    tau.resize(a.cols(), 0.0);
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
/// `(0, 0)` is a diagonal element) in place, writing one `tau` per column
/// and applying each reflector to the remaining columns as it is formed.
fn factor_panel(a: &mut MatrixViewMut<'_>, tau: &mut [f64]) {
    for j in 0..a.cols() {
        // Householder vector annihilating a[j+1.., j] into a[j, j].
        let (col, later) = column_and_later(a, j);
        let alpha = col[j];
        let normsq = dot(&col[j + 1..], &col[j + 1..]);
        if normsq == 0.0 {
            // Already triangular in this column: the identity reflector.
            tau[j] = 0.0;
            continue;
        }
        let norm = (alpha * alpha + normsq).sqrt();
        let beta = if alpha >= 0.0 { -norm } else { norm };
        let t = (beta - alpha) / beta;
        tau[j] = t;
        let scale = 1.0 / (alpha - beta);
        for v in &mut col[j + 1..] {
            *v *= scale;
        }
        col[j] = beta;
        // Apply H = I - tau·v·vᵀ to the remaining columns.
        let v = &col[j + 1..];
        for c in later {
            let tw = t * (c[j] + dot(v, &c[j + 1..]));
            c[j] -= tw;
            axpy(-tw, v, &mut c[j + 1..]);
        }
    }
}

/// The compact-WY block reflector: `C := (I - V·Tᵀ·Vᵀ)·C`, the transpose of
/// `H_0⋯H_{kb-1} = I - V·T·Vᵀ`, applied panel after panel. The one routine
/// behind [`qr`]'s trailing update and [`ormqr`].
///
/// The reflectors are read as storage: the unit-lower `kb x kb` top block
/// `V₁` of a panel is materialised once, and the rows below it, `V₂`, are a
/// plain [`Strided`] window of the factor. `T` comes from `VᵀV` and the
/// `kb³` recurrence of LAPACK `larft` (forward, columnwise; Joffrain, Low,
/// Quintana-Ortí, van de Geijn & Van Zee, *Accumulating Householder
/// transformations, revisited*, ACM TOMS 2006). `VᵀV` and `W = VᵀC` are one
/// product, `Vᵀ·[V C]`, on the engine's packing and micro-kernel: `Vᵀ` is
/// packed once for both and, on a square register tile, is already the
/// packed right operand `V` of `VᵀV`, of which only the tiles that reach
/// above the diagonal are formed. The rest — `TᵀW` and `C -= V·TᵀW` — runs
/// on the [`BlockedDriver`]. The work matrices belong to one [`qr`] or
/// [`ormqr`] call and are reused by each of its panels.
struct BlockReflector<'a> {
    driver: BlockedDriver<'a>,
    ws: Workspace,
}

/// The work matrices of a [`BlockReflector`].
#[derive(Default)]
struct Workspace {
    /// `V₁`, `kb x kb`.
    top: Vec<f64>,
    /// `VᵀV`, `kb x kb` (its strict upper triangle is what `T` reads).
    gram: Vec<f64>,
    /// The upper-triangular `T`, `kb x kb`, zero below the diagonal.
    t: Vec<f64>,
    /// `W = VᵀC`, `kb x nc`.
    w: Vec<f64>,
    /// `Tᵀ·W`, `kb x nc`.
    tw: Vec<f64>,
    /// `V` packed for `Vᵀ·[V C]`, split at row `kb`: `Vᵀ` in `MR`-row
    /// panels, then `V` in `NR`-column panels unless the tile is square.
    packed: [Vec<f64>; 4],
}

/// A column-major `rows x cols` window over the front of a work buffer,
/// zeroed when `zero` (the engine accumulates into what it is given).
fn window(buf: &mut Vec<f64>, rows: usize, cols: usize, zero: bool) -> MatrixViewMut<'_> {
    buf.resize(buf.len().max(rows * cols), 0.0);
    let data = &mut buf[..rows * cols];
    if zero {
        data.fill(0.0);
    }
    MatrixViewMut::new(data, rows, cols, rows.max(1)).expect("a work buffer holds rows * cols")
}

impl<'a> BlockReflector<'a> {
    fn new(cfg: &'a BlockConfig) -> Self {
        BlockReflector {
            driver: BlockedDriver::new(cfg),
            ws: Workspace::default(),
        }
    }

    /// Apply the panel whose `kb` reflectors sit below the diagonal of `v`
    /// (unit diagonal implicit, upper triangle ignored) with coefficients
    /// `tau[..kb]` to `c`, which spans the same rows (`rows >= kb`).
    fn apply(&mut self, v: &MatrixView<'_>, tau: &[f64], c: &mut MatrixViewMut<'_>) {
        let (rows, kb, nc) = (v.rows(), v.cols(), c.cols());
        let below = rows - kb;
        let mut top = window(&mut self.ws.top, kb, kb, false);
        for j in 0..kb {
            let (dst, src) = (top.col_mut(j), &v.col(j)[..kb]);
            dst[..j].fill(0.0);
            dst[j] = 1.0;
            dst[j + 1..].copy_from_slice(&src[j + 1..]);
        }
        let v_parts = [
            Strided::new(&top.as_view(), Trans::No),
            Strided::new(v, Trans::No).offset(kb, 0),
        ];
        let c_all = Strided::new(&c.as_view(), Trans::No);
        let c_parts = [c_all, c_all.offset(kb, 0)];
        let driver = self.driver;

        let mut gram = window(&mut self.ws.gram, kb, kb, false);
        let mut w = window(&mut self.ws.w, kb, nc, false);
        let products = Products {
            depths: [kb, below],
            v: v_parts,
            c: c_parts,
        };
        let packed = &mut self.ws.packed;
        match driver.cfg().tile {
            TileVariant::T8x4 => products.run::<8, 4>(driver, packed, &mut gram, &mut w),
            TileVariant::T8x8 => products.run::<8, 8>(driver, packed, &mut gram, &mut w),
            TileVariant::T4x8 => products.run::<4, 8>(driver, packed, &mut gram, &mut w),
            TileVariant::T16x4 => products.run::<16, 4>(driver, packed, &mut gram, &mut w),
            TileVariant::T8x12 => products.run::<8, 12>(driver, packed, &mut gram, &mut w),
        }
        let mut t = window(&mut self.ws.t, kb, kb, true);
        larft(&gram.as_view(), tau, &mut t);

        // W := TᵀW, then C -= V·W.
        let mut tw = window(&mut self.ws.tw, kb, nc, true);
        let (t_t, w) = (Strided::new(&t.as_view(), Trans::Yes), w.as_view());
        driver.accumulate(kb, nc, kb, 1.0, &t_t, &Strided::new(&w, Trans::No), &mut tw);
        let tw = Strided::new(&tw.as_view(), Trans::No);
        let [v1, v2] = v_parts;
        driver.accumulate(kb, nc, kb, -1.0, &v1, &tw, &mut c.subview_mut(0, 0, kb, nc));
        driver.accumulate(
            below,
            nc,
            kb,
            -1.0,
            &v2,
            &tw,
            &mut c.subview_mut(kb, 0, below, nc),
        );
    }
}

/// `Vᵀ·[V C]` of one panel, with `V` and `C` each given as their top `kb`
/// rows and the rows below.
struct Products<'v> {
    depths: [usize; 2],
    v: [Strided<'v>; 2],
    c: [Strided<'v>; 2],
}

impl Products<'_> {
    /// Write `VᵀV` into `gram` — every tile that reaches above the diagonal
    /// — and `VᵀC` into `w`, `Vᵀ` packed once into `packed` for both. Like
    /// the engine's loop nest, the depth is taken in blocks of
    /// [`BlockConfig::kc`] rows; the columns of `W` go to the pool's workers
    /// as the engine's would.
    fn run<const MR: usize, const NR: usize>(
        &self,
        driver: BlockedDriver<'_>,
        packed: &mut [Vec<f64>; 4],
        gram: &mut MatrixViewMut<'_>,
        w: &mut MatrixViewMut<'_>,
    ) {
        let (kb, cols) = (gram.rows(), w.cols());
        let [vt_top, vt_low, v_top, v_low] = packed;
        for (s, buf) in [&mut *vt_top, &mut *vt_low].into_iter().enumerate() {
            pack_a(MR, kb, self.depths[s], self.v[s].t(), buf);
        }
        let vt: [&[f64]; 2] = [vt_top, vt_low];
        let v: [&[f64]; 2] = if MR == NR {
            vt
        } else {
            for (s, buf) in [&mut *v_top, &mut *v_low].into_iter().enumerate() {
                pack_b(NR, self.depths[s], kb, self.v[s], buf);
            }
            [v_top, v_low]
        };
        // Depth blocks `(segment, first row, rows)`, in order.
        let kc = driver.cfg().kc.max(1);
        let chunks: Vec<(usize, usize, usize)> = (0..2)
            .flat_map(|s| {
                let d = self.depths[s];
                (0..d).step_by(kc).map(move |p0| (s, p0, kc.min(d - p0)))
            })
            .collect();
        for (first, &(s, p0, depth)) in chunks.iter().enumerate() {
            let (left, right) = ((vt[s], self.depths[s]), (v[s], self.depths[s]));
            Self::tiles::<MR, NR>(left, right, (p0, p0, depth), gram, true, first > 0);
        }
        let depth = self.depths[0] + self.depths[1];
        let parallel = driver.cfg().should_parallelise(kb, cols, depth);
        driver.for_each_panel(w.subview_mut(0, 0, kb, cols), parallel, |j0, mut panel| {
            // One `NR`-column sliver of `C` at a time, read from L1 by every
            // tile of `Vᵀ` it meets.
            let mut sliver = Vec::new();
            for (first, &(s, p0, depth)) in chunks.iter().enumerate() {
                for jr in (0..panel.cols()).step_by(NR) {
                    let nr = NR.min(panel.cols() - jr);
                    pack_b(NR, depth, nr, self.c[s].offset(p0, j0 + jr), &mut sliver);
                    let (left, right) = ((vt[s], self.depths[s]), (&sliver[..], depth));
                    let mut out = panel.subview_mut(0, jr, kb, nr);
                    Self::tiles::<MR, NR>(left, right, (p0, 0, depth), &mut out, false, first > 0);
                }
            }
        });
    }

    /// `out (+)= Vᵀ·R` over one depth block: `left` is packed `Vᵀ` and
    /// `right` the packed `R`, each with the depth it was packed at, and the
    /// block is `depth` rows from `l0` in the one and `r0` in the other. With
    /// `upper`, only the tiles that reach above the diagonal; with `add`, the
    /// tiles accumulate into `out` instead of overwriting it.
    fn tiles<const MR: usize, const NR: usize>(
        left: (&[f64], usize),
        right: (&[f64], usize),
        (l0, r0, depth): (usize, usize, usize),
        out: &mut MatrixViewMut<'_>,
        upper: bool,
        add: bool,
    ) {
        let (kb, cols) = (out.rows(), out.cols());
        let mut acc = [0.0; MAX_TILE_ACC];
        for j0 in (0..cols).step_by(NR) {
            let b = &right.0[j0 * right.1 + r0 * NR..][..depth * NR];
            for i0 in (0..kb).step_by(MR) {
                if upper && i0 >= j0 + NR {
                    break;
                }
                let a = &left.0[i0 * left.1 + l0 * MR..][..depth * MR];
                microkernel::<MR, NR>(depth, a, b, &mut acc);
                let (rows, width) = (MR.min(kb - i0), NR.min(cols - j0));
                for jj in 0..width {
                    let col = &mut out.col_mut(j0 + jj)[i0..i0 + rows];
                    let tile = &acc[jj * MR..jj * MR + rows];
                    if add {
                        col.iter_mut().zip(tile).for_each(|(x, t)| *x += t);
                    } else {
                        col.copy_from_slice(tile);
                    }
                }
            }
        }
    }
}

/// LAPACK `larft`'s recurrence (forward, columnwise): the upper-triangular
/// `T` with `H_0⋯H_{kb-1} = I - V·T·Vᵀ`, into the zeroed `t`, from `VᵀV`
/// and the coefficients `tau[..kb]`:
/// `T(0..j, j) = -tau_j · T(0..j, 0..j) · (VᵀV)(0..j, j)`, `T(j, j) = tau_j`.
fn larft(gram: &MatrixView<'_>, tau: &[f64], t: &mut MatrixViewMut<'_>) {
    let kb = gram.cols();
    let ld = t.ld();
    let t = t.as_mut_slice();
    for j in 0..kb {
        let (done, rest) = t.split_at_mut(j * ld);
        let tj = &mut rest[..kb];
        if tau[j] != 0.0 {
            for (p, &g) in gram.col(j)[..j].iter().enumerate() {
                axpy(-tau[j] * g, &done[p * ld..p * ld + p + 1], &mut tj[..=p]);
            }
        }
        tj[j] = tau[j];
    }
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
    let (mut factors, mut last) = f.view_mut().split_at_col_mut(n);
    check_tall(&factors)?;
    let last = last.col_mut(0);
    last.fill(0.0);
    factor(&mut factors, &mut last[..n], cfg);
    Ok(())
}

/// Apply `Qᵀ` from a packed QR factor `f` (`m x (n+1)`, see [`qr_packed`]) to
/// `b` (`m x k`) and write the *top `n` rows* of the product into `c`
/// (`n x k`) — exactly the `Qᵀb` block the least-squares triangular solve
/// `x = R⁻¹·(Qᵀb)` consumes.
///
/// Under the small-call rule the reflectors are applied one by one. Above
/// it, blocked: one `T` factor and one block-reflector application per panel
/// of `min(tri_block, max(k, 16))` reflectors ([`BlockConfig::tri_block`]).
/// Forming `T` costs the
/// upper half of `VᵀV`, about `kb / 4k` of the panel's update, so the panel
/// width follows the width `k` of the right-hand side; below 16 reflectors
/// the per-panel products are too thin to run at engine speed. Measured
/// against 8 to 128 fixed reflectors at `(m, n) = (384, 256)` and
/// `(576, 384)`, `k = 8, 32, 128`: within noise of the best fixed width at
/// every shape.
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
    let tau = &f.col(n)[..n];
    if is_small(m, k, n, cfg) {
        match cfg.tile.nr() {
            4 => apply_one_by_one::<4>(f, tau, b, c),
            8 => apply_one_by_one::<8>(f, tau, b, c),
            _ => apply_one_by_one::<12>(f, tau, b, c),
        }
        return Ok(());
    }
    // Qᵀ·B = H_{n-1}⋯H_0·B: apply the panels in factorisation order.
    let mut work = b.clone();
    let tb = cfg.tri_block.max(1).min(k.max(16));
    let mut reflector = BlockReflector::new(cfg);
    let mut k0 = 0;
    while k0 < n {
        let kb = tb.min(n - k0);
        let v = f.subview(k0, k0, m - k0, kb);
        let mut rows = work.view_mut();
        let mut below = rows.subview_mut(k0, 0, m - k0, k);
        reflector.apply(&v, &tau[k0..], &mut below);
        k0 += kb;
    }
    for j in 0..k {
        c.col_mut(j).copy_from_slice(&work.col(j)[..n]);
    }
    Ok(())
}

/// [`ormqr`] under the small-call rule: `b` is taken `NR` columns at a time,
/// copied into rows of `NR` values, and the reflectors are applied to them
/// one by one — `w := tau·(y_i + vᵀY)`, then `Y -= v·w` — in one vector step
/// per element of `v`, with no `T`; the top `n` rows go to `c`.
fn apply_one_by_one<const NR: usize>(f: &Matrix, tau: &[f64], b: &Matrix, c: &mut Matrix) {
    let (m, n) = (b.rows(), tau.len());
    let mut rows = [[0.0f64; NR]; SMALL_MAX];
    let rows = &mut rows[..m];
    for j0 in (0..b.cols()).step_by(NR) {
        let width = NR.min(b.cols() - j0);
        for lane in 0..NR {
            if lane < width {
                for (row, &v) in rows.iter_mut().zip(b.col(j0 + lane)) {
                    row[lane] = v;
                }
            } else {
                rows.iter_mut().for_each(|row| row[lane] = 0.0);
            }
        }
        for (i, &t) in tau.iter().enumerate() {
            if t == 0.0 {
                continue;
            }
            let v = &f.col(i)[i + 1..];
            let (head, below) = rows[i..].split_first_mut().expect("i < m");
            let mut w = *head;
            for (&vr, row) in v.iter().zip(below.iter()) {
                for (wl, &yl) in w.iter_mut().zip(row) {
                    *wl = fmadd(*wl, vr, yl);
                }
            }
            let w = w.map(|wl| t * wl);
            for (yl, wl) in head.iter_mut().zip(&w) {
                *yl -= wl;
            }
            for (&vr, row) in v.iter().zip(below.iter_mut()) {
                for (yl, &wl) in row.iter_mut().zip(&w) {
                    *yl = fmadd(*yl, -vr, wl);
                }
            }
        }
        for lane in 0..width {
            for (dst, row) in c.col_mut(j0 + lane).iter_mut().zip(&rows[..n]) {
                *dst = row[lane];
            }
        }
    }
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
    use crate::config::TileVariant;
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
    fn ormqr_matches_naive_on_leaf_and_block_edges() {
        // Right-hand-side columns are independent, so one reference of the
        // widest `k` per factor serves every narrower one.
        let widest = BlockConfig::default().tri_block + 1;
        let mut references = std::collections::HashMap::new();
        for (cfg, orders) in crate::leaf::tests::edge_grid() {
            let tb = cfg.tri_block;
            for n in orders {
                // Square, and tall by half with a zero column: tau = 0.
                for m in [n, n + n / 2] {
                    let (f, b, naive) = references.entry((m, n)).or_insert_with(|| {
                        let mut a = random_seeded(m, n, 90 + n as u64);
                        if m > n {
                            a.col_mut(n / 2).fill(0.0);
                        }
                        let f = qr_packed(&a, &BlockConfig::serial()).unwrap();
                        assert!(m == n || f[(n / 2, n)] == 0.0, "{m}x{n}: tau");
                        let b = random_seeded(m, widest, 91);
                        let mut naive = Matrix::zeros(n, widest);
                        ormqr_naive(&f, &b, &mut naive).unwrap();
                        (f, b, naive)
                    });
                    let rule = crate::leaf::small_order(&cfg);
                    for k in [1, 7, 8, 9, rule - 1, rule, rule + 1, tb - 1, tb, tb + 1] {
                        let b_k = Matrix::from_fn(m, k, |i, j| b[(i, j)]);
                        let mut blocked = Matrix::filled(n, k, f64::NAN);
                        ormqr(f, &b_k, &mut blocked, &cfg).unwrap();
                        let expected = Matrix::from_fn(n, k, |i, j| naive[(i, j)]);
                        let diff = max_abs_diff(&blocked, &expected).unwrap();
                        assert!(diff <= 1e-10 * m as f64, "{m}x{n} k {k} {cfg:?}: {diff}");
                    }
                }
            }
        }
    }

    #[test]
    fn block_reflector_blocks_its_depth_by_kc() {
        // Depth blocks that split the top block, the rows below it and both,
        // on every register tile, serial and with the columns of `W` spread
        // over workers.
        for tile in TileVariant::ALL {
            for (kc, parallel) in [(5, false), (13, true)] {
                let cfg = BlockConfig {
                    kc,
                    tri_block: 6,
                    tile,
                    parallel,
                    parallel_flop_threshold: 1,
                    ..BlockConfig::default()
                };
                for (m, n) in [(31, 31), (40, 25)] {
                    let a = random_seeded(m, n, 95 + m as u64);
                    let (mut blocked, mut naive) = (a.clone(), a.clone());
                    let (mut tau_b, mut tau_n) = (Vec::new(), Vec::new());
                    qr(&mut blocked.view_mut(), &mut tau_b, &cfg).unwrap();
                    qr_naive(&mut naive.view_mut(), &mut tau_n).unwrap();
                    let diff = max_abs_diff(&blocked, &naive).unwrap();
                    assert!(diff <= 1e-10 * m as f64, "qr {m}x{n} {cfg:?}: {diff}");
                    for k in [1, 20] {
                        check_ormqr(m, n, k, &cfg);
                    }
                }
            }
        }
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
