//! Operand packing into contiguous panels, the heart of the GotoBLAS/BLIS
//! kernel structure.
//!
//! * `op(A)` blocks are packed into consecutive `mr`-row panels: panel `q`
//!   stores, for `p = 0..k`, the `mr` values `op(A)[q*mr + r, p]`
//!   (`r = 0..mr`), zero-padded past the block edge.
//! * `op(B)` blocks are packed into consecutive `nr`-column panels with the
//!   symmetric layout — which is the first layout applied to `op(B)ᵀ`, so
//!   there is one packing loop.
//!
//! The buffer is sized once per block and cut into panels and panel columns
//! by `chunks_exact_mut`, each slot written in place — nothing is pushed
//! element by element, and the padding is written rather than assumed,
//! because the buffer is reused. The source is read through the [`Operand`]
//! trait, in which two kinds of operand meet:
//!
//! * [`Strided`] — a window of column-major storage, plain or transposed,
//!   shifted by moving its origin. Reading one is a multiply-add on two
//!   strides fixed for the whole call, with no per-element decision about
//!   transposition and no accessor calling an accessor, which is what lets
//!   the packing loop run at memory-copy rates in both orientations. GEMM,
//!   SYRK, the dense sides of SYMM/TRMM/TRSM and the compact-WY products of
//!   QR present these.
//! * any `Fn(usize, usize) -> f64` — for operands that are not storage:
//!   SYMM's mirrored triangle, TRMM's masked diagonal block.
//!
//! The panel heights/widths are *runtime* parameters — the packing loops are
//! memory-bound, so unlike the micro-kernel they gain nothing from being
//! monomorphised per tile, and keeping them dynamic means one packing routine
//! serves every [`crate::config::TileVariant`]. They *are* monomorphised per
//! operand type, which is the point of the trait.

use lamb_matrix::{MatrixView, Trans};

/// A logical operand block of the packed core, read by position.
pub trait Operand {
    /// Element `(i, j)`.
    fn at(&self, i: usize, j: usize) -> f64;

    /// The operand seen from `(i0, j0)`: its element `(i, j)` is this one's
    /// `(i0 + i, j0 + j)`.
    fn offset(&self, i0: usize, j0: usize) -> impl Operand;

    /// The transposed operand.
    fn t(&self) -> impl Operand;

    /// The operand as column-major storage — its elements `(i, j)` at
    /// `data[i + j * ld]` — when it is one: what the small-call tier reads
    /// in place instead of packing.
    fn columns(&self) -> Option<(&[f64], usize)> {
        None
    }
}

impl<F: Fn(usize, usize) -> f64> Operand for F {
    fn at(&self, i: usize, j: usize) -> f64 {
        self(i, j)
    }

    fn offset(&self, i0: usize, j0: usize) -> impl Operand {
        move |i: usize, j: usize| self(i0 + i, j0 + j)
    }

    fn t(&self) -> impl Operand {
        move |i: usize, j: usize| self(j, i)
    }
}

/// A window of stored elements: `(i, j)` lives at `data[i * rs + j * cs]`.
/// Column-major storage has `rs == 1`, its transpose `cs == 1`.
#[derive(Debug, Clone, Copy)]
pub struct Strided<'a> {
    /// The storage, starting at element `(0, 0)`.
    pub data: &'a [f64],
    /// Distance between vertically adjacent elements.
    pub rs: usize,
    /// Distance between horizontally adjacent elements.
    pub cs: usize,
}

impl<'a> Strided<'a> {
    /// `op(X)` for a column-major view `x`.
    #[must_use]
    pub fn new(x: &MatrixView<'a>, trans: Trans) -> Self {
        let plain = Strided {
            data: x.as_slice(),
            rs: 1,
            cs: x.ld(),
        };
        match trans {
            Trans::No => plain,
            Trans::Yes => plain.t(),
        }
    }

    /// The transposed window.
    #[must_use]
    pub fn t(self) -> Self {
        Strided {
            rs: self.cs,
            cs: self.rs,
            ..self
        }
    }

    /// The window starting at `(i0, j0)`. A window that starts past the end
    /// of the storage is empty, as a zero-extent block is entitled to be.
    #[must_use]
    pub fn offset(self, i0: usize, j0: usize) -> Self {
        Strided {
            data: self
                .data
                .get(i0 * self.rs + j0 * self.cs..)
                .unwrap_or_default(),
            ..self
        }
    }
}

impl Operand for Strided<'_> {
    fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.rs + j * self.cs]
    }

    fn offset(&self, i0: usize, j0: usize) -> impl Operand {
        Strided::offset(*self, i0, j0)
    }

    fn t(&self) -> impl Operand {
        Strided::t(*self)
    }

    fn columns(&self) -> Option<(&[f64], usize)> {
        (self.rs == 1).then_some((self.data, self.cs))
    }
}

/// Number of `f64` slots required to pack an `mb x kb` block of `op(A)` into
/// `mr`-row panels.
#[must_use]
pub fn packed_a_len(mr: usize, mb: usize, kb: usize) -> usize {
    mb.div_ceil(mr) * mr * kb
}

/// Number of `f64` slots required to pack a `kb x nb` block of `op(B)` into
/// `nr`-column panels.
#[must_use]
pub fn packed_b_len(nr: usize, kb: usize, nb: usize) -> usize {
    nb.div_ceil(nr) * nr * kb
}

/// Pack an `mb x kb` block of `op(A)` into `buf` using `mr`-row panels.
///
/// `load` is the logical `op(A)`: element `(i, p)` for `i < mb`, `p < kb`.
/// Rows past `mb` within the last panel are zero-padded — written, not
/// assumed: `buf` is reused across calls and holds whatever the last one
/// packed.
pub fn pack_a<L: Operand>(mr: usize, mb: usize, kb: usize, load: L, buf: &mut Vec<f64>) {
    buf.resize(packed_a_len(mr, mb, kb), 0.0);
    pack_a_into(mr, mb, kb, load, buf);
}

/// [`pack_a`] into the first [`packed_a_len`] elements of `buf`.
pub(crate) fn pack_a_into<L: Operand>(mr: usize, mb: usize, kb: usize, load: L, buf: &mut [f64]) {
    let buf = &mut buf[..packed_a_len(mr, mb, kb)];
    if buf.is_empty() {
        return;
    }
    for (q, panel) in buf.chunks_exact_mut(mr * kb).enumerate() {
        let ir = q * mr;
        let rows = mr.min(mb - ir);
        for (p, col) in panel.chunks_exact_mut(mr).enumerate() {
            let (live, pad) = col.split_at_mut(rows);
            for (r, slot) in live.iter_mut().enumerate() {
                *slot = load.at(ir + r, p);
            }
            pad.fill(0.0);
        }
    }
}

/// Pack a `kb x nb` block of `op(B)` into `buf` using `nr`-column panels.
///
/// `load` is the logical `op(B)`: element `(p, j)` for `p < kb`, `j < nb`.
/// Columns past `nb` within the last panel are zero-padded.
pub fn pack_b<L: Operand>(nr: usize, kb: usize, nb: usize, load: L, buf: &mut Vec<f64>) {
    pack_a(nr, nb, kb, load.t(), buf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TileVariant;

    // The historical default tile; layout expectations below are written
    // against these panel dimensions.
    const MR: usize = 8;
    const NR: usize = 4;

    #[test]
    fn packed_lengths_round_up_to_full_panels() {
        for tile in TileVariant::ALL {
            let (mr, nr) = (tile.mr(), tile.nr());
            assert_eq!(packed_a_len(mr, mr, 3), mr * 3);
            assert_eq!(packed_a_len(mr, mr + 1, 3), 2 * mr * 3);
            assert_eq!(packed_b_len(nr, 3, nr), nr * 3);
            assert_eq!(packed_b_len(nr, 3, nr + 1), 2 * nr * 3);
            assert_eq!(packed_a_len(mr, 0, 5), 0);
        }
    }

    #[test]
    fn pack_a_layout_matches_microkernel_expectation() {
        // 3 x 2 block, single panel (3 <= MR).
        let mb = 3;
        let kb = 2;
        let mut buf = Vec::new();
        pack_a(MR, mb, kb, |i, p| (10 * i + p) as f64, &mut buf);
        assert_eq!(buf.len(), packed_a_len(MR, mb, kb));
        // Panel stores column p = 0 first: rows 0,1,2 then padding.
        assert_eq!(&buf[0..3], &[0.0, 10.0, 20.0]);
        assert!(buf[3..MR].iter().all(|&x| x == 0.0));
        // Then column p = 1.
        assert_eq!(&buf[MR..MR + 3], &[1.0, 11.0, 21.0]);
    }

    #[test]
    fn pack_a_multiple_panels() {
        let mb = MR + 2;
        let kb = 1;
        let mut buf = Vec::new();
        pack_a(MR, mb, kb, |i, _| i as f64, &mut buf);
        assert_eq!(buf.len(), 2 * MR);
        // First panel holds rows 0..MR.
        for (r, &v) in buf.iter().take(MR).enumerate() {
            assert_eq!(v, r as f64);
        }
        // Second panel holds rows MR..MR+2 then zeros.
        assert_eq!(buf[MR], MR as f64);
        assert_eq!(buf[MR + 1], (MR + 1) as f64);
        assert!(buf[MR + 2..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn pack_b_layout_matches_microkernel_expectation() {
        let kb = 2;
        let nb = 3;
        let mut buf = Vec::new();
        pack_b(NR, kb, nb, |p, j| (100 * p + j) as f64, &mut buf);
        assert_eq!(buf.len(), packed_b_len(NR, kb, nb));
        // Row p = 0 of the single panel: columns 0,1,2, padding.
        assert_eq!(&buf[0..3], &[0.0, 1.0, 2.0]);
        assert_eq!(buf[3], 0.0);
        // Row p = 1.
        assert_eq!(&buf[NR..NR + 3], &[100.0, 101.0, 102.0]);
    }

    #[test]
    fn pack_b_multiple_panels() {
        let kb = 1;
        let nb = NR + 1;
        let mut buf = Vec::new();
        pack_b(NR, kb, nb, |_, j| j as f64, &mut buf);
        assert_eq!(buf.len(), 2 * NR);
        for (c, &v) in buf.iter().take(NR).enumerate() {
            assert_eq!(v, c as f64);
        }
        assert_eq!(buf[NR], NR as f64);
        assert!(buf[NR + 1..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn packing_is_tile_agnostic_in_content() {
        // Same logical block packed under two tiles holds the same elements,
        // just grouped into different panels.
        let (mb, kb) = (10, 3);
        let load = |i: usize, p: usize| (i * 100 + p) as f64;
        for tile in TileVariant::ALL {
            let mr = tile.mr();
            let mut buf = Vec::new();
            pack_a(mr, mb, kb, load, &mut buf);
            assert_eq!(buf.len(), packed_a_len(mr, mb, kb));
            let nonzero: f64 = buf.iter().sum();
            let expected: f64 = (0..mb).flat_map(|i| (0..kb).map(move |p| load(i, p))).sum();
            assert!((nonzero - expected).abs() < 1e-12, "{tile}");
        }
    }

    #[test]
    fn padding_does_not_depend_on_what_the_buffer_held() {
        // The scratch is reused across calls: pack a large all-NaN block,
        // then a small one with partial edge panels into the same Vec.
        for tile in TileVariant::ALL {
            let (mr, nr) = (tile.mr(), tile.nr());
            let (mb, kb, nb) = (mr + 1, 3, 2 * nr - 1);
            let mut buf = Vec::new();
            pack_a(mr, 4 * mr, 2 * kb, |_, _| f64::NAN, &mut buf);
            pack_a(mr, mb, kb, |i, p| (1 + i + 10 * p) as f64, &mut buf);
            assert_eq!(buf.len(), packed_a_len(mr, mb, kb), "{tile}");
            for (slot, &v) in buf.iter().enumerate() {
                let (i, p) = (slot / (mr * kb) * mr + slot % mr, slot % (mr * kb) / mr);
                let expected = if i < mb { (1 + i + 10 * p) as f64 } else { 0.0 };
                assert_eq!(v.to_bits(), expected.to_bits(), "{tile} A slot {slot}");
            }
            pack_b(nr, 2 * kb, 4 * nr, |_, _| f64::NAN, &mut buf);
            pack_b(nr, kb, nb, |p, j| (1 + j + 10 * p) as f64, &mut buf);
            assert_eq!(buf.len(), packed_b_len(nr, kb, nb), "{tile}");
            for (slot, &v) in buf.iter().enumerate() {
                let (j, p) = (slot / (nr * kb) * nr + slot % nr, slot % (nr * kb) / nr);
                let expected = if j < nb { (1 + j + 10 * p) as f64 } else { 0.0 };
                assert_eq!(v.to_bits(), expected.to_bits(), "{tile} B slot {slot}");
            }
            // Zero extents leave nothing behind.
            pack_a(mr, 0, kb, |_, _| f64::NAN, &mut buf);
            assert!(buf.is_empty());
            pack_b(nr, 0, nb, |_, _| f64::NAN, &mut buf);
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn packing_reuses_buffer_capacity() {
        let mut buf = Vec::new();
        pack_a(MR, MR, 16, |i, p| (i * p) as f64, &mut buf);
        let cap = buf.capacity();
        pack_a(MR, MR, 8, |i, p| (i + p) as f64, &mut buf);
        assert!(buf.capacity() >= cap.min(buf.len()));
        assert_eq!(buf.len(), packed_a_len(MR, MR, 8));
    }
}
