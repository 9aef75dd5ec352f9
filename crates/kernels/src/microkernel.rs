//! The register-blocked `MR x NR` micro-kernel operating on packed panels.
//!
//! The kernel is generic over the register-tile shape: `MR` and `NR` are
//! `const` parameters, so each [`crate::config::TileVariant`] names a
//! dedicated monomorphisation in which the accumulator is a true
//! `[[f64; MR]; NR]` array, the panel reads are fixed-size chunks and every
//! column update is a fully unrolled loop of constant trip count — the shape
//! rustc's auto-vectoriser turns into vector FMAs without any `unsafe` or
//! explicit intrinsics. Runtime tile selection happens once per kernel call
//! (see [`crate::driver::BlockedDriver`]) or through [`microkernel_dyn`],
//! either way through the tile table in [`crate::config`].

use crate::config::{with_tile, TileVariant};

/// One accumulator update `acc + a * b`, fused when the compile target
/// guarantees hardware FMA.
///
/// `f64::mul_add` is a single rounding — but on targets without an FMA
/// instruction it lowers to a `libm` call that is an order of magnitude
/// slower than a mul + add, so fusion is gated on the target feature (the
/// workspace `.cargo/config.toml` builds for the host CPU, which enables it
/// on any modern x86-64; aarch64 always has fused multiply-add). Both paths
/// auto-vectorise; they differ only in one rounding step, well inside the
/// tolerance every numerical test in this workspace uses.
#[inline(always)]
pub(crate) fn fmadd(acc: f64, a: f64, b: f64) -> f64 {
    #[cfg(any(target_feature = "fma", target_arch = "aarch64"))]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(any(target_feature = "fma", target_arch = "aarch64")))]
    {
        acc + a * b
    }
}

/// Compute `acc := Ap · Bp` for one micro-tile of shape `MR x NR`.
///
/// * `ap` is an `MR`-row packed panel: `ap[p * MR + r]` holds `op(A)[r, p]`.
/// * `bp` is an `NR`-column packed panel: `bp[p * NR + c]` holds `op(B)[p, c]`.
/// * `acc` is column-major: `acc[c * MR + r]` receives `C[r, c]`; only the
///   first `MR * NR` elements are written (the slice may be longer so one
///   stack buffer of [`crate::config::MAX_TILE_ACC`] serves every variant).
///
/// The accumulator is overwritten, not accumulated into. `kb` is the depth of
/// the current cache block.
///
/// # Panics
///
/// Panics if `acc` holds fewer than `MR * NR` elements or the packed panels
/// are shorter than `kb` micro-rows/columns.
#[inline]
pub fn microkernel<const MR: usize, const NR: usize>(
    kb: usize,
    ap: &[f64],
    bp: &[f64],
    acc: &mut [f64],
) {
    // One register column per output column; `[f64; MR]` keeps every update
    // loop at a compile-time trip count.
    let mut tile = [[0.0f64; MR]; NR];
    let a_steps = ap[..kb * MR].chunks_exact(MR);
    let b_steps = bp[..kb * NR].chunks_exact(NR);
    for (a, b) in a_steps.zip(b_steps) {
        rank_one(&mut tile, a, b);
    }
    for (c, col) in tile.iter().enumerate() {
        acc[c * MR..(c + 1) * MR].copy_from_slice(col);
    }
}

/// [`microkernel`] reading `op(A)` in place: `a[p * lda + r]` holds
/// `op(A)[r, p]` — an `MR`-row sliver of column-major storage, which the
/// small-call tier hands over instead of a packed panel.
#[inline]
pub(crate) fn microkernel_strided<const MR: usize, const NR: usize>(
    kb: usize,
    a: &[f64],
    lda: usize,
    bp: &[f64],
    acc: &mut [f64],
) {
    let mut tile = [[0.0f64; MR]; NR];
    for (p, b) in bp[..kb * NR].chunks_exact(NR).enumerate() {
        rank_one(&mut tile, &a[p * lda..p * lda + MR], b);
    }
    for (c, col) in tile.iter().enumerate() {
        acc[c * MR..(c + 1) * MR].copy_from_slice(col);
    }
}

/// `tile += a·bᵀ` for one step of the depth: `MR` values of `op(A)`'s
/// column, `NR` of `op(B)`'s row.
#[inline(always)]
fn rank_one<const MR: usize, const NR: usize>(tile: &mut [[f64; MR]; NR], a: &[f64], b: &[f64]) {
    let a: &[f64; MR] = a.try_into().expect("chunk is MR long");
    let b: &[f64; NR] = b.try_into().expect("chunk is NR long");
    for c in 0..NR {
        let bv = b[c];
        let col = &mut tile[c];
        for r in 0..MR {
            col[r] = fmadd(col[r], a[r], bv);
        }
    }
}

/// Run [`microkernel`] for the monomorphisation named by `tile`.
///
/// Like every kernel, it dispatches through the tile table in
/// [`crate::config`], the one place the [`TileVariant`] rows meet the
/// `const`-generic instantiations. Callers that dispatch per micro-tile
/// (tests, one-off products, probes) use this, while the hot path in
/// [`crate::driver::BlockedDriver`] dispatches once per kernel call and stays
/// monomorphic through the whole blocked loop nest.
#[inline]
pub fn microkernel_dyn(tile: TileVariant, kb: usize, ap: &[f64], bp: &[f64], acc: &mut [f64]) {
    with_tile!(tile, MR, NR => microkernel::<MR, NR>(kb, ap, bp, acc));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MAX_TILE_ACC;
    use crate::pack::{pack_a, pack_b};

    #[test]
    fn every_variant_matches_reference_product() {
        // op(A) is mr x kb, op(B) is kb x nr; small deterministic values.
        let kb = 5;
        let a = |i: usize, p: usize| (i as f64 + 1.0) * 0.5 + p as f64;
        let b = |p: usize, j: usize| (p as f64 - 1.5) * (j as f64 + 0.25);
        for tile in TileVariant::ALL {
            let (mr, nr) = (tile.mr(), tile.nr());
            let mut ap = Vec::new();
            let mut bp = Vec::new();
            pack_a(mr, mr, kb, a, &mut ap);
            pack_b(nr, kb, nr, b, &mut bp);
            let mut acc = vec![f64::NAN; tile.acc_len()];
            microkernel_dyn(tile, kb, &ap, &bp, &mut acc);
            for r in 0..mr {
                for c in 0..nr {
                    let expected: f64 = (0..kb).map(|p| a(r, p) * b(p, c)).sum();
                    assert!(
                        (acc[c * mr + r] - expected).abs() < 1e-12,
                        "{tile} mismatch at ({r},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_depth_clears_accumulator_for_every_variant() {
        for tile in TileVariant::ALL {
            let mut acc = [7.0; MAX_TILE_ACC];
            microkernel_dyn(tile, 0, &[], &[], &mut acc);
            assert!(acc[..tile.acc_len()].iter().all(|&x| x == 0.0), "{tile}");
            // Slack beyond the variant's accumulator stays untouched.
            assert!(acc[tile.acc_len()..].iter().all(|&x| x == 7.0), "{tile}");
        }
    }

    #[test]
    fn depth_one_is_outer_product() {
        for tile in TileVariant::ALL {
            let (mr, nr) = (tile.mr(), tile.nr());
            let mut ap = Vec::new();
            let mut bp = Vec::new();
            pack_a(mr, mr, 1, |i, _| i as f64, &mut ap);
            pack_b(nr, 1, nr, |_, j| (j + 1) as f64, &mut bp);
            let mut acc = vec![0.0; tile.acc_len()];
            microkernel_dyn(tile, 1, &ap, &bp, &mut acc);
            for r in 0..mr {
                for c in 0..nr {
                    assert_eq!(acc[c * mr + r], (r as f64) * (c as f64 + 1.0), "{tile}");
                }
            }
        }
    }
}
