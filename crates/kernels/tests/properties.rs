//! Property-based validation of the optimised kernels against the naive
//! reference, over randomly drawn shapes, transposition flags, scalars and
//! blocking configurations.

use lamb_kernels::pack::{pack_a, pack_b, packed_a_len, packed_b_len, Strided};
use lamb_kernels::{
    gemm, gemm_naive, getrf, getrf_naive, ormqr, ormqr_naive, potrf, potrf_naive, qr, qr_naive,
    symm, syrk, trmm, trmm_naive, trsm, trsm_naive, Backend, BlockConfig, KernelOp, NativeBackend,
    TileVariant,
};
use lamb_matrix::ops::{frobenius_norm, max_abs_diff, zero_opposite_triangle};
use lamb_matrix::random::{random_seeded, random_symmetric, random_triangular};
use lamb_matrix::{Matrix, MatrixError, Side, Trans, Uplo};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn trans_strategy() -> impl Strategy<Value = Trans> {
    prop_oneof![Just(Trans::No), Just(Trans::Yes)]
}

fn uplo_strategy() -> impl Strategy<Value = Uplo> {
    prop_oneof![Just(Uplo::Lower), Just(Uplo::Upper)]
}

fn side_strategy() -> impl Strategy<Value = Side> {
    prop_oneof![Just(Side::Left), Just(Side::Right)]
}

fn tile_strategy() -> impl Strategy<Value = TileVariant> {
    (0..TileVariant::ALL.len()).prop_map(|i| TileVariant::ALL[i])
}

fn config_strategy() -> impl Strategy<Value = BlockConfig> {
    // Every blocking regime crossed with every register-tile variant, so each
    // kernel property exercises each micro-kernel instantiation.
    (
        prop_oneof![
            Just(BlockConfig::tiny()),
            Just(BlockConfig::serial()),
            Just(BlockConfig {
                parallel_flop_threshold: 1,
                ..BlockConfig::default()
            }),
        ],
        tile_strategy(),
    )
        .prop_map(|(base, tile)| base.with_tile(tile))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gemm_matches_naive(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        transa in trans_strategy(),
        transb in trans_strategy(),
        cfg in config_strategy(),
        seed in 0u64..10_000,
    ) {
        let (ar, ac) = transa.apply((m, k));
        let (br, bc) = transb.apply((k, n));
        let a = random_seeded(ar, ac, seed);
        let b = random_seeded(br, bc, seed.wrapping_add(1));
        let c0 = random_seeded(m, n, seed.wrapping_add(2));
        let mut c_fast = c0.clone();
        let mut c_ref = c0;
        gemm(transa, transb, 1.5, &a.view(), &b.view(), -0.5, &mut c_fast.view_mut(), &cfg).unwrap();
        gemm_naive(transa, transb, 1.5, &a.view(), &b.view(), -0.5, &mut c_ref.view_mut()).unwrap();
        prop_assert!(max_abs_diff(&c_fast, &c_ref).unwrap() < 1e-11 * k as f64);
    }

    #[test]
    fn strided_and_accessor_packing_agree(
        rows in 0usize..40,
        cols in 0usize..40,
        (r0, c0) in (0usize..4, 0usize..4),
        slack in 0usize..3,
        trans in trans_strategy(),
        seed in 0u64..10_000,
    ) {
        // A `rows x cols` logical block op(X), X a window of a larger parent
        // (so `ld > rows` whenever `r0 + slack > 0`), packed once from the
        // strided window and once through a bounds-checked accessor. Extents
        // run from zero and are rarely multiples of any tile.
        let (sr, sc) = trans.apply((rows, cols));
        let parent = random_seeded(r0 + sr + slack, c0 + sc, seed);
        let x = parent.subview(r0, c0, sr, sc);
        let strided = Strided::new(&x, trans);
        let accessor = |i: usize, j: usize| match trans {
            Trans::No => x.at(i, j),
            Trans::Yes => x.at(j, i),
        };
        let bits = |buf: &[f64]| buf.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (mut fast, mut slow) = (vec![f64::NAN; 7], Vec::new());
        for tile in TileVariant::ALL {
            let (mr, nr) = (tile.mr(), tile.nr());
            pack_a(mr, rows, cols, strided, &mut fast);
            pack_a(mr, rows, cols, accessor, &mut slow);
            prop_assert_eq!(fast.len(), packed_a_len(mr, rows, cols));
            prop_assert_eq!(bits(&fast), bits(&slow));
            pack_b(nr, rows, cols, strided, &mut fast);
            pack_b(nr, rows, cols, accessor, &mut slow);
            prop_assert_eq!(fast.len(), packed_b_len(nr, rows, cols));
            prop_assert_eq!(bits(&fast), bits(&slow));
            // An offset window against a shifted accessor.
            let (di, dj) = (rows / 3, cols / 2);
            pack_a(mr, rows - di, cols - dj, strided.offset(di, dj), &mut fast);
            pack_a(mr, rows - di, cols - dj, |i, j| accessor(di + i, dj + j), &mut slow);
            prop_assert_eq!(bits(&fast), bits(&slow));
            pack_b(nr, rows - di, cols - dj, strided.offset(di, dj), &mut fast);
            pack_b(nr, rows - di, cols - dj, |i, j| accessor(di + i, dj + j), &mut slow);
            prop_assert_eq!(bits(&fast), bits(&slow));
        }
    }

    #[test]
    fn syrk_matches_gemm_on_triangle(
        n in 1usize..32,
        k in 1usize..32,
        uplo in uplo_strategy(),
        trans in trans_strategy(),
        cfg in config_strategy(),
        seed in 0u64..10_000,
    ) {
        let (ar, ac) = trans.apply((n, k));
        let a = random_seeded(ar, ac, seed);
        let mut c_syrk = Matrix::zeros(n, n);
        syrk(uplo, trans, 1.0, &a.view(), 0.0, &mut c_syrk.view_mut(), &cfg).unwrap();
        let mut full = Matrix::zeros(n, n);
        gemm_naive(trans, trans.flip(), 1.0, &a.view(), &a.view(), 0.0, &mut full.view_mut()).unwrap();
        for i in 0..n {
            for j in 0..n {
                if uplo.contains(i, j) {
                    prop_assert!((c_syrk[(i, j)] - full[(i, j)]).abs() < 1e-11 * k as f64);
                } else {
                    prop_assert_eq!(c_syrk[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn symm_matches_full_gemm(
        m in 1usize..32,
        n in 1usize..32,
        uplo in uplo_strategy(),
        cfg in config_strategy(),
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let full = random_symmetric(m, &mut rng);
        let mut stored = full.clone();
        zero_opposite_triangle(&mut stored, uplo).unwrap();
        let b = random_seeded(m, n, seed.wrapping_add(3));
        let mut c_symm = Matrix::zeros(m, n);
        symm(Side::Left, uplo, 1.0, &stored.view(), &b.view(), 0.0, &mut c_symm.view_mut(), &cfg).unwrap();
        let mut c_ref = Matrix::zeros(m, n);
        gemm_naive(Trans::No, Trans::No, 1.0, &full.view(), &b.view(), 0.0, &mut c_ref.view_mut()).unwrap();
        prop_assert!(max_abs_diff(&c_symm, &c_ref).unwrap() < 1e-11 * m as f64);
    }

    #[test]
    fn trmm_matches_naive(
        m in 1usize..40,
        n in 1usize..40,
        side in side_strategy(),
        uplo in uplo_strategy(),
        trans in trans_strategy(),
        cfg in config_strategy(),
        seed in 0u64..10_000,
    ) {
        let order = match side { Side::Left => m, Side::Right => n };
        let l = random_triangular(order, uplo, seed);
        let b = random_seeded(m, n, seed.wrapping_add(5));
        let mut fast = Matrix::zeros(m, n);
        trmm(side, uplo, trans, 1.5, &l.view(), &b.view(), &mut fast.view_mut(), &cfg).unwrap();
        let mut reference = Matrix::zeros(m, n);
        trmm_naive(side, uplo, trans, 1.5, &l.view(), &b.view(), &mut reference.view_mut()).unwrap();
        let norm = frobenius_norm(&reference).max(1.0);
        prop_assert!(max_abs_diff(&fast, &reference).unwrap() < 1e-10 * norm);
    }

    #[test]
    fn trsm_matches_naive(
        m in 1usize..40,
        n in 1usize..40,
        side in side_strategy(),
        uplo in uplo_strategy(),
        trans in trans_strategy(),
        cfg in config_strategy(),
        seed in 0u64..10_000,
    ) {
        // random_triangular is diagonally dominant, so the solves stay well
        // conditioned and the 1e-10·norm tolerance is meaningful.
        let order = match side { Side::Left => m, Side::Right => n };
        let l = random_triangular(order, uplo, seed);
        let b = random_seeded(m, n, seed.wrapping_add(7));
        let mut fast = Matrix::zeros(m, n);
        trsm(side, uplo, trans, -0.5, &l.view(), &b.view(), &mut fast.view_mut(), &cfg).unwrap();
        let mut reference = Matrix::zeros(m, n);
        trsm_naive(side, uplo, trans, -0.5, &l.view(), &b.view(), &mut reference.view_mut()).unwrap();
        let norm = frobenius_norm(&reference).max(1.0);
        prop_assert!(max_abs_diff(&fast, &reference).unwrap() < 1e-10 * norm);
    }

    #[test]
    fn trsm_undoes_trmm(
        m in 1usize..32,
        n in 1usize..32,
        side in side_strategy(),
        uplo in uplo_strategy(),
        trans in trans_strategy(),
        cfg in config_strategy(),
        seed in 0u64..10_000,
    ) {
        let order = match side { Side::Left => m, Side::Right => n };
        let l = random_triangular(order, uplo, seed);
        let b = random_seeded(m, n, seed.wrapping_add(11));
        let mut lb = Matrix::zeros(m, n);
        trmm(side, uplo, trans, 1.0, &l.view(), &b.view(), &mut lb.view_mut(), &cfg).unwrap();
        let mut recovered = Matrix::zeros(m, n);
        trsm(side, uplo, trans, 1.0, &l.view(), &lb.view(), &mut recovered.view_mut(), &cfg).unwrap();
        let norm = frobenius_norm(&b).max(1.0);
        prop_assert!(max_abs_diff(&recovered, &b).unwrap() < 1e-10 * norm);
    }

    #[test]
    fn getrf_matches_naive_and_reconstructs(
        n in 1usize..40,
        cfg in config_strategy(),
        seed in 0u64..10_000,
    ) {
        let a = random_seeded(n, n, seed);
        let mut blocked = a.clone();
        let mut naive = a.clone();
        let (mut pb, mut pn) = (Vec::new(), Vec::new());
        getrf(&mut blocked.view_mut(), &mut pb, &cfg).unwrap();
        getrf_naive(&mut naive.view_mut(), &mut pn).unwrap();
        prop_assert_eq!(&pb, &pn);
        let norm = frobenius_norm(&naive).max(1.0);
        prop_assert!(max_abs_diff(&blocked, &naive).unwrap() < 1e-10 * norm);
        // L·U reproduces P·A.
        let f = Matrix::from_fn(n, n + 1, |i, j| {
            if j < n { blocked[(i, j)] } else { pb[i] as f64 }
        });
        let l = NativeBackend.run_new(&KernelOp::FactorTri { uplo: Uplo::Lower, n }, &[&f], &cfg).unwrap();
        let u = NativeBackend.run_new(&KernelOp::FactorTri { uplo: Uplo::Upper, n }, &[&f], &cfg).unwrap();
        let left = KernelOp::PivotApply { side: Side::Left, m: n, n };
        let pa = NativeBackend.run_new(&left, &[&f, &a], &cfg).unwrap();
        let mut back = Matrix::zeros(n, n);
        gemm_naive(Trans::No, Trans::No, 1.0, &l.view(), &u.view(), 0.0, &mut back.view_mut()).unwrap();
        prop_assert!(max_abs_diff(&back, &pa).unwrap() < 1e-10 * frobenius_norm(&pa).max(1.0));
    }

    #[test]
    fn qr_matches_naive_and_is_orthogonal(
        m in 1usize..40,
        extra in 0usize..12,
        cfg in config_strategy(),
        seed in 0u64..10_000,
    ) {
        // Tall or square: n <= m by construction.
        let n = m.saturating_sub(extra).max(1);
        let a = random_seeded(m, n, seed);
        let mut blocked = a.clone();
        let mut naive = a.clone();
        let (mut tb, mut tn) = (Vec::new(), Vec::new());
        qr(&mut blocked.view_mut(), &mut tb, &cfg).unwrap();
        qr_naive(&mut naive.view_mut(), &mut tn).unwrap();
        let norm = frobenius_norm(&a).max(1.0);
        prop_assert!(max_abs_diff(&blocked, &naive).unwrap() < 1e-9 * norm);
        // ORMQR preserves Gram structure: (Qᵀa)ᵀ(Qᵀa) restricted to the top
        // n rows equals RᵀR = aᵀa (Q orthogonal and a in Q's column span).
        let f = NativeBackend.run_new(&KernelOp::Qr { m, n }, &[&a], &cfg).unwrap();
        let mut qta = Matrix::zeros(n, n);
        ormqr(&f, &a, &mut qta, &cfg).unwrap();
        let r = NativeBackend.run_new(&KernelOp::FactorTri { uplo: Uplo::Upper, n }, &[&f], &cfg).unwrap();
        prop_assert!(max_abs_diff(&qta, &r).unwrap() < 1e-9 * norm);
        let mut gram_a = Matrix::zeros(n, n);
        gemm_naive(Trans::Yes, Trans::No, 1.0, &a.view(), &a.view(), 0.0, &mut gram_a.view_mut()).unwrap();
        let mut gram_r = Matrix::zeros(n, n);
        gemm_naive(Trans::Yes, Trans::No, 1.0, &r.view(), &r.view(), 0.0, &mut gram_r.view_mut()).unwrap();
        prop_assert!(max_abs_diff(&gram_a, &gram_r).unwrap() < 1e-9 * norm * norm);
    }

    #[test]
    fn tile_variants_handle_partial_tiles(
        tile in tile_strategy(),
        mi in 0usize..4,
        ni in 0usize..4,
        mq in 1usize..4,
        nq in 1usize..4,
        k in 1usize..24,
        transa in trans_strategy(),
        transb in trans_strategy(),
        serial_blocks in prop_oneof![Just(false), Just(true)],
        seed in 0u64..10_000,
    ) {
        // Operand extents sit exactly on the register-tile edge cases: a
        // whole number of MR/NR tiles, one past, one short, and a single
        // tile plus one — the shapes where the masked partial-tile writeback
        // must not read or write out of range.
        let edge = |q: usize, t: usize, which: usize| match which {
            0 => q * t,                       // ≡ 0 (mod tile)
            1 => q * t + 1,                   // ≡ 1
            2 => (q * t).saturating_sub(1).max(1), // ≡ tile-1
            _ => t + 1,                       // tile+1
        };
        let m = edge(mq, tile.mr(), mi);
        let n = edge(nq, tile.nr(), ni);
        let cfg = if serial_blocks { BlockConfig::serial() } else { BlockConfig::tiny() }.with_tile(tile);
        let (ar, ac) = transa.apply((m, k));
        let (br, bc) = transb.apply((k, n));
        let a = random_seeded(ar, ac, seed);
        let b = random_seeded(br, bc, seed.wrapping_add(13));
        let c0 = random_seeded(m, n, seed.wrapping_add(14));
        let mut fast = c0.clone();
        let mut reference = c0;
        gemm(transa, transb, 2.0, &a.view(), &b.view(), 0.25, &mut fast.view_mut(), &cfg).unwrap();
        gemm_naive(transa, transb, 2.0, &a.view(), &b.view(), 0.25, &mut reference.view_mut()).unwrap();
        prop_assert!(max_abs_diff(&fast, &reference).unwrap() < 1e-11 * k as f64);
    }

    #[test]
    fn aatb_algorithm_variants_agree(
        d0 in 1usize..24,
        d1 in 1usize..24,
        d2 in 1usize..24,
        seed in 0u64..10_000,
    ) {
        // The five algorithm families of the paper's A·Aᵀ·B expression are
        // mathematically equivalent; verify their kernel realisations agree.
        let cfg = BlockConfig::serial();
        let a = random_seeded(d0, d1, seed);
        let b = random_seeded(d0, d2, seed.wrapping_add(9));

        let run = |op: KernelOp, inputs: &[&Matrix]| NativeBackend.run_new(&op, inputs, &cfg).unwrap();
        let gemm_op = |transa, transb, m, n, k| KernelOp::Gemm { transa, transb, m, n, k };
        let (uplo, no, yes) = (Uplo::Lower, Trans::No, Trans::Yes);
        // GEMM(A·Aᵀ) then GEMM(M·B).
        let m_full = run(gemm_op(no, yes, d0, d0, d1), &[&a, &a]);
        let x_gg = run(gemm_op(no, no, d0, d2, d0), &[&m_full, &b]);
        // SYRK then SYMM (triangle only).
        let tri = run(KernelOp::Syrk { uplo, trans: no, n: d0, k: d1 }, &[&a]);
        let x_ss = run(KernelOp::Symm { side: Side::Left, uplo, m: d0, n: d2 }, &[&tri, &b]);
        // SYRK, copy to full, then GEMM.
        let full_from_tri = run(KernelOp::CopyTriangle { uplo, n: d0 }, &[&tri]);
        let x_sg = run(gemm_op(no, no, d0, d2, d0), &[&full_from_tri, &b]);
        // GEMM(Aᵀ·B) then GEMM(A·M).
        let m_right = run(gemm_op(yes, no, d1, d2, d0), &[&a, &b]);
        let x_right = run(gemm_op(no, no, d0, d2, d1), &[&a, &m_right]);

        let tol = 1e-10 * (d0 * d1) as f64;
        prop_assert!(max_abs_diff(&x_gg, &x_ss).unwrap() < tol);
        prop_assert!(max_abs_diff(&x_gg, &x_sg).unwrap() < tol);
        prop_assert!(max_abs_diff(&x_gg, &x_right).unwrap() < tol);
    }

    #[test]
    fn chain_parenthesisations_agree(
        d0 in 1usize..16,
        d1 in 1usize..16,
        d2 in 1usize..16,
        d3 in 1usize..16,
        d4 in 1usize..16,
        seed in 0u64..10_000,
    ) {
        // All parenthesisations of A·B·C·D agree numerically (associativity).
        let cfg = BlockConfig::serial();
        let a = random_seeded(d0, d1, seed);
        let b = random_seeded(d1, d2, seed.wrapping_add(1));
        let c = random_seeded(d2, d3, seed.wrapping_add(2));
        let d = random_seeded(d3, d4, seed.wrapping_add(3));
        let g = |x: &Matrix, y: &Matrix| {
            let op = KernelOp::Gemm {
                transa: Trans::No,
                transb: Trans::No,
                m: x.rows(),
                n: y.cols(),
                k: x.cols(),
            };
            NativeBackend.run_new(&op, &[x, y], &cfg).unwrap()
        };
        let left = g(&g(&g(&a, &b), &c), &d); // ((AB)C)D
        let right = g(&a, &g(&b, &g(&c, &d))); // A(B(CD))
        let mid = g(&g(&a, &b), &g(&c, &d)); // (AB)(CD)
        let inner = g(&g(&a, &g(&b, &c)), &d); // (A(BC))D
        let tol = 1e-9 * (d1 * d2 * d3) as f64;
        prop_assert!(max_abs_diff(&left, &right).unwrap() < tol);
        prop_assert!(max_abs_diff(&left, &mid).unwrap() < tol);
        prop_assert!(max_abs_diff(&left, &inner).unwrap() < tol);
    }
}

/// The small-call rule's order under the default and serial blocking, for
/// every register tile: six tiles along the tile's longer side, at most 48.
const RULE: usize = 48;

/// The orders that sit on the edges of the small tier for `tile`: empty,
/// one, around a register tile in either direction, and around the rule.
fn small_orders(tile: TileVariant) -> Vec<usize> {
    let (mr, nr) = (tile.mr(), tile.nr());
    let mut orders = vec![0, 1, mr - 1, mr, mr + 1, nr - 1, nr, nr + 1];
    orders.extend([RULE - 1, RULE, RULE + 1]);
    orders.sort_unstable();
    orders.dedup();
    orders
}

/// Every register tile, serial and with the parallel split forced on.
fn small_tier_configs() -> Vec<BlockConfig> {
    let forced = BlockConfig {
        parallel_flop_threshold: 1,
        ..BlockConfig::default()
    };
    (TileVariant::ALL.iter())
        .flat_map(|&tile| {
            [
                BlockConfig::serial().with_tile(tile),
                forced.clone().with_tile(tile),
            ]
        })
        .collect()
}

/// `x` copied into the interior of a larger matrix: the window starts at
/// `(1, 2)` and its leading dimension exceeds its rows by three, so a kernel
/// that reads storage in place sees a stride it must honour.
fn windowed(x: &Matrix) -> Matrix {
    let (rows, cols) = x.shape();
    Matrix::from_fn(rows + 3, cols + 2, |i, j| {
        if (1..=rows).contains(&i) && (2..cols + 2).contains(&j) {
            x[(i - 1, j - 2)]
        } else {
            f64::NAN
        }
    })
}

/// The `rows x cols` window of a [`windowed`] matrix.
fn window(w: &Matrix, rows: usize, cols: usize) -> lamb_matrix::MatrixView<'_> {
    w.view().subview(1, 2, rows, cols)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn small_tier_products_match_naive_in_windows(
        tile_index in 0usize..TileVariant::ALL.len(),
        parallel in 0usize..2,
        picks in (0usize..16, 0usize..16, 0usize..16),
        transa in trans_strategy(),
        transb in trans_strategy(),
        uplo in uplo_strategy(),
        seed in 0u64..10_000,
    ) {
        let tile = TileVariant::ALL[tile_index];
        let cfg = small_tier_configs()[2 * tile_index + parallel].clone();
        let orders = small_orders(tile);
        let pick = |i: usize| orders[i % orders.len()];
        let (m, n, k) = (pick(picks.0), pick(picks.1), pick(picks.2));
        let (ar, ac) = transa.apply((m, k));
        let (br, bc) = transb.apply((k, n));
        let (a, b) = (random_seeded(ar, ac, seed), random_seeded(br, bc, seed + 1));
        let (wa, wb) = (windowed(&a), windowed(&b));
        let c0 = random_seeded(m, n, seed + 2);
        let mut wc = windowed(&c0);
        let mut full = wc.view_mut();
        let mut c = full.subview_mut(1, 2, m, n);
        gemm(transa, transb, 1.5, &window(&wa, ar, ac), &window(&wb, br, bc), -0.5, &mut c, &cfg).unwrap();
        let mut expected = c0.clone();
        gemm_naive(transa, transb, 1.5, &a.view(), &b.view(), -0.5, &mut expected.view_mut()).unwrap();
        let got = Matrix::from_fn(m, n, |i, j| wc[(i + 1, j + 2)]);
        prop_assert!(max_abs_diff(&got, &expected).unwrap() <= 1e-11 * k.max(1) as f64, "gemm {m}x{n}x{k} {tile}");
        // Outside the window nothing is written.
        prop_assert!(wc[(0, 0)].is_nan() && wc[(m + 1, n + 1)].is_nan());

        // SYRK writes one triangle of the window, from a window.
        let mut ws = windowed(&Matrix::zeros(m, m));
        let mut full = ws.view_mut();
        syrk(uplo, transa, 1.0, &window(&wa, ar, ac), 0.0, &mut full.subview_mut(1, 2, m, m), &cfg).unwrap();
        let mut sq = Matrix::zeros(m, m);
        gemm_naive(transa, transa.flip(), 1.0, &a.view(), &a.view(), 0.0, &mut sq.view_mut()).unwrap();
        for i in 0..m {
            for j in 0..m {
                let got = ws[(i + 1, j + 2)];
                if uplo.contains(i, j) {
                    prop_assert!((got - sq[(i, j)]).abs() <= 1e-11 * k.max(1) as f64, "syrk {m}x{k} {tile}");
                } else {
                    prop_assert_eq!(got, 0.0);
                }
            }
        }
    }

    #[test]
    fn small_tier_solves_match_naive_in_windows(
        tile_index in 0usize..TileVariant::ALL.len(),
        parallel in 0usize..2,
        picks in (0usize..16, 0usize..16),
        side in side_strategy(),
        uplo in uplo_strategy(),
        trans in trans_strategy(),
        seed in 0u64..10_000,
    ) {
        let tile = TileVariant::ALL[tile_index];
        let cfg = small_tier_configs()[2 * tile_index + parallel].clone();
        let orders = small_orders(tile);
        let (m, n) = (orders[picks.0 % orders.len()], orders[picks.1 % orders.len()]);
        let order = match side { Side::Left => m, Side::Right => n };
        let l = random_triangular(order, uplo, seed);
        let b = random_seeded(m, n, seed + 7);
        let (wl, wb) = (windowed(&l), windowed(&b));
        let mut wx = windowed(&Matrix::zeros(m, n));
        let mut full = wx.view_mut();
        let (lv, bv) = (window(&wl, order, order), window(&wb, m, n));
        trsm(side, uplo, trans, -0.5, &lv, &bv, &mut full.subview_mut(1, 2, m, n), &cfg).unwrap();
        let mut reference = Matrix::zeros(m, n);
        trsm_naive(side, uplo, trans, -0.5, &l.view(), &b.view(), &mut reference.view_mut()).unwrap();
        let got = Matrix::from_fn(m, n, |i, j| wx[(i + 1, j + 2)]);
        let norm = frobenius_norm(&reference).max(1.0);
        prop_assert!(max_abs_diff(&got, &reference).unwrap() < 1e-10 * norm, "trsm {side:?} {m}x{n} {tile}");
    }
}

/// POTRF, GETRF, QR and ORMQR at every order up to two past the rule, on
/// every tile, serial and forced-parallel, against their references — with
/// a bad pivot placed mid-matrix reported at its absolute index, and a zero
/// column giving `tau = 0`.
#[test]
fn small_tier_factorisations_match_naive_up_to_past_the_rule() {
    for cfg in small_tier_configs() {
        for n in 1..=RULE + 2 {
            let tol = 1e-10 * n as f64;
            for uplo in [Uplo::Lower, Uplo::Upper] {
                let a = lamb_matrix::random::random_spd(n, 40 + n as u64);
                let (mut fast, mut naive) = (a.clone(), a.clone());
                potrf(uplo, &mut fast.view_mut(), &cfg).unwrap();
                potrf_naive(uplo, &mut naive.view_mut()).unwrap();
                assert!(
                    max_abs_diff(&fast, &naive).unwrap() <= tol,
                    "potrf {uplo:?} {n} {cfg:?}"
                );
                let mut bad = a.clone();
                bad[(n / 2, n / 2)] = -1e6;
                let expected = Err(MatrixError::NotPositiveDefinite { index: n / 2 });
                assert_eq!(
                    potrf(uplo, &mut bad.view_mut(), &cfg),
                    expected,
                    "{n} {cfg:?}"
                );
            }

            let a = random_seeded(n, n, 60 + n as u64);
            let (mut fast, mut naive) = (a.clone(), a.clone());
            let (mut piv_fast, mut piv_naive) = (Vec::new(), Vec::new());
            getrf(&mut fast.view_mut(), &mut piv_fast, &cfg).unwrap();
            getrf_naive(&mut naive.view_mut(), &mut piv_naive).unwrap();
            assert_eq!(piv_fast, piv_naive, "getrf pivots {n} {cfg:?}");
            assert!(
                max_abs_diff(&fast, &naive).unwrap() <= tol,
                "getrf {n} {cfg:?}"
            );
            let mut singular = a.clone();
            singular.col_mut(n / 2).fill(0.0);
            let expected = Err(MatrixError::SingularDiagonal { index: n / 2 });
            assert_eq!(
                getrf(&mut singular.view_mut(), &mut Vec::new(), &cfg),
                expected
            );

            // Square, and tall by half; a zero column is the identity
            // reflector.
            for m in [n, n + n / 2] {
                let mut a = random_seeded(m, n, 70 + n as u64);
                a.col_mut(n / 2).fill(0.0);
                let (mut fast, mut naive) = (a.clone(), a.clone());
                let (mut tau_fast, mut tau_naive) = (Vec::new(), Vec::new());
                qr(&mut fast.view_mut(), &mut tau_fast, &cfg).unwrap();
                qr_naive(&mut naive.view_mut(), &mut tau_naive).unwrap();
                assert_eq!(tau_fast[n / 2], 0.0, "qr {m}x{n}: tau");
                assert!(
                    max_abs_diff(&fast, &naive).unwrap() <= tol * 2.0,
                    "qr {m}x{n} {cfg:?}"
                );
                let f = NativeBackend
                    .run_new(&KernelOp::Qr { m, n }, &[&a], &cfg)
                    .unwrap();
                for k in [1, n] {
                    let b = random_seeded(m, k, 80 + k as u64);
                    let (mut c_fast, mut c_naive) = (Matrix::zeros(n, k), Matrix::zeros(n, k));
                    ormqr(&f, &b, &mut c_fast, &cfg).unwrap();
                    ormqr_naive(&f, &b, &mut c_naive).unwrap();
                    let diff = max_abs_diff(&c_fast, &c_naive).unwrap();
                    assert!(diff <= tol * 2.0, "ormqr {m}x{n} k {k} {cfg:?}: {diff}");
                }
            }
        }
    }
}
