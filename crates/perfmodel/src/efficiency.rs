//! Analytic kernel-efficiency models.
//!
//! The execution time of a kernel call is `flops / (peak · efficiency)`, so
//! everything interesting about a machine+library combination is captured by
//! the *shape* of the efficiency surface. The analytic model below reproduces
//! the qualitative features the paper identifies as the drivers of anomalies
//! (Sections 3.1, 4.1.3, 4.2.3):
//!
//! 1. efficiency ramps up with every operand dimension and saturates
//!    (Figure 1);
//! 2. on large square operands GEMM, SYRK and SYMM are close, with GEMM on
//!    top (Figure 1), but for *small symmetric orders* SYRK and SYMM fall far
//!    behind GEMM — which is exactly the regime in which the paper's
//!    `A·Aᵀ·B` anomalies are abundant (Figure 11: for small `d0` the
//!    GEMM-based Algorithms 3/4 are fastest while the SYRK/SYMM-based
//!    Algorithms 1/2 are cheapest);
//! 3. the library switches internal algorithmic variants at certain sizes,
//!    producing *abrupt* efficiency changes (the first transition type of
//!    Figures 8 and 11);
//! 4. away from switch points the surface changes smoothly (the second,
//!    gradual transition type).

use lamb_expr::KernelOp;

/// Saturating ramp `x / (x + half)`: 0 at zero size, 0.5 at `half`, → 1.
fn ramp(x: usize, half: f64) -> f64 {
    let x = x as f64;
    x / (x + half)
}

/// A kernel-efficiency model: maps a kernel call (with its dimensions) to an
/// efficiency in `(0, 1]`.
pub trait EfficiencyModel: Send + Sync {
    /// Efficiency of the given operation.
    fn efficiency(&self, op: &KernelOp) -> f64;

    /// Efficiency of GEMM on square operands of the given order — the curve
    /// plotted in the paper's Figure 1.
    fn square_gemm_efficiency(&self, size: usize) -> f64 {
        self.efficiency(&KernelOp::Gemm {
            transa: lamb_matrix::Trans::No,
            transb: lamb_matrix::Trans::No,
            m: size,
            n: size,
            k: size,
        })
    }
}

/// Parameters of the analytic ramp/plateau efficiency surfaces.
///
/// GEMM has its own absolute surface; every other compute kernel is one
/// `Surface` row *relative* to the GEMM surface of the corresponding shape
/// — small for small structured orders and slightly below 1 for large ones,
/// reproducing Figure 1's "small but noticeable" gaps on large squares and
/// the large gaps at small `d0` that drive the `A·Aᵀ·B` anomalies.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticEfficiencyModel {
    /// Asymptotic efficiency of GEMM.
    pub gemm_max: f64,
    /// Half-saturation sizes of GEMM in the `m`, `n` and `k` dimensions.
    pub gemm_half: (f64, f64, f64),
    /// Whether abrupt internal-variant switches are modelled.
    pub variant_switches: bool,
}

impl Default for AnalyticEfficiencyModel {
    fn default() -> Self {
        AnalyticEfficiencyModel {
            gemm_max: 0.93,
            gemm_half: (30.0, 30.0, 46.0),
            variant_switches: true,
        }
    }
}

/// The efficiency surface of one structured kernel, relative to the GEMM of
/// its GEMM-equivalent shape — `Surface(rel, order_switch, other_switch)`:
///
/// * `rel = (base, gain, half)`: a smooth ramp `base + gain · ramp(order,
///   half)` in the structured order;
/// * two `(threshold, factor)` switches, the sizes below which the library's
///   internal variant choice costs a factor: one in the structured order, one
///   in the other dimension (panel depth, right-hand-side width; the
///   factorisations switch on their order twice).
struct Surface((f64, f64, f64), (usize, f64), (usize, f64));

/// SYRK switches on the order of the triangular result and on the panel
/// depth.
const SYRK: Surface = Surface((0.30, 0.64, 420.0), (256, 0.92), (128, 0.93));

/// SYMM switches on the order of the symmetric operand and on the width of
/// the other one.
const SYMM: Surface = Surface((0.45, 0.49, 350.0), (192, 0.93), (32, 0.84));

/// TRMM falls back to an unblocked path for small triangles and thin
/// right-hand sides.
const TRMM: Surface = Surface((0.38, 0.56, 390.0), (224, 0.91), (32, 0.85));

/// TRSM: the solve's sequential dependency chain keeps it further below GEMM
/// than any other multiplication kernel, especially at small orders — the
/// regime where its halved FLOP count is most thoroughly defeated by its
/// lower FLOP rate (the anomaly mechanism of the triangular family). The
/// substitution recurrence limits blocking, so its switches bite harder and
/// earlier than TRMM's.
const TRSM: Surface = Surface((0.22, 0.62, 520.0), (320, 0.88), (48, 0.82));

/// POTRF: the recursive dependency structure (panel solves feeding trailing
/// updates) keeps its FLOP rate below every multiplication kernel at small
/// and mid-sized orders — so the `n³/3` FLOP saving of a Cholesky-based SPD
/// solve need not translate into a time saving, the anomaly mechanism of the
/// SPD family. It switches from a blocked right-looking path to an unblocked
/// one below a crossover order.
const POTRF: Surface = Surface((0.18, 0.64, 560.0), (384, 0.89), (64, 0.80));

/// GETRF: partial pivoting adds row searches and swaps on top of POTRF-style
/// panel/update recursion, so the LU rate sits slightly below POTRF's at
/// every order, with a deeper small-order penalty from the pivot searches.
const GETRF: Surface = Surface((0.17, 0.63, 580.0), (384, 0.90), (64, 0.78));

/// QR, in the reflector count: Householder panel factorisation is dominated
/// by skinny rank-1-ish updates until the blocked compact-WY trailing update
/// takes over, so QR ramps latest of all the factorisations.
const QR: Surface = Surface((0.15, 0.62, 640.0), (320, 0.90), (48, 0.80));

/// ORMQR, in the reflector count and the right-hand-side width: blocked
/// reflector application is GEMM-rich, so it sits well above the
/// factorisations but below GEMM.
const ORMQR: Surface = Surface((0.34, 0.58, 360.0), (256, 0.92), (32, 0.85));

impl AnalyticEfficiencyModel {
    /// The default model but with the abrupt variant-switch discontinuities
    /// disabled, leaving only smooth ramps. Used by the ablation bench that
    /// separates the two transition types of Figures 8/11.
    #[must_use]
    pub fn smooth() -> Self {
        AnalyticEfficiencyModel {
            variant_switches: false,
            ..AnalyticEfficiencyModel::default()
        }
    }

    /// The GEMM efficiency surface (including variant switches).
    #[must_use]
    pub fn gemm_efficiency(&self, m: usize, n: usize, k: usize) -> f64 {
        self.gemm_max
            * ramp(m, self.gemm_half.0)
            * ramp(n, self.gemm_half.1)
            * ramp(k, self.gemm_half.2)
            * self.gemm_variant_factor(m, n, k)
    }

    /// Multiplicative factor modelling the library's internal variant choice
    /// for GEMM. The thresholds are in the inner dimension `k` (panel depth)
    /// and the output shape, mimicking a library that switches between a
    /// copy-based packed kernel and small-dimension special cases.
    fn gemm_variant_factor(&self, m: usize, n: usize, k: usize) -> f64 {
        if !self.variant_switches {
            return 1.0;
        }
        let mut f = 1.0;
        if k < 96 {
            f *= 0.86;
        } else if k < 224 {
            f *= 0.95;
        }
        if n < 24 {
            f *= 0.82;
        }
        if m < 24 {
            f *= 0.88;
        }
        f
    }

    /// A structured kernel's efficiency: the GEMM surface at its
    /// GEMM-equivalent `(m, n, k)`, times the row's ramp in `order`, times
    /// its variant switches in `order` and `other`.
    fn structured(
        &self,
        surface: &Surface,
        (m, n, k): (usize, usize, usize),
        order: usize,
        other: usize,
    ) -> f64 {
        let Surface((base, gain, half), order_switch, other_switch) = *surface;
        let mut variant = 1.0;
        if self.variant_switches {
            for (dim, (threshold, factor)) in [(order, order_switch), (other, other_switch)] {
                if dim < threshold {
                    variant *= factor;
                }
            }
        }
        self.gemm_efficiency(m, n, k) * (base + gain * ramp(order, half)) * variant
    }
}

impl EfficiencyModel for AnalyticEfficiencyModel {
    fn efficiency(&self, op: &KernelOp) -> f64 {
        // The sided kernels depend on the structured order and the width of
        // the rectangular operand, whichever side the structured operand
        // multiplies from: the right-side surfaces mirror the left ones.
        let sided = |surface: &Surface| {
            let (order, other) = op.structured_dims().unwrap_or_default();
            self.structured(surface, (order, other, order), order, other)
        };
        let e = match *op {
            KernelOp::Gemm { m, n, k, .. } => self.gemm_efficiency(m, n, k),
            KernelOp::Syrk { n, k, .. } => self.structured(&SYRK, (n, n, k), n, k),
            KernelOp::Symm { .. } => sided(&SYMM),
            KernelOp::Trmm { .. } => sided(&TRMM),
            KernelOp::Trsm { .. } => sided(&TRSM),
            KernelOp::Potrf { n, .. } => self.structured(&POTRF, (n, n, n), n, n),
            KernelOp::Getrf { n } => self.structured(&GETRF, (n, n, n), n, n),
            KernelOp::Qr { m, n } => self.structured(&QR, (m, n, n), n, n),
            KernelOp::Ormqr { m, n, k } => self.structured(&ORMQR, (m, k, n), n, k),
            // The data-movement ops have no floating-point work; report a
            // nominal efficiency so callers never divide by zero.
            KernelOp::CopyTriangle { .. }
            | KernelOp::FactorTri { .. }
            | KernelOp::PivotApply { .. } => 1.0,
        };
        e.clamp(1.0e-4, 1.0)
    }
}

/// Efficiency surface of the *reference* backend
/// ([`crate::ReferenceBackend`]): unblocked scalar loops for the BLAS-3
/// multiplication family, everything else delegated to the native blocked
/// kernels.
///
/// The naive loops have no packing, no dispatch and no threading overhead, so
/// at very small operands they *beat* the blocked path (whose efficiency
/// collapses under its fixed costs there) — but they never block for cache,
/// so their rate decays towards a low memory-bound floor as the operands
/// outgrow it. That real crossover is what per-call backend selection
/// exploits: a plan can route a tiny triangular update through the reference
/// loops while the large trailing GEMM stays on the native backend.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceEfficiencyModel {
    /// The native surface used for the delegated kernels (factorisations and
    /// data movement, which the reference backend runs natively anyway).
    pub native: AnalyticEfficiencyModel,
    /// Asymptotic (cache-thrashing) efficiency of the scalar loops.
    pub floor: f64,
    /// Extra efficiency at vanishing size, where the absence of packing and
    /// dispatch overhead dominates.
    pub small_gain: f64,
    /// Half-decay work order of the small-size advantage.
    pub half: f64,
}

impl Default for ReferenceEfficiencyModel {
    fn default() -> Self {
        ReferenceEfficiencyModel {
            native: AnalyticEfficiencyModel::default(),
            floor: 0.008,
            small_gain: 0.052,
            half: 200.0,
        }
    }
}

impl EfficiencyModel for ReferenceEfficiencyModel {
    fn efficiency(&self, op: &KernelOp) -> f64 {
        match op {
            KernelOp::Gemm { .. }
            | KernelOp::Syrk { .. }
            | KernelOp::Symm { .. }
            | KernelOp::Trmm { .. }
            | KernelOp::Trsm { .. } => {
                // One flat surface in the *work order* (the cube root of the
                // multiply-add count): scalar loops have no shape-dependent
                // blocking, so only the total volume of work matters.
                let order = ((op.flops().max(2) as f64) / 2.0).cbrt();
                (self.floor + self.small_gain * self.half / (order + self.half)).clamp(1.0e-4, 1.0)
            }
            _ => self.native.efficiency(op),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamb_matrix::{Side, Trans, Uplo};

    fn gemm_op(m: usize, n: usize, k: usize) -> KernelOp {
        KernelOp::Gemm {
            transa: Trans::No,
            transb: Trans::No,
            m,
            n,
            k,
        }
    }

    fn syrk_op(n: usize, k: usize) -> KernelOp {
        KernelOp::Syrk {
            uplo: Uplo::Lower,
            trans: Trans::No,
            n,
            k,
        }
    }

    fn symm_op(m: usize, n: usize) -> KernelOp {
        KernelOp::Symm {
            side: Side::Left,
            uplo: Uplo::Lower,
            m,
            n,
        }
    }

    #[test]
    fn efficiency_is_bounded_and_monotone_in_size() {
        let model = AnalyticEfficiencyModel::default();
        let mut last = 0.0;
        for size in [8, 32, 128, 512, 1024, 2048, 3000] {
            let e = model.square_gemm_efficiency(size);
            assert!(e > 0.0 && e <= 1.0);
            assert!(
                e >= last,
                "square GEMM efficiency must not decrease with size"
            );
            last = e;
        }
        assert!(
            last > 0.8,
            "large square GEMM should run near peak, got {last}"
        );
    }

    #[test]
    fn gemm_dominates_syrk_and_symm_on_squares() {
        // Figure 1: GEMM is the most efficient kernel; SYRK and SYMM trail.
        let model = AnalyticEfficiencyModel::default();
        for size in [100, 300, 600, 1000, 2000] {
            let g = model.efficiency(&gemm_op(size, size, size));
            let s = model.efficiency(&syrk_op(size, size));
            let y = model.efficiency(&symm_op(size, size));
            assert!(g > s, "size {size}: gemm {g} vs syrk {s}");
            assert!(g > y, "size {size}: gemm {g} vs symm {y}");
        }
    }

    #[test]
    fn gap_is_small_on_large_squares_but_large_for_small_symmetric_orders() {
        let model = AnalyticEfficiencyModel::default();
        // Figure 1: at size 3000 the three kernels are within ~15% of each other.
        let g = model.efficiency(&gemm_op(3000, 3000, 3000));
        let s = model.efficiency(&syrk_op(3000, 3000));
        let y = model.efficiency(&symm_op(3000, 3000));
        assert!(s / g > 0.82, "syrk/gemm ratio at 3000: {}", s / g);
        assert!(y / g > 0.82, "symm/gemm ratio at 3000: {}", y / g);
        // Figure 11 regime: for a small symmetric order the symmetric kernels
        // lose a large fraction of GEMM's efficiency.
        let g_small = model.efficiency(&gemm_op(80, 80, 800));
        let s_small = model.efficiency(&syrk_op(80, 800));
        assert!(s_small / g_small < 0.75, "ratio {}", s_small / g_small);
        let g_small2 = model.efficiency(&gemm_op(80, 800, 80));
        let y_small = model.efficiency(&symm_op(80, 800));
        assert!(y_small / g_small2 < 0.80, "ratio {}", y_small / g_small2);
    }

    fn trmm_op(m: usize, n: usize) -> KernelOp {
        KernelOp::Trmm {
            side: Side::Left,
            uplo: Uplo::Lower,
            trans: Trans::No,
            m,
            n,
        }
    }

    fn trsm_op(m: usize, n: usize) -> KernelOp {
        KernelOp::Trsm {
            side: Side::Left,
            uplo: Uplo::Lower,
            trans: Trans::No,
            m,
            n,
        }
    }

    #[test]
    fn gemm_dominates_the_triangular_kernels() {
        let model = AnalyticEfficiencyModel::default();
        for size in [100, 300, 600, 1000, 2000] {
            let g = model.efficiency(&gemm_op(size, size, size));
            let tm = model.efficiency(&trmm_op(size, size));
            let ts = model.efficiency(&trsm_op(size, size));
            assert!(g > tm, "size {size}: gemm {g} vs trmm {tm}");
            assert!(tm > ts, "size {size}: trmm {tm} vs trsm {ts}");
        }
    }

    #[test]
    fn small_triangular_orders_defeat_the_halved_flop_count() {
        // The anomaly mechanism of the triangular family: at small orders the
        // structured kernels' FLOP *rate* is less than half of GEMM's, so
        // performing 2x the FLOPs through GEMM is predicted faster.
        let model = AnalyticEfficiencyModel::default();
        let m = 72;
        let n = 700;
        let t = |flops: f64, eff: f64| flops / eff;
        let via_trmm = t((m * m * n) as f64, model.efficiency(&trmm_op(m, n)));
        let via_gemm = t((2 * m * m * n) as f64, model.efficiency(&gemm_op(m, n, m)));
        assert!(
            via_gemm < via_trmm,
            "small-order GEMM should beat TRMM: {via_gemm} vs {via_trmm}"
        );
        // At large orders the structured kernel wins, as it should.
        let m = 2000;
        let via_trmm = t((m * m * n) as f64, model.efficiency(&trmm_op(m, n)));
        let via_gemm = t((2 * m * m * n) as f64, model.efficiency(&gemm_op(m, n, m)));
        assert!(via_trmm < via_gemm);
    }

    fn potrf_op(n: usize) -> KernelOp {
        KernelOp::Potrf {
            uplo: Uplo::Lower,
            n,
        }
    }

    #[test]
    fn potrf_trails_every_multiplication_kernel() {
        let model = AnalyticEfficiencyModel::default();
        for size in [100, 300, 600, 1000, 2000] {
            let g = model.efficiency(&gemm_op(size, size, size));
            let ts = model.efficiency(&trsm_op(size, size));
            let p = model.efficiency(&potrf_op(size));
            assert!(g > p, "size {size}: gemm {g} vs potrf {p}");
            assert!(ts > p, "size {size}: trsm {ts} vs potrf {p}");
            assert!(p > 0.0 && p <= 1.0);
        }
        // The surface still ramps with size.
        assert!(model.efficiency(&potrf_op(2000)) > model.efficiency(&potrf_op(100)));
    }

    #[test]
    fn small_spd_solves_can_defeat_the_cholesky_flop_savings() {
        // The anomaly mechanism of the SPD family, mirroring the triangular
        // one: at small orders the factor-and-solve pipeline's FLOP rate is
        // so much lower than GEMM's that orderings which shrink the solve's
        // right-hand-side count (fewer FLOPs) are not the fastest.
        let model = AnalyticEfficiencyModel::default();
        let n = 64;
        let wide = 700;
        let t = |flops: f64, eff: f64| flops / eff;
        // Narrow solve (few right-hand sides): FLOP-cheap but rate-poor.
        let narrow_rhs = 8;
        let solve_narrow = t(
            (2 * n * n * narrow_rhs) as f64,
            model.efficiency(&trsm_op(n, narrow_rhs)),
        );
        // Wide solve: more FLOPs, but the kernel runs much closer to its
        // asymptotic rate.
        let solve_wide = t(
            (2 * n * n * wide) as f64,
            model.efficiency(&trsm_op(n, wide)),
        );
        let per_flop_narrow = solve_narrow / (2 * n * n * narrow_rhs) as f64;
        let per_flop_wide = solve_wide / (2 * n * n * wide) as f64;
        assert!(
            per_flop_narrow > per_flop_wide * 1.1,
            "narrow solves must be rate-poor: {per_flop_narrow} vs {per_flop_wide}"
        );
    }

    #[test]
    fn variant_switch_creates_abrupt_change() {
        let model = AnalyticEfficiencyModel::default();
        let below = model.efficiency(&gemm_op(500, 500, 95));
        let above = model.efficiency(&gemm_op(500, 500, 96));
        // Crossing k = 96 removes the 0.86 penalty: a visible jump.
        assert!(
            above / below > 1.05,
            "expected a jump, got {below} -> {above}"
        );
        let smooth = AnalyticEfficiencyModel::smooth();
        let below_s = smooth.efficiency(&gemm_op(500, 500, 95));
        let above_s = smooth.efficiency(&gemm_op(500, 500, 96));
        assert!((above_s / below_s) < 1.02, "smooth model must not jump");
    }

    #[test]
    fn skinny_shapes_are_less_efficient_than_square_of_equal_flops() {
        let model = AnalyticEfficiencyModel::default();
        let square = model.efficiency(&gemm_op(400, 400, 400));
        let skinny = model.efficiency(&gemm_op(6400, 400, 25));
        assert!(square > skinny);
    }

    #[test]
    fn general_factorisations_trail_gemm_and_ramp_with_size() {
        let model = AnalyticEfficiencyModel::default();
        for size in [100, 300, 600, 1000, 2000] {
            let g = model.efficiency(&gemm_op(size, size, size));
            let lu = model.efficiency(&KernelOp::Getrf { n: size });
            let qr = model.efficiency(&KernelOp::Qr { m: size, n: size });
            let mq = model.efficiency(&KernelOp::Ormqr {
                m: size,
                n: size,
                k: size,
            });
            assert!(g > lu, "size {size}: gemm {g} vs getrf {lu}");
            assert!(g > qr, "size {size}: gemm {g} vs qr {qr}");
            assert!(g > mq, "size {size}: gemm {g} vs ormqr {mq}");
            // Reflector application is GEMM-rich; the factorisations are not.
            assert!(mq > lu, "size {size}: ormqr {mq} vs getrf {lu}");
            assert!(mq > qr, "size {size}: ormqr {mq} vs qr {qr}");
        }
        // Both surfaces still ramp with size.
        assert!(
            model.efficiency(&KernelOp::Getrf { n: 2000 })
                > model.efficiency(&KernelOp::Getrf { n: 100 })
        );
        assert!(
            model.efficiency(&KernelOp::Qr { m: 2000, n: 2000 })
                > model.efficiency(&KernelOp::Qr { m: 100, n: 100 })
        );
        // The zero-FLOP movement ops report nominal efficiency.
        assert_eq!(
            model.efficiency(&KernelOp::FactorTri {
                uplo: Uplo::Lower,
                n: 64
            }),
            1.0
        );
        assert_eq!(
            model.efficiency(&KernelOp::PivotApply {
                side: Side::Left,
                m: 64,
                n: 8
            }),
            1.0
        );
    }

    #[test]
    fn copy_triangle_has_nominal_efficiency() {
        let model = AnalyticEfficiencyModel::default();
        assert_eq!(
            model.efficiency(&KernelOp::CopyTriangle {
                uplo: Uplo::Lower,
                n: 100
            }),
            1.0
        );
    }

    #[test]
    fn symm_right_side_uses_the_symmetric_dimension() {
        let model = AnalyticEfficiencyModel::default();
        let left = model.efficiency(&KernelOp::Symm {
            side: Side::Left,
            uplo: Uplo::Lower,
            m: 800,
            n: 50,
        });
        let right = model.efficiency(&KernelOp::Symm {
            side: Side::Right,
            uplo: Uplo::Lower,
            m: 50,
            n: 800,
        });
        // Both have an 800-order symmetric operand and a 50-wide other
        // operand, so the model treats them identically.
        assert!((left - right).abs() < 1e-12);
    }

    #[test]
    fn triangular_right_sides_mirror_the_left_surfaces() {
        // B·L (m x n, triangle of order n) must price like L'·B' with the
        // triangle of the same order and the same rectangular width.
        let model = AnalyticEfficiencyModel::default();
        let left = model.efficiency(&KernelOp::Trmm {
            side: Side::Left,
            uplo: Uplo::Lower,
            trans: Trans::No,
            m: 800,
            n: 50,
        });
        let right = model.efficiency(&KernelOp::Trmm {
            side: Side::Right,
            uplo: Uplo::Lower,
            trans: Trans::No,
            m: 50,
            n: 800,
        });
        assert!((left - right).abs() < 1e-12);
        let left_s = model.efficiency(&KernelOp::Trsm {
            side: Side::Left,
            uplo: Uplo::Upper,
            trans: Trans::No,
            m: 640,
            n: 70,
        });
        let right_s = model.efficiency(&KernelOp::Trsm {
            side: Side::Right,
            uplo: Uplo::Upper,
            trans: Trans::No,
            m: 70,
            n: 640,
        });
        assert!((left_s - right_s).abs() < 1e-12);
    }

    #[test]
    fn aatb_small_d0_regime_favours_gemm_algorithms_despite_more_flops() {
        // The mechanism behind the paper's Figure 11 centre/right columns:
        // with d0 = 80, algorithm 4 (gemm+gemm, 2·d0²(d1+d2) FLOPs) beats
        // algorithm 1 (syrk+symm, ~half the FLOPs on the first product) on
        // predicted time.
        let model = AnalyticEfficiencyModel::default();
        let (d0, d1, d2) = (80usize, 514usize, 768usize);
        let t = |flops: f64, eff: f64| flops / eff;
        // Algorithm 1: syrk (d0, k=d1) + symm (d0, n=d2).
        let alg1 = t(
            ((d0 + 1) * d0 * d1) as f64,
            model.efficiency(&syrk_op(d0, d1)),
        ) + t(
            (2 * d0 * d0 * d2) as f64,
            model.efficiency(&symm_op(d0, d2)),
        );
        // Algorithm 4: gemm (d0,d0,d1) + gemm (d0,d2,d0).
        let alg4 = t(
            (2 * d0 * d0 * d1) as f64,
            model.efficiency(&gemm_op(d0, d0, d1)),
        ) + t(
            (2 * d0 * d2 * d0) as f64,
            model.efficiency(&gemm_op(d0, d2, d0)),
        );
        assert!(
            alg4 < alg1 * 0.9,
            "alg4 should be >10% faster: alg1 {alg1}, alg4 {alg4}"
        );
    }

    #[test]
    fn reference_surface_crosses_the_native_surface_at_small_sizes() {
        // The backend-selection premise: the scalar reference loops win on
        // tiny operands (no packing/dispatch overhead) and lose decisively on
        // large ones (no cache blocking). Time ∝ flops/eff at equal FLOPs, so
        // comparing efficiencies compares times.
        let native = AnalyticEfficiencyModel::default();
        let reference = ReferenceEfficiencyModel::default();
        assert!(
            reference.efficiency(&gemm_op(12, 12, 12)) > native.efficiency(&gemm_op(12, 12, 12))
        );
        assert!(
            native.efficiency(&gemm_op(400, 400, 400))
                > 4.0 * reference.efficiency(&gemm_op(400, 400, 400))
        );
        // The delegated family is priced exactly like the native backend.
        let potrf = KernelOp::Potrf {
            uplo: Uplo::Lower,
            n: 90,
        };
        assert_eq!(reference.efficiency(&potrf), native.efficiency(&potrf));
        // Bounded everywhere.
        for order in [1usize, 8, 64, 512, 4096] {
            let e = reference.efficiency(&gemm_op(order, order, order));
            assert!(e > 0.0 && e <= 1.0);
        }
    }
}
