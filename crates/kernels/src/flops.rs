//! FLOP-count models for the kernels, exactly as defined in Section 3.1 of the
//! paper.
//!
//! * GEMM computing `A·B` with `A` of size `m x k` and `B` of size `k x n`
//!   costs `2·m·n·k` FLOPs.
//! * SYRK computing one triangle of `A·Aᵀ` with `A` of size `m x k` costs
//!   `(m + 1)·m·k` FLOPs.
//! * SYMM computing `A·B` with symmetric `A` of size `m x m` and `B` of size
//!   `m x n` costs `2·m²·n` FLOPs.
//!
//! The triangle-to-full copy used by Algorithm 2 of the `A·Aᵀ·B` expression
//! performs no floating-point operations; it is still modelled (with zero
//! FLOPs) so that executors can attribute time to it.
//!
//! Every count saturates at `u64::MAX`: it is evaluated exactly in `u128`
//! (itself saturating) and clamped, so dimensions near `usize::MAX` rank as
//! the most expensive calls instead of wrapping around to cheap ones.

/// `x`, or `u64::MAX` when it does not fit.
fn clamp(x: u128) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

/// `x` widened to `u128`, where `x + 1`, `2·x` and `3·x` fit.
fn wide(x: usize) -> u128 {
    x as u128
}

/// The product of `factors`, saturating.
fn product(factors: &[u128]) -> u128 {
    factors.iter().fold(1, |acc, &f| acc.saturating_mul(f))
}

/// FLOP count of `GEMM`: `C := A·B` with `A ∈ R^{m×k}`, `B ∈ R^{k×n}`.
#[must_use]
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    clamp(product(&[2, wide(m), wide(n), wide(k)]))
}

/// FLOP count of `SYRK`: one triangle of `A·Aᵀ` with `A ∈ R^{m×k}`.
#[must_use]
pub fn syrk_flops(m: usize, k: usize) -> u64 {
    clamp(product(&[wide(m) + 1, wide(m), wide(k)]))
}

/// FLOP count of `SYMM`: `A·B` with symmetric `A ∈ R^{m×m}`, `B ∈ R^{m×n}`.
#[must_use]
pub fn symm_flops(m: usize, n: usize) -> u64 {
    clamp(product(&[2, wide(m), wide(m), wide(n)]))
}

/// FLOP count of `TRMM`: `op(L)·B` with triangular `L ∈ R^{m×m}`,
/// `B ∈ R^{m×n}` — `m²·n`, half of the GEMM that ignores the structure.
#[must_use]
pub fn trmm_flops(m: usize, n: usize) -> u64 {
    clamp(product(&[wide(m), wide(m), wide(n)]))
}

/// FLOP count of `TRSM`: `op(L)⁻¹·B` with triangular `L ∈ R^{m×m}`,
/// `B ∈ R^{m×n}` — `m²·n`, the same count as the multiplication it inverts.
#[must_use]
pub fn trsm_flops(m: usize, n: usize) -> u64 {
    clamp(product(&[wide(m), wide(m), wide(n)]))
}

/// FLOP count of `POTRF`: the Cholesky factorisation of an SPD `A ∈ R^{n×n}`
/// — the Section-3.1-style leading-order count `n³/3`, one sixth of the
/// equal-order GEMM.
#[must_use]
pub fn potrf_flops(n: usize) -> u64 {
    clamp(product(&[wide(n), wide(n), wide(n)]) / 3)
}

/// FLOP count of `GETRF`: the partially pivoted LU factorisation of a general
/// `A ∈ R^{n×n}` — the Section-3.1-style leading-order count `2n³/3`, twice
/// the equal-order POTRF (both triangles are computed) and a third of the
/// equal-order GEMM.
#[must_use]
pub fn getrf_flops(n: usize) -> u64 {
    clamp(product(&[2, wide(n), wide(n), wide(n)]) / 3)
}

/// FLOP count of `QR` (Householder, `A ∈ R^{m×n}`, `m >= n`) — the
/// leading-order count `2mn² - 2n³/3`, computed as `2n²(3m - n)/3`.
/// Saturates (to zero contribution) rather than underflowing if `m < n`.
#[must_use]
pub fn qr_flops(m: usize, n: usize) -> u64 {
    let (m, n) = (wide(m), wide(n));
    clamp(product(&[2, n, n, (3 * m).saturating_sub(n)]) / 3)
}

/// FLOP count of `ORMQR`: applying `Qᵀ` from an `m x n` Householder QR factor
/// to `m x k` right-hand sides (keeping the top `n` rows) — the leading-order
/// count `4mnk - 2n²k`, computed as `2nk(2m - n)`. Saturates if `m < n`.
#[must_use]
pub fn ormqr_flops(m: usize, n: usize, k: usize) -> u64 {
    let (m, n) = (wide(m), wide(n));
    clamp(product(&[2, n, wide(k), (2 * m).saturating_sub(n)]))
}

/// FLOP count of extracting an explicit triangular factor from a packed
/// factor operand (zero: pure data movement, like the triangle copy).
#[must_use]
pub fn factor_triangle_flops(_n: usize) -> u64 {
    0
}

/// Number of matrix elements written by extracting an `n x n` triangular
/// factor from a packed factor operand (the populated triangle including the
/// diagonal; the opposite triangle's zeros are calloc-free).
#[must_use]
pub fn factor_triangle_elements(n: usize) -> u64 {
    clamp(product(&[wide(n), wide(n) + 1]) / 2)
}

/// FLOP count of applying a recorded pivot permutation to `m x n` right-hand
/// sides (zero: row swaps move data but perform no arithmetic).
#[must_use]
pub fn pivot_apply_flops(_m: usize, _n: usize) -> u64 {
    0
}

/// Number of matrix elements moved by applying a pivot permutation to an
/// `m x n` operand (every element is placed once).
#[must_use]
pub fn pivot_apply_elements(m: usize, n: usize) -> u64 {
    clamp(product(&[wide(m), wide(n)]))
}

/// FLOP count of copying one triangle of an `n x n` matrix into the other
/// triangle (zero: it moves data but performs no floating-point arithmetic).
#[must_use]
pub fn copy_triangle_flops(_n: usize) -> u64 {
    0
}

/// Number of matrix elements moved by the triangle-to-full copy of an
/// `n x n` matrix (useful for memory-bound time models). Saturating at
/// degenerate orders: `n == 0` moves nothing.
#[must_use]
pub fn copy_triangle_elements(n: usize) -> u64 {
    clamp(product(&[wide(n), wide(n).saturating_sub(1)]) / 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_flops_matches_paper_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 2 * 2 * 3 * 4);
        assert_eq!(gemm_flops(100, 200, 300), 2 * 100 * 200 * 300);
        assert_eq!(gemm_flops(0, 5, 5), 0);
    }

    #[test]
    fn syrk_flops_matches_paper_formula() {
        assert_eq!(syrk_flops(3, 4), 4 * 3 * 4);
        assert_eq!(syrk_flops(1200, 700), 1201 * 1200 * 700);
        assert_eq!(syrk_flops(0, 10), 0);
    }

    #[test]
    fn symm_flops_matches_paper_formula() {
        assert_eq!(symm_flops(3, 5), 2 * 9 * 5);
        assert_eq!(symm_flops(1200, 20), 2 * 1200 * 1200 * 20);
    }

    #[test]
    fn triangular_kernels_halve_the_gemm_count_exactly() {
        // The paper-style discriminant for the triangular family: TRMM and
        // TRSM perform exactly half the FLOPs of the equal-shape GEMM.
        for (m, n) in [(3, 5), (700, 120), (1200, 1200)] {
            assert_eq!(trmm_flops(m, n) * 2, gemm_flops(m, n, m));
            assert_eq!(trsm_flops(m, n), trmm_flops(m, n));
        }
        assert_eq!(trmm_flops(0, 10), 0);
    }

    #[test]
    fn syrk_is_roughly_half_a_gemm() {
        // SYRK computes only one triangle, so its FLOP count is about half of
        // the GEMM that would compute the full product.
        let m = 500;
        let k = 321;
        let syrk = syrk_flops(m, k) as f64;
        let gemm = gemm_flops(m, m, k) as f64;
        let ratio = syrk / gemm;
        assert!(ratio > 0.5 && ratio < 0.51, "ratio was {ratio}");
    }

    #[test]
    fn copy_triangle_is_free_in_flops_but_moves_data() {
        assert_eq!(copy_triangle_flops(1000), 0);
        assert_eq!(copy_triangle_elements(4), 6);
        assert_eq!(copy_triangle_elements(1), 0);
        // Regression: n == 0 must not underflow (debug panic pre-fix).
        assert_eq!(copy_triangle_elements(0), 0);
    }

    #[test]
    fn potrf_is_a_sixth_of_the_equal_order_gemm() {
        for n in [0, 1, 3, 64, 1200] {
            assert_eq!(potrf_flops(n), (n as u64).pow(3) / 3);
        }
        // Leading order: n³/3 versus GEMM's 2·n³.
        let n = 900;
        assert!(potrf_flops(n) * 6 <= gemm_flops(n, n, n));
        assert!(potrf_flops(n) * 7 > gemm_flops(n, n, n));
    }

    #[test]
    fn getrf_is_twice_potrf_and_a_third_of_gemm() {
        for n in [0, 1, 3, 64, 1200] {
            assert_eq!(getrf_flops(n), 2 * (n as u64).pow(3) / 3);
        }
        let n = 900;
        assert_eq!(getrf_flops(n), 2 * potrf_flops(n));
        assert!(getrf_flops(n) * 3 == gemm_flops(n, n, n));
    }

    #[test]
    fn qr_flops_matches_the_householder_count() {
        // Square: 2n³ - 2n³/3 = 4n³/3, i.e. double GETRF.
        let n = 300;
        assert_eq!(qr_flops(n, n), 2 * getrf_flops(n));
        // Tall-skinny limit: ≈ 2mn² (one Householder sweep per column);
        // integer floor shaves the fractional 2n³/3 term.
        assert_eq!(qr_flops(1200, 1), (2 * 3 * 1200 - 2) / 3);
        // Degenerate and inverted shapes never panic.
        assert_eq!(qr_flops(0, 0), 0);
        assert_eq!(qr_flops(10, 0), 0);
        assert_eq!(qr_flops(1, 5), 0); // saturates, never underflows
    }

    #[test]
    fn ormqr_flops_matches_the_reflector_application_count() {
        // Applying n reflectors of average length ~m to k columns.
        assert_eq!(ormqr_flops(40, 10, 3), 2 * 10 * 3 * (80 - 10));
        assert_eq!(ormqr_flops(0, 0, 5), 0);
        assert_eq!(ormqr_flops(2, 10, 5), 0); // saturates, never underflows
    }

    #[test]
    fn factor_extraction_and_pivots_are_free_in_flops_but_move_data() {
        assert_eq!(factor_triangle_flops(1000), 0);
        assert_eq!(factor_triangle_elements(4), 10);
        assert_eq!(factor_triangle_elements(0), 0);
        assert_eq!(pivot_apply_flops(9, 9), 0);
        assert_eq!(pivot_apply_elements(7, 3), 21);
        assert_eq!(pivot_apply_elements(0, 5), 0);
    }

    #[test]
    fn counts_saturate_instead_of_wrapping() {
        let max = usize::MAX;
        assert_eq!(gemm_flops(max, 2, 3), u64::MAX);
        assert_eq!(syrk_flops(max, 1), u64::MAX);
        assert_eq!(symm_flops(max, 1), u64::MAX);
        assert_eq!(trmm_flops(1 << 32, 1), u64::MAX);
        assert_eq!(trsm_flops(max, max), u64::MAX);
        assert_eq!(potrf_flops(max), u64::MAX);
        assert_eq!(getrf_flops(max), u64::MAX);
        assert_eq!(qr_flops(max, max), u64::MAX);
        assert_eq!(ormqr_flops(max, max, max), u64::MAX);
        assert_eq!(factor_triangle_elements(max), u64::MAX);
        assert_eq!(pivot_apply_elements(max, 2), u64::MAX);
        assert_eq!(copy_triangle_elements(max), u64::MAX);
        // Exact below the ceiling, including a cube that only the division
        // brings back into range.
        let n = 3_000_000; // n³ > u64::MAX > n³ / 3
        assert_eq!(potrf_flops(n), 9_000_000_000_000_000_000);
        assert_eq!(gemm_flops(1 << 20, 1 << 20, 1 << 22), 1 << 63);
        assert_eq!(gemm_flops(0, max, max), 0);
    }

    #[test]
    fn flop_counts_fit_u64_for_paper_search_space() {
        // The paper's search box is bounded by 1200; far larger sizes must not
        // overflow either.
        let f = gemm_flops(100_000, 100_000, 100_000);
        assert!(f > 0);
    }
}
