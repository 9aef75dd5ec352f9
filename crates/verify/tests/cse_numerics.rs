//! Property-based numerical identity of the CSE rewrite.
//!
//! For randomly dimensioned chain / transpose-Gram / triangular / SPD
//! expressions, every enumerated algorithm must compute the *same matrix*
//! after common-subexpression elimination as before it (within `1e-10` of
//! the result's magnitude — in practice the merged calls reproduce the
//! deduplicated values bit-for-bit), and every transformed algorithm must
//! still verify clean. This is the semantic half of the CSE contract; the
//! cost half (shared-FLOP claims) is audited in `shared_flops.rs`.

use lamb_expr::{eliminate_common_subexpressions, enumerate_expr_algorithms, Expr};
use lamb_matrix::ops::{max_abs, max_abs_diff};
use lamb_matrix::Uplo;
use lamb_perfmodel::MeasuredExecutor;
use lamb_verify::verify_algorithm;
use proptest::prelude::*;

/// Check every enumerated algorithm of `expr`: the CSE form verifies clean
/// and executes to the same result as the original.
fn assert_cse_preserves_numerics(expr: &Expr, what: &str) -> Result<(), TestCaseError> {
    let executor = MeasuredExecutor::quick();
    for alg in enumerate_expr_algorithms(expr, None).unwrap() {
        let outcome = eliminate_common_subexpressions(&alg);
        let report = verify_algorithm(&outcome.algorithm);
        prop_assert!(
            report.is_clean(),
            "{what}: CSE form of `{}` failed verification:\n{report}",
            alg.name
        );
        let original = executor.compute_result(&alg);
        let shared = executor.compute_result(&outcome.algorithm);
        let diff = max_abs_diff(&original, &shared).expect("identical output shape");
        let tolerance = 1e-10 * max_abs(&original).max(1.0);
        prop_assert!(
            diff <= tolerance,
            "{what}: CSE changed the numerics of `{}`: |diff| = {diff:e} > {tolerance:e}",
            alg.name
        );
    }
    Ok(())
}

fn uplo_of(raw: usize) -> Uplo {
    if raw == 0 {
        Uplo::Lower
    } else {
        Uplo::Upper
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chains_survive_cse_numerically(
        d in [1usize..24, 1usize..24, 1usize..24, 1usize..24, 1usize..24],
    ) {
        let expr = Expr::var("A", d[0], d[1])
            .mul(Expr::var("B", d[1], d[2]))
            .mul(Expr::var("C", d[2], d[3]))
            .mul(Expr::var("D", d[3], d[4]));
        assert_cse_preserves_numerics(&expr, "chain")?;
    }

    #[test]
    fn repeated_gram_products_survive_cse_numerically(
        m in 1usize..20,
        k in 1usize..20,
        n in 1usize..20,
    ) {
        // A·Aᵀ appears twice: the expression family whose orderings CSE
        // genuinely rewrites (one SYRK instead of two).
        let a = Expr::var("A", m, k);
        let expr = a
            .clone()
            .mul(a.clone().t())
            .mul(a.clone())
            .mul(a.t())
            .mul(Expr::var("B", m, n));
        assert_cse_preserves_numerics(&expr, "repeated gram")?;
    }

    #[test]
    fn triangular_chains_survive_cse_numerically(
        n in 1usize..24,
        m in 1usize..24,
        raw_uplo in 0usize..2,
    ) {
        let l = Expr::tri_var("L", n, uplo_of(raw_uplo));
        let expr = l.clone().mul(l).mul(Expr::var("B", n, m));
        assert_cse_preserves_numerics(&expr, "triangular chain")?;
    }

    #[test]
    fn repeated_spd_solves_survive_cse_numerically(
        n in 1usize..20,
        m in 1usize..20,
    ) {
        // S⁻¹·S⁻¹·B repeats the whole Cholesky (POTRF + TRSM halves); the
        // CSE form factors once.
        let s = Expr::spd_var("S", n);
        let expr = s.clone().inv().mul(s.inv()).mul(Expr::var("B", n, m));
        assert_cse_preserves_numerics(&expr, "repeated spd solve")?;
    }
}
