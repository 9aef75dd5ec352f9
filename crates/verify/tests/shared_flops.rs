//! Verification of CSE-transformed (shared-factor) algorithms.
//!
//! Two halves. First: every algorithm rewritten by
//! [`eliminate_common_subexpressions`] — multiply-read cached factors,
//! merged duplicates, rewired readers — must still pass all five analysis
//! passes with zero errors, across the chain / transpose / Gram / triangular
//! / SPD expression families. Second: [`verify_shared_flop_claim`] must
//! confirm the CSE pass's deduplicated FLOP totals and catch forged claims
//! (a double-charged duplicate, an uncharged distinct call).

use lamb_expr::{eliminate_common_subexpressions, enumerate_expr_algorithms, shared_flops, Expr};
use lamb_verify::{verify_algorithm, verify_shared_flop_claim, PassId};

/// Expression families with genuinely repeated subcomputations alongside the
/// plain ones: repeated Gram products, repeated SPD solves, triangular
/// chains with a repeated triangular leaf.
fn expression_zoo() -> Vec<(&'static str, Expr)> {
    let a = Expr::var("A", 24, 9);
    let b = Expr::var("B", 24, 13);
    let s = Expr::spd_var("S", 18);
    let l = Expr::tri_var("L", 18, lamb_matrix::Uplo::Lower);
    vec![
        (
            "chain",
            Expr::var("A", 30, 20)
                .mul(Expr::var("B", 20, 25))
                .mul(Expr::var("C", 25, 10)),
        ),
        ("gram", a.clone().mul(a.clone().t()).mul(b.clone())),
        (
            "repeated gram",
            a.clone()
                .mul(a.clone().t())
                .mul(a.clone())
                .mul(a.t())
                .mul(b),
        ),
        (
            "repeated spd solve",
            s.clone().inv().mul(s.inv()).mul(Expr::var("B", 18, 7)),
        ),
        (
            "triangular chain",
            l.clone().mul(l).mul(Expr::var("B", 18, 11)),
        ),
    ]
}

#[test]
fn cse_transformed_algorithms_pass_all_five_passes() {
    for (what, expr) in expression_zoo() {
        for alg in enumerate_expr_algorithms(&expr, None).unwrap() {
            let outcome = eliminate_common_subexpressions(&alg);
            let report = verify_algorithm(&outcome.algorithm);
            assert!(
                report.is_clean(),
                "{what}: CSE form of `{}` failed verification:\n{report}",
                alg.name
            );
        }
    }
}

#[test]
fn shared_flop_claims_are_confirmed_against_the_re_derivation() {
    let mut audited_a_real_merge = false;
    for (what, expr) in expression_zoo() {
        for alg in enumerate_expr_algorithms(&expr, None).unwrap() {
            let claimed = shared_flops(&alg);
            let report = verify_shared_flop_claim(&alg, claimed);
            assert!(
                report.is_clean(),
                "{what}: honest claim for `{}` rejected:\n{report}",
                alg.name
            );
            if claimed < alg.flops() {
                audited_a_real_merge = true;
            }
        }
    }
    assert!(
        audited_a_real_merge,
        "the zoo must exercise at least one genuine deduplication"
    );
}

#[test]
fn forged_double_charges_are_caught() {
    // Pick an algorithm where CSE genuinely merges something, so the raw
    // total is a forged (double-charging) version of the shared claim.
    let (_, expr) = expression_zoo().remove(2); // repeated gram
    let alg = enumerate_expr_algorithms(&expr, None)
        .unwrap()
        .into_iter()
        .find(|alg| shared_flops(alg) < alg.flops())
        .expect("some ordering repeats the Gram product");
    // Claiming the raw total double-charges the merged calls.
    let report = verify_shared_flop_claim(&alg, alg.flops());
    let finding = report
        .errors_from(PassId::CostAudit)
        .next()
        .expect("the double-charged claim must be rejected");
    assert!(finding.message.contains("does not match"), "{finding:?}");
    // And an under-charged claim is equally forged.
    let report = verify_shared_flop_claim(&alg, shared_flops(&alg) - 1);
    assert!(!report.is_clean());
}
