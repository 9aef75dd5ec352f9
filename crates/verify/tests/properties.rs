//! Property-based coverage of the verifier.
//!
//! Positive half: every algorithm the enumerator emits for randomly
//! dimensioned chain / transpose / Gram / triangular / SPD expressions
//! verifies clean. Negative half: seeded random mutations of enumerated
//! algorithms are each rejected by the pass designed to catch them.

use lamb_expr::{enumerate_expr_algorithms, Algorithm, Expr, KernelOp};
use lamb_matrix::Uplo;
use lamb_verify::{verify_algorithm, PassId};
use proptest::prelude::*;

fn assert_clean(alg: &Algorithm, what: &str) -> Result<(), TestCaseError> {
    let report = verify_algorithm(alg);
    prop_assert!(
        report.is_clean(),
        "{what}: `{}` failed verification:\n{report}",
        alg.name
    );
    Ok(())
}

fn chain_expr(dims: &[usize]) -> Expr {
    let names = ["A", "B", "C", "D", "E", "F"];
    let mut factors = Vec::new();
    for i in 0..dims.len() - 1 {
        factors.push(Expr::var(names[i % names.len()], dims[i], dims[i + 1]));
    }
    Expr::product(factors)
}

/// Strictly decreasing, distinct dimensions from positive increments:
/// swapping any GEMM's inputs in such a chain can never conform, which the
/// mutation property relies on.
fn strictly_decreasing(increments: &[usize]) -> Vec<usize> {
    let mut dims: Vec<usize> = Vec::with_capacity(increments.len());
    let mut acc = 0;
    for &inc in increments {
        acc += inc; // inc >= 1 keeps the sequence strictly increasing
        dims.push(acc);
    }
    dims.reverse();
    dims
}

fn uplo_of(raw: usize) -> Uplo {
    if raw == 0 {
        Uplo::Lower
    } else {
        Uplo::Upper
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_chains_verify_clean(dims in [1usize..50, 1usize..50, 1usize..50, 1usize..50, 1usize..50, 1usize..50], len in 4usize..7) {
        let expr = chain_expr(&dims[..len]);
        for alg in enumerate_expr_algorithms(&expr, None).unwrap() {
            assert_clean(&alg, "random chain")?;
        }
    }

    #[test]
    fn random_transpose_and_gram_expressions_verify_clean(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        gram_first in 0usize..2,
    ) {
        // A·Aᵀ·B (Gram) and Aᵀ·B·A (sandwich) exercise the transpose-pushing
        // and SYRK/SYMM rewrites.
        let expr = if gram_first == 0 {
            Expr::var("A", m, k)
                .mul(Expr::var("A", m, k).t())
                .mul(Expr::var("B", m, n))
        } else {
            Expr::var("A", m, k)
                .t()
                .mul(Expr::var("B", m, m))
                .mul(Expr::var("A", m, k))
        };
        for alg in enumerate_expr_algorithms(&expr, None).unwrap() {
            assert_clean(&alg, "transpose/gram")?;
        }
    }

    #[test]
    fn random_triangular_expressions_verify_clean(
        n in 1usize..40,
        c in 1usize..30,
        lower in 0usize..2,
        transposed in 0usize..2,
        solve in 0usize..2,
    ) {
        let tri = Expr::tri_var("L", n, uplo_of(lower));
        let tri = if transposed == 1 { tri.t() } else { tri };
        let tri = if solve == 1 { tri.inv() } else { tri };
        let expr = tri.mul(Expr::var("B", n, c));
        for alg in enumerate_expr_algorithms(&expr, None).unwrap() {
            assert_clean(&alg, "triangular")?;
        }
    }

    #[test]
    fn random_spd_expressions_verify_clean(
        n in 1usize..40,
        c in 1usize..30,
        solve in 0usize..2,
        chain_tail in 0usize..2,
    ) {
        let spd = Expr::spd_var("S", n);
        let spd = if solve == 1 { spd.inv() } else { spd };
        let expr = if chain_tail == 1 {
            spd.mul(Expr::var("A", n, c)).mul(Expr::var("B", c, n.min(20)))
        } else {
            spd.mul(Expr::var("B", n, c))
        };
        for alg in enumerate_expr_algorithms(&expr, None).unwrap() {
            assert_clean(&alg, "spd")?;
        }
    }

    #[test]
    fn mutated_algorithms_are_rejected_by_the_intended_pass(
        increments in [1usize..12, 1usize..12, 1usize..12, 1usize..12, 1usize..12],
        pick in 0usize..1000,
        mutation in 0usize..4,
    ) {
        let dims = strictly_decreasing(&increments);
        let expr = chain_expr(&dims);
        let algs = enumerate_expr_algorithms(&expr, None).unwrap();
        prop_assert!(!algs.is_empty());
        let mut alg = algs[pick % algs.len()].clone();
        if alg.calls.len() < 2 {
            return Ok(()); // nothing to reorder; chain of 5 dims always has 3 calls
        }
        let last = alg.calls.len() - 1;
        let expected = match mutation {
            0 => {
                // Swap the last call with the producer of one of its
                // intermediate inputs: a read now precedes its definition.
                let producer = alg.calls[last].inputs.iter().copied().find_map(|id| {
                    alg.calls[..last].iter().position(|c| c.output == id)
                });
                let Some(producer) = producer else { return Ok(()) };
                alg.calls.swap(producer, last);
                PassId::DefUse
            }
            1 => {
                // Distinct dims: swapped GEMM factors can never conform.
                alg.calls[0].inputs.swap(0, 1);
                PassId::ShapeFlow
            }
            2 => {
                let KernelOp::Gemm { ref mut k, .. } = alg.calls[0].op else {
                    return Ok(());
                };
                *k += 1;
                PassId::CostAudit
            }
            _ => {
                let out = alg.calls[last].output;
                alg.calls[last].inputs[0] = out;
                PassId::AliasSafety
            }
        };
        let report = verify_algorithm(&alg);
        prop_assert!(
            report.errors_from(expected).next().is_some(),
            "mutation {} must be rejected by {}:\n{}",
            mutation,
            expected,
            report
        );
    }
}
