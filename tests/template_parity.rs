//! Template parity: what a parsed text's memoised template gives a request
//! is what the per-request search gives it.
//!
//! `TreeExpression::algorithms_pruned` instantiates the text's template,
//! derived once per process; `enumerate_expr_algorithms` on the bound tree is
//! the branch-and-bound search the template is derived from. For texts drawn
//! from the grammar — products of repeated, transposed, structured, inverted
//! and pseudo-inverted factors, and texts with parentheses, whitespace and
//! every postfix operator — at dimension tuples with zeros, ones and unequal
//! sizes (each `^+` text both wide and tall), and `top_k` none, 1, 3 and 8,
//! the two must be `{:#?}`-identical, errors included, in tree form and in
//! the shared form the planner scores. The texts of this test binary stay
//! below the memo's bound of 64, so every one is instantiated from its
//! template (the 33 scenario texts are pinned against the search by
//! `tests/planning_fixture.rs`); a chain over the completion cap is searched
//! and must match too.

mod grammar;

use grammar::{factor_product, grammar_text, Rng};
use lamb::expr::eliminate_shared_calls;
use lamb::prelude::*;
use std::collections::BTreeSet;

/// Dimension tuples of length `n`: descending and ascending unequal sizes
/// (one orders every pair of sizes the other way, so each `^+` text meets a
/// wide and a tall instance), ones, and two mixes of zeros and ones.
fn dim_sets(n: usize) -> Vec<Vec<usize>> {
    vec![
        (0..n).map(|i| 61 - 7 * i).collect(),
        (0..n).map(|i| 19 + 5 * i).collect(),
        vec![1; n],
        (0..n).map(|i| [0, 1, 7][i % 3]).collect(),
        (0..n).map(|i| [5, 0, 1, 12][i % 4]).collect(),
    ]
}

/// The search's answer, in shared form when `shared`.
fn searched(
    expr: &TreeExpression,
    dims: &[usize],
    top_k: Option<usize>,
    shared: bool,
) -> Result<Vec<Algorithm>, GenerateError> {
    let algorithms = enumerate_expr_algorithms(&expr.bind(dims), top_k)?;
    Ok(algorithms
        .into_iter()
        .map(|alg| match eliminate_shared_calls(&alg) {
            Some(cse) if shared => cse.algorithm,
            _ => alg,
        })
        .collect())
}

/// Compare the template and the search for `expr` at every dimension set
/// and `top_k`; returns how many requests erred as wide pseudo-inverses and
/// how many planned.
fn assert_parity(expr: &TreeExpression) -> (usize, usize) {
    let (mut wide, mut planned) = (0, 0);
    for dims in dim_sets(expr.num_dims()) {
        for top_k in [None, Some(1), Some(3), Some(8)] {
            for shared in [false, true] {
                let got = expr.candidates(&dims, top_k, shared);
                let want = searched(expr, &dims, top_k, shared);
                assert_eq!(
                    format!("{got:#?}"),
                    format!("{want:#?}"),
                    "`{}` at {dims:?}, top_k {top_k:?}, shared {shared}",
                    expr.text()
                );
                match got {
                    Err(GenerateError::PseudoInverseWide { .. }) => wide += 1,
                    Ok(_) => planned += 1,
                    Err(_) => {}
                }
            }
            assert_eq!(
                format!("{:#?}", expr.algorithms_pruned(&dims, top_k)),
                format!("{:#?}", searched(expr, &dims, top_k, false)),
            );
        }
    }
    (wide, planned)
}

/// 44 distinct texts: products of the property tests' factors and texts
/// from the whole grammar.
fn corpus() -> Vec<TreeExpression> {
    let mut rng = Rng::new(0x7E3B_1A7E);
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for i in 0..400 {
        let text = if i % 2 == 0 {
            factor_product(&mut rng)
        } else {
            grammar_text(&mut rng)
        };
        let Ok(expr) = TreeExpression::parse(&text) else {
            continue;
        };
        if seen.insert(expr.text().to_string()) {
            out.push(expr);
        }
        if out.len() == 44 {
            break;
        }
    }
    out
}

#[test]
fn templates_instantiate_what_the_search_returns() {
    let corpus = corpus();
    assert_eq!(corpus.len(), 44);
    let (mut wide, mut planned, mut pinv_planned) = (0, 0, 0);
    for expr in &corpus {
        let (w, p) = assert_parity(expr);
        wide += w;
        planned += p;
        if expr.text().contains("^+") {
            pinv_planned += p;
        }
    }
    assert!(wide > 0, "no wide pseudo-inverse was met");
    assert!(pinv_planned > 0, "no tall pseudo-inverse planned");
    assert!(planned > 500, "only {planned} requests planned");
}

#[test]
fn sharing_and_edge_texts_match_the_search() {
    for text in [
        // Calls the shared form drops.
        "A*A^T*A*A^T*B",
        "S[spd]^-1*S[spd]^-1*B",
        "L[lower]^-1*L^-1*B",
        "C^-1*C^-1*B",
        "A*A^T*B*B^T",
        // Shape checks the dimension codes leave open, and groupings that
        // normalise alike.
        "(A*B^-1)^-1*C",
        "A*(B*C)",
        "(A*B)*C",
        // One leaf, and texts no kernel sequence realises.
        "A",
        "A^T",
        "A^+",
        "L[lower]^-1*B^T",
        "b*A^+",
    ] {
        assert_parity(&TreeExpression::parse(text).unwrap());
    }
}

#[test]
fn a_chain_over_the_completion_cap_is_searched_and_matches() {
    // 7! = 5040 multiplication orders: past the cap, planned by the search.
    let expr = TreeExpression::parse("A*B*C*D*E*F*G*H").unwrap();
    let dims = [30, 12, 41, 9, 27, 16, 33, 8, 21];
    for top_k in [Some(1), Some(3), Some(8)] {
        let got = expr.algorithms_pruned(&dims, top_k).unwrap();
        let want = enumerate_expr_algorithms(&expr.bind(&dims), top_k).unwrap();
        assert_eq!(got, want, "top_k {top_k:?}");
    }
    assert_eq!(expr.algorithms(&dims).unwrap().len(), 5040);
}
