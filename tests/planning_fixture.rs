//! Golden planning fixture: what enumeration and planning return, pinned
//! byte for byte.
//!
//! For each of the 33 standing scenario texts at two dimension sets —
//! descending `61 - 7i` and ascending `19 + 5i` (the ascending set is the one
//! under which the `A^+` texts enumerate, their operand being tall) — the
//! fixture holds an FNV-1a-64 hash of the `{:#?}` rendering of
//!
//! * `algorithms_pruned(dims, top_k)` for `top_k` none, 3 and 8 (names,
//!   operand tables, calls with ops, operand ids and labels, or the error),
//! * the plan `Planner::policy(MinPredictedTime).top_k(8)` returns under the
//!   default `SimulatedExecutor::paper_like()`: its `algorithms`, `scores`,
//!   `chosen` and `duplicates_removed` (or the error).
//!
//! The hashes were recorded before the planning path was rewritten for
//! allocation; a rewrite that changes a name, a label, an operand number, the
//! order of the survivors or a predicted second fails here. CI runs this test
//! in release mode too: release builds skip the planner's debug verify gate,
//! so the release path is the one the benchmark times.

use lamb::experiments::all_scenarios;
use lamb::prelude::*;

/// FNV-1a, 64 bit.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hash(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(&format!("{value:#?}"))
}

/// Every scenario expression at both dimension sets.
fn instances() -> Vec<(TreeExpression, Vec<usize>)> {
    let mut out = Vec::new();
    for scenario in all_scenarios() {
        let n = scenario.expression.num_dims();
        let descending: Vec<usize> = (0..n).map(|i| 61 - 7 * i).collect();
        let ascending: Vec<usize> = (0..n).map(|i| 19 + 5 * i).collect();
        for dims in [descending, ascending] {
            out.push((scenario.expression.clone(), dims));
        }
    }
    out
}

/// One fixture line per scenario text and dimension set.
fn render() -> String {
    let mut out = String::new();
    for (expr, dims) in instances() {
        let enumerated = [None, Some(3), Some(8)].map(|k| hash(&expr.algorithms_pruned(&dims, k)));
        let planned = Planner::for_expression(&expr)
            .policy(MinPredictedTime)
            .top_k(8)
            .plan(&dims)
            .map(|p| (p.algorithms, p.scores, p.chosen, p.duplicates_removed));
        out.push_str(&format!(
            "{} {:?} none={:016x} top3={:016x} top8={:016x} plan={:016x}\n",
            expr.name(),
            dims,
            enumerated[0],
            enumerated[1],
            enumerated[2],
            hash(&planned)
        ));
    }
    out
}

#[test]
fn enumeration_and_plans_match_the_recorded_fixture() {
    let expected = include_str!("fixtures/planning_fnv1a.txt");
    let actual = render();
    assert_eq!(actual.lines().count(), 66, "33 texts x 2 dimension sets");
    for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "fixture line {}", line + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count());
}

/// An algorithm without its position: the name after `Algorithm N: `, the
/// operand table and the calls.
fn unnumbered(alg: &Algorithm) -> String {
    let name = alg
        .name
        .split_once(": ")
        .map_or(alg.name.as_str(), |(_, rest)| rest);
    format!("{name} {:#?} {:#?}", alg.operands, alg.calls)
}

#[test]
fn top_k_survivors_are_the_full_enumeration_sorted_and_cut() {
    for (expr, dims) in instances() {
        let Ok(full) = expr.algorithms_pruned(&dims, None) else {
            continue;
        };
        let mut ranked: Vec<&Algorithm> = full.iter().collect();
        ranked.sort_by_key(|a| (a.shared_flops(), a.flops())); // stable
        for k in [1, 2, 3, 8] {
            let pruned = expr.algorithms_pruned(&dims, Some(k)).unwrap();
            let want: Vec<String> = ranked.iter().take(k).map(|a| unnumbered(a)).collect();
            let got: Vec<String> = pruned.iter().map(unnumbered).collect();
            assert_eq!(got, want, "{} {dims:?} k = {k}", expr.name());
            for (i, alg) in pruned.iter().enumerate() {
                assert!(alg.name.starts_with(&format!("Algorithm {}: ", i + 1)));
            }
        }
    }
}
