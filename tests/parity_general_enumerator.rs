//! Parity: what the enumerator derives for the paper's two expressions is
//! the paper's algorithm tables, written here as data.
//!
//! * `A·B·C·D` (Section 3.2.1): the six GEMM orders of Algorithms 1–6, call
//!   by call, with the closed-form FLOP counts; chains of `p` matrices have
//!   `(p-1)!` orders whose cheapest is the ordering DP's optimum.
//! * `A·Aᵀ·B` (Section 3.2.2, Figure 5): the five GEMM/SYRK/SYMM
//!   compositions, call by call, with their closed forms, ties and
//!   intermediate shapes.

mod paper;

use lamb::expr::{OperandId, OperandRole};
use lamb::prelude::*;
use paper::{
    aatb_flop_formulas, abcd_flop_formulas, algorithms_of, chain_text, optimal_chain_flops,
    seeded_dims, AATB, ABCD,
};

/// One call of a table: its display text, input ids and output id.
type Call = (&'static str, &'static [usize], usize);

/// `A·B·C·D` Algorithms 1–6 at `(d0, …, d4) = (100, 90, 80, 70, 60)`. The
/// inputs are ids 0–3, `M1`, `M2` ids 4 and 5, and the output `X` id 6.
const ABCD_TABLE: [[Call; 3]; 6] = [
    [
        ("M1 := A*B [gemm(NN 100x80x90)]", &[0, 1], 4),
        ("M2 := (A B)*C [gemm(NN 100x70x80)]", &[4, 2], 5),
        ("M3 := ((A B) C)*D [gemm(NN 100x60x70)]", &[5, 3], 6),
    ],
    [
        ("M1 := A*B [gemm(NN 100x80x90)]", &[0, 1], 4),
        ("M2 := C*D [gemm(NN 80x60x70)]", &[2, 3], 5),
        ("M3 := (A B)*(C D) [gemm(NN 100x60x80)]", &[4, 5], 6),
    ],
    [
        ("M1 := B*C [gemm(NN 90x70x80)]", &[1, 2], 4),
        ("M2 := A*(B C) [gemm(NN 100x70x90)]", &[0, 4], 5),
        ("M3 := (A (B C))*D [gemm(NN 100x60x70)]", &[5, 3], 6),
    ],
    [
        ("M1 := B*C [gemm(NN 90x70x80)]", &[1, 2], 4),
        ("M2 := (B C)*D [gemm(NN 90x60x70)]", &[4, 3], 5),
        ("M3 := A*((B C) D) [gemm(NN 100x60x90)]", &[0, 5], 6),
    ],
    [
        ("M1 := C*D [gemm(NN 80x60x70)]", &[2, 3], 4),
        ("M2 := A*B [gemm(NN 100x80x90)]", &[0, 1], 5),
        ("M3 := (A B)*(C D) [gemm(NN 100x60x80)]", &[5, 4], 6),
    ],
    [
        ("M1 := C*D [gemm(NN 80x60x70)]", &[2, 3], 4),
        ("M2 := B*(C D) [gemm(NN 90x60x80)]", &[1, 4], 5),
        ("M3 := A*(B (C D)) [gemm(NN 100x60x90)]", &[0, 5], 6),
    ],
];

/// Figure 5: the five `A·Aᵀ·B` algorithms at `(d0, d1, d2) = (80, 514, 768)`.
/// `A` and `B` are ids 0 and 1, `M1` id 2 and the output `X` id 3.
const AATB_TABLE: [&[Call]; 5] = [
    &[
        ("M1 := A*A^T (syrk) [syrk(LN 80x514)]", &[0], 2),
        ("M2 := (A A^T)*B (symm) [symm(LL 80x768)]", &[2, 1], 3),
    ],
    &[
        ("M1 := A*A^T (syrk) [syrk(LN 80x514)]", &[0], 2),
        (
            "M1 := full(M1) (copy triangle) [copy(80 80x80 tri L)]",
            &[2],
            2,
        ),
        ("M2 := (A A^T)*B (gemm) [gemm(NN 80x768x80)]", &[2, 1], 3),
    ],
    &[
        ("M1 := A*A^T (gemm) [gemm(NT 80x80x514)]", &[0, 0], 2),
        ("M2 := (A A^T)*B (symm) [symm(LL 80x768)]", &[2, 1], 3),
    ],
    &[
        ("M1 := A*A^T (gemm) [gemm(NT 80x80x514)]", &[0, 0], 2),
        ("M2 := (A A^T)*B (gemm) [gemm(NN 80x768x80)]", &[2, 1], 3),
    ],
    &[
        ("M1 := A^T*B [gemm(TN 514x768x80)]", &[0, 1], 2),
        ("M2 := A*(A^T B) [gemm(NN 80x768x514)]", &[0, 2], 3),
    ],
];

/// Check `alg` against its table row: every call's text and wiring, then
/// the operand table — `inputs` first, then one intermediate per call
/// output shaped as that call writes it, the last one the output `X`.
fn assert_matches(alg: &Algorithm, table: &[Call], inputs: &[(&str, usize, usize)]) {
    let calls: Vec<(String, Vec<usize>, usize)> = alg
        .calls
        .iter()
        .map(|c| {
            (
                c.to_string(),
                c.inputs.iter().map(|id| id.index()).collect(),
                c.output.index(),
            )
        })
        .collect();
    let expected: Vec<(String, Vec<usize>, usize)> = table
        .iter()
        .map(|&(text, ins, out)| (text.to_string(), ins.to_vec(), out))
        .collect();
    assert_eq!(calls, expected, "{}", alg.name);
    let n = inputs.len();
    for (i, info) in alg.operands.iter().enumerate() {
        assert_eq!(info.id, OperandId(i), "{}", alg.name);
        if let Some(&(name, rows, cols)) = inputs.get(i) {
            assert_eq!(
                (info.name.as_str(), info.rows, info.cols),
                (name, rows, cols)
            );
            assert_eq!(info.role, OperandRole::Input);
            continue;
        }
        let writer = alg.calls.iter().find(|c| c.output == info.id).unwrap();
        assert_eq!((info.rows, info.cols), writer.op.output_shape());
        let (name, role) = if i + 1 == alg.operands.len() {
            ("X".to_string(), OperandRole::Output)
        } else {
            (format!("M{}", i + 1 - n), OperandRole::Intermediate)
        };
        assert_eq!(
            (info.name.as_str(), info.role),
            (name.as_str(), role),
            "{}",
            alg.name
        );
    }
}

#[test]
fn chain_algorithms_are_bit_identical_to_the_legacy_tables() {
    let algorithms = algorithms_of(ABCD, &[100, 90, 80, 70, 60]);
    assert_eq!(algorithms.len(), ABCD_TABLE.len());
    let inputs = [("A", 100, 90), ("B", 90, 80), ("C", 80, 70), ("D", 70, 60)];
    for (alg, table) in algorithms.iter().zip(&ABCD_TABLE) {
        assert_matches(alg, table, &inputs);
    }
}

#[test]
fn abcd_derivation_has_six_algorithms_with_the_paper_flop_formulas() {
    for dims in seeded_dims(2022, 200, 5) {
        let algorithms = algorithms_of(ABCD, &dims);
        let firsts: Vec<&str> = algorithms.iter().map(|a| &a.calls[0].label[6..]).collect();
        assert_eq!(firsts, ["A*B", "A*B", "B*C", "B*C", "C*D", "C*D"]);
        for (alg, expected) in algorithms.iter().zip(abcd_flop_formulas(&dims)) {
            assert_eq!(alg.flops(), expected, "{} at {dims:?}", alg.name);
            assert_eq!(alg.kernel_summary(), "gemm,gemm,gemm");
            let out = alg.output().unwrap();
            assert_eq!((out.rows, out.cols), (dims[0], dims[4]));
        }
        // Algorithms 2 and 5 tie: (AB)(CD) in either order.
        assert_eq!(algorithms[1].flops(), algorithms[4].flops());
    }
}

#[test]
fn chains_have_factorial_orders_whose_cheapest_is_the_dp_optimum() {
    // The textbook (CLRS) instance: 15125 multiplications, doubled by the
    // GEMM model.
    assert_eq!(optimal_chain_flops(&[30, 35, 15, 5, 10, 20, 25]), 2 * 15125);
    for p in 2..=6 {
        let text = chain_text(p);
        for dims in seeded_dims(p as u64, 8, p + 1) {
            let algorithms = algorithms_of(&text, &dims);
            assert_eq!(algorithms.len(), (1..p).product::<usize>(), "{text}");
            let cheapest = algorithms.iter().map(Algorithm::flops).min();
            assert_eq!(cheapest, Some(optimal_chain_flops(&dims)), "{dims:?}");
            assert!(algorithms.iter().all(Algorithm::is_well_formed));
        }
    }
}

#[test]
fn aatb_derivation_reproduces_the_five_paper_algorithms_exactly() {
    let algorithms = algorithms_of(AATB, &[80, 514, 768]);
    assert_eq!(algorithms.len(), AATB_TABLE.len());
    for (alg, table) in algorithms.iter().zip(AATB_TABLE) {
        assert_matches(alg, table, &[("A", 80, 514), ("B", 80, 768)]);
    }
    let figure5 = [
        "syrk,symm",
        "syrk,copy,gemm",
        "gemm,symm",
        "gemm,gemm",
        "gemm,gemm",
    ];
    for dims in seeded_dims(2021, 200, 3) {
        let algorithms = algorithms_of(AATB, &dims);
        let kernels: Vec<String> = algorithms.iter().map(Algorithm::kernel_summary).collect();
        assert_eq!(kernels, figure5);
        let flops: Vec<u64> = algorithms.iter().map(Algorithm::flops).collect();
        assert_eq!(flops, aatb_flop_formulas(&dims), "{dims:?}");
        // 1 and 2 tie, 3 and 4 tie, and SYRK halves the Gram product.
        assert!(flops[0] == flops[1] && flops[2] == flops[3] && flops[0] <= flops[2]);
        // Algorithms 1-4 build the d0 x d0 Gram product, 5 the d1 x d2 Aᵀ·B.
        for (i, alg) in algorithms.iter().enumerate() {
            let m1 = alg.operand(OperandId(2)).unwrap();
            let expected = if i < 4 {
                (dims[0], dims[0])
            } else {
                (dims[1], dims[2])
            };
            assert_eq!((m1.rows, m1.cols), expected, "{}", alg.name);
            let out = alg.output().unwrap();
            assert_eq!((out.rows, out.cols), (dims[0], dims[2]));
        }
    }
    // Either side of the trade-off is reachable: algorithm 5 is the cheapest
    // when d0 dominates, algorithm 1 when d1 and d2 do.
    let f = aatb_flop_formulas(&[1000, 20, 30]);
    assert!(f[4] < f[0] && f[0] < f[2]);
    let f = aatb_flop_formulas(&[50, 800, 900]);
    assert!(f[0] < f[4] && f[0] < f[2]);
}

#[test]
fn parsed_text_expressions_match_the_built_in_expressions() {
    // The texts and the same trees built through the `Expr` builders
    // enumerate the same algorithms, down to every name and label.
    let dims = [331, 279, 338, 854, 427];
    let names = ["A", "B", "C", "D"];
    let tree = Expr::product(
        (0..4)
            .map(|i| Expr::var(names[i], dims[i], dims[i + 1]))
            .collect(),
    );
    let abcd = TreeExpression::parse(ABCD).unwrap();
    assert_eq!((abcd.name(), abcd.num_dims()), (ABCD.to_string(), 5));
    let from_tree = enumerate_expr_algorithms(&tree, None).unwrap();
    assert_eq!(
        format!("{from_tree:?}"),
        format!("{:?}", algorithms_of(ABCD, &dims))
    );

    let (a, b) = (Expr::var("A", 80, 514), Expr::var("B", 80, 768));
    let tree = a.clone().mul(a.t()).mul(b);
    let aatb = TreeExpression::parse(AATB).unwrap();
    assert_eq!((aatb.name(), aatb.num_dims()), (AATB.to_string(), 3));
    let from_tree = enumerate_expr_algorithms(&tree, None).unwrap();
    let from_text = algorithms_of(AATB, &[80, 514, 768]);
    assert_eq!(format!("{from_tree:?}"), format!("{from_text:?}"));
}

#[test]
fn planner_top_k_keeps_the_cheapest_chain_orders() {
    // Top-k keeps the head of the full enumeration sorted by FLOPs, and a
    // parsed length-8 chain planned with pruning selects the DP optimum.
    let expr = TreeExpression::parse(&chain_text(5)).unwrap();
    let dims = [40, 20, 30, 10, 30, 25];
    let mut sorted: Vec<u64> = expr
        .algorithms(&dims)
        .unwrap()
        .iter()
        .map(Algorithm::flops)
        .collect();
    sorted.sort_unstable();
    for k in [1, 3, 24, 100] {
        let kept = expr.algorithms_pruned(&dims, Some(k)).unwrap();
        let flops: Vec<u64> = kept.iter().map(Algorithm::flops).collect();
        assert_eq!(flops, sorted[..k.min(24)], "k = {k}");
    }

    let expr = TreeExpression::parse(&chain_text(8)).unwrap();
    let dims = [60, 20, 90, 30, 120, 40, 70, 25, 110];
    let planner = Planner::for_expression(&expr)
        .score_predictions(false)
        .top_k(8);
    let plan = planner.plan(&dims).unwrap();
    assert_eq!(plan.algorithms.len(), 8);
    assert_eq!(plan.chosen_score().flops, optimal_chain_flops(&dims));
}
