//! The paper's two expressions and what it derives for them by hand, written
//! independently of the enumerator so tests can check the engine against
//! them: the closed-form FLOP counts of Section 3.2 and the matrix-chain
//! ordering DP. Each test crate uses a subset.
#![allow(dead_code)]

use lamb::prelude::*;

/// Section 3.2.1: `X := A·B·C·D`.
pub const ABCD: &str = "A*B*C*D";
/// Section 3.2.2: `X := A·Aᵀ·B`.
pub const AATB: &str = "A*A^T*B";

/// The algorithms of `text` at `dims`, in enumeration order.
pub fn algorithms_of(text: &str, dims: &[usize]) -> Vec<Algorithm> {
    let expr = TreeExpression::parse(text).expect("the text parses");
    expr.algorithms(dims).expect("the instance enumerates")
}

/// The text of the chain of `p` matrices, `A*B*...`.
pub fn chain_text(p: usize) -> String {
    let names: Vec<String> = (b'A'..)
        .take(p)
        .map(|c| char::from(c).to_string())
        .collect();
    names.join("*")
}

/// The FLOP counts of `A·B·C·D` Algorithms 1–6, in the paper's order.
pub fn abcd_flop_formulas(d: &[usize]) -> [u64; 6] {
    let d: Vec<u64> = d.iter().map(|&x| x as u64).collect();
    [
        2 * d[0] * (d[1] * d[2] + d[2] * d[3] + d[3] * d[4]),
        2 * d[2] * (d[0] * d[1] + d[0] * d[4] + d[3] * d[4]),
        2 * d[3] * (d[0] * d[1] + d[0] * d[4] + d[1] * d[2]),
        2 * d[1] * (d[0] * d[4] + d[2] * d[3] + d[3] * d[4]),
        2 * d[2] * (d[0] * d[1] + d[0] * d[4] + d[3] * d[4]),
        2 * d[4] * (d[0] * d[1] + d[1] * d[2] + d[2] * d[3]),
    ]
}

/// The FLOP counts of the five `A·Aᵀ·B` algorithms (`A` is `d0×d1`, `B` is
/// `d0×d2`), in the paper's order.
pub fn aatb_flop_formulas(d: &[usize]) -> [u64; 5] {
    let (d0, d1, d2) = (d[0] as u64, d[1] as u64, d[2] as u64);
    let syrk_first = d0 * ((d0 + 1) * d1 + 2 * d0 * d2);
    let gemm_first = 2 * d0 * d0 * (d1 + d2);
    [
        syrk_first,
        syrk_first,
        gemm_first,
        gemm_first,
        4 * d0 * d1 * d2,
    ]
}

/// The minimum FLOP count of the chain whose matrix `i` is
/// `dims[i] × dims[i+1]`: the classic ordering DP under the `2·m·n·k` GEMM
/// model.
pub fn optimal_chain_flops(dims: &[usize]) -> u64 {
    let p = dims.len() - 1;
    let d: Vec<u64> = dims.iter().map(|&x| x as u64).collect();
    // cost[i][j]: the cheapest product of matrices i..=j.
    let mut cost = vec![vec![0u64; p]; p];
    for len in 2..=p {
        for i in 0..=p - len {
            let j = i + len - 1;
            cost[i][j] = (i..j)
                .map(|k| cost[i][k] + cost[k + 1][j] + 2 * d[i] * d[k + 1] * d[j + 1])
                .min()
                .expect("a split exists");
        }
    }
    cost[0][p - 1]
}

/// `n` dimension tuples of length `len` in `1..=1500`, from a fixed linear
/// congruential sequence seeded with `seed`.
pub fn seeded_dims(seed: u64, n: usize, len: usize) -> Vec<Vec<usize>> {
    let mut state = seed;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % 1500 + 1
    };
    (0..n).map(|_| (0..len).map(|_| next()).collect()).collect()
}
