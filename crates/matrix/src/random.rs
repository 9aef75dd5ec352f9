//! Deterministic random matrix generation.
//!
//! The paper's operands are "dense and unstructured", so only their sizes (not
//! their elements) affect performance; nonetheless all executors fill operands
//! with reproducible pseudo-random values so that numerical validation across
//! algorithm variants is meaningful.

use crate::dense::Matrix;
use crate::types::Uplo;
use rand::distr::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fill an existing matrix with uniform values in `[-1, 1)`.
pub fn fill_uniform<R: Rng + ?Sized>(m: &mut Matrix, rng: &mut R) {
    let dist = Uniform::new(-1.0f64, 1.0).expect("valid uniform range");
    for x in m.as_mut_slice() {
        *x = dist.sample(rng);
    }
}

/// Create a `rows x cols` matrix with uniform values in `[-1, 1)`.
#[must_use]
pub fn random_uniform<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    fill_uniform(&mut m, rng);
    m
}

/// Create a `rows x cols` matrix seeded deterministically: the same
/// `(rows, cols, seed)` triple always yields the same matrix.
#[must_use]
pub fn random_seeded(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed ^ mix(rows as u64, cols as u64));
    random_uniform(rows, cols, &mut rng)
}

/// Create a random `n x n` triangular matrix: uniform values in `[-1, 1)` on
/// the `uplo` triangle, exact zeros elsewhere, and a diagonal shifted to
/// `±(2 + |value|)` so the matrix is strictly diagonally dominant within its
/// triangle. Dominance keeps triangular solves (`op(L)⁻¹·B`) well conditioned,
/// which is what lets TRSM-based algorithm variants be compared numerically
/// against their references at `1e-10`-level tolerances.
///
/// The same `(n, uplo, seed)` triple always yields the same matrix, so two
/// algorithms of the same expression see identical triangular operands.
///
/// Built in place on the one [`random_seeded`] buffer, a column slice at a
/// time: the dead triangle is zeroed and the diagonal lifted where it lies.
#[must_use]
pub fn random_triangular(n: usize, uplo: Uplo, seed: u64) -> Matrix {
    let mut m = random_seeded(n, n, seed);
    for j in 0..n {
        let col = m.col_mut(j);
        let v = col[j];
        col[j] = v.signum() * (2.0 + v.abs());
        match uplo {
            Uplo::Lower => col[..j].fill(0.0),
            Uplo::Upper => col[j + 1..].fill(0.0),
        }
    }
    m
}

/// Create a random symmetric positive-definite `n x n` matrix: exactly
/// symmetric off-diagonal values in `(-1, 1)` with the diagonal lifted to
/// `n + 1`, which makes the matrix strictly diagonally dominant with a
/// positive diagonal — a sufficient condition for positive definiteness.
/// Dominance keeps the Cholesky factorisation and the subsequent triangular
/// solves well conditioned, which is what lets POTRF-based algorithm variants
/// be compared numerically against naive references at `1e-10`-level
/// tolerances.
///
/// The same `(n, seed)` pair always yields the same matrix, so two algorithms
/// of the same expression see identical SPD operands.
///
/// Built in place on the one [`random_seeded`] buffer: each strictly-lower
/// element is averaged with its mirror image and the one result written to
/// both (`0.5·(a + b)` is commutative, so the two halves hold the same bits
/// whichever is computed). The walk is tiled so the mirror elements, which
/// lie along a row, stay in cache while a tile is swept by columns.
#[must_use]
pub fn random_spd(n: usize, seed: u64) -> Matrix {
    const TILE: usize = 32;
    let mut m = random_seeded(n, n, seed);
    let data = m.as_mut_slice();
    for j0 in (0..n).step_by(TILE) {
        for i0 in (j0..n).step_by(TILE) {
            let i1 = (i0 + TILE).min(n);
            for j in j0..(j0 + TILE).min(n) {
                // Rows of column j in this tile, strictly below the diagonal.
                let first = i0.max(j + 1);
                if first >= i1 {
                    continue;
                }
                // Column j ends before column `first` starts, where the
                // mirror elements (j, first..i1) sit one per column.
                let (left, right) = data.split_at_mut(first * n);
                let below = &mut left[j * n + first..j * n + i1];
                let across = right[j..].iter_mut().step_by(n);
                for (x, y) in below.iter_mut().zip(across) {
                    let avg = 0.5 * (*x + *y);
                    *x = avg;
                    *y = avg;
                }
            }
        }
    }
    for j in 0..n {
        data[j + j * n] = n as f64 + 1.0;
    }
    m
}

/// Create a random symmetric `n x n` matrix (A + Aᵀ scaled to stay in range).
#[must_use]
pub fn random_symmetric<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Matrix {
    let a = random_uniform(n, n, rng);
    Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]))
}

fn mix(a: u64, b: u64) -> u64 {
    // SplitMix64-style mixing so that different shapes decorrelate.
    let mut x = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::is_symmetric;

    #[test]
    fn random_seeded_is_deterministic() {
        let a = random_seeded(8, 5, 42);
        let b = random_seeded(8, 5, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn random_seeded_depends_on_seed() {
        let a = random_seeded(8, 5, 1);
        let b = random_seeded(8, 5, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn random_seeded_depends_on_shape() {
        let a = random_seeded(4, 4, 7);
        let b = random_seeded(2, 8, 7);
        assert_ne!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn values_are_in_range() {
        let a = random_seeded(30, 30, 3);
        assert!(a.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn values_are_not_constant() {
        let a = random_seeded(10, 10, 9);
        let first = a.as_slice()[0];
        assert!(a.as_slice().iter().any(|&x| x != first));
    }

    #[test]
    fn random_triangular_is_triangular_and_nonsingular() {
        for uplo in [Uplo::Lower, Uplo::Upper] {
            let t = random_triangular(9, uplo, 17);
            assert!(crate::ops::is_triangular(&t, uplo).unwrap());
            for i in 0..9 {
                assert!(t[(i, i)].abs() >= 2.0, "diagonal must dominate");
            }
            // Deterministic per (n, uplo, seed).
            assert_eq!(t, random_triangular(9, uplo, 17));
            assert_ne!(t, random_triangular(9, uplo, 18));
        }
    }

    #[test]
    fn random_spd_is_symmetric_positive_definite_and_deterministic() {
        let s = random_spd(11, 3);
        assert!(crate::ops::is_symmetric(&s, 0.0).unwrap(), "exact symmetry");
        assert!(crate::ops::is_spd(&s, 1e-12).unwrap());
        assert_eq!(s, random_spd(11, 3));
        assert_ne!(s, random_spd(11, 4));
        // Degenerate orders are well defined.
        assert!(crate::ops::is_spd(&random_spd(0, 1), 1e-12).unwrap());
        assert!(crate::ops::is_spd(&random_spd(1, 1), 1e-12).unwrap());
    }

    /// The element-at-a-time formulations the in-place fills replaced, kept
    /// as the definition of what they must produce.
    fn triangular_by_elements(n: usize, uplo: Uplo, seed: u64) -> Matrix {
        let dense = random_seeded(n, n, seed);
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                let v = dense[(i, j)];
                v.signum() * (2.0 + v.abs())
            } else if uplo.contains(i, j) {
                dense[(i, j)]
            } else {
                0.0
            }
        })
    }

    fn spd_by_elements(n: usize, seed: u64) -> Matrix {
        let dense = random_seeded(n, n, seed);
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                n as f64 + 1.0
            } else {
                0.5 * (dense[(i, j)] + dense[(j, i)])
            }
        })
    }

    #[test]
    fn in_place_fills_are_bit_identical_to_the_element_formulations() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [0, 1, 7, 32, 33, 100] {
            for seed in [1, 17, 2022] {
                assert_eq!(
                    bits(&random_spd(n, seed)),
                    bits(&spd_by_elements(n, seed)),
                    "spd n={n} seed={seed}"
                );
                for uplo in [Uplo::Lower, Uplo::Upper] {
                    assert_eq!(
                        bits(&random_triangular(n, uplo, seed)),
                        bits(&triangular_by_elements(n, uplo, seed)),
                        "triangular n={n} {uplo:?} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn random_symmetric_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(11);
        let s = random_symmetric(12, &mut rng);
        assert!(is_symmetric(&s, 1e-15).unwrap());
    }

    #[test]
    fn fill_uniform_overwrites_all_elements() {
        let mut m = Matrix::filled(6, 6, 123.0);
        let mut rng = StdRng::seed_from_u64(5);
        fill_uniform(&mut m, &mut rng);
        assert!(m.as_slice().iter().all(|&x| x != 123.0));
    }
}
