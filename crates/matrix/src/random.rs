//! Deterministic random matrix generation.
//!
//! The paper's operands are "dense and unstructured", so only their sizes (not
//! their elements) affect performance. The measured executor, the calibration
//! sweeps and the test suites still fill operands with reproducible
//! pseudo-random values, so that numerical validation across algorithm
//! variants is meaningful; the simulated executors fill nothing.
//!
//! The seeded operands ([`random_seeded`], [`random_spd`],
//! [`random_triangular`]) are counter-based (Salmon, Moraes, Dror & Shaw,
//! *Parallel random numbers: as easy as 1, 2, 3*, SC 2011): element `(i, j)`
//! is a pure function of `(seed, shape, i, j)` — the SplitMix64 finaliser of
//! the element's counter, mapped to `[-1, 1)`. No element depends on another,
//! so a fill runs in eight independent lanes that vectorise, and symmetry
//! costs nothing: an SPD operand hashes `(max(i, j), min(i, j))`. Each has an
//! in-place form (`*_into`) that overwrites a matrix's storage without
//! zeroing it first; the allocating forms wrap it.

use crate::dense::Matrix;
use crate::types::Uplo;
use rand::distr::{Distribution, Uniform};
use rand::Rng;

/// Elements a seeded fill computes side by side.
const LANES: usize = 8;

/// SplitMix64's state increment: counter `c` of a stream is the state after
/// `c` steps.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output finaliser (Steele, Lea & Flood, OOPSLA 2014).
#[inline(always)]
fn finalise(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The stream of a seeded `rows x cols` operand: different seeds and
/// different shapes decorrelate.
fn stream_of(seed: u64, rows: usize, cols: usize) -> u64 {
    finalise(seed ^ finalise((rows as u64).wrapping_mul(GAMMA) ^ cols as u64))
}

/// A hash mapped to `[-1, 1)`: its top 52 bits are the mantissa of a value
/// in `[2, 4)`, and subtracting 3 is exact.
#[inline(always)]
fn unit(bits: u64) -> f64 {
    f64::from_bits(0x4000_0000_0000_0000 | (bits >> 12)) - 3.0
}

/// Element `counter` of `stream`: the SplitMix64 output `counter` steps in.
fn element(stream: u64, counter: u64) -> f64 {
    unit(finalise(stream.wrapping_add(counter.wrapping_mul(GAMMA))))
}

/// Push elements `start, start + step, …` (`len` of them) of `stream`: one
/// SplitMix64 state per lane, each advanced [`LANES`] counters per block.
fn push_elements(data: &mut Vec<f64>, stream: u64, start: u64, step: u64, len: usize) {
    let base = stream.wrapping_add(start.wrapping_mul(GAMMA));
    let inc = step.wrapping_mul(GAMMA);
    let jump = inc.wrapping_mul(LANES as u64);
    let mut state: [u64; LANES] =
        std::array::from_fn(|l| base.wrapping_add((l as u64).wrapping_mul(inc)));
    data.reserve(len);
    for _ in 0..len / LANES {
        let block: [f64; LANES] = std::array::from_fn(|l| unit(finalise(state[l])));
        data.extend_from_slice(&block);
        for s in &mut state {
            *s = s.wrapping_add(jump);
        }
    }
    data.extend(state[..len % LANES].iter().map(|&s| unit(finalise(s))));
}

/// A triangular operand's diagonal element: `±(2 + |v|)`, at least 2 in
/// magnitude.
fn lift(v: f64) -> f64 {
    v.signum() * (2.0 + v.abs())
}

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

/// Overwrite `m` with the seeded matrix of its shape (see
/// [`random_seeded`]). Element `(i, j)` is counter `i + j·rows` of the
/// stream of `(seed, rows, cols)`, so the whole matrix is one sequential
/// pass.
pub fn random_seeded_into(m: &mut Matrix, seed: u64) {
    let (rows, cols) = m.shape();
    m.overwrite(|data| push_elements(data, stream_of(seed, rows, cols), 0, 1, rows * cols));
}

/// Create a `rows x cols` matrix seeded deterministically: the same
/// `(rows, cols, seed)` triple always yields the same matrix, with values in
/// `[-1, 1)`.
#[must_use]
pub fn random_seeded(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = Matrix::unfilled(rows, cols);
    random_seeded_into(&mut m, seed);
    m
}

/// Overwrite the square `m` with the triangular operand of its order (see
/// [`random_triangular`]): only the `uplo` triangle is generated, one column
/// at a time, each element the one [`random_seeded_into`] puts there.
///
/// # Panics
///
/// Panics if `m` is not square.
pub fn random_triangular_into(m: &mut Matrix, uplo: Uplo, seed: u64) {
    assert!(m.is_square(), "a triangular operand is square");
    let n = m.rows();
    let s = stream_of(seed, n, n);
    m.overwrite(|data| {
        for j in 0..n {
            let diagonal = (j + j * n) as u64;
            match uplo {
                Uplo::Lower => {
                    data.resize(data.len() + j, 0.0);
                    data.push(lift(element(s, diagonal)));
                    push_elements(data, s, diagonal + 1, 1, n - j - 1);
                }
                Uplo::Upper => {
                    push_elements(data, s, (j * n) as u64, 1, j);
                    data.push(lift(element(s, diagonal)));
                    data.resize(data.len() + n - j - 1, 0.0);
                }
            }
        }
    });
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
#[must_use]
pub fn random_triangular(n: usize, uplo: Uplo, seed: u64) -> Matrix {
    let mut m = Matrix::unfilled(n, n);
    random_triangular_into(&mut m, uplo, seed);
    m
}

/// Overwrite the square `m` with the SPD operand of its order (see
/// [`random_spd`]) in one sequential column pass: element `(i, j)` off the
/// diagonal is counter `max(i, j) + min(i, j)·n` of the stream, so the
/// part of column `j` above the diagonal reads its counters `n` apart and
/// the part below reads them in a row — and `(i, j)` and `(j, i)` hash the
/// same counter, which makes the matrix exactly symmetric.
///
/// # Panics
///
/// Panics if `m` is not square.
pub fn random_spd_into(m: &mut Matrix, seed: u64) {
    assert!(m.is_square(), "an SPD operand is square");
    let n = m.rows();
    let s = stream_of(seed, n, n);
    m.overwrite(|data| {
        for j in 0..n {
            push_elements(data, s, j as u64, n as u64, j);
            data.push(n as f64 + 1.0);
            push_elements(data, s, (j + j * n + 1) as u64, 1, n - j - 1);
        }
    });
}

/// Create a random symmetric positive-definite `n x n` matrix: exactly
/// symmetric off-diagonal values in `[-1, 1)` with the diagonal lifted to
/// `n + 1`, which makes the matrix strictly diagonally dominant with a
/// positive diagonal — a sufficient condition for positive definiteness.
/// Dominance keeps the Cholesky factorisation and the subsequent triangular
/// solves well conditioned, which is what lets POTRF-based algorithm variants
/// be compared numerically against naive references at `1e-10`-level
/// tolerances.
///
/// The same `(n, seed)` pair always yields the same matrix, so two algorithms
/// of the same expression see identical SPD operands.
#[must_use]
pub fn random_spd(n: usize, seed: u64) -> Matrix {
    let mut m = Matrix::unfilled(n, n);
    random_spd_into(&mut m, seed);
    m
}

/// Create a random symmetric `n x n` matrix (A + Aᵀ scaled to stay in range).
#[must_use]
pub fn random_symmetric<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Matrix {
    let a = random_uniform(n, n, rng);
    Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::is_symmetric;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Instant;

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

    /// The definition the fills implement, one element at a time: element
    /// `(i, j)` of a seeded `rows x cols` operand is counter `i + j·rows` of
    /// the stream of `(seed, rows, cols)`.
    fn seeded_by_elements(rows: usize, cols: usize, seed: u64) -> Matrix {
        let s = stream_of(seed, rows, cols);
        Matrix::from_fn(rows, cols, |i, j| element(s, (i + j * rows) as u64))
    }

    /// An SPD operand hashes `(max(i, j), min(i, j))`; its diagonal is `n + 1`.
    fn spd_by_elements(n: usize, seed: u64) -> Matrix {
        let s = stream_of(seed, n, n);
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                n as f64 + 1.0
            } else {
                element(s, (i.max(j) + i.min(j) * n) as u64)
            }
        })
    }

    /// A triangular operand is the seeded one on its live triangle, lifted on
    /// the diagonal and zero elsewhere.
    fn triangular_by_elements(n: usize, uplo: Uplo, seed: u64) -> Matrix {
        let s = stream_of(seed, n, n);
        Matrix::from_fn(n, n, |i, j| {
            let v = element(s, (i + j * n) as u64);
            if i == j {
                v.signum() * (2.0 + v.abs())
            } else if uplo.contains(i, j) {
                v
            } else {
                0.0
            }
        })
    }

    #[test]
    fn in_place_fills_are_bit_identical_to_the_element_formulations() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Orders on both sides of a lane block, and rectangular shapes.
        for (rows, cols) in [
            (0, 0),
            (1, 1),
            (7, 7),
            (8, 3),
            (9, 17),
            (32, 32),
            (33, 33),
            (100, 100),
        ] {
            for seed in [1, 17, 2022] {
                let general = seeded_by_elements(rows, cols, seed);
                assert_eq!(bits(&random_seeded(rows, cols, seed)), bits(&general));
                // The in-place form ignores whatever the storage held.
                let mut stale = Matrix::filled(rows, cols, f64::NAN);
                random_seeded_into(&mut stale, seed);
                assert_eq!(bits(&stale), bits(&general), "{rows}x{cols} seed={seed}");
                if rows != cols {
                    continue;
                }
                let n = rows;
                let spd = spd_by_elements(n, seed);
                assert_eq!(
                    bits(&random_spd(n, seed)),
                    bits(&spd),
                    "spd n={n} seed={seed}"
                );
                random_spd_into(&mut stale, seed);
                assert_eq!(bits(&stale), bits(&spd), "spd n={n} seed={seed}");
                for uplo in [Uplo::Lower, Uplo::Upper] {
                    let tri = triangular_by_elements(n, uplo, seed);
                    assert_eq!(
                        bits(&random_triangular(n, uplo, seed)),
                        bits(&tri),
                        "triangular n={n} {uplo:?} seed={seed}"
                    );
                    stale.fill(f64::NAN);
                    random_triangular_into(&mut stale, uplo, seed);
                    assert_eq!(bits(&stale), bits(&tri), "triangular n={n} {uplo:?}");
                }
            }
        }
    }

    #[test]
    fn allocating_forms_hold_exactly_their_elements() {
        let m = random_seeded(13, 9, 4);
        assert_eq!(m.as_slice().len(), 13 * 9);
        assert_eq!(m.clone().into_vec().capacity(), 13 * 9);
        assert_eq!(random_spd(21, 4).into_vec().capacity(), 21 * 21);
        assert_eq!(
            random_triangular(21, Uplo::Upper, 4).into_vec().capacity(),
            21 * 21
        );
    }

    #[test]
    fn the_unit_map_covers_minus_one_to_one() {
        assert_eq!(unit(0), -1.0);
        assert_eq!(unit(u64::MAX), 1.0 - 2.0 * f64::EPSILON);
        assert!((-1.0..1.0).contains(&unit(0x8000_0000_0000_0000)));
    }

    /// Guard against the fill becoming a serial chain again (one generator
    /// state threaded through every element): minima of the seeded fill
    /// against a plain `fill` of the same 256 x 256 buffer, taken in one
    /// process, so a slow runner slows both sides alike. Release mode only
    /// (CI runs it with `--release -- --ignored`).
    #[test]
    #[ignore = "timing ratio: run in release mode"]
    fn operand_fill_is_not_a_serial_chain() {
        let mut m = random_seeded(256, 256, 1);
        let time = |pass: &mut dyn FnMut()| {
            let start = Instant::now();
            pass();
            start.elapsed().as_secs_f64()
        };
        // Interleaved, so a burst of interference slows both sides alike.
        let (mut seeded, mut plain) = (f64::INFINITY, f64::INFINITY);
        for seed in 0..2000 {
            seeded = seeded.min(time(&mut || {
                random_seeded_into(&mut m, seed);
                std::hint::black_box(&m);
            }));
            plain = plain.min(time(&mut || {
                m.fill(std::hint::black_box(0.5));
                std::hint::black_box(&m);
            }));
        }
        let ratio = seeded / plain;
        println!(
            "seeded fill {:.1} us, plain fill {:.1} us: {ratio:.2}x",
            seeded * 1e6,
            plain * 1e6
        );
        assert!(
            ratio <= MAX_FILL_OVER_PLAIN,
            "seeded fill {:.1} us against a plain fill's {:.1} us: {ratio:.2}x, over {MAX_FILL_OVER_PLAIN}x",
            seeded * 1e6,
            plain * 1e6
        );
    }

    /// The bound of `operand_fill_is_not_a_serial_chain`, a fifth above the
    /// slowest recorded laned fill. On a 2-vCPU AVX-512 Xeon the laned fill
    /// read 3.3–4.2x a plain fill built for the host and 4.5–5.4x built for
    /// AVX2 (`-C target-cpu=haswell`, no 64-bit vector multiply); a `StdRng`
    /// + `Uniform` loop through the same storage read 7.8–8.8x.
    const MAX_FILL_OVER_PLAIN: f64 = 6.5;

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
