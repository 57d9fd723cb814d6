//! Deterministic test-matrix generators.
//!
//! Every experiment in this workspace is reproducible: the generators take an
//! explicit seed (or an explicit [`SeededRng`]), so the same
//! `(kind, size, seed)` triple always produces the same matrix. The RNG is a
//! self-contained xoshiro256++ generator (seeded through SplitMix64), so the
//! workspace carries no external randomness dependency.

use crate::dense::Matrix;
use crate::scalar::Scalar;
use crate::symmetric::SymMatrix;
use crate::triangular::LowerTriangular;
use std::ops::Range;

/// A small, fast, deterministic pseudo-random generator (xoshiro256++).
///
/// Quality is far beyond what the test-matrix generators need, and the
/// implementation is ~30 lines, which keeps the workspace dependency-free.
#[derive(Debug, Clone)]
pub struct SeededRng {
    state: [u64; 4],
}

impl SeededRng {
    /// Creates a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            state: [next(), next(), next(), next()],
        }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        self.state = [s0, s1, s2, s3.rotate_left(45)];
        result
    }

    /// A uniform `f64` in `[0, 1)` (53 random mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample in `[range.start, range.end)` (`f64` or `usize`).
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Out {
        range.sample(self)
    }
}

/// Ranges the [`SeededRng`] can sample from uniformly.
pub trait SampleRange {
    /// The sampled value type.
    type Out;
    /// Draws one uniform sample from the half-open range.
    fn sample(self, rng: &mut SeededRng) -> Self::Out;
}

impl SampleRange for Range<f64> {
    type Out = f64;
    fn sample(self, rng: &mut SeededRng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl SampleRange for Range<usize> {
    type Out = usize;
    fn sample(self, rng: &mut SeededRng) -> usize {
        debug_assert!(self.start < self.end);
        let span = (self.end - self.start) as u64;
        self.start + (rng.next_u64() % span) as usize
    }
}

/// Creates a seeded RNG shared by the generators.
pub fn seeded_rng(seed: u64) -> SeededRng {
    SeededRng::seed_from_u64(seed)
}

/// Uniformly random `rows x cols` matrix with entries in `[-1, 1)`.
pub fn random_matrix<T: Scalar>(rows: usize, cols: usize, rng: &mut SeededRng) -> Matrix<T> {
    Matrix::from_fn(rows, cols, |_, _| T::from_f64(rng.gen_range(-1.0_f64..1.0)))
}

/// Uniformly random `rows x cols` matrix from a seed.
pub fn random_matrix_seeded<T: Scalar>(rows: usize, cols: usize, seed: u64) -> Matrix<T> {
    random_matrix(rows, cols, &mut seeded_rng(seed))
}

/// Random symmetric matrix (entries of the lower triangle in `[-1, 1)`).
pub fn random_symmetric<T: Scalar>(n: usize, rng: &mut SeededRng) -> SymMatrix<T> {
    SymMatrix::from_lower_fn(n, |_, _| T::from_f64(rng.gen_range(-1.0_f64..1.0)))
}

/// Random lower-triangular matrix with strictly positive diagonal entries in
/// `[0.5, 1.5)` (so it is always invertible and well conditioned enough for
/// the residual tests).
pub fn random_lower_triangular<T: Scalar>(n: usize, rng: &mut SeededRng) -> LowerTriangular<T> {
    LowerTriangular::from_lower_fn(n, |i, j| {
        if i == j {
            T::from_f64(rng.gen_range(0.5_f64..1.5))
        } else {
            T::from_f64(rng.gen_range(-1.0_f64..1.0))
        }
    })
}

/// Random symmetric positive definite matrix built as `B Bᵀ + n·I` with `B`
/// uniform in `[-1, 1)`. The diagonal shift makes the smallest eigenvalue at
/// least `n`, which keeps Cholesky factorizations well conditioned for every
/// size used in tests and benchmarks.
pub fn random_spd<T: Scalar>(n: usize, rng: &mut SeededRng) -> SymMatrix<T> {
    let b = random_matrix::<T>(n, n, rng);
    let mut s = SymMatrix::zeros(n);
    for i in 0..n {
        for j in 0..=i {
            let mut acc = T::ZERO;
            for k in 0..n {
                acc = b[(i, k)].mul_add(b[(j, k)], acc);
            }
            if i == j {
                acc += T::from_f64(n as f64);
            }
            s.set(i, j, acc);
        }
    }
    s
}

/// Random SPD matrix from a seed.
pub fn random_spd_seeded<T: Scalar>(n: usize, seed: u64) -> SymMatrix<T> {
    random_spd(n, &mut seeded_rng(seed))
}

/// Diagonally dominant SPD matrix with random off-diagonal entries; cheaper to
/// generate than [`random_spd`] (no `n^3` product), used for large benchmark
/// inputs.
pub fn diag_dominant_spd<T: Scalar>(n: usize, rng: &mut SeededRng) -> SymMatrix<T> {
    let mut s = SymMatrix::from_lower_fn(n, |i, j| {
        if i == j {
            T::ZERO
        } else {
            T::from_f64(rng.gen_range(-1.0_f64..1.0))
        }
    });
    for i in 0..n {
        let mut row_sum = T::ZERO;
        for j in 0..n {
            if j != i {
                row_sum += s.get(i, j).abs();
            }
        }
        s.set(i, i, row_sum + T::ONE);
    }
    s
}

/// Diagonally dominant SPD matrix from a seed.
pub fn diag_dominant_spd_seeded<T: Scalar>(n: usize, seed: u64) -> SymMatrix<T> {
    diag_dominant_spd(n, &mut seeded_rng(seed))
}

/// The (symmetric positive definite, notoriously ill-conditioned) Hilbert
/// matrix `H[i][j] = 1 / (i + j + 1)`. Useful to exercise loss-of-precision
/// paths; not used where tight residuals are asserted.
pub fn hilbert<T: Scalar>(n: usize) -> SymMatrix<T> {
    SymMatrix::from_lower_fn(n, |i, j| T::from_f64(1.0 / (i as f64 + j as f64 + 1.0)))
}

/// Symmetric tridiagonal SPD matrix with `2` on the diagonal and `-1` on the
/// sub/super diagonals (the 1-D Laplacian), scaled so it stays SPD.
pub fn laplacian_1d<T: Scalar>(n: usize) -> SymMatrix<T> {
    SymMatrix::from_lower_fn(n, |i, j| {
        if i == j {
            T::from_f64(2.0)
        } else if i == j + 1 {
            T::from_f64(-1.0)
        } else {
            T::ZERO
        }
    })
}

/// Dense matrix whose entry `(i, j)` is a deterministic, non-random function
/// of the indices; useful for exact (bit-reproducible) comparisons between
/// schedules without involving an RNG.
pub fn indexed_matrix<T: Scalar>(rows: usize, cols: usize) -> Matrix<T> {
    Matrix::from_fn(rows, cols, |i, j| {
        T::from_f64(((i * 31 + j * 17) % 13) as f64 / 13.0 - 0.5)
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kernels::cholesky::cholesky_sym;

    #[test]
    fn seeded_generation_is_deterministic() {
        let a: Matrix<f64> = random_matrix_seeded(6, 4, 42);
        let b: Matrix<f64> = random_matrix_seeded(6, 4, 42);
        let c: Matrix<f64> = random_matrix_seeded(6, 4, 43);
        assert!(a.approx_eq(&b, 0.0));
        assert!(!a.approx_eq(&c, 0.0));
    }

    #[test]
    fn random_entries_are_in_range() {
        let a: Matrix<f64> = random_matrix_seeded(20, 20, 7);
        assert!(a.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn spd_matrices_factorize() {
        for seed in [1_u64, 2, 3] {
            let s: SymMatrix<f64> = random_spd_seeded(12, seed);
            assert!(cholesky_sym(&s).is_ok(), "seed {seed} should be SPD");
        }
    }

    #[test]
    fn diag_dominant_is_spd() {
        let s: SymMatrix<f64> = diag_dominant_spd_seeded(25, 11);
        assert!(cholesky_sym(&s).is_ok());
        // diagonal strictly dominates
        for i in 0..25 {
            let mut off = 0.0;
            for j in 0..25 {
                if j != i {
                    off += s.get(i, j).abs();
                }
            }
            assert!(s.get(i, i) > off);
        }
    }

    #[test]
    fn hilbert_and_laplacian_shapes() {
        let h: SymMatrix<f64> = hilbert(4);
        assert_eq!(h.get(0, 0), 1.0);
        assert!((h.get(2, 1) - 0.25).abs() < 1e-15);

        let l: SymMatrix<f64> = laplacian_1d(5);
        assert_eq!(l.get(2, 2), 2.0);
        assert_eq!(l.get(3, 2), -1.0);
        assert_eq!(l.get(4, 2), 0.0);
        assert!(cholesky_sym(&l).is_ok());
    }

    #[test]
    fn triangular_generator_has_positive_diagonal() {
        let l: LowerTriangular<f64> = random_lower_triangular(10, &mut seeded_rng(3));
        for i in 0..10 {
            assert!(l.get(i, i) >= 0.5);
        }
    }

    #[test]
    fn indexed_matrix_is_reproducible_without_rng() {
        let a: Matrix<f64> = indexed_matrix(8, 8);
        let b: Matrix<f64> = indexed_matrix(8, 8);
        assert!(a.approx_eq(&b, 0.0));
        assert!(a.max_abs() <= 0.5);
    }

    #[test]
    fn random_symmetric_is_symmetric() {
        let s: SymMatrix<f64> = random_symmetric(9, &mut seeded_rng(5));
        let d = s.to_dense();
        assert!(d.is_symmetric(0.0));
    }

    /// Kernel test input: values in `[-3, 3)`, a zero at every fifth entry (the
    /// kernels' zero-multiplier skips) and, with `poison`, a NaN at entry 1, `+∞`
    /// last and `−∞` second to last, where the length leaves room for them.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn poisoned_vector<T: Scalar>(n: usize, seed: u64, poison: bool) -> Vec<T> {
        let mut rng = seeded_rng(seed);
        let mut v: Vec<T> = (0..n)
            .map(|i| {
                let v = rng.gen_range(-3.0..3.0);
                T::from_f64(if i % 5 == 3 { 0.0 } else { v })
            })
            .collect();
        if poison && n > 2 {
            v[1] = T::from_f64(f64::NAN);
            v[n - 1] = T::from_f64(f64::INFINITY);
        }
        if poison && n > 3 {
            v[n - 2] = T::from_f64(f64::NEG_INFINITY);
        }
        v
    }

    /// Asserts that `a` and `b` hold the same bits. Widening to `f64` keeps every
    /// value and a NaN's sign and payload, so equal `f64` bits mean equal bits.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn assert_bits_eq<T: Scalar>(a: &[T], b: &[T], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let (xb, yb) = (x.to_f64().to_bits(), y.to_f64().to_bits());
            assert!(xb == yb, "{what}: element {i} differs: {x} vs {y}");
        }
    }
}
