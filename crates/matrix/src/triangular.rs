//! Lower-triangular matrices stored as a packed lower triangle.
//!
//! [`LowerTriangular`] represents the Cholesky factor `L` (and the triangular
//! operand of TRSM). Like [`crate::symmetric::SymMatrix`] it stores only the
//! `n(n+1)/2` lower elements, but reads of the strict upper triangle return
//! zero instead of the mirrored entry.

use crate::dense::Matrix;
use crate::error::{MatrixError, Result};
use crate::packed::{packed_len, packed_lower_index};
use crate::scalar::Scalar;
use std::fmt;

/// A lower-triangular `n x n` matrix in packed column-major storage.
#[derive(Clone, PartialEq)]
pub struct LowerTriangular<T: Scalar> {
    n: usize,
    data: Vec<T>,
}

impl<T: Scalar> LowerTriangular<T> {
    /// Creates the `n x n` zero lower-triangular matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![T::ZERO; packed_len(n)],
        }
    }

    /// Creates the `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let mut l = Self::zeros(n);
        for i in 0..n {
            l.set(i, i, T::ONE);
        }
        l
    }

    /// Creates a lower-triangular matrix from a function evaluated on the
    /// lower triangle (`i >= j`).
    pub fn from_lower_fn(n: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(packed_len(n));
        for j in 0..n {
            for i in j..n {
                data.push(f(i, j));
            }
        }
        Self { n, data }
    }

    /// Extracts the lower triangle of a dense square matrix.
    pub fn from_dense_lower(dense: &Matrix<T>) -> Result<Self> {
        if !dense.is_square() {
            return Err(MatrixError::DimensionMismatch {
                operation: "LowerTriangular::from_dense_lower",
                left: dense.shape(),
                right: (dense.rows(), dense.rows()),
            });
        }
        Ok(Self::from_lower_fn(dense.rows(), |i, j| dense[(i, j)]))
    }

    /// Matrix order `n`.
    #[inline]
    pub fn order(&self) -> usize {
        self.n
    }

    /// Number of stored (packed) elements.
    #[inline]
    pub fn packed_len(&self) -> usize {
        self.data.len()
    }

    /// Element `(i, j)`; zero when `i < j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        if i >= j {
            self.data[packed_lower_index(self.n, i, j)]
        } else {
            T::ZERO
        }
    }

    /// Sets element `(i, j)` with `i >= j`; panics (in debug builds) if the
    /// target lies in the strict upper triangle.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: T) {
        debug_assert!(i >= j, "cannot set the upper triangle of LowerTriangular");
        self.data[packed_lower_index(self.n, i, j)] = value;
    }

    /// Read-only access to the packed buffer.
    #[inline]
    pub fn as_packed(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the packed buffer.
    #[inline]
    pub fn as_packed_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Expands into a dense matrix with an explicit zero upper triangle.
    pub fn to_dense(&self) -> Matrix<T> {
        Matrix::from_fn(self.n, self.n, |i, j| self.get(i, j))
    }

    /// Computes `L · Lᵀ` as a dense symmetric matrix, the product that a
    /// Cholesky factor must reproduce.
    pub fn lltranspose(&self) -> Matrix<T> {
        let n = self.n;
        let mut out = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let kmax = i.min(j);
                let mut acc = T::ZERO;
                for k in 0..=kmax {
                    acc = self.get(i, k).mul_add(self.get(j, k), acc);
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    /// Solves `L x = b` by forward substitution, returning `x`.
    pub fn forward_solve(&self, b: &[T]) -> Result<Vec<T>> {
        if b.len() != self.n {
            return Err(MatrixError::InvalidBufferLength {
                expected: self.n,
                actual: b.len(),
            });
        }
        let mut x = b.to_vec();
        for i in 0..self.n {
            let mut acc = x[i];
            for (k, &xk) in x.iter().enumerate().take(i) {
                acc -= self.get(i, k) * xk;
            }
            let d = self.get(i, i);
            if d == T::ZERO || !d.is_finite_scalar() {
                return Err(MatrixError::SingularPivot { pivot: i });
            }
            x[i] = acc / d;
        }
        Ok(x)
    }

    /// Solves `Lᵀ x = b` by backward substitution, returning `x`.
    pub fn backward_solve_transpose(&self, b: &[T]) -> Result<Vec<T>> {
        if b.len() != self.n {
            return Err(MatrixError::InvalidBufferLength {
                expected: self.n,
                actual: b.len(),
            });
        }
        let mut x = b.to_vec();
        for i in (0..self.n).rev() {
            let mut acc = x[i];
            for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                acc -= self.get(k, i) * xk;
            }
            let d = self.get(i, i);
            if d == T::ZERO || !d.is_finite_scalar() {
                return Err(MatrixError::SingularPivot { pivot: i });
            }
            x[i] = acc / d;
        }
        Ok(x)
    }

    /// Largest absolute difference between the stored triangles (NaN if any difference is).
    pub fn max_abs_diff(&self, other: &Self) -> Result<f64> {
        if self.n != other.n {
            return Err(MatrixError::DimensionMismatch {
                operation: "LowerTriangular::max_abs_diff",
                left: (self.n, self.n),
                right: (other.n, other.n),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0_f64, |m, d| if d > m || d.is_nan() { d } else { m }))
    }

    /// Whether the two factors agree within `tol` on every stored element.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.n == other.n && self.max_abs_diff(other).map(|d| d <= tol).unwrap_or(false)
    }
}

impl<T: Scalar> fmt::Debug for LowerTriangular<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LowerTriangular(n={}) ", self.n)?;
        fmt::Debug::fmt(&self.to_dense(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_get() {
        let l = LowerTriangular::<f64>::identity(3);
        assert_eq!(l.get(1, 1), 1.0);
        assert_eq!(l.get(0, 2), 0.0);
        assert_eq!(l.get(2, 0), 0.0);
        assert_eq!(l.packed_len(), 6);
    }

    #[test]
    fn from_dense_and_back() {
        let d = Matrix::<f64>::from_fn(3, 3, |i, j| (i * 3 + j + 1) as f64);
        let l = LowerTriangular::from_dense_lower(&d).unwrap();
        let back = l.to_dense();
        assert!(back.is_lower_triangular());
        assert_eq!(back[(2, 1)], d[(2, 1)]);
        assert_eq!(back[(1, 2)], 0.0);
        assert!(LowerTriangular::from_dense_lower(&Matrix::<f64>::zeros(2, 3)).is_err());
    }

    #[test]
    fn lltranspose_of_identity_is_identity() {
        let l = LowerTriangular::<f64>::identity(4);
        let p = l.lltranspose();
        assert!(p.approx_eq(&Matrix::identity(4), 0.0));
    }

    #[test]
    fn lltranspose_known_case() {
        // L = [[2,0],[1,3]] => L L^T = [[4,2],[2,10]]
        let mut l = LowerTriangular::<f64>::zeros(2);
        l.set(0, 0, 2.0);
        l.set(1, 0, 1.0);
        l.set(1, 1, 3.0);
        let p = l.lltranspose();
        assert_eq!(p[(0, 0)], 4.0);
        assert_eq!(p[(1, 0)], 2.0);
        assert_eq!(p[(0, 1)], 2.0);
        assert_eq!(p[(1, 1)], 10.0);
    }

    #[test]
    fn forward_and_backward_solve() {
        let mut l = LowerTriangular::<f64>::zeros(3);
        l.set(0, 0, 2.0);
        l.set(1, 0, 1.0);
        l.set(1, 1, 3.0);
        l.set(2, 0, -1.0);
        l.set(2, 1, 2.0);
        l.set(2, 2, 4.0);

        let b = vec![4.0, 11.0, 11.0];
        let x = l.forward_solve(&b).unwrap();
        // check L x = b
        for (i, &bi) in b.iter().enumerate() {
            let mut acc = 0.0;
            for (k, &xk) in x.iter().enumerate().take(i + 1) {
                acc += l.get(i, k) * xk;
            }
            assert!((acc - bi).abs() < 1e-12);
        }

        let y = l.backward_solve_transpose(&b).unwrap();
        for (i, &bi) in b.iter().enumerate() {
            let mut acc = 0.0;
            for (k, &yk) in y.iter().enumerate().skip(i) {
                acc += l.get(k, i) * yk;
            }
            assert!((acc - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn solves_reject_bad_inputs() {
        let l = LowerTriangular::<f64>::zeros(2); // singular (zero diagonal)
        assert!(matches!(
            l.forward_solve(&[1.0, 1.0]),
            Err(MatrixError::SingularPivot { pivot: 0 })
        ));
        let id = LowerTriangular::<f64>::identity(2);
        assert!(id.forward_solve(&[1.0]).is_err());
        assert!(id.backward_solve_transpose(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn max_abs_diff_and_approx_eq_see_a_nan() {
        let id = LowerTriangular::<f64>::identity(3);
        let nan = LowerTriangular::<f64>::from_lower_fn(3, |_, _| f64::NAN);
        assert!(nan.max_abs_diff(&id).unwrap().is_nan());
        assert!(!nan.approx_eq(&id, 1e-12));
    }

    #[test]
    fn diff_and_eq() {
        let a = LowerTriangular::<f64>::identity(3);
        let mut b = a.clone();
        assert!(a.approx_eq(&b, 0.0));
        b.set(2, 0, 0.5);
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.5);
        assert!(!a.approx_eq(&b, 0.1));
        assert!(a.max_abs_diff(&LowerTriangular::zeros(4)).is_err());
    }
}
