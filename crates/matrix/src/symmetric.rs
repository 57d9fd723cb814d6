//! Symmetric matrices stored as a packed lower triangle.
//!
//! The SYRK and Cholesky kernels of the paper only reference the lower
//! triangle of their symmetric operands; [`SymMatrix`] stores exactly those
//! `n(n+1)/2` elements, which also makes the I/O accounting of the out-of-core
//! schedules honest: loading "the elements of C indexed by a triangle block"
//! moves precisely that many scalars.

use crate::dense::Matrix;
use crate::error::{MatrixError, Result};
use crate::packed::{packed_len, packed_lower_index};
use crate::scalar::Scalar;
use std::fmt;

/// A symmetric `n x n` matrix storing only its lower triangle (packed,
/// column-major).
#[derive(Clone, PartialEq)]
pub struct SymMatrix<T: Scalar> {
    n: usize,
    data: Vec<T>,
}

impl<T: Scalar> SymMatrix<T> {
    /// Creates the `n x n` zero symmetric matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![T::ZERO; packed_len(n)],
        }
    }

    /// Creates a symmetric matrix from a function evaluated on the lower
    /// triangle (`i >= j`).
    pub fn from_lower_fn(n: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(packed_len(n));
        for j in 0..n {
            for i in j..n {
                data.push(f(i, j));
            }
        }
        Self { n, data }
    }

    /// Builds a symmetric matrix from the lower triangle of a dense square
    /// matrix (the strict upper triangle of the input is ignored).
    pub fn from_dense_lower(dense: &Matrix<T>) -> Result<Self> {
        if !dense.is_square() {
            return Err(MatrixError::DimensionMismatch {
                operation: "SymMatrix::from_dense_lower",
                left: dense.shape(),
                right: (dense.rows(), dense.rows()),
            });
        }
        Ok(Self::from_lower_fn(dense.rows(), |i, j| dense[(i, j)]))
    }

    /// Creates a symmetric matrix from a packed lower-triangular buffer.
    pub fn from_packed(n: usize, data: Vec<T>) -> Result<Self> {
        if data.len() != packed_len(n) {
            return Err(MatrixError::InvalidBufferLength {
                expected: packed_len(n),
                actual: data.len(),
            });
        }
        Ok(Self { n, data })
    }

    /// Matrix order `n`.
    #[inline]
    pub fn order(&self) -> usize {
        self.n
    }

    /// Number of stored (packed) elements, `n(n+1)/2`.
    #[inline]
    pub fn packed_len(&self) -> usize {
        self.data.len()
    }

    /// Element `(i, j)`; symmetry is applied automatically, so `i < j` reads
    /// the stored `(j, i)` entry.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        self.data[packed_lower_index(self.n, i, j)]
    }

    /// Sets element `(i, j)` (and by symmetry `(j, i)`).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: T) {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        self.data[packed_lower_index(self.n, i, j)] = value;
    }

    /// Adds `value` to element `(i, j)`.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, value: T) {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        self.data[packed_lower_index(self.n, i, j)] += value;
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

    /// Expands to a dense, explicitly symmetric matrix.
    pub fn to_dense(&self) -> Matrix<T> {
        Matrix::from_fn(self.n, self.n, |i, j| self.get(i, j))
    }

    /// Expands to a dense lower-triangular matrix (upper triangle zero).
    pub fn to_dense_lower(&self) -> Matrix<T> {
        Matrix::from_fn(self.n, self.n, |i, j| {
            if i >= j {
                self.get(i, j)
            } else {
                T::ZERO
            }
        })
    }

    /// Fills every stored element with `value`.
    pub fn fill(&mut self, value: T) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Multiplies every stored element by `alpha`.
    pub fn scale(&mut self, alpha: T) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Frobenius norm of the full symmetric matrix (off-diagonal entries are
    /// counted twice, as they appear twice in the dense expansion).
    pub fn frobenius_norm(&self) -> f64 {
        let mut acc = 0.0_f64;
        for j in 0..self.n {
            for i in j..self.n {
                let v = self.get(i, j).to_f64();
                let w = if i == j { 1.0 } else { 2.0 };
                acc += w * v * v;
            }
        }
        acc.sqrt()
    }

    /// Largest absolute difference between the stored triangles of `self` and
    /// `other` (NaN if any difference is).
    pub fn max_abs_diff(&self, other: &Self) -> Result<f64> {
        if self.n != other.n {
            return Err(MatrixError::DimensionMismatch {
                operation: "SymMatrix::max_abs_diff",
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

    /// Whether `self` and `other` agree within `tol` on every stored element.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.n == other.n && self.max_abs_diff(other).map(|d| d <= tol).unwrap_or(false)
    }

    /// Iterator over the stored `(i, j, value)` entries (`i >= j`), column by
    /// column.
    pub fn iter_lower(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        let n = self.n;
        (0..n).flat_map(move |j| (j..n).map(move |i| (i, j, self.get(i, j))))
    }

    /// Gathers the entries `(r, r')` for every pair `r > r'` of `rows` (a
    /// triangle block in the paper's terminology) into a packed vector ordered
    /// lexicographically by `(index of r in rows, index of r' in rows)`.
    pub fn gather_triangle(&self, rows: &[usize]) -> Result<Vec<T>> {
        for &r in rows {
            if r >= self.n {
                return Err(MatrixError::IndexOutOfBounds {
                    index: (r, r),
                    shape: (self.n, self.n),
                });
            }
        }
        let mut out = Vec::with_capacity(rows.len() * (rows.len().saturating_sub(1)) / 2);
        for (a, &r) in rows.iter().enumerate() {
            for &rp in rows.iter().take(a) {
                out.push(self.get(r, rp));
            }
        }
        Ok(out)
    }

    /// Scatters values gathered by [`SymMatrix::gather_triangle`] back into
    /// the matrix (same ordering).
    pub fn scatter_triangle(&mut self, rows: &[usize], values: &[T]) -> Result<()> {
        let expected = rows.len() * (rows.len().saturating_sub(1)) / 2;
        if values.len() != expected {
            return Err(MatrixError::InvalidBufferLength {
                expected,
                actual: values.len(),
            });
        }
        let mut idx = 0;
        for (a, &r) in rows.iter().enumerate() {
            for &rp in rows.iter().take(a) {
                self.set(r, rp, values[idx]);
                idx += 1;
            }
        }
        Ok(())
    }
}

impl<T: Scalar> fmt::Debug for SymMatrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SymMatrix(n={}) ", self.n)?;
        fmt::Debug::fmt(&self.to_dense(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_order() {
        let s = SymMatrix::<f64>::zeros(5);
        assert_eq!(s.order(), 5);
        assert_eq!(s.packed_len(), 15);
        assert_eq!(s.get(3, 1), 0.0);
    }

    #[test]
    fn set_get_symmetry() {
        let mut s = SymMatrix::<f64>::zeros(4);
        s.set(2, 1, 7.0);
        assert_eq!(s.get(2, 1), 7.0);
        assert_eq!(s.get(1, 2), 7.0);
        s.set(0, 3, -2.0); // i < j goes through the mirror
        assert_eq!(s.get(3, 0), -2.0);
        s.add(3, 0, 1.0);
        assert_eq!(s.get(0, 3), -1.0);
    }

    #[test]
    fn max_abs_diff_and_approx_eq_see_a_nan() {
        let id = SymMatrix::<f64>::from_lower_fn(3, |i, j| if i == j { 1.0 } else { 0.0 });
        let nan = SymMatrix::<f64>::from_lower_fn(3, |_, _| f64::NAN);
        assert!(nan.max_abs_diff(&id).unwrap().is_nan());
        assert!(!nan.approx_eq(&id, 1e-12));
    }

    #[test]
    fn from_lower_fn_and_dense_roundtrip() {
        let s = SymMatrix::<f64>::from_lower_fn(4, |i, j| (i * 10 + j) as f64);
        let d = s.to_dense();
        assert!(d.is_symmetric(0.0));
        assert_eq!(d[(3, 1)], 31.0);
        assert_eq!(d[(1, 3)], 31.0);

        let s2 = SymMatrix::from_dense_lower(&d).unwrap();
        assert!(s.approx_eq(&s2, 0.0));

        let lower = s.to_dense_lower();
        assert!(lower.is_lower_triangular());
        assert_eq!(lower[(3, 1)], 31.0);
        assert_eq!(lower[(1, 3)], 0.0);
    }

    #[test]
    fn from_dense_requires_square() {
        let rect = Matrix::<f64>::zeros(3, 4);
        assert!(SymMatrix::from_dense_lower(&rect).is_err());
    }

    #[test]
    fn from_packed_validates_length() {
        assert!(SymMatrix::<f64>::from_packed(3, vec![0.0; 6]).is_ok());
        assert!(SymMatrix::<f64>::from_packed(3, vec![0.0; 5]).is_err());
    }

    #[test]
    fn frobenius_counts_off_diagonal_twice() {
        let mut s = SymMatrix::<f64>::zeros(2);
        s.set(1, 0, 3.0);
        // dense matrix [[0,3],[3,0]] has Frobenius norm sqrt(18)
        assert!((s.frobenius_norm() - 18.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn scale_fill_diff() {
        let mut s = SymMatrix::<f64>::from_lower_fn(3, |i, j| (i + j) as f64);
        let orig = s.clone();
        s.scale(2.0);
        assert_eq!(s.get(2, 1), 6.0);
        assert!(s.max_abs_diff(&orig).unwrap() > 0.0);
        s.fill(0.0);
        assert_eq!(s.frobenius_norm(), 0.0);
        assert!(s.max_abs_diff(&SymMatrix::zeros(4)).is_err());
    }

    #[test]
    fn iter_lower_covers_packed_triangle() {
        let s = SymMatrix::<f64>::from_lower_fn(4, |i, j| (i * 4 + j) as f64);
        let entries: Vec<_> = s.iter_lower().collect();
        assert_eq!(entries.len(), 10);
        assert!(entries.iter().all(|&(i, j, _)| i >= j));
        assert!(entries.contains(&(3, 2, 14.0)));
    }

    #[test]
    fn gather_scatter_triangle() {
        let mut s = SymMatrix::<f64>::from_lower_fn(6, |i, j| (i * 6 + j) as f64);
        let rows = [1_usize, 3, 4];
        let tri = s.gather_triangle(&rows).unwrap();
        // pairs: (3,1), (4,1), (4,3)
        assert_eq!(tri, vec![s.get(3, 1), s.get(4, 1), s.get(4, 3)]);

        let new_vals = vec![100.0, 200.0, 300.0];
        s.scatter_triangle(&rows, &new_vals).unwrap();
        assert_eq!(s.get(3, 1), 100.0);
        assert_eq!(s.get(4, 1), 200.0);
        assert_eq!(s.get(4, 3), 300.0);

        assert!(s.gather_triangle(&[9]).is_err());
        assert!(s.scatter_triangle(&rows, &[1.0]).is_err());
    }
}
