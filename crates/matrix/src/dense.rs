//! Dense column-major matrix storage.
//!
//! [`Matrix`] is the workhorse container of the workspace: slow memory holds
//! matrices in this representation, the reference kernels operate on it, and
//! the out-of-core executors copy rectangular regions of it in and out of the
//! simulated fast memory.
//!
//! Storage is **column-major** (Fortran/BLAS order): element `(i, j)` lives at
//! offset `i + j * rows`. Column-major storage makes the column streaming
//! performed by the out-of-core SYRK schedules (`A[:, k]` accesses) contiguous.

use crate::error::{MatrixError, Result};
use crate::scalar::Scalar;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense column-major matrix of scalars.
#[derive(Clone, PartialEq)]
pub struct Matrix<T: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Creates a matrix from a function of the element index.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from a column-major data buffer.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<T>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::InvalidBufferLength {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a row-major data buffer (transposing into the
    /// internal column-major layout).
    pub fn from_row_major(rows: usize, cols: usize, data: &[T]) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::InvalidBufferLength {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self::from_fn(rows, cols, |i, j| data[i * cols + j]))
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of stored elements (`rows * cols`).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    #[inline]
    fn offset(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.rows && j < self.cols);
        i + j * self.rows
    }

    /// Bounds-checked element access.
    pub fn get(&self, i: usize, j: usize) -> Result<T> {
        if i >= self.rows || j >= self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                index: (i, j),
                shape: self.shape(),
            });
        }
        Ok(self.data[self.offset(i, j)])
    }

    /// Bounds-checked element assignment.
    pub fn set(&mut self, i: usize, j: usize, value: T) -> Result<()> {
        if i >= self.rows || j >= self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                index: (i, j),
                shape: self.shape(),
            });
        }
        let off = self.offset(i, j);
        self.data[off] = value;
        Ok(())
    }

    /// Read-only view of the underlying column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the underlying column-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Read-only view of column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        let start = j * self.rows;
        &self.data[start..start + self.rows]
    }

    /// Mutable view of column `j` as a contiguous slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        let start = j * self.rows;
        &mut self.data[start..start + self.rows]
    }

    /// Copies row `i` into a freshly allocated vector.
    pub fn row(&self, i: usize) -> Vec<T> {
        (0..self.cols).map(|j| self[(i, j)]).collect()
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: T) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Multiplies every element by `alpha`.
    pub fn scale(&mut self, alpha: T) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Returns a new matrix whose elements are `f` applied to each element.
    pub fn map(&self, mut f: impl FnMut(T) -> T) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Element-wise `self += alpha * other`.
    pub fn axpy(&mut self, alpha: T, other: &Self) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(MatrixError::DimensionMismatch {
                operation: "axpy",
                left: self.shape(),
                right: other.shape(),
            });
        }
        for (x, &y) in self.data.iter_mut().zip(other.data.iter()) {
            *x = alpha.mul_add(y, *x);
        }
        Ok(())
    }

    /// Copies the `rows x cols` block of `self` starting at `(row0, col0)`
    /// into a new matrix.
    pub fn block(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> Result<Self> {
        if row0 + rows > self.rows || col0 + cols > self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                index: (row0 + rows, col0 + cols),
                shape: self.shape(),
            });
        }
        Ok(Self::from_fn(rows, cols, |i, j| self[(row0 + i, col0 + j)]))
    }

    /// Writes `block` into `self` starting at `(row0, col0)`.
    pub fn set_block(&mut self, row0: usize, col0: usize, block: &Self) -> Result<()> {
        if row0 + block.rows > self.rows || col0 + block.cols > self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                index: (row0 + block.rows, col0 + block.cols),
                shape: self.shape(),
            });
        }
        for j in 0..block.cols {
            for i in 0..block.rows {
                self[(row0 + i, col0 + j)] = block[(i, j)];
            }
        }
        Ok(())
    }

    /// Copies the rows listed in `row_indices` (in order) restricted to the
    /// column range `col0..col0+cols` into a new `row_indices.len() x cols`
    /// matrix. This is the "gather" primitive used by the triangle-block
    /// schedules, whose blocks touch non-contiguous rows.
    pub fn gather_rows(&self, row_indices: &[usize], col0: usize, cols: usize) -> Result<Self> {
        if col0 + cols > self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                index: (0, col0 + cols),
                shape: self.shape(),
            });
        }
        for &r in row_indices {
            if r >= self.rows {
                return Err(MatrixError::IndexOutOfBounds {
                    index: (r, 0),
                    shape: self.shape(),
                });
            }
        }
        Ok(Self::from_fn(row_indices.len(), cols, |i, j| {
            self[(row_indices[i], col0 + j)]
        }))
    }

    /// Scatters `block` back into the rows listed in `row_indices`, columns
    /// `col0..col0+block.cols()`. Inverse of [`Matrix::gather_rows`].
    pub fn scatter_rows(&mut self, row_indices: &[usize], col0: usize, block: &Self) -> Result<()> {
        if block.rows != row_indices.len() {
            return Err(MatrixError::DimensionMismatch {
                operation: "scatter_rows",
                left: (row_indices.len(), block.cols),
                right: block.shape(),
            });
        }
        if col0 + block.cols > self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                index: (0, col0 + block.cols),
                shape: self.shape(),
            });
        }
        for (bi, &r) in row_indices.iter().enumerate() {
            if r >= self.rows {
                return Err(MatrixError::IndexOutOfBounds {
                    index: (r, 0),
                    shape: self.shape(),
                });
            }
            for j in 0..block.cols {
                self[(r, col0 + j)] = block[(bi, j)];
            }
        }
        Ok(())
    }

    /// Largest absolute value of any element (the max norm; NaN if any element is).
    pub fn max_abs(&self) -> T {
        let keep_nan = |m: T, a: T| if a > m || a.to_f64().is_nan() { a } else { m };
        self.data.iter().map(|&x| x.abs()).fold(T::ZERO, keep_nan)
    }

    /// Frobenius norm of the matrix, accumulated in `f64`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&x| {
                let v = x.to_f64();
                v * v
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Largest absolute element-wise difference with `other` (NaN if any difference is).
    pub fn max_abs_diff(&self, other: &Self) -> Result<f64> {
        if self.shape() != other.shape() {
            return Err(MatrixError::DimensionMismatch {
                operation: "max_abs_diff",
                left: self.shape(),
                right: other.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0_f64, |m, d| if d > m || d.is_nan() { d } else { m }))
    }

    /// Whether `self` and `other` agree element-wise within `tol` (absolute).
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .max_abs_diff(other)
                .map(|diff| diff <= tol)
                .unwrap_or(false)
    }

    /// Zeroes the strict upper triangle, keeping the lower triangle and the
    /// diagonal. Useful when comparing outputs of lower-triangular kernels.
    pub fn zero_strict_upper(&mut self) {
        let n = self.rows.min(self.cols);
        for j in 0..self.cols {
            for i in 0..j.min(n) {
                self[(i, j)] = T::ZERO;
            }
        }
    }

    /// Mirrors the lower triangle onto the upper triangle (only meaningful for
    /// square matrices). Turns a lower-triangular representation of a
    /// symmetric matrix into an explicitly symmetric dense matrix.
    pub fn symmetrize_from_lower(&mut self) {
        debug_assert!(self.is_square());
        for j in 0..self.cols {
            for i in (j + 1)..self.rows {
                let v = self[(i, j)];
                self[(j, i)] = v;
            }
        }
    }

    /// Whether every element above the diagonal is exactly zero.
    pub fn is_lower_triangular(&self) -> bool {
        for j in 0..self.cols {
            for i in 0..j.min(self.rows) {
                if self[(i, j)] != T::ZERO {
                    return false;
                }
            }
        }
        true
    }

    /// Whether the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for j in 0..self.cols {
            for i in (j + 1)..self.rows {
                if (self[(i, j)].to_f64() - self[(j, i)].to_f64()).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Iterator over `(i, j, value)` triples in column-major order.
    pub fn iter_indexed(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        let rows = self.rows;
        self.data
            .iter()
            .enumerate()
            .map(move |(k, &v)| (k % rows, k / rows, v))
    }

    /// Consumes the matrix and returns the underlying column-major buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        &self.data[i + j * self.rows]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        &mut self.data[i + j * self.rows]
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = self.rows.min(8);
        let max_cols = self.cols.min(8);
        for i in 0..max_rows {
            write!(f, "  ")?;
            for j in 0..max_cols {
                write!(f, "{:>12.5} ", self[(i, j)].to_f64())?;
            }
            if self.cols > max_cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::<f64>::zeros(3, 5);
        assert_eq!(m.shape(), (3, 5));
        assert_eq!(m.len(), 15);
        assert!(!m.is_empty());
        assert!(!m.is_square());
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::<f64>::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_fn_column_major_layout() {
        let m = Matrix::<f64>::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        // Column major: (0,0), (1,0), (0,1), (1,1), (0,2), (1,2)
        assert_eq!(m.as_slice(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
        assert_eq!(m[(1, 2)], 12.0);
    }

    #[test]
    fn from_buffers() {
        let col = Matrix::<f64>::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(col[(0, 0)], 1.0);
        assert_eq!(col[(1, 0)], 2.0);
        assert_eq!(col[(0, 1)], 3.0);

        let row = Matrix::<f64>::from_row_major(2, 2, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(row[(0, 1)], 2.0);
        assert_eq!(row[(1, 0)], 3.0);

        assert!(Matrix::<f64>::from_col_major(2, 2, vec![1.0]).is_err());
        assert!(Matrix::<f64>::from_row_major(2, 2, &[1.0]).is_err());
    }

    #[test]
    fn get_set_bounds() {
        let mut m = Matrix::<f64>::zeros(2, 2);
        m.set(1, 1, 5.0).unwrap();
        assert_eq!(m.get(1, 1).unwrap(), 5.0);
        assert!(m.get(2, 0).is_err());
        assert!(m.set(0, 2, 1.0).is_err());
    }

    #[test]
    fn col_access_is_contiguous() {
        let m = Matrix::<f64>::from_fn(3, 2, |i, j| (j * 3 + i) as f64);
        assert_eq!(m.col(0), &[0.0, 1.0, 2.0]);
        assert_eq!(m.col(1), &[3.0, 4.0, 5.0]);
        assert_eq!(m.row(1), vec![1.0, 4.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::<f64>::from_fn(3, 4, |i, j| (i * 7 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (4, 3));
        assert_eq!(t[(2, 1)], m[(1, 2)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn block_and_set_block() {
        let m = Matrix::<f64>::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let b = m.block(1, 2, 2, 2).unwrap();
        assert_eq!(b[(0, 0)], m[(1, 2)]);
        assert_eq!(b[(1, 1)], m[(2, 3)]);

        let mut z = Matrix::<f64>::zeros(4, 4);
        z.set_block(1, 2, &b).unwrap();
        assert_eq!(z[(1, 2)], m[(1, 2)]);
        assert_eq!(z[(0, 0)], 0.0);

        assert!(m.block(3, 3, 2, 2).is_err());
        let big = Matrix::<f64>::zeros(5, 5);
        let mut small = Matrix::<f64>::zeros(2, 2);
        assert!(small.set_block(1, 1, &big).is_err());
    }

    #[test]
    fn gather_scatter_rows() {
        let m = Matrix::<f64>::from_fn(6, 3, |i, j| (i * 10 + j) as f64);
        let rows = [1_usize, 4, 5];
        let g = m.gather_rows(&rows, 1, 2).unwrap();
        assert_eq!(g.shape(), (3, 2));
        assert_eq!(g[(0, 0)], m[(1, 1)]);
        assert_eq!(g[(2, 1)], m[(5, 2)]);

        let mut target = Matrix::<f64>::zeros(6, 3);
        target.scatter_rows(&rows, 1, &g).unwrap();
        assert_eq!(target[(4, 2)], m[(4, 2)]);
        assert_eq!(target[(0, 0)], 0.0);

        assert!(m.gather_rows(&[7], 0, 1).is_err());
        assert!(m.gather_rows(&rows, 2, 2).is_err());
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::<f64>::filled(2, 2, 1.0);
        let b = Matrix::<f64>::filled(2, 2, 2.0);
        a.axpy(3.0, &b).unwrap();
        assert!(a.as_slice().iter().all(|&x| x == 7.0));
        a.scale(0.5);
        assert!(a.as_slice().iter().all(|&x| x == 3.5));

        let c = Matrix::<f64>::zeros(3, 2);
        assert!(a.axpy(1.0, &c).is_err());
    }

    #[test]
    fn norms_and_comparisons() {
        let m = Matrix::<f64>::from_col_major(2, 2, vec![3.0, 0.0, 0.0, 4.0]).unwrap();
        assert_eq!(m.frobenius_norm(), 5.0);
        assert_eq!(m.max_abs(), 4.0);

        let mut m2 = m.clone();
        m2[(0, 0)] = 3.0 + 1e-12;
        assert!(m.approx_eq(&m2, 1e-10));
        assert!(!m.approx_eq(&m2, 1e-14));
        assert!(m.max_abs_diff(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn max_abs_diff_and_approx_eq_see_a_nan() {
        let id = Matrix::<f64>::identity(3);
        let nan = Matrix::<f64>::filled(3, 3, f64::NAN);
        assert!(nan.max_abs_diff(&id).unwrap().is_nan());
        assert!(!nan.approx_eq(&id, 1e-12));
        // A larger difference after the NaN does not displace it.
        let mut one = id.clone();
        one[(0, 0)] = f64::NAN;
        one[(2, 2)] = 10.0;
        assert!(one.max_abs_diff(&id).unwrap().is_nan());
        assert!(id.max_abs_diff(&one).unwrap().is_nan());
    }

    #[test]
    fn max_abs_sees_a_nan() {
        let mut m = Matrix::<f64>::identity(3);
        m[(1, 0)] = f64::NAN;
        m[(2, 2)] = -7.0;
        assert!(m.max_abs().is_nan());
        assert!(Matrix::<f32>::filled(2, 2, f32::NAN).max_abs().is_nan());
    }

    #[test]
    fn triangular_and_symmetry_helpers() {
        let mut m = Matrix::<f64>::from_fn(3, 3, |i, j| (i + j) as f64 + 1.0);
        assert!(!m.is_lower_triangular());
        m.zero_strict_upper();
        assert!(m.is_lower_triangular());

        let mut s = Matrix::<f64>::zeros(3, 3);
        s[(1, 0)] = 2.0;
        s[(2, 1)] = 5.0;
        s.symmetrize_from_lower();
        assert!(s.is_symmetric(0.0));
        assert_eq!(s[(0, 1)], 2.0);
    }

    #[test]
    fn map_and_iter_indexed() {
        let m = Matrix::<f64>::from_fn(2, 2, |i, j| (i + j) as f64);
        let doubled = m.map(|x| x * 2.0);
        assert_eq!(doubled[(1, 1)], 4.0);

        let collected: Vec<_> = m.iter_indexed().collect();
        assert_eq!(collected.len(), 4);
        assert_eq!(collected[0], (0, 0, 0.0));
        assert_eq!(collected[3], (1, 1, 2.0));
    }

    #[test]
    fn debug_formatting_is_bounded() {
        let m = Matrix::<f64>::zeros(20, 20);
        let repr = format!("{m:?}");
        assert!(repr.contains("Matrix 20x20"));
        assert!(repr.contains("..."));
    }

    #[test]
    fn works_with_f32() {
        let m = Matrix::<f32>::identity(3);
        assert_eq!(m.frobenius_norm(), 3.0_f64.sqrt());
    }
}
