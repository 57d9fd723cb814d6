//! Block kernels operating on borrowed fast-memory views.
//!
//! The out-of-core executors keep their working set inside buffers owned by
//! the simulated fast memory. These kernels perform the in-core block
//! computations directly on those buffers (through [`crate::views`] views),
//! without materializing owned matrices, so the fast-memory capacity
//! accounting stays exact.
//!
//! Each kernel is verified against the owned reference kernels of the parent
//! module.

use crate::error::{MatrixError, Result};
use crate::scalar::Scalar;
use crate::views::{MatView, MatViewMut, PackedLowerViewMut};

/// Rank-1 update `C += alpha · x · yᵀ` on a rectangular view
/// (`C` is `len(x) x len(y)`).
pub fn ger_view<T: Scalar>(alpha: T, x: &[T], y: &[T], c: &mut MatViewMut<'_, T>) -> Result<()> {
    if c.rows() != x.len() || c.cols() != y.len() {
        return Err(MatrixError::DimensionMismatch {
            operation: "ger_view",
            left: (x.len(), y.len()),
            right: (c.rows(), c.cols()),
        });
    }
    for (j, &yj) in y.iter().enumerate() {
        let ayj = alpha * yj;
        if ayj == T::ZERO {
            continue;
        }
        let col = c.col_mut(j);
        for (i, &xi) in x.iter().enumerate() {
            col[i] = xi.mul_add(ayj, col[i]);
        }
    }
    Ok(())
}

/// Symmetric rank-1 update `C += alpha · x · xᵀ` on a packed lower triangle
/// (diagonal included) of order `len(x)`.
pub fn spr_lower_view<T: Scalar>(
    alpha: T,
    x: &[T],
    c: &mut PackedLowerViewMut<'_, T>,
) -> Result<()> {
    if c.order() != x.len() {
        return Err(MatrixError::DimensionMismatch {
            operation: "spr_lower_view",
            left: (x.len(), x.len()),
            right: (c.order(), c.order()),
        });
    }
    for (j, &xj) in x.iter().enumerate() {
        let axj = alpha * xj;
        if axj == T::ZERO {
            continue;
        }
        for (i, &xi) in x.iter().enumerate().skip(j) {
            c.add(i, j, xi * axj);
        }
    }
    Ok(())
}

/// Strict-lower triangle-block update used by TBS: given the values of one
/// column of `A` restricted to the block's row set (`x`, ordered like the row
/// set), updates the packed strict-lower pair buffer `pairs`
/// (`pairs[(u, v)] += alpha · x[u] · x[v]` for `u > v`, stored row-major:
/// `(1,0), (2,0), (2,1), (3,0), ...`). Runs the bitwise-equal FMA/AVX2 clone
/// on x86-64 CPUs with both features (see [`crate::kernels::micro`]).
pub fn triangle_pairs_update<T: Scalar>(alpha: T, x: &[T], pairs: &mut [T]) -> Result<()> {
    let k = x.len();
    let expected = k * k.saturating_sub(1) / 2;
    if pairs.len() != expected {
        return Err(MatrixError::InvalidBufferLength {
            expected,
            actual: pairs.len(),
        });
    }
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("fma") && is_x86_feature_detected!("avx2") {
        // SAFETY: `is_x86_feature_detected!` just found `triangle_pairs_fma`'s features.
        unsafe { triangle_pairs_fma(alpha, x, pairs) };
        return Ok(());
    }
    triangle_pairs_body(alpha, x, pairs);
    Ok(())
}

#[inline(always)]
fn triangle_pairs_body<T: Scalar>(alpha: T, x: &[T], pairs: &mut [T]) {
    let mut idx = 0;
    for u in 1..x.len() {
        let axu = alpha * x[u];
        for &xv in x.iter().take(u) {
            pairs[idx] = xv.mul_add(axu, pairs[idx]);
            idx += 1;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma,avx2")]
fn triangle_pairs_fma<T: Scalar>(alpha: T, x: &[T], pairs: &mut [T]) {
    triangle_pairs_body(alpha, x, pairs);
}

/// `C += alpha · A · Bᵀ` where all three operands are views
/// (`A` is `m x k`, `B` is `n x k`, `C` is `m x n`).
pub fn gemm_nt_view<T: Scalar>(
    alpha: T,
    a: &MatView<'_, T>,
    b: &MatView<'_, T>,
    c: &mut MatViewMut<'_, T>,
) -> Result<()> {
    if a.cols() != b.cols() || c.rows() != a.rows() || c.cols() != b.rows() {
        return Err(MatrixError::DimensionMismatch {
            operation: "gemm_nt_view",
            left: (a.rows(), a.cols()),
            right: (b.rows(), b.cols()),
        });
    }
    for j in 0..c.cols() {
        for l in 0..a.cols() {
            let bjl = alpha * b.get(j, l);
            if bjl == T::ZERO {
                continue;
            }
            let a_col = a.col(l);
            let c_col = c.col_mut(j);
            for i in 0..a_col.len() {
                c_col[i] = a_col[i].mul_add(bjl, c_col[i]);
            }
        }
    }
    Ok(())
}

/// `C += alpha · A · Aᵀ`, updating only the lower triangle of the square view
/// `C` (`A` is `n x k`, `C` is `n x n` full storage but only `i >= j` is
/// touched).
pub fn syrk_lower_view<T: Scalar>(
    alpha: T,
    a: &MatView<'_, T>,
    c: &mut MatViewMut<'_, T>,
) -> Result<()> {
    let n = a.rows();
    if c.rows() != n || c.cols() != n {
        return Err(MatrixError::DimensionMismatch {
            operation: "syrk_lower_view",
            left: (a.rows(), a.cols()),
            right: (c.rows(), c.cols()),
        });
    }
    for l in 0..a.cols() {
        let col = a.col(l);
        for j in 0..n {
            let ajl = alpha * col[j];
            if ajl == T::ZERO {
                continue;
            }
            let c_col = c.col_mut(j);
            for i in j..n {
                c_col[i] = col[i].mul_add(ajl, c_col[i]);
            }
        }
    }
    Ok(())
}

/// Unblocked in-place Cholesky of the lower triangle of a square view.
pub fn cholesky_view_in_place<T: Scalar>(a: &mut MatViewMut<'_, T>) -> Result<()> {
    if a.rows() != a.cols() {
        return Err(MatrixError::DimensionMismatch {
            operation: "cholesky_view_in_place",
            left: (a.rows(), a.cols()),
            right: (a.rows(), a.rows()),
        });
    }
    let n = a.rows();
    for k in 0..n {
        let akk = a.get(k, k);
        if akk <= T::ZERO || !akk.is_finite_scalar() {
            return Err(MatrixError::NotPositiveDefinite {
                pivot: k,
                value: akk.to_f64(),
            });
        }
        let root = akk.sqrt();
        a.set(k, k, root);
        let inv = root.recip();
        for i in (k + 1)..n {
            let v = a.get(i, k) * inv;
            a.set(i, k, v);
        }
        for j in (k + 1)..n {
            let ajk = a.get(j, k);
            if ajk == T::ZERO {
                continue;
            }
            for i in j..n {
                let aik = a.get(i, k);
                a.set(i, j, a.get(i, j) - aik * ajk);
            }
        }
    }
    Ok(())
}

/// Unblocked in-place Cholesky of a packed lower triangle (diagonal
/// included), the representation used for diagonal tiles of symmetric
/// matrices held in fast memory.
pub fn cholesky_packed_view_in_place<T: Scalar>(a: &mut PackedLowerViewMut<'_, T>) -> Result<()> {
    let n = a.order();
    for k in 0..n {
        let akk = a.get(k, k);
        if akk <= T::ZERO || !akk.is_finite_scalar() {
            return Err(MatrixError::NotPositiveDefinite {
                pivot: k,
                value: akk.to_f64(),
            });
        }
        let root = akk.sqrt();
        a.set(k, k, root);
        let inv = root.recip();
        for i in (k + 1)..n {
            let v = a.get(i, k) * inv;
            a.set(i, k, v);
        }
        for j in (k + 1)..n {
            let ajk = a.get(j, k);
            if ajk == T::ZERO {
                continue;
            }
            for i in j..n {
                let aik = a.get(i, k);
                let v = a.get(i, j) - aik * ajk;
                a.set(i, j, v);
            }
        }
    }
    Ok(())
}

/// Unblocked in-place LU factorization (no pivoting) of a square view: on
/// exit the strict lower triangle holds `L` (unit diagonal implied) and the
/// upper triangle holds `U`.
pub fn lu_view_in_place<T: Scalar>(a: &mut MatViewMut<'_, T>) -> Result<()> {
    if a.rows() != a.cols() {
        return Err(MatrixError::DimensionMismatch {
            operation: "lu_view_in_place",
            left: (a.rows(), a.cols()),
            right: (a.rows(), a.rows()),
        });
    }
    let n = a.rows();
    for k in 0..n {
        let pivot = a.get(k, k);
        if pivot == T::ZERO || !pivot.is_finite_scalar() {
            return Err(MatrixError::SingularPivot { pivot: k });
        }
        let inv = pivot.recip();
        for i in (k + 1)..n {
            let v = a.get(i, k) * inv;
            a.set(i, k, v);
        }
        for j in (k + 1)..n {
            let akj = a.get(k, j);
            if akj == T::ZERO {
                continue;
            }
            for i in (k + 1)..n {
                let v = a.get(i, j) - a.get(i, k) * akj;
                a.set(i, j, v);
            }
        }
    }
    Ok(())
}

/// In-place right triangular solve `X ← X · Lᵀ⁻¹` where `l` is the lower
/// triangle of a square view (upper part ignored) and `x` is a rectangular
/// view with `x.cols() == l.order()`.
pub fn trsm_right_lt_view<T: Scalar>(l: &MatView<'_, T>, x: &mut MatViewMut<'_, T>) -> Result<()> {
    if l.rows() != l.cols() || x.cols() != l.rows() {
        return Err(MatrixError::DimensionMismatch {
            operation: "trsm_right_lt_view",
            left: (x.rows(), x.cols()),
            right: (l.rows(), l.cols()),
        });
    }
    let n = l.rows();
    let m = x.rows();
    for j in 0..n {
        for k in 0..j {
            let ljk = l.get(j, k);
            if ljk == T::ZERO {
                continue;
            }
            let xk: Vec<T> = x.col(k).to_vec();
            let xj = x.col_mut(j);
            for i in 0..m {
                xj[i] -= xk[i] * ljk;
            }
        }
        let d = l.get(j, j);
        if d == T::ZERO || !d.is_finite_scalar() {
            return Err(MatrixError::SingularPivot { pivot: j });
        }
        let inv = d.recip();
        for v in x.col_mut(j) {
            *v *= inv;
        }
    }
    Ok(())
}

/// `y += alpha · x` on slices.
pub fn axpy_slice<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) -> Result<()> {
    if x.len() != y.len() {
        return Err(MatrixError::InvalidBufferLength {
            expected: y.len(),
            actual: x.len(),
        });
    }
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi = xi.mul_add(alpha, *yi);
    }
    Ok(())
}

/// Dot product of two slices.
pub fn dot_slice<T: Scalar>(x: &[T], y: &[T]) -> Result<T> {
    if x.len() != y.len() {
        return Err(MatrixError::InvalidBufferLength {
            expected: x.len(),
            actual: y.len(),
        });
    }
    let mut acc = T::ZERO;
    for (&a, &b) in x.iter().zip(y.iter()) {
        acc = a.mul_add(b, acc);
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(target_arch = "x86_64")]
    use crate::generate::tests::{assert_bits_eq, poisoned_vector};
    use crate::generate::{random_matrix_seeded, random_spd_seeded};
    use crate::kernels::{cholesky_sym, gemm_nt, syrk_dense_lower, trsm_right_lower_transpose};
    use crate::views::PackedLowerView;
    use crate::{LowerTriangular, Matrix, SymMatrix};

    #[test]
    fn ger_matches_gemm_nt() {
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![4.0, 5.0];
        let mut buf = vec![0.5_f64; 6];
        {
            let mut c = MatViewMut::new(&mut buf, 3, 2).unwrap();
            ger_view(2.0, &x, &y, &mut c).unwrap();
        }
        let xm = Matrix::from_col_major(3, 1, x.clone()).unwrap();
        let ym = Matrix::from_col_major(2, 1, y.clone()).unwrap();
        let mut expected = Matrix::filled(3, 2, 0.5);
        gemm_nt(2.0, &xm, &ym, 1.0, &mut expected).unwrap();
        let got = Matrix::from_col_major(3, 2, buf).unwrap();
        assert!(got.approx_eq(&expected, 1e-14));

        let mut small = vec![0.0; 2];
        let mut c = MatViewMut::new(&mut small, 1, 2).unwrap();
        assert!(ger_view(1.0, &x, &y, &mut c).is_err());
    }

    #[test]
    fn spr_matches_packed_reference() {
        let x = vec![1.0_f64, -2.0, 0.5, 3.0];
        let n = x.len();
        let mut packed = vec![1.0_f64; crate::packed::packed_len(n)];
        {
            let mut v = PackedLowerViewMut::new(&mut packed, n).unwrap();
            spr_lower_view(0.5, &x, &mut v).unwrap();
        }
        let view = PackedLowerView::new(&packed, n).unwrap();
        for i in 0..n {
            for j in 0..=i {
                let expected = 1.0 + 0.5 * x[i] * x[j];
                assert!((view.get(i, j) - expected).abs() < 1e-14);
            }
        }
        let mut short = vec![0.0; 3];
        let mut v = PackedLowerViewMut::new(&mut short, 2).unwrap();
        assert!(spr_lower_view(1.0, &x, &mut v).is_err());
    }

    /// On a CPU with fma and avx2, `triangle_pairs_fma` and the portable
    /// `triangle_pairs_body` agree bit for bit for every `k`, including 0, 1,
    /// 2 and odd lengths, with zero entries, NaN and ±∞.
    #[test]
    fn triangle_pairs_fma_clone_is_bitwise_equal_to_the_portable_body() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("fma") && is_x86_feature_detected!("avx2") {
            // SAFETY: `is_x86_feature_detected!` just found fma and avx2.
            unsafe {
                triangle_pairs_clone_case::<f64>();
                triangle_pairs_clone_case::<f32>();
            }
            return;
        }
        eprintln!("skipped: the CPU lacks fma or avx2, so only the portable body runs");
    }

    /// # Safety
    ///
    /// The CPU must have fma and avx2.
    #[cfg(target_arch = "x86_64")]
    unsafe fn triangle_pairs_clone_case<T: Scalar>() {
        for k in [0, 1, 2, 3, 5, 8, 17, 33, 64, 65] {
            for poison in [false, true] {
                let x = poisoned_vector::<T>(k, 11 + k as u64, poison);
                let p0 = poisoned_vector::<T>(k * k.saturating_sub(1) / 2, 13, poison);
                for alpha in [1.25, -0.5, 0.0] {
                    let alpha = T::from_f64(alpha);
                    let mut portable = p0.clone();
                    triangle_pairs_body(alpha, &x, &mut portable);
                    let mut clone = p0.clone();
                    // SAFETY: the caller guarantees fma and avx2.
                    unsafe { triangle_pairs_fma(alpha, &x, &mut clone) };
                    assert_bits_eq(&portable, &clone, &format!("pairs k={k} alpha {alpha}"));
                }
            }
        }
    }

    #[test]
    fn triangle_pairs_update_matches_direct() {
        let x = vec![2.0_f64, 3.0, 5.0, 7.0];
        let k = x.len();
        let mut pairs = vec![0.0_f64; k * (k - 1) / 2];
        triangle_pairs_update(1.0, &x, &mut pairs).unwrap();
        // order: (1,0), (2,0), (2,1), (3,0), (3,1), (3,2)
        assert_eq!(pairs, vec![6.0, 10.0, 15.0, 14.0, 21.0, 35.0]);
        triangle_pairs_update(2.0, &x, &mut pairs).unwrap();
        assert_eq!(pairs[0], 6.0 + 12.0);
        assert!(triangle_pairs_update(1.0, &x, &mut [0.0; 3]).is_err());
    }

    #[test]
    fn gemm_nt_view_matches_reference() {
        let a: Matrix<f64> = random_matrix_seeded(4, 3, 71);
        let b: Matrix<f64> = random_matrix_seeded(5, 3, 72);
        let c0: Matrix<f64> = random_matrix_seeded(4, 5, 73);

        let mut expected = c0.clone();
        gemm_nt(1.5, &a, &b, 1.0, &mut expected).unwrap();

        let mut buf = c0.clone().into_vec();
        {
            let av = MatView::new(a.as_slice(), 4, 3).unwrap();
            let bv = MatView::new(b.as_slice(), 5, 3).unwrap();
            let mut cv = MatViewMut::new(&mut buf, 4, 5).unwrap();
            gemm_nt_view(1.5, &av, &bv, &mut cv).unwrap();
        }
        let got = Matrix::from_col_major(4, 5, buf).unwrap();
        assert!(got.approx_eq(&expected, 1e-13));
    }

    #[test]
    fn syrk_lower_view_matches_reference() {
        let a: Matrix<f64> = random_matrix_seeded(6, 4, 74);
        let c0: Matrix<f64> = random_matrix_seeded(6, 6, 75);

        let mut expected = c0.clone();
        syrk_dense_lower(-1.0, &a, 1.0, &mut expected).unwrap();

        let mut buf = c0.clone().into_vec();
        {
            let av = MatView::new(a.as_slice(), 6, 4).unwrap();
            let mut cv = MatViewMut::new(&mut buf, 6, 6).unwrap();
            syrk_lower_view(-1.0, &av, &mut cv).unwrap();
        }
        let got = Matrix::from_col_major(6, 6, buf).unwrap();
        // only lower triangle must match; the upper one is untouched in both
        for j in 0..6 {
            for i in j..6 {
                assert!((got[(i, j)] - expected[(i, j)]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn cholesky_view_matches_reference() {
        let a: SymMatrix<f64> = random_spd_seeded(8, 76);
        let expected = cholesky_sym(&a).unwrap();

        let mut buf = a.to_dense_lower().into_vec();
        {
            let mut v = MatViewMut::new(&mut buf, 8, 8).unwrap();
            cholesky_view_in_place(&mut v).unwrap();
        }
        let got =
            LowerTriangular::from_dense_lower(&Matrix::from_col_major(8, 8, buf).unwrap()).unwrap();
        assert!(got.approx_eq(&expected, 1e-11));
    }

    #[test]
    fn cholesky_view_rejects_non_spd_and_non_square() {
        let mut buf = vec![0.0_f64; 4];
        buf[0] = -1.0;
        let mut v = MatViewMut::new(&mut buf, 2, 2).unwrap();
        assert!(matches!(
            cholesky_view_in_place(&mut v),
            Err(MatrixError::NotPositiveDefinite { pivot: 0, .. })
        ));
        let mut rect = vec![0.0_f64; 6];
        let mut v = MatViewMut::new(&mut rect, 2, 3).unwrap();
        assert!(cholesky_view_in_place(&mut v).is_err());
    }

    #[test]
    fn packed_cholesky_matches_reference() {
        let a: SymMatrix<f64> = random_spd_seeded(9, 79);
        let expected = cholesky_sym(&a).unwrap();
        let mut packed = a.as_packed().to_vec();
        {
            let mut v = PackedLowerViewMut::new(&mut packed, 9).unwrap();
            cholesky_packed_view_in_place(&mut v).unwrap();
        }
        let got = LowerTriangular::from_lower_fn(9, |i, j| {
            PackedLowerView::new(&packed, 9).unwrap().get(i, j)
        });
        assert!(got.approx_eq(&expected, 1e-11));

        // non-SPD rejection
        let mut bad = vec![0.0_f64; 3];
        bad[0] = -1.0;
        let mut v = PackedLowerViewMut::new(&mut bad, 2).unwrap();
        assert!(matches!(
            cholesky_packed_view_in_place(&mut v),
            Err(MatrixError::NotPositiveDefinite { pivot: 0, .. })
        ));
    }

    #[test]
    fn lu_view_matches_reference() {
        use crate::kernels::lu::{lu_nopiv_in_place, lu_reconstruct};
        // diagonally dominant matrix
        let mut a: Matrix<f64> = random_matrix_seeded(7, 7, 80);
        for i in 0..7 {
            a[(i, i)] = 8.0;
        }
        let mut expected = a.clone();
        lu_nopiv_in_place(&mut expected).unwrap();

        let mut buf = a.clone().into_vec();
        {
            let mut v = MatViewMut::new(&mut buf, 7, 7).unwrap();
            lu_view_in_place(&mut v).unwrap();
        }
        let got = Matrix::from_col_major(7, 7, buf).unwrap();
        assert!(got.approx_eq(&expected, 1e-11));
        assert!(lu_reconstruct(&got).unwrap().approx_eq(&a, 1e-10));

        // singular / non-square rejection
        let mut zeros = vec![0.0_f64; 4];
        let mut v = MatViewMut::new(&mut zeros, 2, 2).unwrap();
        assert!(matches!(
            lu_view_in_place(&mut v),
            Err(MatrixError::SingularPivot { pivot: 0 })
        ));
        let mut rect = vec![0.0_f64; 6];
        let mut v = MatViewMut::new(&mut rect, 2, 3).unwrap();
        assert!(lu_view_in_place(&mut v).is_err());
    }

    #[test]
    fn trsm_view_matches_reference() {
        let a: SymMatrix<f64> = random_spd_seeded(5, 77);
        let l = cholesky_sym(&a).unwrap();
        let b: Matrix<f64> = random_matrix_seeded(7, 5, 78);

        let mut expected = b.clone();
        trsm_right_lower_transpose(&l, &mut expected).unwrap();

        let ldense = l.to_dense();
        let mut buf = b.clone().into_vec();
        {
            let lv = MatView::new(ldense.as_slice(), 5, 5).unwrap();
            let mut xv = MatViewMut::new(&mut buf, 7, 5).unwrap();
            trsm_right_lt_view(&lv, &mut xv).unwrap();
        }
        let got = Matrix::from_col_major(7, 5, buf).unwrap();
        assert!(got.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn trsm_view_errors() {
        let zeros = vec![0.0_f64; 4];
        let lv = MatView::new(&zeros, 2, 2).unwrap();
        let mut xbuf = vec![1.0_f64; 6];
        let mut xv = MatViewMut::new(&mut xbuf, 3, 2).unwrap();
        assert!(matches!(
            trsm_right_lt_view(&lv, &mut xv),
            Err(MatrixError::SingularPivot { .. })
        ));
        let mut wrong = vec![0.0_f64; 9];
        let mut xw = MatViewMut::new(&mut wrong, 3, 3).unwrap();
        assert!(trsm_right_lt_view(&lv, &mut xw).is_err());
    }

    #[test]
    fn slice_helpers() {
        let x = vec![1.0_f64, 2.0, 3.0];
        let mut y = vec![1.0_f64, 1.0, 1.0];
        axpy_slice(2.0, &x, &mut y).unwrap();
        assert_eq!(y, vec![3.0, 5.0, 7.0]);
        assert_eq!(dot_slice(&x, &y).unwrap(), 3.0 + 10.0 + 21.0);
        assert!(axpy_slice(1.0, &x, &mut [0.0; 2]).is_err());
        assert!(dot_slice(&x, &[1.0]).is_err());
    }
}
