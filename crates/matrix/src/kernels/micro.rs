//! Cache-blocked, column-major-aware micro-kernels for the engine's hot
//! compute ops.
//!
//! The view kernels of [`crate::kernels::views`] are the reference: simple
//! loops, per-element packed indexing where the storage demands it. The
//! variants here restructure the same arithmetic around contiguous slices —
//! row tiles that keep the active piece of `x` (and one column tile of `C`)
//! in cache, axpy-style inner loops over slice windows instead of
//! per-element `(i, j)` indexing, and the contiguous packed column tails of
//! [`PackedLowerViewMut::col_tail_mut`] for the symmetric update.
//!
//! **Every kernel is bitwise-equal to its reference.** Each output element is
//! written by exactly one accumulation chain, and the blocked loops preserve
//! that chain's term order, the reference's zero-multiplier skips, and its
//! exact per-element expression (`mul_add` vs plain product-and-add).
//! Re-tiling only permutes *between* independent chains, which cannot change
//! any IEEE-754 result. The sweep in `crates/matrix/tests/kernel_equivalence.rs`
//! asserts this across shapes, tile sizes and ragged edges.
//!
//! The engine's `mul_add` kernels, [`ger_view_blocked`] (`Ger`) and
//! [`crate::kernels::views::triangle_pairs_update`] (`TrianglePairs`), keep
//! their loops in one `#[inline(always)]` body that x86-64 also compiles into
//! a `#[target_feature(enable = "fma,avx2")]` clone, where `mul_add` is one
//! `vfmadd` instead of a library call and the loop vectorizes. The clone runs
//! when `is_x86_feature_detected!` (cached by std) finds fma and avx2; other
//! CPUs and targets run the portable body. The bits match: fma is correctly
//! rounded on both paths, both run one body (same chains, term order and
//! zero-multiplier skips), and vector lanes are independent chains.
//!
//! The engine dispatches through [`ger_view_auto`] / [`spr_lower_view_auto`],
//! which pick the tile size; callers with layout knowledge can call the
//! `_blocked` forms directly.

use crate::error::{MatrixError, Result};
use crate::scalar::Scalar;
use crate::views::{MatViewMut, PackedLowerViewMut};

/// Default row-tile length used by the auto-dispatch wrappers: 512 elements
/// (4 KiB of `f64`) keeps a tile of `x` plus a column tile of `C` well inside
/// L1 while amortizing the loop overhead.
pub const DEFAULT_ROW_TILE: usize = 512;

fn check_tile(tile: usize) -> Result<()> {
    if tile == 0 {
        return Err(MatrixError::InvalidParameter {
            name: "row_tile",
            reason: "tile size must be positive".into(),
        });
    }
    Ok(())
}

/// Cache-blocked rank-1 update `C += alpha · x · yᵀ`
/// (bitwise-equal to [`crate::kernels::views::ger_view`]).
///
/// Row tiles of length `row_tile` are the outer loop, so one tile of `x`
/// stays cache-hot across all columns; the inner loop is an axpy over the
/// matching contiguous window of each column of `C`. Runs the bitwise-equal
/// FMA/AVX2 clone on x86-64 CPUs with both features (see the module doc).
pub fn ger_view_blocked<T: Scalar>(
    alpha: T,
    x: &[T],
    y: &[T],
    c: &mut MatViewMut<'_, T>,
    row_tile: usize,
) -> Result<()> {
    if c.rows() != x.len() || c.cols() != y.len() {
        return Err(MatrixError::DimensionMismatch {
            operation: "ger_view_blocked",
            left: (x.len(), y.len()),
            right: (c.rows(), c.cols()),
        });
    }
    check_tile(row_tile)?;
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("fma") && is_x86_feature_detected!("avx2") {
        // SAFETY: `is_x86_feature_detected!` just found `ger_fma`'s features.
        unsafe { ger_fma(alpha, x, y, c, row_tile) };
        return Ok(());
    }
    ger_body(alpha, x, y, c, row_tile);
    Ok(())
}

#[inline(always)]
fn ger_body<T: Scalar>(alpha: T, x: &[T], y: &[T], c: &mut MatViewMut<'_, T>, row_tile: usize) {
    for i0 in (0..x.len()).step_by(row_tile) {
        let iend = (i0 + row_tile).min(x.len());
        let x_tile = &x[i0..iend];
        for (j, &yj) in y.iter().enumerate() {
            let ayj = alpha * yj;
            if ayj == T::ZERO {
                continue;
            }
            let c_tile = &mut c.col_mut(j)[i0..iend];
            for (ci, &xi) in c_tile.iter_mut().zip(x_tile) {
                *ci = xi.mul_add(ayj, *ci);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma,avx2")]
fn ger_fma<T: Scalar>(alpha: T, x: &[T], y: &[T], c: &mut MatViewMut<'_, T>, row_tile: usize) {
    ger_body(alpha, x, y, c, row_tile);
}

/// Cache-blocked symmetric rank-1 update `C += alpha · x · xᵀ` on a packed
/// lower triangle (bitwise-equal to
/// [`crate::kernels::views::spr_lower_view`]).
///
/// Instead of computing a packed index per element, each column `j` updates
/// its contiguous stored tail (`(j, j)..(n-1, j)`) as one slice, walked in
/// `row_tile`-sized windows against the matching window of `x`.
pub fn spr_lower_view_blocked<T: Scalar>(
    alpha: T,
    x: &[T],
    c: &mut PackedLowerViewMut<'_, T>,
    row_tile: usize,
) -> Result<()> {
    if c.order() != x.len() {
        return Err(MatrixError::DimensionMismatch {
            operation: "spr_lower_view_blocked",
            left: (x.len(), x.len()),
            right: (c.order(), c.order()),
        });
    }
    check_tile(row_tile)?;
    for (j, &xj) in x.iter().enumerate() {
        let axj = alpha * xj;
        if axj == T::ZERO {
            continue;
        }
        let x_tail = &x[j..];
        let c_tail = c.col_tail_mut(j);
        for i0 in (0..x_tail.len()).step_by(row_tile) {
            let iend = (i0 + row_tile).min(x_tail.len());
            for (ci, &xi) in c_tail[i0..iend].iter_mut().zip(&x_tail[i0..iend]) {
                // Same expression as the reference's `c.add(i, j, xi * axj)`:
                // a plain product-and-add, not a fused mul_add.
                *ci += xi * axj;
            }
        }
    }
    Ok(())
}

/// The engine's `Ger` dispatch: blocked kernel with [`DEFAULT_ROW_TILE`].
pub fn ger_view_auto<T: Scalar>(
    alpha: T,
    x: &[T],
    y: &[T],
    c: &mut MatViewMut<'_, T>,
) -> Result<()> {
    ger_view_blocked(alpha, x, y, c, DEFAULT_ROW_TILE)
}

/// The engine's `SprLower` dispatch: blocked kernel with
/// [`DEFAULT_ROW_TILE`].
pub fn spr_lower_view_auto<T: Scalar>(
    alpha: T,
    x: &[T],
    c: &mut PackedLowerViewMut<'_, T>,
) -> Result<()> {
    spr_lower_view_blocked(alpha, x, c, DEFAULT_ROW_TILE)
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(target_arch = "x86_64")]
    use crate::generate::tests::{assert_bits_eq, poisoned_vector};
    use crate::kernels::views::{ger_view, spr_lower_view};

    #[test]
    fn zero_tile_is_rejected() {
        let x = vec![1.0_f64; 3];
        let y = vec![1.0_f64; 2];
        let mut buf = vec![0.0_f64; 6];
        let mut c = MatViewMut::new(&mut buf, 3, 2).unwrap();
        assert!(ger_view_blocked(1.0, &x, &y, &mut c, 0).is_err());
        let mut packed = vec![0.0_f64; 6];
        let mut p = PackedLowerViewMut::new(&mut packed, 3).unwrap();
        assert!(spr_lower_view_blocked(1.0, &x, &mut p, 0).is_err());
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let x = vec![1.0_f64; 3];
        let y = vec![1.0_f64; 2];
        let mut buf = vec![0.0_f64; 4];
        let mut c = MatViewMut::new(&mut buf, 2, 2).unwrap();
        assert!(ger_view_blocked(1.0, &x, &y, &mut c, 4).is_err());
        let mut packed = vec![0.0_f64; 3];
        let mut p = PackedLowerViewMut::new(&mut packed, 2).unwrap();
        assert!(spr_lower_view_blocked(1.0, &x, &mut p, 4).is_err());
    }

    #[test]
    fn auto_wrappers_match_reference() {
        let x: Vec<f64> = (0..7).map(|i| (i as f64) - 2.5).collect();
        let y: Vec<f64> = (0..5).map(|i| 0.5 * i as f64).collect();
        let mut naive = vec![0.25_f64; 35];
        let mut fast = naive.clone();
        {
            let mut c = MatViewMut::new(&mut naive, 7, 5).unwrap();
            ger_view(1.5, &x, &y, &mut c).unwrap();
        }
        {
            let mut c = MatViewMut::new(&mut fast, 7, 5).unwrap();
            ger_view_auto(1.5, &x, &y, &mut c).unwrap();
        }
        assert_eq!(naive, fast);

        let mut pn = vec![0.5_f64; crate::packed::packed_len(7)];
        let mut pf = pn.clone();
        {
            let mut v = PackedLowerViewMut::new(&mut pn, 7).unwrap();
            spr_lower_view(-0.5, &x, &mut v).unwrap();
        }
        {
            let mut v = PackedLowerViewMut::new(&mut pf, 7).unwrap();
            spr_lower_view_auto(-0.5, &x, &mut v).unwrap();
        }
        assert_eq!(pn, pf);
    }

    /// On a CPU with fma and avx2, `ger_fma` and the portable `ger_body`
    /// agree bit for bit across ragged tiles, zero multipliers, NaN and ±∞.
    #[test]
    fn ger_fma_clone_is_bitwise_equal_to_the_portable_body() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("fma") && is_x86_feature_detected!("avx2") {
            // SAFETY: `is_x86_feature_detected!` just found fma and avx2.
            unsafe {
                ger_clone_case::<f64>();
                ger_clone_case::<f32>();
            }
            return;
        }
        eprintln!("skipped: the CPU lacks fma or avx2, so only the portable body runs");
    }

    /// # Safety
    ///
    /// The CPU must have fma and avx2.
    #[cfg(target_arch = "x86_64")]
    unsafe fn ger_clone_case<T: Scalar>() {
        let alpha = T::from_f64(1.25);
        for &(m, n) in &[(1, 1), (3, 8), (17, 5), (64, 3), (65, 7), (128, 2)] {
            for poison in [false, true] {
                let x = poisoned_vector::<T>(m, 3 + m as u64, poison);
                let y = poisoned_vector::<T>(n, 5 + n as u64, poison);
                let c0 = poisoned_vector::<T>(m * n, 7, poison);
                for tile in [1, 2, 3, 7, 16, 64, 1000, DEFAULT_ROW_TILE] {
                    let mut portable = c0.clone();
                    let mut view = MatViewMut::new(&mut portable, m, n).unwrap();
                    ger_body(alpha, &x, &y, &mut view, tile);
                    let mut clone = c0.clone();
                    let mut view = MatViewMut::new(&mut clone, m, n).unwrap();
                    // SAFETY: the caller guarantees fma and avx2.
                    unsafe { ger_fma(alpha, &x, &y, &mut view, tile) };
                    assert_bits_eq(&portable, &clone, &format!("ger {m}x{n} tile {tile}"));
                }
            }
        }
    }
}
