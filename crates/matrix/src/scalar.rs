//! Floating-point scalar abstraction used throughout the workspace.
//!
//! The out-of-core algorithms and the reference kernels are generic over a
//! [`Scalar`] type so that both `f32` and `f64` runs are possible. The trait is
//! intentionally small: it only exposes the operations the kernels in this
//! workspace actually need (arithmetic, square root, absolute value,
//! fused multiply-add and conversions from/to `f64`).

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A real floating-point scalar usable in the symla kernels.
///
/// Implemented for `f32` and `f64`. The trait requires `Send + Sync + 'static`
/// so matrices of scalars can be moved across the worker threads of the
/// parallel executor without additional bounds at call sites.
pub trait Scalar:
    Copy
    + Clone
    + Debug
    + Display
    + PartialEq
    + PartialOrd
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Machine epsilon of the underlying type.
    fn epsilon() -> Self;

    /// Lossy conversion from `f64` (used by generators and planners).
    fn from_f64(value: f64) -> Self;

    /// Lossless widening to `f64` (used for norms and reporting).
    fn to_f64(self) -> f64;

    /// Square root.
    fn sqrt(self) -> Self;

    /// Absolute value.
    fn abs(self) -> Self;

    /// Fused multiply-add: `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;

    /// Reciprocal `1 / self`.
    fn recip(self) -> Self;

    /// Whether the value is finite (not NaN and not infinite).
    fn is_finite_scalar(self) -> bool;

    /// Maximum of two scalars; keeps a NaN `self` but drops a NaN `other`.
    fn max_scalar(self, other: Self) -> Self {
        if other > self {
            other
        } else {
            self
        }
    }

    /// Minimum of two scalars; keeps a NaN `self` but drops a NaN `other`.
    fn min_scalar(self, other: Self) -> Self {
        if other < self {
            other
        } else {
            self
        }
    }
}

macro_rules! impl_scalar {
    ($t:ty) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;

            #[inline]
            fn epsilon() -> Self {
                <$t>::EPSILON
            }

            #[inline]
            fn from_f64(value: f64) -> Self {
                value as $t
            }

            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }

            #[inline]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }

            #[inline]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }

            #[inline]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }

            #[inline]
            fn recip(self) -> Self {
                <$t>::recip(self)
            }

            #[inline]
            fn is_finite_scalar(self) -> bool {
                <$t>::is_finite(self)
            }
        }
    };
}

impl_scalar!(f32);
impl_scalar!(f64);

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_roundtrip<T: Scalar>() {
        let x = T::from_f64(2.25);
        assert_eq!(x.to_f64(), 2.25);
        assert_eq!((x * x).to_f64(), 5.0625);
        assert_eq!(T::ZERO + T::ONE, T::ONE);
        assert!(x.is_finite_scalar());
    }

    #[test]
    fn roundtrip_f32() {
        generic_roundtrip::<f32>();
    }

    #[test]
    fn roundtrip_f64() {
        generic_roundtrip::<f64>();
    }

    #[test]
    fn sqrt_and_abs() {
        assert_eq!(<f64 as Scalar>::sqrt(9.0), 3.0);
        assert_eq!(<f64 as Scalar>::abs(-4.5), 4.5);
        assert_eq!(<f32 as Scalar>::sqrt(16.0), 4.0);
    }

    #[test]
    fn mul_add_matches_expanded_form() {
        let a = 1.5_f64;
        let r = Scalar::mul_add(a, 2.0, 0.25);
        assert_eq!(r, 3.25);
    }

    #[test]
    fn min_max() {
        assert_eq!(2.0_f64.max_scalar(3.0), 3.0);
        assert_eq!(2.0_f64.min_scalar(3.0), 2.0);
        assert_eq!(5.0_f32.max_scalar(-1.0), 5.0);
    }

    #[test]
    fn recip() {
        assert_eq!(<f64 as Scalar>::recip(4.0), 0.25);
    }
}
