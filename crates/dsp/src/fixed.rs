//! Q16.16 fixed-point arithmetic.
//!
//! The MSP430FR5989 has no floating-point unit, so every `float` operation
//! on the real Amulet is a software-library call. The most constrained
//! execution flavor of the detector runs its geometric features in Q16.16
//! fixed point; this module provides the arithmetic with explicit
//! saturation semantics so overflow is a defined, testable behaviour.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::embedded_math::isqrt_u64;

/// Number of fractional bits in the representation.
pub const FRAC_BITS: u32 = 16;
const ONE_RAW: i32 = 1 << FRAC_BITS;

/// A Q16.16 signed fixed-point number (16 integer bits, 16 fractional
/// bits), with saturating arithmetic.
///
/// # Examples
///
/// ```
/// use dsp::fixed::Q16;
///
/// let a = Q16::from_int(3) / Q16::from_int(2);
/// let b = Q16::from_int(2);
/// assert_eq!((a * b).to_f64(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Q16(i32);

impl Q16 {
    /// The value `0`.
    pub const ZERO: Q16 = Q16(0);
    /// The value `1`.
    pub const ONE: Q16 = Q16(ONE_RAW);
    /// Largest representable value (≈ 32768).
    pub const MAX: Q16 = Q16(i32::MAX);
    /// Smallest representable value (≈ −32768).
    pub const MIN: Q16 = Q16(i32::MIN);
    /// Smallest positive increment (2⁻¹⁶).
    pub const EPSILON: Q16 = Q16(1);

    /// Convert from an integer, saturating at the representable range.
    pub fn from_int(x: i32) -> Self {
        if x > i16::MAX as i32 {
            Q16::MAX
        } else if x < i16::MIN as i32 {
            Q16::MIN
        } else {
            Q16(x << FRAC_BITS)
        }
    }

    /// Convert to `f64` (exact: every Q16.16 value is a representable
    /// `f64`).
    // lint:allow(embedded-no-f64, host-side readout for tests and reports; never runs on the device)
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / ONE_RAW as f64
    }

    /// Convert to `f32` (may round).
    pub fn to_f32(self) -> f32 {
        self.to_f64() as f32
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Self) -> Self {
        Q16(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Q16(self.0.saturating_sub(rhs.0))
    }

    /// Saturating multiplication.
    pub fn saturating_mul(self, rhs: Self) -> Self {
        let wide = ((self.0 as i64) * (rhs.0 as i64)) >> FRAC_BITS;
        Q16(clamp_i64(wide))
    }

    /// Saturating division. Division by zero saturates to [`Q16::MAX`] or
    /// [`Q16::MIN`] depending on the sign of the dividend (`0 / 0 == 0`).
    pub fn saturating_div(self, rhs: Self) -> Self {
        if rhs.0 == 0 {
            return match self.0.cmp(&0) {
                std::cmp::Ordering::Greater => Q16::MAX,
                std::cmp::Ordering::Less => Q16::MIN,
                std::cmp::Ordering::Equal => Q16::ZERO,
            };
        }
        let wide = ((self.0 as i64) << FRAC_BITS) / rhs.0 as i64;
        Q16(clamp_i64(wide))
    }

    /// Absolute value (saturates `MIN` to `MAX`).
    pub fn abs(self) -> Self {
        if self.0 == i32::MIN {
            Q16::MAX
        } else {
            Q16(self.0.abs())
        }
    }

    /// Square root via integer digit-by-digit method; negative inputs
    /// return [`Q16::ZERO`].
    pub fn sqrt(self) -> Self {
        if self.0 <= 0 {
            return Q16::ZERO;
        }
        // sqrt(raw / 2^16) = isqrt(raw << 16) / 2^16.
        let wide = (self.0 as u64) << FRAC_BITS;
        Q16(isqrt_u64(wide) as i32)
    }

    /// `self * self`, saturating.
    pub fn squared(self) -> Self {
        self.saturating_mul(self)
    }
}

fn clamp_i64(wide: i64) -> i32 {
    if wide > i32::MAX as i64 {
        i32::MAX
    } else if wide < i32::MIN as i64 {
        i32::MIN
    } else {
        wide as i32
    }
}

impl Add for Q16 {
    type Output = Q16;
    fn add(self, rhs: Q16) -> Q16 {
        self.saturating_add(rhs)
    }
}

impl Sub for Q16 {
    type Output = Q16;
    fn sub(self, rhs: Q16) -> Q16 {
        self.saturating_sub(rhs)
    }
}

impl Mul for Q16 {
    type Output = Q16;
    fn mul(self, rhs: Q16) -> Q16 {
        self.saturating_mul(rhs)
    }
}

impl Div for Q16 {
    type Output = Q16;
    fn div(self, rhs: Q16) -> Q16 {
        self.saturating_div(rhs)
    }
}

impl Neg for Q16 {
    type Output = Q16;
    fn neg(self) -> Q16 {
        Q16(self.0.saturating_neg())
    }
}

impl fmt::Display for Q16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

impl From<i16> for Q16 {
    fn from(x: i16) -> Self {
        Q16((x as i32) << FRAC_BITS)
    }
}

/// Sum of Q16 values with saturation (convenience for feature kernels).
impl std::iter::Sum for Q16 {
    fn sum<I: Iterator<Item = Q16>>(iter: I) -> Q16 {
        iter.fold(Q16::ZERO, Q16::saturating_add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The Q16 nearest to `x` (tests only build in-range values).
    fn q(x: f64) -> Q16 {
        Q16((x * ONE_RAW as f64).round() as i32)
    }

    #[test]
    fn one_times_one() {
        assert_eq!(Q16::ONE * Q16::ONE, Q16::ONE);
    }

    #[test]
    fn basic_arithmetic() {
        let a = q(2.5);
        let b = q(0.5);
        assert_eq!((a + b).to_f64(), 3.0);
        assert_eq!((a - b).to_f64(), 2.0);
        assert_eq!((a * b).to_f64(), 1.25);
        assert_eq!((a / b).to_f64(), 5.0);
        assert_eq!((-a).to_f64(), -2.5);
    }

    #[test]
    fn saturation_on_overflow() {
        let big = Q16::from_int(30000);
        assert_eq!(big * big, Q16::MAX);
        assert_eq!(big + Q16::MAX, Q16::MAX);
        assert_eq!((-big) * big, Q16::MIN);
    }

    #[test]
    fn from_int_saturates() {
        assert_eq!(Q16::from_int(100).to_f64(), 100.0);
        assert_eq!(Q16::from_int(40000), Q16::MAX);
        assert_eq!(Q16::from_int(-40000), Q16::MIN);
    }

    #[test]
    fn division_by_zero_is_defined() {
        assert_eq!(Q16::ONE / Q16::ZERO, Q16::MAX);
        assert_eq!((-Q16::ONE) / Q16::ZERO, Q16::MIN);
        assert_eq!(Q16::ZERO / Q16::ZERO, Q16::ZERO);
    }

    #[test]
    fn sqrt_accuracy() {
        for i in 1..500 {
            let x = i as f64 * 0.37;
            let got = q(x).sqrt().to_f64();
            let want = x.sqrt();
            assert!((got - want).abs() < 0.01, "x={x} got={got} want={want}");
        }
    }

    #[test]
    fn sqrt_of_negative_is_zero() {
        assert_eq!(Q16::from_int(-4).sqrt(), Q16::ZERO);
    }

    #[test]
    fn abs_handles_min() {
        assert_eq!(Q16::MIN.abs(), Q16::MAX);
        assert_eq!(Q16::from_int(-2).abs().to_f64(), 2.0);
    }

    #[test]
    fn sum_saturates() {
        let total: Q16 = std::iter::repeat_n(Q16::from_int(20000), 4).sum();
        assert_eq!(total, Q16::MAX);
    }

    #[test]
    fn display_matches_f64() {
        assert_eq!(q(1.5).to_string(), "1.5");
    }

    #[test]
    fn from_i16_conversion() {
        assert_eq!(Q16::from(7i16).to_f64(), 7.0);
        assert_eq!(Q16::from(-3i16).to_f64(), -3.0);
    }

    proptest! {
        #[test]
        fn q16_addition_commutes(a in any::<i32>(), b in any::<i32>()) {
            let (qa, qb) = (Q16(a), Q16(b));
            prop_assert_eq!(qa + qb, qb + qa);
        }

        #[test]
        fn q16_multiplication_commutes(a in any::<i32>(), b in any::<i32>()) {
            let (qa, qb) = (Q16(a), Q16(b));
            prop_assert_eq!(qa * qb, qb * qa);
        }

        /// Up to 150.0: the squared root's error stays under 0.02.
        #[test]
        fn q16_sqrt_squared_close(raw in 0..150 * ONE_RAW) {
            let x = Q16(raw);
            let r = x.sqrt();
            let back = (r * r).to_f64();
            prop_assert!((back - x.to_f64()).abs() < 0.02, "x={x} back={back}");
        }
    }
}
