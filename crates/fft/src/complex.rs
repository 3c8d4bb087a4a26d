//! Minimal double-precision complex arithmetic.
//!
//! The workspace deliberately avoids external numeric crates so that every
//! substrate the paper relies on is built from scratch. This module provides
//! the small, `Copy`, `#[repr(C)]` complex type used throughout the FFT
//! kernels and convolution pipelines.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Views complex values as their interleaved `re, im` reals — for a row
/// that packs `2·len` real outputs in place, as `RealIfft::process_packed`
/// leaves it.
pub fn as_reals(v: &[Complex64]) -> &[f64] {
    // SAFETY: `Complex64` is `#[repr(C)]` with exactly two `f64` fields, so
    // it has the size and alignment of `[f64; 2]` and no padding; the
    // returned slice covers the same bytes for the same lifetime, read-only.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<f64>(), 2 * v.len()) }
}

/// A double-precision complex number.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Shorthand constructor, mirroring `num_complex::Complex64::new`.
#[inline(always)]
pub const fn c64(re: f64, im: f64) -> Complex64 {
    Complex64 { re, im }
}

impl Complex64 {
    /// The additive identity.
    pub const ZERO: Complex64 = c64(0.0, 0.0);
    /// The multiplicative identity.
    pub const ONE: Complex64 = c64(1.0, 0.0);
    /// The imaginary unit.
    pub const I: Complex64 = c64(0.0, 1.0);

    /// Creates a complex number from real and imaginary parts.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        c64(re, im)
    }

    /// Creates a purely real complex number.
    #[inline(always)]
    pub const fn from_real(re: f64) -> Self {
        c64(re, 0.0)
    }

    /// `e^{i theta}` — a point on the unit circle.
    #[inline(always)]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        c64(c, s)
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        c64(self.re, -self.im)
    }

    /// Squared modulus `re² + im²`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline(always)]
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase angle) in radians.
    #[inline(always)]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplication by a real scalar.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        c64(self.re * s, self.im * s)
    }

    /// Multiplicative inverse. Returns NaNs for zero input.
    #[inline(always)]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        c64(self.re / d, -self.im / d)
    }

    /// Multiplication by `i` without a full complex multiply.
    #[inline(always)]
    pub fn mul_i(self) -> Self {
        c64(-self.im, self.re)
    }

    /// Multiplication by `-i` without a full complex multiply.
    #[inline(always)]
    pub fn mul_neg_i(self) -> Self {
        c64(self.im, -self.re)
    }

    /// True when both parts are finite.
    #[inline(always)]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<f64> for Complex64 {
    #[inline(always)]
    fn from(re: f64) -> Self {
        c64(re, 0.0)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        c64(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        c64(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        c64(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    #[allow(clippy::suspicious_arithmetic_impl)] // division as multiply-by-inverse
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn div(self, rhs: f64) -> Self {
        self.scale(1.0 / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn neg(self) -> Self {
        c64(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl MulAssign<f64> for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: f64) {
        self.re *= rhs;
        self.im *= rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline(always)]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).norm() < EPS
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = c64(1.5, -2.0);
        let b = c64(-0.25, 4.0);
        assert!(close(a + b - b, a));
    }

    #[test]
    fn mul_matches_expansion() {
        let a = c64(3.0, 2.0);
        let b = c64(1.0, 7.0);
        // (3+2i)(1+7i) = 3 + 21i + 2i + 14i² = -11 + 23i
        assert!(close(a * b, c64(-11.0, 23.0)));
    }

    #[test]
    fn div_is_mul_inverse() {
        let a = c64(3.0, 2.0);
        let b = c64(1.0, 7.0);
        assert!(close(a / b * b, a));
    }

    #[test]
    fn inv_of_unit() {
        assert!(close(Complex64::ONE.inv(), Complex64::ONE));
        assert!(close(Complex64::I.inv(), -Complex64::I));
    }

    #[test]
    fn cis_unit_circle() {
        let z = Complex64::cis(std::f64::consts::FRAC_PI_2);
        assert!(close(z, Complex64::I));
        assert!((Complex64::cis(1.234).norm() - 1.0).abs() < EPS);
    }

    #[test]
    fn mul_i_shortcuts() {
        let a = c64(3.0, -4.0);
        assert!(close(a.mul_i(), a * Complex64::I));
        assert!(close(a.mul_neg_i(), a * -Complex64::I));
    }

    #[test]
    fn conj_and_norm() {
        let a = c64(3.0, 4.0);
        assert_eq!(a.norm(), 5.0);
        assert!(close(a * a.conj(), c64(25.0, 0.0)));
    }

    #[test]
    fn arg_quadrants() {
        assert!((c64(1.0, 1.0).arg() - std::f64::consts::FRAC_PI_4).abs() < EPS);
        assert!((c64(-1.0, 0.0).arg() - std::f64::consts::PI).abs() < EPS);
    }

    #[test]
    fn as_reals_interleaves() {
        let v = [c64(1.0, 2.0), c64(3.0, 4.0)];
        assert_eq!(as_reals(&v), &[1.0, 2.0, 3.0, 4.0]);
        assert!(as_reals(&[]).is_empty());
    }

    #[test]
    fn sum_iterator() {
        let v = [c64(1.0, 1.0); 10];
        let s: Complex64 = v.iter().sum();
        assert!(close(s, c64(10.0, 10.0)));
    }

    #[test]
    fn scalar_ops() {
        let a = c64(2.0, -6.0);
        assert!(close(a * 0.5, c64(1.0, -3.0)));
        assert!(close(0.5 * a, a / 2.0));
    }
}
