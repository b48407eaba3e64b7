//! Minimal complex-number type.
//!
//! Beamforming weights and samples are complex valued: the weight phases
//! encode the per-receiver delays that steer a beam (Section II of the
//! paper).  The kernels in `ccglib` decompose complex multiplication into
//! real multiplications exactly as the paper's Section III-B describes, so
//! this type exists mostly for the host-side reference paths, for weight
//! generation, and for the application layers.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i·im` generic over the component type.
///
/// `repr(C)`: the real part first, then the imaginary part, so a run of
/// `Complex<f32>` is the interleaved layout `re, im, re, im, …` that vector
/// loads and stores move as it is.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
#[repr(C)]
pub struct Complex<T> {
    /// Real component.
    pub re: T,
    /// Imaginary component.
    pub im: T,
}

impl<T> Complex<T> {
    /// Creates a complex number from its real and imaginary parts.
    #[inline]
    pub const fn new(re: T, im: T) -> Self {
        Complex { re, im }
    }
}

impl Complex<f32> {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex<f32> = Complex::new(0.0, 0.0);

    /// Creates a complex number from polar coordinates: `r·e^{iθ}`.
    ///
    /// This is how steering weights are generated: `r = 1`, `θ = 2π f τ_k`
    /// with `τ_k` the geometric delay of receiver `k` (Eq. 2).
    #[inline]
    pub fn from_polar(r: f32, theta: f32) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Squared magnitude `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> f32 {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> f32 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, s: f32) -> Self {
        Complex::new(self.re * s, self.im * s)
    }
}

impl<T: Add<Output = T>> Add for Complex<T> {
    type Output = Complex<T>;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl<T: Sub<Output = T>> Sub for Complex<T> {
    type Output = Complex<T>;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl<T: Neg<Output = T>> Neg for Complex<T> {
    type Output = Complex<T>;
    #[inline]
    fn neg(self) -> Self {
        Complex::new(-self.re, -self.im)
    }
}

impl<T> Mul for Complex<T>
where
    T: Mul<Output = T> + Add<Output = T> + Sub<Output = T> + Copy,
{
    type Output = Complex<T>;
    /// Complex multiplication, decomposed exactly as the tensor-core
    /// implementation does (Section III-B):
    /// `Re = Re(a)Re(b) − Im(a)Im(b)`, `Im = Re(a)Im(b) + Im(a)Re(b)`.
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex<f32> {
    type Output = Complex<f32>;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        let num = self * rhs.conj();
        Complex::new(num.re / d, num.im / d)
    }
}

impl<T: AddAssign> AddAssign for Complex<T> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl<T: SubAssign> SubAssign for Complex<T> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex<f32> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<T: Add<Output = T> + Default> Sum for Complex<T> {
    fn sum<I: Iterator<Item = Complex<T>>>(iter: I) -> Self {
        iter.fold(Complex::new(T::default(), T::default()), |acc, x| acc + x)
    }
}

impl<T: fmt::Display> fmt::Display for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}+{}i)", self.re, self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: Complex<f32>, b: Complex<f32>, tol: f32) -> bool {
        (a.re - b.re).abs() <= tol && (a.im - b.im).abs() <= tol
    }

    #[test]
    fn basic_arithmetic() {
        let a = Complex::new(1.0f32, 2.0);
        let b = Complex::new(3.0f32, -4.0);
        assert_eq!(a + b, Complex::new(4.0, -2.0));
        assert_eq!(a - b, Complex::new(-2.0, 6.0));
        assert_eq!(a * b, Complex::new(11.0, 2.0));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
        assert_eq!(a.conj(), Complex::new(1.0, -2.0));
        assert_eq!(a.norm_sqr(), 5.0);
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(2.5f32, -1.5);
        let b = Complex::new(-0.5f32, 3.0);
        let q = (a * b) / b;
        assert!(close(q, a, 1e-5));
    }

    #[test]
    fn multiplication_by_i_rotates_quarter_turn() {
        let (a, i) = (Complex::new(1.0f32, 0.0), Complex::new(0.0f32, 1.0));
        assert_eq!(a * i, Complex::new(0.0, 1.0));
        assert_eq!(a * i * i, Complex::new(-1.0, 0.0));
    }

    #[test]
    fn polar_roundtrip() {
        let c = Complex::from_polar(2.0, std::f32::consts::FRAC_PI_3);
        assert!((c.abs() - 2.0).abs() < 1e-6);
        assert!((c.arg() - std::f32::consts::FRAC_PI_3).abs() < 1e-6);
    }

    #[test]
    fn sum_of_unit_phasors_cancels() {
        // Eight equally spaced phasors sum to zero.
        let sum: Complex<f32> = (0..8)
            .map(|k| Complex::from_polar(1.0, 2.0 * std::f32::consts::PI * k as f32 / 8.0))
            .sum();
        assert!(sum.abs() < 1e-5);
    }

    proptest! {
        #[test]
        fn multiplication_is_commutative(
            ar in -100.0f32..100.0, ai in -100.0f32..100.0,
            br in -100.0f32..100.0, bi in -100.0f32..100.0,
        ) {
            let a = Complex::new(ar, ai);
            let b = Complex::new(br, bi);
            prop_assert!(close(a * b, b * a, 1e-3));
        }

        #[test]
        fn norm_is_multiplicative(
            ar in -50.0f32..50.0, ai in -50.0f32..50.0,
            br in -50.0f32..50.0, bi in -50.0f32..50.0,
        ) {
            let a = Complex::new(ar, ai);
            let b = Complex::new(br, bi);
            let lhs = (a * b).abs();
            let rhs = a.abs() * b.abs();
            prop_assert!((lhs - rhs).abs() <= 1e-2 * (1.0 + rhs));
        }

        #[test]
        fn conjugate_distributes_over_product(
            ar in -50.0f32..50.0, ai in -50.0f32..50.0,
            br in -50.0f32..50.0, bi in -50.0f32..50.0,
        ) {
            let a = Complex::new(ar, ai);
            let b = Complex::new(br, bi);
            prop_assert!(close((a * b).conj(), a.conj() * b.conj(), 1e-2));
        }
    }
}
