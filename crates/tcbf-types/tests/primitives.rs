//! Integration-level coverage of the numeric primitives: `Complex`
//! arithmetic, `f16` round-trip rounding, and the 1-bit encode/popcount
//! identities of `onebit` — the invariants every layer above relies on.

use tcbf_types::onebit::OneBitComplex;
use tcbf_types::{f16, Complex, Complex32, PackedBits};

fn approx(a: f32, b: f32, tol: f32) -> bool {
    (a - b).abs() <= tol
}

// ---- Complex arithmetic ---------------------------------------------------

#[test]
fn complex_field_identities() {
    let z = Complex::new(3.0f32, -4.0);
    let (one, i) = (Complex::new(1.0f32, 0.0), Complex::new(0.0f32, 1.0));
    assert_eq!(z + Complex32::ZERO, z);
    assert_eq!(z * one, z);
    assert_eq!(i * i, -one);
    assert_eq!(z - z, Complex32::ZERO);
    assert_eq!(-z, Complex::new(-3.0, 4.0));
}

#[test]
fn complex_division_inverts_multiplication() {
    let a = Complex::new(2.5f32, -1.25);
    let b = Complex::new(-0.75f32, 3.0);
    let q = (a * b) / b;
    assert!(approx(q.re, a.re, 1e-5));
    assert!(approx(q.im, a.im, 1e-5));
}

#[test]
fn complex_conjugate_and_norm() {
    let z = Complex::new(3.0f32, 4.0);
    assert_eq!(z.norm_sqr(), 25.0);
    assert_eq!(z.abs(), 5.0);
    // z · conj(z) = |z|² on the real axis.
    let zz = z * z.conj();
    assert_eq!(zz, Complex::new(25.0, 0.0));
}

#[test]
fn complex_polar_roundtrip() {
    let z = Complex::from_polar(2.0, std::f32::consts::FRAC_PI_3);
    assert!(approx(z.abs(), 2.0, 1e-6));
    assert!(approx(z.arg(), std::f32::consts::FRAC_PI_3, 1e-6));
    // Weight-generation case: unit magnitude, phase only.
    let w = Complex::from_polar(1.0, -1.234);
    assert!(approx(w.norm_sqr(), 1.0, 1e-6));
}

#[test]
fn complex_sum_accumulates() {
    let total: Complex32 = (0..10).map(|i| Complex::new(i as f32, -(i as f32))).sum();
    assert_eq!(total, Complex::new(45.0, -45.0));
}

#[test]
fn complex_multiplication_matches_decomposition() {
    // The tensor-core kernels decompose complex multiply into the four
    // real products of Section III-B; the operator must match exactly.
    let a = Complex::new(1.5f32, -2.0);
    let b = Complex::new(0.5f32, 4.0);
    let c = a * b;
    assert_eq!(c.re, a.re * b.re - a.im * b.im);
    assert_eq!(c.im, a.re * b.im + a.im * b.re);
}

// ---- f16 round-trip rounding ---------------------------------------------

#[test]
fn f16_exact_values_roundtrip() {
    for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 1024.0, -65504.0, 65504.0] {
        let h = f16::from_f32(v);
        assert_eq!(h.to_f32(), v, "{v} should be exactly representable");
    }
}

#[test]
fn f16_roundtrip_is_idempotent() {
    // Quantising an already-quantised value must change nothing: the
    // 16-bit kernel quantises inputs once, and re-quantisation on the
    // host reference path must agree bit-for-bit.
    for bits in (0..=u16::MAX).step_by(7) {
        let h = f16::from_bits(bits);
        if h.is_nan() {
            assert!(f16::from_f32(h.to_f32()).is_nan());
        } else {
            assert_eq!(f16::from_f32(h.to_f32()).to_bits(), h.to_bits());
        }
    }
}

#[test]
fn f16_rounds_to_nearest_even() {
    // 2049 lies exactly between the representable 2048 and 2050 —
    // round-to-nearest-even must pick 2048 (even significand).
    assert_eq!(f16::from_f32(2049.0).to_f32(), 2048.0);
    // 2051 lies exactly between 2050 and 2052 — ties to 2052.
    assert_eq!(f16::from_f32(2051.0).to_f32(), 2052.0);
    // Not a tie: anything past the midpoint rounds up.
    assert_eq!(f16::from_f32(2049.5).to_f32(), 2050.0);
}

#[test]
fn f16_overflow_and_subnormals() {
    // Values beyond ±65504 overflow to infinity.
    assert_eq!(f16::from_f32(65520.0), f16::INFINITY);
    assert_eq!(f16::from_f32(-1e9).to_f32(), f32::NEG_INFINITY);
    // The smallest positive subnormal, 2⁻²⁴, survives the trip.
    let tiny = f16::from_bits(0x0001);
    assert_eq!(tiny.to_f32(), 2.0f32.powi(-24));
    assert_eq!(f16::from_f32(tiny.to_f32()).to_bits(), tiny.to_bits());
    // Anything much smaller flushes to zero.
    assert_eq!(f16::from_f32(1e-12).to_bits(), 0x0000);
}

#[test]
fn f16_signed_zero_semantics() {
    let neg_zero = f16::from_bits(0x8000);
    assert_eq!(neg_zero.to_f32(), 0.0);
    assert!(neg_zero.to_f32().is_sign_negative());
    assert_eq!(f16::from_f32(-0.0).to_bits(), 0x8000);
    // IEEE equality: -0 == +0.
    assert_eq!(neg_zero, f16::ZERO);
}

// ---- 1-bit encoding and popcount identities -------------------------------

#[test]
fn onebit_quantisation_maps_zero_to_positive() {
    // Zero is not representable in the 1-bit code (Fig. 1); it encodes
    // as +1 by convention.
    let q = OneBitComplex::quantise(Complex::new(0.0, 0.0));
    assert_eq!(q.to_complex32(), Complex::new(1.0, 1.0));
    let q = OneBitComplex::quantise(Complex::new(-0.5, 3.0));
    assert_eq!(q.to_complex32(), Complex::new(-1.0, 1.0));
}

#[test]
fn onebit_constellation_has_unit_components() {
    for point in OneBitComplex::constellation() {
        let z = point.to_complex32();
        assert_eq!(z.re.abs(), 1.0);
        assert_eq!(z.im.abs(), 1.0);
        assert_eq!(z.norm_sqr(), 2.0);
    }
}

#[test]
fn packed_bits_roundtrip_and_popcount() {
    let bits: Vec<bool> = (0..97).map(|i| i % 3 == 0).collect();
    let packed = PackedBits::pack(&bits);
    assert_eq!(packed.len(), 97);
    assert_eq!(packed.words().len(), 4);
    let ones: u32 = packed.words().iter().map(|w| w.count_ones()).sum();
    assert_eq!(ones as usize, bits.iter().filter(|&&b| b).count());
    let unpacked = packed.unpack();
    for (i, (&bit, &value)) in bits.iter().zip(unpacked.iter()).enumerate() {
        assert_eq!(value, if bit { 1.0 } else { -1.0 }, "sample {i}");
    }
}

#[test]
fn popcount_identities_match_reference_dot() {
    // The XOR and AND popcount identities (Section III-D) must agree
    // with the literal ±1 dot product, including at non-word-aligned
    // lengths where masking of the tail word matters.
    for len in [1usize, 31, 32, 33, 64, 95, 256, 300] {
        let a_bits: Vec<bool> = (0..len).map(|i| (i * 7 + 3) % 5 < 2).collect();
        let b_bits: Vec<bool> = (0..len).map(|i| (i * 11 + 1) % 3 == 0).collect();
        let a = PackedBits::pack(&a_bits);
        let b = PackedBits::pack(&b_bits);
        let expected: i32 = a_bits
            .iter()
            .zip(&b_bits)
            .map(|(&x, &y)| if x == y { 1 } else { -1 })
            .sum();
        assert_eq!(a.dot_xor(&b), expected, "xor identity, len {len}");
        assert_eq!(a.dot_and(&b), expected, "and identity, len {len}");
    }
}
