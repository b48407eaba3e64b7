//! Software IEEE 754 binary16 ("half precision") floating point.
//!
//! The 16-bit tensor-core kernels of the paper take half-precision inputs
//! and accumulate in single precision.  No half-precision type exists in
//! the Rust standard library, and the external `half` crate is not part of
//! the approved dependency set, so this module implements binary16 from
//! scratch, as a storage type: bit-level conversion to and from `f32` with
//! round-to-nearest-even, bulk codecs for whole planes, and the usual
//! constants and classification predicates.  It has no arithmetic: the
//! kernels widen to `f32` before they compute, as a tensor core's FMA
//! pipeline does.
//!
//! The conversion algorithms follow the standard bit manipulation approach:
//! sign, exponent and mantissa fields are re-biased between the 8-bit/23-bit
//! layout of binary32 and the 5-bit/10-bit layout of binary16, handling
//! subnormals, infinities and NaN explicitly.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::OnceLock;

/// IEEE 754 binary16 value stored as its raw bit pattern.
///
/// The name deliberately mirrors the primitive float types (`f32`, `f64`);
/// the non-camel-case name is the conventional one used by the `half`
/// ecosystem crate as well.  `repr(transparent)`: laid out as its `u16`, so
/// a run of them can be stored as a vector of 16-bit lanes.
#[allow(non_camel_case_types)]
#[derive(Clone, Copy, Default, Serialize, Deserialize)]
#[repr(transparent)]
pub struct f16(u16);

const F16_SIGN_MASK: u16 = 0x8000;
const F16_EXP_MASK: u16 = 0x7C00;
const F16_MAN_MASK: u16 = 0x03FF;

impl f16 {
    /// Positive zero.
    pub const ZERO: f16 = f16(0x0000);
    /// Positive infinity.
    pub const INFINITY: f16 = f16(0x7C00);
    /// A quiet NaN.
    pub const NAN: f16 = f16(0x7E00);
    /// Largest finite value, `65504.0`.
    pub const MAX: f16 = f16(0x7BFF);
    /// Smallest positive normal value, `2^-14`.
    pub const MIN_POSITIVE: f16 = f16(0x0400);

    /// Creates a half-precision value from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        f16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts a single-precision value to half precision with
    /// round-to-nearest-even, the rounding mode used by GPU conversion
    /// instructions (`cvt.rn.f16.f32`).
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let man = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Infinity or NaN.
            return if man == 0 {
                f16(sign | F16_EXP_MASK)
            } else {
                // Preserve a quiet NaN, keep some payload bits.
                f16(sign | F16_EXP_MASK | 0x0200 | ((man >> 13) as u16 & F16_MAN_MASK))
            };
        }

        // Re-bias the exponent: binary32 bias 127, binary16 bias 15.
        let unbiased = exp - 127;
        let new_exp = unbiased + 15;

        if new_exp >= 0x1F {
            // Overflow to infinity.
            return f16(sign | F16_EXP_MASK);
        }

        if new_exp <= 0 {
            // Subnormal or underflow to zero.
            if new_exp < -10 {
                return f16(sign);
            }
            // Add the implicit leading one and shift into the subnormal range.
            // value = M · 2^(unbiased − 23); the half subnormal mantissa is
            // value · 2^24 = M >> (−unbiased − 1).
            let man = man | 0x0080_0000;
            let shift = (-unbiased - 1) as u32;
            let half_val = man >> shift;
            // Round to nearest even on the bits shifted out.
            let round_bit = 1u32 << (shift - 1);
            let rem = man & (round_bit * 2 - 1);
            let mut result = half_val as u16;
            if rem > round_bit || (rem == round_bit && (half_val & 1) == 1) {
                result += 1;
            }
            return f16(sign | result);
        }

        // Normal case.
        let mut out_exp = new_exp as u16;
        let mut out_man = (man >> 13) as u16;
        let rem = man & 0x1FFF;
        if rem > 0x1000 || (rem == 0x1000 && (out_man & 1) == 1) {
            out_man += 1;
            if out_man == 0x0400 {
                out_man = 0;
                out_exp += 1;
                if out_exp >= 0x1F {
                    return f16(sign | F16_EXP_MASK);
                }
            }
        }
        f16(sign | (out_exp << 10) | out_man)
    }

    /// Converts a half-precision value to single precision (exact — every
    /// binary16 value is representable in binary32).
    pub fn to_f32(self) -> f32 {
        let sign = u32::from(self.0 & F16_SIGN_MASK) << 16;
        let exp = (self.0 & F16_EXP_MASK) >> 10;
        let man = u32::from(self.0 & F16_MAN_MASK);

        let bits = match exp {
            0 => {
                if man == 0 {
                    sign
                } else {
                    // Subnormal: normalise the mantissa.
                    let mut exp32 = 127 - 15 + 1;
                    let mut man = man;
                    while man & 0x0400 == 0 {
                        man <<= 1;
                        exp32 -= 1;
                    }
                    man &= 0x03FF;
                    sign | ((exp32 as u32) << 23) | (man << 13)
                }
            }
            0x1F => {
                if man == 0 {
                    sign | 0x7F80_0000
                } else {
                    sign | 0x7FC0_0000 | (man << 13)
                }
            }
            _ => {
                let exp32 = (i32::from(exp) - 15 + 127) as u32;
                sign | (exp32 << 23) | (man << 13)
            }
        };
        f32::from_bits(bits)
    }

    /// Converts to `f64`.
    pub(crate) fn to_f64(self) -> f64 {
        f64::from(self.to_f32())
    }

    /// Returns `true` if the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & F16_EXP_MASK) == F16_EXP_MASK && (self.0 & F16_MAN_MASK) != 0
    }

    /// Returns `true` if the value is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & F16_EXP_MASK) != F16_EXP_MASK
    }

    /// Returns the absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        f16(self.0 & !F16_SIGN_MASK)
    }
}

/// Lazily built lookup table mapping every binary16 bit pattern to its
/// binary32 widening ([`f16::to_f32`]) — 256 KiB, shared process-wide.
static DECODE_TABLE: OnceLock<Box<[f32; 1 << 16]>> = OnceLock::new();

/// Decodes a run of binary16 values — a whole plane, or one work item's
/// share of one — to binary32 in one bulk pass, into `out` of equal length,
/// every element of which is written.  The codecs only ever write, so a
/// destination is handed to them as it was allocated, without a fill whose
/// every element they would overwrite.
///
/// The per-value [`f16::to_f32`](crate::half::f16::to_f32) conversion branches on the exponent field
/// (normal / subnormal / non-finite); done inside a GEMM inner loop that
/// cost is paid `O(M·N·K)` times.  This decoder instead pays it once per
/// distinct bit pattern — a 65 536-entry table built on first use — and
/// turns every subsequent conversion into a single indexed load, so
/// half→float conversion of an operand costs `O(rows·cols)` table lookups
/// done once per plane.  The result is bit-identical to calling
/// [`f16::to_f32`](crate::half::f16::to_f32) on every element (the table is built from it).
pub fn decode_to_f32(plane: &[f16], out: &mut [MaybeUninit<f32>]) {
    assert_eq!(plane.len(), out.len(), "one binary32 per binary16");
    let table = DECODE_TABLE.get_or_init(|| {
        let table: Box<[f32]> = (0..=u16::MAX)
            .map(|bits| f16::from_bits(bits).to_f32())
            .collect();
        table.try_into().expect("one entry per bit pattern")
    });
    for (v, &h) in out.iter_mut().zip(plane) {
        v.write(table[usize::from(h.to_bits())]);
    }
}

/// Scalars per chunk of [`encode_from_f32`]: four AVX2 vectors of `u32`
/// lanes, narrowed to two of `u16`.
const ENCODE_CHUNK: usize = 32;

/// Smallest binary32 magnitude (as bits) that is a *normal* binary16
/// value, `2^-14`; anything smaller and non-zero is a binary16 subnormal.
const F32_BITS_F16_MIN_NORMAL: u32 = 0x3880_0000;
/// Smallest binary32 magnitude (as bits) that rounds to binary16
/// infinity, `65520.0`; infinities and NaNs sort above it.
const F32_BITS_F16_OVERFLOW: u32 = 0x477F_F000;

/// Encodes a run of binary32 values to binary16 in one bulk pass, into `out`
/// of equal length, every element of which is written — the inverse of
/// [`decode_to_f32`].  `component` selects the scalar to
/// encode from each source element, so the same encoder splits
/// interleaved complex data (`&[Complex32]`, `&[[f32; 2]]`) into planes
/// and converts plain `&[f32]` slices.
///
/// The per-value [`f16::from_f32`](crate::half::f16::from_f32) branches
/// on the exponent (non-finite / overflow / subnormal / normal) and again
/// on the rounding remainder, which keeps the compiler from vectorising a
/// conversion loop.  Here every chunk of `ENCODE_CHUNK` scalars first
/// takes a branch-free path that is exact for ±0 and for every value that
/// rounds to a normal binary16: re-bias the exponent (binary32 bias 127,
/// binary16 bias 15), add `0x0FFF` plus the lowest kept mantissa bit
/// (round to nearest even; a mantissa carry ripples into the exponent on
/// its own) and drop the 13 low bits.  A chunk holding any other value —
/// a binary16 subnormal, an overflow, an infinity or a NaN — is redone
/// with `f16::from_f32`, as is the ragged tail, so the result is
/// bit-identical to calling it on every element, wherever a run is cut
/// into shares.
pub fn encode_from_f32<T>(src: &[T], component: impl Fn(&T) -> f32, out: &mut [MaybeUninit<f16>]) {
    assert_eq!(src.len(), out.len(), "one binary16 per source element");
    let mut chunks = src.chunks_exact(ENCODE_CHUNK);
    let mut outs = out.chunks_exact_mut(ENCODE_CHUNK);
    for (chunk, encoded) in (&mut chunks).zip(&mut outs) {
        let mut special = false;
        for (h, v) in encoded.iter_mut().zip(chunk) {
            let bits = component(v).to_bits();
            let sign = ((bits >> 16) & 0x8000) as u16;
            let abs = bits & 0x7FFF_FFFF;
            let rounded = abs
                .wrapping_sub((127 - 15) << 23)
                .wrapping_add(0x0FFF + ((abs >> 13) & 1))
                >> 13;
            h.write(f16(sign | if abs == 0 { 0 } else { rounded as u16 }));
            special |= abs != 0
                && abs.wrapping_sub(F32_BITS_F16_MIN_NORMAL)
                    >= F32_BITS_F16_OVERFLOW - F32_BITS_F16_MIN_NORMAL;
        }
        if special {
            for (h, v) in encoded.iter_mut().zip(chunk) {
                h.write(f16::from_f32(component(v)));
            }
        }
    }
    for (h, v) in outs.into_remainder().iter_mut().zip(chunks.remainder()) {
        h.write(f16::from_f32(component(v)));
    }
}

impl From<f32> for f16 {
    fn from(v: f32) -> Self {
        f16::from_f32(v)
    }
}

impl From<f16> for f32 {
    fn from(v: f16) -> Self {
        v.to_f32()
    }
}

impl From<f16> for f64 {
    fn from(v: f16) -> Self {
        v.to_f64()
    }
}

impl PartialEq for f16 {
    fn eq(&self, other: &Self) -> bool {
        self.to_f32() == other.to_f32()
    }
}

impl fmt::Debug for f16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}f16", self.to_f32())
    }
}

impl fmt::Display for f16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constants_roundtrip() {
        assert_eq!(f16::ZERO.to_f32(), 0.0);
        assert_eq!(f16::MAX.to_f32(), 65504.0);
        assert_eq!(f16::MIN_POSITIVE.to_f32(), 6.103_515_6e-5);
        assert!(f16::NAN.is_nan());
        assert_eq!(f16::INFINITY.to_f32(), f32::INFINITY);
    }

    #[test]
    fn simple_conversions() {
        for &v in &[0.0f32, 1.0, -1.0, 0.5, 2.0, 3.140625, 1000.0, -0.25] {
            assert_eq!(f16::from_f32(v).to_f32(), v, "value {v} should be exact");
        }
    }

    #[test]
    fn overflow_to_infinity() {
        assert_eq!(f16::from_f32(1e6), f16::INFINITY);
        assert_eq!(f16::from_f32(-1e6).to_f32(), f32::NEG_INFINITY);
        assert!(f16::from_f32(65504.0).is_finite());
        // 65520 rounds up to infinity (midpoint rounds to even => 65536 unrepresentable).
        assert_eq!(f16::from_f32(65520.0), f16::INFINITY);
        // Just below the midpoint stays at MAX.
        assert_eq!(f16::from_f32(65519.0), f16::MAX);
    }

    #[test]
    fn subnormal_conversions() {
        let tiny = f16::from_bits(0x0001);
        assert_eq!(tiny.to_f32(), 2.0f32.powi(-24));
        assert_eq!(f16::from_f32(2.0f32.powi(-24)).to_bits(), 0x0001);
        // Underflow to zero below half of the smallest subnormal.
        assert_eq!(f16::from_f32(2.0f32.powi(-26)).to_bits(), 0x0000);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1.0 + eps/2 (eps = 2^-10, the gap above 1.0) is exactly halfway
        // between 1.0 and 1.0+eps; it must round to the even mantissa, i.e. 1.0.
        let half_eps = 2f32.powi(-11);
        let one = f16::from_f32(1.0);
        assert_eq!(f16::from_f32(1.0 + half_eps), one);
        // 1.0 + 1.5*eps is halfway between 1.0+eps and 1.0+2eps; rounds to
        // the even one, 1.0 + 2eps.
        let expect = f16::from_bits(one.to_bits() + 2);
        assert_eq!(f16::from_f32(1.0 + 3.0 * half_eps), expect);
    }

    #[test]
    fn nan_propagates() {
        assert!(f16::from_f32(f32::NAN).is_nan());
        assert!((f16::NAN).to_f32().is_nan());
        assert_ne!(f16::NAN, f16::NAN);
    }

    proptest! {
        #[test]
        fn roundtrip_through_f32_is_identity(bits in any::<u16>()) {
            let h = f16::from_bits(bits);
            if h.is_nan() {
                prop_assert!(f16::from_f32(h.to_f32()).is_nan());
            } else {
                let back = f16::from_f32(h.to_f32());
                prop_assert_eq!(back.to_bits(), h.to_bits());
            }
        }

        #[test]
        fn conversion_is_monotonic(a in -70000.0f32..70000.0, b in -70000.0f32..70000.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let hlo = f16::from_f32(lo);
            let hhi = f16::from_f32(hi);
            prop_assert!(hlo.to_f32() <= hhi.to_f32(), "lo={lo} hi={hi} hlo={hlo:?} hhi={hhi:?}");
        }

        #[test]
        fn conversion_error_within_half_ulp(v in -60000.0f32..60000.0) {
            let h = f16::from_f32(v);
            let back = h.to_f32();
            // Relative error bounded by 2^-11 for normal values, absolute
            // error bounded by half the smallest subnormal otherwise.
            let tol = (v.abs() * 2.0f32.powi(-11)).max(2.0f32.powi(-25));
            prop_assert!((back - v).abs() <= tol, "v={v} back={back}");
        }
    }
}
