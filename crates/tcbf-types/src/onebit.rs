//! 1-bit complex sample encoding (Section III-D, Fig. 1 and Table II of
//! the paper).
//!
//! In a 1-bit representation only two values exist per real component; the
//! paper encodes them as −1 (binary 0) and +1 (binary 1) so that sign
//! information is preserved and zero is *not* representable.  A 1-bit
//! complex number therefore takes one of the four values ±1±i, equally
//! spaced on a circle of radius √2 in the complex plane.
//!
//! For tensor-core consumption, 32 consecutive 1-bit samples are packed
//! into one `u32` word ("the input data must be packed", Section III).
//! Real and imaginary planes are packed separately (planar layout), because
//! the binary tensor-core operations work on same-component planes.
//!
//! The key identity reproduced here (and proven by the property tests) is
//! the XOR dot product of Table II:
//!
//! ```text
//! Σ_k A_k·B_k  =  K − 2·popc(A ⊕ B)
//! ```
//!
//! and its AND-based equivalent used on Hopper where XOR is deprecated
//! (Eq. 6):
//!
//! ```text
//! Σ_k A_k·B_k  =  2·(popc(A ∧ B) + popc(Ā ∧ B̄)) − K
//! ```

use crate::complex::Complex;
use serde::{Deserialize, Serialize};

/// A single 1-bit complex sample: one sign bit per component.
///
/// `true` encodes +1, `false` encodes −1, matching the binary encoding of
/// Fig. 1 (binary 1 ↔ decimal +1, binary 0 ↔ decimal −1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OneBitComplex {
    /// Sign bit of the real component (`true` = +1).
    pub re: bool,
    /// Sign bit of the imaginary component (`true` = +1).
    pub im: bool,
}

impl OneBitComplex {
    /// The value `1 + i` (binary 11).
    pub(crate) const ONE_PLUS_I: OneBitComplex = OneBitComplex { re: true, im: true };
    /// The value `1 - i` (binary 10).
    pub(crate) const ONE_MINUS_I: OneBitComplex = OneBitComplex {
        re: true,
        im: false,
    };
    /// The value `-1 + i` (binary 01).
    pub(crate) const NEG_ONE_PLUS_I: OneBitComplex = OneBitComplex {
        re: false,
        im: true,
    };
    /// The value `-1 - i` (binary 00).
    pub(crate) const NEG_ONE_MINUS_I: OneBitComplex = OneBitComplex {
        re: false,
        im: false,
    };

    /// Builds a sample from the signs of the two components
    /// (`true` = non-negative = +1).
    #[inline]
    pub(crate) const fn from_signs(re_positive: bool, im_positive: bool) -> Self {
        OneBitComplex {
            re: re_positive,
            im: im_positive,
        }
    }

    /// Quantises an arbitrary complex value by keeping only the component
    /// signs.  Zero components quantise to +1 because zero is not
    /// representable in this format.
    #[inline]
    pub fn quantise(value: Complex<f32>) -> Self {
        OneBitComplex::from_signs(value.re >= 0.0, value.im >= 0.0)
    }

    /// Decodes to a full-precision complex value (each component ±1).
    #[inline]
    pub fn to_complex32(self) -> Complex<f32> {
        Complex::new(Self::decode_bit(self.re), Self::decode_bit(self.im))
    }

    /// Decodes a single bit to ±1.
    #[inline]
    pub(crate) fn decode_bit(bit: bool) -> f32 {
        if bit {
            1.0
        } else {
            -1.0
        }
    }

    /// The two-bit binary representation `(re << 1) | im` shown in Fig. 1:
    /// 00 ↔ −1−i, 01 ↔ −1+i, 10 ↔ 1−i, 11 ↔ 1+i.
    #[inline]
    pub fn binary_code(self) -> u8 {
        (u8::from(self.re) << 1) | u8::from(self.im)
    }

    /// All four representable values, in binary-code order 00, 01, 10, 11.
    pub fn constellation() -> [OneBitComplex; 4] {
        [
            OneBitComplex::NEG_ONE_MINUS_I,
            OneBitComplex::NEG_ONE_PLUS_I,
            OneBitComplex::ONE_MINUS_I,
            OneBitComplex::ONE_PLUS_I,
        ]
    }
}

/// Mask of the valid samples in word `w` of a plane of `len` samples: all
/// 32 bits except in a partial last word.
#[inline]
fn valid_mask(len: usize, w: usize) -> u32 {
    match len - w * 32 {
        32.. => u32::MAX,
        valid => (1u32 << valid) - 1,
    }
}

/// A bit plane of packed 1-bit samples: 32 consecutive samples per `u32`
/// word, least-significant bit first.
///
/// This is the device-memory format the packing kernel of `ccglib`
/// produces.  The number of *valid* samples is tracked separately from the
/// number of words so that padding introduced by rounding up to a multiple
/// of 32 (and later to the tensor-core K granularity) can be accounted for
/// in the K<sub>pad</sub> correction of Eq. 5.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedBits {
    words: Vec<u32>,
    len: usize,
}

impl PackedBits {
    /// Creates a packed plane with `len` samples, all initialised to binary
    /// 0 (decimal −1), the padding value used by the paper.
    pub fn zeros(len: usize) -> Self {
        PackedBits {
            words: vec![0u32; len.div_ceil(32)],
            len,
        }
    }

    /// Packs a slice of sign bits (`true` = +1), assembling each output
    /// word in a register instead of issuing one read-modify-write per bit.
    pub fn pack(bits: &[bool]) -> Self {
        let mut words = Vec::with_capacity(bits.len().div_ceil(32));
        for chunk in bits.chunks(32) {
            let mut word = 0u32;
            for (i, &b) in chunk.iter().enumerate() {
                word |= u32::from(b) << i;
            }
            words.push(word);
        }
        PackedBits {
            words,
            len: bits.len(),
        }
    }

    /// Builds a plane from already-assembled words (the fast packing path
    /// of `ccglib`).  Slack bits beyond `len` in the last word are cleared
    /// so the whole-word popcount fast path stays exact.
    ///
    /// # Panics
    /// Panics if `words` is not exactly `len.div_ceil(32)` words long.
    pub fn from_words(mut words: Vec<u32>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(32),
            "a plane of {len} samples needs {} words",
            len.div_ceil(32)
        );
        if !len.is_multiple_of(32) {
            if let Some(last) = words.last_mut() {
                *last &= (1u32 << (len % 32)) - 1;
            }
        }
        PackedBits { words, len }
    }

    /// Number of valid samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the plane holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw packed words.
    #[inline]
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Reads the sample at `index`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / 32] >> (index % 32)) & 1 == 1
    }

    /// Writes the sample at `index`.
    #[inline]
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let word = &mut self.words[index / 32];
        let mask = 1u32 << (index % 32);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Unpacks to a vector of ±1 values.
    pub fn unpack(&self) -> Vec<f32> {
        (0..self.len)
            .map(|i| OneBitComplex::decode_bit(self.get(i)))
            .collect()
    }

    /// Real-valued dot product of two planes of equal length via the XOR +
    /// popcount identity of Table II: `K − 2·popc(A ⊕ B)`.
    pub fn dot_xor(&self, other: &PackedBits) -> i32 {
        assert_eq!(self.len, other.len, "dot product requires equal lengths");
        let k = self.len as i32;
        let mut popc = 0i32;
        for (i, (&a, &b)) in self.words.iter().zip(&other.words).enumerate() {
            let mask = valid_mask(self.len, i);
            popc += ((a ^ b) & mask).count_ones() as i32;
        }
        k - 2 * popc
    }

    /// Real-valued dot product via the AND identity of Eq. 6, the variant
    /// the library switches to on NVIDIA Hopper and newer GPUs where the
    /// XOR tensor-core operation is deprecated:
    /// `2·(popc(A ∧ B) + popc(Ā ∧ B̄)) − K`.
    pub fn dot_and(&self, other: &PackedBits) -> i32 {
        assert_eq!(self.len, other.len, "dot product requires equal lengths");
        let k = self.len as i32;
        let mut popc = 0i32;
        for (i, (&a, &b)) in self.words.iter().zip(&other.words).enumerate() {
            let mask = valid_mask(self.len, i);
            popc += ((a & b) & mask).count_ones() as i32;
            popc += ((!a & !b) & mask).count_ones() as i32;
        }
        2 * popc - k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The dot product by definition: every sample decoded to ±1.
    fn dot_reference(a: &PackedBits, b: &PackedBits) -> i32 {
        assert_eq!(a.len(), b.len());
        let decode = |bit: bool| if bit { 1 } else { -1 };
        (0..a.len())
            .map(|i| decode(a.get(i)) * decode(b.get(i)))
            .sum()
    }

    #[test]
    fn constellation_matches_figure_1() {
        // Fig. 1: binary 00 = −1−i, 01 = −1+i, 10 = 1−i, 11 = 1+i.
        let c = OneBitComplex::constellation();
        assert_eq!(c[0].to_complex32(), Complex::new(-1.0, -1.0));
        assert_eq!(c[0].binary_code(), 0b00);
        assert_eq!(c[1].to_complex32(), Complex::new(-1.0, 1.0));
        assert_eq!(c[1].binary_code(), 0b01);
        assert_eq!(c[2].to_complex32(), Complex::new(1.0, -1.0));
        assert_eq!(c[2].binary_code(), 0b10);
        assert_eq!(c[3].to_complex32(), Complex::new(1.0, 1.0));
        assert_eq!(c[3].binary_code(), 0b11);
        // All four points lie on the circle of radius sqrt(2).
        for p in c {
            assert!((p.to_complex32().abs() - std::f32::consts::SQRT_2).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_is_not_representable_and_quantises_to_plus_one() {
        let q = OneBitComplex::quantise(Complex::new(0.0, -0.0));
        // +0 and -0 both have sign >= 0 under `>= 0.0` comparison for +0,
        // -0.0 >= 0.0 is true in IEEE as well.
        assert_eq!(q.to_complex32(), Complex::new(1.0, 1.0));
        for p in OneBitComplex::constellation() {
            assert_ne!(p.to_complex32(), Complex::new(0.0, 0.0));
        }
    }

    #[test]
    fn table_ii_worked_example() {
        // Table II: A = (1, −1, 1, −1) = binary 1010 (LSB first: 1,0,1,0),
        // B = (1, 1, −1, −1); dot product is 0, popc(A⊕B) = 2.
        let a = PackedBits::pack(&[true, false, true, false]);
        let b = PackedBits::pack(&[true, true, false, false]);
        assert_eq!(dot_reference(&a, &b), 0);
        // popc(A ⊕ B) == 2 as in the table.
        let xor_popc: u32 = {
            let mut p = 0;
            for i in 0..4 {
                p += u32::from(a.get(i) != b.get(i));
            }
            p
        };
        assert_eq!(xor_popc, 2);
        assert_eq!(a.dot_xor(&b), 0);
        assert_eq!(a.dot_and(&b), 0);
    }

    #[test]
    fn packing_roundtrip() {
        let bits: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let packed = PackedBits::pack(&bits);
        assert_eq!(packed.len(), 100);
        assert_eq!(packed.words().len(), 4);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(packed.get(i), b);
        }
        let unpacked = packed.unpack();
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(unpacked[i], if b { 1.0 } else { -1.0 });
        }
    }

    /// The pre-rewrite packing path: zero-fill then one `set` per bit.
    /// Kept as the layout ground truth for the word-assembling fast path.
    fn pack_per_bit(bits: &[bool]) -> PackedBits {
        let mut packed = PackedBits::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            packed.set(i, b);
        }
        packed
    }

    #[test]
    fn word_assembled_packing_matches_the_per_bit_layout() {
        for len in [1usize, 31, 32, 33, 64, 100, 255, 256, 300] {
            let bits: Vec<bool> = (0..len).map(|i| (i * 7 + len) % 3 != 0).collect();
            let fast = PackedBits::pack(&bits);
            let slow = pack_per_bit(&bits);
            assert_eq!(fast, slow, "len {len}");
        }
    }

    #[test]
    fn from_words_clears_slack_bits() {
        let plane = PackedBits::from_words(vec![u32::MAX, u32::MAX], 40);
        assert_eq!(plane.len(), 40);
        // Only the 40 valid bits count; the 24 slack bits were cleared.
        let ones: u32 = plane.words().iter().map(|w| w.count_ones()).sum();
        assert_eq!(ones, 40);
        assert_eq!(plane.words()[1], 0xFF);
        let exact = PackedBits::from_words(vec![7], 32);
        assert_eq!(exact.words()[0], 7);
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn from_words_rejects_wrong_word_counts() {
        let _ = PackedBits::from_words(vec![0; 3], 40);
    }

    proptest! {
        #[test]
        fn fast_packing_roundtrips_for_random_lengths(
            bits in proptest::collection::vec(any::<bool>(), 1..400),
        ) {
            let fast = PackedBits::pack(&bits);
            prop_assert_eq!(&fast, &pack_per_bit(&bits));
            let rebuilt = PackedBits::from_words(fast.words().to_vec(), fast.len());
            prop_assert_eq!(&fast, &rebuilt);
        }

        #[test]
        fn xor_identity_matches_reference(bits_a in proptest::collection::vec(any::<bool>(), 1..300),
                                          seed in any::<u64>()) {
            // Derive B deterministically from A and a seed so lengths match.
            let bits_b: Vec<bool> = bits_a
                .iter()
                .enumerate()
                .map(|(i, &a)| a ^ ((seed >> (i % 64)) & 1 == 1))
                .collect();
            let a = PackedBits::pack(&bits_a);
            let b = PackedBits::pack(&bits_b);
            prop_assert_eq!(a.dot_xor(&b), dot_reference(&a, &b));
        }

        #[test]
        fn and_identity_matches_reference(bits_a in proptest::collection::vec(any::<bool>(), 1..300),
                                          seed in any::<u64>()) {
            let bits_b: Vec<bool> = bits_a
                .iter()
                .enumerate()
                .map(|(i, &a)| a ^ ((seed >> (i % 64)) & 1 == 0))
                .collect();
            let a = PackedBits::pack(&bits_a);
            let b = PackedBits::pack(&bits_b);
            prop_assert_eq!(a.dot_and(&b), dot_reference(&a, &b));
        }

        #[test]
        fn xor_and_agree(bits_a in proptest::collection::vec(any::<bool>(), 1..300),
                         bits_b_seed in any::<u64>()) {
            let bits_b: Vec<bool> = bits_a
                .iter()
                .enumerate()
                .map(|(i, _)| (bits_b_seed >> (i % 64)) & 1 == 1)
                .collect();
            let a = PackedBits::pack(&bits_a);
            let b = PackedBits::pack(&bits_b);
            prop_assert_eq!(a.dot_xor(&b), a.dot_and(&b));
        }

        #[test]
        fn dot_bounds(bits_a in proptest::collection::vec(any::<bool>(), 1..300)) {
            // |Σ ±1·±1| ≤ K and has the same parity as K.
            let b = PackedBits::pack(&bits_a.iter().map(|&x| !x).collect::<Vec<_>>());
            let a = PackedBits::pack(&bits_a);
            let d = a.dot_xor(&b);
            let k = bits_a.len() as i32;
            prop_assert!(d.abs() <= k);
            prop_assert_eq!((d - k).rem_euclid(2), 0);
        }

        #[test]
        fn quantise_decode_fixed_point(re in -10.0f32..10.0, im in -10.0f32..10.0) {
            // Quantising an already-quantised value is the identity.
            let q = OneBitComplex::quantise(Complex::new(re, im));
            let qq = OneBitComplex::quantise(q.to_complex32());
            prop_assert_eq!(q, qq);
        }
    }
}
