//! Functional model of the Warp Matrix Multiply-Accumulate (WMMA)
//! interface.
//!
//! Tensor cores execute small fixed-size matrix multiplications called
//! *fragments*.  ccglib is written against this fragment interface, so the
//! simulator reproduces it functionally:
//!
//! * [`mma_sync`] — the half-precision fragment multiply-accumulate
//!   (`D = A·B + C` with `A`, `B` in binary16 and `C`, `D` in binary32),
//!   fragment shape 16×16×16 on every evaluated architecture;
//! * [`bmma_sync`] — the 1-bit ("binary") fragment operation: a bitwise
//!   XOR or AND between 128/256-bit rows and columns followed by a
//!   population count accumulated into 32-bit integers.  This is exactly
//!   the `popc`-accumulation semantics of the hardware; converting the
//!   popcount into a signed ±1 dot product (Table II / Eqs. 5–6) is the
//!   responsibility of the caller (ccglib), as it is on real hardware.
//!
//! Inputs use the same conventions as CUDA WMMA: the `A` fragment is
//! row-major `m×k`, the `B` fragment column-major `k×n` (i.e. stored as
//! `n` rows of `k` values), and the accumulator row-major `m×n`.

use crate::arch::{Architecture, BitOp};
use serde::{Deserialize, Serialize};
use std::fmt;
use tcbf_types::f16;

/// Shape of a half-precision tensor-core fragment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FragmentShape {
    /// The 16×16×16 fragment available on every evaluated architecture
    /// (NVIDIA WMMA and AMD MFMA/rocWMMA).
    M16N16K16,
}

impl FragmentShape {
    /// Fragment rows (M).
    pub const fn m(self) -> usize {
        16
    }
    /// Fragment columns (N).
    pub const fn n(self) -> usize {
        16
    }
    /// Fragment depth (K).
    pub const fn k(self) -> usize {
        16
    }

    /// Fragment shapes supported by an architecture for float16 inputs.
    pub fn supported(_arch: Architecture) -> Vec<FragmentShape> {
        vec![FragmentShape::M16N16K16]
    }
}

impl fmt::Display for FragmentShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.m(), self.n(), self.k())
    }
}

/// Shape of a 1-bit ("binary") tensor-core fragment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BitFragmentShape {
    /// 8×8×128: the layout exposed through the WMMA API.
    M8N8K128,
    /// 16×8×256: only reachable through inline PTX; at least as fast as the
    /// small layout everywhere and more than twice as fast on A100/GH200.
    M16N8K256,
}

impl BitFragmentShape {
    /// Fragment rows (M).
    pub const fn m(self) -> usize {
        match self {
            BitFragmentShape::M8N8K128 => 8,
            BitFragmentShape::M16N8K256 => 16,
        }
    }
    /// Fragment columns (N).
    pub const fn n(self) -> usize {
        8
    }
    /// Fragment depth in bits (K).
    pub const fn k(self) -> usize {
        match self {
            BitFragmentShape::M8N8K128 => 128,
            BitFragmentShape::M16N8K256 => 256,
        }
    }
    /// Fragment depth in 32-bit words.
    pub const fn k_words(self) -> usize {
        self.k() / 32
    }

    /// Both layouts, small first.
    pub const ALL: [BitFragmentShape; 2] =
        [BitFragmentShape::M8N8K128, BitFragmentShape::M16N8K256];

    /// Layouts supported by an architecture (empty on AMD).
    pub fn supported(arch: Architecture) -> Vec<BitFragmentShape> {
        if arch.supports_int1() {
            BitFragmentShape::ALL.to_vec()
        } else {
            Vec::new()
        }
    }
}

impl fmt::Display for BitFragmentShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.m(), self.n(), self.k())
    }
}

/// Half-precision fragment multiply-accumulate: `acc += A · B`.
///
/// * `a` — row-major `m×k` half-precision fragment;
/// * `b` — column-major `k×n` fragment, stored as `n` contiguous columns of
///   `k` values (index `col * k + kk`);
/// * `acc` — row-major `m×n` single-precision accumulator, updated in
///   place.
///
/// Products are formed in single precision (the hardware multiplies
/// half-precision inputs exactly — every product of two binary16 values is
/// representable in binary32) and accumulated in single precision.
pub fn mma_sync(shape: FragmentShape, a: &[f16], b: &[f16], acc: &mut [f32]) {
    let (m, n, k) = (shape.m(), shape.n(), shape.k());
    assert_eq!(a.len(), m * k, "A fragment has wrong size");
    assert_eq!(b.len(), k * n, "B fragment has wrong size");
    assert_eq!(acc.len(), m * n, "accumulator fragment has wrong size");
    for i in 0..m {
        for j in 0..n {
            let mut sum = 0.0f32;
            for kk in 0..k {
                sum += a[i * k + kk].to_f32() * b[j * k + kk].to_f32();
            }
            acc[i * n + j] += sum;
        }
    }
}

/// 1-bit fragment multiply-accumulate with popcount accumulation:
/// `acc[i][j] += popc(op(A_row_i, B_col_j))`.
///
/// * `a` — row-major `m × k/32` packed words;
/// * `b` — column-major `n × k/32` packed words (one packed row per output
///   column);
/// * `acc` — row-major `m×n` 32-bit integer accumulator.
///
/// The AND variant accumulates only `popc(A ∧ B)`; the caller issues a
/// second `bmma_sync` on the complemented inputs to complete Eq. 6, exactly
/// as the real kernel does (which is why the AND formulation costs twice
/// the instructions).
pub fn bmma_sync(shape: BitFragmentShape, op: BitOp, a: &[u32], b: &[u32], acc: &mut [i32]) {
    let (m, n, kw) = (shape.m(), shape.n(), shape.k_words());
    assert_eq!(a.len(), m * kw, "A fragment has wrong size");
    assert_eq!(b.len(), n * kw, "B fragment has wrong size");
    assert_eq!(acc.len(), m * n, "accumulator fragment has wrong size");
    for i in 0..m {
        for j in 0..n {
            let mut popc = 0u32;
            for w in 0..kw {
                let aw = a[i * kw + w];
                let bw = b[j * kw + w];
                let combined = match op {
                    BitOp::Xor => aw ^ bw,
                    BitOp::And => aw & bw,
                };
                popc += combined.count_ones();
            }
            acc[i * n + j] += popc as i32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn f16_vec(values: &[f32]) -> Vec<f16> {
        values.iter().map(|&v| f16::from_f32(v)).collect()
    }

    /// Reference ±1 dot-product fragment used by tests: decodes every bit and
    /// multiplies, bypassing the popcount identities.
    fn bmma_reference_signed(shape: BitFragmentShape, a: &[u32], b: &[u32]) -> Vec<i32> {
        let (m, n, kw) = (shape.m(), shape.n(), shape.k_words());
        let decode = |word: u32, bit: usize| -> i32 {
            if (word >> bit) & 1 == 1 {
                1
            } else {
                -1
            }
        };
        let mut out = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut sum = 0i32;
                for w in 0..kw {
                    for bit in 0..32 {
                        sum += decode(a[i * kw + w], bit) * decode(b[j * kw + w], bit);
                    }
                }
                out[i * n + j] = sum;
            }
        }
        out
    }

    #[test]
    fn fragment_shapes() {
        assert_eq!(FragmentShape::M16N16K16.to_string(), "16x16x16");
        assert_eq!(BitFragmentShape::M8N8K128.k_words(), 4);
        assert_eq!(BitFragmentShape::M16N8K256.k_words(), 8);
        assert!(BitFragmentShape::supported(Architecture::Cdna3).is_empty());
        assert_eq!(BitFragmentShape::supported(Architecture::Ampere).len(), 2);
    }

    #[test]
    fn mma_identity_times_matrix() {
        let shape = FragmentShape::M16N16K16;
        let (m, n, k) = (shape.m(), shape.n(), shape.k());
        // A = identity, B = arbitrary -> C = B (transposed into row-major).
        let mut a = vec![f16::ZERO; m * k];
        for i in 0..m {
            a[i * k + i] = f16::ONE;
        }
        let mut b = vec![f16::ZERO; k * n];
        for j in 0..n {
            for kk in 0..k {
                b[j * k + kk] = f16::from_f32((kk * n + j) as f32 * 0.25);
            }
        }
        let mut acc = vec![0.0f32; m * n];
        mma_sync(shape, &a, &b, &mut acc);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(acc[i * n + j], (i * n + j) as f32 * 0.25);
            }
        }
    }

    #[test]
    fn mma_accumulates_into_existing_values() {
        let shape = FragmentShape::M16N16K16;
        let a = f16_vec(&vec![1.0; 16 * 16]);
        let b = f16_vec(&vec![1.0; 16 * 16]);
        let mut acc = vec![5.0f32; 16 * 16];
        mma_sync(shape, &a, &b, &mut acc);
        // Each output is 5 + sum of 16 ones = 21.
        assert!(acc.iter().all(|&v| v == 21.0));
    }

    #[test]
    fn bmma_xor_all_equal_bits_gives_zero_popcount() {
        let shape = BitFragmentShape::M8N8K128;
        let a = vec![0xFFFF_FFFFu32; 8 * 4];
        let b = vec![0xFFFF_FFFFu32; 8 * 4];
        let mut acc = vec![0i32; 8 * 8];
        bmma_sync(shape, BitOp::Xor, &a, &b, &mut acc);
        assert!(acc.iter().all(|&v| v == 0));
        // AND of all ones gives K.
        let mut acc_and = vec![0i32; 8 * 8];
        bmma_sync(shape, BitOp::And, &a, &b, &mut acc_and);
        assert!(acc_and.iter().all(|&v| v == 128));
    }

    #[test]
    fn xor_popcount_maps_to_signed_dot_product() {
        // K − 2·popc(A⊕B) must equal the decoded ±1 dot product.
        let shape = BitFragmentShape::M16N8K256;
        let kw = shape.k_words();
        let a: Vec<u32> = (0..shape.m() * kw)
            .map(|i| (i as u32).wrapping_mul(0x9E37_79B9))
            .collect();
        let b: Vec<u32> = (0..shape.n() * kw)
            .map(|i| (i as u32).wrapping_mul(0x85EB_CA6B) ^ 0xDEAD)
            .collect();
        let mut popc = vec![0i32; shape.m() * shape.n()];
        bmma_sync(shape, BitOp::Xor, &a, &b, &mut popc);
        let reference = bmma_reference_signed(shape, &a, &b);
        for idx in 0..popc.len() {
            assert_eq!(shape.k() as i32 - 2 * popc[idx], reference[idx]);
        }
    }

    #[test]
    fn and_double_pass_maps_to_signed_dot_product() {
        // 2·(popc(A∧B) + popc(Ā∧B̄)) − K must equal the ±1 dot product.
        let shape = BitFragmentShape::M8N8K128;
        let kw = shape.k_words();
        let a: Vec<u32> = (0..shape.m() * kw)
            .map(|i| (i as u32).wrapping_mul(0x1234_5678) ^ 0xF0F0)
            .collect();
        let b: Vec<u32> = (0..shape.n() * kw)
            .map(|i| (i as u32).wrapping_mul(0x0BAD_F00D))
            .collect();
        let not_a: Vec<u32> = a.iter().map(|&w| !w).collect();
        let not_b: Vec<u32> = b.iter().map(|&w| !w).collect();
        let mut popc = vec![0i32; shape.m() * shape.n()];
        bmma_sync(shape, BitOp::And, &a, &b, &mut popc);
        bmma_sync(shape, BitOp::And, &not_a, &not_b, &mut popc);
        let reference = bmma_reference_signed(shape, &a, &b);
        for idx in 0..popc.len() {
            assert_eq!(2 * popc[idx] - shape.k() as i32, reference[idx]);
        }
    }

    #[test]
    #[should_panic(expected = "A fragment has wrong size")]
    fn wrong_fragment_size_panics() {
        let mut acc = vec![0.0f32; 256];
        mma_sync(
            FragmentShape::M16N16K16,
            &[f16::ONE; 8],
            &[f16::ONE; 256],
            &mut acc,
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn mma_matches_f64_reference(seed in any::<u64>()) {
            // Compare fragment MMA against a double-precision reference;
            // inputs are small integers scaled so all products are exact.
            let shape = FragmentShape::M16N16K16;
            let (m, n, k) = (shape.m(), shape.n(), shape.k());
            let mut state = seed | 1;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) % 17) as f32 - 8.0
            };
            let a: Vec<f16> = (0..m * k).map(|_| f16::from_f32(next())).collect();
            let b: Vec<f16> = (0..k * n).map(|_| f16::from_f32(next())).collect();
            let mut acc = vec![0.0f32; m * n];
            mma_sync(shape, &a, &b, &mut acc);
            for i in 0..m {
                for j in 0..n {
                    let expect: f64 = (0..k)
                        .map(|kk| f64::from(a[i * k + kk].to_f32()) * f64::from(b[j * k + kk].to_f32()))
                        .sum();
                    prop_assert!((f64::from(acc[i * n + j]) - expect).abs() < 1e-3);
                }
            }
        }

        #[test]
        fn xor_and_formulations_agree(seed in any::<u64>()) {
            let shape = BitFragmentShape::M8N8K128;
            let kw = shape.k_words();
            let mut state = seed | 1;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u32
            };
            let a: Vec<u32> = (0..shape.m() * kw).map(|_| next()).collect();
            let b: Vec<u32> = (0..shape.n() * kw).map(|_| next()).collect();
            let not_a: Vec<u32> = a.iter().map(|&w| !w).collect();
            let not_b: Vec<u32> = b.iter().map(|&w| !w).collect();

            let mut popc_xor = vec![0i32; shape.m() * shape.n()];
            bmma_sync(shape, BitOp::Xor, &a, &b, &mut popc_xor);
            let mut popc_and = vec![0i32; shape.m() * shape.n()];
            bmma_sync(shape, BitOp::And, &a, &b, &mut popc_and);
            bmma_sync(shape, BitOp::And, &not_a, &not_b, &mut popc_and);

            for idx in 0..popc_xor.len() {
                let via_xor = shape.k() as i32 - 2 * popc_xor[idx];
                let via_and = 2 * popc_and[idx] - shape.k() as i32;
                prop_assert_eq!(via_xor, via_and);
            }
        }
    }
}
