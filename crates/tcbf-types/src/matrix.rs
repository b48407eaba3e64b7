//! Matrix shapes, tiling and padding arithmetic.
//!
//! The beamforming GEMM is described throughout the paper as the product of
//! an `M×K` matrix (beam weights) with a `K×N` matrix (receiver samples),
//! optionally repeated `batch` times (e.g. once per frequency channel ×
//! polarisation in the LOFAR application).  The tensor-core kernels operate
//! on fixed-size *fragments* and on per-thread-block *tiles*, so problem
//! dimensions that are not multiples of the tile sizes must be padded; the
//! amount of padding drives both the K<sub>pad</sub> correction of the 1-bit
//! kernel (Eq. 5) and the sawtooth performance pattern visible in Figs. 4
//! and 7.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Dimensions of one complex GEMM: `C[M×N] = A[M×K] · B[K×N]`, repeated
/// `batch` times.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GemmShape {
    /// Number of batched multiplications sharing the same shape.
    pub batch: usize,
    /// Rows of `A` and `C`.  In beamforming: the number of beams.
    pub m: usize,
    /// Columns of `B` and `C`.  In beamforming: the number of time samples.
    pub n: usize,
    /// Columns of `A` / rows of `B`.  In beamforming: the number of
    /// receivers summed over.
    pub k: usize,
}

impl GemmShape {
    /// Creates a non-batched shape.
    pub const fn new(m: usize, n: usize, k: usize) -> Self {
        GemmShape { batch: 1, m, n, k }
    }

    /// Creates a batched shape.
    pub const fn batched(batch: usize, m: usize, n: usize, k: usize) -> Self {
        GemmShape { batch, m, n, k }
    }

    /// Number of *useful* operations as defined in Section IV-A of the
    /// paper: `8 · M · N · K` per batch element — four real FMAs per
    /// complex multiply-accumulate, each FMA counting as two operations.
    pub fn complex_ops(&self) -> u128 {
        8u128 * self.batch as u128 * self.m as u128 * self.n as u128 * self.k as u128
    }

    /// Number of complex multiply-accumulate operations (`M·N·K` per batch).
    pub(crate) fn complex_macs(&self) -> u128 {
        self.batch as u128 * self.m as u128 * self.n as u128 * self.k as u128
    }

    /// Total number of complex elements in the `A` operand.
    pub fn a_elements(&self) -> usize {
        self.batch * self.m * self.k
    }

    /// Total number of complex elements in the `B` operand.
    pub fn b_elements(&self) -> usize {
        self.batch * self.k * self.n
    }

    /// Total number of complex elements in the `C` result.
    pub fn c_elements(&self) -> usize {
        self.batch * self.m * self.n
    }

    /// Bytes moved to/from device memory for a given input precision
    /// (bits per real component) assuming each operand is read once and the
    /// output (always complex float32, 8 bytes) written once.  This is the
    /// "theoretical amount of bytes transferred" used for the arithmetic-
    /// intensity axis of the roofline plots (Fig. 3).
    pub(crate) fn io_bytes(&self, input_bits_per_component: usize) -> u128 {
        let in_bits = 2 * input_bits_per_component as u128; // complex: two components
        let a_bits = self.a_elements() as u128 * in_bits;
        let b_bits = self.b_elements() as u128 * in_bits;
        let c_bits = self.c_elements() as u128 * 64; // complex f32 output
        (a_bits + b_bits + c_bits) / 8
    }

    /// Arithmetic intensity in operations per byte for the given input
    /// precision.
    pub fn arithmetic_intensity(&self, input_bits_per_component: usize) -> f64 {
        self.complex_ops() as f64 / self.io_bytes(input_bits_per_component) as f64
    }

    /// Returns this shape padded so every dimension is a multiple of the
    /// corresponding tile dimension.
    pub(crate) fn padded_to(&self, tile: TileShape) -> GemmShape {
        GemmShape {
            batch: self.batch,
            m: round_up(self.m, tile.m),
            n: round_up(self.n, tile.n),
            k: round_up(self.k, tile.k),
        }
    }

    /// Amount of padding added to `K` when rounding up to `k_granularity`,
    /// i.e. the `K_pad` term of Eq. 5.
    pub fn k_padding(&self, k_granularity: usize) -> usize {
        round_up(self.k, k_granularity) - self.k
    }
}

impl fmt::Display for GemmShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}x{}", self.batch, self.m, self.n, self.k)
    }
}

/// A tile of work: the granularity at which a kernel decomposes the GEMM
/// (per thread block, per warp, or per tensor-core fragment).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileShape {
    /// Tile extent along M.
    pub m: usize,
    /// Tile extent along N.
    pub n: usize,
    /// Tile extent along K.
    pub k: usize,
}

impl TileShape {
    /// Creates a tile shape.
    pub const fn new(m: usize, n: usize, k: usize) -> Self {
        TileShape { m, n, k }
    }

    /// Fraction of the padded iteration space that is useful work
    /// (1.0 when every dimension divides evenly; < 1.0 otherwise).  The
    /// complement of this factor is what produces the sawtooth pattern in
    /// Figs. 4 and 7.
    pub fn efficiency(&self, shape: &GemmShape) -> f64 {
        let padded = shape.padded_to(*self);
        shape.complex_macs() as f64 / padded.complex_macs() as f64
    }
}

impl fmt::Display for TileShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.m, self.n, self.k)
    }
}

/// Rounds `value` up to the next multiple of `granularity`.
pub fn round_up(value: usize, granularity: usize) -> usize {
    assert!(granularity > 0, "granularity must be positive");
    value.div_ceil(granularity) * granularity
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn useful_ops_matches_paper_definition() {
        // The paper's generic float16 tuning case: M = N = K = 8192 gives
        // 8 * 8192^3 = 4.398e12 operations.
        let shape = GemmShape::new(8192, 8192, 8192);
        assert_eq!(shape.complex_ops(), 8 * 8192u128.pow(3));
        // Ultrasound offline case from Section V-A.
        let us = GemmShape::new(38_880, 8_041, 524_288);
        assert_eq!(us.complex_ops(), 8 * 38_880u128 * 8_041 * 524_288);
    }

    #[test]
    fn io_bytes_and_intensity() {
        let shape = GemmShape::new(1024, 1024, 64);
        // f16: 2 components * 2 bytes = 4 bytes per complex input element.
        let a = 1024 * 64 * 4u128;
        let b = 64 * 1024 * 4u128;
        let c = 1024 * 1024 * 8u128;
        assert_eq!(shape.io_bytes(16), a + b + c);
        let ai = shape.arithmetic_intensity(16);
        assert!((ai - shape.complex_ops() as f64 / (a + b + c) as f64).abs() < 1e-12);
        // 1-bit inputs move 16x fewer input bytes.
        assert!(shape.io_bytes(1) < shape.io_bytes(16));
    }

    #[test]
    fn padding_and_efficiency() {
        let tile = TileShape::new(256, 64, 16);
        let exact = GemmShape::new(512, 128, 64);
        assert_eq!(exact.padded_to(tile), exact);
        assert_eq!(tile.efficiency(&exact), 1.0);

        let ragged = GemmShape::new(257, 65, 17);
        let padded = ragged.padded_to(tile);
        assert_eq!(padded, GemmShape::new(512, 128, 32));
        assert!(tile.efficiency(&ragged) < 0.5);
        assert_eq!(ragged.k_padding(16), 15);
    }

    #[test]
    fn round_up_behaviour() {
        assert_eq!(round_up(0, 16), 0);
        assert_eq!(round_up(1, 16), 16);
        assert_eq!(round_up(16, 16), 16);
        assert_eq!(round_up(17, 16), 32);
    }

    proptest! {
        #[test]
        fn padded_shape_is_no_smaller(
            m in 1usize..2000, n in 1usize..2000, k in 1usize..2000,
            tm in 1usize..256, tn in 1usize..256, tk in 1usize..256,
        ) {
            let shape = GemmShape::new(m, n, k);
            let tile = TileShape::new(tm, tn, tk);
            let padded = shape.padded_to(tile);
            prop_assert!(padded.m >= m && padded.n >= n && padded.k >= k);
            prop_assert_eq!(padded.m % tm, 0);
            prop_assert_eq!(padded.n % tn, 0);
            prop_assert_eq!(padded.k % tk, 0);
            // Padding never more than a full tile minus one in each dim.
            prop_assert!(padded.m - m < tm);
            let eff = tile.efficiency(&shape);
            prop_assert!(eff > 0.0 && eff <= 1.0);
        }
    }
}
