//! The 1-bit packing / unpacking kernel.
//!
//! "For 1-bit precision, the input data must be packed, i.e. 32 consecutive
//! 1-bit samples must be stored in a single 32-bit integer.  Packing and
//! unpacking kernels are provided to handle this."  (Section III.)
//!
//! Packing keeps only the sign of every real and imaginary component and is
//! purely a data-movement operation, so on the device it is bound by memory
//! bandwidth; the [`pack_profile`] function exposes that cost to the
//! execution model so pipelines that include packing (e.g. the ultrasound
//! measurement-matrix path of Fig. 5) account for it.

use gpu_sim::{KernelKind, KernelProfile, LaunchConfig};

/// Kernel profile of packing a `rows × k` matrix whose source samples are
/// `input_bits_per_component` bits wide (16 for half-precision input, 32
/// for single-precision input straight from the application).
///
/// The kernel reads every input sample once and writes two packed bit
/// planes; it performs no arithmetic worth counting.
pub fn pack_profile(rows: usize, k: usize, input_bits_per_component: usize) -> KernelProfile {
    let elements = rows as f64 * k as f64;
    let input_bytes = elements * 2.0 * input_bits_per_component as f64 / 8.0;
    let output_bytes = elements * 2.0 / 8.0;
    let threads_per_block = 256;
    // One thread per 32 input samples (one output word).
    let words = (elements / 32.0).ceil().max(1.0);
    let blocks = (words / threads_per_block as f64).ceil().max(1.0) as usize;
    KernelProfile::data_movement(
        KernelKind::Pack,
        input_bytes + output_bytes,
        LaunchConfig::new(blocks, threads_per_block),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{HostComplexMatrix, Int1Matrix};
    use gpu_sim::{ExecutionModel, Gpu};
    use tcbf_types::Complex;

    #[test]
    fn pack_unpack_roundtrip_preserves_signs() {
        let host = HostComplexMatrix::from_fn(5, 67, |r, c| {
            Complex::new((r as f32 - 2.0) * 0.3, (c as f32 - 33.0) * 0.1)
        });
        let packed = Int1Matrix::from_host_padded(&host, 128);
        let unpacked = packed.to_host();
        assert_eq!(unpacked.rows(), 5);
        assert_eq!(unpacked.cols(), 67);
        for r in 0..5 {
            for c in 0..67 {
                let orig = host.get(r, c);
                let got = unpacked.get(r, c);
                assert_eq!(got.re, if orig.re >= 0.0 { 1.0 } else { -1.0 });
                assert_eq!(got.im, if orig.im >= 0.0 { 1.0 } else { -1.0 });
            }
        }
    }

    #[test]
    fn pack_pads_to_fragment_depth() {
        let host = HostComplexMatrix::zeros(3, 300);
        let packed = Int1Matrix::from_host_padded(&host, 256);
        assert_eq!(packed.k_padded(), 512);
        assert_eq!(packed.k_padding(), 212);
    }

    #[test]
    fn pack_profile_is_memory_bound_and_scales_with_size() {
        let model = ExecutionModel::new(Gpu::A100.spec());
        let small = model.time(&pack_profile(64, 8192, 16));
        let large = model.time(&pack_profile(64, 8_192_000, 16));
        assert!(large.elapsed_s > small.elapsed_s);
        assert!(large.memory_time_s > large.compute_time_s);
        assert_eq!(small.compute_time_s, 0.0);
    }

    #[test]
    fn pack_traffic_dominated_by_input_width() {
        let from_f32 = pack_profile(128, 65536, 32);
        let from_f16 = pack_profile(128, 65536, 16);
        assert!(from_f32.global_bytes > from_f16.global_bytes);
        // Output is 32x smaller than a 32-bit input.
        let elements = 128.0 * 65536.0;
        assert!((from_f32.global_bytes - (elements * 8.0 + elements * 0.25)).abs() < 1.0);
    }
}
