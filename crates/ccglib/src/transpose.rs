//! The transpose / tiling kernel.
//!
//! "The matrix-matrix multiplication kernel requires that the input
//! matrices are tiled in device memory.  This can be handled by ccglib
//! through a transpose kernel."  (Section III.)  Two related data
//! reorganisations are covered:
//!
//! * splitting interleaved complex data into separate real and imaginary
//!   planes (the kernels need planar data; a [`HostComplexMatrix`] holds
//!   interleaved `re, im` pairs, and quantising it splits them — see
//!   [`crate::matrix::F16Matrix::from_host`]);
//! * transposing the `B` operand from the natural `K×N` orientation into
//!   the `N×K` bit-row orientation the packed 1-bit kernel consumes
//!   ([`HostComplexMatrix::transposed`]).
//!
//! Both are pure data movement and therefore memory-bandwidth bound, like
//! the packing kernel.
//!
//! [`HostComplexMatrix`]: crate::matrix::HostComplexMatrix
//! [`HostComplexMatrix::transposed`]: crate::matrix::HostComplexMatrix::transposed

use gpu_sim::{DeviceSpec, KernelKind, KernelProfile, LaunchConfig};

/// Kernel profile of the transpose kernel for a `rows × cols` complex
/// matrix with `bits_per_component` input precision: it reads and writes
/// every element once.
pub fn transpose_profile(
    spec: &DeviceSpec,
    rows: usize,
    cols: usize,
    bits_per_component: usize,
) -> KernelProfile {
    let elements = rows as f64 * cols as f64;
    let bytes_per_element = 2.0 * bits_per_component as f64 / 8.0;
    let traffic = 2.0 * elements * bytes_per_element; // read + write
    let threads_per_block = 256;
    let blocks = ((elements / threads_per_block as f64).ceil()).max(1.0) as usize;
    let _ = spec;
    KernelProfile::data_movement(
        KernelKind::Transpose,
        traffic,
        LaunchConfig::new(blocks, threads_per_block),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{F16Matrix, HostComplexMatrix};
    use gpu_sim::{ExecutionModel, Gpu};
    use tcbf_types::{f16, Complex, Complex32};

    #[test]
    fn planar_split_agrees_with_the_scalar_encoder() {
        // Hostile values in ragged positions: the bulk encoder's split of
        // interleaved pairs must equal per-element `f16::from_f32`.
        let hostile = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            65520.0,
            -1e-7,
            f32::from_bits(1),
            -0.0,
        ];
        let (rows, cols) = (7, 19);
        let host = HostComplexMatrix::from_fn(rows, cols, |r, c| {
            let i = r * cols + c;
            let pick = |j: usize| match j % 11 {
                0 => hostile[(j / 11) % hostile.len()],
                _ => j as f32 * 0.173 - 20.0,
            };
            Complex::new(pick(i), pick(i + 5))
        });
        let from_host = F16Matrix::from_host(&host);
        let bits = |plane: &[f16]| plane.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
        let scalar = |part: fn(&Complex32) -> f32| -> Vec<u16> {
            let encode = |v| f16::from_f32(part(v)).to_bits();
            host.data().iter().map(encode).collect()
        };
        assert_eq!(bits(from_host.re()), scalar(|v| v.re));
        assert_eq!(bits(from_host.im()), scalar(|v| v.im));
    }

    #[test]
    fn transpose_profile_reads_and_writes_once() {
        let spec = Gpu::Mi210.spec();
        let p = transpose_profile(&spec, 1024, 2048, 16);
        assert_eq!(p.global_bytes, 2.0 * 1024.0 * 2048.0 * 4.0);
        let t = ExecutionModel::new(spec).time(&p);
        assert!(t.memory_time_s > t.compute_time_s);
    }
}
