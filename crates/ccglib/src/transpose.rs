//! The transpose / tiling kernel.
//!
//! "The matrix-matrix multiplication kernel requires that the input
//! matrices are tiled in device memory.  This can be handled by ccglib
//! through a transpose kernel."  (Section III.)  Two related data
//! reorganisations are covered:
//!
//! * splitting interleaved complex data into separate real and imaginary
//!   planes (the kernels need planar data; interleaved support is future
//!   work in the paper and available here through
//!   [`crate::gemm::GemmInput::quantise_f16_interleaved`]);
//! * transposing the `B` operand from the natural `K×N` orientation into
//!   the `N×K` bit-row orientation the packed 1-bit kernel consumes
//!   ([`crate::matrix::HostComplexMatrix::transposed`]).
//!
//! Both are pure data movement and therefore memory-bandwidth bound, like
//! the packing kernel.

use crate::error::{CcglibError, Result};
use crate::matrix::F16Matrix;
use gpu_sim::{DeviceSpec, KernelKind, KernelProfile, LaunchConfig};
use tcbf_types::encode_from_f32;

/// Splits an interleaved complex buffer (row-major `rows × cols`, `re, im`
/// pairs) into a planar binary16 device matrix — the "transpose" the paper
/// describes between the host layout and the tensor-core layout.
pub fn interleaved_to_planar(rows: usize, cols: usize, interleaved: &[f32]) -> Result<F16Matrix> {
    if interleaved.len() != rows * cols * 2 {
        return Err(CcglibError::ShapeMismatch {
            expected: format!("{rows}x{cols} = {} interleaved scalars", rows * cols * 2),
            actual: format!("{} scalars", interleaved.len()),
        });
    }
    let (pairs, _) = interleaved.as_chunks::<2>();
    Ok(F16Matrix::encode(rows, cols, pairs, |src, re, im| {
        encode_from_f32(src, |p| p[0], re);
        encode_from_f32(src, |p| p[1], im);
    }))
}

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
    use crate::matrix::HostComplexMatrix;
    use gpu_sim::{ExecutionModel, Gpu};
    use tcbf_types::{f16, Complex, Complex32};

    #[test]
    fn interleaved_planar_roundtrip() {
        let rows = 3;
        let cols = 5;
        let interleaved: Vec<f32> = (0..rows * cols * 2).map(|i| i as f32 * 0.125).collect();
        let planar = interleaved_to_planar(rows, cols, &interleaved).unwrap();
        assert_eq!(planar.rows(), rows);
        assert_eq!(planar.cols(), cols);
        let back = planar.to_host();
        for (pair, v) in interleaved.chunks_exact(2).zip(back.data()) {
            assert!((pair[0] - v.re).abs() < 1e-3 && (pair[1] - v.im).abs() < 1e-3);
        }
    }

    #[test]
    fn planar_split_agrees_with_from_host_and_the_scalar_encoder() {
        // Hostile values in ragged positions: both entry points go through
        // the one bulk encoder and must equal per-element `f16::from_f32`.
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
        let interleaved: Vec<f32> = host.data().iter().flat_map(|v| [v.re, v.im]).collect();
        let from_interleaved = interleaved_to_planar(rows, cols, &interleaved).unwrap();
        let from_host = F16Matrix::from_host(&host);
        let bits = |plane: &[f16]| plane.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
        let scalar = |part: fn(&Complex32) -> f32| -> Vec<u16> {
            let encode = |v| f16::from_f32(part(v)).to_bits();
            host.data().iter().map(encode).collect()
        };
        assert_eq!(bits(from_host.re()), scalar(|v| v.re));
        assert_eq!(bits(from_host.im()), scalar(|v| v.im));
        assert_eq!(bits(from_interleaved.re()), bits(from_host.re()));
        assert_eq!(bits(from_interleaved.im()), bits(from_host.im()));
    }

    #[test]
    fn transpose_profile_reads_and_writes_once() {
        let spec = Gpu::Mi210.spec();
        let p = transpose_profile(&spec, 1024, 2048, 16);
        assert_eq!(p.global_bytes, 2.0 * 1024.0 * 2048.0 * 4.0);
        let model = ExecutionModel::new(spec);
        assert!(model.time(&p).is_memory_bound());
    }

    #[test]
    fn interleaved_length_is_checked() {
        for len in [0, 7, 9] {
            assert!(matches!(
                interleaved_to_planar(2, 2, &vec![0.0; len]),
                Err(CcglibError::ShapeMismatch { .. })
            ));
        }
    }
}
