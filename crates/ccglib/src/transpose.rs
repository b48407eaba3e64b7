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
//!   the `N×K` bit-row orientation the packed 1-bit kernel consumes.
//!
//! Both are pure data movement and therefore memory-bandwidth bound, like
//! the packing kernel.

use crate::error::{CcglibError, Result};
use crate::matrix::{F16Matrix, HostComplexMatrix};
use gpu_sim::{DeviceSpec, KernelKind, KernelProfile, LaunchConfig};
use tcbf_types::Complex32;

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
    Ok(F16Matrix::encode(rows, cols, pairs, |p| p[0], |p| p[1]))
}

/// Merges a planar matrix back into an interleaved single-precision buffer.
pub fn planar_to_interleaved(matrix: &F16Matrix) -> Vec<f32> {
    let mut out = Vec::with_capacity(matrix.rows() * matrix.cols() * 2);
    for r in 0..matrix.rows() {
        for c in 0..matrix.cols() {
            let v = matrix.get(r, c);
            out.push(v.re);
            out.push(v.im);
        }
    }
    out
}

/// Transposes a host matrix (used to bring `B` from `K×N` into `N×K`).
pub fn transpose(host: &HostComplexMatrix) -> HostComplexMatrix {
    host.transposed()
}

/// Tiles a matrix into contiguous `tile_rows × tile_cols` blocks in the
/// order a block-tiled kernel would read them, returning the tile-major
/// element order.  Out-of-range elements (when the matrix dimensions are
/// not multiples of the tile) are padded with zeros, mirroring the padding
/// the device kernel applies.
pub fn tile_elements(
    host: &HostComplexMatrix,
    tile_rows: usize,
    tile_cols: usize,
) -> Vec<Complex32> {
    assert!(tile_rows > 0 && tile_cols > 0);
    let row_tiles = host.rows().div_ceil(tile_rows);
    let col_tiles = host.cols().div_ceil(tile_cols);
    let mut out = Vec::with_capacity(row_tiles * col_tiles * tile_rows * tile_cols);
    for tr in 0..row_tiles {
        for tc in 0..col_tiles {
            for r in 0..tile_rows {
                for c in 0..tile_cols {
                    let rr = tr * tile_rows + r;
                    let cc = tc * tile_cols + c;
                    if rr < host.rows() && cc < host.cols() {
                        out.push(host.get(rr, cc));
                    } else {
                        out.push(Complex32::ZERO);
                    }
                }
            }
        }
    }
    out
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
    use gpu_sim::{ExecutionModel, Gpu};
    use tcbf_types::{f16, Complex};

    #[test]
    fn interleaved_planar_roundtrip() {
        let rows = 3;
        let cols = 5;
        let interleaved: Vec<f32> = (0..rows * cols * 2).map(|i| i as f32 * 0.125).collect();
        let planar = interleaved_to_planar(rows, cols, &interleaved).unwrap();
        assert_eq!(planar.rows(), rows);
        assert_eq!(planar.cols(), cols);
        let back = planar_to_interleaved(&planar);
        assert_eq!(back.len(), interleaved.len());
        for (a, b) in interleaved.iter().zip(&back) {
            assert!((a - b).abs() < 1e-3);
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
    fn transpose_matches_host_transpose() {
        let m = HostComplexMatrix::from_fn(4, 7, |r, c| Complex::new(r as f32, c as f32));
        let t = transpose(&m);
        assert_eq!(t.rows(), 7);
        assert_eq!(t.cols(), 4);
        assert_eq!(t.get(6, 3), Complex::new(3.0, 6.0));
    }

    #[test]
    fn tiling_covers_all_elements_with_padding() {
        let m = HostComplexMatrix::from_fn(5, 3, |r, c| Complex::new((r * 3 + c) as f32, 0.0));
        let tiled = tile_elements(&m, 4, 2);
        // 2 row tiles × 2 col tiles × 4×2 elements.
        assert_eq!(tiled.len(), 2 * 2 * 8);
        // First tile starts with element (0,0), (0,1), (1,0)…
        assert_eq!(tiled[0], m.get(0, 0));
        assert_eq!(tiled[1], m.get(0, 1));
        assert_eq!(tiled[2], m.get(1, 0));
        // Padded positions are zero.
        let non_zero: usize = tiled.iter().filter(|c| **c != Complex32::ZERO).count();
        assert_eq!(non_zero, 14); // 15 elements, one of which is 0 itself
    }

    #[test]
    fn exact_tiling_needs_no_padding() {
        let m =
            HostComplexMatrix::from_fn(4, 4, |r, c| Complex::new(1.0 + (r * 4 + c) as f32, 0.0));
        let tiled = tile_elements(&m, 2, 2);
        assert_eq!(tiled.len(), 16);
        assert!(tiled.iter().all(|c| *c != Complex32::ZERO));
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
