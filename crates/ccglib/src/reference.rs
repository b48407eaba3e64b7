//! Single-precision reference GEMM on the "normal" GPU cores.
//!
//! Every comparison in the paper is against a float32 implementation that
//! does not use tensor cores: the existing LOFAR beamformer kernel
//! (Fig. 7, "Reference") and the Octave/OpenCL ultrasound pipeline
//! (Section V-A).  This module provides both the functional float32
//! complex GEMM (also used as the ground truth for correctness tests of
//! the tensor-core kernels) and its performance profile on the simulated
//! devices' regular FP32 pipelines.

use crate::error::{Result, TcbfError};
use crate::matrix::HostComplexMatrix;
use gpu_sim::{DeviceSpec, KernelKind, KernelProfile, LaunchConfig, MemoryModel};
use rayon::prelude::*;
use tcbf_types::{Complex32, GemmShape};

/// Computes `C[M×N] = A[M×K] · B[N×K]ᵀ` in single precision.
///
/// Note the operand orientation: like every kernel in this crate, the `B`
/// operand is supplied transposed (`N×K`), i.e. row `j` of `b_t` holds the
/// `K`-vector that produces output column `j`.
pub fn reference_gemm(a: &HostComplexMatrix, b_t: &HostComplexMatrix) -> Result<HostComplexMatrix> {
    if a.cols() != b_t.cols() {
        return Err(TcbfError::ShapeMismatch {
            expected: format!("A K-dimension {} to match B K-dimension", a.cols()),
            actual: format!("{}", b_t.cols()),
        });
    }
    let m = a.rows();
    let n = b_t.rows();
    let k = a.cols();
    let mut out = vec![Complex32::ZERO; m * n];
    out.par_chunks_mut(n.max(1))
        .enumerate()
        .for_each(|(i, row)| {
            for (j, slot) in row.iter_mut().enumerate() {
                let mut re = 0.0f32;
                let mut im = 0.0f32;
                for kk in 0..k {
                    let av = a.get(i, kk);
                    let bv = b_t.get(j, kk);
                    re += av.re * bv.re - av.im * bv.im;
                    im += av.re * bv.im + av.im * bv.re;
                }
                *slot = Complex32::new(re, im);
            }
        });
    HostComplexMatrix::from_data(m, n, out)
}

/// Performance profile of a float32 complex GEMM of the given shape on the
/// regular cores of a device — the baseline the tensor-core kernels are
/// compared against.
///
/// A well-optimised float32 GEMM (cuBLAS-class) sustains roughly 85 % of
/// the FP32 peak on large matrices; the reference beamformer kernels the
/// paper compares against are hand-written and somewhat less efficient, so
/// a configurable efficiency is exposed.
pub fn reference_profile(spec: &DeviceSpec, shape: &GemmShape, efficiency: f64) -> KernelProfile {
    let memory = MemoryModel::new(spec.clone());
    // The reference implementations tile much less aggressively; model a
    // modest 64×64 block tile.
    let global_bytes = shape.batch as f64
        * memory.gemm_global_bytes(&GemmShape::new(shape.m, shape.n, shape.k), 64, 64, 32);
    let blocks = shape.batch * shape.m.div_ceil(64) * shape.n.div_ceil(64);
    KernelProfile {
        kind: KernelKind::GemmF32,
        useful_ops: shape.complex_ops() as f64,
        peak_tops: spec.fp32_peak_tops(),
        config_efficiency: efficiency.clamp(0.0, 1.0),
        global_bytes,
        launch: LaunchConfig::new(blocks.max(1), 256),
    }
}

/// Default efficiency of the float32 reference implementations relative to
/// the FP32 peak.
pub const DEFAULT_REFERENCE_EFFICIENCY: f64 = 0.75;

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{ExecutionModel, Gpu};
    use tcbf_types::Complex;

    #[test]
    fn identity_times_matrix_is_matrix() {
        let k = 8;
        let a = HostComplexMatrix::from_fn(k, k, |r, c| {
            if r == c {
                Complex::new(1.0, 0.0)
            } else {
                Complex32::ZERO
            }
        });
        let b_t = HostComplexMatrix::from_fn(5, k, |r, c| Complex::new(r as f32, c as f32));
        let c = reference_gemm(&a, &b_t).unwrap();
        assert_eq!(c.rows(), k);
        assert_eq!(c.cols(), 5);
        for i in 0..k {
            for j in 0..5 {
                assert_eq!(c.get(i, j), b_t.get(j, i));
            }
        }
    }

    #[test]
    fn small_hand_computed_case() {
        // A = [[1+i, 2]], B^T rows: col0 = [1, 1+i] -> C[0][0] = (1+i)*1 + 2*(1+i) = 3+3i.
        let a = HostComplexMatrix::from_data(
            1,
            2,
            vec![Complex::new(1.0, 1.0), Complex::new(2.0, 0.0)],
        )
        .unwrap();
        let b_t = HostComplexMatrix::from_data(
            1,
            2,
            vec![Complex::new(1.0, 0.0), Complex::new(1.0, 1.0)],
        )
        .unwrap();
        let c = reference_gemm(&a, &b_t).unwrap();
        assert_eq!(c.get(0, 0), Complex::new(3.0, 3.0));
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = HostComplexMatrix::zeros(2, 3);
        let b_t = HostComplexMatrix::zeros(2, 4);
        assert!(matches!(
            reference_gemm(&a, &b_t),
            Err(TcbfError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn reference_is_much_slower_than_tensor_cores_on_big_problems() {
        // The premise of the whole paper, checked through the models: the
        // float32 reference on an A100 is an order of magnitude slower than
        // the calibrated tensor-core throughput.
        let spec = Gpu::A100.spec();
        let model = ExecutionModel::new(spec.clone());
        let shape = GemmShape::new(8192, 8192, 8192);
        let profile = reference_profile(&spec, &shape, DEFAULT_REFERENCE_EFFICIENCY);
        let t = model.time(&profile);
        assert!(t.achieved_tops < 20.0);
        assert!(spec.gemm_efficiency_f16 * spec.f16_tensor_measured > 8.0 * t.achieved_tops);
    }

    #[test]
    fn reference_profile_counts_batch() {
        let spec = Gpu::Gh200.spec();
        let single = reference_profile(&spec, &GemmShape::new(1024, 1024, 64), 0.8);
        let batched = reference_profile(&spec, &GemmShape::batched(4, 1024, 1024, 64), 0.8);
        assert!((batched.useful_ops - 4.0 * single.useful_ops).abs() < 1.0);
        assert!((batched.global_bytes - 4.0 * single.global_bytes).abs() < 1.0);
        assert_eq!(batched.launch.blocks, 4 * single.launch.blocks);
    }
}
