//! ccglib — the complex-valued GEMM library at the core of the
//! Tensor-Core Beamformer (Section III of the paper).
//!
//! The library multiplies an `M×K` complex matrix `A` (beamforming
//! weights) by a `K×N` complex matrix `B` (receiver samples), batched,
//! using (simulated) GPU tensor cores in either 16-bit floating point or
//! 1-bit integer precision.  The complexity of the tensor cores — complex
//! arithmetic decomposition, 1-bit encodings and popcount identities, data
//! packing and tiling, pipeline buffers, per-architecture operand selection
//! — is hidden behind a small API:
//!
//! ```
//! use ccglib::{Gemm, GemmInput, Precision};
//! use ccglib::matrix::HostComplexMatrix;
//! use gpu_sim::Gpu;
//! use tcbf_types::GemmShape;
//!
//! let device = Gpu::A100.device();
//! let shape = GemmShape::new(64, 32, 128);
//! let gemm = Gemm::new(&device, shape, Precision::Float16).unwrap();
//!
//! let a = HostComplexMatrix::from_fn(64, 128, |r, c| {
//!     tcbf_types::Complex::new((r + c) as f32 * 0.01, 0.5)
//! });
//! let b = HostComplexMatrix::from_fn(128, 32, |r, c| {
//!     tcbf_types::Complex::new(0.25, (r as f32 - c as f32) * 0.01)
//! });
//! let (c, report) = gemm
//!     .run(&GemmInput::quantise_f16(&a), &GemmInput::quantise_f16(&b.transposed()))
//!     .unwrap();
//! assert_eq!(c.rows(), 64);
//! assert_eq!(c.cols(), 32);
//! assert!(report.predicted.elapsed_s > 0.0);
//! ```
//!
//! Functional results are always computed (bit-faithfully for the 1-bit
//! path, with binary16 rounding for the 16-bit path); execution time and
//! energy come from the `gpu-sim` analytic model, so the library can also
//! *predict* the performance of paper-scale problems without materialising
//! terabyte-sized operands (see [`Gemm::predict`]).

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod benchmark;
pub mod error;
pub mod gemm;
pub mod isa;
pub mod matrix;
pub mod micro;
pub mod pack;
pub mod params;
pub mod plan;
pub mod reference;
pub mod synth;
pub mod transpose;
mod write_once;

pub use error::{Result, TcbfError};
pub use gemm::{ComplexOutput, DecodedPlanes, GemmInput, PreparedOperand};
pub use isa::Isa;
pub use micro::MicroKernelConfig;
pub use params::{ParameterSpace, TuningParameters};
pub use plan::{calibration_shape, warm_calibration, Gemm, GemmPlan, RunReport};
pub use reference::reference_gemm;

use serde::{Deserialize, Serialize};
use std::fmt;

/// Input precision of the GEMM kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// 16-bit floating point input, 32-bit floating point output.
    Float16,
    /// 1-bit integer input, 32-bit integer output.
    Int1,
    /// 32-bit floating point on the regular GPU cores — the baseline the
    /// paper compares against (reference LOFAR beamformer, Octave/OpenCL
    /// ultrasound pipeline).
    Float32Reference,
}

impl Precision {
    /// Bits per real component of the input data.
    pub fn input_bits(self) -> usize {
        match self {
            Precision::Float16 => 16,
            Precision::Int1 => 1,
            Precision::Float32Reference => 32,
        }
    }

    /// Whether this precision runs on the tensor cores.
    pub fn uses_tensor_cores(self) -> bool {
        !matches!(self, Precision::Float32Reference)
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Precision::Float16 => write!(f, "float16"),
            Precision::Int1 => write!(f, "int1"),
            Precision::Float32Reference => write!(f, "float32"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_properties() {
        assert_eq!(Precision::Float16.input_bits(), 16);
        assert_eq!(Precision::Int1.input_bits(), 1);
        assert_eq!(Precision::Float32Reference.input_bits(), 32);
        assert!(Precision::Float16.uses_tensor_cores());
        assert!(Precision::Int1.uses_tensor_cores());
        assert!(!Precision::Float32Reference.uses_tensor_cores());
        assert_eq!(Precision::Int1.to_string(), "int1");
    }
}
