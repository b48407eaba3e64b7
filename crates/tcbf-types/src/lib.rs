//! Numeric substrate for the Tensor-Core Beamformer reproduction.
//!
//! This crate provides the low-level value types that the rest of the
//! workspace builds on:
//!
//! * [`struct@f16`] — a software implementation of IEEE 754 binary16, the input
//!   precision of the 16-bit tensor-core path.  Tensor cores consume
//!   half-precision inputs and accumulate in single precision; this type
//!   reproduces the rounding behaviour of that conversion so that the
//!   functional results of the simulated kernels match what real hardware
//!   would produce to within the usual half-precision quantisation.
//! * [`Complex`] — a minimal complex-number type generic over the scalar.
//!   The beamforming algorithm is a complex-valued matrix–matrix
//!   multiplication (Section II of the paper), so complex arithmetic is the
//!   fundamental operation everywhere.
//! * [`onebit`] — the 1-bit complex encoding of Section III-D / Fig. 1 of
//!   the paper: one sign bit per component, the value zero not
//!   representable, 32 consecutive samples packed into a `u32` word.
//! * [`matrix`] — problem shapes (`M`, `N`, `K`, batch), tiling and
//!   padding arithmetic used by the kernels and the performance model.
//!
//! The crate is deliberately dependency-light; everything heavier (the GPU
//! model, the GEMM kernels, the applications) lives in the crates layered
//! on top.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod complex;
pub mod half;
pub mod matrix;
pub mod onebit;

pub use complex::Complex;
pub use half::{decode_to_f32, encode_from_f32, f16};
pub use matrix::{GemmShape, TileShape};
pub use onebit::{OneBitComplex, PackedBits};

/// Complex number with `f32` components — the accumulator type of every
/// tensor-core kernel in the paper (16-bit and 1-bit inputs both accumulate
/// into 32-bit outputs).
pub type Complex32 = Complex<f32>;
