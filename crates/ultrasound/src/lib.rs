//! Computational ultrasound imaging (cUSi) on the Tensor-Core Beamformer
//! (Section V-A of the paper).
//!
//! cUSi images a 3D volume with a spatially under-sampled transceiver
//! array (64 elements) plus a spatial encoding mask; the spatial
//! information is recovered computationally by multiplying a *measurement
//! matrix* (pulse-echo spectra × repeated frames) with an *acoustic model
//! matrix* (expected pulse-echo spectra for every voxel).  That
//! multiplication is a huge complex GEMM — `M` voxels × `N` frames ×
//! `K` = frequencies · transceivers · transmissions — and is exactly what
//! ccglib accelerates.
//!
//! The in-vivo mouse-brain dataset of the paper is proprietary; a synthetic
//! vascular phantom with Doppler-modulated flow exercises the identical
//! pipeline: model construction → measurement synthesis → Doppler clutter
//! removal → 1-bit sign quantisation → tensor-core reconstruction →
//! maximum-intensity projections (Fig. 6), plus the frame-rate (Fig. 5)
//! and offline-dataset (Section V-A) performance models.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod model;
pub mod phantom;
pub mod realtime;
pub mod reconstruct;

pub use model::{AcousticModel, ImagingConfig, Voxel};
pub use phantom::{FlowPhantom, Vessel};
pub use realtime::{
    offline_comparison, FrameRateModel, FrameRatePoint, OfflineComparison, REAL_TIME_FPS,
};
pub use reconstruct::{DopplerMode, ReconstructedVolume, ReconstructionPrecision, Reconstructor};
