//! LOFAR-style radio-astronomy beamforming on the Tensor-Core Beamformer
//! (Section V-B of the paper).
//!
//! LOFAR is a distributed low-frequency radio telescope: each *station*
//! beamforms its own antennas on FPGAs into *beamlet* data, which is
//! shipped to a central processor where a second beamforming stage combines
//! the stations — either *coherently* (phase-preserving, narrow tied-array
//! beams, the compute-heavy mode mapped onto ccglib) or *incoherently*
//! (power addition, wide field of view).
//!
//! This crate models both stages with synthetic sky data:
//!
//! * [`station`] — stations, antennas, the first-stage station beamformer
//!   and synthetic beamlet generation;
//! * [`central`] — the central tensor-core beamformer (16-bit mode of
//!   ccglib), the incoherent beamformer and the float32 reference
//!   beamformer the paper compares against;
//! * [`performance`] — the Fig. 7 sweep: throughput and energy efficiency
//!   versus the number of combined receivers, with the reference
//!   beamformer lines on the A100 and GH200.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod central;
pub mod performance;
pub mod station;

pub use central::{CentralBeamformer, CentralMode, CentralOutput};
pub use performance::{lofar_sweep, LofarConfig, SweepPoint};
pub use station::{SkySource, StationBeamlets};
