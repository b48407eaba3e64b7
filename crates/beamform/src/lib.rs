//! Domain-independent beamforming on top of ccglib.
//!
//! Section II of the paper: an array of `K` sensors receives a plane wave
//! from direction `θ`; each sensor sees the signal delayed by
//! `τ_k = d_k · sin θ / c`.  Beamforming multiplies the sensor samples by
//! complex weights that undo those delays and sums over sensors, which —
//! when many beams are formed from the same samples and the weights are
//! constant over a block of samples — is exactly a matrix-matrix
//! multiplication with `M` = beams, `N` = time samples, `K` = receivers.
//!
//! This crate supplies the domain-independent pieces both applications
//! (ultrasound and radio astronomy) share:
//!
//! * [`geometry`] — sensor array geometries and propagation delays;
//! * [`signal`] — synthetic plane-wave signal generation with noise;
//! * [`weights`] — steering-weight computation (Eq. 3) and weight
//!   matrices for many beams;
//! * [`beamformer`] — the mapping onto the ccglib GEMM (one block per
//!   call; several blocks under one set of weights go through
//!   [`Engine::process_batch`]), a direct delay-and-sum reference
//!   implementation, beam patterns and SNR gain;
//! * [`engine`] — the unified execution API: one object-safe [`Engine`]
//!   trait with one implementation, [`ShardedBeamformer`] (a single
//!   device is a pool of one; [`Engine::gpus`] lists the members) that
//!   streams blocks itself ([`Engine::process_block`]), and one unified
//!   [`Report`] whose per-device breakdown holds exactly one entry for a
//!   pool of one;
//! * [`latency`] — a fixed-bucket log2 [`LatencyHistogram`] with
//!   p50/p95/p99 read-back and exact merging (the serving layer's
//!   wall-clock block latency);
//! * [`session`] — the per-device accounting primitive [`SessionReport`]
//!   behind every [`Report`];
//! * [`shard`] — the engine itself: a [`ShardedBeamformer`] spans a
//!   `gpu_sim::DevicePool` of one or more devices and partitions block
//!   streams across the members under a [`ShardPlan`] (contiguous runs
//!   weighted by capacity), recovering from member faults.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod beamformer;
pub mod engine;
pub mod geometry;
pub mod latency;
pub mod session;
pub mod shard;
pub mod signal;
pub mod weights;

pub use beamformer::{BeamformOutput, Beamformer, BeamformerConfig};
pub use engine::{DeviceShardReport, Engine, Report};
pub use geometry::{ArrayGeometry, SPEED_OF_LIGHT, SPEED_OF_SOUND_TISSUE};
pub use latency::{LatencyHistogram, LATENCY_BUCKETS};
pub use session::SessionReport;
pub use shard::{ShardPlan, ShardedBeamformer};
pub use signal::{PlaneWaveSource, SignalGenerator};
pub use weights::{steering_vector, WeightMatrix};
