//! The Tensor-Core Beamformer (TCBF) — top-level facade.
//!
//! This crate ties the workspace together behind the API a downstream user
//! would reach for first:
//!
//! * [`TensorCoreBeamformer::builder`] — a fluent [`BeamformerBuilder`]
//!   that validates the whole configuration (device, weights, block
//!   length, precision, batch, tuning parameters) in one place and returns
//!   a single actionable [`TcbfError`] on misuse;
//! * one execution API for every topology —
//!   [`BeamformerBuilder::build_engine`] returns a `Box<dyn `[`Engine`]`>`
//!   (a single device unless `.devices(&[...])` configured a
//!   [`DevicePool`]); the generic [`Session`] (alias [`DynSession`] for
//!   boxed engines) streams blocks through it with mid-stream weight
//!   hot-swap, and the unified [`Report`] carries a per-device breakdown
//!   (exactly one entry in the single case) plus the pool-level metrics
//!   derived from it;
//! * [`BeamformerBuilder::build`] → [`TensorCoreBeamformer`], the
//!   single-device handle for batched executions (`batch > 1`) and
//!   predictions of paper-scale shapes;
//! * [`prelude`] — one `use tcbf::prelude::*;` for the whole surface;
//! * re-exports of the building blocks (`ccglib`, the device catalog, the
//!   tuner, the generic beamforming layer) for users who need lower-level
//!   control;
//! * [`version`] and [`supported_devices`] introspection helpers.
//!
//! The domain applications live in their own crates (`ultrasound`,
//! `radioastro`) and are thin generic wrappers over the same [`Engine`]
//! abstraction, exactly as the paper describes the layering.

#![deny(missing_docs)]

mod builder;
mod error;

pub use beamform::{
    ArrayGeometry, BatchBeamformOutput, BeamformOutput, Beamformer, BeamformerConfig,
    DeviceShardReport, DynSession, Engine, LatencyHistogram, PlaneWaveSource, Report, Session,
    SessionReport, ShardPlan, ShardPolicy, ShardedBeamformer, SignalGenerator, SingleEngine,
    Topology, WeightMatrix,
};
pub use builder::BeamformerBuilder;
pub use ccglib::{
    benchmark, Gemm, GemmInput, MicroKernelConfig, ParameterSpace, Precision, RunReport,
    TuningParameters,
};
pub use error::{Result, TcbfError};
pub use gpu_sim::{Device, DevicePool, DeviceSpec, Gpu};
pub use pmt::{EnergyMeasurement, PowerMeter};
pub use tuner::{
    MicroTuneCache, MicroTuneOutcome, MicroTuner, Objective, ShapeClass, Strategy, TuneOutcome,
    Tuner,
};

/// Everything a typical downstream user needs in one import:
/// `use tcbf::prelude::*;`.
///
/// Exports the fluent builder and facade, the unified execution surface
/// ([`Engine`], [`Session`]/[`DynSession`], [`Report`], [`Topology`]),
/// the precision/policy enums, the
/// error type, the device catalog, weight/signal helpers, the tuner, and
/// the host matrix type.
pub mod prelude {
    pub use crate::{
        supported_devices, version, ArrayGeometry, BeamformOutput, Beamformer, BeamformerBuilder,
        BeamformerConfig, Device, DevicePool, DeviceShardReport, DeviceSpec, DynSession, Engine,
        Gpu, LatencyHistogram, MicroKernelConfig, Objective, PlaneWaveSource, Precision, Report,
        Result, Session, SessionReport, ShardPlan, ShardPolicy, ShardedBeamformer, SignalGenerator,
        SingleEngine, Strategy, TcbfError, TensorCoreBeamformer, Topology, TuneOutcome, Tuner,
        TuningParameters, WeightMatrix,
    };
    pub use ccglib::matrix::HostComplexMatrix;
    pub use tcbf_types::Complex;
}

use ccglib::matrix::HostComplexMatrix;
use tcbf_types::GemmShape;

/// Library version (mirrors the crate version).
pub fn version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// The devices the library ships calibrated models and tuned defaults for.
pub fn supported_devices() -> Vec<DeviceSpec> {
    DeviceSpec::catalog()
}

/// The highest-level entry point: a beamformer bound to a device, a set of
/// beam weights and a precision, configured through
/// [`TensorCoreBeamformer::builder`] and consumed one block (or one batch
/// of blocks) at a time, or wrapped as a streaming [`Engine`] under a
/// [`Session`].
///
/// ```
/// use tcbf::{Gpu, Precision, TensorCoreBeamformer};
/// use ccglib::matrix::HostComplexMatrix;
/// use tcbf_types::Complex;
///
/// // 8 beams from 32 receivers, 64 samples at a time, on a simulated A100.
/// let weights = HostComplexMatrix::from_fn(8, 32, |b, r| {
///     Complex::from_polar(1.0 / 32.0, (b * r) as f32 * 0.01)
/// });
/// let beamformer = TensorCoreBeamformer::builder(Gpu::A100)
///     .weights(weights)
///     .samples_per_block(64)
///     .precision(Precision::Float16)
///     .build()
///     .unwrap();
/// let samples = HostComplexMatrix::from_fn(32, 64, |r, s| Complex::new(r as f32 * 0.1, s as f32 * 0.05));
///
/// // Stream blocks through a session and read the aggregate report.
/// let mut session = tcbf::Session::new(beamformer.into_engine().unwrap());
/// for _ in 0..4 {
///     let output = session.process_block(&samples).unwrap();
///     assert_eq!(output.beams.rows(), 8);
///     assert_eq!(output.beams.cols(), 64);
/// }
/// let report = session.finish();
/// assert_eq!(report.total_blocks(), 4);
/// assert!(report.aggregate_tops() > 0.0);
/// ```
pub struct TensorCoreBeamformer {
    inner: Beamformer,
    gpu: Gpu,
}

impl TensorCoreBeamformer {
    /// Starts a fluent configuration for `gpu`.
    pub fn builder(gpu: Gpu) -> BeamformerBuilder {
        BeamformerBuilder::new(gpu)
    }

    /// Creates a batch-1 beamformer from a raw `M × K` weight matrix — a
    /// thin wrapper around [`TensorCoreBeamformer::builder`] kept for the
    /// one-shot call sites.
    pub fn new(
        gpu: Gpu,
        weights: HostComplexMatrix,
        samples_per_block: usize,
        precision: Precision,
    ) -> Result<Self> {
        Self::builder(gpu)
            .weights(weights)
            .samples_per_block(samples_per_block)
            .precision(precision)
            .build()
    }

    /// Wraps an already-validated inner beamformer (used by the builder).
    pub(crate) fn from_parts(inner: Beamformer, gpu: Gpu) -> Self {
        TensorCoreBeamformer { inner, gpu }
    }

    /// The device the beamformer runs on.
    pub fn gpu(&self) -> Gpu {
        self.gpu
    }

    /// The precision in use.
    pub fn precision(&self) -> Precision {
        self.inner.config().precision
    }

    /// The configured batch size.
    pub fn batch(&self) -> usize {
        self.inner.config().batch
    }

    /// The GEMM shape one block (or batch of blocks) maps to.
    pub fn shape(&self) -> GemmShape {
        self.inner.shape()
    }

    /// Beamforms one block of `K × N` receiver samples (batch-1
    /// configurations; batched ones use
    /// [`TensorCoreBeamformer::beamform_batch`]).
    pub fn beamform(&self, samples: &HostComplexMatrix) -> Result<BeamformOutput> {
        Ok(self.inner.beamform(samples)?)
    }

    /// Beamforms one batch of `K × N` sample blocks — one per batch
    /// element — functionally, under a single report.
    pub fn beamform_batch(&self, blocks: &[HostComplexMatrix]) -> Result<BatchBeamformOutput> {
        Ok(self.inner.beamform_batch(blocks)?)
    }

    /// Wraps the beamformer as a single-device streaming [`Engine`] —
    /// the same interface a sharded pool implements.  Fails for batched
    /// configurations (engines stream whole blocks, one per execution).
    pub fn into_engine(self) -> Result<SingleEngine> {
        Ok(self.inner.into_engine()?)
    }

    /// The host micro-kernel blocking this beamformer executes with —
    /// the builder-pinned config, the autotuning-cache winner, or the
    /// default.
    pub fn micro(&self) -> MicroKernelConfig {
        self.inner.micro()
    }

    /// Predicted performance of one block without computing data.
    pub fn predict(&self) -> RunReport {
        self.inner.predict()
    }

    /// Auto-tunes the kernel for this beamformer's shape and returns the
    /// tuning outcome (the library otherwise uses shipped defaults).
    pub fn autotune(&self, strategy: Strategy, objective: Objective) -> Option<TuneOutcome> {
        Tuner::new(self.gpu.device(), self.shape(), self.precision()).tune(strategy, objective)
    }
}

impl std::fmt::Debug for TensorCoreBeamformer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TensorCoreBeamformer")
            .field("gpu", &self.gpu)
            .field("precision", &self.precision())
            .field("shape", &self.shape())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Strategy;
    use proptest::prelude::*;
    use tcbf_types::Complex;

    fn weights(beams: usize, receivers: usize) -> HostComplexMatrix {
        HostComplexMatrix::from_fn(beams, receivers, |b, r| {
            Complex::from_polar(1.0 / receivers.max(1) as f32, (b * r) as f32 * 0.02)
        })
    }

    #[test]
    fn version_and_catalog() {
        assert!(!version().is_empty());
        // The facade must surface exactly the device catalog, whatever its
        // size: non-empty and free of duplicate names.
        let devices = supported_devices();
        let catalog = DeviceSpec::catalog();
        assert!(!devices.is_empty());
        assert_eq!(devices.len(), catalog.len());
        let mut names: Vec<&str> = devices.iter().map(|spec| spec.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), devices.len(), "duplicate device names");
    }

    #[test]
    fn builder_configures_and_beamforms() {
        let bf = TensorCoreBeamformer::builder(Gpu::Gh200)
            .weights(weights(16, 64))
            .samples_per_block(32)
            .precision(Precision::Float16)
            .build()
            .unwrap();
        assert_eq!(bf.gpu(), Gpu::Gh200);
        assert_eq!(bf.precision(), Precision::Float16);
        assert_eq!(bf.batch(), 1);
        assert_eq!(bf.shape(), GemmShape::new(16, 32, 64));
        let samples = HostComplexMatrix::from_fn(64, 32, |r, s| {
            Complex::new((r + s) as f32 * 0.01, (r as f32 - s as f32) * 0.01)
        });
        let output = bf.beamform(&samples).unwrap();
        assert_eq!(output.beams.rows(), 16);
        assert!(output.report.achieved_tops > 0.0);
        let predicted = bf.predict();
        assert!(predicted.predicted.elapsed_s > 0.0);
    }

    #[test]
    fn one_shot_constructor_delegates_to_the_builder() {
        let bf =
            TensorCoreBeamformer::new(Gpu::A100, weights(8, 32), 16, Precision::Float16).unwrap();
        assert_eq!(bf.shape(), GemmShape::new(8, 16, 32));
    }

    #[test]
    fn builder_rejects_each_invalid_configuration_with_its_variant() {
        let ok = || {
            TensorCoreBeamformer::builder(Gpu::A100)
                .weights(weights(4, 32))
                .samples_per_block(16)
        };
        assert!(ok().build().is_ok());
        assert_eq!(
            TensorCoreBeamformer::builder(Gpu::A100)
                .samples_per_block(16)
                .build()
                .unwrap_err(),
            TcbfError::MissingWeights
        );
        assert_eq!(
            TensorCoreBeamformer::builder(Gpu::A100)
                .weights(HostComplexMatrix::zeros(0, 0))
                .samples_per_block(16)
                .build()
                .unwrap_err(),
            TcbfError::EmptyWeights {
                beams: 0,
                receivers: 0
            }
        );
        assert_eq!(
            TensorCoreBeamformer::builder(Gpu::A100)
                .weights(weights(4, 32))
                .build()
                .unwrap_err(),
            TcbfError::ZeroSamplesPerBlock
        );
        assert_eq!(ok().batch(0).build().unwrap_err(), TcbfError::ZeroBatch);
        assert!(matches!(
            TensorCoreBeamformer::builder(Gpu::Mi300x)
                .weights(weights(4, 32))
                .samples_per_block(16)
                .precision(Precision::Int1)
                .build()
                .unwrap_err(),
            TcbfError::UnsupportedPrecision { .. }
        ));
        assert!(matches!(
            ok().batch(1 << 30).build().unwrap_err(),
            TcbfError::OutOfDeviceMemory { .. }
        ));
        assert!(matches!(
            ok().params(TuningParameters::new(64, 16, 64, 16, 0))
                .build()
                .unwrap_err(),
            TcbfError::InvalidParameters { .. }
        ));
    }

    #[test]
    fn batched_facade_beamformer_runs_functionally() {
        let bf = TensorCoreBeamformer::builder(Gpu::A100)
            .weights(weights(8, 32))
            .samples_per_block(16)
            .batch(3)
            .build()
            .unwrap();
        assert_eq!(bf.batch(), 3);
        let blocks: Vec<HostComplexMatrix> = (0..3)
            .map(|e| {
                HostComplexMatrix::from_fn(32, 16, |r, s| {
                    Complex::new((e + r + s) as f32 * 0.02, (r as f32 - s as f32) * 0.01)
                })
            })
            .collect();
        let output = bf.beamform_batch(&blocks).unwrap();
        assert_eq!(output.beams.len(), 3);
        assert!(output.report.achieved_tops > 0.0);
    }

    #[test]
    fn session_streams_with_weight_swap() {
        let bf = TensorCoreBeamformer::builder(Gpu::A100)
            .weights(weights(4, 16))
            .samples_per_block(8)
            .build()
            .unwrap();
        let mut session = Session::new(bf.into_engine().unwrap());
        let samples =
            HostComplexMatrix::from_fn(16, 8, |r, s| Complex::new(r as f32 * 0.1, s as f32 * 0.05));
        session.process_block(&samples).unwrap();
        session
            .swap_weights(WeightMatrix::from_matrix(weights(4, 16)))
            .unwrap();
        session.process_block(&samples).unwrap();
        let report = session.finish();
        assert_eq!(report.total_blocks(), 2);
        assert_eq!(report.weight_swaps(), 1);
    }

    #[test]
    fn build_engine_picks_the_topology_from_the_builder() {
        let configured = || {
            TensorCoreBeamformer::builder(Gpu::A100)
                .weights(weights(4, 16))
                .samples_per_block(8)
        };
        // No .devices(...): a single-device engine.
        let mut single = configured().build_engine().unwrap();
        assert_eq!(single.topology(), Topology::Single(Gpu::A100));
        assert_eq!(single.plan(3).num_devices(), 1);
        // With .devices(...): a sharded engine over the pool.
        let mut pooled = configured()
            .devices(&[Gpu::A100, Gpu::Gh200])
            .shard_policy(ShardPolicy::RoundRobin)
            .build_engine()
            .unwrap();
        assert_eq!(pooled.topology().num_devices(), 2);
        assert_eq!(pooled.topology().policy(), Some(ShardPolicy::RoundRobin));
        // Both run the same blocks to identical results through the trait.
        let blocks: Vec<HostComplexMatrix> = (0..4)
            .map(|i| {
                HostComplexMatrix::from_fn(16, 8, |r, s| {
                    Complex::new((r + s + i) as f32 * 0.05, r as f32 * 0.01)
                })
            })
            .collect();
        let refs: Vec<&HostComplexMatrix> = blocks.iter().collect();
        let a = single.process_batch(&refs).unwrap();
        let b = pooled.process_batch(&refs).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.beams, y.beams);
        }
        assert_eq!(single.report().per_device().len(), 1);
        assert_eq!(pooled.report().per_device().len(), 2);
        // Engines stream whole blocks: batched configurations are rejected.
        assert_eq!(
            configured().batch(2).build_engine().unwrap_err(),
            TcbfError::ShardedBatch { batch: 2 }
        );
        // The common validations still run first.
        assert_eq!(
            TensorCoreBeamformer::builder(Gpu::A100)
                .samples_per_block(8)
                .build_engine()
                .unwrap_err(),
            TcbfError::MissingWeights
        );
    }

    #[test]
    fn facade_converts_into_a_single_engine() {
        let engine = TensorCoreBeamformer::builder(Gpu::Gh200)
            .weights(weights(4, 16))
            .samples_per_block(8)
            .build()
            .unwrap()
            .into_engine()
            .unwrap();
        assert_eq!(engine.topology(), Topology::Single(Gpu::Gh200));
    }

    #[test]
    fn sharded_configurations_reject_the_wrong_build_path() {
        let pooled = || {
            TensorCoreBeamformer::builder(Gpu::A100)
                .weights(weights(4, 16))
                .samples_per_block(8)
                .devices(&[Gpu::A100, Gpu::A100])
        };
        assert_eq!(
            pooled().build().unwrap_err(),
            TcbfError::ShardedConfiguration { devices: 2 }
        );
        assert_eq!(
            pooled().batch(3).build_engine().unwrap_err(),
            TcbfError::ShardedBatch { batch: 3 }
        );
        // The sharded path still runs the common validations.
        assert_eq!(
            TensorCoreBeamformer::builder(Gpu::A100)
                .devices(&[Gpu::A100])
                .samples_per_block(8)
                .build_engine()
                .unwrap_err(),
            TcbfError::MissingWeights
        );
        // And precision support is validated per pool member.
        assert!(matches!(
            pooled()
                .devices(&[Gpu::A100, Gpu::Mi300x])
                .precision(Precision::Int1)
                .build_engine()
                .unwrap_err(),
            TcbfError::UnsupportedPrecision { .. }
        ));
    }

    #[test]
    fn facade_rejects_int1_on_amd() {
        let result = TensorCoreBeamformer::new(Gpu::Mi300x, weights(4, 32), 16, Precision::Int1);
        match result {
            Err(err) => assert!(err.to_string().contains("not supported")),
            Ok(_) => panic!("int1 must be rejected on AMD devices"),
        }
    }

    #[test]
    fn facade_autotune_returns_an_outcome() {
        let bf = TensorCoreBeamformer::builder(Gpu::A100)
            .weights(weights(256, 128))
            .samples_per_block(256)
            .build()
            .unwrap();
        let outcome = bf
            .autotune(
                Strategy::Random {
                    samples: 6,
                    seed: 1,
                },
                Objective::Performance,
            )
            .unwrap();
        assert_eq!(outcome.evaluated.len(), 6);
        assert!(outcome.best.tops > 0.0);
    }

    /// Mirrors the builder's validation order to predict the outcome of an
    /// arbitrary configuration.
    fn expected_outcome(
        gpu: Gpu,
        beams: usize,
        receivers: usize,
        samples: usize,
        batch: usize,
        precision: Precision,
    ) -> std::result::Result<(), &'static str> {
        if beams == 0 || receivers == 0 {
            return Err("EmptyWeights");
        }
        if samples == 0 {
            return Err("ZeroSamplesPerBlock");
        }
        if batch == 0 {
            return Err("ZeroBatch");
        }
        let spec = gpu.device().spec().clone();
        if precision == Precision::Int1 && !spec.supports_int1() {
            return Err("UnsupportedPrecision");
        }
        let shape = GemmShape::batched(batch, beams, samples, receivers);
        let required = ccglib::GemmPlan::operand_bytes(&shape, precision);
        let available = (spec.mem_size_gib * 1024.0 * 1024.0 * 1024.0) as u128;
        if precision.uses_tensor_cores() && required > available {
            return Err("OutOfDeviceMemory");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn builder_never_panics_and_rejects_invalid_configs_with_the_right_variant(
            gpu_index in 0usize..Gpu::ALL.len(),
            beams in 0usize..64,
            receivers in 0usize..96,
            samples in 0usize..64,
            // Up to 2^30 batch elements: far beyond any device memory.
            batch_log2 in 0u32..31,
            int1 in any::<bool>(),
        ) {
            let gpu = Gpu::ALL[gpu_index];
            let batch = (1usize << batch_log2).saturating_sub(usize::from(batch_log2 == 0));
            let precision = if int1 { Precision::Int1 } else { Precision::Float16 };
            let result = TensorCoreBeamformer::builder(gpu)
                .weights(HostComplexMatrix::zeros(beams, receivers))
                .samples_per_block(samples)
                .precision(precision)
                .batch(batch)
                .build();
            match expected_outcome(gpu, beams, receivers, samples, batch, precision) {
                Ok(()) => prop_assert!(result.is_ok(), "unexpected error: {:?}", result.err()),
                Err(variant) => {
                    let err = result.err();
                    let matches = match variant {
                        "EmptyWeights" => matches!(err, Some(TcbfError::EmptyWeights { .. })),
                        "ZeroSamplesPerBlock" => matches!(err, Some(TcbfError::ZeroSamplesPerBlock)),
                        "ZeroBatch" => matches!(err, Some(TcbfError::ZeroBatch)),
                        "UnsupportedPrecision" => {
                            matches!(err, Some(TcbfError::UnsupportedPrecision { .. }))
                        }
                        "OutOfDeviceMemory" => {
                            matches!(err, Some(TcbfError::OutOfDeviceMemory { .. }))
                        }
                        _ => false,
                    };
                    prop_assert!(matches, "expected {variant}, got {err:?}");
                }
            }
        }
    }
}
