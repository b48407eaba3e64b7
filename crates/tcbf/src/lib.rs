//! The Tensor-Core Beamformer (TCBF) — top-level facade.
//!
//! This crate ties the workspace together behind the API a downstream user
//! would reach for first:
//!
//! * [`BeamformerBuilder`] — a fluent builder that validates the whole
//!   configuration (device or device pool, weights, block length,
//!   precision, tuning parameters) in one place and returns a single
//!   actionable [`TcbfError`] on misuse;
//! * one execution API for every topology — the builder's one terminal,
//!   [`BeamformerBuilder::build_engine`], returns a `Box<dyn `[`Engine`]`>`
//!   over the configured [`DevicePool`] (a single device is a pool of
//!   one: `.devices(&[...])` only widens it), which streams blocks itself
//!   ([`Engine::process_block`]) with mid-stream weight hot-swap, and the
//!   unified [`Report`] carries a per-device breakdown (exactly one entry
//!   for a pool of one) plus the pool-level metrics derived from it;
//! * one error type, [`TcbfError`] (with its [`Result`] alias): defined in
//!   `ccglib` and re-exported here, it is what the builder, every engine
//!   and the GEMM layer below return, so an error from any of them carries
//!   its wire code with no conversion;
//! * [`prelude`] — one `use tcbf::prelude::*;` for the whole surface;
//! * re-exports of the building blocks (`ccglib`, the device catalog, the
//!   tuner, the generic beamforming layer) for users who need lower-level
//!   control — predictions of paper-scale (batched) shapes live one
//!   layer down, at [`Gemm`];
//! * [`version`] and [`supported_devices`] introspection helpers.
//!
//! The domain applications live in their own crates (`ultrasound`,
//! `radioastro`) and are thin generic wrappers over the same [`Engine`]
//! abstraction, exactly as the paper describes the layering.
//!
//! ```
//! use tcbf::prelude::*;
//!
//! // 8 beams from 32 receivers, 64 samples at a time, on a simulated A100.
//! let weights = HostComplexMatrix::from_fn(8, 32, |b, r| {
//!     Complex::from_polar(1.0 / 32.0, (b * r) as f32 * 0.01)
//! });
//! let mut engine = BeamformerBuilder::new(Gpu::A100)
//!     .weights(weights)
//!     .samples_per_block(64)
//!     .precision(Precision::Float16)
//!     .build_engine()
//!     .unwrap();
//! let samples = HostComplexMatrix::from_fn(32, 64, |r, s| Complex::new(r as f32 * 0.1, s as f32 * 0.05));
//!
//! // Stream blocks through the engine and read the aggregate report.
//! for _ in 0..4 {
//!     let output = engine.process_block(&samples).unwrap();
//!     assert_eq!(output.beams.rows(), 8);
//!     assert_eq!(output.beams.cols(), 64);
//! }
//! let report = engine.finish();
//! assert_eq!(report.total_blocks(), 4);
//! assert!(report.aggregate_tops() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod builder;

pub use beamform::{
    ArrayGeometry, BeamformOutput, Beamformer, BeamformerConfig, DeviceShardReport, Engine,
    LatencyHistogram, PlaneWaveSource, Report, SessionReport, ShardPlan, ShardedBeamformer,
    SignalGenerator, WeightMatrix,
};
pub use builder::BeamformerBuilder;
pub use ccglib::{
    benchmark, Gemm, GemmInput, ParameterSpace, Precision, Result, RunReport, TcbfError,
    TuningParameters,
};
pub use gpu_sim::{Device, DevicePool, DeviceSpec, Gpu};
pub use pmt::EnergyMeasurement;
pub use tuner::{Objective, Strategy, TuneOutcome, Tuner};

/// Everything a typical downstream user needs in one import:
/// `use tcbf::prelude::*;`.
///
/// Exports the fluent builder, the unified execution surface
/// ([`Engine`], [`Report`]), the [`Precision`] enum, the error type, the
/// device catalog, weight/signal helpers, the tuner, and the host matrix
/// type.
pub mod prelude {
    pub use crate::{
        supported_devices, version, ArrayGeometry, BeamformOutput, Beamformer, BeamformerBuilder,
        BeamformerConfig, Device, DevicePool, DeviceShardReport, DeviceSpec, Engine, Gpu,
        LatencyHistogram, Objective, PlaneWaveSource, Precision, Report, Result, SessionReport,
        ShardPlan, ShardedBeamformer, SignalGenerator, Strategy, TcbfError, TuneOutcome, Tuner,
        TuningParameters, WeightMatrix,
    };
    pub use ccglib::matrix::HostComplexMatrix;
    pub use tcbf_types::Complex;
}

/// Library version (mirrors the crate version).
pub fn version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// The devices the library ships calibrated models and tuned defaults for.
pub fn supported_devices() -> Vec<DeviceSpec> {
    DeviceSpec::catalog()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccglib::matrix::HostComplexMatrix;
    use proptest::prelude::*;
    use tcbf_types::{Complex, GemmShape};

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
        let mut engine = BeamformerBuilder::new(Gpu::Gh200)
            .weights(weights(16, 64))
            .samples_per_block(32)
            .precision(Precision::Float16)
            .build_engine()
            .unwrap();
        assert_eq!(engine.gpus(), [Gpu::Gh200]);
        let samples = HostComplexMatrix::from_fn(64, 32, |r, s| {
            Complex::new((r + s) as f32 * 0.01, (r as f32 - s as f32) * 0.01)
        });
        let outputs = engine.process_batch(&[&samples]).unwrap();
        assert_eq!(outputs[0].beams.rows(), 16);
        assert_eq!(outputs[0].beams.cols(), 32);
        assert!(outputs[0].report.achieved_tops > 0.0);
        assert!(outputs[0].report.predicted.elapsed_s > 0.0);
    }

    #[test]
    fn builder_rejects_each_invalid_configuration_with_its_variant() {
        let ok = || {
            BeamformerBuilder::new(Gpu::A100)
                .weights(weights(4, 32))
                .samples_per_block(16)
        };
        assert!(ok().build_engine().is_ok());
        assert_eq!(
            BeamformerBuilder::new(Gpu::A100)
                .samples_per_block(16)
                .build_engine()
                .unwrap_err(),
            TcbfError::MissingWeights
        );
        assert_eq!(
            BeamformerBuilder::new(Gpu::A100)
                .weights(HostComplexMatrix::zeros(0, 0))
                .samples_per_block(16)
                .build_engine()
                .unwrap_err(),
            TcbfError::EmptyWeights {
                beams: 0,
                receivers: 0
            }
        );
        assert_eq!(
            BeamformerBuilder::new(Gpu::A100)
                .weights(weights(4, 32))
                .build_engine()
                .unwrap_err(),
            TcbfError::ZeroSamplesPerBlock
        );
        assert!(matches!(
            ok().devices(&[Gpu::Mi300x])
                .precision(Precision::Int1)
                .build_engine()
                .unwrap_err(),
            TcbfError::UnsupportedPrecision { .. }
        ));
        assert!(matches!(
            ok().samples_per_block(1 << 40).build_engine().unwrap_err(),
            TcbfError::OutOfDeviceMemory { .. }
        ));
        assert!(matches!(
            ok().params(TuningParameters::new(64, 16, 64, 16, 0))
                .build_engine()
                .unwrap_err(),
            TcbfError::InvalidParameters { .. }
        ));
    }

    #[test]
    fn engine_streams_blocks_with_weight_swap() {
        let mut engine = BeamformerBuilder::new(Gpu::A100)
            .weights(weights(4, 16))
            .samples_per_block(8)
            .build_engine()
            .unwrap();
        let samples =
            HostComplexMatrix::from_fn(16, 8, |r, s| Complex::new(r as f32 * 0.1, s as f32 * 0.05));
        engine.process_block(&samples).unwrap();
        engine
            .swap_weights(WeightMatrix::from_matrix(weights(4, 16)))
            .unwrap();
        engine.process_block(&samples).unwrap();
        let report = engine.finish();
        assert_eq!(report.total_blocks(), 2);
        assert_eq!(report.weight_swaps(), 1);
    }

    #[test]
    fn build_engine_picks_the_topology_from_the_builder() {
        let configured = || {
            BeamformerBuilder::new(Gpu::A100)
                .weights(weights(4, 16))
                .samples_per_block(8)
        };
        // No .devices(...): a pool of just the builder's device.
        let mut single = configured().build_engine().unwrap();
        assert_eq!(single.gpus(), [Gpu::A100]);
        assert_eq!(single.plan(3).num_devices(), 1);
        // With .devices(...): the same engine over the wider pool.
        let mut pooled = configured()
            .devices(&[Gpu::A100, Gpu::Gh200])
            .build_engine()
            .unwrap();
        assert_eq!(pooled.gpus(), [Gpu::A100, Gpu::Gh200]);
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
    }

    #[test]
    fn every_pool_member_is_validated() {
        // The common validations run whatever the pool.
        assert_eq!(
            BeamformerBuilder::new(Gpu::A100)
                .devices(&[Gpu::A100])
                .samples_per_block(8)
                .build_engine()
                .unwrap_err(),
            TcbfError::MissingWeights
        );
        // And precision support is validated per pool member.
        assert!(matches!(
            BeamformerBuilder::new(Gpu::A100)
                .weights(weights(4, 16))
                .samples_per_block(8)
                .devices(&[Gpu::A100, Gpu::Mi300x])
                .precision(Precision::Int1)
                .build_engine()
                .unwrap_err(),
            TcbfError::UnsupportedPrecision { .. }
        ));
    }

    /// Mirrors the builder's validation order to predict the outcome of an
    /// arbitrary configuration.
    fn expected_outcome(
        gpu: Gpu,
        beams: usize,
        receivers: usize,
        samples: usize,
        precision: Precision,
    ) -> std::result::Result<(), &'static str> {
        if beams == 0 || receivers == 0 {
            return Err("EmptyWeights");
        }
        if samples == 0 {
            return Err("ZeroSamplesPerBlock");
        }
        let spec = gpu.device().spec().clone();
        if precision == Precision::Int1 && !spec.supports_int1() {
            return Err("UnsupportedPrecision");
        }
        let shape = GemmShape::new(beams, samples, receivers);
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
            // Up to 2^40 samples per block: far beyond any device memory.
            samples_log2 in 0u32..41,
            int1 in any::<bool>(),
        ) {
            let gpu = Gpu::ALL[gpu_index];
            let samples = (1usize << samples_log2).saturating_sub(usize::from(samples_log2 == 0));
            let precision = if int1 { Precision::Int1 } else { Precision::Float16 };
            let result = BeamformerBuilder::new(gpu)
                .weights(HostComplexMatrix::zeros(beams, receivers))
                .samples_per_block(samples)
                .precision(precision)
                .build_engine();
            match expected_outcome(gpu, beams, receivers, samples, precision) {
                Ok(()) => prop_assert!(result.is_ok(), "unexpected error: {:?}", result.err()),
                Err(variant) => {
                    let err = result.err();
                    let matches = match variant {
                        "EmptyWeights" => matches!(err, Some(TcbfError::EmptyWeights { .. })),
                        "ZeroSamplesPerBlock" => matches!(err, Some(TcbfError::ZeroSamplesPerBlock)),
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
