//! The fluent configuration builder of the facade.
//!
//! A [`BeamformerBuilder`] collects the full beamformer configuration —
//! device, weights, block length, precision, batch size, optional explicit
//! tuning parameters, device pool — and validates everything in one place
//! at its two terminals: [`BeamformerBuilder::build_engine`] returns a
//! streaming [`Engine`] of the configured topology,
//! [`BeamformerBuilder::build`] a [`TensorCoreBeamformer`] (batched
//! executions and predictions); both fail with a single actionable
//! [`TcbfError`].

use crate::error::{Result, TcbfError};
use crate::TensorCoreBeamformer;
use beamform::{
    Beamformer, BeamformerConfig, Engine, ShardPolicy, ShardedBeamformer, SingleEngine,
    WeightMatrix,
};
use ccglib::matrix::HostComplexMatrix;
use ccglib::{MicroKernelConfig, Precision, TuningParameters};
use gpu_sim::{DevicePool, FaultInjector, Gpu};
use std::path::PathBuf;
use std::sync::Arc;
use tcbf_types::GemmShape;

/// Fluent builder for [`TensorCoreBeamformer`]; obtained from
/// [`TensorCoreBeamformer::builder`].
///
/// ```
/// use tcbf::{Gpu, Precision, TensorCoreBeamformer};
/// use ccglib::matrix::HostComplexMatrix;
/// use tcbf_types::Complex;
///
/// let weights = HostComplexMatrix::from_fn(8, 32, |b, r| {
///     Complex::from_polar(1.0 / 32.0, (b * r) as f32 * 0.01)
/// });
/// let beamformer = TensorCoreBeamformer::builder(Gpu::A100)
///     .weights(weights)
///     .samples_per_block(64)
///     .precision(Precision::Float16)
///     .batch(1)
///     .build()
///     .unwrap();
/// assert_eq!(beamformer.shape().m, 8);
/// ```
#[derive(Clone, Debug)]
pub struct BeamformerBuilder {
    gpu: Gpu,
    devices: Vec<Gpu>,
    shard_policy: ShardPolicy,
    weights: Option<WeightMatrix>,
    samples_per_block: usize,
    precision: Precision,
    batch: usize,
    params: Option<TuningParameters>,
    micro: Option<MicroKernelConfig>,
    micro_cache: Option<PathBuf>,
    fault_injector: Option<Arc<FaultInjector>>,
}

impl BeamformerBuilder {
    /// Starts a configuration for `gpu` with the defaults: float16
    /// precision, batch 1, shipped tuning parameters, single device,
    /// capacity-weighted shard policy, no weights or block length yet.
    /// The host micro-kernel blocking is looked up in the autotuning
    /// cache at build time unless pinned with
    /// [`BeamformerBuilder::micro_config`].
    pub fn new(gpu: Gpu) -> Self {
        BeamformerBuilder {
            gpu,
            devices: Vec::new(),
            shard_policy: ShardPolicy::default(),
            weights: None,
            samples_per_block: 0,
            precision: Precision::Float16,
            batch: 1,
            params: None,
            micro: None,
            micro_cache: None,
            fault_injector: None,
        }
    }

    /// Configures a multi-device pool (heterogeneous mixes allowed;
    /// repeats model several identical cards).  A configuration with a
    /// pool builds through [`BeamformerBuilder::build_engine`]; an empty
    /// slice reverts to the single-device path.
    pub fn devices(mut self, gpus: &[Gpu]) -> Self {
        self.devices = gpus.to_vec();
        self
    }

    /// Sets how block streams are partitioned across the pool (default:
    /// [`ShardPolicy::CapacityWeighted`]).  Only meaningful together with
    /// [`BeamformerBuilder::devices`].
    pub fn shard_policy(mut self, policy: ShardPolicy) -> Self {
        self.shard_policy = policy;
        self
    }

    /// Sets the beam weights from a raw `beams × receivers` matrix.
    pub fn weights(mut self, weights: HostComplexMatrix) -> Self {
        self.weights = Some(WeightMatrix::from_matrix(weights));
        self
    }

    /// Sets the beam weights from a prepared [`WeightMatrix`] (steering
    /// fans, per-beam azimuths, …).
    pub fn weight_matrix(mut self, weights: WeightMatrix) -> Self {
        self.weights = Some(weights);
        self
    }

    /// Sets the number of time samples beamformed per block (`N` of the
    /// GEMM).
    pub fn samples_per_block(mut self, samples: usize) -> Self {
        self.samples_per_block = samples;
        self
    }

    /// Sets the input precision (default: [`Precision::Float16`]).
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Sets the number of independent batch elements sharing the weights —
    /// e.g. frequency channels × polarisations (default: 1).
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Supplies explicit kernel tuning parameters instead of the shipped
    /// per-GPU defaults.
    pub fn params(mut self, params: TuningParameters) -> Self {
        self.params = Some(params);
        self
    }

    /// Pins the host micro-kernel blocking explicitly, bypassing the
    /// autotuning-cache lookup (validated at build time).
    pub fn micro_config(mut self, micro: MicroKernelConfig) -> Self {
        self.micro = Some(micro);
        self
    }

    /// Reads the autotuning cache from an explicit path instead of the
    /// default location ([`tuner::default_cache_path`]).
    pub fn micro_cache(mut self, path: impl Into<PathBuf>) -> Self {
        self.micro_cache = Some(path.into());
        self
    }

    /// Arms a deterministic [`FaultInjector`] over the configured device
    /// pool, for testing fault recovery end to end.  The injector must
    /// span exactly one verdict stream per pool member, and only
    /// multi-device builds accept one — a single device has no survivors
    /// to re-apportion onto, so [`BeamformerBuilder::build`] and
    /// single-device [`BeamformerBuilder::build_engine`] reject the
    /// configuration with [`TcbfError::InvalidParameters`].
    pub fn fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.fault_injector = Some(injector);
        self
    }

    /// The one configuration step behind both terminals: checks the fields
    /// every build needs (weights present and non-empty, block length and
    /// batch non-zero), resolves the micro-kernel blocking — the pinned
    /// one if [`BeamformerBuilder::micro_config`] was called, else the
    /// autotuning-cache winner for this host, precision and shape band,
    /// else `None` (the default blocking) — and hands back the weights
    /// with the [`BeamformerConfig`] they run under.  Missing, corrupt or
    /// foreign-host caches all fall back silently: autotuning may never
    /// break engine construction.
    fn configure(&mut self) -> Result<(WeightMatrix, BeamformerConfig)> {
        let weights = self.weights.take().ok_or(TcbfError::MissingWeights)?;
        if weights.num_beams() == 0 || weights.num_receivers() == 0 {
            return Err(TcbfError::EmptyWeights {
                beams: weights.num_beams(),
                receivers: weights.num_receivers(),
            });
        }
        if self.samples_per_block == 0 {
            return Err(TcbfError::ZeroSamplesPerBlock);
        }
        if self.batch == 0 {
            return Err(TcbfError::ZeroBatch);
        }
        let micro = self.micro.or_else(|| {
            let shape = GemmShape::batched(
                self.batch,
                weights.num_beams(),
                self.samples_per_block,
                weights.num_receivers(),
            );
            tuner::tuned_micro_config(self.micro_cache.as_deref(), self.precision, shape)
        });
        let config = BeamformerConfig {
            precision: self.precision,
            batch: self.batch,
            params: self.params,
            micro,
        };
        Ok((weights, config))
    }

    /// A single device has no survivors to re-apportion onto, so both
    /// single-device builds refuse an armed injector.
    fn reject_fault_injector(&self) -> Result<()> {
        if self.fault_injector.is_some() {
            return Err(TcbfError::InvalidParameters {
                reason: "fault injection needs a multi-device pool: a single device has no \
                         survivors to recover onto"
                    .to_string(),
            });
        }
        Ok(())
    }

    /// Validates the whole configuration and constructs a streaming
    /// [`Engine`] of the topology the builder describes: a single-device
    /// engine when [`BeamformerBuilder::devices`] was never called, a
    /// sharded multi-device engine otherwise.  This is the
    /// topology-agnostic entry point — downstream code drives the boxed
    /// engine (e.g. through a [`beamform::DynSession`]) without knowing
    /// which it got.
    ///
    /// Engines stream whole blocks, one per GEMM execution, so the batch
    /// size must be 1 ([`TcbfError::ShardedBatch`] otherwise); all other
    /// validations of [`BeamformerBuilder::build`] apply unchanged.
    ///
    /// ```
    /// use tcbf::prelude::*;
    ///
    /// let weights = HostComplexMatrix::from_fn(8, 32, |b, r| {
    ///     Complex::from_polar(1.0 / 32.0, (b * r) as f32 * 0.01)
    /// });
    /// // Same configuration code, two topologies.
    /// for devices in [Vec::new(), vec![Gpu::A100, Gpu::Gh200]] {
    ///     let engine = TensorCoreBeamformer::builder(Gpu::A100)
    ///         .weights(weights.clone())
    ///         .samples_per_block(64)
    ///         .devices(&devices)
    ///         .build_engine()
    ///         .unwrap();
    ///     assert_eq!(engine.topology().num_devices(), devices.len().max(1));
    /// }
    /// ```
    pub fn build_engine(mut self) -> Result<Box<dyn Engine>> {
        let (weights, config) = self.configure()?;
        if self.batch != 1 {
            return Err(TcbfError::ShardedBatch { batch: self.batch });
        }
        if self.devices.is_empty() {
            self.reject_fault_injector()?;
            let inner =
                Beamformer::new(&self.gpu.device(), weights, self.samples_per_block, config)?;
            Ok(Box::new(SingleEngine::new(inner)?))
        } else {
            let pool = DevicePool::from_gpus(&self.devices);
            let mut sharded = ShardedBeamformer::new(
                &pool,
                weights,
                self.samples_per_block,
                config,
                self.shard_policy,
            )?;
            if let Some(injector) = self.fault_injector {
                sharded.set_fault_injector(injector)?;
            }
            Ok(Box::new(sharded))
        }
    }

    /// Validates the whole configuration and constructs the single-device
    /// [`TensorCoreBeamformer`] — the terminal for batched executions
    /// (`batch > 1`) and for predictions of paper-scale shapes; block
    /// streams go through [`BeamformerBuilder::build_engine`].
    ///
    /// Checks, in order: no device pool configured (pools build through
    /// [`BeamformerBuilder::build_engine`]), weights present and
    /// non-empty, block length and batch non-zero, precision supported on
    /// the device, tuning parameters launchable, operands within device
    /// memory.  The first violation is returned as the matching
    /// [`TcbfError`] variant.
    pub fn build(mut self) -> Result<TensorCoreBeamformer> {
        if !self.devices.is_empty() {
            return Err(TcbfError::ShardedConfiguration {
                devices: self.devices.len(),
            });
        }
        self.reject_fault_injector()?;
        let (weights, config) = self.configure()?;
        let inner = Beamformer::new(&self.gpu.device(), weights, self.samples_per_block, config)?;
        Ok(TensorCoreBeamformer::from_parts(inner, self.gpu))
    }
}
