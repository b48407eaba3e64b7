//! The fluent configuration builder of the facade.
//!
//! A [`BeamformerBuilder`] collects the full engine configuration —
//! device or device pool, weights, block length, precision, optional
//! explicit tuning parameters — and validates everything in one place at
//! its one terminal: [`BeamformerBuilder::build_engine`] returns a
//! streaming [`Engine`] over the configured devices, or a single
//! actionable [`TcbfError`].

use crate::error::{Result, TcbfError};
use beamform::{BeamformerConfig, Engine, ShardPolicy, ShardedBeamformer, WeightMatrix};
use ccglib::matrix::HostComplexMatrix;
use ccglib::{MicroKernelConfig, Precision, TuningParameters};
use gpu_sim::{DevicePool, FaultInjector, Gpu};
use std::path::PathBuf;
use std::sync::Arc;
use tcbf_types::GemmShape;

/// Fluent builder for a streaming [`Engine`].
///
/// ```
/// use tcbf::{BeamformerBuilder, Gpu, Precision};
/// use ccglib::matrix::HostComplexMatrix;
/// use tcbf_types::Complex;
///
/// let weights = HostComplexMatrix::from_fn(8, 32, |b, r| {
///     Complex::from_polar(1.0 / 32.0, (b * r) as f32 * 0.01)
/// });
/// let engine = BeamformerBuilder::new(Gpu::A100)
///     .weights(weights)
///     .samples_per_block(64)
///     .precision(Precision::Float16)
///     .build_engine()
///     .unwrap();
/// assert_eq!(engine.topology().gpus(), &[Gpu::A100]);
/// ```
#[derive(Clone, Debug)]
pub struct BeamformerBuilder {
    gpu: Gpu,
    devices: Vec<Gpu>,
    shard_policy: ShardPolicy,
    weights: Option<WeightMatrix>,
    samples_per_block: usize,
    precision: Precision,
    params: Option<TuningParameters>,
    micro: Option<MicroKernelConfig>,
    micro_cache: Option<PathBuf>,
    fault_injector: Option<Arc<FaultInjector>>,
}

impl BeamformerBuilder {
    /// Starts a configuration for `gpu` with the defaults: float16
    /// precision, shipped tuning parameters, a pool of just `gpu`,
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
            params: None,
            micro: None,
            micro_cache: None,
            fault_injector: None,
        }
    }

    /// Configures the device pool (heterogeneous mixes allowed; repeats
    /// model several identical cards).  An empty slice reverts to the
    /// default, a pool of just the builder's `gpu`.
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
    /// span exactly one verdict stream per pool member (one for the
    /// default pool of one), else [`BeamformerBuilder::build_engine`]
    /// fails with [`TcbfError::InvalidParameters`].
    pub fn fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.fault_injector = Some(injector);
        self
    }

    /// The configuration step of [`BeamformerBuilder::build_engine`]:
    /// checks the fields every build needs (weights present and
    /// non-empty, block length non-zero), resolves the micro-kernel
    /// blocking — the pinned one if [`BeamformerBuilder::micro_config`]
    /// was called, else the autotuning-cache winner for this host,
    /// precision and shape band, else `None` (the default blocking) — and
    /// hands back the weights with the [`BeamformerConfig`] they run
    /// under.  Missing, corrupt or foreign-host caches all fall back
    /// silently: autotuning may never break engine construction.
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
        let micro = self.micro.or_else(|| {
            let shape = GemmShape::new(
                weights.num_beams(),
                self.samples_per_block,
                weights.num_receivers(),
            );
            tuner::tuned_micro_config(self.micro_cache.as_deref(), self.precision, shape)
        });
        let config = BeamformerConfig {
            precision: self.precision,
            batch: 1,
            params: self.params,
            micro,
        };
        Ok((weights, config))
    }

    /// Validates the whole configuration and constructs the streaming
    /// [`Engine`] the builder describes: one beamformer per member of the
    /// configured pool — a pool of just the builder's `gpu` when
    /// [`BeamformerBuilder::devices`] was never called.  Downstream code
    /// drives the boxed engine (e.g. through a [`beamform::DynSession`])
    /// without knowing how many devices it spans.
    ///
    /// Checks, in order: weights present and non-empty, block length
    /// non-zero, then per pool member precision supported on the device,
    /// tuning parameters launchable, operands within device memory, and
    /// last the fault injector's span.  The first violation is returned
    /// as the matching [`TcbfError`] variant.
    ///
    /// ```
    /// use tcbf::prelude::*;
    ///
    /// let weights = HostComplexMatrix::from_fn(8, 32, |b, r| {
    ///     Complex::from_polar(1.0 / 32.0, (b * r) as f32 * 0.01)
    /// });
    /// // Same configuration code, two topologies.
    /// for devices in [Vec::new(), vec![Gpu::A100, Gpu::Gh200]] {
    ///     let engine = BeamformerBuilder::new(Gpu::A100)
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
        if self.devices.is_empty() {
            self.devices.push(self.gpu);
        }
        let mut engine = ShardedBeamformer::new(
            &DevicePool::from_gpus(&self.devices),
            weights,
            self.samples_per_block,
            config,
            self.shard_policy,
        )?;
        if let Some(injector) = self.fault_injector {
            engine.set_fault_injector(injector)?;
        }
        Ok(Box::new(engine))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuner::{MicroCacheEntry, MicroTuneCache, ShapeClass};

    #[test]
    fn configure_resolves_micro_to_the_cache_winner_the_pinned_config_or_none() {
        let class = ShapeClass::Small;
        let shape = class.representative_shape();
        let configured = || {
            BeamformerBuilder::new(Gpu::A100)
                .weights(HostComplexMatrix::zeros(shape.m, shape.k))
                .samples_per_block(shape.n)
        };
        // The only value there is while no kernel has an axis: what is
        // pinned here is *whether* the builder found it, `Some` or `None`.
        let winner = MicroKernelConfig::default();
        let dir = std::env::temp_dir().join(format!("tcbf-builder-test-{}", std::process::id()));
        let path = dir.join("cache.json");
        let mut cache = MicroTuneCache::for_this_host();
        cache.entries.push(MicroCacheEntry {
            precision: Precision::Float16,
            shape_class: class,
            config: winner,
            gelems_per_s: 1.0,
        });
        cache.store(&path).unwrap();

        let (_, config) = configured().micro_cache(&path).configure().unwrap();
        assert_eq!(config.micro, Some(winner));
        // A pinned config bypasses the cache.
        let pinned = MicroKernelConfig::default();
        let (_, config) = configured()
            .micro_cache(&path)
            .micro_config(pinned)
            .configure()
            .unwrap();
        assert_eq!(config.micro, Some(pinned));
        // No entry for the precision, or no cache file at all: the default.
        let (_, config) = configured()
            .precision(Precision::Int1)
            .micro_cache(&path)
            .configure()
            .unwrap();
        assert_eq!(config.micro, None);
        std::fs::remove_dir_all(&dir).unwrap();
        let (_, config) = configured().micro_cache(&path).configure().unwrap();
        assert_eq!(config.micro, None);
    }
}
