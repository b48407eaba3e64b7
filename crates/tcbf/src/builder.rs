//! The fluent configuration builder of the facade.
//!
//! A [`BeamformerBuilder`] collects the full engine configuration —
//! device or device pool, weights, block length, precision, optional
//! explicit tuning parameters — and validates everything in one place at
//! its one terminal: [`BeamformerBuilder::build_engine`] returns a
//! streaming [`Engine`] over the configured devices, or a single
//! actionable [`TcbfError`].

use beamform::{BeamformerConfig, Engine, ShardedBeamformer, WeightMatrix};
use ccglib::matrix::HostComplexMatrix;
use ccglib::{Precision, Result, TcbfError, TuningParameters};
use gpu_sim::{DevicePool, FaultInjector, Gpu};
use std::sync::Arc;

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
/// assert_eq!(engine.gpus(), &[Gpu::A100]);
/// ```
#[derive(Clone, Debug)]
pub struct BeamformerBuilder {
    gpu: Gpu,
    devices: Vec<Gpu>,
    weights: Option<WeightMatrix>,
    samples_per_block: usize,
    precision: Precision,
    params: Option<TuningParameters>,
    fault_injector: Option<Arc<FaultInjector>>,
}

impl BeamformerBuilder {
    /// Starts a configuration for `gpu` with the defaults: float16
    /// precision, shipped tuning parameters, a pool of just `gpu`, no
    /// weights or block length yet.
    pub fn new(gpu: Gpu) -> Self {
        BeamformerBuilder {
            gpu,
            devices: Vec::new(),
            weights: None,
            samples_per_block: 0,
            precision: Precision::Float16,
            params: None,
            fault_injector: None,
        }
    }

    /// Configures the device pool (heterogeneous mixes allowed; repeats
    /// model several identical cards).  An empty slice reverts to the
    /// default, a pool of just the builder's `gpu`.  Block streams are
    /// split into contiguous runs weighted by each member's peak
    /// TeraOps/s (see [`beamform::ShardPlan`]).
    pub fn devices(mut self, gpus: &[Gpu]) -> Self {
        self.devices = gpus.to_vec();
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

    /// Arms a deterministic [`FaultInjector`] over the configured device
    /// pool, for testing fault recovery end to end.  The injector must
    /// span exactly one verdict stream per pool member (one for the
    /// default pool of one), else [`BeamformerBuilder::build_engine`]
    /// fails with [`TcbfError::InvalidParameters`].
    pub fn fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.fault_injector = Some(injector);
        self
    }

    /// Validates the whole configuration and constructs the streaming
    /// [`Engine`] the builder describes: one beamformer per member of the
    /// configured pool — a pool of just the builder's `gpu` when
    /// [`BeamformerBuilder::devices`] was never called.  Downstream code
    /// drives the boxed engine through its [`Engine`] methods without
    /// knowing how many devices it spans.
    ///
    /// Checks, in order: weights present and non-empty, block length
    /// non-zero, then per pool member precision supported on the device,
    /// tuning parameters launchable, operands within device memory, and
    /// last the fault injector's span.  The first violation is returned
    /// as the matching [`TcbfError`] variant.  Nothing outside the builder
    /// enters: no environment variable is read and no file is opened.
    ///
    /// ```
    /// use tcbf::prelude::*;
    ///
    /// let weights = HostComplexMatrix::from_fn(8, 32, |b, r| {
    ///     Complex::from_polar(1.0 / 32.0, (b * r) as f32 * 0.01)
    /// });
    /// // Same configuration code, a pool of one and a pool of two.
    /// for devices in [Vec::new(), vec![Gpu::A100, Gpu::Gh200]] {
    ///     let engine = BeamformerBuilder::new(Gpu::A100)
    ///         .weights(weights.clone())
    ///         .samples_per_block(64)
    ///         .devices(&devices)
    ///         .build_engine()
    ///         .unwrap();
    ///     assert_eq!(engine.gpus().len(), devices.len().max(1));
    /// }
    /// ```
    pub fn build_engine(mut self) -> Result<Box<dyn Engine>> {
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
        let config = BeamformerConfig {
            precision: self.precision,
            params: self.params,
        };
        if self.devices.is_empty() {
            self.devices.push(self.gpu);
        }
        let mut engine = ShardedBeamformer::new(
            &DevicePool::from_gpus(&self.devices),
            weights,
            self.samples_per_block,
            config,
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
    use tcbf_types::Complex;

    #[test]
    fn build_engine_ignores_the_environment_and_the_filesystem() {
        // The variable the deleted host tuner read, pointing at the input
        // that once aborted every build (PR 15: 200 000 nested brackets).
        let dir = std::env::temp_dir().join(format!("tcbf-builder-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tower = dir.join("cache.json");
        std::fs::write(&tower, "[".repeat(200_000)).unwrap();
        let block = HostComplexMatrix::from_fn(40, 12, |r, s| {
            Complex::new((r * 7 + s) as f32 * 0.013 - 0.4, (s * 5 + r) as f32 * 0.021)
        });
        let beams = || {
            let weights = HostComplexMatrix::from_fn(6, 40, |b, r| {
                Complex::from_polar(0.025, (b * r) as f32 * 0.07)
            });
            let mut engine = BeamformerBuilder::new(Gpu::A100)
                .weights(weights)
                .samples_per_block(12)
                .build_engine()
                .unwrap();
            let beams = engine.process_batch(&[&block]).unwrap().remove(0).beams;
            let bits = |v: &Complex<f32>| (v.re.to_bits(), v.im.to_bits());
            beams.data().iter().map(bits).collect::<Vec<_>>()
        };
        std::env::set_var("TCBF_MICROTUNE_CACHE", &tower);
        let with_the_tower = beams();
        std::env::remove_var("TCBF_MICROTUNE_CACHE");
        assert_eq!(with_the_tower, beams());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
