//! The beamforming → GEMM mapping and the delay-and-sum reference.
//!
//! "When multiple samples are beamformed at once, Eq. 3 maps to a
//! matrix-matrix multiplication … `M` corresponds to the number of beams,
//! `N` is the number of samples beamformed at a time, and `K` is the number
//! of elements that is summed over."  The [`Beamformer`] takes a weight
//! matrix and a block of sensor samples, hands the multiplication to
//! ccglib at the requested precision, and reports the performance numbers
//! alongside the beamformed data.  A plain delay-and-sum implementation is
//! provided as the correctness reference and as the "previous GPU
//! beamformer" stand-in for speed-up comparisons.

use crate::weights::WeightMatrix;
use ccglib::matrix::HostComplexMatrix;
use ccglib::{
    Gemm, GemmInput, GemmPlan, Precision, PreparedOperand, RunReport, TcbfError, TuningParameters,
};
use gpu_sim::Device;
use serde::{Deserialize, Serialize};
use tcbf_types::{Complex32, GemmShape};

/// Configuration of a beamformer instance.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BeamformerConfig {
    /// Input precision handed to ccglib.
    pub precision: Precision,
    /// Optional explicit kernel parameters; `None` uses the shipped
    /// per-GPU defaults.
    pub params: Option<TuningParameters>,
}

impl BeamformerConfig {
    /// Default configuration: 16-bit precision, tuned defaults.
    pub fn float16() -> Self {
        BeamformerConfig {
            precision: Precision::Float16,
            params: None,
        }
    }

    /// 1-bit configuration.
    pub fn int1() -> Self {
        BeamformerConfig {
            precision: Precision::Int1,
            params: None,
        }
    }
}

/// Result of beamforming one block of samples.
#[derive(Clone, Debug)]
pub struct BeamformOutput {
    /// Beamformed data: `M` beams × `N` samples.
    pub beams: HostComplexMatrix,
    /// Performance/energy report of the underlying GEMM.
    pub report: RunReport,
}

/// A beamformer bound to a device, a weight matrix and a sample-block
/// length.
pub struct Beamformer {
    device: Device,
    config: BeamformerConfig,
    weights: WeightMatrix,
    /// The weights quantised to the operand precision *and* prepared for
    /// the kernel (binary16 weights are bulk-decoded to f32 planes) once —
    /// every block of a streaming session reuses both, so the hot path
    /// never converts the `A` operand again (rebuilt only on weight
    /// hot-swap).
    prepared_weights: PreparedOperand,
    gemm: Gemm,
    samples_per_block: usize,
}

impl Beamformer {
    /// Creates a beamformer for `samples_per_block` samples per call.
    pub fn new(
        device: &Device,
        weights: WeightMatrix,
        samples_per_block: usize,
        config: BeamformerConfig,
    ) -> ccglib::Result<Self> {
        let shape = GemmShape::new(
            weights.num_beams(),
            samples_per_block,
            weights.num_receivers(),
        );
        let plan = match config.params {
            Some(params) => GemmPlan::with_params(device, shape, config.precision, params)?,
            None => GemmPlan::new(device, shape, config.precision)?,
        };
        let gemm = Gemm::from_plan(plan);
        let prepared_weights =
            PreparedOperand::new(Self::quantise_for(config.precision, weights.matrix()));
        Ok(Beamformer {
            device: device.clone(),
            config,
            weights,
            prepared_weights,
            gemm,
            samples_per_block,
        })
    }

    /// The GEMM shape this beamformer maps to.
    pub fn shape(&self) -> GemmShape {
        self.gemm.plan().shape()
    }

    /// The weight matrix in use.
    pub fn weights(&self) -> &WeightMatrix {
        &self.weights
    }

    /// The device this beamformer runs on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The configuration this beamformer was created with.
    pub fn config(&self) -> &BeamformerConfig {
        &self.config
    }

    /// Number of time samples per block.
    pub fn samples_per_block(&self) -> usize {
        self.samples_per_block
    }

    /// Replaces the beam weights without re-planning the GEMM (weight
    /// hot-swap, e.g. re-steering the beams mid-stream).  The new matrix
    /// must keep the `beams × receivers` shape the kernel was planned for.
    pub(crate) fn set_weights(&mut self, weights: WeightMatrix) -> ccglib::Result<()> {
        if weights.num_beams() != self.weights.num_beams()
            || weights.num_receivers() != self.weights.num_receivers()
        {
            return Err(TcbfError::ShapeMismatch {
                expected: format!(
                    "{} beams x {} receivers",
                    self.weights.num_beams(),
                    self.weights.num_receivers()
                ),
                actual: format!("{} x {}", weights.num_beams(), weights.num_receivers()),
            });
        }
        self.prepared_weights =
            PreparedOperand::new(Self::quantise_for(self.config.precision, weights.matrix()));
        self.weights = weights;
        Ok(())
    }

    /// Quantises one host matrix to an operand precision.
    fn quantise_for(precision: Precision, host: &HostComplexMatrix) -> GemmInput {
        match precision {
            Precision::Int1 => GemmInput::quantise_int1(host),
            _ => GemmInput::quantise_f16(host),
        }
    }

    /// Predicted performance of one block without computing data (used for
    /// paper-scale configurations).
    pub fn predict(&self) -> RunReport {
        self.gemm.predict()
    }

    /// Beamforms one block of sensor samples (`K` receivers × `N` time
    /// samples).
    pub fn beamform(&self, samples: &HostComplexMatrix) -> ccglib::Result<BeamformOutput> {
        if samples.rows() != self.weights.num_receivers()
            || samples.cols() != self.samples_per_block
        {
            return Err(TcbfError::ShapeMismatch {
                expected: format!(
                    "{} receivers x {} samples",
                    self.weights.num_receivers(),
                    self.samples_per_block
                ),
                actual: format!("{} x {}", samples.rows(), samples.cols()),
            });
        }
        // ccglib consumes B transposed: N×K, one row per output sample; the
        // weights operand is the cached prepared (pre-decoded) one.  The
        // transposed block lives until the GEMM is done: freed before it,
        // the allocator may or may not hand the very block back for the
        // kernel's `B` panels, and a block's time then depends on the heap
        // of the process it runs in.
        let transposed = samples.transposed();
        let b = Self::quantise_for(self.config.precision, &transposed);
        let (beams, report) = self.gemm.run_prepared(&self.prepared_weights, &b)?;
        Ok(BeamformOutput { beams, report })
    }

    /// Direct delay-and-sum (phase-and-sum in the narrowband model)
    /// reference beamformer in full precision: the ground truth the
    /// tensor-core outputs are validated against, and the stand-in for the
    /// float32 "previous implementation" baselines of Section V.
    pub fn delay_and_sum_reference(&self, samples: &HostComplexMatrix) -> HostComplexMatrix {
        let m = self.weights.num_beams();
        let n = samples.cols();
        let k = self.weights.num_receivers();
        let mut out = HostComplexMatrix::zeros(m, n);
        for beam in 0..m {
            for sample in 0..n {
                let mut acc = Complex32::ZERO;
                for receiver in 0..k {
                    acc +=
                        self.weights.matrix().get(beam, receiver) * samples.get(receiver, sample);
                }
                out.set(beam, sample, acc);
            }
        }
        out
    }

    /// Coherent SNR gain of beam `beam` estimated from beamformed data:
    /// the ratio of the peak beam power to the mean power across the other
    /// beams.  For a single point source and steering weights, this grows
    /// with the number of receivers.
    pub fn beam_power(output: &HostComplexMatrix, beam: usize) -> f64 {
        let n = output.cols();
        (0..n)
            .map(|s| f64::from(output.get(beam, s).norm_sqr()))
            .sum::<f64>()
            / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{ArrayGeometry, SPEED_OF_LIGHT};
    use crate::signal::{PlaneWaveSource, SignalGenerator};
    use gpu_sim::Gpu;

    const FREQ: f64 = 150e6;

    fn array(n: usize) -> ArrayGeometry {
        ArrayGeometry::uniform_linear(n, SPEED_OF_LIGHT / FREQ / 2.0, SPEED_OF_LIGHT)
    }

    fn device() -> Device {
        Gpu::A100.device()
    }

    #[test]
    fn tensor_core_beams_match_delay_and_sum() {
        let geom = array(32);
        let weights = WeightMatrix::uniform_fan(&geom, FREQ, 8, -0.4, 0.4);
        let beamformer =
            Beamformer::new(&device(), weights, 16, BeamformerConfig::float16()).unwrap();
        let mut generator = SignalGenerator::new(geom, FREQ, 1e5, 0.05, 3);
        let samples = generator.sensor_samples(
            &[PlaneWaveSource {
                azimuth: 0.1,
                amplitude: 1.0,
                baseband_frequency: 0.0,
            }],
            16,
        );
        let output = beamformer.beamform(&samples).unwrap();
        let reference = beamformer.delay_and_sum_reference(&samples);
        assert!(output.beams.max_abs_diff(&reference) < 0.05);
        assert!(output.report.predicted.elapsed_s > 0.0);
    }

    #[test]
    fn beamformer_concentrates_power_in_the_right_beam() {
        let geom = array(64);
        let azimuths: Vec<f64> = (0..9).map(|i| -0.4 + 0.1 * i as f64).collect();
        let weights = WeightMatrix::steering(&geom, FREQ, &azimuths, true);
        let beamformer =
            Beamformer::new(&device(), weights, 32, BeamformerConfig::float16()).unwrap();
        // Source exactly at the 7th beam (azimuth 0.2).
        let mut generator = SignalGenerator::new(geom, FREQ, 1e5, 0.01, 11);
        let samples = generator.sensor_samples(
            &[PlaneWaveSource {
                azimuth: 0.2,
                amplitude: 1.0,
                baseband_frequency: 0.0,
            }],
            32,
        );
        let output = beamformer.beamform(&samples).unwrap();
        let powers: Vec<f64> = (0..9)
            .map(|b| Beamformer::beam_power(&output.beams, b))
            .collect();
        let best = powers
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(best, 6, "powers: {powers:?}");
        // On-source beam should carry at least 5x the power of the weakest.
        let min = powers.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(powers[6] > 5.0 * min);
    }

    #[test]
    fn one_bit_beamforming_still_finds_the_source() {
        // 1-bit quantisation loses amplitude information but the beam with
        // the source must still win (the robustness argument of
        // Section III: "beamforming remains robust since many values are
        // accumulated").
        let geom = array(64);
        let azimuths = [-0.3, 0.0, 0.3];
        let weights = WeightMatrix::steering(&geom, FREQ, &azimuths, false);
        let beamformer =
            Beamformer::new(&Gpu::Gh200.device(), weights, 64, BeamformerConfig::int1()).unwrap();
        let mut generator = SignalGenerator::new(geom, FREQ, 1e5, 0.3, 5);
        let samples = generator.sensor_samples(
            &[PlaneWaveSource {
                azimuth: 0.3,
                amplitude: 1.0,
                baseband_frequency: 3000.0,
            }],
            64,
        );
        let output = beamformer.beamform(&samples).unwrap();
        assert_eq!(output.report.bit_op, Some(gpu_sim::BitOp::And));
        let powers: Vec<f64> = (0..3)
            .map(|b| Beamformer::beam_power(&output.beams, b))
            .collect();
        assert!(
            powers[2] > powers[0] && powers[2] > powers[1],
            "powers: {powers:?}"
        );
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let geom = array(16);
        let weights = WeightMatrix::uniform_fan(&geom, FREQ, 4, -0.2, 0.2);
        let beamformer =
            Beamformer::new(&device(), weights, 8, BeamformerConfig::float16()).unwrap();
        let wrong = HostComplexMatrix::zeros(16, 9);
        assert!(beamformer.beamform(&wrong).is_err());
        let wrong_k = HostComplexMatrix::zeros(15, 8);
        assert!(beamformer.beamform(&wrong_k).is_err());
    }

    #[test]
    fn set_weights_keeps_the_plan_but_changes_the_beams() {
        let geom = array(16);
        let fan = WeightMatrix::uniform_fan(&geom, FREQ, 4, -0.2, 0.2);
        let mut beamformer =
            Beamformer::new(&device(), fan, 8, BeamformerConfig::float16()).unwrap();
        let samples = HostComplexMatrix::from_fn(16, 8, |r, s| {
            Complex32::new((r + s) as f32 * 0.05, r as f32 * 0.02)
        });
        let before = beamformer.beamform(&samples).unwrap();
        let steered = WeightMatrix::steering(&array(16), FREQ, &[-0.3, -0.1, 0.1, 0.3], true);
        beamformer.set_weights(steered).unwrap();
        let after = beamformer.beamform(&samples).unwrap();
        // One block per call: a beamformer's plan is never batched.
        assert_eq!(beamformer.shape(), GemmShape::new(4, 8, 16));
        assert_eq!(beamformer.shape().batch, 1);
        assert!(before.beams.max_abs_diff(&after.beams) > 1e-3);
        // Shape-changing swaps are rejected.
        let wrong = WeightMatrix::from_matrix(HostComplexMatrix::zeros(4, 17));
        assert!(beamformer.set_weights(wrong).is_err());
    }

    #[test]
    fn snr_gain_grows_with_receivers() {
        // Beamforming gain: more receivers → higher on-source beam power
        // relative to the off-source beams.
        let mut gains = Vec::new();
        for k in [8usize, 64] {
            let geom = array(k);
            let weights = WeightMatrix::steering(&geom, FREQ, &[0.0, 0.35], true);
            let beamformer =
                Beamformer::new(&device(), weights, 64, BeamformerConfig::float16()).unwrap();
            let mut generator = SignalGenerator::new(geom, FREQ, 1e5, 1.0, 13);
            let samples = generator.sensor_samples(
                &[PlaneWaveSource {
                    azimuth: 0.0,
                    amplitude: 1.0,
                    baseband_frequency: 0.0,
                }],
                64,
            );
            let output = beamformer.beamform(&samples).unwrap();
            let on = Beamformer::beam_power(&output.beams, 0);
            let off = Beamformer::beam_power(&output.beams, 1);
            gains.push(on / off);
        }
        assert!(gains[1] > gains[0], "gains: {gains:?}");
    }
}
