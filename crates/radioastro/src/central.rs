//! The central (second-stage) beamformer.
//!
//! The central processor combines the beamlet streams of all stations.
//! *Coherent* beamforming preserves phase: every tied-array beam is a
//! weighted sum over stations, so forming `M` beams over `N` samples and
//! `K` stations is the ccglib GEMM (with the product of polarisations and
//! channels as the batch size).  *Incoherent* beamforming adds station
//! powers instead: computationally cheap, wide field of view, no ccglib
//! involvement.  The tests check the coherent output against a float32
//! reference beamformer, which stands in for the existing LOFAR GPU
//! beamformer the paper compares against.

use crate::station::StationBeamlets;
use beamform::geometry::SPEED_OF_LIGHT;
use beamform::{Beamformer, BeamformerConfig, Engine, Report, WeightMatrix};
use ccglib::matrix::HostComplexMatrix;
use ccglib::RunReport;
use gpu_sim::Device;
use serde::{Deserialize, Serialize};
use tcbf_types::Complex;

/// Mode of the central beamformer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CentralMode {
    /// Phase-preserving tied-array beamforming (runs on tensor cores).
    Coherent,
    /// Power addition across stations (no phase information retained).
    Incoherent,
}

/// Output of the central beamformer.
#[derive(Clone, Debug)]
pub struct CentralOutput {
    /// Beam power per (beam, sample): `M × N`, real valued.
    pub power: Vec<Vec<f64>>,
    /// Complex beamformed data (`M × N`) for the coherent mode.
    pub complex_beams: Option<HostComplexMatrix>,
    /// Performance report of the tensor-core GEMM (coherent mode only).
    pub report: Option<RunReport>,
}

/// The central tensor-core beamformer: a thin LOFAR-specific wrapper
/// around the 16-bit mode of ccglib.
pub struct CentralBeamformer {
    device: Device,
    beam_azimuths: Vec<f64>,
}

impl CentralBeamformer {
    /// Creates a central beamformer forming one tied-array beam per entry
    /// of `beam_azimuths` (radians from the pointing centre).
    pub fn new(device: &Device, beam_azimuths: Vec<f64>) -> Self {
        assert!(!beam_azimuths.is_empty(), "at least one beam is required");
        CentralBeamformer {
            device: device.clone(),
            beam_azimuths,
        }
    }

    /// Number of tied-array beams (`M`).
    pub fn num_beams(&self) -> usize {
        self.beam_azimuths.len()
    }

    /// Station weights for all beams: `M × K`, the phase conjugate of each
    /// station's geometric delay towards each beam direction.
    pub fn weights(&self, beamlets: &StationBeamlets) -> HostComplexMatrix {
        let k = beamlets.num_stations();
        let positions = beamlets.station_positions_m();
        let frequency = beamlets.frequency();
        HostComplexMatrix::from_fn(self.num_beams(), k, |beam, station| {
            let delay = positions[station] * self.beam_azimuths[beam].sin() / SPEED_OF_LIGHT;
            let phi = std::f64::consts::TAU * frequency * delay;
            Complex::from_polar(1.0 / k as f32, phi as f32)
        })
    }

    /// Runs the central beamformer in the requested mode.
    pub fn beamform(
        &self,
        beamlets: &StationBeamlets,
        mode: CentralMode,
    ) -> ccglib::Result<CentralOutput> {
        match mode {
            CentralMode::Incoherent => Ok(self.incoherent(beamlets)),
            CentralMode::Coherent => self.coherent(beamlets),
        }
    }

    fn incoherent(&self, beamlets: &StationBeamlets) -> CentralOutput {
        // Incoherent beamforming discards phase: one wide beam whose power
        // is the sum of station powers.  Every "beam" sees the same power.
        let n = beamlets.num_samples();
        let k = beamlets.num_stations();
        let mut per_sample = vec![0.0f64; n];
        for (sample, power) in per_sample.iter_mut().enumerate() {
            for station in 0..k {
                *power += f64::from(beamlets.matrix().get(station, sample).norm_sqr());
            }
            *power /= k as f64;
        }
        CentralOutput {
            power: vec![per_sample; self.num_beams()],
            complex_beams: None,
            report: None,
        }
    }

    /// Builds the tensor-core beamformer for one beamlet-block shape: the
    /// per-station weights are the `M × K` weight matrix, one block of
    /// beamlet samples is one `K × N` input.
    fn beamformer(&self, beamlets: &StationBeamlets) -> ccglib::Result<Beamformer> {
        Beamformer::new(
            &self.device,
            WeightMatrix::from_matrix(self.weights(beamlets)),
            beamlets.num_samples(),
            BeamformerConfig::float16(),
        )
    }

    fn output_from(&self, beams: HostComplexMatrix, report: RunReport) -> CentralOutput {
        let power = (0..self.num_beams())
            .map(|b| {
                (0..beams.cols())
                    .map(|s| f64::from(beams.get(b, s).norm_sqr()))
                    .collect()
            })
            .collect();
        CentralOutput {
            power,
            complex_beams: Some(beams),
            report: Some(report),
        }
    }

    fn coherent(&self, beamlets: &StationBeamlets) -> ccglib::Result<CentralOutput> {
        let output = self.beamformer(beamlets)?.beamform(beamlets.matrix())?;
        Ok(self.output_from(output.beams, output.report))
    }

    /// Streams a whole observation — consecutive beamlet blocks from the
    /// same station array — through **any streaming [`Engine`]**: a single
    /// device and a multi-GPU pool run the exact same code; only the
    /// engine construction differs.
    ///
    /// The station count and block length must stay constant over the
    /// stream, and the engine must currently hold the station weights of
    /// the first block ([`CentralBeamformer::weights`]).  Retunes — frequency or
    /// station-layout changes — recompute the weights and hot-swap them on
    /// every device of the engine, so the stream is processed as
    /// consecutive constant-tuning segments, each fanned out across the
    /// engine's whole topology.  Returns one [`CentralOutput`] per block,
    /// in observation order, plus a [`Report`] covering exactly this
    /// observation: the engine's accumulation is reset on entry (any
    /// report left on it from earlier use is discarded) and
    /// [`Engine::finish`] is called on return, so a reused engine starts
    /// its next run fresh.
    pub fn stream_coherent_with<E: Engine>(
        &self,
        engine: &mut E,
        blocks: &[StationBeamlets],
    ) -> ccglib::Result<(Vec<CentralOutput>, Report)> {
        let first = blocks
            .first()
            .ok_or_else(|| ccglib::CcglibError::ShapeMismatch {
                expected: "at least one beamlet block".to_string(),
                actual: "0 blocks".to_string(),
            })?;
        let _ = engine.finish();
        // The weights depend only on the observing frequency and the
        // station layout, so a retune is detected from that metadata — no
        // per-block weight recomputation while the observation is stable.
        let mut tuning = (first.frequency(), first.station_positions_m().to_vec());
        let mut outputs = Vec::with_capacity(blocks.len());
        let mut segment: Vec<&HostComplexMatrix> = Vec::new();
        let drain = |engine: &mut E,
                     segment: &mut Vec<&HostComplexMatrix>,
                     outputs: &mut Vec<CentralOutput>|
         -> ccglib::Result<()> {
            for output in engine.process_batch(segment)? {
                outputs.push(self.output_from(output.beams, output.report));
            }
            segment.clear();
            Ok(())
        };
        for block in blocks {
            if block.frequency() != tuning.0 || block.station_positions_m() != tuning.1 {
                drain(engine, &mut segment, &mut outputs)?;
                engine.swap_weights(WeightMatrix::from_matrix(self.weights(block)))?;
                tuning = (block.frequency(), block.station_positions_m().to_vec());
            }
            segment.push(block.matrix());
        }
        drain(engine, &mut segment, &mut outputs)?;
        Ok((outputs, engine.finish()))
    }

    /// Mean power of one beam over all samples.
    pub fn mean_beam_power(output: &CentralOutput, beam: usize) -> f64 {
        let series = &output.power[beam];
        series.iter().sum::<f64>() / series.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::station::SkySource;
    use beamform::ShardedBeamformer;
    use ccglib::reference_gemm;
    use gpu_sim::{DevicePool, Gpu};

    /// The float32 reference beamformer: the "current LOFAR beamformer kernel
    /// (without Tensor Cores) running in float32 precision" of Fig. 7.
    struct ReferenceBeamformer;

    impl ReferenceBeamformer {
        /// Coherently beamforms in full float32 precision on the host — the
        /// functional ground truth for the tensor-core output.
        fn beamform(
            weights: &HostComplexMatrix,
            beamlets: &StationBeamlets,
        ) -> ccglib::Result<HostComplexMatrix> {
            reference_gemm(weights, &beamlets.matrix().transposed())
        }
    }

    /// A one-device engine holding the station weights of `first`.
    fn single_engine(bf: &CentralBeamformer, first: &StationBeamlets) -> ShardedBeamformer {
        pool_engine(bf, first, &[bf.device.gpu()])
    }

    /// A pooled engine holding the station weights of `first`.
    fn pool_engine(
        bf: &CentralBeamformer,
        first: &StationBeamlets,
        gpus: &[Gpu],
    ) -> ShardedBeamformer {
        ShardedBeamformer::new(
            &DevicePool::from_gpus(gpus),
            WeightMatrix::from_matrix(bf.weights(first)),
            first.num_samples(),
            BeamformerConfig::float16(),
        )
        .unwrap()
    }

    const FREQ: f64 = 150e6;

    fn beamlets_with_source(azimuth: f64, stations: usize) -> StationBeamlets {
        StationBeamlets::synthesise(
            stations,
            32,
            FREQ,
            &[SkySource {
                azimuth,
                amplitude: 1.0,
            }],
            0.0,
            64,
            0.05,
            17,
        )
    }

    fn beam_grid() -> Vec<f64> {
        // Tied-array beams a few hundred micro-radians apart: the narrow
        // beams a kilometre-scale array synthesises.
        (0..7).map(|i| (i as f64 - 3.0) * 2e-4).collect()
    }

    #[test]
    fn coherent_beamformer_localises_the_source() {
        let beamlets = beamlets_with_source(2e-4, 24);
        let bf = CentralBeamformer::new(&Gpu::A100.device(), beam_grid());
        let output = bf.beamform(&beamlets, CentralMode::Coherent).unwrap();
        let powers: Vec<f64> = (0..bf.num_beams())
            .map(|b| CentralBeamformer::mean_beam_power(&output, b))
            .collect();
        let best = powers
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        // Beam index 4 looks at +2e-4 rad.
        assert_eq!(best, 4, "powers {powers:?}");
        assert!(output.report.is_some());
        assert!(output.complex_beams.is_some());
    }

    #[test]
    fn coherent_matches_float32_reference() {
        let beamlets = beamlets_with_source(0.0, 16);
        let bf = CentralBeamformer::new(&Gpu::Gh200.device(), beam_grid());
        let weights = bf.weights(&beamlets);
        let tensor = bf.beamform(&beamlets, CentralMode::Coherent).unwrap();
        let reference = ReferenceBeamformer::beamform(&weights, &beamlets).unwrap();
        let diff = tensor.complex_beams.unwrap().max_abs_diff(&reference);
        assert!(diff < 0.02, "difference {diff}");
    }

    #[test]
    fn streamed_observation_aggregates_and_hot_swaps_on_retune() {
        // Two blocks at one frequency, then the observation retunes: the
        // session recomputes and hot-swaps the station weights mid-stream.
        let make = |frequency: f64, seed: u64| {
            StationBeamlets::synthesise(
                16,
                32,
                frequency,
                &[SkySource {
                    azimuth: 1e-4,
                    amplitude: 1.0,
                }],
                0.0,
                32,
                0.05,
                seed,
            )
        };
        let blocks = vec![make(FREQ, 1), make(FREQ, 2), make(1.2 * FREQ, 3)];
        let bf = CentralBeamformer::new(&Gpu::A100.device(), beam_grid());
        let mut engine = single_engine(&bf, &blocks[0]);
        let (outputs, report) = bf.stream_coherent_with(&mut engine, &blocks).unwrap();
        assert_eq!(outputs.len(), 3);
        assert_eq!(report.total_blocks(), 3);
        assert_eq!(report.weight_swaps(), 1, "retune must swap weights once");
        // Session totals equal the sums over the per-block reports.
        let elapsed: f64 = outputs
            .iter()
            .map(|o| o.report.unwrap().predicted.elapsed_s)
            .sum();
        assert!((report.wall_clock_s() - elapsed).abs() < 1e-15);
        // A streamed block equals the one-shot path on the same data.
        let one_shot = bf.beamform(&blocks[0], CentralMode::Coherent).unwrap();
        assert_eq!(
            outputs[0].complex_beams.as_ref().unwrap(),
            one_shot.complex_beams.as_ref().unwrap()
        );
        // Empty observations are rejected.
        assert!(bf.stream_coherent_with(&mut engine, &[]).is_err());
    }

    #[test]
    fn sharded_observation_matches_the_single_device_stream() {
        let make = |frequency: f64, seed: u64| {
            StationBeamlets::synthesise(
                16,
                32,
                frequency,
                &[SkySource {
                    azimuth: 1e-4,
                    amplitude: 1.0,
                }],
                0.0,
                32,
                0.05,
                seed,
            )
        };
        // Five blocks with a retune after the third: the sharded session
        // must hot-swap weights on every member and keep outputs identical
        // to the single-device stream.
        let blocks = vec![
            make(FREQ, 1),
            make(FREQ, 2),
            make(FREQ, 3),
            make(1.1 * FREQ, 4),
            make(1.1 * FREQ, 5),
        ];
        let bf = CentralBeamformer::new(&Gpu::A100.device(), beam_grid());
        let (single, _) = bf
            .stream_coherent_with(&mut single_engine(&bf, &blocks[0]), &blocks)
            .unwrap();
        let mut pool = pool_engine(&bf, &blocks[0], &[Gpu::A100, Gpu::Gh200, Gpu::Mi300x]);
        let (sharded, report) = bf.stream_coherent_with(&mut pool, &blocks).unwrap();
        assert_eq!(sharded.len(), single.len());
        for (s, r) in sharded.iter().zip(&single) {
            assert_eq!(
                s.complex_beams.as_ref().unwrap(),
                r.complex_beams.as_ref().unwrap()
            );
        }
        assert_eq!(report.total_blocks(), 5);
        assert_eq!(report.weight_swaps(), 1);
        assert_eq!(report.per_device().len(), 3);
        assert!(report.aggregate_tops() > 0.0);
        // Empty observations are rejected, like the single-device path.
        assert!(bf.stream_coherent_with(&mut pool, &[]).is_err());
    }

    #[test]
    fn generic_engine_path_drives_any_topology_with_retunes() {
        // One generic implementation: drive it through `Box<dyn Engine>`
        // with a single-device engine and a pooled engine; both agree,
        // retune included.
        let make = |frequency: f64, seed: u64| {
            StationBeamlets::synthesise(
                12,
                24,
                frequency,
                &[SkySource {
                    azimuth: 1e-4,
                    amplitude: 1.0,
                }],
                0.0,
                32,
                0.05,
                seed,
            )
        };
        let blocks = vec![make(FREQ, 1), make(FREQ, 2), make(1.05 * FREQ, 3)];
        let bf = CentralBeamformer::new(&Gpu::A100.device(), beam_grid());
        let (reference, _) = bf
            .stream_coherent_with(&mut single_engine(&bf, &blocks[0]), &blocks)
            .unwrap();

        let mut engines: Vec<Box<dyn Engine>> = vec![
            Box::new(single_engine(&bf, &blocks[0])),
            Box::new(pool_engine(&bf, &blocks[0], &[Gpu::A100, Gpu::Gh200])),
        ];
        for engine in &mut engines {
            let (outputs, report) = bf.stream_coherent_with(engine, &blocks).unwrap();
            assert_eq!(outputs.len(), reference.len());
            for (o, r) in outputs.iter().zip(&reference) {
                assert_eq!(
                    o.complex_beams.as_ref().unwrap(),
                    r.complex_beams.as_ref().unwrap()
                );
            }
            assert_eq!(report.total_blocks(), 3);
            assert_eq!(report.weight_swaps(), 1);
        }
    }

    #[test]
    fn incoherent_beamformer_is_direction_insensitive_but_cheap() {
        let beamlets = beamlets_with_source(3e-4, 24);
        let bf = CentralBeamformer::new(&Gpu::A100.device(), beam_grid());
        let output = bf.beamform(&beamlets, CentralMode::Incoherent).unwrap();
        // Every beam has the same power: no localisation.
        let p0 = CentralBeamformer::mean_beam_power(&output, 0);
        let p6 = CentralBeamformer::mean_beam_power(&output, 6);
        assert!((p0 - p6).abs() < 1e-9);
        assert!(output.report.is_none());
    }

    #[test]
    fn coherent_beam_is_narrower_with_more_stations() {
        // Higher angular resolution with more stations: the power ratio
        // between the on-source beam and a neighbouring beam grows.
        let ratio = |stations: usize| -> f64 {
            let beamlets = beamlets_with_source(0.0, stations);
            let bf = CentralBeamformer::new(&Gpu::A100.device(), vec![0.0, 4e-4]);
            let output = bf.beamform(&beamlets, CentralMode::Coherent).unwrap();
            CentralBeamformer::mean_beam_power(&output, 0)
                / CentralBeamformer::mean_beam_power(&output, 1)
        };
        assert!(ratio(32) > ratio(8));
    }

    #[test]
    fn weights_have_unit_sum_magnitude() {
        let beamlets = beamlets_with_source(0.0, 12);
        let bf = CentralBeamformer::new(&Gpu::A100.device(), vec![0.0]);
        let weights = bf.weights(&beamlets);
        let sum: f32 = (0..12).map(|k| weights.get(0, k).abs()).sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }
}
