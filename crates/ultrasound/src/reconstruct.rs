//! Volume reconstruction on the Tensor-Core Beamformer.
//!
//! Reconstruction is the multiplication of the (matched-filter) model
//! matrix with the measurement matrix: `image[voxels × frames] =
//! Model[voxels × K] · Measurements[K × frames]`.  Doppler clutter removal
//! (subtracting the per-row temporal mean, i.e. the stationary tissue
//! signal) happens *before* the optional 1-bit sign quantisation, exactly
//! as Section V-A prescribes; the beamformed frames are then averaged in
//! magnitude and projected to produce the Fig. 6 maximum-intensity images.

use crate::model::AcousticModel;
use beamform::{Beamformer, BeamformerConfig, Engine, Report, WeightMatrix};
use ccglib::matrix::HostComplexMatrix;
use ccglib::{RunReport, TcbfError};
use gpu_sim::Device;
use serde::{Deserialize, Serialize};

/// Precision of the reconstruction GEMM.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReconstructionPrecision {
    /// 16-bit floating point (keeps amplitude information).
    Float16,
    /// 1-bit: only the sign of the (Doppler-filtered) signal is kept, in
    /// both the model and the measurement matrix — the memory-saving mode
    /// the paper explores.
    Int1,
}

/// Doppler (clutter-removal) processing applied to the measurements before
/// quantisation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DopplerMode {
    /// No clutter removal (stationary tissue dominates the image).
    None,
    /// Subtract the temporal mean of every measurement row across the
    /// ensemble, keeping only the changing (flow) part.
    MeanRemoval,
}

/// A reconstructed (sub)volume.
#[derive(Clone, Debug)]
pub struct ReconstructedVolume {
    /// Per-voxel flow intensity: the magnitude of the beamformed signal
    /// averaged over the ensemble frames.
    pub intensity: Vec<f64>,
    /// Grid dimensions `(nx, ny, nz)` if the voxel list was a regular grid.
    pub dims: (usize, usize, usize),
    /// Performance report of the reconstruction GEMM.
    pub report: RunReport,
}

impl ReconstructedVolume {
    /// Maximum-intensity projection along an axis (0 = x, 1 = y, 2 = z),
    /// returning a 2D image in row-major order together with its
    /// dimensions.  These are the three orthogonal projections of Fig. 6.
    pub fn max_intensity_projection(&self, axis: usize) -> (Vec<f64>, usize, usize) {
        let (nx, ny, nz) = self.dims;
        assert_eq!(
            nx * ny * nz,
            self.intensity.len(),
            "dims do not match voxel count"
        );
        let at = |ix: usize, iy: usize, iz: usize| self.intensity[(iz * ny + iy) * nx + ix];
        match axis {
            0 => {
                let mut img = vec![0.0; ny * nz];
                for iz in 0..nz {
                    for iy in 0..ny {
                        img[iz * ny + iy] = (0..nx).map(|ix| at(ix, iy, iz)).fold(0.0, f64::max);
                    }
                }
                (img, ny, nz)
            }
            1 => {
                let mut img = vec![0.0; nx * nz];
                for iz in 0..nz {
                    for ix in 0..nx {
                        img[iz * nx + ix] = (0..ny).map(|iy| at(ix, iy, iz)).fold(0.0, f64::max);
                    }
                }
                (img, nx, nz)
            }
            2 => {
                let mut img = vec![0.0; nx * ny];
                for iy in 0..ny {
                    for ix in 0..nx {
                        img[iy * nx + ix] = (0..nz).map(|iz| at(ix, iy, iz)).fold(0.0, f64::max);
                    }
                }
                (img, nx, ny)
            }
            _ => panic!("axis must be 0, 1 or 2"),
        }
    }
}

/// The reconstruction engine: a thin ultrasound-specific wrapper around
/// the ccglib GEMM, as the paper describes the application layer.
pub struct Reconstructor {
    device: Device,
    precision: ReconstructionPrecision,
    doppler: DopplerMode,
}

impl Reconstructor {
    /// Creates a reconstructor.
    pub fn new(device: &Device, precision: ReconstructionPrecision, doppler: DopplerMode) -> Self {
        Reconstructor {
            device: device.clone(),
            precision,
            doppler,
        }
    }

    /// Applies Doppler clutter removal to a `K × frames` measurement
    /// matrix.
    pub(crate) fn apply_doppler(&self, measurements: &HostComplexMatrix) -> HostComplexMatrix {
        match self.doppler {
            DopplerMode::None => measurements.clone(),
            DopplerMode::MeanRemoval => {
                let k = measurements.rows();
                let frames = measurements.cols();
                let mut out = HostComplexMatrix::zeros(k, frames);
                for row in 0..k {
                    let mean = (0..frames)
                        .map(|f| measurements.get(row, f))
                        .fold(tcbf_types::Complex32::ZERO, |a, b| a + b)
                        .scale(1.0 / frames as f32);
                    for f in 0..frames {
                        out.set(row, f, measurements.get(row, f) - mean);
                    }
                }
                out
            }
        }
    }

    /// The beamformer configuration this reconstructor's precision maps
    /// to.
    fn config(&self) -> BeamformerConfig {
        match self.precision {
            ReconstructionPrecision::Int1 => BeamformerConfig::int1(),
            ReconstructionPrecision::Float16 => BeamformerConfig::float16(),
        }
    }

    /// Builds the beamformer for one model/ensemble shape: the model matrix
    /// is the `voxels × K` weight matrix of the GEMM, one ensemble of
    /// `frames` measurements is one sample block.
    fn beamformer(&self, model: &AcousticModel, frames: usize) -> ccglib::Result<Beamformer> {
        Beamformer::new(
            &self.device,
            WeightMatrix::from_matrix(model.matrix().clone()),
            frames,
            self.config(),
        )
    }

    /// Doppler-filters one ensemble and, in float16 mode, normalises it:
    /// half precision has a narrow dynamic range, so the measurements are
    /// scaled to keep the accumulations well inside it.
    fn prepare(&self, measurements: &HostComplexMatrix, k: usize) -> HostComplexMatrix {
        let filtered = self.apply_doppler(measurements);
        match self.precision {
            ReconstructionPrecision::Int1 => filtered,
            ReconstructionPrecision::Float16 => {
                let scale = 1.0 / (k as f32).sqrt();
                HostComplexMatrix::from_fn(filtered.rows(), filtered.cols(), |r, c| {
                    filtered.get(r, c).scale(scale)
                })
            }
        }
    }

    /// Folds one beamformed ensemble into a volume: flow intensity is the
    /// mean magnitude over the ensemble (the paper averages the magnitude
    /// of the complex beamformed signal along the frames).
    fn volume_from(
        beamformed: &HostComplexMatrix,
        dims: (usize, usize, usize),
        report: RunReport,
    ) -> ReconstructedVolume {
        let (voxels, frames) = (beamformed.rows(), beamformed.cols());
        let intensity = (0..voxels)
            .map(|v| {
                (0..frames)
                    .map(|f| f64::from(beamformed.get(v, f).abs()))
                    .sum::<f64>()
                    / frames as f64
            })
            .collect();
        ReconstructedVolume {
            intensity,
            dims,
            report,
        }
    }

    /// Reconstructs a volume from a model and a `K × frames` measurement
    /// matrix, returning per-voxel flow intensity plus the GEMM report.
    ///
    /// `dims` are the grid dimensions of the model's voxel list (used for
    /// the projections).
    pub fn reconstruct(
        &self,
        model: &AcousticModel,
        measurements: &HostComplexMatrix,
        dims: (usize, usize, usize),
    ) -> ccglib::Result<ReconstructedVolume> {
        let beamformer = self.beamformer(model, measurements.cols())?;
        let block = self.prepare(measurements, model.config().k_rows());
        let output = beamformer.beamform(&block)?;
        Ok(Self::volume_from(&output.beams, dims, output.report))
    }

    /// Reconstructs a stream of measurement ensembles (continuous imaging:
    /// one acquisition after another against the same model) through **any
    /// streaming [`Engine`]** — a single device and a multi-GPU pool run
    /// the exact same code; only the engine construction differs.
    ///
    /// Each ensemble is Doppler-filtered (and, in float16 mode,
    /// normalised) before quantisation, then streamed as one block.  The
    /// whole stream is prepared up front so the engine can fan it out in
    /// one call — peak memory is the input stream plus one prepared copy
    /// of it; chunk very long acquisitions into several calls if that
    /// matters.  The
    /// engine must have been built on this model's matrix as weights, the
    /// ensembles' frame count as block length, and this reconstructor's
    /// precision.  The volumes come back in acquisition order — the result
    /// is element-wise independent of the engine's topology — together
    /// with a [`Report`] covering exactly this stream: the engine's
    /// accumulation is reset on entry (any report left on it from earlier
    /// use is discarded) and [`Engine::finish`] is called on return, so a
    /// reused engine starts its next run fresh.
    pub fn reconstruct_stream_with<E: Engine>(
        &self,
        engine: &mut E,
        model: &AcousticModel,
        ensembles: &[HostComplexMatrix],
        dims: (usize, usize, usize),
    ) -> ccglib::Result<(Vec<ReconstructedVolume>, Report)> {
        if ensembles.is_empty() {
            return Err(TcbfError::ShapeMismatch {
                expected: "at least one measurement ensemble".to_string(),
                actual: "0 ensembles".to_string(),
            });
        }
        let _ = engine.finish();
        let prepared: Vec<HostComplexMatrix> = ensembles
            .iter()
            .map(|ensemble| self.prepare(ensemble, model.config().k_rows()))
            .collect();
        let refs: Vec<&HostComplexMatrix> = prepared.iter().collect();
        let outputs = engine.process_batch(&refs)?;
        let volumes = outputs
            .into_iter()
            .map(|output| Self::volume_from(&output.beams, dims, output.report))
            .collect();
        Ok((volumes, engine.finish()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ImagingConfig;
    use crate::phantom::FlowPhantom;
    use beamform::ShardedBeamformer;
    use gpu_sim::{DevicePool, Gpu};

    /// A one-device engine on the reconstructor's device and precision.
    fn single_engine(
        rec: &Reconstructor,
        model: &AcousticModel,
        frames: usize,
    ) -> ShardedBeamformer {
        ShardedBeamformer::new(
            &DevicePool::from_gpus(&[rec.device.gpu()]),
            WeightMatrix::from_matrix(model.matrix().clone()),
            frames,
            rec.config(),
        )
        .unwrap()
    }

    fn setup(
        precision: ReconstructionPrecision,
    ) -> (
        AcousticModel,
        HostComplexMatrix,
        (usize, usize, usize),
        FlowPhantom,
    ) {
        let config = ImagingConfig::small(16, 8, 4);
        let dims = (9, 9, 6);
        let voxels = ImagingConfig::voxel_grid(dims.0, dims.1, dims.2, 0.008, 0.02);
        let model = AcousticModel::build(&config, &voxels);
        let phantom = FlowPhantom::two_vessels(0.008, 0.02);
        let measurements = phantom.measurements(&model, 12);
        let _ = precision;
        (model, measurements, dims, phantom)
    }

    #[test]
    fn doppler_mean_removal_suppresses_stationary_signal() {
        let (model, measurements, _, _) = setup(ReconstructionPrecision::Float16);
        let rec = Reconstructor::new(
            &Gpu::A100.device(),
            ReconstructionPrecision::Float16,
            DopplerMode::MeanRemoval,
        );
        let filtered = rec.apply_doppler(&measurements);
        // Power drops dramatically because the tissue signal is constant.
        let power = |m: &HostComplexMatrix| -> f64 {
            let mut p = 0.0;
            for r in 0..m.rows() {
                for c in 0..m.cols() {
                    p += f64::from(m.get(r, c).norm_sqr());
                }
            }
            p
        };
        assert!(power(&filtered) < 0.1 * power(&measurements));
        drop(model);
    }

    #[test]
    fn float16_reconstruction_highlights_the_vessels() {
        let (model, measurements, dims, phantom) = setup(ReconstructionPrecision::Float16);
        let rec = Reconstructor::new(
            &Gpu::A100.device(),
            ReconstructionPrecision::Float16,
            DopplerMode::MeanRemoval,
        );
        let volume = rec.reconstruct(&model, &measurements, dims).unwrap();
        let mask = phantom.vessel_mask(model.voxels());
        let mean = |selector: bool| -> f64 {
            let values: Vec<f64> = volume
                .intensity
                .iter()
                .zip(&mask)
                .filter(|(_, &m)| m == selector)
                .map(|(v, _)| *v)
                .collect();
            values.iter().sum::<f64>() / values.len() as f64
        };
        let vessel_mean = mean(true);
        let background_mean = mean(false);
        assert!(
            vessel_mean > 2.0 * background_mean,
            "vessel {vessel_mean} vs background {background_mean}"
        );
    }

    #[test]
    fn one_bit_reconstruction_still_highlights_the_vessels() {
        // The paper's point: after Doppler processing, keeping only the
        // sign still yields usable images.
        let (model, measurements, dims, phantom) = setup(ReconstructionPrecision::Int1);
        let rec = Reconstructor::new(
            &Gpu::Gh200.device(),
            ReconstructionPrecision::Int1,
            DopplerMode::MeanRemoval,
        );
        let volume = rec.reconstruct(&model, &measurements, dims).unwrap();
        let mask = phantom.vessel_mask(model.voxels());
        let vessel: Vec<f64> = volume
            .intensity
            .iter()
            .zip(&mask)
            .filter(|(_, &m)| m)
            .map(|(v, _)| *v)
            .collect();
        let background: Vec<f64> = volume
            .intensity
            .iter()
            .zip(&mask)
            .filter(|(_, &m)| !m)
            .map(|(v, _)| *v)
            .collect();
        let vessel_mean = vessel.iter().sum::<f64>() / vessel.len() as f64;
        let background_mean = background.iter().sum::<f64>() / background.len() as f64;
        assert!(
            vessel_mean > 1.3 * background_mean,
            "vessel {vessel_mean} vs background {background_mean}"
        );
        assert_eq!(volume.report.bit_op, Some(gpu_sim::BitOp::And));
    }

    #[test]
    fn without_doppler_the_sign_path_loses_the_flow() {
        // "the Doppler processing is done before extracting the sign.
        // Otherwise, the Doppler signal will be lost in the dominant
        // stationary signals."  With clutter removal disabled, the 1-bit
        // image no longer separates vessels from background as well.
        let (model, measurements, dims, phantom) = setup(ReconstructionPrecision::Int1);
        let mask = phantom.vessel_mask(model.voxels());
        let contrast = |volume: &ReconstructedVolume| -> f64 {
            let vessel: Vec<f64> = volume
                .intensity
                .iter()
                .zip(&mask)
                .filter(|(_, &m)| m)
                .map(|(v, _)| *v)
                .collect();
            let background: Vec<f64> = volume
                .intensity
                .iter()
                .zip(&mask)
                .filter(|(_, &m)| !m)
                .map(|(v, _)| *v)
                .collect();
            (vessel.iter().sum::<f64>() / vessel.len() as f64)
                / (background.iter().sum::<f64>() / background.len() as f64)
        };
        let with_doppler = Reconstructor::new(
            &Gpu::A100.device(),
            ReconstructionPrecision::Int1,
            DopplerMode::MeanRemoval,
        )
        .reconstruct(&model, &measurements, dims)
        .unwrap();
        let without_doppler = Reconstructor::new(
            &Gpu::A100.device(),
            ReconstructionPrecision::Int1,
            DopplerMode::None,
        )
        .reconstruct(&model, &measurements, dims)
        .unwrap();
        assert!(
            contrast(&with_doppler) > contrast(&without_doppler),
            "doppler {} vs none {}",
            contrast(&with_doppler),
            contrast(&without_doppler)
        );
    }

    #[test]
    fn streaming_reconstruction_matches_one_shot_and_aggregates() {
        let (model, measurements, dims, _) = setup(ReconstructionPrecision::Int1);
        let rec = Reconstructor::new(
            &Gpu::Gh200.device(),
            ReconstructionPrecision::Int1,
            DopplerMode::MeanRemoval,
        );
        let ensembles = vec![measurements.clone(), measurements.clone()];
        let mut engine = single_engine(&rec, &model, measurements.cols());
        let (volumes, report) = rec
            .reconstruct_stream_with(&mut engine, &model, &ensembles, dims)
            .unwrap();
        assert_eq!(volumes.len(), 2);
        assert_eq!(report.total_blocks(), 2);
        // Same data through the session equals the one-shot path.
        let one_shot = rec.reconstruct(&model, &measurements, dims).unwrap();
        assert_eq!(volumes[0].intensity, one_shot.intensity);
        // The session totals are the sums of the per-ensemble reports.
        let elapsed: f64 = volumes.iter().map(|v| v.report.predicted.elapsed_s).sum();
        assert!((report.wall_clock_s() - elapsed).abs() < 1e-15);
        assert!(report.aggregate_tops() > 0.0);
        // Empty streams are rejected.
        assert!(rec
            .reconstruct_stream_with(&mut engine, &model, &[], dims)
            .is_err());
    }

    #[test]
    fn sharded_reconstruction_matches_single_device_and_keeps_order() {
        let (model, measurements, dims, _) = setup(ReconstructionPrecision::Float16);
        let rec = Reconstructor::new(
            &Gpu::A100.device(),
            ReconstructionPrecision::Float16,
            DopplerMode::MeanRemoval,
        );
        // Four distinguishable acquisitions so order mix-ups would show.
        let ensembles: Vec<HostComplexMatrix> = (0..4)
            .map(|i| {
                HostComplexMatrix::from_fn(measurements.rows(), measurements.cols(), |r, c| {
                    measurements.get(r, c).scale(1.0 + 0.2 * i as f32)
                })
            })
            .collect();
        let frames = measurements.cols();
        let (single, _) = rec
            .reconstruct_stream_with(
                &mut single_engine(&rec, &model, frames),
                &model,
                &ensembles,
                dims,
            )
            .unwrap();
        let mut pool = ShardedBeamformer::new(
            &DevicePool::from_gpus(&[Gpu::A100, Gpu::Mi210]),
            WeightMatrix::from_matrix(model.matrix().clone()),
            frames,
            rec.config(),
        )
        .unwrap();
        let (sharded, report) = rec
            .reconstruct_stream_with(&mut pool, &model, &ensembles, dims)
            .unwrap();
        assert_eq!(sharded.len(), 4);
        for (s, r) in sharded.iter().zip(&single) {
            assert_eq!(s.intensity, r.intensity);
        }
        assert_eq!(report.total_blocks(), 4);
        assert_eq!(report.per_device().len(), 2);
        assert!(report.aggregate_tops() > 0.0);
        // Empty streams are rejected, like the single-device path.
        assert!(rec
            .reconstruct_stream_with(&mut pool, &model, &[], dims)
            .is_err());
    }

    #[test]
    fn generic_engine_path_is_topology_independent_and_reusable() {
        // One generic implementation: a finished engine can be reused for
        // a fresh run and reports only that run.
        let (model, measurements, dims, _) = setup(ReconstructionPrecision::Float16);
        let rec = Reconstructor::new(
            &Gpu::A100.device(),
            ReconstructionPrecision::Float16,
            DopplerMode::MeanRemoval,
        );
        let ensembles = vec![measurements.clone(), measurements];
        let mut engine = single_engine(&rec, &model, ensembles[0].cols());
        let (reference, _) = rec
            .reconstruct_stream_with(&mut engine, &model, &ensembles, dims)
            .unwrap();
        for _ in 0..2 {
            let (volumes, report) = rec
                .reconstruct_stream_with(&mut engine, &model, &ensembles, dims)
                .unwrap();
            assert_eq!(volumes.len(), 2);
            for (v, r) in volumes.iter().zip(&reference) {
                assert_eq!(v.intensity, r.intensity);
            }
            // finish() resets the engine, so each run reports only itself.
            assert_eq!(report.total_blocks(), 2);
            assert_eq!(report.per_device().len(), 1);
        }
        // Activity accumulated on the engine *outside* the entry point is
        // discarded on entry: the returned report covers exactly the run.
        let prepared = rec.prepare(&ensembles[0], model.config().k_rows());
        engine.process_batch(&[&prepared]).unwrap();
        let (_, report) = rec
            .reconstruct_stream_with(&mut engine, &model, &ensembles, dims)
            .unwrap();
        assert_eq!(report.total_blocks(), 2);
    }

    #[test]
    fn projections_have_the_right_dimensions_and_peaks() {
        let (model, measurements, dims, _) = setup(ReconstructionPrecision::Float16);
        let rec = Reconstructor::new(
            &Gpu::A100.device(),
            ReconstructionPrecision::Float16,
            DopplerMode::MeanRemoval,
        );
        let volume = rec.reconstruct(&model, &measurements, dims).unwrap();
        let (sagittal, w0, h0) = volume.max_intensity_projection(0);
        assert_eq!((w0, h0), (dims.1, dims.2));
        assert_eq!(sagittal.len(), dims.1 * dims.2);
        let (coronal, w1, h1) = volume.max_intensity_projection(1);
        assert_eq!((w1, h1), (dims.0, dims.2));
        let (axial, w2, h2) = volume.max_intensity_projection(2);
        assert_eq!((w2, h2), (dims.0, dims.1));
        // Projections never exceed the volume maximum and are non-negative.
        let vmax = volume.intensity.iter().cloned().fold(0.0, f64::max);
        for img in [&sagittal, &coronal, &axial] {
            assert!(img.iter().all(|&v| v >= 0.0 && v <= vmax + 1e-12));
        }
    }
}
