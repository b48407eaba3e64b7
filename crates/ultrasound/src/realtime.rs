//! Real-time frame-rate analysis (Fig. 5) and the offline-dataset
//! comparison of Section V-A.
//!
//! The real-time constraint: with a pulse-echo repetition frequency of
//! 32 kHz and 32 transmissions per frame, data arrive at 1000 frames per
//! second, so reconstruction must sustain at least that rate.  Fig. 5 plots
//! the sustainable frame rate against the number of reconstructed voxels —
//! from three orthogonal 128×128 planes up to the full 128³ volume — for
//! the AD4000, A100 and GH200.  The processing includes the 1-bit packing
//! and transpose of the measurement matrix (the model matrix is packed once
//! before the experiment and excluded, as in the paper).
//!
//! Device memory is the practical limit for the full volume: the packed
//! model matrix for 128³ voxels does not fit on any of the boards, so the
//! volume is processed in sub-volume chunks exactly as the real pipeline
//! shrinks the problem "to either a smaller sub-volume … or several
//! orthogonal planes"; the chunking is accounted for in the predicted rate.

use crate::model::ImagingConfig;
use beamform::StreamReport;
use ccglib::{pack, transpose, Gemm, Precision};
use gpu_sim::{Device, ExecutionModel};
use serde::{Deserialize, Serialize};
use tcbf_types::GemmShape;

/// Frame rate required for real-time imaging feedback (frames per second).
pub const REAL_TIME_FPS: f64 = 1000.0;

/// One point of the Fig. 5 curve.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FrameRatePoint {
    /// Number of voxels reconstructed per frame.
    pub voxels: usize,
    /// Sustainable frame rate in frames per second.
    pub frames_per_second: f64,
    /// Whether the rate meets the real-time requirement.
    pub real_time: bool,
}

/// Frame-rate model for one device and imaging configuration.
#[derive(Clone)]
pub struct FrameRateModel {
    device: Device,
    config: ImagingConfig,
    precision: Precision,
    /// Number of frames processed per batch (the ensemble is processed in
    /// blocks; the paper uses ensembles of ~8000 frames).
    pub frames_per_batch: usize,
}

impl FrameRateModel {
    /// Creates the model with the paper's real-time configuration and
    /// 1-bit precision.
    pub fn paper(device: &Device) -> Self {
        FrameRateModel {
            device: device.clone(),
            config: ImagingConfig::paper_realtime(),
            precision: Precision::Int1,
            frames_per_batch: 1000,
        }
    }

    /// Creates a model with an explicit configuration and precision.
    pub fn new(
        device: &Device,
        config: ImagingConfig,
        precision: Precision,
        frames_per_batch: usize,
    ) -> Self {
        FrameRateModel {
            device: device.clone(),
            config,
            precision,
            frames_per_batch,
        }
    }

    /// Largest number of voxels whose packed model matrix, together with
    /// one batch of measurements and output, fits in device memory.
    fn voxels_per_chunk(&self, total_voxels: usize) -> usize {
        let spec = self.device.spec();
        let available = (spec.mem_size_gib * 1024.0 * 1024.0 * 1024.0 * 0.9) as u128;
        let k = self.config.k_rows() as u128;
        let n = self.frames_per_batch as u128;
        let bits = self.precision.input_bits() as u128;
        // Measurements + output are independent of the chunk size.
        let fixed = k * n * 2 * bits / 8 + n * 8 * total_voxels.min(1) as u128;
        let per_voxel = k * 2 * bits / 8 + n * 8;
        let budget = available.saturating_sub(fixed).max(1);
        ((budget / per_voxel) as usize).clamp(1, total_voxels)
    }

    /// Sustainable frame rate for a given number of voxels per frame.
    ///
    /// The time per batch is the sum of the measurement packing and
    /// transpose kernels plus the reconstruction GEMM (split into chunks if
    /// the model does not fit in device memory); the rate is
    /// `frames_per_batch / batch_time`.
    pub fn frames_per_second(&self, voxels: usize) -> f64 {
        let exec = ExecutionModel::new(self.device.spec().clone());
        let k = self.config.k_rows();
        let n = self.frames_per_batch;

        // Packing + transpose of the measurement matrix (K × N), from
        // 16-bit samples to packed bits.  The model matrix is prepared once
        // before the experiment and is excluded, as in the paper.
        let mut batch_time = 0.0;
        if self.precision == Precision::Int1 {
            batch_time += exec.time(&pack::pack_profile(k, n, 16)).elapsed_s;
        }
        batch_time += exec
            .time(&transpose::transpose_profile(
                k,
                n,
                self.precision.input_bits(),
            ))
            .elapsed_s;

        // Reconstruction GEMM, chunked over voxels if necessary.
        let chunk = self.voxels_per_chunk(voxels);
        let full_chunks = voxels / chunk;
        let remainder = voxels % chunk;
        let mut gemm_time = 0.0;
        for (count, size) in [
            (full_chunks, chunk),
            (usize::from(remainder > 0), remainder),
        ] {
            if count == 0 || size == 0 {
                continue;
            }
            let shape = GemmShape::new(size, n, k);
            let gemm = Gemm::new(&self.device, shape, self.precision)
                .expect("chunk sized to fit in device memory");
            gemm_time += count as f64 * gemm.predict().predicted.elapsed_s;
        }
        batch_time += gemm_time;
        self.frames_per_batch as f64 / batch_time
    }

    /// Simulates a continuous real-time run — `batches` consecutive batches
    /// of `frames_per_batch` frames streamed through the reconstruction
    /// GEMM — and returns the aggregate [`StreamReport`] of the stream
    /// (one block = one batch of frames).
    ///
    /// Only the GEMM stage is accounted (the report is built from the
    /// per-chunk kernel predictions); the packing/transpose overhead that
    /// [`FrameRateModel::frames_per_second`] adds on top is not part of a
    /// [`ccglib::RunReport`], so the stream's batch rate (`blocks` over
    /// `total_elapsed_s`) is an upper bound on the sustainable rate.
    pub fn streaming_report(&self, voxels: usize, batches: usize) -> StreamReport {
        if voxels == 0 || batches == 0 {
            return StreamReport::default();
        }
        let k = self.config.k_rows();
        let n = self.frames_per_batch;
        let chunk = self.voxels_per_chunk(voxels);
        let full_chunks = voxels / chunk;
        let remainder = voxels % chunk;
        // One plan (and one deterministic prediction) per chunk shape,
        // reused across every batch of the stream.
        let chunk_runs: Vec<(usize, GemmShape, ccglib::RunReport)> = [
            (full_chunks, chunk),
            (usize::from(remainder > 0), remainder),
        ]
        .into_iter()
        .filter(|&(count, size)| count > 0 && size > 0)
        .map(|(count, size)| {
            let shape = GemmShape::new(size, n, k);
            let gemm = Gemm::new(&self.device, shape, self.precision)
                .expect("chunk sized to fit in device memory");
            (count, shape, gemm.predict())
        })
        .collect();
        let mut report = StreamReport::default();
        for _ in 0..batches {
            let mut first_of_batch = true;
            for (count, shape, predicted) in &chunk_runs {
                for _ in 0..*count {
                    // The whole batch counts as one streamed block; credit
                    // it to the batch's first chunk execution.
                    let blocks = usize::from(first_of_batch);
                    first_of_batch = false;
                    report.record(predicted, shape.complex_ops() as f64, blocks);
                }
            }
        }
        report
    }

    /// Sweeps the Fig. 5 voxel counts: three orthogonal `plane_size²`
    /// planes up to the full `plane_size³` volume, in `steps` logarithmic
    /// steps.
    pub fn sweep(&self, plane_size: usize, steps: usize) -> Vec<FrameRatePoint> {
        let min_voxels = 3 * plane_size * plane_size;
        let max_voxels = plane_size * plane_size * plane_size;
        let mut points = Vec::with_capacity(steps);
        for i in 0..steps {
            let t = i as f64 / (steps.max(2) - 1) as f64;
            let voxels = (min_voxels as f64 * (max_voxels as f64 / min_voxels as f64).powf(t))
                .round() as usize;
            let fps = self.frames_per_second(voxels);
            points.push(FrameRatePoint {
                voxels,
                frames_per_second: fps,
                real_time: fps >= REAL_TIME_FPS,
            });
        }
        points
    }

    /// The largest number of voxels this device can reconstruct in real
    /// time (by bisection over the voxel count).
    pub fn real_time_voxel_capacity(&self, max_voxels: usize) -> usize {
        let mut lo = 1usize;
        let mut hi = max_voxels;
        if self.frames_per_second(hi) >= REAL_TIME_FPS {
            return hi;
        }
        while hi - lo > (max_voxels / 200).max(1) {
            let mid = (lo + hi) / 2;
            if self.frames_per_second(mid) >= REAL_TIME_FPS {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Result of the offline (pre-recorded dataset) comparison of Section V-A.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct OfflineComparison {
    /// Predicted TCBF (1-bit) processing time in seconds.
    pub tcbf_seconds: f64,
    /// Predicted float32 Octave/OpenCL-style baseline time in seconds.
    pub baseline_seconds: f64,
    /// Speed-up factor.
    pub speedup: f64,
    /// The real-time budget the paper quotes (8 s for an ensemble of 8000
    /// frames at 1000 frames/s).
    pub real_time_budget_seconds: f64,
}

/// Efficiency of the Octave + OpenCL float32 baseline relative to the FP32
/// peak.  Octave dispatches un-fused kernels through OpenCL and reaches
/// only a few percent of peak; this value makes the modelled baseline match
/// the ~15 minutes the paper measured on an A100.
pub(crate) const OCTAVE_BASELINE_EFFICIENCY: f64 = 0.08;

/// Computes the offline comparison for the paper's pre-recorded dataset
/// shape (`M = 38880` voxels, `N = 8041` frames, `K = 524288`) on a device.
pub fn offline_comparison(device: &Device) -> OfflineComparison {
    offline_comparison_for(device, GemmShape::new(38_880, 8_041, 524_288))
}

/// Offline comparison for an arbitrary reconstruction shape.
pub(crate) fn offline_comparison_for(device: &Device, shape: GemmShape) -> OfflineComparison {
    let spec = device.spec();
    let exec = ExecutionModel::new(spec.clone());

    // TCBF path: pack + transpose the measurement matrix, then the 1-bit
    // GEMM (chunked over voxels if the model does not fit in memory).
    let mut tcbf_seconds = exec
        .time(&pack::pack_profile(shape.k, shape.n, 16))
        .elapsed_s
        + exec
            .time(&transpose::transpose_profile(shape.k, shape.n, 1))
            .elapsed_s;
    let model = FrameRateModel::new(
        device,
        ImagingConfig::paper_offline(),
        Precision::Int1,
        shape.n,
    );
    let chunk = model.voxels_per_chunk(shape.m);
    let chunks = shape.m.div_ceil(chunk);
    let per_chunk_shape = GemmShape::new(shape.m.div_ceil(chunks), shape.n, shape.k);
    let gemm = Gemm::new(device, per_chunk_shape, Precision::Int1)
        .expect("chunk sized to fit in device memory");
    tcbf_seconds += chunks as f64 * gemm.predict().predicted.elapsed_s;

    // Baseline: float32 on the regular cores at Octave-class efficiency.
    let baseline_profile =
        ccglib::reference::reference_profile(spec, &shape, OCTAVE_BASELINE_EFFICIENCY);
    let baseline_seconds = exec.time(&baseline_profile).elapsed_s;

    OfflineComparison {
        tcbf_seconds,
        baseline_seconds,
        speedup: baseline_seconds / tcbf_seconds,
        real_time_budget_seconds: 8.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Gpu;

    #[test]
    fn planes_are_real_time_full_volume_is_not() {
        // Fig. 5: all three GPUs sustain three orthogonal planes in real
        // time; none sustains the full 128³ volume.
        for gpu in [Gpu::Ad4000, Gpu::A100, Gpu::Gh200] {
            let model = FrameRateModel::paper(&gpu.device());
            let planes = model.frames_per_second(3 * 128 * 128);
            assert!(planes > REAL_TIME_FPS, "{gpu}: planes at {planes} fps");
            let full = model.frames_per_second(128 * 128 * 128);
            assert!(full < REAL_TIME_FPS, "{gpu}: full volume at {full} fps");
        }
    }

    #[test]
    fn gh200_handles_most_of_the_volume_a100_less_ad4000_least() {
        let full = 128 * 128 * 128;
        let capacity = |gpu: Gpu| {
            FrameRateModel::paper(&gpu.device()).real_time_voxel_capacity(full) as f64 / full as f64
        };
        let gh200 = capacity(Gpu::Gh200);
        let a100 = capacity(Gpu::A100);
        let ad4000 = capacity(Gpu::Ad4000);
        // The paper: the GH200 processes ~85% of the voxels in real time.
        assert!((0.6..1.0).contains(&gh200), "GH200 fraction {gh200}");
        assert!(gh200 > a100, "GH200 {gh200} vs A100 {a100}");
        assert!(a100 > ad4000, "A100 {a100} vs AD4000 {ad4000}");
    }

    #[test]
    fn halving_frequencies_enables_full_volume_on_a100_and_gh200() {
        // "Reducing for example the number of frequencies from 128 to 64
        // would make real-time processing of the full data volume possible
        // for both the A100 and GH200."
        let mut config = ImagingConfig::paper_realtime();
        config.num_frequencies = 64;
        for gpu in [Gpu::A100, Gpu::Gh200] {
            let model = FrameRateModel::new(&gpu.device(), config.clone(), Precision::Int1, 1000);
            let fps = model.frames_per_second(128 * 128 * 128);
            assert!(fps >= REAL_TIME_FPS, "{gpu}: {fps} fps with 64 frequencies");
        }
    }

    #[test]
    fn sweep_is_monotonically_decreasing_in_voxels() {
        let model = FrameRateModel::paper(&Gpu::A100.device());
        let points = model.sweep(128, 8);
        assert_eq!(points.len(), 8);
        for pair in points.windows(2) {
            assert!(pair[0].voxels < pair[1].voxels);
            assert!(pair[0].frames_per_second >= pair[1].frames_per_second);
        }
        assert!(points[0].real_time);
        assert!(!points[7].real_time);
    }

    #[test]
    fn streaming_report_aggregates_the_frame_loop() {
        let model = FrameRateModel::paper(&Gpu::A100.device());
        let voxels = 3 * 128 * 128;
        let report = model.streaming_report(voxels, 4);
        assert_eq!(report.blocks, 4);
        assert!(report.executions >= 4);
        assert!(report.total_elapsed_s > 0.0);
        assert!(report.total_joules > 0.0);
        assert!(report.aggregate_tops() > 0.0);
        assert!(report.worst_tops() <= report.mean_tops());
        // The GEMM-only batch rate bounds the full-pipeline frame rate
        // (which adds packing and transpose on top).
        let fps = model.frames_per_second(voxels);
        let batches_per_s = report.blocks as f64 / report.total_elapsed_s;
        let gemm_only_fps = batches_per_s * model.frames_per_batch as f64;
        assert!(
            gemm_only_fps >= fps,
            "GEMM-only {gemm_only_fps} vs full pipeline {fps}"
        );
        // Degenerate streams produce an empty report instead of panicking.
        assert_eq!(model.streaming_report(0, 4), StreamReport::default());
        assert_eq!(model.streaming_report(voxels, 0), StreamReport::default());
    }

    #[test]
    fn offline_dataset_is_far_faster_than_the_octave_baseline() {
        // Section V-A: TCBF processes the pre-recorded dataset in ~1.2 s,
        // well within the 8 s budget; the Octave float32 baseline takes
        // ~15 minutes; the TCBF is nearly three orders of magnitude faster.
        let comparison = offline_comparison(&Gpu::A100.device());
        assert!(
            comparison.tcbf_seconds < comparison.real_time_budget_seconds,
            "TCBF takes {} s",
            comparison.tcbf_seconds
        );
        assert!(comparison.tcbf_seconds > 0.05);
        assert!(
            (300.0..2400.0).contains(&comparison.baseline_seconds),
            "baseline {} s",
            comparison.baseline_seconds
        );
        assert!(comparison.speedup > 100.0, "speedup {}", comparison.speedup);
    }

    #[test]
    fn chunking_keeps_each_chunk_within_device_memory() {
        let model = FrameRateModel::paper(&Gpu::Ad4000.device());
        let chunk = model.voxels_per_chunk(128 * 128 * 128);
        assert!(chunk >= 1);
        assert!(chunk < 128 * 128 * 128, "AD4000 cannot hold the full model");
        // The chunk's operands must actually fit (plan creation succeeds).
        let shape = GemmShape::new(chunk, 1000, ImagingConfig::paper_realtime().k_rows());
        assert!(Gemm::new(&Gpu::Ad4000.device(), shape, Precision::Int1).is_ok());
    }
}
