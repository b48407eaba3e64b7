//! Computational ultrasound imaging example: build a synthetic flow
//! phantom, reconstruct a stream of acquisitions with the 1-bit
//! tensor-core path (Doppler processing before sign extraction) **sharded
//! across a two-GPU pool**, print maximum-intensity projections, plus the
//! real-time frame-rate analysis of Fig. 5.
//!
//! The acquisitions stream through the unified `Engine` API: the builder's
//! `.devices(&[...])` picks the device pool and the generic
//! `reconstruct_stream_with` entry point does the rest — drop the
//! `.devices(...)` line and the identical code runs on one GPU.
//!
//! Run with: `cargo run --release --example ultrasound_imaging`

use tcbf::prelude::*;
use ultrasound::{
    offline_comparison, AcousticModel, DopplerMode, FlowPhantom, FrameRateModel, ImagingConfig,
    ReconstructionPrecision, Reconstructor, REAL_TIME_FPS,
};

fn ascii(pixels: &[f64], width: usize, height: usize) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let max = pixels.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
    let mut out = String::new();
    for y in 0..height {
        for x in 0..width {
            let v = (pixels[y * width + x] / max).clamp(0.0, 1.0);
            out.push(RAMP[(v * (RAMP.len() - 1) as f64).round() as usize] as char);
        }
        out.push('\n');
    }
    out
}

fn main() {
    // --- Functional reconstruction on a reduced-size phantom -------------
    let config = ImagingConfig::small(24, 12, 4);
    let dims = (16, 14, 14);
    let voxels = ImagingConfig::voxel_grid(dims.0, dims.1, dims.2, 0.01, 0.02);
    println!(
        "Synthetic phantom: {} voxels, K = {} (frequencies x transceivers x transmissions)",
        voxels.len(),
        config.k_rows()
    );
    let model = AcousticModel::build(&config, &voxels);
    let phantom = FlowPhantom::two_vessels(0.01, 0.02);
    let measurements = phantom.measurements(&model, 20);

    let reconstructor = Reconstructor::new(
        &Gpu::Gh200.device(),
        ReconstructionPrecision::Int1,
        DopplerMode::MeanRemoval,
    );
    // Continuous imaging: stream consecutive acquisitions against the same
    // model through a unified engine, sharded across a two-GPU pool (one
    // worker per device; the faster GH200 receives proportionally more
    // acquisitions).
    let ensembles: Vec<_> = (0..4).map(|_| phantom.measurements(&model, 20)).collect();
    let mut pool_ensembles = vec![measurements];
    pool_ensembles.extend(ensembles);
    let mut engine = BeamformerBuilder::new(Gpu::Gh200)
        .weights(model.matrix().clone())
        .samples_per_block(pool_ensembles[0].cols())
        .precision(Precision::Int1)
        .devices(&[Gpu::Gh200, Gpu::A100])
        .build_engine()
        .expect("a valid pool configuration");
    println!("Engine devices: {:?}", engine.gpus());
    let (volumes, report) = reconstructor
        .reconstruct_stream_with(&mut engine, &model, &pool_ensembles, dims)
        .expect("reconstruction");
    let volume = &volumes[0];
    println!(
        "Reconstruction (1-bit, simulated pool): {:.2} ms predicted, {:.1} TOPs/s",
        volume.report.predicted.elapsed_s * 1e3,
        volume.report.achieved_tops
    );
    println!(
        "Streaming session: {} ensembles, {:.1} TOPs/s aggregate, {:.2} TOPs/J, {:.2}x over serial",
        report.total_blocks(),
        report.aggregate_tops(),
        report.tops_per_joule(),
        report.speedup_over_serial()
    );
    for (gpu, device) in report.per_device() {
        println!(
            "    {:>6}: {} ensembles, {:.1} TOPs/s aggregate",
            gpu.name(),
            device.blocks,
            device.aggregate_tops()
        );
    }
    for (axis, name) in [(2usize, "axial (top-down)"), (1, "coronal")] {
        let (img, w, h) = volume.max_intensity_projection(axis);
        println!();
        println!("{name} maximum-intensity projection:");
        print!("{}", ascii(&img, w, h));
    }

    // --- Real-time frame-rate analysis (Fig. 5) --------------------------
    println!();
    println!("Real-time analysis (paper configuration, 1-bit mode):");
    for gpu in [Gpu::Gh200, Gpu::A100, Gpu::Ad4000] {
        let model = FrameRateModel::paper(&gpu.device());
        let planes = model.frames_per_second(3 * 128 * 128);
        let full = model.frames_per_second(128 * 128 * 128);
        println!(
            "  {gpu:>7}: 3 planes {planes:>7.0} fps | full 128^3 volume {full:>6.0} fps (need {REAL_TIME_FPS})",
        );
    }

    // --- Offline (pre-recorded) dataset comparison ------------------------
    println!();
    let comparison = offline_comparison(&Gpu::A100.device());
    println!(
        "Pre-recorded dataset on the A100: TCBF {:.2} s vs float32 Octave-class baseline {:.0} s ({:.0}x)",
        comparison.tcbf_seconds, comparison.baseline_seconds, comparison.speedup
    );
}
