//! Regenerates Fig. 6 (maximum-intensity projections of the beamformed
//! flow volume) on a synthetic vascular phantom, plus the Section V-A
//! offline-dataset timing comparison (TCBF vs the Octave/OpenCL float32
//! baseline).
//!
//! The in-vivo mouse-brain dataset is not public; the synthetic phantom
//! exercises the identical pipeline (model × measurements, Doppler clutter
//! removal, 1-bit sign quantisation, ensemble averaging, projections) at a
//! reduced size so the functional reconstruction runs in seconds on a CPU.

#![forbid(unsafe_code)]

use gpu_sim::Gpu;
use tcbf_bench::{ascii_image, header};
use ultrasound::{
    offline_comparison, AcousticModel, DopplerMode, FlowPhantom, ImagingConfig,
    ReconstructionPrecision, Reconstructor,
};

fn main() {
    header(
        "Fig. 6 — maximum-intensity projections of the beamformed flow volume (synthetic phantom)",
    );
    // Reduced-size functional reconstruction (the paper's sub-volume is
    // 36x30x30 voxels with K = 524288; here both are scaled down so the
    // functional path runs quickly on the CPU substrate).
    let config = ImagingConfig::small(24, 12, 4);
    let dims = (18, 15, 15);
    let voxels = ImagingConfig::voxel_grid(dims.0, dims.1, dims.2, 0.01, 0.02);
    let model = AcousticModel::build(&config, &voxels);
    let phantom = FlowPhantom::two_vessels(0.01, 0.02);
    let measurements = phantom.measurements(&model, 24);
    let reconstructor = Reconstructor::new(
        &Gpu::A100.device(),
        ReconstructionPrecision::Int1,
        DopplerMode::MeanRemoval,
    );
    let volume = reconstructor
        .reconstruct(&model, &measurements, dims)
        .expect("reconstruction");

    for (axis, name) in [(0usize, "sagittal"), (1, "coronal"), (2, "axial")] {
        let (img, w, h) = volume.max_intensity_projection(axis);
        println!();
        println!("{name} projection ({w} x {h}):");
        print!("{}", ascii_image(&img, w, h));
    }
    println!();
    println!(
        "Reconstruction GEMM: {:.1} TOPs/s, {:.1} TOPs/J, {:.3} ms predicted on the simulated A100 (1-bit mode)",
        volume.report.achieved_tops,
        volume.report.tops_per_joule,
        volume.report.predicted.elapsed_s * 1e3
    );

    header("Section V-A — pre-recorded dataset: TCBF vs Octave/OpenCL float32 baseline");
    println!("Shape: M = 38880 voxels, N = 8041 frames, K = 524288 (128 freq x 64 transceivers x 64 transmissions)");
    for gpu in [Gpu::A100, Gpu::Gh200] {
        let c = offline_comparison(&gpu.device());
        println!(
            "{gpu}: TCBF {:.2} s (budget {:.0} s) vs float32 baseline {:.0} s  ->  {:.0}x speed-up",
            c.tcbf_seconds, c.real_time_budget_seconds, c.baseline_seconds, c.speedup
        );
    }
    println!();
    println!("Paper: TCBF 1.2 s vs ~15 minutes in Octave — nearly three orders of magnitude.");
}
