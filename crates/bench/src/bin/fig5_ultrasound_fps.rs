//! Regenerates Fig. 5: sustainable ultrasound reconstruction frame rate
//! versus the number of voxels, for the GH200, A100 and AD4000, with the
//! 1000 frames-per-second real-time requirement marked.

#![forbid(unsafe_code)]

use gpu_sim::Gpu;
use tcbf_bench::{header, print_table};
use ultrasound::{FrameRateModel, REAL_TIME_FPS};

fn main() {
    header("Fig. 5 — ultrasound frames per second vs number of voxels");
    println!("Configuration: 128 frequencies x 64 transceivers x 32 transmissions, 1-bit mode,");
    println!("including packing + transpose of the measurement matrix.  Real-time threshold: {REAL_TIME_FPS} fps.");
    println!();

    let gpus = [Gpu::Gh200, Gpu::A100, Gpu::Ad4000];
    let models: Vec<FrameRateModel> = gpus
        .iter()
        .map(|g| FrameRateModel::paper(&g.device()))
        .collect();
    let sweeps: Vec<_> = models.iter().map(|m| m.sweep(128, 10)).collect();

    let mut rows = Vec::new();
    for i in 0..sweeps[0].len() {
        let mut row = vec![sweeps[0][i].voxels.to_string()];
        for sweep in &sweeps {
            row.push(format!(
                "{:.0}{}",
                sweep[i].frames_per_second,
                if sweep[i].real_time { " *" } else { "" }
            ));
        }
        rows.push(row);
    }
    print_table(&["voxels", "GH200 fps", "A100 fps", "AD4000 fps"], &rows);
    println!();
    println!("(* meets the real-time requirement)");

    let full = 128 * 128 * 128;
    for (gpu, model) in gpus.iter().zip(&models) {
        let fraction = model.real_time_voxel_capacity(full) as f64 / full as f64;
        println!(
            "{gpu}: can reconstruct {:.0}% of the full 128^3 volume in real time",
            100.0 * fraction
        );
    }

    // A second of streamed three-plane imaging as the session API reports
    // it: aggregate throughput and energy of the GEMM stage over the run.
    println!();
    let planes = 3 * 128 * 128;
    for (gpu, model) in gpus.iter().zip(&models) {
        let session = model.streaming_report(planes, 10);
        println!(
            "{gpu}: 10 streamed batches over 3 planes — {:.0} TOPs/s aggregate, {:.1} TOPs/J, {:.3} J",
            session.aggregate_tops(),
            session.tops_per_joule(),
            session.total_joules
        );
    }
}
