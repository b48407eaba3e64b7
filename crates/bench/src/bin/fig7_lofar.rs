//! Regenerates Fig. 7: LOFAR tensor-core beamformer performance (TFLOPs/s)
//! and energy efficiency (TFLOPs/J) versus the number of receivers, for all
//! seven GPUs, with the float32 reference beamformer lines on the A100 and
//! GH200.

#![forbid(unsafe_code)]

use gpu_sim::Gpu;
use radioastro::performance::{lofar_sweep, paper_receiver_counts, reference_sweep, LofarConfig};
use tcbf_bench::{header, print_table};

fn main() {
    let config = LofarConfig::paper();
    // Subsample the 8..512 sweep for a readable table; the full resolution
    // is available with --full.
    let full = std::env::args().any(|a| a == "--full");
    let receivers: Vec<usize> = if full {
        paper_receiver_counts()
    } else {
        paper_receiver_counts().into_iter().step_by(8).collect()
    };

    header("Fig. 7 — LOFAR beamformer: TFLOPs/s (and TFLOPs/J) vs number of receivers");
    println!("Configuration: 1024 beams, 1024 samples, batch 256 (channels x polarisations).");
    println!();

    let sweeps: Vec<(String, Vec<radioastro::SweepPoint>)> = Gpu::ALL
        .iter()
        .map(|gpu| {
            (
                gpu.name().to_string(),
                lofar_sweep(&gpu.device(), &config, &receivers),
            )
        })
        .chain([
            (
                "Ref A100".to_string(),
                reference_sweep(&Gpu::A100.device(), &config, &receivers),
            ),
            (
                "Ref GH200".to_string(),
                reference_sweep(&Gpu::Gh200.device(), &config, &receivers),
            ),
        ])
        .collect();

    let mut columns: Vec<&str> = vec!["receivers"];
    for (name, _) in &sweeps {
        columns.push(name.as_str());
    }
    let mut rows = Vec::new();
    for (i, &k) in receivers.iter().enumerate() {
        let mut row = vec![k.to_string()];
        for (_, sweep) in &sweeps {
            row.push(format!(
                "{:.0}/{:.2}",
                sweep[i].tflops, sweep[i].tflops_per_joule
            ));
        }
        rows.push(row);
    }
    print_table(&columns, &rows);

    println!();
    let typical = LofarConfig::TYPICAL_STATIONS;
    for gpu in [Gpu::A100, Gpu::Gh200] {
        let speedup =
            radioastro::performance::speedup_over_reference(&gpu.device(), &config, typical);
        println!("{gpu}: {speedup:.1}x faster than the reference beamformer at the typical {typical}-station configuration");
    }
    let max_speedup = receivers
        .iter()
        .map(|&k| radioastro::performance::speedup_over_reference(&Gpu::A100.device(), &config, k))
        .fold(0.0f64, f64::max);
    println!("A100: up to {max_speedup:.0}x faster than the reference beamformer over the sweep");
}
