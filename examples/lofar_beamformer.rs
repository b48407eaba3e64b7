//! LOFAR-style radio-astronomy example: synthesise station beamlets for a
//! sky with two pulsars, stream a whole observation through the central
//! tensor-core beamformer **sharded across a four-GPU pool** (coherently,
//! with a mid-stream retune that hot-swaps the station weights on every
//! pool member), localise the sources, and show the Fig. 7 performance
//! comparison against the float32 reference beamformer.
//!
//! The observation is driven through the unified `Engine` API: the
//! builder's `.devices(&[...])` picks the device pool and the generic
//! `stream_coherent_with` entry point does the rest — drop the
//! `.devices(...)` line and the identical code runs on one GPU.
//!
//! Run with: `cargo run --release --example lofar_beamformer`

use radioastro::performance::{lofar_sweep, reference_sweep, speedup_over_reference, LofarConfig};
use radioastro::{CentralBeamformer, CentralMode, SkySource, StationBeamlets};
use tcbf::prelude::*;

fn main() {
    // --- Functional pipeline at reduced scale -----------------------------
    let frequency = 150e6;
    let stations = 32;
    let sources = [
        SkySource {
            azimuth: 3e-4,
            amplitude: 1.0,
        },
        SkySource {
            azimuth: -2e-4,
            amplitude: 0.6,
        },
    ];
    println!(
        "Synthesising an observation: {stations} stations, 2 sources, 8 blocks x 128 samples…"
    );
    let blocks: Vec<StationBeamlets> = (0..8)
        .map(|i| {
            // The observation retunes to a neighbouring sub-band for the
            // final blocks: the engine hot-swaps the station weights on
            // every pool member.
            let block_frequency = if i >= 6 { 1.02 * frequency } else { frequency };
            StationBeamlets::synthesise(
                stations,
                48,
                block_frequency,
                &sources,
                0.0,
                128,
                0.05,
                11 + i as u64,
            )
        })
        .collect();

    let beam_azimuths: Vec<f64> = (0..15).map(|i| (i as f64 - 7.0) * 1e-4).collect();
    let central = CentralBeamformer::new(&Gpu::Gh200.device(), beam_azimuths.clone());

    // Shard the observation across a four-GPU pool: the builder picks the
    // devices, the engine assigns blocks proportionally to each member's
    // peak throughput and the shards execute in parallel, one worker per
    // device.
    let mut engine = BeamformerBuilder::new(Gpu::Gh200)
        .weights(central.weights(&blocks[0]))
        .samples_per_block(128)
        .devices(&[Gpu::Gh200; 4])
        .build_engine()
        .expect("a valid pool configuration");
    println!("Engine devices: {:?}", engine.gpus());
    let (outputs, report) = central
        .stream_coherent_with(&mut engine, &blocks)
        .expect("coherent beamforming");
    let coherent = outputs.into_iter().next().expect("one output per block");
    let incoherent = central
        .beamform(&blocks[0], CentralMode::Incoherent)
        .expect("incoherent");
    println!();
    println!("beam  azimuth(mrad)  coherent power   incoherent power");
    for (b, az) in beam_azimuths.iter().enumerate() {
        let coh = CentralBeamformer::mean_beam_power(&coherent, b);
        let inc = CentralBeamformer::mean_beam_power(&incoherent, b);
        let bar = "#".repeat((coh * 200.0).min(50.0) as usize);
        println!(
            "{b:>4}  {:+12.3}  {coh:>14.4}  {inc:>16.4}  {bar}",
            az * 1e3
        );
    }
    if let Some(report) = coherent.report {
        println!();
        println!(
            "Coherent stage on the simulated GH200: {:.3} ms predicted, {:.3} TFLOPs/s",
            report.predicted.elapsed_s * 1e3,
            report.achieved_tops
        );
    }
    println!(
        "Observation session: {} blocks, {} weight swap(s), {:.3} TFLOPs/s aggregate, {:.4} J",
        report.total_blocks(),
        report.weight_swaps(),
        report.aggregate_tops(),
        report.total_joules()
    );
    for (gpu, device) in report.per_device() {
        println!(
            "    {:>7}: {} blocks, {:.3} TFLOPs/s aggregate, {:.6} J",
            gpu.name(),
            device.blocks,
            device.aggregate_tops(),
            device.total_joules
        );
    }
    println!(
        "Parallel speed-up over one device: {:.2}x (wall clock set by the straggler)",
        report.speedup_over_serial()
    );

    // --- Fig. 7 performance comparison ------------------------------------
    println!();
    println!("Performance at the paper's configuration (1024 beams, 1024 samples, batch 256):");
    let config = LofarConfig::paper();
    let receivers = [8usize, 48, 128, 256, 512];
    for gpu in [Gpu::A100, Gpu::Gh200, Gpu::Mi300x] {
        let tc = lofar_sweep(&gpu.device(), &config, &receivers);
        let line: Vec<String> = tc
            .iter()
            .map(|p| format!("{}:{:.0}", p.receivers, p.tflops))
            .collect();
        println!("  {gpu:>7} TCBF TFLOPs/s   {}", line.join("  "));
    }
    let reference = reference_sweep(&Gpu::A100.device(), &config, &receivers);
    let line: Vec<String> = reference
        .iter()
        .map(|p| format!("{}:{:.0}", p.receivers, p.tflops))
        .collect();
    println!("  {:>7} ref. TFLOPs/s   {}", "A100", line.join("  "));
    println!();
    println!(
        "Speed-up over the reference beamformer on the A100 at 48 stations: {:.1}x, at 512 stations: {:.1}x",
        speedup_over_reference(&Gpu::A100.device(), &config, 48),
        speedup_over_reference(&Gpu::A100.device(), &config, 512),
    );
}
