//! Quickstart: configure a streaming engine with the fluent builder,
//! stream blocks of sensor samples through the device-agnostic engine —
//! re-steering the beams mid-stream — and read the unified report, on the
//! simulated A100 in 16-bit tensor-core mode.
//!
//! The same code drives a multi-GPU pool: add `.devices(&[...])` to the
//! builder and `build_engine()` hands back a sharded engine instead.
//!
//! Run with: `cargo run --release --example quickstart`

use beamform::geometry::SPEED_OF_LIGHT;
use tcbf::prelude::*;

fn main() {
    let frequency = 150e6; // 150 MHz observing frequency
    let receivers = 64;
    let beams = 11;
    let samples_per_block = 128;

    // 1. Describe the sensor array: a half-wavelength-spaced linear array.
    let geometry =
        ArrayGeometry::uniform_linear(receivers, SPEED_OF_LIGHT / frequency / 2.0, SPEED_OF_LIGHT);

    // 2. Steering weights for a fan of beams — the M x K matrix of the GEMM.
    let weights = WeightMatrix::uniform_fan(&geometry, frequency, beams, -0.5, 0.5);

    // 3. Configure a streaming engine with the fluent builder: device,
    //    weights, block length and precision are validated together at
    //    build_engine().  No `.devices(...)` here, so the boxed engine is
    //    a single A100 — the streaming code below would not change for a
    //    pool.
    let mut engine = BeamformerBuilder::new(Gpu::A100)
        .weight_matrix(weights.clone())
        .samples_per_block(samples_per_block)
        .precision(Precision::Float16)
        .build_engine()
        .expect("a valid beamformer configuration");
    println!("Devices:       {:?}", engine.gpus());
    println!(
        "Shard plan:    {} device(s) over an 8-block stream",
        engine.plan(8).num_devices()
    );

    // 4. Synthetic sky: one plane-wave source at +0.2 rad plus noise.
    let mut generator = SignalGenerator::new(geometry.clone(), frequency, 1e5, 0.2, 42);
    let source = PlaneWaveSource {
        azimuth: 0.2,
        amplitude: 1.0,
        baseband_frequency: 1e3,
    };

    // 5. Stream a pipeline of sample blocks through the engine.
    let samples = generator.sensor_samples(&[source], samples_per_block);
    let output = engine.process_block(&samples).expect("beamforming");
    for _ in 0..3 {
        let block = generator.sensor_samples(&[source], samples_per_block);
        engine.process_block(&block).expect("beamforming");
    }

    // 6. The beam closest to the source direction carries the most power.
    println!();
    println!("beam  azimuth   power");
    for b in 0..beams {
        let power = Beamformer::beam_power(&output.beams, b);
        let bar = "#".repeat((power * 40.0).min(60.0) as usize);
        println!(
            "{b:>4}  {:+.2}     {power:>7.3}  {bar}",
            weights.azimuths()[b]
        );
    }

    // 7. Cross-check against the full-precision delay-and-sum reference.
    let reference = Beamformer::new(
        &Gpu::A100.device(),
        weights,
        samples_per_block,
        BeamformerConfig::float16(),
    )
    .expect("reference beamformer")
    .delay_and_sum_reference(&samples);
    println!();
    println!(
        "max |tensor-core − delay-and-sum| = {:.4}",
        output.beams.max_abs_diff(&reference)
    );

    // 8. Re-steer mid-stream: hot-swap a narrower fan of beams into the
    //    running engine (the GEMM plan is reused — on a pool, every
    //    member would swap) and keep streaming.
    let narrow = WeightMatrix::uniform_fan(&geometry, frequency, beams, 0.0, 0.4);
    engine.swap_weights(narrow).expect("same beams x receivers");
    for _ in 0..4 {
        let block = generator.sensor_samples(&[source], samples_per_block);
        engine.process_block(&block).expect("beamforming");
    }

    // 9. The unified report aggregates the whole run — per-device
    //    breakdown (one entry here) plus the derived pool-level metrics.
    let report = engine.finish();
    println!();
    println!(
        "Session:       {} blocks on {} device(s), {} weight swap(s)",
        report.total_blocks(),
        report.per_device().len(),
        report.weight_swaps()
    );
    println!(
        "Throughput:    {:.3} TOPs/s aggregate, {:.3} mean, {:.3} worst-case",
        report.aggregate_tops(),
        report.mean_tops(),
        report.worst_tops()
    );
    println!(
        "Energy:        {:.4} J total, {:.3} TOPs/J",
        report.total_joules(),
        report.tops_per_joule()
    );
    println!(
        "Frame rate:    {:.0} blocks/s effective",
        report.effective_fps()
    );
}
