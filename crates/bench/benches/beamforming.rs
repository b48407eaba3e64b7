//! Criterion benchmarks of the domain-independent beamforming layer:
//! steering-weight generation, the ccglib-backed beamformer and the
//! delay-and-sum reference.

use beamform::geometry::SPEED_OF_LIGHT;
use beamform::{
    ArrayGeometry, Beamformer, BeamformerConfig, Engine, PlaneWaveSource, ShardedBeamformer,
    SignalGenerator, WeightMatrix,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::{DevicePool, Gpu};
use std::hint::black_box;

const FREQ: f64 = 150e6;

fn bench_weights(c: &mut Criterion) {
    let mut group = c.benchmark_group("steering_weights");
    for &receivers in &[64usize, 256] {
        let geom =
            ArrayGeometry::uniform_linear(receivers, SPEED_OF_LIGHT / FREQ / 2.0, SPEED_OF_LIGHT);
        group.bench_with_input(
            BenchmarkId::new("uniform_fan_64_beams", receivers),
            &receivers,
            |bench, _| {
                bench.iter(|| WeightMatrix::uniform_fan(black_box(&geom), FREQ, 64, -0.5, 0.5))
            },
        );
    }
    group.finish();
}

fn bench_beamform(c: &mut Criterion) {
    let mut group = c.benchmark_group("beamform_block");
    for &receivers in &[32usize, 64] {
        let geom =
            ArrayGeometry::uniform_linear(receivers, SPEED_OF_LIGHT / FREQ / 2.0, SPEED_OF_LIGHT);
        let weights = WeightMatrix::uniform_fan(&geom, FREQ, 16, -0.4, 0.4);
        let samples = {
            let mut generator = SignalGenerator::new(geom.clone(), FREQ, 1e5, 0.1, 1);
            generator.sensor_samples(
                &[PlaneWaveSource {
                    azimuth: 0.1,
                    amplitude: 1.0,
                    baseband_frequency: 0.0,
                }],
                64,
            )
        };
        let tc = Beamformer::new(
            &Gpu::A100.device(),
            weights.clone(),
            64,
            BeamformerConfig::float16(),
        )
        .unwrap();
        group.bench_with_input(
            BenchmarkId::new("tensor_core_f16", receivers),
            &receivers,
            |bench, _| bench.iter(|| tc.beamform(black_box(&samples)).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("delay_and_sum_reference", receivers),
            &receivers,
            |bench, _| bench.iter(|| tc.delay_and_sum_reference(black_box(&samples))),
        );
        // The streaming path: same kernel, but blocks flow through the
        // pool-of-one engine, which also aggregates the run report.
        let mut engine = ShardedBeamformer::new(
            &DevicePool::from_gpus(&[Gpu::A100]),
            weights,
            64,
            BeamformerConfig::float16(),
        )
        .unwrap();
        group.bench_with_input(
            BenchmarkId::new("engine_stream_f16", receivers),
            &receivers,
            |bench, _| bench.iter(|| engine.process_block(black_box(&samples)).unwrap()),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_weights, bench_beamform
}
criterion_main!(benches);
