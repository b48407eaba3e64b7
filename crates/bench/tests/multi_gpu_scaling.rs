//! Acceptance test for the multi-device execution layer: a 4-device
//! capacity-weighted shard run of the radio-astronomy streaming workload
//! must produce element-wise identical output to the single-device run and
//! report at least 3x the single-device aggregate throughput.

use gpu_sim::Gpu;
use radioastro::{CentralBeamformer, SkySource, StationBeamlets};
use tcbf::BeamformerBuilder;

fn observation(blocks: usize) -> Vec<StationBeamlets> {
    (0..blocks)
        .map(|i| {
            StationBeamlets::synthesise(
                32,
                48,
                150e6,
                &[SkySource {
                    azimuth: 2e-4,
                    amplitude: 1.0,
                }],
                0.0,
                64,
                0.05,
                31 + i as u64,
            )
        })
        .collect()
}

#[test]
fn four_device_shard_is_identical_and_at_least_3x_the_aggregate_tops() {
    let blocks = observation(12);
    let beam_azimuths: Vec<f64> = (0..9).map(|i| (i as f64 - 4.0) * 1e-4).collect();
    let central = CentralBeamformer::new(&Gpu::A100.device(), beam_azimuths);

    let engine = |gpus: &[Gpu]| {
        BeamformerBuilder::new(Gpu::A100)
            .weights(central.weights(&blocks[0]))
            .samples_per_block(blocks[0].num_samples())
            .devices(gpus)
            .build_engine()
            .expect("engine")
    };
    let (single_outputs, single_report) = central
        .stream_coherent_with(&mut engine(&[]), &blocks)
        .expect("single-device stream");
    let (sharded_outputs, sharded_report) = central
        .stream_coherent_with(&mut engine(&[Gpu::A100; 4]), &blocks)
        .expect("sharded stream");

    // Element-wise identical output, block for block.
    assert_eq!(sharded_outputs.len(), single_outputs.len());
    for (sharded, single) in sharded_outputs.iter().zip(&single_outputs) {
        assert_eq!(
            sharded.complex_beams.as_ref().unwrap(),
            single.complex_beams.as_ref().unwrap()
        );
    }

    // >= 3x the single-device aggregate TOPs (4 members, so the aggregate
    // sums four concurrent streams; 3x leaves room for uneven shards).
    let speedup = sharded_report.aggregate_tops() / single_report.aggregate_tops();
    assert!(
        speedup >= 3.0,
        "aggregate speed-up {speedup:.2} below 3x: sharded {:.3} vs single {:.3} TOPs/s",
        sharded_report.aggregate_tops(),
        single_report.aggregate_tops()
    );

    // The parallel wall clock also beats a serial run by at least 3x.
    assert!(sharded_report.speedup_over_serial() >= 3.0);

    // Every pool member took part.
    assert!(sharded_report
        .per_device()
        .iter()
        .all(|(_, device)| device.blocks > 0));
}
