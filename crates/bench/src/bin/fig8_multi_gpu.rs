//! Multi-GPU scaling of the sharded beamformer: streams one LOFAR-style
//! observation through 1/2/4-device pools (plus a heterogeneous mix) and
//! reports aggregate throughput, wall clock and parallel speed-up,
//! verifying along the way that every pool produces element-wise identical
//! output to the single-device reference.

#![forbid(unsafe_code)]

use gpu_sim::Gpu;
use radioastro::{CentralBeamformer, SkySource, StationBeamlets};
use tcbf::BeamformerBuilder;
use tcbf_bench::{header, print_table};

fn observation(blocks: usize) -> Vec<StationBeamlets> {
    (0..blocks)
        .map(|i| {
            StationBeamlets::synthesise(
                48,
                64,
                150e6,
                &[SkySource {
                    azimuth: 2e-4,
                    amplitude: 1.0,
                }],
                0.0,
                128,
                0.05,
                23 + i as u64,
            )
        })
        .collect()
}

fn main() {
    header("Fig. 8 — multi-GPU scaling of the sharded central beamformer");
    println!("Observation: 48 stations, 16 blocks x 128 samples, 15 tied-array beams.");
    println!("Policy: capacity-weighted (blocks proportional to each device's peak TOPs).");
    println!();

    let blocks = observation(16);
    let beam_azimuths: Vec<f64> = (0..15).map(|i| (i as f64 - 7.0) * 1e-4).collect();
    let central = CentralBeamformer::new(&Gpu::Gh200.device(), beam_azimuths);

    // No `.devices(..)` = one GH200; a pool splits blocks by capacity.
    let builder = BeamformerBuilder::new(Gpu::Gh200)
        .weights(central.weights(&blocks[0]))
        .samples_per_block(blocks[0].num_samples());
    let run = |builder: BeamformerBuilder| {
        let mut engine = builder.build_engine().expect("engine");
        central
            .stream_coherent_with(&mut engine, &blocks)
            .expect("stream")
    };
    let (reference, single) = run(builder.clone());

    let pools: [(&str, &[Gpu]); 4] = [
        ("1x GH200", &[Gpu::Gh200; 1]),
        ("2x GH200", &[Gpu::Gh200; 2]),
        ("4x GH200", &[Gpu::Gh200; 4]),
        (
            "GH200+A100+MI300X+AD4000",
            &[Gpu::Gh200, Gpu::A100, Gpu::Mi300x, Gpu::Ad4000],
        ),
    ];

    let mut rows = Vec::new();
    for (name, gpus) in pools {
        let (outputs, report) = run(builder.clone().devices(gpus));
        // Conformance: sharding is a pure scheduling decision.
        for (sharded, expected) in outputs.iter().zip(&reference) {
            assert_eq!(
                sharded.complex_beams.as_ref().unwrap(),
                expected.complex_beams.as_ref().unwrap(),
                "sharded output diverged on {name}"
            );
        }
        rows.push(vec![
            name.to_string(),
            format!("{}", gpus.len()),
            format!("{:.3}", report.aggregate_tops()),
            format!("{:.2}", report.aggregate_tops() / single.aggregate_tops()),
            format!("{:.3}", report.wall_clock_s() * 1e3),
            format!("{:.2}", report.speedup_over_serial()),
            format!("{:.0}", report.effective_fps()),
        ]);
    }
    print_table(
        &[
            "pool",
            "devices",
            "agg TOPs/s",
            "vs 1 dev",
            "wall ms",
            "par speedup",
            "blocks/s",
        ],
        &rows,
    );
    println!();
    println!(
        "Single GH200 aggregate: {:.3} TOPs/s over {} blocks; every pool above produced",
        single.aggregate_tops(),
        single.total_blocks()
    );
    println!("element-wise identical beams — only the schedule and the wall clock change.");
}
