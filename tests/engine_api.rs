//! Acceptance tests of the unified `Engine` API.
//!
//! The redesign's contract: one object-safe trait spans every topology, a
//! builder configured with or without `.devices(...)` hands back the right
//! engine behind `Box<dyn Engine>`, one pipeline drives any of them
//! identically (weight hot-swap included), and the engine adds nothing to
//! the numbers: a one-device engine is bit-identical to calling
//! `Beamformer::beamform` block by block, report included.

use proptest::prelude::*;
use tcbf::prelude::*;

const BEAMS: usize = 4;
const RECEIVERS: usize = 16;
const SAMPLES: usize = 8;

fn weights(phase: f32) -> HostComplexMatrix {
    HostComplexMatrix::from_fn(BEAMS, RECEIVERS, |b, r| {
        Complex::from_polar(1.0 / RECEIVERS as f32, (b * r) as f32 * phase)
    })
}

fn blocks(count: usize) -> Vec<HostComplexMatrix> {
    (0..count)
        .map(|seed| {
            HostComplexMatrix::from_fn(RECEIVERS, SAMPLES, |r, s| {
                Complex::new(
                    ((r * 5 + s * 3 + seed * 7) % 11) as f32 * 0.1 - 0.5,
                    ((r + s * 2 + seed) % 9) as f32 * 0.1 - 0.4,
                )
            })
        })
        .collect()
}

fn builder(gpu: Gpu) -> BeamformerBuilder {
    BeamformerBuilder::new(gpu)
        .weights(weights(0.05))
        .samples_per_block(SAMPLES)
}

/// A downstream pipeline written once against `&mut dyn Engine` — the
/// object-safety contract exercised the way a user would.
fn drive(engine: &mut dyn Engine, stream: &[HostComplexMatrix]) -> Vec<BeamformOutput> {
    let refs: Vec<&HostComplexMatrix> = stream.iter().collect();
    engine.process_batch(&refs).unwrap()
}

#[test]
fn one_dyn_pipeline_drives_every_pool() {
    // Heterogeneous list of trait objects: single device, homogeneous
    // pool, heterogeneous pool — one code path processes them all and the
    // outputs are element-wise identical.
    let mut engines: Vec<Box<dyn Engine>> = vec![
        builder(Gpu::A100).build_engine().unwrap(),
        builder(Gpu::A100)
            .devices(&[Gpu::A100, Gpu::A100])
            .build_engine()
            .unwrap(),
        builder(Gpu::A100)
            .devices(&[Gpu::Gh200, Gpu::Mi300x, Gpu::Ad4000])
            .build_engine()
            .unwrap(),
    ];
    let stream = blocks(7);
    let reference = drive(engines[0].as_mut(), &stream);
    for engine in engines.iter_mut().skip(1) {
        let outputs = drive(engine.as_mut(), &stream);
        for (o, r) in outputs.iter().zip(&reference) {
            assert_eq!(o.beams, r.beams, "{:?}", engine.gpus());
        }
    }
    // Introspection through the trait object: the plan always covers the
    // stream with the engine's device count.
    for engine in &engines {
        let plan = engine.plan(stream.len());
        assert_eq!(plan.num_devices(), engine.gpus().len());
        let mut seen: Vec<usize> = plan.assignments().iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..stream.len()).collect::<Vec<_>>());
        let members: Vec<Gpu> = engine
            .report()
            .per_device()
            .iter()
            .map(|&(g, _)| g)
            .collect();
        assert_eq!(members, engine.gpus());
    }
}

#[test]
fn dyn_session_hot_swaps_weights_mid_stream_on_any_pool() {
    // The swap must take effect on every device, be counted once in the
    // unified report, and the post-swap outputs must match a two-run
    // reference (one fresh engine per weight set).
    let stream = blocks(6);
    let reference = |phase: f32| -> Vec<BeamformOutput> {
        let mut engine = BeamformerBuilder::new(Gpu::A100)
            .weights(weights(phase))
            .samples_per_block(SAMPLES)
            .build_engine()
            .unwrap();
        drive(engine.as_mut(), &stream)
    };
    let (before_ref, after_ref) = (reference(0.05), reference(-0.11));

    for devices in [vec![], vec![Gpu::A100, Gpu::Gh200, Gpu::Mi210]] {
        let mut engine = builder(Gpu::A100).devices(&devices).build_engine().unwrap();
        let before = drive(engine.as_mut(), &stream);
        engine
            .swap_weights(WeightMatrix::from_matrix(weights(-0.11)))
            .unwrap();
        let after = drive(engine.as_mut(), &stream);
        for ((b, a), (br, ar)) in before
            .iter()
            .zip(&after)
            .zip(before_ref.iter().zip(&after_ref))
        {
            assert_eq!(b.beams, br.beams, "pre-swap, {} devices", devices.len());
            assert_eq!(a.beams, ar.beams, "post-swap, {} devices", devices.len());
            assert!(
                b.beams.max_abs_diff(&a.beams) > 1e-3,
                "swap changed nothing"
            );
        }
        let report = engine.finish();
        assert_eq!(report.total_blocks(), 2 * stream.len());
        assert_eq!(report.weight_swaps(), 1);
        // A shape-changing swap is rejected and not counted, on every
        // topology.
        assert!(engine
            .swap_weights(WeightMatrix::from_matrix(HostComplexMatrix::zeros(
                BEAMS + 1,
                RECEIVERS
            )))
            .is_err());
        assert_eq!(engine.report().weight_swaps(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A one-device engine — built with or without `.devices(&[gpu])` —
    /// is bit-identical to per-block
    /// `Beamformer::beamform` on the same stream, and its `Report` equals
    /// the per-block run reports folded by hand.
    #[test]
    fn build_engine_matches_per_block_beamform_bit_for_bit(
        gpu_index in 0usize..Gpu::ALL.len(),
        block_count in 0usize..12,
        explicit_pool in any::<bool>(),
    ) {
        let gpu = Gpu::ALL[gpu_index];
        let devices = if explicit_pool { vec![gpu] } else { Vec::new() };
        let mut engine = builder(gpu)
            .devices(&devices)
            .build_engine()
            .unwrap();
        prop_assert_eq!(engine.gpus(), [gpu]);

        let reference = Beamformer::new(
            &gpu.device(),
            WeightMatrix::from_matrix(weights(0.05)),
            SAMPLES,
            BeamformerConfig::float16(),
        )
        .unwrap();
        let ops = reference.shape().complex_ops() as f64;
        let mut folded = StreamReport::default();

        let stream = blocks(block_count);
        let outputs = drive(engine.as_mut(), &stream);
        prop_assert_eq!(outputs.len(), stream.len());
        for (output, block) in outputs.iter().zip(&stream) {
            let expected = reference.beamform(block).unwrap();
            prop_assert_eq!(&output.beams, &expected.beams);
            prop_assert_eq!(&output.report, &expected.report);
            folded.record(&expected.report, ops, 1);
        }
        let by_hand = Report::new(vec![(gpu, folded)], 0);
        prop_assert_eq!(engine.finish(), by_hand);
    }
}
