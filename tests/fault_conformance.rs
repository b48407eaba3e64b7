//! Conformance tests for the fault-tolerance story: a sharded stream
//! that loses pool members mid-stream must recover on the survivors and
//! produce output **bit-identical** to a no-fault single-device
//! reference, for every precision the paper evaluates; a stream whose
//! engine is lost mid-batch must complete on a replacement engine.

use beamform::Engine;
use ccglib::matrix::HostComplexMatrix;
use ccglib::Precision;
use gpu_sim::{FaultInjector, FaultPlan, Gpu};
use std::sync::Arc;
use tcbf::{BeamformerBuilder, TcbfError};
use tcbf_types::Complex;

const BEAMS: usize = 6;
const RECEIVERS: usize = 24;
const SAMPLES: usize = 48;

fn weights() -> HostComplexMatrix {
    HostComplexMatrix::from_fn(BEAMS, RECEIVERS, |b, r| {
        Complex::from_polar(1.0 / RECEIVERS as f32, (b * 7 + r * 3) as f32 * 0.23)
    })
}

fn blocks(count: usize) -> Vec<HostComplexMatrix> {
    (0..count)
        .map(|b| {
            HostComplexMatrix::from_fn(RECEIVERS, SAMPLES, |r, s| {
                Complex::new(
                    ((r * 13 + s * 7 + b * 3) % 23) as f32 * 0.13 - 1.2,
                    ((s * 11 + r * 5 + b * 17) % 19) as f32 * 0.11 - 0.9,
                )
            })
        })
        .collect()
}

/// The no-fault ground truth: one device, no injector, same weights.
fn reference_outputs(
    precision: Precision,
    gpu: Gpu,
    stream: &[HostComplexMatrix],
) -> Vec<HostComplexMatrix> {
    let mut engine = BeamformerBuilder::new(gpu)
        .weights(weights())
        .samples_per_block(SAMPLES)
        .precision(precision)
        .build_engine()
        .unwrap();
    let refs: Vec<&HostComplexMatrix> = stream.iter().collect();
    engine
        .process_batch(&refs)
        .unwrap()
        .into_iter()
        .map(|o| o.beams)
        .collect()
}

/// A 3-member pool of `gpu`, not yet built (no injector armed).
fn pool_builder(precision: Precision, gpu: Gpu) -> BeamformerBuilder {
    BeamformerBuilder::new(gpu)
        .devices(&[gpu; 3])
        .weights(weights())
        .samples_per_block(SAMPLES)
        .precision(precision)
}

/// A 3-member pool of `gpu` with `plan` armed over it.
fn faulted_pool(precision: Precision, gpu: Gpu, plan: FaultPlan) -> Box<dyn Engine> {
    pool_builder(precision, gpu)
        .fault_injector(Arc::new(FaultInjector::new(plan, 3)))
        .build_engine()
        .unwrap()
}

#[test]
fn an_empty_fault_plan_is_indistinguishable_from_no_injector() {
    // One fan-out loop serves both: without an injector every verdict is
    // `Proceed`, exactly what an injector armed with an empty plan says.
    for precision in [Precision::Float16, Precision::Int1] {
        let stream = blocks(10);
        let refs: Vec<&HostComplexMatrix> = stream.iter().collect();
        let mut plain = pool_builder(precision, Gpu::A100).build_engine().unwrap();
        let mut armed = faulted_pool(precision, Gpu::A100, FaultPlan::new());
        let plain_outputs = plain.process_batch(&refs).unwrap();
        let armed_outputs = armed.process_batch(&refs).unwrap();
        for (p, a) in plain_outputs.iter().zip(&armed_outputs) {
            assert_eq!(p.beams, a.beams, "{precision:?}");
            assert_eq!(p.report, a.report, "{precision:?}");
        }
        assert_eq!(plain.finish(), armed.finish(), "{precision:?}");
    }
}

#[test]
fn a_failed_batch_keeps_the_accounting_of_the_blocks_finished_before_it() {
    // Block 7 has the wrong receiver count.  A single device finishes
    // blocks 0..7 first; an un-injected pool of three equal members gets
    // contiguous thirds, so members 0 and 1 finish theirs and member 2
    // finishes block 6 before failing.  Either way seven blocks stay
    // accounted: one rule for every engine.
    let mut stream = blocks(9);
    stream[7] = HostComplexMatrix::zeros(RECEIVERS - 1, SAMPLES);
    let refs: Vec<&HostComplexMatrix> = stream.iter().collect();
    let mut single = BeamformerBuilder::new(Gpu::A100)
        .weights(weights())
        .samples_per_block(SAMPLES)
        .build_engine()
        .unwrap();
    let mut pool = pool_builder(Precision::Float16, Gpu::A100)
        .build_engine()
        .unwrap();
    for (engine, per_device) in [(&mut single, vec![7]), (&mut pool, vec![3, 3, 1])] {
        let err = engine.process_batch(&refs).unwrap_err();
        assert!(
            matches!(err, TcbfError::ShapeMismatch { .. }),
            "got {err:?}"
        );
        let report = engine.finish();
        let finished: Vec<usize> = report
            .per_device()
            .iter()
            .map(|(_, device)| device.blocks)
            .collect();
        assert_eq!(finished, per_device, "{:?}", engine.gpus());
    }
}

#[test]
fn permanent_device_loss_recovers_bit_identical_for_both_precisions() {
    // Int1 packing requires an NVIDIA part; A100 serves both precisions.
    for precision in [Precision::Float16, Precision::Int1] {
        let stream = blocks(12);
        let expected = reference_outputs(precision, Gpu::A100, &stream);

        // Device 1 dies permanently after its 4th block; the pool must
        // re-apportion its pending work across devices 0 and 2.
        let mut engine = faulted_pool(precision, Gpu::A100, FaultPlan::new().kill_device(1, 4));
        let refs: Vec<&HostComplexMatrix> = stream.iter().collect();
        let outputs = engine.process_batch(&refs).unwrap();
        let served: Vec<HostComplexMatrix> = outputs.into_iter().map(|o| o.beams).collect();

        assert_eq!(
            served, expected,
            "{precision:?}: recovered sharded stream diverges from the \
             single-device no-fault reference"
        );
        let report = engine.report();
        assert_eq!(
            report.total_blocks(),
            12,
            "every block executes exactly once"
        );
    }
}

#[test]
fn transient_refusals_replay_without_quarantining_the_member() {
    let stream = blocks(9);
    let expected = reference_outputs(Precision::Float16, Gpu::A100, &stream);
    let mut engine = faulted_pool(
        Precision::Float16,
        Gpu::A100,
        FaultPlan::new().drop_block(0, 1).drop_block(2, 2),
    );
    let refs: Vec<&HostComplexMatrix> = stream.iter().collect();
    let outputs = engine.process_batch(&refs).unwrap();
    let served: Vec<HostComplexMatrix> = outputs.into_iter().map(|o| o.beams).collect();
    assert_eq!(served, expected, "transient faults must be invisible");
}

#[test]
fn latency_spikes_never_change_the_data() {
    let stream = blocks(8);
    let expected = reference_outputs(Precision::Float16, Gpu::A100, &stream);
    let mut engine = faulted_pool(
        Precision::Float16,
        Gpu::A100,
        FaultPlan::new().slow_device(1, 2, 16.0),
    );
    let refs: Vec<&HostComplexMatrix> = stream.iter().collect();
    let outputs = engine.process_batch(&refs).unwrap();
    let served: Vec<HostComplexMatrix> = outputs.into_iter().map(|o| o.beams).collect();
    assert_eq!(served, expected, "latency faults must only affect timing");
}

#[test]
fn losing_the_whole_pool_surfaces_device_lost_with_its_stable_code() {
    let mut engine = faulted_pool(
        Precision::Float16,
        Gpu::A100,
        FaultPlan::new()
            .kill_device(0, 0)
            .kill_device(1, 0)
            .kill_device(2, 0),
    );
    let stream = blocks(4);
    let refs: Vec<&HostComplexMatrix> = stream.iter().collect();
    let err = engine.process_batch(&refs).unwrap_err();
    match err {
        TcbfError::DeviceLost { permanent, .. } => {
            assert!(permanent);
            assert_eq!(err.code(), 12, "DeviceLost has the stable code 12");
        }
        other => panic!("expected DeviceLost, got {other:?}"),
    }
    // With no member left the plan is empty, not a panic.
    let plan = engine.plan(4);
    assert_eq!(plan.num_devices(), 3);
    assert!(plan.assignments().iter().all(Vec::is_empty));
}

#[test]
fn a_single_device_is_a_pool_of_one_under_fault_injection() {
    // A bare `new(gpu)` and `.devices(&[gpu])` are the same engine, so
    // both accept an injector spanning one device; killing that only
    // member surfaces the typed permanent loss, with the blocks finished
    // before it still accounted.
    for precision in [Precision::Float16, Precision::Int1] {
        let stream = blocks(5);
        let refs: Vec<&HostComplexMatrix> = stream.iter().collect();
        for devices in [vec![], vec![Gpu::A100]] {
            let builder = || {
                BeamformerBuilder::new(Gpu::A100)
                    .devices(&devices)
                    .weights(weights())
                    .samples_per_block(SAMPLES)
                    .precision(precision)
            };
            let injector = |plan, span| Arc::new(FaultInjector::new(plan, span));
            assert!(
                matches!(
                    builder()
                        .fault_injector(injector(FaultPlan::new(), 2))
                        .build_engine()
                        .unwrap_err(),
                    TcbfError::InvalidParameters { .. }
                ),
                "{precision:?}: an injector spanning two devices does not fit a pool of one"
            );
            let mut engine = builder()
                .fault_injector(injector(FaultPlan::new().kill_device(0, 3), 1))
                .build_engine()
                .unwrap();
            let err = engine.process_batch(&refs).unwrap_err();
            assert_eq!(
                err,
                TcbfError::DeviceLost {
                    device: 0,
                    permanent: true
                },
                "{precision:?}"
            );
            assert_eq!(err.code(), 12);
            assert_eq!(engine.finish().total_blocks(), 3, "{precision:?}");
        }
    }
}

#[test]
fn a_session_resumes_from_its_checkpoint_after_losing_its_engine() {
    // What the server does on quarantine, at the engine level: the failed
    // batch is replayed on a fresh engine.
    let stream = blocks(8);
    let expected = reference_outputs(Precision::Float16, Gpu::A100, &stream);

    // A 2-member pool whose members BOTH die permanently after 2 blocks
    // each: the first batch of 4 (2 per member) completes, the second
    // fails with no survivors.
    let mut lost = BeamformerBuilder::new(Gpu::A100)
        .devices(&[Gpu::A100; 2])
        .weights(weights())
        .samples_per_block(SAMPLES)
        .precision(Precision::Float16)
        .fault_injector(Arc::new(FaultInjector::new(
            FaultPlan::new().kill_device(0, 2).kill_device(1, 2),
            2,
        )))
        .build_engine()
        .unwrap();

    let first: Vec<&HostComplexMatrix> = stream[..4].iter().collect();
    let mut served: Vec<HostComplexMatrix> = lost
        .process_batch(&first)
        .unwrap()
        .into_iter()
        .map(|o| o.beams)
        .collect();

    let second: Vec<&HostComplexMatrix> = stream[4..].iter().collect();
    let err = lost.process_batch(&second).unwrap_err();
    assert!(
        matches!(
            err,
            TcbfError::DeviceLost {
                permanent: true,
                ..
            }
        ),
        "got {err:?}"
    );
    assert_eq!(err.code(), 12);
    // The lost engine still accounts the blocks it finished.
    assert_eq!(lost.report().total_blocks(), 4);

    // A fresh healthy engine replays the failed batch: the concatenated
    // stream matches the no-fault reference.
    let mut replacement = BeamformerBuilder::new(Gpu::A100)
        .weights(weights())
        .samples_per_block(SAMPLES)
        .precision(Precision::Float16)
        .build_engine()
        .unwrap();
    served.extend(
        replacement
            .process_batch(&second)
            .unwrap()
            .into_iter()
            .map(|o| o.beams),
    );

    assert_eq!(
        served, expected,
        "a replayed batch must reproduce the no-fault stream bit for bit"
    );
}

#[test]
fn seeded_fault_plans_are_reproducible() {
    let a = FaultPlan::seeded(0xC0FFEE, 4, 32);
    let b = FaultPlan::seeded(0xC0FFEE, 4, 32);
    assert_eq!(a, b, "same seed, same plan");
    let c = FaultPlan::seeded(0xC0FFEF, 4, 32);
    assert_ne!(a, c, "different seed, different plan");

    // A seeded plan is survivable by construction (at least one device
    // is never permanently killed), so a pool under it still finishes.
    let stream = blocks(10);
    let expected = reference_outputs(Precision::Float16, Gpu::A100, &stream);
    let mut engine = BeamformerBuilder::new(Gpu::A100)
        .devices(&[Gpu::A100; 4])
        .weights(weights())
        .samples_per_block(SAMPLES)
        .precision(Precision::Float16)
        .fault_injector(Arc::new(FaultInjector::new(a, 4)))
        .build_engine()
        .unwrap();
    let refs: Vec<&HostComplexMatrix> = stream.iter().collect();
    let served: Vec<HostComplexMatrix> = engine
        .process_batch(&refs)
        .unwrap()
        .into_iter()
        .map(|o| o.beams)
        .collect();
    assert_eq!(served, expected);
}
