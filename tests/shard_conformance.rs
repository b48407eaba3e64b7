//! Cross-backend conformance of the sharded execution layer.
//!
//! Sharding a block stream across a pool must be a pure scheduling
//! decision: for every device in the catalog and every precision it
//! supports, the concatenated outputs of 1/2/4-device pools must be
//! element-wise **identical** (not merely close) to a single
//! [`Beamformer`] run block by block.  Property tests then
//! drive random batch sizes, block counts and pool compositions through
//! the planner and the merged-report invariants.

use beamform::{
    BeamformOutput, Beamformer, BeamformerConfig, Engine, Report, ShardPlan, ShardedBeamformer,
    WeightMatrix,
};
use ccglib::matrix::HostComplexMatrix;
use ccglib::Precision;
use gpu_sim::{DevicePool, DeviceSpec, Gpu};
use proptest::prelude::*;
use tcbf_types::Complex;

const BEAMS: usize = 4;
const RECEIVERS: usize = 16;
const SAMPLES: usize = 8;

fn weights() -> WeightMatrix {
    WeightMatrix::from_matrix(HostComplexMatrix::from_fn(BEAMS, RECEIVERS, |b, r| {
        Complex::from_polar(1.0 / RECEIVERS as f32, (b * r) as f32 * 0.05)
    }))
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

fn config(precision: Precision) -> BeamformerConfig {
    BeamformerConfig {
        precision,
        params: None,
    }
}

/// The single-device reference: one [`Beamformer`] over the stream, block
/// by block.
fn reference(
    gpu: Gpu,
    precision: Precision,
    stream: &[HostComplexMatrix],
) -> Vec<HostComplexMatrix> {
    let beamformer = Beamformer::new(&gpu.device(), weights(), SAMPLES, config(precision)).unwrap();
    stream
        .iter()
        .map(|block| beamformer.beamform(block).unwrap().beams)
        .collect()
}

/// One stream through a pool engine: the outputs in input order and the
/// finished report.
fn run(
    engine: &mut ShardedBeamformer,
    stream: &[HostComplexMatrix],
) -> (Vec<BeamformOutput>, Report) {
    let refs: Vec<&HostComplexMatrix> = stream.iter().collect();
    let outputs = engine.process_batch(&refs).unwrap();
    (outputs, engine.finish())
}

/// The precisions a catalog device can execute functionally.
fn supported_precisions(spec: &DeviceSpec) -> Vec<Precision> {
    let mut precisions = vec![Precision::Float16];
    if spec.supports_int1() {
        precisions.push(Precision::Int1);
    }
    precisions
}

#[test]
fn sharded_pools_match_the_batched_single_device_reference_everywhere() {
    // Every catalog device, every precision it supports, pools of 1, 2 and
    // 4 identical members: bit-identical outputs.
    let stream = blocks(8);
    for spec in DeviceSpec::catalog() {
        for precision in supported_precisions(&spec) {
            let reference = reference(spec.gpu, precision, &stream);
            for pool_size in [1usize, 2, 4] {
                let mut engine = ShardedBeamformer::new(
                    &DevicePool::from_gpus(&vec![spec.gpu; pool_size]),
                    weights(),
                    SAMPLES,
                    config(precision),
                )
                .unwrap();
                let (outputs, _) = run(&mut engine, &stream);
                assert_eq!(outputs.len(), stream.len());
                for (output, expected) in outputs.iter().zip(&reference) {
                    assert_eq!(
                        &output.beams, expected,
                        "{} {precision} pool={pool_size}",
                        spec.gpu
                    );
                }
            }
        }
    }
}

#[test]
fn heterogeneous_pools_are_also_conformant() {
    // Mixed NVIDIA/AMD pool: the members disagree on everything about
    // performance, but the data path is device-independent.
    let stream = blocks(11);
    let reference = reference(Gpu::A100, Precision::Float16, &stream);
    let pool = DevicePool::from_gpus(&[Gpu::Ad4000, Gpu::Gh200, Gpu::W7700, Gpu::Mi300a]);
    let mut engine =
        ShardedBeamformer::new(&pool, weights(), SAMPLES, config(Precision::Float16)).unwrap();
    let plan = engine.plan(stream.len());
    let (outputs, report) = run(&mut engine, &stream);
    for (output, expected) in outputs.iter().zip(&reference) {
        assert_eq!(&output.beams, expected);
    }
    // The merged totals cover exactly the stream.
    assert_eq!(report.total_blocks(), stream.len());
    assert_eq!(plan.num_devices(), 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_policy_assigns_each_block_exactly_once(
        devices in 1usize..8,
        blocks in 0usize..200,
        weight_seed in any::<u64>(),
    ) {
        // Pseudo-random positive capacity weights (plus occasional zeros
        // from the modulus to exercise degenerate entries).
        let mut state = weight_seed | 1;
        let capacities: Vec<f64> = (0..devices)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) % 1000) as f64
            })
            .collect();
        let plan = ShardPlan::new(&capacities, blocks);
        prop_assert_eq!(plan.num_devices(), devices);
        let mut seen: Vec<usize> = plan.assignments().iter().flatten().copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..blocks).collect::<Vec<_>>());
    }

    #[test]
    fn merged_report_invariants_hold_for_random_pools(
        pool_seed in any::<u64>(),
        pool_size in 1usize..5,
        block_count in 0usize..10,
    ) {
        // Random pool composition over the full catalog (f16 runs
        // everywhere).
        let mut state = pool_seed | 1;
        let gpus: Vec<Gpu> = (0..pool_size)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                Gpu::ALL[(state >> 33) as usize % Gpu::ALL.len()]
            })
            .collect();
        let mut engine = ShardedBeamformer::new(
            &DevicePool::from_gpus(&gpus),
            weights(),
            SAMPLES,
            config(Precision::Float16),
        )
        .unwrap();
        let stream = blocks(block_count);
        let (outputs, report) = run(&mut engine, &stream);
        prop_assert_eq!(outputs.len(), block_count);

        // Totals equal the sums of the per-device reports.
        prop_assert_eq!(
            report.total_blocks(),
            report.per_device().iter().map(|(_, r)| r.blocks).sum::<usize>()
        );
        let joules: f64 = report.per_device().iter().map(|(_, r)| r.total_joules).sum();
        prop_assert!((report.total_joules() - joules).abs() <= 1e-12 * joules.max(1.0));
        let agg: f64 = report.per_device().iter().map(|(_, r)| r.aggregate_tops()).sum();
        prop_assert!((report.aggregate_tops() - agg).abs() <= 1e-9 * agg.max(1.0));

        // worst <= mean (up to summation rounding), all finite.
        prop_assert!(report.worst_tops() <= report.mean_tops() * (1.0 + 1e-12));
        for metric in [
            report.aggregate_tops(),
            report.wall_clock_s(),
            report.effective_fps(),
            report.tops_per_joule(),
            report.speedup_over_serial(),
            report.worst_tops(),
            report.mean_tops(),
        ] {
            prop_assert!(metric.is_finite());
        }

        // The wall clock is the straggler; no member exceeds it.
        for (_, device) in report.per_device() {
            prop_assert!(device.total_elapsed_s <= report.wall_clock_s() + 1e-18);
        }
    }
}
