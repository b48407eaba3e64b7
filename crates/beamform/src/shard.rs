//! Multi-device sharded beamforming.
//!
//! The paper's real-time targets (LOFAR's central processor, volumetric
//! ultrasound Doppler) exceed a single accelerator, so the streaming
//! pipeline scales out: a [`ShardedBeamformer`] owns one [`Beamformer`] per
//! member of a [`DevicePool`] (heterogeneous mixes allowed), a
//! [`ShardPlan`] partitions the block stream across the members into
//! contiguous runs weighted by each device's peak TeraOps/s, and the shards
//! execute in parallel, one worker per device.  Functional results are
//! device-independent, so the concatenated shard outputs are element-wise
//! identical to a single-device run of the same stream; only the
//! performance accounting changes, which is why the merged [`Report`]
//! keeps a per-device breakdown and derives the pool-level metrics
//! (aggregate TeraOps/s summed across members, wall clock set by the
//! straggler, joules summed) from it.
//!
//! [`ShardedBeamformer`] is the one implementation of the [`Engine`]
//! trait: a single device is a pool of one, driven through the same
//! [`Engine`] methods and application entry points as any pool.

// The serve path never panics: a failure is a typed error (docs/LINTS.md).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![cfg_attr(not(test), deny(clippy::disallowed_macros))]

use crate::beamformer::{BeamformOutput, Beamformer, BeamformerConfig};
use crate::engine::{Engine, Report};
use crate::stream::StreamReport;
use crate::weights::WeightMatrix;
use ccglib::matrix::HostComplexMatrix;
use ccglib::{GemmInput, Precision, TcbfError};
use gpu_sim::{BlockVerdict, DeviceFault, DevicePool, FaultInjector, Gpu};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The assignment of a stream of blocks to the members of a pool.
///
/// Every block index is assigned to exactly one device, and each device
/// receives one contiguous run sized proportionally to its peak TeraOps/s
/// at the session precision (largest-remainder apportionment), so a GH200
/// next to an AD4000 receives correspondingly more work.  Assignments are
/// deterministic functions of `(weights, block count)`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardPlan {
    /// `assignments[d]` lists the block indices device `d` executes, in
    /// the order it executes them.
    assignments: Vec<Vec<usize>>,
    blocks: usize,
}

impl ShardPlan {
    /// Plans `blocks` block indices over `capacity_weights.len()` devices.
    ///
    /// `capacity_weights` holds one throughput weight per device; each
    /// device's contiguous range is sized proportionally to it (equal
    /// weights if they do not sum to a positive value).
    pub fn new(capacity_weights: &[f64], blocks: usize) -> Self {
        let members: Vec<(f64, bool)> = capacity_weights.iter().map(|&w| (w, true)).collect();
        let ids: Vec<usize> = (0..blocks).collect();
        Self::reapportion(&members, &ids)
    }

    /// Plans an arbitrary list of block indices over the *surviving*
    /// members of a pool: `members[d]` is device `d`'s `(capacity weight,
    /// alive)` pair.
    ///
    /// This is the recovery primitive: after a device is lost mid-stream,
    /// its unfinished block indices are re-apportioned across the
    /// survivors by the same rule: largest-remainder apportionment over
    /// the surviving weights (equal weights if they do not sum to a
    /// positive value) hands each survivor a contiguous run of
    /// `block_ids`.  The plan still spans every pool position (dead
    /// devices get empty assignments) and is a deterministic function of
    /// its inputs, which is what keeps recovered runs bit-identical to the
    /// no-fault reference.
    ///
    /// [`ShardPlan::new`] is the degenerate case: all devices alive,
    /// `block_ids = 0..blocks`.  With no survivor every assignment is
    /// empty.
    pub(crate) fn reapportion(members: &[(f64, bool)], block_ids: &[usize]) -> Self {
        // (pool position, capacity weight) of every survivor, in pool order.
        let survivors: Vec<(usize, f64)> = members
            .iter()
            .enumerate()
            .filter(|&(_, &(_, up))| up)
            .map(|(device, &(weight, _))| (device, weight))
            .collect();
        // Contiguous runs: largest-remainder accounting guarantees the
        // counts tile `block_ids` exactly.
        let mut assignments = vec![Vec::new(); members.len()];
        let quotas = Self::quotas(&survivors, block_ids.len());
        let mut next = 0;
        for (&(device, _), count) in survivors.iter().zip(quotas) {
            if let Some(slot) = assignments.get_mut(device) {
                slot.extend_from_slice(block_ids.get(next..next + count).unwrap_or(&[]));
            }
            next += count;
        }
        ShardPlan {
            assignments,
            blocks: block_ids.len(),
        }
    }

    /// Largest-remainder apportionment of `blocks` over the survivors'
    /// weights (equal weights if they do not sum to a positive value):
    /// every survivor gets the floor of its proportional quota, then the
    /// leftover blocks go to the largest fractional remainders (ties broken
    /// by pool order).
    fn quotas(survivors: &[(usize, f64)], blocks: usize) -> Vec<usize> {
        let total: f64 = survivors.iter().map(|&(_, weight)| weight).sum();
        let equal = 1.0 / survivors.len() as f64;
        let quota = |i: usize| {
            survivors.get(i).map_or(0.0, |&(_, weight)| {
                blocks as f64 * if total > 0.0 { weight / total } else { equal }
            })
        };
        let remainder = |i: usize| quota(i) - quota(i).floor();
        let mut counts: Vec<usize> = (0..survivors.len())
            .map(|i| quota(i).floor() as usize)
            .collect();
        let assigned: usize = counts.iter().sum();
        let mut by_remainder: Vec<usize> = (0..survivors.len()).collect();
        by_remainder.sort_by(|&a, &b| remainder(b).total_cmp(&remainder(a)).then(a.cmp(&b)));
        for &survivor in by_remainder.iter().cycle().take(blocks - assigned) {
            if let Some(count) = counts.get_mut(survivor) {
                *count += 1;
            }
        }
        counts
    }

    /// Per-device block assignments, indexed by pool position.
    ///
    /// Public for `tests/shard_conformance.rs`, which checks that every
    /// policy assigns each block exactly once.
    pub fn assignments(&self) -> &[Vec<usize>] {
        &self.assignments
    }

    /// Number of devices the plan spans.
    pub fn num_devices(&self) -> usize {
        self.assignments.len()
    }
}

/// What one member did with its shard: the blocks it finished (by input
/// index) and their accounting, and how the shard ended — cleanly
/// (`Ok(None)`), on an injected fault together with the block ids it left
/// unfinished, or on an execution error.
type ShardRun = (
    Vec<(usize, BeamformOutput)>,
    StreamReport,
    ccglib::Result<Option<(DeviceFault, Vec<usize>)>>,
);

/// A beamformer spanning every member of a [`DevicePool`]: one identical
/// [`Beamformer`] per device, a capacity-weighted [`ShardPlan`], and
/// parallel per-shard execution.  Every member caches its own prepared
/// (pre-decoded) weight operand, so the per-device shard workers run the
/// decode-once hot path: weights are converted when the pool is built (and
/// on hot-swap), never per block.
///
/// The one [`Engine`] implementation — a single device is a pool of one —
/// driven directly or as a `Box<dyn Engine>`.
///
/// ```
/// use beamform::{BeamformerConfig, Engine, ShardedBeamformer, WeightMatrix};
/// use ccglib::matrix::HostComplexMatrix;
/// use gpu_sim::{DevicePool, Gpu};
/// use tcbf_types::Complex;
///
/// let weights = WeightMatrix::from_matrix(HostComplexMatrix::from_fn(4, 16, |b, r| {
///     Complex::from_polar(1.0 / 16.0, (b * r) as f32 * 0.1)
/// }));
/// let pool = DevicePool::from_gpus(&[Gpu::A100, Gpu::Gh200]);
/// let mut sharded =
///     ShardedBeamformer::new(&pool, weights, 8, BeamformerConfig::float16()).unwrap();
/// let blocks: Vec<_> = (0..6)
///     .map(|i| HostComplexMatrix::from_fn(16, 8, |r, s| {
///         Complex::new((r + s + i) as f32 * 0.05, r as f32 * 0.02)
///     }))
///     .collect();
/// let refs: Vec<&HostComplexMatrix> = blocks.iter().collect();
/// let outputs = sharded.process_batch(&refs).unwrap();
/// assert_eq!(outputs.len(), 6);
/// assert!(sharded.finish().aggregate_tops() > 0.0);
/// ```
pub struct ShardedBeamformer {
    members: Vec<Beamformer>,
    gpus: Vec<Gpu>,
    /// `(capacity weight, alive)` per pool member; a permanent fault clears
    /// the flag and the member is excluded from every later plan.
    capacity_alive: Vec<(f64, bool)>,
    /// The report of the [`Engine`] run in progress: one entry per member,
    /// in pool order, plus the engine-wide weight swaps.
    report: Report,
    /// Optional fault source, consulted before every block; without one
    /// every verdict is `Proceed`.
    injector: Option<Arc<FaultInjector>>,
}

impl ShardedBeamformer {
    /// Builds one beamformer per pool member, all sharing the same
    /// weights, block length and configuration.
    pub fn new(
        pool: &DevicePool,
        weights: WeightMatrix,
        samples_per_block: usize,
        config: BeamformerConfig,
    ) -> ccglib::Result<Self> {
        // `repeat_n` hands the last member the original: a pool of one
        // copies no weights.
        let members = pool
            .iter()
            .zip(std::iter::repeat_n(weights, pool.len()))
            .map(|(device, weights)| Beamformer::new(device, weights, samples_per_block, config))
            .collect::<ccglib::Result<Vec<_>>>()?;
        let capacity_alive = pool
            .iter()
            .map(|device| (Self::capacity(device.spec(), config.precision), true))
            .collect();
        let gpus = pool.gpus();
        Ok(ShardedBeamformer {
            members,
            report: Self::empty_report(&gpus),
            gpus,
            capacity_alive,
            injector: None,
        })
    }

    /// Arms a [`FaultInjector`] over the pool.  The injector must span
    /// exactly one verdict stream per pool member.  With an injector
    /// armed, [`Engine::process_batch`] consults it before every block
    /// and recovers from refusals by re-apportioning the unfinished
    /// blocks across the surviving members (see `docs/FAULTS.md`).
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) -> ccglib::Result<()> {
        if injector.num_devices() != self.members.len() {
            return Err(TcbfError::InvalidParameters {
                reason: format!(
                    "fault injector spans {} devices but the pool has {}",
                    injector.num_devices(),
                    self.members.len()
                ),
            });
        }
        // Honour losses the injector has already recorded.
        for (device, (_, alive)) in self.capacity_alive.iter_mut().enumerate() {
            *alive = injector.is_alive(device);
        }
        self.injector = Some(injector);
        Ok(())
    }

    /// The first pool member (a built pool has at least one).
    fn first_member(&self) -> ccglib::Result<&Beamformer> {
        self.members.first().ok_or_else(|| TcbfError::Internal {
            reason: "shard pool has no members".into(),
        })
    }

    /// A report with an empty entry for every member, in pool order.
    fn empty_report(gpus: &[Gpu]) -> Report {
        let per_device = gpus.iter().map(|&gpu| (gpu, StreamReport::default()));
        Report::new(per_device.collect(), 0)
    }

    /// Peak useful TeraOps/s of one device at a precision — the capacity
    /// weight of the shard plan.
    fn capacity(spec: &gpu_sim::DeviceSpec, precision: Precision) -> f64 {
        match precision {
            Precision::Float16 => spec.f16_peak_tops(),
            Precision::Int1 => spec.int1_best_useful_peak_tops().unwrap_or(0.0),
            Precision::Float32Reference => spec.fp32_peak_tops(),
        }
    }

    /// Runs one member's shard: consults the injector (if any) before
    /// every block and stops at the first refusal or execution error,
    /// keeping what the member finished before it.
    fn run_shard(
        member: &Beamformer,
        device: usize,
        assigned: &[usize],
        operands: &[GemmInput],
        injector: Option<&FaultInjector>,
    ) -> ShardRun {
        let ops = member.shape().complex_ops() as f64;
        let mut report = StreamReport::default();
        let mut outputs = Vec::with_capacity(assigned.len());
        for (position, &block) in assigned.iter().enumerate() {
            let verdict = injector.map_or(BlockVerdict::Proceed, |i| i.on_block(device));
            if let BlockVerdict::Fail(observed) = verdict {
                let unfinished = assigned.get(position..).unwrap_or(&[]).to_vec();
                return (outputs, report, Ok(Some((observed, unfinished))));
            }
            let result = operands
                .get(block)
                .ok_or_else(|| TcbfError::Internal {
                    reason: format!("shard plan references block {block} out of range"),
                })
                .and_then(|operand| member.beamform_operand(operand));
            let mut output = match result {
                Ok(output) => output,
                Err(error) => return (outputs, report, Err(error)),
            };
            if let BlockVerdict::Slow(factor) = verdict {
                // A throttled device produces the same numbers, just
                // later: stretch the modelled time, derate the rates.
                output.report.predicted.elapsed_s *= factor;
                output.report.predicted.achieved_tops /= factor;
                output.report.achieved_tops /= factor;
            }
            report.record(&output.report, ops, 1);
            outputs.push((block, output));
        }
        (outputs, report, Ok(None))
    }
}

impl Engine for ShardedBeamformer {
    fn gpus(&self) -> &[Gpu] {
        &self.gpus
    }

    /// Members lost to permanent faults are excluded (their assignments
    /// are empty, so a pool that has lost every member plans nothing).
    fn plan(&self, blocks: usize) -> ShardPlan {
        let ids: Vec<usize> = (0..blocks).collect();
        ShardPlan::reapportion(&self.capacity_alive, &ids)
    }

    /// The one fan-out loop: plan over the live members, run the shards
    /// in parallel (one worker per device) consulting the fault injector —
    /// if one is armed — before every block, and re-apportion whatever
    /// faulted members left unfinished across the survivors until the
    /// batch completes (or no member survives).
    ///
    /// Outputs are written into input-order slots and every block executes
    /// exactly once under the current weights, so a recovered batch is
    /// bit-identical to a no-fault run.  Work a member completed *before*
    /// a fault or an execution error stays in its accounting; transient
    /// refusals leave the member alive and eligible for the very next
    /// re-apportionment.
    fn process_operands(&mut self, operands: &[GemmInput]) -> ccglib::Result<Vec<BeamformOutput>> {
        let injector = self.injector.as_deref();
        let mut slots: Vec<Option<BeamformOutput>> = Vec::new();
        slots.resize_with(operands.len(), || None);
        let mut pending: Vec<usize> = (0..operands.len()).collect();
        let mut last_lost = 0usize;
        // Each pass either finishes the batch, fails it, or consumes at
        // least one fault; permanent faults are finite (one per member)
        // and transient faults fire at most once each, so this terminates.
        while !pending.is_empty() {
            if !self.capacity_alive.iter().any(|&(_, up)| up) {
                return Err(TcbfError::DeviceLost {
                    device: last_lost,
                    permanent: true,
                });
            }
            let plan = ShardPlan::reapportion(&self.capacity_alive, &pending);
            let shards: Vec<(usize, &Beamformer, &[usize])> = self
                .members
                .iter()
                .enumerate()
                .map(|(d, member)| {
                    let assigned = plan.assignments().get(d).map(Vec::as_slice).unwrap_or(&[]);
                    (d, member, assigned)
                })
                .collect();
            let runs: Vec<ShardRun> = shards
                .par_iter()
                .map(|&(device, member, assigned)| {
                    Self::run_shard(member, device, assigned, operands, injector)
                })
                .collect();

            let mut leftovers: Vec<usize> = Vec::new();
            let mut failed = None;
            for (device, (outputs, report, end)) in runs.into_iter().enumerate() {
                for (block, output) in outputs {
                    if let Some(slot) = slots.get_mut(block) {
                        *slot = Some(output);
                    }
                }
                self.report.absorb_into(device, &report);
                match end {
                    Ok(None) => {}
                    Ok(Some((observed, unfinished))) => {
                        leftovers.extend(unfinished);
                        if observed.permanent {
                            if let Some((_, up)) = self.capacity_alive.get_mut(device) {
                                *up = false;
                            }
                            last_lost = device;
                        }
                    }
                    // Every member's finished work is absorbed before the
                    // first error (in pool order) is reported.
                    Err(error) => failed = failed.or(Some(error)),
                }
            }
            if let Some(error) = failed {
                return Err(error);
            }
            // Deterministic replay order regardless of which worker
            // reported its fault first.
            leftovers.sort_unstable();
            pending = leftovers;
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.ok_or_else(|| TcbfError::Internal {
                    reason: "shard plan left a block without an output".into(),
                })
            })
            .collect()
    }

    /// A misshapen block is quantised as it is and refused where it runs,
    /// after the blocks planned before it.
    fn process_batch(
        &mut self,
        blocks: &[&HostComplexMatrix],
    ) -> ccglib::Result<Vec<BeamformOutput>> {
        let precision = self.first_member()?.config().precision;
        let operands = blocks
            .iter()
            .map(|block| GemmInput::quantise_block(precision, block))
            .collect::<ccglib::Result<Vec<_>>>()?;
        self.process_operands(&operands)
    }

    /// The shape is validated before any member is touched, so a rejected
    /// swap leaves the whole pool on the old weights.
    fn swap_weights(&mut self, weights: WeightMatrix) -> ccglib::Result<()> {
        let current = self.first_member()?.weights();
        if weights.num_beams() != current.num_beams()
            || weights.num_receivers() != current.num_receivers()
        {
            return Err(TcbfError::ShapeMismatch {
                expected: format!(
                    "{} beams x {} receivers",
                    current.num_beams(),
                    current.num_receivers()
                ),
                actual: format!("{} x {}", weights.num_beams(), weights.num_receivers()),
            });
        }
        let copies = std::iter::repeat_n(weights, self.members.len());
        for (member, weights) in self.members.iter_mut().zip(copies) {
            member.set_weights(weights)?;
        }
        self.report.count_swap();
        Ok(())
    }

    fn report(&self) -> Report {
        self.report.clone()
    }

    fn finish(&mut self) -> Report {
        std::mem::replace(&mut self.report, Self::empty_report(&self.gpus))
    }
}

impl std::fmt::Debug for ShardedBeamformer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedBeamformer")
            .field("gpus", &self.gpus)
            .field("capacity_alive", &self.capacity_alive)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Gpu;
    use tcbf_types::Complex;

    fn weights(beams: usize, receivers: usize) -> WeightMatrix {
        WeightMatrix::from_matrix(HostComplexMatrix::from_fn(beams, receivers, |b, r| {
            Complex::from_polar(1.0 / receivers as f32, (b * r) as f32 * 0.03)
        }))
    }

    fn block(receivers: usize, samples: usize, seed: usize) -> HostComplexMatrix {
        HostComplexMatrix::from_fn(receivers, samples, |r, s| {
            Complex::new(
                ((r + s + seed) % 7) as f32 * 0.1 - 0.3,
                ((r * 3 + s + seed) % 5) as f32 * 0.1,
            )
        })
    }

    /// One batch through the engine, then its finished report.
    fn run(
        engine: &mut ShardedBeamformer,
        blocks: &[HostComplexMatrix],
    ) -> (Vec<BeamformOutput>, Report) {
        let refs: Vec<&HostComplexMatrix> = blocks.iter().collect();
        let outputs = engine.process_batch(&refs).unwrap();
        (outputs, engine.finish())
    }

    fn alive(engine: &ShardedBeamformer) -> Vec<bool> {
        engine.capacity_alive.iter().map(|&(_, up)| up).collect()
    }

    fn sharded(gpus: &[Gpu]) -> ShardedBeamformer {
        ShardedBeamformer::new(
            &DevicePool::from_gpus(gpus),
            weights(4, 16),
            8,
            BeamformerConfig::float16(),
        )
        .unwrap()
    }

    #[test]
    fn capacity_weighted_plan_is_proportional_and_complete() {
        // 3:1 weights over 8 blocks: 6 and 2.
        let plan = ShardPlan::new(&[3.0, 1.0], 8);
        assert_eq!(plan.assignments(), [vec![0, 1, 2, 3, 4, 5], vec![6, 7]]);
        let mut seen: Vec<usize> = plan.assignments().iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn degenerate_weights_split_into_equal_contiguous_runs() {
        let plan = ShardPlan::new(&[0.0, 0.0], 4);
        assert_eq!(plan.assignments()[0], vec![0, 1]);
        assert_eq!(plan.assignments()[1], vec![2, 3]);
        // The leftover block goes to the first member in pool order.
        let plan = ShardPlan::new(&[0.0, 0.0, 0.0], 7);
        assert_eq!(plan.assignments(), [vec![0, 1, 2], vec![3, 4], vec![5, 6]]);
    }

    #[test]
    fn sharded_stream_matches_single_device_blocks() {
        let blocks: Vec<HostComplexMatrix> = (0..10).map(|i| block(16, 8, i)).collect();
        let single = Beamformer::new(
            &Gpu::A100.device(),
            weights(4, 16),
            8,
            BeamformerConfig::float16(),
        )
        .unwrap();
        let mut engine = sharded(&[Gpu::A100, Gpu::Gh200, Gpu::Mi300x]);
        let (outputs, _) = run(&mut engine, &blocks);
        assert_eq!(outputs.len(), blocks.len());
        for (output, samples) in outputs.iter().zip(&blocks) {
            let reference = single.beamform(samples).unwrap();
            assert_eq!(output.beams, reference.beams);
        }
    }

    #[test]
    fn capacity_weighted_pool_loads_the_fast_device_heavier() {
        let engine = sharded(&[Gpu::Gh200, Gpu::Ad4000]);
        let plan = engine.plan(20);
        // GH200 measures 646 TOPs/s vs the AD4000's 117: roughly 17 vs 3.
        assert!(
            plan.assignments()[0].len() > 3 * plan.assignments()[1].len(),
            "assignments {:?}",
            plan.assignments()
        );
    }

    #[test]
    fn merged_report_sums_devices_and_takes_the_straggler() {
        let mut engine = sharded(&[Gpu::A100, Gpu::A100]);
        let blocks: Vec<HostComplexMatrix> = (0..6).map(|i| block(16, 8, i)).collect();
        let (_, report) = run(&mut engine, &blocks);
        assert_eq!(report.total_blocks(), 6);
        let by_hand_joules: f64 = report
            .per_device()
            .iter()
            .map(|(_, r)| r.total_joules)
            .sum();
        assert!((report.total_joules() - by_hand_joules).abs() < 1e-12);
        let agg: f64 = report
            .per_device()
            .iter()
            .map(|(_, r)| r.aggregate_tops())
            .sum();
        assert!((report.aggregate_tops() - agg).abs() < 1e-9);
        let straggler = report
            .per_device()
            .iter()
            .map(|(_, r)| r.total_elapsed_s)
            .fold(0.0, f64::max);
        assert_eq!(report.wall_clock_s(), straggler);
        // Identical devices with equal shares: near-2x parallel speed-up.
        assert!(report.speedup_over_serial() > 1.9);
        assert!(report.worst_tops() <= report.mean_tops() * (1.0 + 1e-12));
    }

    #[test]
    fn empty_sharded_report_is_all_zeros() {
        let mut engine = sharded(&[Gpu::A100, Gpu::Gh200]);
        let (outputs, report) = run(&mut engine, &[]);
        assert!(outputs.is_empty());
        assert_eq!(report.total_blocks(), 0);
        assert_eq!(report.aggregate_tops(), 0.0);
        assert_eq!(report.wall_clock_s(), 0.0);
        assert_eq!(report.effective_fps(), 0.0);
        assert_eq!(report.tops_per_joule(), 0.0);
        assert_eq!(report.speedup_over_serial(), 0.0);
        assert_eq!(report.worst_tops(), 0.0);
    }

    #[test]
    fn engine_accumulates_across_calls_and_swaps_weights_everywhere() {
        let mut engine = sharded(&[Gpu::A100, Gpu::Gh200]);
        let blocks: Vec<HostComplexMatrix> = (0..4).map(|i| block(16, 8, i)).collect();
        let refs: Vec<&HostComplexMatrix> = blocks.iter().collect();
        let before = engine.process_batch(&refs).unwrap();
        let resteered = WeightMatrix::from_matrix(HostComplexMatrix::from_fn(4, 16, |b, r| {
            Complex::from_polar(1.0 / 16.0, -((b * r) as f32 * 0.03))
        }));
        engine.swap_weights(resteered).unwrap();
        let after = engine.process_batch(&refs).unwrap();
        // Every block on every device sees the new weights.
        for (b, a) in before.iter().zip(&after) {
            assert!(b.beams.max_abs_diff(&a.beams) > 1e-3);
        }
        let report = engine.finish();
        assert_eq!(report.total_blocks(), 8);
        assert_eq!(report.weight_swaps(), 1);
    }

    #[test]
    fn shape_changing_swaps_leave_the_pool_untouched() {
        let mut engine = sharded(&[Gpu::A100, Gpu::A100]);
        assert!(engine.swap_weights(weights(5, 16)).is_err());
        assert_eq!(engine.report().weight_swaps(), 0);
        // The pool still works on the old shape.
        assert!(engine.process_block(&block(16, 8, 0)).is_ok());
    }

    #[test]
    fn reapportion_with_all_alive_reduces_to_new() {
        let ids: Vec<usize> = (0..17).collect();
        let fresh = ShardPlan::new(&[3.0, 1.0, 2.0], 17);
        let re = ShardPlan::reapportion(&[(3.0, true), (1.0, true), (2.0, true)], &ids);
        assert_eq!(fresh, re);
    }

    #[test]
    fn reapportion_excludes_dead_members_and_covers_every_id() {
        let ids = [3usize, 5, 8, 13, 21];
        let members = [(3.0, true), (1.0, false), (2.0, true)];
        let plan = ShardPlan::reapportion(&members, &ids);
        assert!(plan.assignments()[1].is_empty(), "dead member got work");
        let mut seen: Vec<usize> = plan.assignments().iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, ids.to_vec());
        // Deterministic: the same inputs always give the same plan.
        let again = ShardPlan::reapportion(&members, &ids);
        assert_eq!(plan, again);
    }

    #[test]
    fn reapportion_with_no_survivors_assigns_nothing() {
        let plan = ShardPlan::reapportion(&[(1.0, false), (1.0, false)], &[0, 1]);
        assert_eq!(plan.num_devices(), 2);
        assert!(plan.assignments().iter().all(Vec::is_empty));
    }

    fn injected(gpus: &[Gpu], plan: gpu_sim::FaultPlan) -> (ShardedBeamformer, Arc<FaultInjector>) {
        let mut engine = sharded(gpus);
        let injector = Arc::new(FaultInjector::new(plan, gpus.len()));
        engine.set_fault_injector(Arc::clone(&injector)).unwrap();
        (engine, injector)
    }

    fn reference_outputs(blocks: &[HostComplexMatrix]) -> Vec<BeamformOutput> {
        let single = Beamformer::new(
            &Gpu::A100.device(),
            weights(4, 16),
            8,
            BeamformerConfig::float16(),
        )
        .unwrap();
        blocks.iter().map(|b| single.beamform(b).unwrap()).collect()
    }

    #[test]
    fn permanent_fault_mid_batch_recovers_bit_identical() {
        let blocks: Vec<HostComplexMatrix> = (0..12).map(|i| block(16, 8, i)).collect();
        let expected = reference_outputs(&blocks);
        let (mut engine, injector) = injected(
            &[Gpu::A100, Gpu::A100, Gpu::A100],
            gpu_sim::FaultPlan::new().kill_device(1, 2),
        );
        let refs: Vec<&HostComplexMatrix> = blocks.iter().collect();
        let outputs = Engine::process_batch(&mut engine, &refs).unwrap();
        assert!(!injector.is_alive(1));
        assert_eq!(alive(&engine), [true, false, true]);
        // Member 1 finishes blocks 4 and 5 and is lost on its third
        // attempt; blocks 6 and 7 are replayed, one on each survivor:
        // 4 + 3 + 4 + 2 attempts, against 12 without the fault.
        let attempts: u64 = (0..3).map(|d| injector.attempts(d)).sum();
        assert_eq!(attempts, 13);
        for (output, reference) in outputs.iter().zip(&expected) {
            assert_eq!(output.beams, reference.beams);
        }
        // Later batches plan only over the survivors.
        let plan = engine.plan(6);
        assert!(plan.assignments()[1].is_empty());
    }

    #[test]
    fn transient_fault_is_replayed_without_losing_the_member() {
        let blocks: Vec<HostComplexMatrix> = (0..8).map(|i| block(16, 8, i)).collect();
        let expected = reference_outputs(&blocks);
        let (mut engine, injector) = injected(
            &[Gpu::A100, Gpu::A100],
            gpu_sim::FaultPlan::new().drop_block(0, 1),
        );
        let refs: Vec<&HostComplexMatrix> = blocks.iter().collect();
        let outputs = Engine::process_batch(&mut engine, &refs).unwrap();
        assert!(injector.is_alive(0));
        assert_eq!(alive(&engine), [true, true]);
        // Member 0 finishes block 0 and has block 1 refused; blocks 1..=3
        // are replayed as contiguous runs, [1, 2] on member 0 and [3] on
        // member 1: 2 + 4 + 3 attempts, against 8 without the fault.
        assert_eq!(injector.attempts(0) + injector.attempts(1), 9);
        assert_eq!((injector.attempts(0), injector.attempts(1)), (4, 5));
        for (output, reference) in outputs.iter().zip(&expected) {
            assert_eq!(output.beams, reference.beams);
        }
    }

    #[test]
    fn latency_spike_inflates_accounting_but_not_outputs() {
        let blocks: Vec<HostComplexMatrix> = (0..8).map(|i| block(16, 8, i)).collect();
        let run_with = |plan: gpu_sim::FaultPlan| {
            let (mut engine, _) = injected(&[Gpu::A100, Gpu::A100], plan);
            let refs: Vec<&HostComplexMatrix> = blocks.iter().collect();
            let outputs = Engine::process_batch(&mut engine, &refs).unwrap();
            (outputs, engine.finish())
        };
        let (clean_outputs, clean_report) = run_with(gpu_sim::FaultPlan::new());
        let (slow_outputs, slow_report) =
            run_with(gpu_sim::FaultPlan::new().slow_device(1, 0, 8.0));
        for (slow, clean) in slow_outputs.iter().zip(&clean_outputs) {
            assert_eq!(slow.beams, clean.beams);
        }
        let clean_elapsed = clean_report.per_device()[1].1.total_elapsed_s;
        let slow_elapsed = slow_report.per_device()[1].1.total_elapsed_s;
        assert!(
            slow_elapsed > clean_elapsed * 7.9,
            "spiked member should be ~8x slower: {slow_elapsed} vs {clean_elapsed}"
        );
        assert!(slow_report.wall_clock_s() > clean_report.wall_clock_s());
    }

    #[test]
    fn losing_every_member_reports_device_lost() {
        let blocks: Vec<HostComplexMatrix> = (0..6).map(|i| block(16, 8, i)).collect();
        let (mut engine, _) = injected(
            &[Gpu::A100, Gpu::A100],
            gpu_sim::FaultPlan::new()
                .kill_device(0, 1)
                .kill_device(1, 1),
        );
        let refs: Vec<&HostComplexMatrix> = blocks.iter().collect();
        let err = Engine::process_batch(&mut engine, &refs).unwrap_err();
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
        assert_eq!(alive(&engine), [false, false]);
    }

    #[test]
    fn injector_must_span_the_pool() {
        let mut engine = sharded(&[Gpu::A100, Gpu::A100]);
        let injector = Arc::new(FaultInjector::new(gpu_sim::FaultPlan::new(), 3));
        assert!(engine.set_fault_injector(injector).is_err());
    }
}
