//! The unified execution engine: one API from a single GPU to a pool.
//!
//! The paper's layering — a beamforming pipeline that scales from one
//! accelerator to a heterogeneous pool without the application noticing —
//! is expressed here as a single object-safe [`Engine`] trait.
//! [`crate::ShardedBeamformer`] (one [`crate::Beamformer`] per pool
//! member) is the one implementation — a single device is a pool of one,
//! and [`Engine::gpus`] lists the members in pool order; downstream code is
//! written once against `&mut impl Engine` or [`Box<dyn Engine>`] and works
//! on any pool.
//!
//! Every engine accumulates one unified [`Report`]: a per-device breakdown
//! (with exactly one device for a pool of one) from which the pool-level
//! metrics — summed aggregate TeraOps/s, the straggler's wall clock, the
//! parallel speed-up — are derived uniformly.  A stream is driven through
//! the engine itself: [`Engine::process_block`] for one block,
//! [`Engine::process_batch`] for several under the same weights.

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

use crate::beamformer::BeamformOutput;
use crate::shard::ShardPlan;
use crate::stream::StreamReport;
use crate::weights::WeightMatrix;
use ccglib::matrix::HostComplexMatrix;
use ccglib::TcbfError;
use gpu_sim::Gpu;
use serde::{Deserialize, Serialize};

/// The unified report of an engine run: a per-device breakdown plus the
/// pool-level metrics derived from it.
///
/// This one type covers every topology.  Each pool member contributes a
/// `(gpu, report)` pair whose [`StreamReport`] covers exactly the blocks
/// that device executed.  A single-device engine reports a breakdown with
/// exactly one entry, so its serial metrics embed naturally: the wall
/// clock equals that device's total kernel time, the aggregate throughput
/// equals its aggregate throughput and [`Report::speedup_over_serial`] is
/// 1.0.  For a pool, totals (`total_blocks`, `total_joules`) are the sums
/// of the per-device reports, [`Report::aggregate_tops`] sums the members'
/// aggregate TeraOps/s (the members run concurrently), and the wall clock
/// of the run is the *straggler's* elapsed time — the slowest member
/// bounds the pool, exactly as in any data-parallel pipeline.
///
/// Weight swaps are counted once per engine-wide swap (not once per
/// member), in [`Report::weight_swaps`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Report {
    per_device: Vec<(Gpu, StreamReport)>,
    weight_swaps: usize,
}

impl Report {
    /// Builds a report from per-device reports and the number of
    /// engine-wide weight swaps.
    pub fn new(per_device: Vec<(Gpu, StreamReport)>, weight_swaps: usize) -> Self {
        Report {
            per_device,
            weight_swaps,
        }
    }

    /// The per-device breakdown, in pool order (exactly one entry for a
    /// single-device engine).
    pub fn per_device(&self) -> &[(Gpu, StreamReport)] {
        &self.per_device
    }

    /// Number of engine-wide weight swaps (each swap counts once, not once
    /// per member).
    pub fn weight_swaps(&self) -> usize {
        self.weight_swaps
    }

    /// Folds `report` into the entry of the member at `device` (pool
    /// order); an index past the pool is ignored.
    pub(crate) fn absorb_into(&mut self, device: usize, report: &StreamReport) {
        if let Some((_, accumulated)) = self.per_device.get_mut(device) {
            accumulated.absorb(report);
        }
    }

    /// Counts one engine-wide weight swap.
    pub(crate) fn count_swap(&mut self) {
        self.weight_swaps += 1;
    }

    /// All per-device reports folded into one serial-equivalent
    /// [`StreamReport`]: totals summed, per-execution worst case merged.
    fn merged_serial(&self) -> StreamReport {
        let mut merged = StreamReport::default();
        for (_, report) in &self.per_device {
            merged.absorb(report);
        }
        merged
    }

    /// Total blocks processed across all devices.
    pub fn total_blocks(&self) -> usize {
        self.per_device.iter().map(|(_, r)| r.blocks).sum()
    }

    /// Total energy across all devices in joules.
    pub fn total_joules(&self) -> f64 {
        self.per_device.iter().map(|(_, r)| r.total_joules).sum()
    }

    /// Aggregate throughput in TeraOps/s: the sum of the members'
    /// aggregate throughputs, since the members run concurrently.  For a
    /// single device this is simply its aggregate throughput.  Zero for an
    /// empty run.
    pub fn aggregate_tops(&self) -> f64 {
        self.per_device
            .iter()
            .map(|(_, r)| r.aggregate_tops())
            .sum()
    }

    /// Wall-clock time of the run in seconds: the straggler's total
    /// elapsed kernel time (members run concurrently, so the slowest one
    /// bounds the pool; for a single device this is its total kernel
    /// time).  Zero for an empty run.
    pub fn wall_clock_s(&self) -> f64 {
        self.per_device
            .iter()
            .map(|(_, r)| r.total_elapsed_s)
            .fold(0.0, f64::max)
    }

    /// Effective block (frame) rate: blocks per second of wall-clock time.
    /// Zero for a zero-block or zero-elapsed run.
    pub fn effective_fps(&self) -> f64 {
        let wall = self.wall_clock_s();
        if wall > 0.0 {
            self.total_blocks() as f64 / wall
        } else {
            0.0
        }
    }

    /// Aggregate energy efficiency in TeraOps/J.  Zero for a zero-energy
    /// run.
    pub fn tops_per_joule(&self) -> f64 {
        self.merged_serial().tops_per_joule()
    }

    /// Worst per-execution throughput across all members, in TeraOps/s.
    pub fn worst_tops(&self) -> f64 {
        self.merged_serial().worst_tops()
    }

    /// Mean per-execution throughput across all members, in TeraOps/s.
    pub fn mean_tops(&self) -> f64 {
        self.merged_serial().mean_tops()
    }

    /// Parallel speed-up over running the same stream serially on the
    /// members: summed elapsed time divided by the straggler's wall clock.
    /// 1.0 for a single-member engine, 0.0 for an empty run.
    pub fn speedup_over_serial(&self) -> f64 {
        let wall = self.wall_clock_s();
        if wall > 0.0 {
            let serial: f64 = self.per_device.iter().map(|(_, r)| r.total_elapsed_s).sum();
            serial / wall
        } else {
            0.0
        }
    }
}

/// A streaming beamforming engine, independent of device topology.
///
/// The trait is **object safe**: heterogeneous topologies can be driven
/// through `Box<dyn Engine>` (what
/// `tcbf::BeamformerBuilder::build_engine()` returns) or `&mut dyn
/// Engine`.  The one shipped implementation is
/// [`crate::ShardedBeamformer`] (one beamformer per pool member, parallel
/// shard execution; a single device is a pool of one), so downstream
/// pipelines read one metric surface regardless of topology.
///
/// Engines stream *whole blocks* — one `K × N` sample block per GEMM
/// execution.
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
/// let mut engine = ShardedBeamformer::new(
///     &DevicePool::from_gpus(&[Gpu::A100]), weights, 8,
///     BeamformerConfig::float16(),
/// ).unwrap();
/// let block = HostComplexMatrix::from_fn(16, 8, |r, s| Complex::new(r as f32 * 0.1, s as f32));
/// for _ in 0..3 {
///     engine.process_block(&block).unwrap();
/// }
/// let report = engine.finish();
/// assert_eq!(report.total_blocks(), 3);
/// assert!(report.aggregate_tops() > 0.0);
/// ```
///
/// `Send` is a supertrait: serving layers hand engines between worker
/// threads (e.g. `tcbf-serve`'s engine pool), so every engine must be
/// movable across threads.
pub trait Engine: std::fmt::Debug + Send {
    /// The catalog identifiers of the devices the engine spans, in pool
    /// order (one entry for a pool of one).
    fn gpus(&self) -> &[Gpu];

    /// The [`ShardPlan`] a stream of `blocks` blocks would execute under.
    /// A pool of one assigns every block to its only device.
    fn plan(&self, blocks: usize) -> ShardPlan;

    /// Processes one batch of `K × N` sample blocks, returning the
    /// per-block outputs in input order and folding the per-execution
    /// reports into the engine's accumulated [`Report`].  Work completed
    /// before a failing block stays accounted: every device records block
    /// by block, so a failed call leaves the blocks its devices finished
    /// first in the report, and the blocks a faulted member left unfinished
    /// are re-apportioned onto the survivors (see `docs/FAULTS.md`).
    fn process_batch(
        &mut self,
        blocks: &[&HostComplexMatrix],
    ) -> ccglib::Result<Vec<BeamformOutput>>;

    /// Processes one `K × N` block of sensor samples: a one-block
    /// [`Engine::process_batch`].
    fn process_block(&mut self, block: &HostComplexMatrix) -> ccglib::Result<BeamformOutput> {
        let mut outputs = self.process_batch(&[block])?;
        outputs.pop().ok_or_else(|| TcbfError::Internal {
            reason: "engine returned no output for a one-block batch".into(),
        })
    }

    /// Hot-swaps the beam weights on **every** device of the engine (same
    /// `beams × receivers` shape; kernel plans are reused unchanged).  A
    /// rejected swap leaves all devices on the old weights.  Successful
    /// swaps are counted in [`Report::weight_swaps`].
    fn swap_weights(&mut self, weights: WeightMatrix) -> ccglib::Result<()>;

    /// The report accumulated since construction or the last
    /// [`Engine::finish`].
    fn report(&self) -> Report;

    /// Ends the current run: returns its report and resets the
    /// accumulation, so the engine can immediately start a fresh run.
    fn finish(&mut self) -> Report;
}

impl<E: Engine + ?Sized> Engine for Box<E> {
    fn gpus(&self) -> &[Gpu] {
        (**self).gpus()
    }

    fn plan(&self, blocks: usize) -> ShardPlan {
        (**self).plan(blocks)
    }

    fn process_batch(
        &mut self,
        blocks: &[&HostComplexMatrix],
    ) -> ccglib::Result<Vec<BeamformOutput>> {
        (**self).process_batch(blocks)
    }

    fn swap_weights(&mut self, weights: WeightMatrix) -> ccglib::Result<()> {
        (**self).swap_weights(weights)
    }

    fn report(&self) -> Report {
        (**self).report()
    }

    fn finish(&mut self) -> Report {
        (**self).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beamformer::BeamformerConfig;
    use crate::shard::ShardedBeamformer;
    use gpu_sim::DevicePool;
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

    fn pool_engine(gpus: &[Gpu]) -> ShardedBeamformer {
        ShardedBeamformer::new(
            &DevicePool::from_gpus(gpus),
            weights(4, 16),
            8,
            BeamformerConfig::float16(),
        )
        .unwrap()
    }

    #[test]
    fn a_pool_of_one_embeds_its_metrics_in_a_one_device_breakdown() {
        let mut engine = pool_engine(&[Gpu::A100]);
        let blocks: Vec<HostComplexMatrix> = (0..4).map(|i| block(16, 8, i)).collect();
        let refs: Vec<&HostComplexMatrix> = blocks.iter().collect();
        let outputs = engine.process_batch(&refs).unwrap();
        assert_eq!(outputs.len(), 4);
        let report = engine.report();
        assert_eq!(report.per_device().len(), 1);
        assert_eq!(report.per_device()[0].0, Gpu::A100);
        assert_eq!(report.total_blocks(), 4);
        // One device: wall clock == its serial kernel time, speed-up 1.0,
        // aggregate == the device's aggregate.
        let serial = report.merged_serial();
        assert_eq!(report.wall_clock_s(), serial.total_elapsed_s);
        assert!((report.speedup_over_serial() - 1.0).abs() < 1e-12);
        assert!((report.aggregate_tops() - serial.aggregate_tops()).abs() < 1e-12);
    }

    #[test]
    fn engine_trait_is_object_safe_across_topologies() {
        let mut engines: Vec<Box<dyn Engine>> = vec![
            Box::new(pool_engine(&[Gpu::A100])),
            Box::new(pool_engine(&[Gpu::A100, Gpu::Gh200])),
        ];
        let blocks: Vec<HostComplexMatrix> = (0..5).map(|i| block(16, 8, i)).collect();
        let refs: Vec<&HostComplexMatrix> = blocks.iter().collect();
        let mut all = Vec::new();
        for engine in &mut engines {
            // Introspection through the trait object.
            let plan = engine.plan(blocks.len());
            assert_eq!(plan.num_devices(), engine.gpus().len());
            all.push(engine.process_batch(&refs).unwrap());
            assert_eq!(engine.report().total_blocks(), 5);
        }
        // The device layout is a scheduling decision only: identical outputs.
        for (a, b) in all[0].iter().zip(&all[1]) {
            assert_eq!(a.beams, b.beams);
        }
        assert_eq!(engines[0].gpus(), [Gpu::A100]);
        assert_eq!(engines[1].gpus(), [Gpu::A100, Gpu::Gh200]);
    }

    #[test]
    fn boxed_engines_of_any_pool_stream_and_count_swaps_alike() {
        let run = |mut engine: Box<dyn Engine>| -> (Vec<BeamformOutput>, Report) {
            let blocks: Vec<HostComplexMatrix> = (0..4).map(|i| block(16, 8, i)).collect();
            let refs: Vec<&HostComplexMatrix> = blocks.iter().collect();
            let mut outputs = engine.process_batch(&refs).unwrap();
            engine.swap_weights(weights(4, 16)).unwrap();
            for b in &blocks {
                outputs.push(engine.process_block(b).unwrap());
            }
            (outputs, engine.finish())
        };
        let (single_out, single_report) = run(Box::new(pool_engine(&[Gpu::A100])));
        let (pool_out, pool_report) = run(Box::new(pool_engine(&[Gpu::A100, Gpu::A100])));
        assert_eq!(single_out.len(), 8);
        for (s, p) in single_out.iter().zip(&pool_out) {
            assert_eq!(s.beams, p.beams);
        }
        for report in [&single_report, &pool_report] {
            assert_eq!(report.total_blocks(), 8);
            assert_eq!(report.weight_swaps(), 1);
        }
        assert_eq!(single_report.per_device().len(), 1);
        assert_eq!(pool_report.per_device().len(), 2);
    }

    #[test]
    fn finish_resets_the_engine_for_a_fresh_run() {
        let mut engine = pool_engine(&[Gpu::Gh200]);
        let b = block(16, 8, 0);
        engine.process_batch(&[&b]).unwrap();
        engine.swap_weights(weights(4, 16)).unwrap();
        let first = engine.finish();
        assert_eq!(first.total_blocks(), 1);
        assert_eq!(first.weight_swaps(), 1);
        // The next run starts from zero.
        assert_eq!(engine.report().total_blocks(), 0);
        assert_eq!(engine.report().weight_swaps(), 0);
        engine.process_batch(&[&b, &b]).unwrap();
        let second = engine.finish();
        assert_eq!(second.total_blocks(), 2);
        assert_eq!(second.weight_swaps(), 0);
    }

    #[test]
    fn throughput_metrics_agree_between_report_flavours() {
        let mut engine = pool_engine(&[Gpu::A100]);
        let blocks: Vec<HostComplexMatrix> = (0..3).map(|i| block(16, 8, i)).collect();
        let refs: Vec<&HostComplexMatrix> = blocks.iter().collect();
        engine.process_batch(&refs).unwrap();
        let report = engine.report();
        let serial = report.merged_serial();
        // One device: the unified report and its serial merge agree.
        assert_eq!(report.worst_tops(), serial.worst_tops());
        assert_eq!(report.mean_tops(), serial.mean_tops());
        assert_eq!(report.tops_per_joule(), serial.tops_per_joule());
        assert_eq!(
            report.effective_fps(),
            serial.blocks as f64 / serial.total_elapsed_s
        );
    }

    #[test]
    fn report_merging_ignores_devices_with_zero_blocks() {
        // A pool where one member contributed nothing (e.g. it was lost
        // before the run, or the plan gave it no blocks) must not poison
        // the merged metrics with empty-report extremes.
        let mut engine = pool_engine(&[Gpu::A100]);
        let b = block(16, 8, 0);
        engine.process_batch(&[&b, &b]).unwrap();
        let active = engine.report().per_device()[0];
        let idle = (Gpu::Gh200, StreamReport::default());
        let with_idle = Report::new(vec![active, idle], 0);
        let without = Report::new(vec![active], 0);
        assert_eq!(with_idle.total_blocks(), without.total_blocks());
        assert_eq!(with_idle.merged_serial(), without.merged_serial());
        assert_eq!(with_idle.merged_serial().blocks, with_idle.total_blocks());
        assert_eq!(with_idle.aggregate_tops(), without.aggregate_tops());
        assert_eq!(with_idle.wall_clock_s(), without.wall_clock_s());
        assert_eq!(with_idle.worst_tops(), without.worst_tops());
        assert_eq!(with_idle.mean_tops(), without.mean_tops());
    }

    #[test]
    fn empty_engine_reports_finite_zeros() {
        let engine = pool_engine(&[Gpu::A100]);
        let report = engine.report();
        assert_eq!(report.total_blocks(), 0);
        for metric in [
            report.aggregate_tops(),
            report.wall_clock_s(),
            report.effective_fps(),
            report.tops_per_joule(),
            report.speedup_over_serial(),
            report.worst_tops(),
            report.mean_tops(),
        ] {
            assert_eq!(metric, 0.0);
            assert!(metric.is_finite());
        }
    }
}
