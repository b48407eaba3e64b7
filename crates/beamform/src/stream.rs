//! Accounting of a stream of executions.
//!
//! The paper evaluates the beamformer as a *pipeline*: continuous blocks
//! of receiver samples flow through the complex GEMM and throughput and
//! energy are reported over the whole run, not per block.  A
//! [`StreamReport`] is the accumulator behind that: it folds per-execution
//! [`RunReport`]s into aggregate, mean and worst-case throughput and total
//! energy.  Every pool member of a [`crate::Engine`] keeps one (exposed
//! through the unified [`crate::Report`]), and so do the serving layer's
//! client connections and the ultrasound frame-rate model's streams.

use ccglib::RunReport;
use serde::{Deserialize, Serialize};

/// Aggregate performance/energy report of a stream of executions.
///
/// All totals are exact sums over the per-execution [`RunReport`]s the
/// stream recorded; the derived metrics (aggregate/mean/worst-case
/// TeraOps/s, TeraOps/J) are computed from those sums.
#[derive(Clone, Copy, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct StreamReport {
    /// Number of blocks processed (each batch element counts as one block).
    pub blocks: usize,
    /// Number of GEMM executions (a modelled batched kernel is one
    /// execution).
    pub executions: usize,
    /// Total predicted kernel time in seconds.
    pub total_elapsed_s: f64,
    /// Total energy over all executions in joules.
    pub total_joules: f64,
    /// Total useful operations (the paper's `8·M·N·K` per batch element).
    pub total_useful_ops: f64,
    /// Sum of the per-execution achieved TeraOps/s (for the mean).
    sum_tops: f64,
    /// Worst per-execution achieved TeraOps/s seen so far.
    min_tops: f64,
}

impl StreamReport {
    /// Folds one execution covering `blocks` sample blocks into the totals.
    ///
    /// Engines call this for every block they process; it is public so
    /// prediction-driven pipelines (e.g. the ultrasound frame-rate model,
    /// which never materialises data and predicts a batched shape as one
    /// execution) can accumulate the same aggregate report from their
    /// [`RunReport`]s.
    pub fn record(&mut self, report: &RunReport, useful_ops: f64, blocks: usize) {
        if self.executions == 0 {
            self.min_tops = f64::INFINITY;
        }
        self.blocks += blocks;
        self.executions += 1;
        self.total_elapsed_s += report.predicted.elapsed_s;
        self.total_joules += report.energy.joules;
        self.total_useful_ops += useful_ops;
        self.sum_tops += report.achieved_tops;
        self.min_tops = self.min_tops.min(report.achieved_tops);
    }

    /// Folds another report into this one as if its executions had run on
    /// the same device back to back: all totals are summed and the
    /// per-execution worst case is merged.  Used by the sharding layer to
    /// aggregate per-device reports (where *elapsed* sums are the serial
    /// equivalent, not the parallel wall clock — see [`crate::Report`]).
    pub(crate) fn absorb(&mut self, other: &StreamReport) {
        if other.executions == 0 {
            return;
        }
        if self.executions == 0 {
            self.min_tops = f64::INFINITY;
        }
        self.blocks += other.blocks;
        self.executions += other.executions;
        self.total_elapsed_s += other.total_elapsed_s;
        self.total_joules += other.total_joules;
        self.total_useful_ops += other.total_useful_ops;
        self.sum_tops += other.sum_tops;
        self.min_tops = self.min_tops.min(other.min_tops);
    }

    /// Aggregate throughput over the whole stream in TeraOps/s: total
    /// useful operations divided by total kernel time.
    pub fn aggregate_tops(&self) -> f64 {
        if self.total_elapsed_s > 0.0 {
            self.total_useful_ops / self.total_elapsed_s / 1e12
        } else {
            0.0
        }
    }

    /// Mean of the per-execution achieved TeraOps/s.
    pub fn mean_tops(&self) -> f64 {
        if self.executions > 0 {
            self.sum_tops / self.executions as f64
        } else {
            0.0
        }
    }

    /// Worst-case per-execution achieved TeraOps/s.
    pub fn worst_tops(&self) -> f64 {
        if self.executions > 0 {
            self.min_tops
        } else {
            0.0
        }
    }

    /// Aggregate energy efficiency in TeraOps/J.
    pub fn tops_per_joule(&self) -> f64 {
        if self.total_joules > 0.0 {
            self.total_useful_ops / self.total_joules / 1e12
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beamformer::{BeamformOutput, Beamformer, BeamformerConfig};
    use crate::weights::WeightMatrix;
    use ccglib::matrix::HostComplexMatrix;
    use ccglib::{Gemm, Precision};
    use gpu_sim::Gpu;
    use tcbf_types::{Complex, GemmShape};

    fn beamformer(beams: usize, receivers: usize, samples: usize) -> Beamformer {
        let weights =
            WeightMatrix::from_matrix(HostComplexMatrix::from_fn(beams, receivers, |b, r| {
                Complex::from_polar(1.0 / receivers as f32, (b * r) as f32 * 0.03)
            }));
        let config = BeamformerConfig::float16();
        Beamformer::new(&Gpu::A100.device(), weights, samples, config).unwrap()
    }

    fn block(receivers: usize, samples: usize, seed: usize) -> HostComplexMatrix {
        HostComplexMatrix::from_fn(receivers, samples, |r, s| {
            Complex::new(
                ((r + s + seed) % 7) as f32 * 0.1 - 0.3,
                ((r * 3 + s + seed) % 5) as f32 * 0.1,
            )
        })
    }

    /// Beamforms blocks `seeds` of an 8×32×16 stream one at a time,
    /// recording every execution the way an engine does.
    fn stream(seeds: std::ops::Range<usize>) -> (Vec<BeamformOutput>, StreamReport) {
        let beamformer = beamformer(8, 32, 16);
        let ops = beamformer.shape().complex_ops() as f64;
        let mut report = StreamReport::default();
        let outputs = seeds
            .map(|seed| {
                let output = beamformer.beamform(&block(32, 16, seed)).unwrap();
                report.record(&output.report, ops, 1);
                output
            })
            .collect();
        (outputs, report)
    }

    #[test]
    fn stream_totals_equal_the_sum_of_per_block_reports() {
        let (outputs, report) = stream(0..4);
        assert_eq!(outputs.len(), 4);

        let elapsed: f64 = outputs.iter().map(|o| o.report.predicted.elapsed_s).sum();
        let joules: f64 = outputs.iter().map(|o| o.report.energy.joules).sum();
        let mean: f64 =
            outputs.iter().map(|o| o.report.achieved_tops).sum::<f64>() / outputs.len() as f64;
        let worst = outputs
            .iter()
            .map(|o| o.report.achieved_tops)
            .fold(f64::INFINITY, f64::min);

        assert_eq!(report.blocks, 4);
        assert_eq!(report.executions, 4);
        assert!((report.total_elapsed_s - elapsed).abs() < 1e-15);
        assert!((report.total_joules - joules).abs() < 1e-12);
        assert!((report.mean_tops() - mean).abs() < 1e-9);
        assert!((report.worst_tops() - worst).abs() < 1e-9);
        let ops = 4.0 * (8 * 32 * 16 * 8) as f64;
        assert!((report.total_useful_ops - ops).abs() < 1e-6);
        assert!(report.aggregate_tops() > 0.0);
        assert!(report.tops_per_joule() > 0.0);
    }

    #[test]
    fn batched_execution_counts_every_block() {
        // What the ultrasound frame-rate model does: one predicted
        // execution of a batched shape stands for `batch` blocks.
        let shape = GemmShape::batched(3, 4, 8, 16);
        let gemm = Gemm::new(&Gpu::A100.device(), shape, Precision::Float16).unwrap();
        let mut report = StreamReport::default();
        report.record(&gemm.predict(), shape.complex_ops() as f64, shape.batch);
        assert_eq!(report.blocks, 3);
        assert_eq!(report.executions, 1);
        // One batched execution accounts the batched shape's operations.
        let ops = (3 * 8 * 4 * 8 * 16) as f64;
        assert!((report.total_useful_ops - ops).abs() < 1e-6);
    }

    #[test]
    fn empty_report_is_all_finite_zeros() {
        // Regression guard: an empty stream must report finite zeros on
        // every derived metric, never NaN or infinity.
        let report = StreamReport::default();
        assert_eq!(report.blocks, 0);
        for metric in [
            report.aggregate_tops(),
            report.mean_tops(),
            report.worst_tops(),
            report.tops_per_joule(),
        ] {
            assert_eq!(metric, 0.0);
            assert!(metric.is_finite());
        }
    }

    #[test]
    fn absorb_merges_totals_and_extremes() {
        let (_, first) = stream(0..3);
        let (_, second) = stream(3..7);
        let mut merged = StreamReport::default();
        merged.absorb(&first);
        merged.absorb(&second);
        // Absorbing an empty report changes nothing.
        merged.absorb(&StreamReport::default());
        assert_eq!(merged.blocks, first.blocks + second.blocks);
        assert_eq!(merged.executions, 7);
        let elapsed = first.total_elapsed_s + second.total_elapsed_s;
        assert!((merged.total_elapsed_s - elapsed).abs() < 1e-15);
        assert_eq!(
            merged.worst_tops(),
            first.worst_tops().min(second.worst_tops())
        );
        // worst <= mean up to summation rounding (all executions share
        // one device and shape, so the two are within an ulp).
        assert!(merged.worst_tops() <= merged.mean_tops() * (1.0 + 1e-12));
    }
}
