//! Fixed-bucket log2 latency histogram.
//!
//! Production reports need tail latency — p95/p99 block latency — not
//! just the mean, and a fleet of engines needs to *merge* per-worker
//! distributions without shipping raw samples around.  Both rule out
//! storing samples: a [`LatencyHistogram`] is a fixed array of 64
//! power-of-two buckets over nanoseconds, so recording is O(1), the
//! memory footprint is constant (and `Copy`), and merging two histograms
//! is a bucket-wise sum — exact, commutative and associative.
//!
//! Percentiles are read back conservatively as the *upper edge* of the
//! bucket containing the requested rank: the reported p99 is an upper
//! bound on the true p99 that is at most 2× off, which is the standard
//! trade-off of log2 bucketing (HdrHistogram-style, one significant
//! digit).

use serde::{Deserialize, Serialize};

/// Number of log2 buckets: bucket `i` covers `[2^i, 2^{i+1})` nanoseconds
/// (bucket 0 also absorbs sub-nanosecond samples), so 64 buckets span
/// everything a `u64` nanosecond count can express — from 1 ns to ~584
/// years.
pub const LATENCY_BUCKETS: usize = 64;

/// A fixed-bucket log2 histogram of latencies in nanoseconds.
///
/// ```
/// use beamform::LatencyHistogram;
///
/// let mut hist = LatencyHistogram::new();
/// for us in [10.0, 12.0, 15.0, 900.0] {
///     hist.record_s(us * 1e-6);
/// }
/// assert_eq!(hist.count(), 4);
/// // Three of four samples land below 16.384 µs; the straggler drives
/// // the tail.
/// assert!(hist.p50_s() < 20e-6);
/// assert!(hist.p99_s() > 500e-6);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    count: u64,
    buckets: [u64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            count: 0,
            buckets: [0; LATENCY_BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket a nanosecond latency falls into.
    #[inline]
    fn bucket_of(nanos: u64) -> usize {
        if nanos <= 1 {
            0
        } else {
            (nanos.ilog2() as usize).min(LATENCY_BUCKETS - 1)
        }
    }

    /// Records one latency given in nanoseconds.  Counts saturate at
    /// `u64::MAX` instead of wrapping, so a histogram that has absorbed
    /// absurd totals degrades to a pinned tail rather than corrupting.
    #[inline]
    pub(crate) fn record_ns(&mut self, nanos: u64) {
        let bucket = &mut self.buckets[Self::bucket_of(nanos)];
        *bucket = bucket.saturating_add(1);
        self.count = self.count.saturating_add(1);
    }

    /// Records one latency given in seconds.  Negative and non-finite
    /// values clamp to the bottom and top buckets respectively.
    pub fn record_s(&mut self, seconds: f64) {
        let nanos = if seconds.is_finite() {
            (seconds * 1e9).clamp(0.0, u64::MAX as f64) as u64
        } else if seconds > 0.0 {
            u64::MAX
        } else {
            0
        };
        self.record_ns(nanos);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The per-bucket counts (bucket `i` covers `[2^i, 2^{i+1})` ns).
    pub fn buckets(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.buckets
    }

    /// Merges another histogram into this one (bucket-wise sum): the
    /// result is exactly the histogram of the union of both sample sets,
    /// so fleet-wide aggregation is commutative and associative.  Bucket
    /// counts and the total saturate at `u64::MAX` instead of wrapping.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.count = self.count.saturating_add(other.count);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine = mine.saturating_add(*theirs);
        }
    }

    /// The upper edge of bucket `i` in seconds.
    fn bucket_upper_s(index: usize) -> f64 {
        // Bucket i covers [2^i, 2^{i+1}) ns; report the exclusive upper
        // edge so the estimate bounds the true percentile from above.
        2f64.powi(index as i32 + 1) * 1e-9
    }

    /// The latency (in seconds) below which `quantile` (in `[0, 1]`) of
    /// the recorded samples fall, as the conservative upper edge of the
    /// containing bucket.  Returns 0.0 for an empty histogram.
    pub(crate) fn percentile_s(&self, quantile: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let quantile = quantile.clamp(0.0, 1.0);
        // Rank of the sample that decides the percentile (1-based,
        // nearest-rank definition); at least the first sample.
        let target = ((quantile * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(bucket);
            if cumulative >= target {
                return Self::bucket_upper_s(index);
            }
        }
        Self::bucket_upper_s(LATENCY_BUCKETS - 1)
    }

    /// Median latency in seconds (bucket upper edge; 0.0 when empty).
    pub fn p50_s(&self) -> f64 {
        self.percentile_s(0.50)
    }

    /// 95th-percentile latency in seconds (bucket upper edge; 0.0 when
    /// empty).
    pub fn p95_s(&self) -> f64 {
        self.percentile_s(0.95)
    }

    /// 99th-percentile latency in seconds (bucket upper edge; 0.0 when
    /// empty).
    pub fn p99_s(&self) -> f64 {
        self.percentile_s(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_finite_zeros() {
        let hist = LatencyHistogram::new();
        assert_eq!(hist.count(), 0);
        assert!(hist.is_empty());
        for quantile in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let p = hist.percentile_s(quantile);
            assert_eq!(p, 0.0);
            assert!(p.is_finite());
        }
    }

    #[test]
    fn single_sample_decides_every_percentile() {
        let mut hist = LatencyHistogram::new();
        hist.record_s(3e-6); // 3000 ns -> bucket 11 [2048, 4096) ns
        assert_eq!(hist.count(), 1);
        let upper = 4096e-9;
        for quantile in [0.01, 0.5, 0.95, 0.99, 1.0] {
            assert!((hist.percentile_s(quantile) - upper).abs() < 1e-15);
        }
        // The estimate bounds the true value from above, within 2x.
        assert!(hist.p99_s() >= 3e-6);
        assert!(hist.p99_s() <= 2.0 * 3e-6);
    }

    #[test]
    fn merge_is_commutative_and_counts_add() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for ns in [100u64, 2_000, 2_500, 1 << 20] {
            a.record_ns(ns);
        }
        for ns in [1u64, 50_000, 1 << 30] {
            b.record_ns(ns);
        }
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), a.count() + b.count());
        // Merging is exactly the histogram of the union.
        let mut union = LatencyHistogram::new();
        for ns in [100u64, 2_000, 2_500, 1 << 20, 1, 50_000, 1 << 30] {
            union.record_ns(ns);
        }
        assert_eq!(ab, union);
        // Merging an empty histogram is the identity.
        let mut with_empty = ab;
        with_empty.merge(&LatencyHistogram::new());
        assert_eq!(with_empty, ab);
    }

    #[test]
    fn percentiles_are_monotonic_in_the_quantile() {
        let mut hist = LatencyHistogram::new();
        for i in 0..1000u64 {
            hist.record_ns(i * i + 1);
        }
        let mut last = 0.0;
        for q in 0..=100 {
            let p = hist.percentile_s(q as f64 / 100.0);
            assert!(p >= last, "percentile must not decrease");
            last = p;
        }
        assert!(hist.p50_s() <= hist.p95_s());
        assert!(hist.p95_s() <= hist.p99_s());
    }

    #[test]
    fn extreme_samples_clamp_into_the_edge_buckets() {
        let mut hist = LatencyHistogram::new();
        hist.record_s(-1.0); // clamps to bucket 0
        hist.record_s(0.0);
        hist.record_s(f64::INFINITY); // clamps to the top bucket
        hist.record_s(f64::NAN); // non-finite, non-positive: bottom
        assert_eq!(hist.count(), 4);
        assert_eq!(hist.buckets()[0], 3);
        assert_eq!(hist.buckets()[LATENCY_BUCKETS - 1], 1);
        assert!(hist.percentile_s(1.0).is_finite());
    }

    #[test]
    fn merging_an_empty_operand_in_either_direction_is_the_identity() {
        let mut samples = LatencyHistogram::new();
        for ns in [10u64, 3_000, 1 << 22] {
            samples.record_ns(ns);
        }
        // Non-empty <- empty.
        let mut lhs = samples;
        lhs.merge(&LatencyHistogram::new());
        assert_eq!(lhs, samples);
        // Empty <- non-empty.
        let mut rhs = LatencyHistogram::new();
        rhs.merge(&samples);
        assert_eq!(rhs, samples);
        // Empty <- empty.
        let mut both = LatencyHistogram::new();
        both.merge(&LatencyHistogram::new());
        assert!(both.is_empty());
        assert_eq!(both.percentile_s(0.99), 0.0);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        // A histogram whose bucket 0 and total are pinned at u64::MAX.
        let mut saturated = LatencyHistogram::new();
        saturated.record_ns(1);
        let mut pinned = saturated;
        pinned.merge(&saturated);
        // Force the extreme directly through repeated self-merges: each
        // merge doubles (with saturation), so 64 rounds pin the counts.
        for _ in 0..64 {
            let copy = pinned;
            pinned.merge(&copy);
        }
        assert_eq!(pinned.count(), u64::MAX);
        assert_eq!(pinned.buckets()[0], u64::MAX);
        // Merging more samples on top neither wraps nor panics.
        pinned.merge(&saturated);
        assert_eq!(pinned.count(), u64::MAX);
        assert_eq!(pinned.buckets()[0], u64::MAX);
        // Recording on a saturated histogram also saturates.
        pinned.record_ns(1);
        assert_eq!(pinned.count(), u64::MAX);
        // Percentiles stay finite and sane.
        assert!(pinned.percentile_s(0.99).is_finite());
        assert!((pinned.p50_s() - 2e-9).abs() < 1e-18);
        // The saturated operand can also be the right-hand side of a
        // merge into a small histogram.
        let mut small = LatencyHistogram::new();
        small.record_ns(1 << 40);
        small.merge(&pinned);
        assert_eq!(small.count(), u64::MAX);
        assert_eq!(small.buckets()[40], 1);
        // 2^63 samples at 1 ns and 2^63 at 2 ns: the merged total
        // saturates, and so must the running sum the percentile walks.
        let mut low = LatencyHistogram::new();
        low.record_ns(1);
        let mut high = LatencyHistogram::new();
        high.record_ns(2);
        for _ in 0..63 {
            let (low_copy, high_copy) = (low, high);
            low.merge(&low_copy);
            high.merge(&high_copy);
        }
        assert_eq!(low.buckets()[0], 1 << 63);
        low.merge(&high);
        assert_eq!(low.count(), u64::MAX);
        assert!((low.p99_s() - 4e-9).abs() < 1e-18);
    }

    #[test]
    fn nearest_rank_picks_the_right_bucket() {
        let mut hist = LatencyHistogram::new();
        // 98 samples in [1024, 2048) ns, 2 in [1, 2) microseconds above.
        for _ in 0..98 {
            hist.record_ns(1500);
        }
        hist.record_ns(1_000_000);
        hist.record_ns(1_500_000);
        assert!((hist.p50_s() - 2048e-9).abs() < 1e-15);
        assert!((hist.p95_s() - 2048e-9).abs() < 1e-15);
        // Rank ceil(0.99 * 100) = 99: the first straggler.
        assert!(hist.p99_s() > 1e-3 * 0.9);
    }
}
