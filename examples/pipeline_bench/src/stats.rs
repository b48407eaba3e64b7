//! Order statistics over exact samples (no histogram buckets: the
//! server's log2 `LatencyHistogram` cannot resolve a 10 % change).

/// The `q`-quantile (nearest rank) of `samples`; sorts in place.  Returns
/// 0.0 for an empty slice so an empty phase prints instead of panicking —
/// every caller also prints the sample count.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}
