//! The metric names, units and regression bounds this harness prints.
//! `BENCHMARK.json` at the repo root lists the same names; `README.md`
//! defines each one.

/// `(name, unit, better, bound)`: measured with tracing off; `bound` is
/// the share of the earlier value by which a later one may be worse.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("blocks_per_s", "1/s", "higher", 0.25),
    ("block_p50_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.20),
];

/// `(name, unit)`: measured in the traced run only; no bounds.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("block_p95_ms", "ms"),
    ("builder.build_engine_us", "us"),
    ("setup.cold_s", "s"),
    ("engine.process_block_us", "us"),
    ("engine.swap_weights_us", "us"),
    ("engine.unaccounted_frac", "frac"),
    ("transpose.us", "us"),
    ("transpose.gbs_computed", "GB/s"),
    ("quantise.us", "us"),
    ("quantise.melem_per_s", "Melem/s"),
    ("b_decode.us", "us"),
    ("kernel.us", "us"),
    ("kernel.gops_per_s", "Gop/s"),
    ("kernel.ops_per_block", "count"),
    ("kernel.bytes_per_block_computed", "B"),
    ("kernel.frac_of_host_peak", "frac"),
    ("plan.report_us", "us"),
    ("alloc.count_per_block", "count"),
    ("alloc.bytes_per_block", "B"),
    ("alloc.release_us", "us"),
    ("wire.block_encode_us", "us"),
    ("wire.block_decode_us", "us"),
    ("wire.beams_encode_us", "us"),
    ("wire.beams_decode_us", "us"),
    ("wire.block_frame_bytes", "B"),
    ("pool.checkout_us", "us"),
    ("pool.ensure_weights_us", "us"),
    ("pool.swaps_per_block", "1/block"),
    ("serve.server_side_p50_ms", "ms"),
    ("serve.transit_p50_ms", "ms"),
    ("serve.queue_share", "frac"),
    ("client.stream_overhead_us", "us"),
    ("serve.throttle_retries", "count"),
    ("host.fma_peak_gflops", "GFLOP/s"),
    ("host.popcnt_peak_gops", "Gop/s"),
    ("host.stream_bw_gbs", "GB/s"),
    ("trace.p50_ratio", "frac"),
    ("harness.loop_overhead_frac", "frac"),
];

/// Measured values by metric name, in the order they were taken.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64, String)>);

impl Values {
    /// Records `name` with a note printed beside it (sample counts,
    /// per-segment extremes, sizes).
    pub fn put(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.0.push((name, value, note.into()));
    }

    /// Prints every metric of `table` as `metric <name> <value> <unit>`
    /// and returns the contract's `metrics` object.  A metric that is
    /// missing or not finite is an error: nothing is printed as a guess.
    pub fn emit<'a>(
        &self,
        table: impl Iterator<Item = (&'a str, &'a str)>,
    ) -> Result<String, String> {
        let mut json = Vec::new();
        for (name, unit) in table {
            let (_, value, note) = self
                .0
                .iter()
                .find(|(n, _, _)| *n == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            println!("metric {name} {value} {unit}  {note}");
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", json.join(", ")))
    }
}
