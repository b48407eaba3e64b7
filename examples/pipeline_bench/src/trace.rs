//! Spans recorded by the harness around its calls into each layer.
//!
//! A span is `(block_id, name, parent, start_ns, end_ns)`; the spans of
//! one block share its id, `parent` names the span that caused this one
//! (empty for a root).  Spans stay in memory and are written out once, when
//! the workload ends.  A span's self time is its duration minus its
//! children's.

use crate::stats::{median, quantile};
use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub block_id: u64,
    pub name: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `capacity` spans are reserved up front so that recording one never
    /// allocates inside somebody else's timed interval.
    pub fn new(epoch: Instant, capacity: usize) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Closes a span opened at `start_ns` (a value of [`Tracer::now`]).
    pub fn record(
        &mut self,
        block_id: u64,
        name: &'static str,
        parent: &'static str,
        start_ns: u64,
    ) {
        let end_ns = self.now();
        self.spans.push(Span {
            block_id,
            name,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// `(end_ns, duration_ms)` of every span called `name`: the shape
    /// [`crate::measure::quietest_burst`] takes.
    pub fn blocks(&self, name: &str) -> Vec<(u64, f64)> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns, s.us() / 1e3))
            .collect()
    }

    /// Median duration in µs of the spans called `name`.
    pub fn median_us(&self, name: &str) -> f64 {
        median(&mut self.durations_us(name))
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Self times in µs of the spans called `name`: each span minus the
    /// spans of the same block that name it as parent.
    fn self_times_us(&self, name: &str) -> Vec<f64> {
        let mut children = std::collections::BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent == name) {
            *children.entry(s.block_id).or_insert(0.0) += s.us();
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.us() - children.get(&s.block_id).copied().unwrap_or(0.0))
            .collect()
    }

    /// Prints one row per span name: samples, median, p95, median self
    /// time, and the median as a share of `whole_us`.
    pub fn print_stage_table(&self, whole_us: f64) {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        println!(
            "  {:<22} {:>7} {:>12} {:>12} {:>12} {:>7}",
            "span", "n", "median_us", "p95_us", "self_us", "share"
        );
        for name in names {
            let mut all = self.durations_us(name);
            let p50 = median(&mut all);
            println!(
                "  {:<22} {:>7} {:>12.2} {:>12.2} {:>12.2} {:>6.1}%",
                name,
                all.len(),
                p50,
                quantile(&mut all, 0.95),
                median(&mut self.self_times_us(name)),
                100.0 * p50 / whole_us
            );
        }
    }

    /// Writes `workload,block_id,name,parent,start_ns,end_ns` rows.
    pub fn write_csv(&self, workload: &str, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "workload,block_id,name,parent,start_ns,end_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{workload},{},{},{},{},{}",
                s.block_id, s.name, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
