//! The measured run (tracing off): closed-loop callers, exact per-block
//! samples, and the end-to-end metrics derived from them.

use crate::guard::checksum;
use crate::rig::{Caller, Rig};
use crate::stats::{median, quantile};
use crate::workloads::{Inputs, Workload};
use std::time::{Duration, Instant};

/// The measured run is cut into this many equal segments; p95 is the
/// median over them, so one disturbed segment cannot move it.
pub const SEGMENTS: usize = 5;
/// `blocks_per_s` is the rate over the fastest run of this many
/// consecutive verified completions (all callers together).
pub const BURST: usize = 8;
/// Fresh set-up cycles timed for `setup_s` (after one discarded cold
/// one): half before the measured run, half after it, so that they meet
/// the host at two different moments.
pub const SETUP_CYCLES: usize = 24;

/// One block as its caller saw it, in nanoseconds since the loop's epoch.
pub struct Sample {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Output arrived and its checksum matched.
    pub ok: bool,
}

/// Runs every caller on its own thread for `duration`: a caller issues its
/// next block only when the previous output is in hand.  Each output is
/// checked against `expected` outside the block's timed interval.
/// Returns the samples per caller.
pub fn closed_loop(
    callers: &mut [Caller],
    inputs: &Inputs,
    expected: &[Vec<u64>],
    duration: Duration,
) -> Vec<Vec<Sample>> {
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .iter_mut()
            .zip(&inputs.blocks)
            .zip(expected)
            .map(|((caller, blocks), sums)| {
                scope.spawn(move || {
                    let mut samples = Vec::with_capacity(1 << 16);
                    let mut complained = false;
                    for i in 0.. {
                        if epoch.elapsed() >= duration {
                            break;
                        }
                        let slot = i % blocks.len();
                        let start_ns = epoch.elapsed().as_nanos() as u64;
                        let result = caller.run(&blocks[slot]);
                        let end_ns = epoch.elapsed().as_nanos() as u64;
                        let ok = match result {
                            Ok(beams) => checksum(&beams) == sums[slot],
                            Err(e) => {
                                if !complained {
                                    eprintln!("block {i} failed: {e}");
                                    complained = true;
                                }
                                false
                            }
                        };
                        samples.push(Sample {
                            start_ns,
                            end_ns,
                            ok,
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    })
}

/// The quietest stretch of a loop: the fastest run of [`BURST`]
/// consecutive completions.  `blocks` is `(end_ns, duration_ms)` of every
/// verified block, in any order.  Returns `(blocks per second over the
/// burst, median block time inside it)`, or `None` for fewer than
/// `BURST + 1` blocks.
pub fn quietest_burst(blocks: &mut [(u64, f64)]) -> Option<(f64, f64)> {
    blocks.sort_unstable_by_key(|b| b.0);
    let (_, best) = blocks
        .windows(BURST + 1)
        .enumerate()
        .min_by_key(|(_, run)| run[BURST].0 - run[0].0)?;
    let seconds = (best[BURST].0 - best[0].0).max(1) as f64 / 1e9;
    // The blocks that completed inside the interval: all but the one whose
    // completion opens it.
    let mut inside: Vec<f64> = best[1..].iter().map(|b| b.1).collect();
    Some((BURST as f64 / seconds, median(&mut inside)))
}

/// What a closed loop says, apart from set-up and memory.
///
/// The host this runs on is shared: identical code runs up to 1.5x slower
/// for seconds at a time (a register-only FMA loop shows the same swings),
/// so whole-run rates and medians move by 15-30 % between identical runs.
/// Interference only ever slows a block down, so what repeats is the
/// fast side: the quietest burst says what the program does when the host
/// leaves it alone.
pub struct LoopSummary {
    /// Verified blocks ÷ time over the quietest burst.
    pub burst_blocks_per_s: f64,
    /// Median block time inside the quietest burst.
    pub burst_p50_ms: f64,
    /// Verified blocks ÷ wall time of the whole loop (host noise included).
    pub whole_run_blocks_per_s: f64,
    /// Median block time over the whole loop (host noise included).
    pub whole_run_p50_ms: f64,
    /// Median over segments of the per-segment p95.
    pub p95_ms: f64,
    /// Fewest latency samples in any segment (p95 needs ≥ 200).
    pub min_segment_samples: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Share of the callers' wall time spent outside timed block calls
    /// (checksums, timestamps): what the harness itself costs.
    pub loop_overhead_frac: f64,
}

pub fn summarise(per_caller: &[Vec<Sample>], duration: Duration) -> LoopSummary {
    let segment_ns = (duration.as_nanos() as u64 / SEGMENTS as u64).max(1);
    let mut segments: Vec<Vec<f64>> = vec![Vec::new(); SEGMENTS];
    let mut blocks: Vec<(u64, f64)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut busy_ns, mut wall_ns) = (0u64, 0u64);
    for samples in per_caller {
        if let (Some(first), Some(last)) = (samples.first(), samples.last()) {
            wall_ns += last.end_ns - first.start_ns;
        }
        for s in samples {
            attempted += 1;
            busy_ns += s.end_ns - s.start_ns;
            if !s.ok {
                failed += 1;
                continue;
            }
            let ms = (s.end_ns - s.start_ns) as f64 / 1e6;
            blocks.push((s.end_ns, ms));
            // A block that completes after the last segment closed is in
            // no segment.
            if let Some(segment) = segments.get_mut((s.end_ns / segment_ns) as usize) {
                segment.push(ms);
            }
        }
    }
    let whole_run_blocks_per_s = blocks.len() as f64 / duration.as_secs_f64();
    let whole_run_p50_ms = median(&mut blocks.iter().map(|b| b.1).collect::<Vec<f64>>());
    let (burst_blocks_per_s, burst_p50_ms) =
        quietest_burst(&mut blocks).unwrap_or((whole_run_blocks_per_s, whole_run_p50_ms));
    let mut p95s: Vec<f64> = segments.iter_mut().map(|s| quantile(s, 0.95)).collect();
    LoopSummary {
        burst_blocks_per_s,
        burst_p50_ms,
        whole_run_blocks_per_s,
        whole_run_p50_ms,
        p95_ms: median(&mut p95s),
        min_segment_samples: segments.iter().map(Vec::len).min().unwrap_or(0),
        attempted,
        failed,
        loop_overhead_frac: if wall_ns > 0 {
            1.0 - busy_ns as f64 / wall_ns as f64
        } else {
            0.0
        },
    }
}

/// One fresh set-up cycle: builder (or `serve()` and the connects) up to
/// every caller holding its first output.  Returns the seconds that took
/// and the checksum of each caller's first output, for the guard.
pub fn setup_cycle(w: &Workload, inputs: &Inputs) -> Result<(f64, Vec<u64>), String> {
    let start = Instant::now();
    let mut rig = Rig::setup(w, inputs)?;
    let mut firsts = Vec::with_capacity(rig.callers.len());
    for (caller, blocks) in rig.callers.iter_mut().zip(&inputs.blocks) {
        firsts.push(caller.run(&blocks[0])?);
    }
    let elapsed = start.elapsed().as_secs_f64();
    rig.teardown()?;
    Ok((elapsed, firsts.iter().map(checksum).collect()))
}

/// Fails unless a set-up cycle's first outputs are the verified ones.
pub fn check_firsts(firsts: &[u64], expected: &[Vec<u64>]) -> Result<(), String> {
    if firsts
        .iter()
        .zip(expected)
        .all(|(sum, sums)| *sum == sums[0])
    {
        Ok(())
    } else {
        Err("a set-up cycle's first output is wrong".to_string())
    }
}

/// Seconds of each of `cycles` fresh, verified set-up cycles.
pub fn setup_cycles(
    w: &Workload,
    inputs: &Inputs,
    expected: &[Vec<u64>],
    cycles: usize,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        let (seconds, firsts) = setup_cycle(w, inputs)?;
        check_firsts(&firsts, expected)?;
        times.push(seconds);
    }
    Ok(times)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
