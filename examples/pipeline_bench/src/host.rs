//! Host-ceiling probes, run in the traced phase so that
//! `kernel.frac_of_host_peak` and `transpose.gbs_computed` have a
//! denominator measured in the same run, on the same cores, by code the
//! same compiler flags produced.  Never a remembered constant.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

pub struct HostCeilings {
    pub threads: usize,
    /// f32 fused multiply-adds from registers, all cores, 2 flops each.
    pub fma_peak_gflops: f64,
    /// XOR + popcount over L1-resident words, all cores, counted like the
    /// 1-bit kernel counts: 64 multiplies + 64 adds per 64-bit word.
    pub popcnt_peak_gops: f64,
    /// In-place scale of one array of `stream_array_bytes`, read + write.
    pub stream_bw_gbs: f64,
    pub llc_bytes: usize,
    pub stream_array_bytes: usize,
}

/// Runs `work` on `threads` threads at once and returns the wall seconds
/// of the slowest start-to-finish.
fn timed_on_all(threads: usize, work: impl Fn() + Sync) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(&work);
        }
    });
    start.elapsed().as_secs_f64()
}

/// Median of three takes of a rate.
fn median_of_3(mut rate: impl FnMut() -> f64) -> f64 {
    median(&mut [rate(), rate(), rate()])
}

fn fma_chains(iters: u64) {
    const LANES: usize = 8;
    const CHAINS: usize = 10;
    let a = black_box([1.000_000_1f32; LANES]);
    let b = black_box([1e-9f32; LANES]);
    let mut acc = [[0.5f32; LANES]; CHAINS];
    for _ in 0..iters {
        for chain in &mut acc {
            for l in 0..LANES {
                chain[l] = chain[l].mul_add(a[l], b[l]);
            }
        }
    }
    black_box(acc);
}

fn fma_peak_gflops(threads: usize) -> f64 {
    const ITERS: u64 = 20_000_000;
    median_of_3(|| {
        let seconds = timed_on_all(threads, || fma_chains(ITERS));
        (2 * 8 * 10 * ITERS) as f64 * threads as f64 / seconds / 1e9
    })
}

fn popcnt_peak_gops(threads: usize) -> f64 {
    const WORDS: usize = 512;
    const REPS: usize = 400_000;
    median_of_3(|| {
        let seconds = timed_on_all(threads, || {
            let a = vec![0x5555_aaaa_3333_ccccu64; WORDS];
            let b = vec![0x0f0f_f0f0_00ff_ff00u64; WORDS];
            let mut total = 0u64;
            for _ in 0..REPS {
                let (a, b) = (black_box(&a), black_box(&b));
                total += a
                    .iter()
                    .zip(b.iter())
                    .map(|(x, y)| u64::from((x ^ y).count_ones()))
                    .sum::<u64>();
            }
            black_box(total);
        });
        (128 * WORDS * REPS) as f64 * threads as f64 / seconds / 1e9
    })
}

/// Size of the last-level cache as the kernel reports it for cpu0, or
/// `None` where sysfs does not say.
fn llc_bytes() -> Option<usize> {
    let mut best: Option<(u32, usize)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Ok(level) = std::fs::read_to_string(format!("{dir}/level")) else {
            continue;
        };
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().ok()?;
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(kib) => kib.parse::<usize>().ok()? * 1024,
            None => match size.strip_suffix('M') {
                Some(mib) => mib.parse::<usize>().ok()? * 1024 * 1024,
                None => size.parse().ok()?,
            },
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// Scales one array of `array_bytes` in place, a chunk per thread: every
/// byte is read once and written once per pass.
fn stream_bw_gbs(threads: usize, array_bytes: usize) -> f64 {
    let words = array_bytes.div_ceil(8);
    let mut array = vec![0u64; words];
    let chunk = words.div_ceil(threads);
    let mut pass = || {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for part in array.chunks_mut(chunk) {
                scope.spawn(move || {
                    for word in part {
                        *word = word.wrapping_mul(3).wrapping_add(1);
                    }
                });
            }
        });
        start.elapsed().as_secs_f64()
    };
    // The first pass faults the pages in and is not timed.
    pass();
    let rate = median_of_3(|| 2.0 * (words * 8) as f64 / pass() / 1e9);
    black_box(&array);
    rate
}

pub fn probe() -> HostCeilings {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Where sysfs is silent assume a large 64 MiB LLC; the sizes used are
    // printed either way.
    let llc_bytes = llc_bytes().unwrap_or(64 << 20);
    let stream_array_bytes = 4 * llc_bytes;
    HostCeilings {
        threads,
        fma_peak_gflops: fma_peak_gflops(threads),
        popcnt_peak_gops: popcnt_peak_gops(threads),
        stream_bw_gbs: stream_bw_gbs(threads, stream_array_bytes),
        llc_bytes,
        stream_array_bytes,
    }
}
