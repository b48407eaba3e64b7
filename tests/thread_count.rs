//! No thread is created on the per-block path.
//!
//! Every stage of a block that fans out — transpose, quantise, the `B`
//! repack, the GEMM — runs on the one process-wide worker pool, which is
//! started by the first call that needs it.  After that warm-up, streaming
//! blocks must leave the process's thread count where it was, not only at
//! the end but at every moment in between: a sampler thread reads
//! `/proc/self/status` while the blocks run.  (A thread per call, joined
//! before the call returns, would pass an end-only check.)
//!
//! The test is alone in its file, so alone in its process: the count it
//! reads is its own.

#![cfg(target_os = "linux")]

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use tcbf::prelude::*;

const BEAMS: usize = 8;
const RECEIVERS: usize = 16;
const SAMPLES: usize = 64;
const BLOCKS: usize = 10_000;

/// The `Threads:` line of `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.expect("a Threads: line").trim().parse().unwrap()
}

#[test]
fn ten_thousand_blocks_leave_the_thread_count_unchanged() {
    let weights = HostComplexMatrix::from_fn(BEAMS, RECEIVERS, |b, r| {
        Complex::from_polar(1.0 / RECEIVERS as f32, (b * r) as f32 * 0.05)
    });
    let block = HostComplexMatrix::from_fn(RECEIVERS, SAMPLES, |r, s| {
        Complex::new(
            ((r * 5 + s * 3) % 11) as f32 * 0.1 - 0.5,
            ((r + s * 2) % 9) as f32 * 0.1 - 0.4,
        )
    });
    for precision in [Precision::Float16, Precision::Int1] {
        let mut engine = BeamformerBuilder::new(Gpu::A100)
            .weights(weights.clone())
            .samples_per_block(SAMPLES)
            .precision(precision)
            .build_engine()
            .unwrap();
        let expected = engine.process_batch(&[&block]).unwrap();

        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut seen = BTreeSet::new();
                while !done.load(Ordering::SeqCst) {
                    seen.insert(thread_count());
                    std::thread::sleep(Duration::from_micros(200));
                }
                seen
            });
            // The sampler is counted from here on: `spawn` has returned.
            let before = thread_count();
            for _ in 0..BLOCKS {
                let output = engine.process_batch(&[&block]).unwrap();
                assert_eq!(output[0].beams, expected[0].beams);
            }
            done.store(true, Ordering::SeqCst);
            let seen = sampler.join().unwrap();
            assert_eq!(seen, BTreeSet::from([before]), "{precision}");
        });
    }
}
