//! Wall-clock microbenchmark of the functional GEMM hot path.
//!
//! Unlike the figure/table binaries, which report *modelled* device
//! performance, this harness measures the real elapsed time of the
//! functional kernels that every session, shard and conformance test
//! executes.  For each shape in a small grid, and for both precisions
//! (both 1-bit formulations), on every compiled path the host has — one
//! row per [`Isa::available`] entry, so the portable number is never
//! hidden behind the fast one — it times the **fused** path: the current
//! `ccglib` kernels (bulk-decoded f32 operands + register-tiled FMA kernel,
//! register-tiled popcount kernel), [`gemm::gemm_f16_on`] and
//! [`gemm::gemm_int1_on`].
//!
//! Each measurement is [`median_secs`] (a median of `reps` runs after a
//! warmup run), and before any timing the fused kernel's output on the
//! shape is checked against [`ccglib::reference_gemm`] (1-bit exactly,
//! float16 within the binary16 quantisation envelope
//! `tests/hotpath_conformance.rs` pins), so the harness cannot record a
//! fast-but-wrong kernel.
//!
//! A second table times the **prologue** every block pays before its GEMM
//! — `HostComplexMatrix::transposed`, `GemmInput::quantise_f16` and
//! `GemmInput::quantise_int1` — at the four `K × N` block shapes of the
//! repo benchmark (`BENCHMARK.json`), again once per compiled path
//! (`transposed_on`, `quantise_*_on`), each checked for equality against
//! its element-wise definition before it is timed.  Those three rows time a
//! stage **in isolation**: over and over on one input that has long been
//! at rest.  In a block a quantiser reads what `transposed()` has *just*
//! written, out of the caches of the threads that wrote it, so beside each
//! isolated quantiser row stands a **chained** one (`transpose>quantise_*`):
//! a block from a rotation of eight is transposed and the fresh result
//! quantised, the stopwatch on the quantiser alone.  Chained ÷ isolated is
//! what the hand-over between two stages costs; it reads ≈ 1.0 when the
//! worker pool gives a thread the same rows in both stages, and it is the
//! number to watch on a host with more cores than this one.
//!
//! A third table times the **hand-off** every one of those stages pays to
//! reach the second core: an empty two-item `par_chunks_mut`, back to back
//! (the pool's worker is still spinning) and after 0.3, 1.5 and 5 ms of
//! single-threaded busy work (it has parked, and its core may have halted).
//!
//! The results are written to `BENCH_gemm.json` at the repository root,
//! giving subsequent PRs a wall-clock trajectory to regress against.
//!
//! Usage: `hotpath_bench [--smoke] [--out PATH]`
//! `--smoke` shrinks the grid and repetition count for CI.

#![forbid(unsafe_code)]
// A wall-clock benchmark: it reads the clock.
#![allow(clippy::disallowed_methods)]

use ccglib::matrix::{F16Matrix, HostComplexMatrix, Int1Matrix};
use ccglib::synth::pseudo_random_matrix;
use ccglib::{gemm, reference_gemm, GemmInput, Isa};
use gpu_sim::BitOp;
use rayon::prelude::*;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tcbf_bench::{header, median_secs, print_table};
use tcbf_types::{f16, Complex32, PackedBits};
use tuner::json::Value;

/// `(M, N, K)` of one GEMM grid cell.
type Shape = (usize, usize, usize);

/// One measured (kernel, shape, formulation) cell.
struct BenchEntry {
    kernel: &'static str,
    /// Formulation of a 1-bit row.
    bit_op: Option<BitOp>,
    /// The compiled path measured.
    isa: Isa,
    m: usize,
    n: usize,
    k: usize,
    fused_median_s: f64,
}

impl BenchEntry {
    /// A cell timed at `fused_median_s`: 1-bit under a formulation, float16
    /// without.
    fn new(bit_op: Option<BitOp>, isa: Isa, (m, n, k): Shape, fused_median_s: f64) -> Self {
        BenchEntry {
            kernel: if bit_op.is_some() { "int1" } else { "f16" },
            bit_op,
            isa,
            m,
            n,
            k,
            fused_median_s,
        }
    }

    /// Throughput of the fused path in GElem/s: complex multiply-accumulate
    /// elements (`M·N·K`) per second of wall-clock time.
    fn gelems_per_s(&self) -> f64 {
        (self.m * self.n * self.k) as f64 / self.fused_median_s / 1e9
    }
}

fn bench_f16(shape @ (m, n, k): Shape, isa: Isa, reps: usize) -> BenchEntry {
    let a_host = pseudo_random_matrix(m, k, 0xF16 + (m * n * k) as u64, 1.0);
    let b_host = pseudo_random_matrix(n, k, 0xB00 + (m + n + k) as u64, 1.0);
    let (a, b) = (F16Matrix::from_host(&a_host), F16Matrix::from_host(&b_host));
    // Correctness guard: the fused kernel must stay within the binary16
    // quantisation envelope of the full-precision reference before any
    // time is recorded.
    let fused_out = gemm::gemm_f16_on(isa, &a, &b).expect("shapes agree");
    let reference = reference_gemm(&a_host, &b_host).expect("reference shapes agree");
    let tol = 2.0 * 2.0f32.powi(-11) * 2.0 * k as f32;
    let diff = fused_out.max_abs_diff(&reference);
    assert!(diff < tol, "f16 fused/reference diverged: {diff} >= {tol}");
    let fused_median_s = median_secs(reps, || {
        black_box(gemm::gemm_f16_on(isa, &a, &b)).expect("shapes agree");
    });
    BenchEntry::new(None, isa, shape, fused_median_s)
}

fn bench_int1(shape @ (m, n, k): Shape, op: BitOp, isa: Isa, reps: usize) -> BenchEntry {
    let a_host = pseudo_random_matrix(m, k, 0x1B17 + (m * k) as u64, 1.0);
    let b_host = pseudo_random_matrix(n, k, 0x0B17 + (n * k) as u64, 1.0);
    let a = Int1Matrix::from_host_padded(&a_host, GemmInput::DEFAULT_INT1_K_GRANULARITY);
    let b = Int1Matrix::from_host_padded(&b_host, GemmInput::DEFAULT_INT1_K_GRANULARITY);
    // Correctness guard: 1-bit outputs are integers, so the fused kernel
    // must match the decoded ±1 reference exactly.
    let fused_out = gemm::gemm_int1_on(isa, &a, &b, op).expect("shapes agree");
    let reference = reference_gemm(&a.to_host(), &b.to_host()).expect("reference shapes agree");
    assert_eq!(fused_out, reference, "int1 fused/reference diverged");
    let fused_median_s = median_secs(reps, || {
        black_box(gemm::gemm_int1_on(isa, &a, &b, op)).expect("shapes agree");
    });
    BenchEntry::new(Some(op), isa, shape, fused_median_s)
}

/// The `K × N` (receivers × samples) block shapes of the four
/// `BENCHMARK.json` workloads: `manybeam_f16`, `manybeam_int1`,
/// `fewbeam_int1`, `served_2tenant_f16`.
const BLOCK_SHAPES: [(usize, usize); 4] = [(128, 128), (1024, 128), (2048, 256), (512, 256)];

/// Repetitions per prologue row: the stages take 10 µs – 1 ms, so a
/// median of many is cheap and steadier than the GEMM grid's `reps`.
const PROLOGUE_REPS: usize = 31;

/// One measured (prologue stage, block shape, path) cell.
struct PrologueEntry {
    stage: &'static str,
    /// The compiled path measured.
    isa: Isa,
    k: usize,
    n: usize,
    median_s: f64,
    /// Throughput in `unit`.
    rate: f64,
    unit: &'static str,
    /// Of a chained row: its time over the isolated row's of the same
    /// quantiser.  Printed, not written: the JSON carries both times.
    vs_isolated: Option<f64>,
}

/// Blocks a chained row rotates through, so that no block is transposed
/// while its last result is still in a cache.
const CHAINED_ROTATION: usize = 8;

/// `transposed_on`, `GemmInput::quantise_f16_on` and `quantise_int1_on` of
/// one `K × N` block on `isa` against their element-wise definitions;
/// returns the transposed block.
fn guarded_transpose(block: &HostComplexMatrix, isa: Isa) -> HostComplexMatrix {
    let (k, n) = (block.rows(), block.cols());
    let by_definition = HostComplexMatrix::from_fn(n, k, |r, c| block.get(c, r));
    let b_t = block.transposed_on(isa);
    assert_eq!(b_t, by_definition, "transposed_on({isa}) at {k}x{n}");

    let scalar_plane = |part: fn(&Complex32) -> f32| -> Vec<u16> {
        let encode = |v| f16::from_f32(part(v)).to_bits();
        b_t.data().iter().map(encode).collect()
    };
    let plane_bits = |plane: &[f16]| plane.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
    let GemmInput::F16(bulk) = GemmInput::quantise_f16_on(isa, &b_t) else {
        panic!("quantise_f16 gives a binary16 operand")
    };
    let planes = [plane_bits(bulk.re()), plane_bits(bulk.im())];
    assert_eq!(
        planes,
        [scalar_plane(|v| v.re), scalar_plane(|v| v.im)],
        "{k}x{n} {isa}"
    );

    let GemmInput::Int1(packed) = GemmInput::quantise_int1_on(isa, &b_t) else {
        panic!("quantise_int1 gives a 1-bit operand")
    };
    for r in 0..n {
        let mut re = PackedBits::zeros(packed.k_padded());
        let mut im = PackedBits::zeros(packed.k_padded());
        for c in 0..k {
            re.set(c, b_t.get(r, c).re >= 0.0);
            im.set(c, b_t.get(r, c).im >= 0.0);
        }
        assert_eq!(packed.re_row(r), &re, "int1 re row {r} at {k}x{n} {isa}");
        assert_eq!(packed.im_row(r), &im, "int1 im row {r} at {k}x{n} {isa}");
    }
    b_t
}

/// Times the three prologue stages on one `K × N` block on `isa` in
/// isolation and the two quantisers chained to the transpose, every block
/// that is used guarded by the element-wise definitions.
fn bench_prologue(k: usize, n: usize, isa: Isa) -> [PrologueEntry; 5] {
    let blocks: Vec<HostComplexMatrix> = (0..CHAINED_ROTATION as u64)
        .map(|turn| pseudo_random_matrix(k, n, 0x7A05 + (k * n) as u64 + turn, 1.0))
        .collect();
    let transposed: Vec<HostComplexMatrix> =
        blocks.iter().map(|b| guarded_transpose(b, isa)).collect();
    let (block, b_t) = (&blocks[0], &transposed[0]);

    let elements = (k * n) as f64;
    let entry = |stage, median_s: f64, per_s: f64, unit| PrologueEntry {
        stage,
        isa,
        k,
        n,
        median_s,
        rate: per_s / median_s,
        unit,
        vs_isolated: None,
    };
    // `median_secs` with a transpose in front of every timed run, off the
    // clock: the quantiser's input is as fresh as it is inside a block.
    let chained = |stage, quantise: fn(Isa, &HostComplexMatrix) -> GemmInput, isolated_s: f64| {
        let time = |rep: usize| {
            let fresh = black_box(&blocks[rep % CHAINED_ROTATION]).transposed_on(isa);
            let start = Instant::now();
            black_box(quantise(isa, black_box(&fresh)));
            start.elapsed().as_secs_f64()
        };
        let mut times: Vec<f64> = (0..=PROLOGUE_REPS).map(time).skip(1).collect();
        times.sort_by(f64::total_cmp);
        let median_s = times[times.len() / 2];
        PrologueEntry {
            vs_isolated: Some(median_s / isolated_s),
            ..entry(stage, median_s, elements / 1e6, "Melem/s")
        }
    };
    let transpose_s = median_secs(PROLOGUE_REPS, || {
        black_box(black_box(block).transposed_on(isa));
    });
    // A chained row is timed right after the isolated row of its quantiser.
    let f16_s = median_secs(PROLOGUE_REPS, || {
        black_box(GemmInput::quantise_f16_on(isa, black_box(b_t)));
    });
    let f16_chained = chained("transpose>quantise_f16", GemmInput::quantise_f16_on, f16_s);
    let int1_s = median_secs(PROLOGUE_REPS, || {
        black_box(GemmInput::quantise_int1_on(isa, black_box(b_t)));
    });
    let int1_chained = chained(
        "transpose>quantise_int1",
        GemmInput::quantise_int1_on,
        int1_s,
    );
    [
        // Computed bytes moved: every 8-byte element read once, written once.
        entry("transpose", transpose_s, 2.0 * 8.0 * elements / 1e9, "GB/s"),
        entry("quantise_f16", f16_s, elements / 1e6, "Melem/s"),
        f16_chained,
        entry("quantise_int1", int1_s, elements / 1e6, "Melem/s"),
        int1_chained,
    ]
}

/// Single-threaded busy work before each timed hand-off, in microseconds:
/// none (the pool's worker is still spinning), then long enough for it to
/// have parked, and for its core to have halted.
const FAN_OUT_AFTER_BUSY_US: [u64; 4] = [0, 300, 1_500, 5_000];

/// Rounds per hand-off row: a tenth of them lie below the p10.
const FAN_OUT_ROUNDS: usize = 400;

/// One measured hand-off row.
struct FanOutEntry {
    after_busy_us: u64,
    p10_s: f64,
    p50_s: f64,
}

/// Times an empty two-item `par_chunks_mut` — nothing but the hand-off to
/// the pool and back — each time after `after_busy_us` of busy work on the
/// calling thread alone.
fn bench_fan_out(after_busy_us: u64) -> FanOutEntry {
    let mut data = [0u8; 2];
    let mut times: Vec<f64> = (0..FAN_OUT_ROUNDS)
        .map(|_| {
            let busy_until = Instant::now() + Duration::from_micros(after_busy_us);
            while Instant::now() < busy_until {
                black_box(&mut data);
            }
            let start = Instant::now();
            data.par_chunks_mut(1).for_each(|chunk| {
                black_box(chunk);
            });
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    FanOutEntry {
        after_busy_us,
        p10_s: times[times.len() / 10],
        p50_s: times[times.len() / 2],
    }
}

/// The results as a JSON tree, matching the stable schema documented in
/// the README; times and rates are rounded to the decimals they always had.
fn to_json(
    mode: &str,
    reps: usize,
    entries: &[BenchEntry],
    prologue: &[PrologueEntry],
    fan_out: &[FanOutEntry],
) -> Value {
    let num = |v: f64, decimals: i32| {
        Value::Number((v * 10f64.powi(decimals)).round() / 10f64.powi(decimals))
    };
    let entry = |e: &BenchEntry| {
        Value::object([
            ("kernel", e.kernel.into()),
            (
                "bit_op",
                e.bit_op.map_or(Value::Null, |op| {
                    Value::String(op.to_string().to_lowercase())
                }),
            ),
            ("isa", e.isa.name().into()),
            ("m", e.m.into()),
            ("n", e.n.into()),
            ("k", e.k.into()),
            ("fused_median_s", num(e.fused_median_s, 9)),
            ("gelems_per_s", num(e.gelems_per_s(), 4)),
        ])
    };
    let stage = |p: &PrologueEntry| {
        Value::object([
            ("stage", p.stage.into()),
            ("isa", p.isa.name().into()),
            ("k", p.k.into()),
            ("n", p.n.into()),
            ("median_s", num(p.median_s, 9)),
            ("rate", num(p.rate, 2)),
            ("unit", p.unit.into()),
        ])
    };
    let hand_off = |f: &FanOutEntry| {
        Value::object([
            ("after_busy_us", (f.after_busy_us as usize).into()),
            ("p10_s", num(f.p10_s, 9)),
            ("p50_s", num(f.p50_s, 9)),
        ])
    };
    Value::object([
        ("schema", "tcbf-hotpath-bench/v10".into()),
        ("mode", mode.into()),
        ("reps", reps.into()),
        ("entries", Value::Array(entries.iter().map(entry).collect())),
        ("prologue_reps", PROLOGUE_REPS.into()),
        (
            "prologue",
            Value::Array(prologue.iter().map(stage).collect()),
        ),
        ("fan_out_rounds", FAN_OUT_ROUNDS.into()),
        (
            "fan_out",
            Value::Array(fan_out.iter().map(hand_off).collect()),
        ),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_gemm.json".to_string());

    // The shape grid deliberately includes one K that is not a multiple of
    // the 256-bit packing granularity, so the padded path is timed as well
    // as tested.
    let (grid, reps, mode) = if smoke {
        (
            vec![(64usize, 64usize, 1024usize), (96, 96, 1000)],
            3,
            "smoke",
        )
    } else {
        (
            vec![
                (256usize, 256usize, 2048usize),
                (128, 512, 1024),
                (512, 128, 4096),
                (96, 96, 1000),
            ],
            5,
            "full",
        )
    };

    // A kernel call allocates and frees its planes and panels (up to 20 MiB
    // at 512x128x4096).  Whether glibc returns those pages to the system
    // after every call — and the next call faults them in again, 25 % of a
    // cell — depends on the largest block the process has freed so far, i.e.
    // on what happened to be allocated before the cell.  Freeing one block
    // just under the 32 MiB cap of that rule first makes every cell read the
    // kernel, as it does in a process that has been streaming for a while.
    drop(black_box(vec![0u8; 31 << 20]));

    header(&format!("GEMM hot path wall-clock ({mode} grid)"));
    let mut entries = Vec::new();
    for &shape in &grid {
        for isa in Isa::available() {
            entries.push(bench_f16(shape, isa, reps));
        }
        for op in [BitOp::Xor, BitOp::And] {
            for isa in Isa::available() {
                entries.push(bench_int1(shape, op, isa, reps));
            }
        }
    }

    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            vec![
                e.kernel.to_string(),
                e.bit_op.map_or("—".to_string(), |op| op.to_string()),
                e.isa.to_string(),
                format!("{}x{}x{}", e.m, e.n, e.k),
                format!("{:.2}", e.fused_median_s * 1e3),
                format!("{:.2}", e.gelems_per_s()),
            ]
        })
        .collect();
    print_table(
        &["kernel", "bit op", "isa", "MxNxK", "fused ms", "GElem/s"],
        &rows,
    );

    // Slowest cell of one kernel on one path.
    let slowest = |kernel: &str, isa: Isa| -> &BenchEntry {
        entries
            .iter()
            .filter(|e| e.kernel == kernel && e.isa == isa)
            .min_by(|a, b| a.gelems_per_s().total_cmp(&b.gelems_per_s()))
            .expect("every kernel is measured on every path")
    };
    println!();
    println!("headline: kernel path detected: {}", Isa::detected());
    for kernel in ["f16", "int1"] {
        for isa in Isa::available() {
            let e = slowest(kernel, isa);
            println!(
                "headline: {kernel} min {:.2} GElem/s on {isa} (at {}x{}x{})",
                e.gelems_per_s(),
                e.m,
                e.n,
                e.k
            );
        }
    }

    header("Block prologue wall-clock (BENCHMARK.json block shapes)");
    let prologue: Vec<PrologueEntry> = BLOCK_SHAPES
        .iter()
        .flat_map(|&(k, n)| {
            Isa::available()
                .into_iter()
                .flat_map(move |isa| bench_prologue(k, n, isa))
        })
        .collect();
    let rows: Vec<Vec<String>> = prologue
        .iter()
        .map(|p| {
            let vs_isolated = p
                .vs_isolated
                .map_or("—".to_string(), |r| format!("{r:.2}x"));
            vec![
                p.stage.to_string(),
                p.isa.to_string(),
                format!("{}x{}", p.k, p.n),
                format!("{:.1}", p.median_s * 1e6),
                format!("{:.2} {}", p.rate, p.unit),
                vs_isolated,
            ]
        })
        .collect();
    print_table(
        &[
            "stage",
            "isa",
            "KxN",
            "median us",
            "rate",
            "chained / isolated",
        ],
        &rows,
    );
    let (worst, at) = prologue
        .iter()
        .filter_map(|p| Some((p.vs_isolated?, p)))
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("every block shape has its chained rows");
    println!();
    println!(
        "headline: hand-over worst chained / isolated {worst:.2}x ({} on {} at {}x{})",
        at.stage, at.isa, at.k, at.n
    );

    header("Hand-off wall-clock (empty two-item par_chunks_mut)");
    let fan_out: Vec<FanOutEntry> = FAN_OUT_AFTER_BUSY_US.map(bench_fan_out).into();
    let rows: Vec<Vec<String>> = fan_out
        .iter()
        .map(|f| {
            vec![
                format!("{}", f.after_busy_us),
                format!("{:.2}", f.p10_s * 1e6),
                format!("{:.2}", f.p50_s * 1e6),
            ]
        })
        .collect();
    print_table(&["after busy us", "p10 us", "p50 us"], &rows);

    let json = format!("{}\n", to_json(mode, reps, &entries, &prologue, &fan_out));
    std::fs::write(&out_path, json).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
