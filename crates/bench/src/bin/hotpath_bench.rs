//! Wall-clock microbenchmark of the functional GEMM hot path.
//!
//! Unlike the figure/table binaries, which report *modelled* device
//! performance, this harness measures the real elapsed time of the
//! functional kernels that every session, shard and conformance test
//! executes.  For each shape in a small grid, and for both precisions
//! (one 1-bit row: the host computes both formulations with one kernel),
//! on every compiled path the host has — one row per [`Isa::available`]
//! entry, so the portable number is never hidden behind the fast one — it
//! times the **fused** path: the current `ccglib` kernels (bulk-decoded
//! f32 operands + register-tiled FMA kernel, register-tiled popcount
//! kernel), [`gemm::gemm_f16_on`] and [`gemm::gemm_int1_on`].  A cell's
//! `B` is what a block brings: the quantised `transposed()` view of a
//! `K × N` block — binary16 planes whose panels are built in the order
//! they are stored, or bits already packed into the 1-bit kernel's panels.
//! Two cells at the benchmark's `M × N` and a `K` of 16 and 64 state the
//! kernels' cost per output, which no pass over `K` amortises.
//!
//! Each measurement is [`median_secs`] (a median of `reps` runs after a
//! warmup run), and before any timing the fused kernel's output on the
//! shape is checked against [`ccglib::reference_gemm`] (1-bit exactly,
//! float16 within the binary16 quantisation envelope
//! `tests/hotpath_conformance.rs` pins), so the harness cannot record a
//! fast-but-wrong kernel.
//!
//! A second table times the **prologue** in front of the GEMM —
//! `GemmInput::quantise_f16` and `GemmInput::quantise_int1` — at the four
//! `K × N` block shapes of the repo benchmark (`BENCHMARK.json`), again
//! once per compiled path (`quantise_*_on`).  The plain rows quantise the
//! row-major copy of the block's `transposed()` view, built by its
//! `data()` before any timing and checked against the element-wise
//! transpose, each quantiser checked against its element-wise definition
//! first: a stage **in isolation**, over and over on one input that has
//! long been at rest.  The two `(view)` rows are what a block runs:
//! `quantise_f16_on` and `quantise_int1_on` of the view itself, each
//! checked against the quantiser of the row-major copy first.  The f16 one
//! encodes the block in the order it is stored; the 1-bit one is the whole
//! `B` build, one pass from the stored block into the kernel's panels.
//! Neither transposes samples.
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
use rayon::prelude::*;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tcbf_bench::{header, median_secs, print_table};
use tcbf_types::{f16, Complex32, PackedBits};
use tuner::json::Value;

/// `(M, N, K)` of one GEMM grid cell.
type Shape = (usize, usize, usize);

/// One measured (kernel, shape, path) cell.
struct BenchEntry {
    /// `f16` or `int1`.
    kernel: &'static str,
    /// The compiled path measured.
    isa: Isa,
    m: usize,
    n: usize,
    k: usize,
    fused_median_s: f64,
}

impl BenchEntry {
    /// A cell of `kernel` timed at `fused_median_s`.
    fn new(kernel: &'static str, isa: Isa, (m, n, k): Shape, fused_median_s: f64) -> Self {
        BenchEntry {
            kernel,
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
    let block = pseudo_random_matrix(k, n, 0xB00 + (m + n + k) as u64, 1.0);
    let b_host = block.transposed();
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
    BenchEntry::new("f16", isa, shape, fused_median_s)
}

fn bench_int1(shape @ (m, n, k): Shape, isa: Isa, reps: usize) -> BenchEntry {
    let a_host = pseudo_random_matrix(m, k, 0x1B17 + (m * k) as u64, 1.0);
    let block = pseudo_random_matrix(k, n, 0x0B17 + (n * k) as u64, 1.0);
    let GemmInput::Int1(b) = GemmInput::quantise_int1_on(isa, &block.transposed()) else {
        panic!("quantise_int1 gives a 1-bit operand")
    };
    let a = Int1Matrix::from_host_padded(&a_host, GemmInput::DEFAULT_INT1_K_GRANULARITY);
    // Correctness guard: 1-bit outputs are integers, so the fused kernel
    // must match the decoded ±1 reference exactly.
    let fused_out = gemm::gemm_int1_on(isa, &a, &b).expect("shapes agree");
    let reference = reference_gemm(&a.to_host(), &b.to_host()).expect("reference shapes agree");
    assert_eq!(fused_out, reference, "int1 fused/reference diverged");
    let fused_median_s = median_secs(reps, || {
        black_box(gemm::gemm_int1_on(isa, &a, &b)).expect("shapes agree");
    });
    BenchEntry::new("int1", isa, shape, fused_median_s)
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
    /// Throughput in `Melem/s`.
    rate: f64,
}

/// The row-major copy of one `K × N` block's `transposed()` view, by its
/// `data()`, against the element-wise transpose; `GemmInput::quantise_f16_on`
/// and `quantise_int1_on` of it on `isa` against their element-wise
/// definitions, and both quantisers of the view against those of the copy.
/// Returns the copy.
fn guarded_row_major(block: &HostComplexMatrix, isa: Isa) -> HostComplexMatrix {
    let (k, n) = (block.rows(), block.cols());
    let by_definition = HostComplexMatrix::from_fn(n, k, |r, c| block.get(c, r));
    let b_t = HostComplexMatrix::from_data(n, k, block.transposed().data().to_vec())
        .expect("a view's data() holds its every sample");
    assert_eq!(b_t, by_definition, "transposed().data() at {k}x{n}");

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
    let GemmInput::F16(of_view) = GemmInput::quantise_f16_on(isa, &block.transposed()) else {
        panic!("quantise_f16 gives a binary16 operand")
    };
    let view_planes = [plane_bits(of_view.re()), plane_bits(of_view.im())];
    assert_eq!(view_planes, planes, "quantise_f16(view) at {k}x{n} {isa}");

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
    let GemmInput::Int1(of_view) = GemmInput::quantise_int1_on(isa, &block.transposed()) else {
        panic!("quantise_int1 gives a 1-bit operand")
    };
    assert_eq!(of_view, packed, "quantise_int1(view) at {k}x{n} {isa}");
    b_t
}

/// Times both quantisers on one `K × N` block on `isa`, of its row-major
/// copy in isolation and of its view, the block guarded by the element-wise
/// definitions first.
fn bench_prologue(k: usize, n: usize, isa: Isa) -> [PrologueEntry; 4] {
    let block = pseudo_random_matrix(k, n, 0x7A05 + (k * n) as u64, 1.0);
    let b_t = guarded_row_major(&block, isa);
    let (block, b_t) = (&block, &b_t);

    let entry = |stage, median_s: f64| PrologueEntry {
        stage,
        isa,
        k,
        n,
        median_s,
        rate: (k * n) as f64 / 1e6 / median_s,
    };
    let f16_s = median_secs(PROLOGUE_REPS, || {
        black_box(GemmInput::quantise_f16_on(isa, black_box(b_t)));
    });
    let f16_view_s = median_secs(PROLOGUE_REPS, || {
        let view = black_box(block).transposed();
        black_box(GemmInput::quantise_f16_on(isa, &view));
    });
    let int1_s = median_secs(PROLOGUE_REPS, || {
        black_box(GemmInput::quantise_int1_on(isa, black_box(b_t)));
    });
    let int1_view_s = median_secs(PROLOGUE_REPS, || {
        let view = black_box(block).transposed();
        black_box(GemmInput::quantise_int1_on(isa, &view));
    });
    [
        entry("quantise_f16", f16_s),
        entry("quantise_f16(view)", f16_view_s),
        entry("quantise_int1", int1_s),
        entry("quantise_int1(view)", int1_view_s),
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
            ("unit", "Melem/s".into()),
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
        ("schema", "tcbf-hotpath-bench/v15".into()),
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
    // as tested, and ends with two small `K` at the benchmark's `M × N`.
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
                (1024, 128, 64),
                (1024, 128, 16),
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
        for isa in Isa::available() {
            entries.push(bench_int1(shape, isa, reps));
        }
    }

    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            vec![
                e.kernel.to_string(),
                e.isa.to_string(),
                format!("{}x{}x{}", e.m, e.n, e.k),
                format!("{:.2}", e.fused_median_s * 1e3),
                format!("{:.2}", e.gelems_per_s()),
            ]
        })
        .collect();
    print_table(&["kernel", "isa", "MxNxK", "fused ms", "GElem/s"], &rows);

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
            vec![
                p.stage.to_string(),
                p.isa.to_string(),
                format!("{}x{}", p.k, p.n),
                format!("{:.1}", p.median_s * 1e6),
                format!("{:.2} Melem/s", p.rate),
            ]
        })
        .collect();
    print_table(&["stage", "isa", "KxN", "median us", "rate"], &rows);

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
