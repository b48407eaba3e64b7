//! pipeline_bench — the repo benchmark.
//!
//! Four workloads, four end-to-end metrics measured with tracing off, and
//! a per-layer trace taken from outside, around calls into each layer's
//! public functions.  `README.md` beside this package defines every
//! metric and says why each workload exists; `BENCHMARK.json` at the repo
//! root is the machine-readable contract.
//!
//! ```text
//! pipeline_bench --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! pipeline_bench [--seed <u64>] [--smoke] [--self-check] [--out <file>] [--trace-out <prefix>]
//! ```
//!
//! The first form runs one workload in this process and ends with one
//! JSON line.  The second runs every workload, re-executing itself once
//! per workload and phase so that set-up, peak RSS and allocator state
//! are per workload.

mod alloc;
mod guard;
mod host;
mod measure;
mod metrics;
mod rig;
mod stats;
mod trace;
mod traced;
mod workloads;

use measure::SEGMENTS;
use metrics::{Values, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;
use workloads::{Inputs, Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Every build runs the default `MicroKernelConfig`: the autotuning cache
/// is pointed at a path that must not exist.
const NO_MICROTUNE_CACHE: &str = "examples/pipeline_bench/.no-microtune-cache";

/// Seconds of the measured run, and of the traced run, when `--seconds`
/// is not given: what `BENCHMARK.json` has the driver pass.
fn default_seconds(smoke: bool) -> f64 {
    if smoke {
        5.0
    } else {
        20.0
    }
}

const WARM_UP: Duration = Duration::from_secs(1);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    smoke: bool,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        out: None,
        trace_out: None,
        smoke: false,
        self_check: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(value()?.into()),
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--smoke" => args.smoke = true,
            "--self-check" => args.self_check = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// The measured run: tracing off.  Fills the end-to-end metrics.
fn run_untraced(
    w: &Workload,
    inputs: &Inputs,
    expected: &[Vec<u64>],
    seconds: f64,
) -> Result<(Values, u64, u64), String> {
    let mut values = Values::default();
    let mut setups = measure::setup_cycles(w, inputs, expected, measure::SETUP_CYCLES / 2)?;

    let mut rig = rig::Rig::setup(w, inputs)?;
    measure::closed_loop(&mut rig.callers, inputs, expected, WARM_UP);
    let duration = Duration::from_secs_f64(seconds);
    let samples = measure::closed_loop(&mut rig.callers, inputs, expected, duration);
    let served_errors = rig.teardown()?.map_or(0, |fleet| fleet.total_errors());
    let run = measure::summarise(&samples, duration);
    setups.extend(measure::setup_cycles(
        w,
        inputs,
        expected,
        measure::SETUP_CYCLES / 2,
    )?);
    // Interference only ever slows a cycle down: the fastest one is what
    // set-up costs when the host leaves it alone.
    let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);

    values.put(
        "blocks_per_s",
        run.burst_blocks_per_s,
        format!(
            "fastest {} consecutive completions (whole run, host noise included: {:.2})",
            measure::BURST,
            run.whole_run_blocks_per_s
        ),
    );
    values.put(
        "block_p50_ms",
        run.burst_p50_ms,
        format!(
            "median inside that burst (whole run, n={}, host noise included: {:.4})",
            run.attempted - run.failed,
            run.whole_run_p50_ms
        ),
    );
    values.put(
        "setup_s",
        setup_s,
        format!(
            "fastest of {} fresh cycles after one cold, half before and half after the measured run",
            measure::SETUP_CYCLES
        ),
    );
    values.put("peak_rss_mib", measure::peak_rss_mib()?, "VmHWM at exit");
    println!(
        "info block_p95_ms {:.4} (median of {SEGMENTS} per-segment p95, fewest samples in a segment {}; moves with host noise, so a per-layer metric)",
        run.p95_ms, run.min_segment_samples
    );
    println!(
        "info harness.loop_overhead_frac {:.4} (share of the loop outside timed calls)",
        run.loop_overhead_frac
    );
    Ok((values, run.attempted, run.failed + served_errors))
}

/// Runs one workload in this process and prints the contract's last line.
/// `Ok(true)` when every output was correct and every check held.
fn run_workload(w: &Workload, args: &Args) -> Result<bool, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let callers = w.callers_on(cores);
    let seconds = args.seconds.unwrap_or(default_seconds(args.smoke));
    println!(
        "workload {} ({} {}x{}x{} MxNxK, {} caller(s), {}) seed {} trace {} seconds {seconds} cores {cores} micro-kernel \"{}\" (default: no cache at {NO_MICROTUNE_CACHE})",
        w.name,
        w.precision,
        w.m,
        w.n,
        w.k,
        callers,
        if w.served { "loopback tcbf-serve" } else { "direct engine" },
        args.seed,
        u8::from(args.trace),
        ccglib::MicroKernelConfig::default(),
    );
    println!("why: {}", w.why);
    if callers < w.callers {
        println!(
            "warning: {} of {} callers run: never more caller threads than cores",
            callers, w.callers
        );
    }

    let inputs = Inputs::generate(w, args.seed, callers);
    let (cold_setup_s, cold_firsts) = measure::setup_cycle(w, &inputs)?;
    let expected = guard::verify(w, &inputs)?;
    measure::check_firsts(&cold_firsts, &expected)?;
    println!(
        "guard ok: {} distinct inputs verified in full; a flipped bit is caught",
        callers * workloads::BLOCKS_PER_CALLER
    );

    let (metrics_json, attempted, failed, broken) = if args.trace {
        let outcome = traced::run(
            w,
            &inputs,
            &expected,
            cold_setup_s,
            seconds,
            args.trace_out.as_deref(),
        )?;
        let json = outcome.values.emit(PER_LAYER.iter().copied())?;
        (json, outcome.attempted, outcome.failed, outcome.broken)
    } else {
        let (values, attempted, failed) = run_untraced(w, &inputs, &expected, seconds)?;
        let json = values.emit(END_TO_END.iter().map(|m| (m.0, m.1)))?;
        (json, attempted, failed, Vec::new())
    };
    for problem in &broken {
        println!("broken: {problem}");
    }
    println!("count blocks_attempted {attempted}");
    println!("count blocks_failed {failed}");
    let correct = failed == 0 && broken.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics_json}}}",
        attempted.max(1)
    );
    Ok(correct)
}

/// Re-executes this program for one workload and phase; passes its output
/// through and returns `(metric lines as (name, value), last line)`.
fn run_child(
    w: &Workload,
    args: &Args,
    trace: bool,
    seconds: f64,
) -> Result<(Vec<(String, f64)>, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let (true, Some(prefix)) = (trace, &args.trace_out) {
        let mut path = prefix.clone().into_os_string();
        path.push(format!(".{}.csv", w.name));
        command.arg("--trace-out").arg(path);
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{} (trace {trace}) failed", w.name));
    }
    let metrics = stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.strip_prefix("metric ")?.split_whitespace();
            Some((words.next()?.to_string(), words.next()?.parse().ok()?))
        })
        .collect();
    let last = stdout.lines().last().unwrap_or_default().to_string();
    Ok((metrics, last))
}

/// Runs every workload; with `--self-check`, runs each measured phase
/// twice and holds the pair to the metric's own bound.
fn run_all(args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(default_seconds(args.smoke));
    let mut report = Vec::new();
    let mut agree = true;
    for w in &WORKLOADS {
        let (first, end_to_end) = run_child(w, args, false, seconds)?;
        if args.self_check {
            let (second, _) = run_child(w, args, false, seconds)?;
            for (name, _, better, bound) in END_TO_END {
                let value = |run: &[(String, f64)]| {
                    run.iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, v)| *v)
                        .ok_or_else(|| format!("{}: no {name}", w.name))
                };
                let (a, b) = (value(&first)?, value(&second)?);
                let difference = (b - a).abs() / a.min(b);
                let verdict = if difference <= bound || args.smoke {
                    "ok"
                } else {
                    agree = false;
                    "BEYOND ITS BOUND"
                };
                println!(
                    "self-check {} {name} ({better} is better): {a} vs {b}, apart by {:.2} % of the smaller, bound {:.0} %: {verdict}",
                    w.name,
                    100.0 * difference,
                    100.0 * bound
                );
            }
            continue;
        }
        let (_, per_layer) = run_child(w, args, true, seconds)?;
        report.push(format!(
            "    \"{}\": {{\"end_to_end\": {end_to_end}, \"per_layer\": {per_layer}}}",
            w.name
        ));
    }
    if let Some(path) = &args.out {
        let body = format!(
            "{{\n  \"seed\": {},\n  \"mode\": \"{}\",\n  \"workloads\": {{\n{}\n  }}\n}}\n",
            args.seed,
            if args.smoke { "smoke" } else { "full" },
            report.join(",\n")
        );
        std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipeline_bench: {e}");
            return ExitCode::from(2);
        }
    };
    if std::path::Path::new(NO_MICROTUNE_CACHE).exists() {
        eprintln!("pipeline_bench: {NO_MICROTUNE_CACHE} exists; it must not");
        return ExitCode::from(2);
    }
    // Set before any thread exists; the child processes inherit it.
    std::env::set_var("TCBF_MICROTUNE_CACHE", NO_MICROTUNE_CACHE);

    let outcome = match &args.workload {
        Some(name) => match Workload::find(name) {
            Some(w) => run_workload(w, &args),
            None => Err(format!("unknown workload {name}")),
        },
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pipeline_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
