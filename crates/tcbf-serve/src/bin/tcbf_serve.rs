//! The `tcbf-serve` binary: run a serving worker or benchmark one.
//!
//! ```text
//! tcbf-serve serve --port 31934 --gpus A100,A100 --beams 16 \
//!     --receivers 64 --samples 256 --engines 2 --workers 4
//! tcbf-serve bench-client --addr 127.0.0.1:31934 --clients 4 --blocks 32
//! tcbf-serve discover --timeout-ms 1500
//! ```
//!
//! `serve` prints `listening on <addr>` once ready and a greppable
//! `fleet-report …` line on Ctrl-less shutdown is not available offline,
//! so the serve loop runs until the process is killed; `bench-client`
//! prints per-tenant lines plus its own aggregate for CI to grep.

#![forbid(unsafe_code)]

use ccglib::Precision;
use gpu_sim::{FaultPlan, Gpu};
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use tcbf_serve::{discover_workers, example_weights, serve, BeaconConfig, Client, ServeConfig};
use tcbf_types::Complex;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("serve") => run_serve(rest),
        Some("bench-client") => run_bench_client(rest),
        Some("discover") => run_discover(rest),
        Some("fault-smoke") => run_fault_smoke(rest),
        Some("--help" | "-h" | "help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}`")),
    };
    if let Err(message) = result {
        eprintln!("error: {message}");
        print_usage();
        std::process::exit(1);
    }
}

fn print_usage() {
    eprintln!(
        "usage:\n  \
         tcbf-serve serve [--port N] [--gpus A100,A100] [--precisions float16,int1]\n    \
         [--beams N] [--receivers N] [--samples N] [--engines N] [--workers N]\n    \
         [--max-sessions N] [--queue-depth N] [--tenant-streams N] [--tenant-rate F]\n    \
         [--announce ADDR] [--beacon-interval-ms N] [--run-for-ms N]\n  \
         tcbf-serve bench-client --addr HOST:PORT [--clients N] [--blocks N]\n    \
         [--precision float16] [--receivers N] [--samples N] [--tenant-prefix S]\n  \
         tcbf-serve discover [--listen ADDR] [--timeout-ms N]\n  \
         tcbf-serve fault-smoke [--blocks N] [--kill-after N]"
    );
}

/// A minimal `--key value` argument scanner.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn get(&self, key: &str) -> Option<&'a str> {
        self.args
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value `{raw}` for {key}")),
        }
    }
}

fn parse_precision(name: &str) -> Result<Precision, String> {
    match name {
        "float16" => Ok(Precision::Float16),
        "int1" => Ok(Precision::Int1),
        "float32" => Ok(Precision::Float32Reference),
        other => Err(format!(
            "unknown precision `{other}` (expected float16, int1 or float32)"
        )),
    }
}

fn parse_gpu(name: &str) -> Result<Gpu, String> {
    Gpu::ALL
        .iter()
        .copied()
        .find(|g| g.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            format!(
                "unknown GPU `{name}` (known: {})",
                Gpu::ALL
                    .iter()
                    .map(|g| g.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
}

fn run_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let port: u16 = flags.parse("--port", 0)?;
    let gpus = flags
        .get("--gpus")
        .unwrap_or("A100")
        .split(',')
        .map(parse_gpu)
        .collect::<Result<Vec<_>, _>>()?;
    let precisions = flags
        .get("--precisions")
        .unwrap_or("float16,int1")
        .split(',')
        .map(parse_precision)
        .collect::<Result<Vec<_>, _>>()?;
    let beams: usize = flags.parse("--beams", 16)?;
    let receivers: usize = flags.parse("--receivers", 64)?;
    let samples: usize = flags.parse("--samples", 256)?;
    let tenant_rate: f64 = flags.parse("--tenant-rate", 0.0)?;
    let run_for_ms: u64 = flags.parse("--run-for-ms", 0)?;

    let config = ServeConfig {
        gpus,
        precisions,
        engines_per_precision: flags.parse("--engines", 2)?,
        weights: example_weights(beams, receivers),
        samples_per_block: samples,
        max_sessions: flags.parse("--max-sessions", 16)?,
        queue_depth: flags.parse("--queue-depth", 4)?,
        tenant_max_streams: flags.parse("--tenant-streams", 8)?,
        tenant_blocks_per_sec: (tenant_rate > 0.0).then_some(tenant_rate),
        workers: flags.parse("--workers", 4)?,
        fault_plan: None,
    };

    let mut handle =
        serve(("127.0.0.1", port), config).map_err(|e| format!("cannot start server: {e}"))?;
    if let Some(target) = flags.get("--announce") {
        let target: SocketAddr = target
            .parse()
            .map_err(|_| format!("invalid --announce address `{target}`"))?;
        let interval_ms: u64 = flags.parse("--beacon-interval-ms", 1000)?;
        handle.announce(BeaconConfig {
            target,
            interval: Duration::from_millis(interval_ms.max(10)),
        });
    }
    println!("listening on {}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    if run_for_ms > 0 {
        std::thread::sleep(Duration::from_millis(run_for_ms));
        let report = handle.shutdown();
        for line in report.tenant_lines() {
            println!("{line}");
        }
        println!("{}", report.summary_line());
    } else {
        // Serve until killed; a periodic fleet line keeps operators
        // informed without any signal handling.
        loop {
            std::thread::sleep(Duration::from_secs(10));
            println!("{}", handle.fleet_report().summary_line());
            let _ = std::io::stdout().flush();
        }
    }
    Ok(())
}

fn run_bench_client(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let addr = flags
        .get("--addr")
        .ok_or("bench-client needs --addr HOST:PORT")?
        .to_owned();
    let clients: usize = flags.parse("--clients", 2)?;
    let blocks: usize = flags.parse("--blocks", 16)?;
    let precision = parse_precision(flags.get("--precision").unwrap_or("float16"))?;
    let receivers: usize = flags.parse("--receivers", 64)?;
    let samples: usize = flags.parse("--samples", 256)?;
    let tenant_prefix = flags.get("--tenant-prefix").unwrap_or("bench").to_owned();

    // Wait for the server to come up (CI starts it in the background).
    let connect_deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match std::net::TcpStream::connect(&addr) {
            Ok(_) => break,
            Err(e) if Instant::now() >= connect_deadline => {
                return Err(format!("server at {addr} never came up: {e}"));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }

    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            let tenant = format!("{tenant_prefix}-{c}");
            std::thread::spawn(move || -> Result<(String, u64, f64, f64), String> {
                let mut client = Client::connect(&addr, &tenant, precision, receivers, samples)
                    .map_err(|e| format!("{tenant}: connect failed: {e}"))?;
                let stream: Vec<_> = (0..blocks)
                    .map(|b| {
                        ccglib::matrix::HostComplexMatrix::from_fn(receivers, samples, |r, s| {
                            Complex::new(
                                ((r * 13 + s * 7 + b * 3 + c) % 17) as f32 * 0.11 - 0.8,
                                ((s * 11 + r * 5 + b) % 19) as f32 * 0.09 - 0.7,
                            )
                        })
                    })
                    .collect();
                let outputs = client
                    .stream_blocks(&stream)
                    .map_err(|e| format!("{tenant}: stream failed: {e}"))?;
                if outputs.len() != blocks {
                    return Err(format!(
                        "{tenant}: expected {blocks} outputs, got {}",
                        outputs.len()
                    ));
                }
                let retries = client.throttle_retries();
                let summary = client
                    .finish()
                    .map_err(|e| format!("{tenant}: finish failed: {e}"))?;
                Ok((
                    tenant,
                    retries,
                    summary.p99_latency_s,
                    summary.aggregate_tops,
                ))
            })
        })
        .collect();

    let mut total_blocks = 0u64;
    let mut total_retries = 0u64;
    let mut worst_p99 = 0.0f64;
    let mut errors = 0u64;
    for handle in handles {
        match handle.join().map_err(|_| "client thread panicked")? {
            Ok((tenant, retries, p99, tops)) => {
                println!(
                    "client tenant={tenant} blocks={blocks} retries={retries} \
                     p99_us={:.1} aggregate_tops={tops:.2}",
                    p99 * 1e6
                );
                total_blocks += blocks as u64;
                total_retries += retries;
                worst_p99 = worst_p99.max(p99);
            }
            Err(message) => {
                eprintln!("client error: {message}");
                errors += 1;
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "bench-report clients={clients} blocks={total_blocks} retries={total_retries} \
         errors={errors} p99_us={:.1} wall_s={elapsed:.2}",
        worst_p99 * 1e6
    );
    if errors > 0 {
        return Err(format!("{errors} of {clients} clients failed"));
    }
    Ok(())
}

/// Self-contained fault-tolerance smoke test for CI: serve over loopback
/// with a fault plan that permanently kills one of the two pool engines
/// mid-stream, stream blocks through a single client, and compare the
/// served beams bit-for-bit against a direct no-fault engine.
fn run_fault_smoke(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let blocks: usize = flags.parse("--blocks", 24)?;
    let kill_after: u64 = flags.parse("--kill-after", 5)?;

    const BEAMS: usize = 8;
    const RECEIVERS: usize = 16;
    const SAMPLES: usize = 32;
    let config = ServeConfig {
        gpus: vec![Gpu::A100],
        precisions: vec![Precision::Float16],
        engines_per_precision: 2,
        weights: example_weights(BEAMS, RECEIVERS),
        samples_per_block: SAMPLES,
        max_sessions: 4,
        queue_depth: 4,
        tenant_max_streams: 4,
        tenant_blocks_per_sec: None,
        workers: 2,
        // Slot 0 of the float16 fleet dies permanently after serving
        // `kill_after` blocks; the stream must finish on slot 1.
        fault_plan: Some(FaultPlan::new().kill_device(0, kill_after)),
    };

    let handle = serve("127.0.0.1:0", config).map_err(|e| format!("cannot start server: {e}"))?;
    let stream: Vec<_> = (0..blocks)
        .map(|b| {
            ccglib::matrix::HostComplexMatrix::from_fn(RECEIVERS, SAMPLES, |r, s| {
                Complex::new(
                    ((r * 13 + s * 7 + b * 3) % 17) as f32 * 0.11 - 0.8,
                    ((s * 11 + r * 5 + b) % 19) as f32 * 0.09 - 0.7,
                )
            })
        })
        .collect();

    let mut client = Client::connect(
        handle.addr(),
        "smoke",
        Precision::Float16,
        RECEIVERS,
        SAMPLES,
    )
    .map_err(|e| format!("connect failed: {e}"))?;
    let served = client
        .stream_blocks(&stream)
        .map_err(|e| format!("stream failed: {e}"))?;
    let summary = client.finish().map_err(|e| format!("finish failed: {e}"))?;
    let report = handle.shutdown();

    // The no-fault ground truth: the same engine the server builds,
    // driven directly.
    let mut reference = tcbf::BeamformerBuilder::new(Gpu::A100)
        .weights(example_weights(BEAMS, RECEIVERS))
        .samples_per_block(SAMPLES)
        .precision(Precision::Float16)
        .build_engine()
        .map_err(|e| format!("cannot build reference engine: {e}"))?;
    let mut bit_identical = true;
    for (block, beams) in stream.iter().zip(&served) {
        let mut outputs = reference
            .process_batch(&[block])
            .map_err(|e| format!("reference engine failed: {e}"))?;
        bit_identical &= outputs.pop().map(|o| o.beams) == Some(beams.clone());
    }

    println!(
        "fault-smoke blocks={} client_errors={} recovered_jobs={} bit_identical={}",
        served.len(),
        summary.errors,
        report.total_recovered(),
        bit_identical,
    );
    println!("{}", report.summary_line());

    if !bit_identical {
        return Err("served beams diverge from the no-fault reference".into());
    }
    if summary.errors > 0 {
        return Err(format!("{} client-visible errors", summary.errors));
    }
    if report.total_recovered() == 0 {
        return Err("the fault never fired: no job was recovered".into());
    }
    if !report.is_degraded() {
        return Err("the pool never degraded: quarantine did not engage".into());
    }
    Ok(())
}

fn run_discover(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let listen = flags.get("--listen").unwrap_or("0.0.0.0:31935").to_owned();
    let timeout_ms: u64 = flags.parse("--timeout-ms", 1500)?;
    let fleet = discover_workers(listen.as_str(), Duration::from_millis(timeout_ms))
        .map_err(|e| format!("discovery failed: {e}"))?;
    for worker in &fleet {
        println!(
            "worker addr={} gpus={} precisions={} engines={} sessions={}/{}",
            worker.addr,
            worker.gpus.join(","),
            worker
                .precisions
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(","),
            worker.engines_per_precision,
            worker.active_sessions,
            worker.max_sessions,
        );
    }
    println!("discovered {} workers", fleet.len());
    Ok(())
}
