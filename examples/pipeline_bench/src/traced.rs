//! The traced run: every layer timed from outside, through its public
//! functions.  End-to-end metrics never come from here.
//!
//! `--seconds` is split between four loops: the workload's own path with
//! tracing off (the reference the traced numbers are compared with), the
//! traced engine loop with its stage replay, and a loopback served probe
//! (`Client` callers, then raw-wire callers with spans).  The micro-probes
//! between them run a fixed number of iterations.

use crate::alloc;
use crate::guard::{bits_equal, checksum};
use crate::host;
use crate::measure::{closed_loop, quietest_burst, summarise, LoopSummary};
use crate::metrics::Values;
use crate::rig::{build_engine, serve_config, Rig, TENANTS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Inputs, Workload, GPU};
use beamform::WeightMatrix;
use ccglib::gemm::{gemm_dispatch_prepared, DecodedPlanes, PreparedOperand};
use ccglib::matrix::HostComplexMatrix;
use ccglib::{Gemm, Precision};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};
use tcbf_serve::wire::{read_frame, write_frame};
use tcbf_serve::{ClientMsg, ServerMsg, PROTO_VERSION};

/// |`engine.unaccounted_frac`| beyond this fails the traced run: the
/// replayed stages no longer explain the engine's block, so the harness
/// is missing a stage.
const RECONCILE_LIMIT: f64 = 0.10;

pub struct TracedOutcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    /// Harness-level checks that did not hold (empty when all did).
    pub broken: Vec<String>,
}

/// Median µs of `iterations` calls of `f`; the first error ends it.
fn time_us<T>(iterations: usize, mut f: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let start = Instant::now();
        let out = f();
        samples.push(start.elapsed().as_secs_f64() * 1e6);
        drop(std::hint::black_box(out?));
    }
    Ok(median(&mut samples))
}

/// Median block time inside the quietest burst of a traced loop.
fn burst_p50_ms(mut blocks: Vec<(u64, f64)>) -> Result<f64, String> {
    quietest_burst(&mut blocks)
        .map(|(_, p50_ms)| p50_ms)
        .ok_or_else(|| "a traced loop is shorter than one burst".to_string())
}

/// What the traced engine loop found besides its spans.
struct EngineTrace {
    attempted: u64,
    failed: u64,
    replay_mismatches: u64,
    /// `(calls, bytes)` the allocator saw around each `process_batch`.
    allocs: Vec<(u64, u64)>,
    /// The engine's output for every input slot, from the settling pass.
    beams: Vec<HostComplexMatrix>,
}

/// For each block: one span around the engine call, then the same block
/// replayed through the public stage functions under a `replay` parent.
fn trace_engine(
    w: &Workload,
    inputs: &Inputs,
    expected: &[u64],
    duration: Duration,
    tracer: &mut Tracer,
) -> Result<EngineTrace, String> {
    let mut engine = build_engine(w, &inputs.weights)?;
    let gemm = Gemm::new(&GPU.device(), w.shape(), w.precision).map_err(|e| e.to_string())?;
    let bit_op = gemm.plan().bit_op();
    let prepared = PreparedOperand::new(w.quantise(&inputs.weights));
    let blocks = &inputs.blocks[0];
    // One pass first: caches, lazy statics and the allocator's thresholds
    // settle, and the engine's output for every slot is kept to compare
    // the replays with.
    let mut found = EngineTrace {
        attempted: 0,
        failed: 0,
        replay_mismatches: 0,
        allocs: Vec::with_capacity(1 << 16),
        beams: Vec::with_capacity(blocks.len()),
    };
    for block in blocks {
        let output = engine.process_batch(&[block]).map_err(|e| e.to_string())?;
        found
            .beams
            .push(output.into_iter().next().ok_or("no output")?.beams);
    }
    let loop_start = Instant::now();
    for id in 0u64.. {
        if loop_start.elapsed() >= duration {
            break;
        }
        let slot = id as usize % blocks.len();
        found.attempted += 1;

        let before = alloc::snapshot();
        let start = tracer.now();
        let result = engine.process_batch(&[&blocks[slot]]);
        tracer.record(id, "engine.process_block", "", start);
        let after = alloc::snapshot();
        found.allocs.push((after.0 - before.0, after.1 - before.1));
        let verified = matches!(
            result.map(|mut outputs| outputs.pop()),
            Ok(Some(output)) if checksum(&output.beams) == expected[slot]
        );
        if !verified {
            found.failed += 1;
            continue;
        }

        // The replay takes the input half a rotation away: the engine
        // call and the replay then both meet their input half a rotation
        // after it was last read, instead of the replay finding the block
        // the engine just pulled into cache.
        let slot = (slot + blocks.len() / 2) % blocks.len();
        let block = &blocks[slot];
        let replay = tracer.now();
        let start = tracer.now();
        let transposed = block.transposed();
        tracer.record(id, "stage.transpose", "replay", start);
        let start = tracer.now();
        let b_t = w.quantise(&transposed);
        tracer.record(id, "stage.quantise", "replay", start);
        let start = tracer.now();
        let decoded = DecodedPlanes::maybe_from(&b_t);
        tracer.record(id, "stage.b_decode", "replay", start);
        let start = tracer.now();
        let replayed = gemm_dispatch_prepared(&prepared, &b_t, bit_op);
        tracer.record(id, "stage.gemm", "replay", start);
        let start = tracer.now();
        let report = gemm.predict();
        tracer.record(id, "stage.report", "replay", start);
        // The engine frees its two temporaries inside its block (the
        // decoded B is freed inside `stage.gemm` here as there).
        let start = tracer.now();
        drop(transposed);
        drop(b_t);
        tracer.record(id, "stage.release", "replay", start);
        tracer.record(id, "replay", "", replay);

        std::hint::black_box((&decoded, &report));
        if !matches!(&replayed, Ok(out) if bits_equal(out, &found.beams[slot])) {
            found.replay_mismatches += 1;
        }
    }
    Ok(found)
}

/// What one raw-wire caller brings back.
struct RawCaller {
    tracer: Tracer,
    /// Server-side seconds of each verified block: the `latency_s` of its
    /// `Beams` reply.
    server_side_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// `Throttled` replies seen (each also counts as failed).
    throttled: u64,
}

/// One raw-wire caller: `Hello`, then closed-loop blocks for `duration`
/// with a span per client-side step, then `Finish`.  Block ids start at
/// `id_base`.
fn raw_caller(
    w: &Workload,
    addr: SocketAddr,
    tenant: &str,
    id_base: u64,
    inputs: (&[HostComplexMatrix], &[u64]),
    (epoch, duration): (Instant, Duration),
) -> Result<RawCaller, String> {
    let (blocks, expected) = inputs;
    let io = |e: std::io::Error| format!("raw client: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let hello = ClientMsg::Hello {
        version: PROTO_VERSION,
        tenant: tenant.to_string(),
        precision: w.precision,
        receivers: w.k as u32,
        samples_per_block: w.n as u32,
    };
    write_frame(&mut stream, &hello.encode()).map_err(io)?;
    let welcome = ServerMsg::decode(&read_frame(&mut stream).map_err(io)?);
    if !matches!(welcome, Ok(ServerMsg::Welcome { .. })) {
        return Err(format!("raw client: expected Welcome, got {welcome:?}"));
    }

    let mut found = RawCaller {
        tracer: Tracer::new(epoch, 1 << 16),
        server_side_s: Vec::with_capacity(1 << 14),
        attempted: 0,
        failed: 0,
        throttled: 0,
    };
    let tracer = &mut found.tracer;
    let loop_start = Instant::now();
    for seq in 0u64.. {
        if loop_start.elapsed() >= duration {
            break;
        }
        let slot = seq as usize % blocks.len();
        let id = id_base + seq;
        found.attempted += 1;

        let block_start = tracer.now();
        let payload = ClientMsg::Block {
            seq,
            samples: blocks[slot].clone(),
        }
        .encode();
        tracer.record(id, "client.encode", "client.block", block_start);
        let start = tracer.now();
        write_frame(&mut stream, &payload).map_err(io)?;
        tracer.record(id, "client.write", "client.block", start);
        let start = tracer.now();
        let frame = read_frame(&mut stream).map_err(io)?;
        tracer.record(id, "client.wait", "client.block", start);
        let start = tracer.now();
        let reply = ServerMsg::decode(&frame);
        tracer.record(id, "client.decode", "client.block", start);
        tracer.record(id, "client.block", "", block_start);

        match reply {
            Ok(ServerMsg::Beams {
                beams, latency_s, ..
            }) if checksum(&beams) == expected[slot] => found.server_side_s.push(latency_s),
            Ok(ServerMsg::Throttled { .. }) => {
                found.throttled += 1;
                found.failed += 1;
            }
            _ => found.failed += 1,
        }
    }
    write_frame(&mut stream, &ClientMsg::Finish.encode()).map_err(io)?;
    read_frame(&mut stream).map_err(io)?;
    Ok(found)
}

/// What the loopback served probe found.
struct ServedProbe {
    /// `Client::stream_blocks` callers, tracing off.
    clients: LoopSummary,
    raw: Tracer,
    server_side_s: Vec<f64>,
    raw_counts: (u64, u64),
    throttle_retries: u64,
    swaps_per_block: f64,
}

fn served_probe(
    w: &Workload,
    inputs: &Inputs,
    expected: &[Vec<u64>],
    client_time: Duration,
    raw_time: Duration,
    epoch: Instant,
) -> Result<ServedProbe, String> {
    let mut rig = Rig::setup_served(w, inputs)?;
    let addr = rig.server.as_ref().map(|s| s.addr()).ok_or("no server")?;
    let clients = summarise(
        &closed_loop(&mut rig.callers, inputs, expected, client_time),
        client_time,
    );
    let mut throttle_retries = rig.finish_callers()?;

    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .blocks
            .iter()
            .zip(expected)
            .enumerate()
            .map(|(c, (blocks, sums))| {
                let tenant = TENANTS[c % TENANTS.len()];
                let id_base = (c as u64 + 1) << 32;
                scope.spawn(move || {
                    raw_caller(w, addr, tenant, id_base, (blocks, sums), (epoch, raw_time))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("raw caller panicked"))
            .collect()
    });
    let mut raw = Tracer::new(epoch, 0);
    let mut server_side_s = Vec::new();
    let mut raw_counts = (0, 0);
    for result in results {
        let caller = result?;
        raw.absorb(caller.tracer);
        server_side_s.extend(caller.server_side_s);
        raw_counts.0 += caller.attempted;
        raw_counts.1 += caller.failed;
        throttle_retries += caller.throttled;
    }

    let fleet = rig.teardown()?.ok_or("no fleet report")?;
    Ok(ServedProbe {
        clients,
        raw,
        server_side_s,
        raw_counts,
        throttle_retries,
        swaps_per_block: fleet.engines.weight_swaps() as f64 / fleet.total_blocks().max(1) as f64,
    })
}

/// Wire codec at the workload's shape, in process: no socket.
fn probe_wire(
    values: &mut Values,
    block: &HostComplexMatrix,
    beams: &HostComplexMatrix,
) -> Result<(), String> {
    const ITERATIONS: usize = 30;
    let request = ClientMsg::Block {
        seq: 1,
        samples: block.clone(),
    };
    let reply = ServerMsg::Beams {
        seq: 1,
        beams: beams.clone(),
        latency_s: 0.001,
    };
    let request_bytes = request.encode();
    let reply_bytes = reply.encode();
    if ClientMsg::decode(&request_bytes).as_ref() != Ok(&request)
        || ServerMsg::decode(&reply_bytes).as_ref() != Ok(&reply)
    {
        return Err("wire codec does not round-trip".to_string());
    }
    let note = format!("n={ITERATIONS}");
    values.put(
        "wire.block_encode_us",
        time_us(ITERATIONS, || Ok(request.encode()))?,
        &note,
    );
    values.put(
        "wire.block_decode_us",
        time_us(ITERATIONS, || Ok(ClientMsg::decode(&request_bytes)))?,
        &note,
    );
    values.put(
        "wire.beams_encode_us",
        time_us(ITERATIONS, || Ok(reply.encode()))?,
        &note,
    );
    values.put(
        "wire.beams_decode_us",
        time_us(ITERATIONS, || Ok(ServerMsg::decode(&reply_bytes)))?,
        &note,
    );
    values.put(
        "wire.block_frame_bytes",
        (request_bytes.len() + 4) as f64,
        "length prefix + payload",
    );
    Ok(())
}

/// Builder, weight swap and pool costs at the workload's shape.  Returns
/// `pool.ensure_weights_us`, which `serve.queue_share` needs.
fn probe_engine_and_pool(
    values: &mut Values,
    w: &Workload,
    inputs: &Inputs,
) -> Result<f64, String> {
    const BUILDS: usize = 5;
    const SWAPS: usize = 15;
    const CHECKOUTS: usize = 2000;
    let build_us = time_us(BUILDS, || build_engine(w, &inputs.weights))?;
    values.put("builder.build_engine_us", build_us, format!("n={BUILDS}"));

    let weights = WeightMatrix::from_matrix(inputs.weights.clone());
    let mut engine = build_engine(w, &inputs.weights)?;
    let swap_us = time_us(SWAPS, || {
        engine
            .swap_weights(weights.clone())
            .map_err(|e| format!("swap_weights: {e}"))
    })?;
    values.put("engine.swap_weights_us", swap_us, format!("n={SWAPS}"));

    let pool = serve_config(w, &inputs.weights)
        .build_pool()
        .map_err(|e| format!("build_pool: {e}"))?;
    let checkout_us = time_us(CHECKOUTS, || {
        pool.checkout(w.precision)
            .and_then(|slot| pool.check_in(w.precision, slot))
            .map_err(|e| format!("pool: {e}"))
    })?;
    values.put(
        "pool.checkout_us",
        checkout_us,
        format!("uncontended checkout + check_in, n={CHECKOUTS}"),
    );
    let mut slot = pool.checkout(w.precision).map_err(|e| e.to_string())?;
    let mut session = 0u64;
    let ensure_us = time_us(SWAPS, || {
        // A new session id each time: the slot's owner always differs.
        session += 1;
        slot.ensure_weights(session, 0, &weights)
            .map_err(|e| format!("ensure_weights: {e}"))
    })?;
    values.put(
        "pool.ensure_weights_us",
        ensure_us,
        format!("owner changed, n={SWAPS}"),
    );
    Ok(ensure_us)
}

/// Bytes the kernel has to move at least once per block, computed from
/// the array sizes (cache misses are not in it).
fn kernel_bytes_computed(w: &Workload, a: &PreparedOperand, b_t_bytes: u128) -> f64 {
    let a_bytes = match a.decoded() {
        Some(planes) => (8 * planes.rows() * planes.cols()) as u128,
        None => a.input().device_bytes(),
    };
    (a_bytes + b_t_bytes + (8 * w.m * w.n) as u128) as f64
}

pub fn run(
    w: &Workload,
    inputs: &Inputs,
    expected: &[Vec<u64>],
    cold_setup_s: f64,
    seconds: f64,
    trace_out: Option<&Path>,
) -> Result<TracedOutcome, String> {
    let share = |part: f64| Duration::from_secs_f64(seconds * part);
    let mut values = Values::default();
    let mut broken = Vec::new();
    let epoch = Instant::now();
    values.put("setup.cold_s", cold_setup_s, "first cycle of the process");

    let ensure_us = probe_engine_and_pool(&mut values, w, inputs)?;

    // The workload's own path, tracing off: what the traced numbers are
    // compared with.
    let probe = served_probe(w, inputs, expected, share(0.15), share(0.25), epoch)?;
    let direct_reference = if w.served {
        None
    } else {
        let mut rig = Rig::setup(w, inputs)?;
        let samples = closed_loop(&mut rig.callers, inputs, expected, share(0.2));
        rig.teardown()?;
        Some(summarise(&samples, share(0.2)))
    };
    let reference = direct_reference.as_ref().unwrap_or(&probe.clients);

    let mut tracer = Tracer::new(epoch, 1 << 20);
    let engine = trace_engine(w, inputs, &expected[0], share(0.4), &mut tracer)?;
    let ceilings = host::probe();

    // --- engine and its stages ---
    let engine_us = tracer.median_us("engine.process_block");
    let transpose_us = tracer.median_us("stage.transpose");
    let quantise_us = tracer.median_us("stage.quantise");
    let b_decode_us = tracer.median_us("stage.b_decode");
    let gemm_us = tracer.median_us("stage.gemm");
    let report_us = tracer.median_us("stage.report");
    let release_us = tracer.median_us("stage.release");
    let kernel_us = gemm_us - b_decode_us;
    let unaccounted =
        1.0 - (transpose_us + quantise_us + gemm_us + report_us + release_us) / engine_us;
    let blocks_traced = format!("n={}", engine.attempted - engine.failed);
    values.put("engine.process_block_us", engine_us, &blocks_traced);
    values.put(
        "engine.unaccounted_frac",
        unaccounted,
        "1 - (transpose + quantise + b_decode + kernel + report + release) / engine",
    );
    values.put("transpose.us", transpose_us, &blocks_traced);
    values.put(
        "transpose.gbs_computed",
        (16 * w.k * w.n) as f64 / transpose_us / 1e3,
        "2*8*K*N bytes / time",
    );
    values.put("quantise.us", quantise_us, &blocks_traced);
    values.put(
        "quantise.melem_per_s",
        (w.k * w.n) as f64 / quantise_us,
        "K*N elements / time",
    );
    values.put("b_decode.us", b_decode_us, "DecodedPlanes::maybe_from(B)");
    values.put("kernel.us", kernel_us, "gemm_dispatch_prepared - b_decode");
    let ops = 8.0 * (w.m * w.n * w.k) as f64;
    let gops = ops / kernel_us / 1e3;
    values.put("kernel.gops_per_s", gops, "8*M*N*K / time");
    values.put("kernel.ops_per_block", ops, "computed");
    let prepared = PreparedOperand::new(w.quantise(&inputs.weights));
    let b_t_bytes = w.quantise(&inputs.blocks[0][0].transposed()).device_bytes();
    values.put(
        "kernel.bytes_per_block_computed",
        kernel_bytes_computed(w, &prepared, b_t_bytes),
        "A as the kernel reads it + quantised B + output, computed",
    );
    let (peak, peak_name) = match w.precision {
        Precision::Int1 => (ceilings.popcnt_peak_gops, "host.popcnt_peak_gops"),
        _ => (ceilings.fma_peak_gflops, "host.fma_peak_gflops"),
    };
    values.put(
        "kernel.frac_of_host_peak",
        gops / peak,
        format!("of {peak_name}, same run"),
    );
    values.put("plan.report_us", report_us, "Gemm::predict()");

    // --- allocator ---
    // The counts repeat exactly except on the blocks where a vector that
    // grows with the stream doubles (the power meter's sample trace does),
    // so the typical block is the median and the others are counted.
    let mut calls: Vec<f64> = engine.allocs.iter().map(|a| a.0 as f64).collect();
    let mut bytes: Vec<f64> = engine.allocs.iter().map(|a| a.1 as f64).collect();
    let typical = (median(&mut calls), median(&mut bytes));
    let odd = engine
        .allocs
        .iter()
        .filter(|a| (a.0 as f64, a.1 as f64) != typical)
        .count();
    if odd * 10 > engine.allocs.len() {
        broken.push(format!(
            "allocations per block do not repeat: {odd} of {} traced blocks differ from the median",
            engine.allocs.len()
        ));
    }
    let repeat_note = format!(
        "identical on {} of {} traced blocks",
        engine.allocs.len() - odd,
        engine.allocs.len()
    );
    values.put("alloc.count_per_block", typical.0, &repeat_note);
    values.put("alloc.bytes_per_block", typical.1, &repeat_note);
    values.put(
        "alloc.release_us",
        release_us,
        "dropping the transposed and quantised temporaries",
    );

    // --- wire, pool, server, client ---
    probe_wire(&mut values, &inputs.blocks[0][0], &engine.beams[0])?;
    values.put(
        "pool.swaps_per_block",
        probe.swaps_per_block,
        "FleetReport.engines.weight_swaps() / blocks at shutdown()",
    );
    let mut server_ms: Vec<f64> = probe.server_side_s.iter().map(|s| s * 1e3).collect();
    let server_side_ms = median(&mut server_ms);
    let raw_block_us = probe.raw.median_us("client.block");
    let codec_us = probe.raw.median_us("client.encode") + probe.raw.median_us("client.decode");
    values.put(
        "serve.server_side_p50_ms",
        server_side_ms,
        format!("latency_s of Beams replies, n={}", server_ms.len()),
    );
    values.put(
        "serve.transit_p50_ms",
        (raw_block_us - codec_us) / 1e3 - server_side_ms,
        "round trip - server side - client codec",
    );
    values.put(
        "serve.queue_share",
        1.0 - (engine_us + probe.swaps_per_block * ensure_us) / (server_side_ms * 1e3),
        "1 - (engine + swaps_per_block * ensure_weights) / server side",
    );
    values.put(
        "client.stream_overhead_us",
        (probe.clients.burst_p50_ms - burst_p50_ms(probe.raw.blocks("client.block"))?) * 1e3,
        "Client::stream_blocks - raw-wire round trip p50, quietest burst of each",
    );
    values.put(
        "serve.throttle_retries",
        probe.throttle_retries as f64,
        "both client kinds",
    );

    // --- host and harness ---
    values.put(
        "host.fma_peak_gflops",
        ceilings.fma_peak_gflops,
        format!("{} threads", ceilings.threads),
    );
    values.put(
        "host.popcnt_peak_gops",
        ceilings.popcnt_peak_gops,
        format!("{} threads, 128 ops per 64-bit word", ceilings.threads),
    );
    values.put(
        "host.stream_bw_gbs",
        ceilings.stream_bw_gbs,
        format!(
            "in-place scale of one array of {} B, LLC {} B",
            ceilings.stream_array_bytes, ceilings.llc_bytes
        ),
    );
    // Both sides from their quietest burst: the two loops ran seconds
    // apart, and the host's speed changes over seconds.
    let traced_blocks = if w.served {
        probe.raw.blocks("client.block")
    } else {
        tracer.blocks("engine.process_block")
    };
    let traced_p50_ms = burst_p50_ms(traced_blocks)?;
    let p50_ratio = traced_p50_ms / reference.burst_p50_ms;
    values.put(
        "trace.p50_ratio",
        p50_ratio,
        format!(
            "traced / untraced block p50, quietest burst of each (untraced n={})",
            reference.attempted
        ),
    );
    values.put(
        "block_p95_ms",
        reference.p95_ms,
        format!(
            "untraced reference loop, median of 5 per-segment p95, fewest samples in a segment {}",
            reference.min_segment_samples
        ),
    );
    values.put(
        "harness.loop_overhead_frac",
        reference.loop_overhead_frac,
        "share of the untraced loop outside timed calls",
    );

    // --- checks ---
    if unaccounted.abs() > RECONCILE_LIMIT {
        broken.push(format!(
            "engine.unaccounted_frac {unaccounted:.3} is beyond {RECONCILE_LIMIT}: the harness is missing a stage"
        ));
    }
    if engine.replay_mismatches > 0 {
        broken.push(format!(
            "{} replayed stage.gemm outputs differ from the engine's",
            engine.replay_mismatches
        ));
    }
    if !(0.9..=1.1).contains(&p50_ratio) {
        println!("warning: trace.p50_ratio {p50_ratio:.3} is outside 0.9-1.1: the trace disturbs what it measures");
    }

    println!("stage table ({}; share of engine.process_block):", w.name);
    tracer.print_stage_table(engine_us);
    println!("served probe ({}; share of client.block):", w.name);
    probe.raw.print_stage_table(raw_block_us);

    if let Some(path) = trace_out {
        tracer.absorb(probe.raw);
        tracer
            .write_csv(w.name, path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {} spans -> {}", tracer.spans.len(), path.display());
    }

    // A served workload's reference loop is the probe's client loop.
    let (reference_attempted, reference_failed) =
        direct_reference.map_or((0, 0), |r| (r.attempted, r.failed));
    Ok(TracedOutcome {
        values,
        attempted: engine.attempted
            + probe.raw_counts.0
            + probe.clients.attempted
            + reference_attempted,
        failed: engine.failed + probe.raw_counts.1 + probe.clients.failed + reference_failed,
        broken,
    })
}
