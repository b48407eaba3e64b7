//! Conformance tests for the serving subsystem: a served beamformer must
//! be indistinguishable — **bit for bit** — from a locally built
//! `Box<dyn Engine>`, while enforcing the admission, quota and
//! backpressure contracts of the protocol.

// The admission test retries against a deadline.
#![allow(clippy::disallowed_methods)]

use ccglib::matrix::{F16Matrix, HostComplexMatrix};
use ccglib::Precision;
use gpu_sim::Gpu;
use std::net::TcpStream;
use std::time::Duration;
use tcbf::BeamformerBuilder;
use tcbf_serve::wire::{read_frame, write_frame};
use tcbf_serve::{
    discover_workers, example_weights, serve, BeaconConfig, Client, ClientMsg, Discovery,
    RejectReason, ServeConfig, ServeError, ServerMsg, PROTO_VERSION,
};
use tcbf_types::Complex;

const BEAMS: usize = 4;
const RECEIVERS: usize = 16;
const SAMPLES: usize = 32;

fn config() -> ServeConfig {
    ServeConfig {
        gpus: vec![Gpu::A100],
        precisions: vec![Precision::Float16, Precision::Int1],
        engines_per_precision: 2,
        weights: example_weights(BEAMS, RECEIVERS),
        samples_per_block: SAMPLES,
        max_sessions: 8,
        queue_depth: 4,
        tenant_max_streams: 4,
        tenant_blocks_per_sec: None,
        workers: 2,
        fault_plan: None,
    }
}

/// Deterministic, per-client-distinct sample blocks.
fn blocks_for(client: usize, count: usize) -> Vec<HostComplexMatrix> {
    (0..count)
        .map(|b| {
            HostComplexMatrix::from_fn(RECEIVERS, SAMPLES, |r, s| {
                Complex::new(
                    ((r * 13 + s * 7 + b * 3 + client * 29) % 23) as f32 * 0.13 - 1.2,
                    ((s * 11 + r * 5 + b * 17 + client) % 19) as f32 * 0.11 - 0.9,
                )
            })
        })
        .collect()
}

/// The local ground truth: the same engine the server builds, driven
/// directly, with an optional weight swap before block `swap_at`.
fn direct_outputs(
    precision: Precision,
    blocks: &[HostComplexMatrix],
    swap: Option<(usize, &HostComplexMatrix)>,
) -> Vec<HostComplexMatrix> {
    let mut engine = BeamformerBuilder::new(Gpu::A100)
        .weights(example_weights(BEAMS, RECEIVERS))
        .samples_per_block(SAMPLES)
        .precision(precision)
        .build_engine()
        .unwrap();
    blocks
        .iter()
        .enumerate()
        .map(|(i, block)| {
            if let Some((swap_at, weights)) = swap {
                if i == swap_at {
                    engine
                        .swap_weights(beamform::WeightMatrix::from_matrix(weights.clone()))
                        .unwrap();
                }
            }
            let mut outputs = engine.process_batch(&[block]).unwrap();
            outputs.pop().unwrap().beams
        })
        .collect()
}

#[test]
fn served_outputs_are_bit_identical_for_both_precisions() {
    // An f16 `Client` sends each block as its binary16 operand (`Operand`
    // frames, quantised client side), an int1 one as its samples (`Block`
    // frames): both frame kinds cross the wire here.
    for precision in [Precision::Float16, Precision::Int1] {
        let handle = serve("127.0.0.1:0", config()).unwrap();
        let addr = handle.addr();

        // Three concurrent tenants, each streaming its own blocks: worker
        // interleaving and engine sharing must never leak across sessions.
        let clients: Vec<_> = (0..3)
            .map(|c| {
                std::thread::spawn(move || {
                    let blocks = blocks_for(c, 4);
                    let mut client = Client::connect(
                        addr,
                        &format!("tenant-{c}"),
                        precision,
                        RECEIVERS,
                        SAMPLES,
                    )
                    .unwrap();
                    let served = client.stream_blocks(&blocks).unwrap();
                    let summary = client.finish().unwrap();
                    assert_eq!(summary.blocks, 4);
                    assert_eq!(summary.errors, 0);
                    (c, blocks, served)
                })
            })
            .collect();

        for thread in clients {
            let (c, blocks, served) = thread.join().unwrap();
            let expected = direct_outputs(precision, &blocks, None);
            assert_eq!(
                served, expected,
                "client {c} served outputs diverge from direct execution at {precision:?}"
            );
        }

        let report = handle.shutdown();
        assert_eq!(report.total_blocks(), 12);
        assert_eq!(report.total_errors(), 0);
        assert_eq!(report.tenants.len(), 3);
        // Every tenant exposes its own tail percentiles.
        for tenant in &report.tenants {
            assert_eq!(tenant.blocks, 4);
            assert!(tenant.latency.p50_s() <= tenant.latency.p95_s());
            assert!(tenant.latency.p95_s() <= tenant.latency.p99_s());
            assert!(tenant.latency.p99_s() > 0.0);
        }
    }
}

/// The `f32` bits of every output, so that `-0.0` and `0.0` differ.
fn bits(outputs: &[HostComplexMatrix]) -> Vec<Vec<(u32, u32)>> {
    let of = |v: &Complex<f32>| (v.re.to_bits(), v.im.to_bits());
    outputs
        .iter()
        .map(|m| m.data().iter().map(of).collect())
        .collect()
}

#[test]
fn a_block_that_is_a_transposed_view_is_beamformed_like_its_row_major_copy() {
    // A `K × N` block may itself be the `transposed()` view of an `N × K`
    // matrix.  Direct engines — one device and a pool of two — take it as
    // the served path does: bit for bit what its row-major copy gives.
    for precision in [Precision::Float16, Precision::Int1] {
        let copies = blocks_for(5, 3);
        let views: Vec<HostComplexMatrix> = copies
            .iter()
            .map(|block| {
                HostComplexMatrix::from_fn(SAMPLES, RECEIVERS, |s, r| block.get(r, s)).transposed()
            })
            .collect();
        assert_eq!(views, copies, "the views hold the copies' values");

        let on_copy = bits(&direct_outputs(precision, &copies, None));
        let on_view = bits(&direct_outputs(precision, &views, None));
        assert_eq!(on_view, on_copy, "direct engine, {precision:?}");

        let mut pool = BeamformerBuilder::new(Gpu::A100)
            .devices(&[Gpu::A100, Gpu::A100])
            .weights(example_weights(BEAMS, RECEIVERS))
            .samples_per_block(SAMPLES)
            .precision(precision)
            .build_engine()
            .unwrap();
        let batch: Vec<&HostComplexMatrix> = views.iter().collect();
        let pooled: Vec<HostComplexMatrix> = pool
            .process_batch(&batch)
            .unwrap()
            .into_iter()
            .map(|output| output.beams)
            .collect();
        assert_eq!(bits(&pooled), on_copy, "pool of two, {precision:?}");

        let handle = serve("127.0.0.1:0", config()).unwrap();
        let mut client =
            Client::connect(handle.addr(), "viewer", precision, RECEIVERS, SAMPLES).unwrap();
        let served = client.stream_blocks(&views).unwrap();
        client.finish().unwrap();
        handle.shutdown();
        assert_eq!(bits(&served), on_copy, "served, {precision:?}");
    }
}

#[test]
fn mid_stream_weight_swap_is_bit_identical() {
    let handle = serve("127.0.0.1:0", config()).unwrap();
    let blocks = blocks_for(7, 4);
    let new_weights = HostComplexMatrix::from_fn(BEAMS, RECEIVERS, |b, r| {
        Complex::from_polar(1.0 / RECEIVERS as f32, (b * 3 + r * 11) as f32 * 0.17)
    });

    let mut client = Client::connect(
        handle.addr(),
        "swapper",
        Precision::Float16,
        RECEIVERS,
        SAMPLES,
    )
    .unwrap();
    let mut served = client.stream_blocks(&blocks[..2]).unwrap();
    client.swap_weights(&new_weights).unwrap();
    served.extend(client.stream_blocks(&blocks[2..]).unwrap());
    client.finish().unwrap();
    handle.shutdown();

    let expected = direct_outputs(Precision::Float16, &blocks, Some((2, &new_weights)));
    assert_eq!(served, expected, "weight swap diverges from direct engine");
}

/// The lazy-swap rule end to end, on one slot shared by two tenants that
/// alternate block by block: weights are installed when they differ **bit
/// for bit** from the ones the engine carries, and only then — and whatever
/// the slot decides, every tenant's beams are those of its own direct engine.
#[test]
fn weights_are_installed_only_when_their_bits_differ() {
    // The server's weights hold a zero, so that "differs in the sign of one
    // zero" can be said.
    let with_re = |re: f32| {
        let mut weights = example_weights(BEAMS, RECEIVERS);
        let im = weights.get(1, 2).im;
        weights.set(1, 2, Complex::new(re, im));
        weights
    };
    let servers = with_re(0.0);
    let direct = |precision: Precision, weights: &HostComplexMatrix, block: &HostComplexMatrix| {
        let mut engine = BeamformerBuilder::new(Gpu::A100)
            .weights(weights.clone())
            .samples_per_block(SAMPLES)
            .precision(precision)
            .build_engine()
            .unwrap();
        engine.process_batch(&[block]).unwrap().pop().unwrap().beams
    };

    for precision in [Precision::Float16, Precision::Int1] {
        let mut config = config();
        config.weights = servers.clone();
        config.engines_per_precision = 1;
        config.workers = 1;
        let handle = serve("127.0.0.1:0", config).unwrap();
        let connect = |tenant| {
            let mut client =
                Client::connect(handle.addr(), tenant, precision, RECEIVERS, SAMPLES).unwrap();
            client.set_window(1);
            client
        };
        let (mut a, mut b) = (connect("a"), connect("b"));
        let (blocks_a, blocks_b) = (blocks_for(1, 3), blocks_for(2, 3));
        // B uploads `own`, if any; then a block of A and a block of B, three
        // times over.  Returns the fleet's swap count afterwards.
        let mut alternate = |phase: &str, own: Option<&HostComplexMatrix>| {
            if let Some(weights) = own {
                b.swap_weights(weights).unwrap();
            }
            let weights_b = own.unwrap_or(&servers);
            for (block_a, block_b) in blocks_a.iter().zip(&blocks_b) {
                let served = a.stream_blocks(std::slice::from_ref(block_a)).unwrap();
                let expected = direct(precision, &servers, block_a);
                assert_eq!(served, [expected], "{phase}: tenant a at {precision:?}");
                let served = b.stream_blocks(std::slice::from_ref(block_b)).unwrap();
                let expected = direct(precision, weights_b, block_b);
                assert_eq!(served, [expected], "{phase}: tenant b at {precision:?}");
            }
            handle.fleet_report().engines.weight_swaps()
        };

        // (i) Both on the server's weights: nothing is ever installed.
        assert_eq!(alternate("shared", None), 0);

        // (ii) B brings its own: every hand-over of the slot is a swap (the
        // first block of A finds the server's weights still installed).
        let own = HostComplexMatrix::from_fn(BEAMS, RECEIVERS, |b, r| {
            Complex::from_polar(1.0 / RECEIVERS as f32, (b * 3 + r * 11) as f32 * 0.17)
        });
        assert_eq!(alternate("different", Some(&own)), 5);

        // (iii) The sign of one zero is a difference: `==` would call these
        // the server's weights, and 1-bit quantisation would not.
        let negative_zero = with_re(-0.0);
        assert_eq!(negative_zero, servers);
        assert_eq!(alternate("sign of a zero", Some(&negative_zero)), 5 + 6);

        // (iv) A fresh copy of the server's weights, bit for bit: A's first
        // block installs them for the last time.
        assert_eq!(alternate("bit-equal copy", Some(&with_re(0.0))), 5 + 6 + 1);

        for client in [a, b] {
            assert_eq!(client.finish().unwrap().errors, 0);
        }
        let report = handle.shutdown();
        assert_eq!(report.total_blocks(), 24);
        assert_eq!(report.total_errors(), 0);
    }
}

#[test]
fn admission_control_rejects_past_max_sessions() {
    let mut config = config();
    config.max_sessions = 1;
    let handle = serve("127.0.0.1:0", config).unwrap();

    let first = Client::connect(
        handle.addr(),
        "alice",
        Precision::Float16,
        RECEIVERS,
        SAMPLES,
    )
    .unwrap();
    // The server is full: the second Hello gets a typed rejection.
    match Client::connect(handle.addr(), "bob", Precision::Float16, RECEIVERS, SAMPLES) {
        Err(ServeError::Rejected(RejectReason::ServerFull { active, max })) => {
            assert_eq!((active, max), (1, 1));
        }
        other => panic!("expected ServerFull rejection, got {other:?}"),
    }
    // Finishing the first session frees the slot.
    first.finish().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match Client::connect(
            handle.addr(),
            "carol",
            Precision::Float16,
            RECEIVERS,
            SAMPLES,
        ) {
            Ok(client) => {
                client.finish().unwrap();
                break;
            }
            Err(ServeError::Rejected(_)) if std::time::Instant::now() < deadline => {
                // The server tears the first session down asynchronously.
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("slot never freed after finish: {e}"),
        }
    }
    handle.shutdown();
}

#[test]
fn tenant_stream_quota_is_enforced() {
    let mut config = config();
    config.tenant_max_streams = 1;
    let handle = serve("127.0.0.1:0", config).unwrap();

    let first = Client::connect(
        handle.addr(),
        "alice",
        Precision::Float16,
        RECEIVERS,
        SAMPLES,
    )
    .unwrap();
    // Same tenant, second stream: quota rejection...
    match Client::connect(
        handle.addr(),
        "alice",
        Precision::Float16,
        RECEIVERS,
        SAMPLES,
    ) {
        Err(ServeError::Rejected(RejectReason::TenantQuota { max })) => assert_eq!(max, 1),
        other => panic!("expected TenantQuota rejection, got {other:?}"),
    }
    // ...while a different tenant is admitted just fine.
    let other_tenant =
        Client::connect(handle.addr(), "bob", Precision::Float16, RECEIVERS, SAMPLES).unwrap();
    other_tenant.finish().unwrap();
    first.finish().unwrap();
    handle.shutdown();
}

#[test]
fn backpressure_throttles_but_never_corrupts() {
    let mut config = config();
    config.queue_depth = 1;
    config.workers = 1;
    config.engines_per_precision = 1;
    let handle = serve("127.0.0.1:0", config).unwrap();

    let blocks = blocks_for(3, 8);
    let mut client = Client::connect(
        handle.addr(),
        "flooder",
        Precision::Float16,
        RECEIVERS,
        SAMPLES,
    )
    .unwrap();
    // A window far beyond the queue depth forces QueueFull throttles.
    client.set_window(6);
    let served = client.stream_blocks(&blocks).unwrap();
    let retries = client.throttle_retries();
    let summary = client.finish().unwrap();
    let report = handle.shutdown();

    assert!(
        retries > 0,
        "a window of 6 against queue depth 1 must throttle"
    );
    assert_eq!(summary.blocks, 8);
    assert_eq!(summary.throttled, retries);
    let throttled: u64 = report.tenants.iter().map(|t| t.throttled).sum();
    assert_eq!(throttled, retries);
    // Backpressure must be invisible in the data.
    let expected = direct_outputs(Precision::Float16, &blocks, None);
    assert_eq!(served, expected);
}

#[test]
fn rate_limited_tenants_are_throttled_then_served() {
    let mut config = config();
    config.tenant_blocks_per_sec = Some(4.0);
    let handle = serve("127.0.0.1:0", config).unwrap();

    // 8 blocks at 4 blocks/s (burst 4): the second half must be throttled
    // at least once each before the bucket refills.
    let blocks = blocks_for(5, 8);
    let mut client = Client::connect(
        handle.addr(),
        "metered",
        Precision::Float16,
        RECEIVERS,
        SAMPLES,
    )
    .unwrap();
    let served = client.stream_blocks(&blocks).unwrap();
    assert!(
        client.throttle_retries() > 0,
        "8 blocks against a 4/s quota must rate-limit"
    );
    client.finish().unwrap();
    handle.shutdown();

    let expected = direct_outputs(Precision::Float16, &blocks, None);
    assert_eq!(served, expected, "rate limiting must not corrupt outputs");
}

#[test]
fn discovery_finds_a_two_worker_fleet() {
    let discovery = Discovery::bind("127.0.0.1:0").unwrap();
    let target = discovery.local_addr().unwrap();

    let mut worker_a = serve("127.0.0.1:0", config()).unwrap();
    let mut single_precision = config();
    single_precision.precisions = vec![Precision::Int1];
    let mut worker_b = serve("127.0.0.1:0", single_precision).unwrap();

    let beacon = |target| BeaconConfig {
        target,
        interval: Duration::from_millis(100),
    };
    worker_a.announce(beacon(target));
    worker_b.announce(beacon(target));

    let fleet = discovery.collect(Duration::from_millis(500)).unwrap();
    assert_eq!(fleet.len(), 2, "both beacons must be discovered");
    let find = |addr: std::net::SocketAddr| {
        fleet
            .iter()
            .find(|w| w.addr == addr.to_string())
            .unwrap_or_else(|| panic!("worker {addr} missing from {fleet:?}"))
    };
    let a = find(worker_a.addr());
    assert_eq!(a.gpus, vec!["A100".to_owned()]);
    assert_eq!(
        a.precisions,
        vec![Precision::Float16, Precision::Int1],
        "the beacon carries the precision menu"
    );
    let b = find(worker_b.addr());
    assert_eq!(b.precisions, vec![Precision::Int1]);
    assert_eq!(b.max_sessions, 8);

    worker_a.shutdown();
    worker_b.shutdown();

    // The convenience helper drains an empty (post-shutdown) airwave fine.
    let none = discover_workers("127.0.0.1:0", Duration::from_millis(50)).unwrap();
    assert!(none.is_empty());
}

#[test]
fn engine_killed_mid_stream_completes_with_zero_client_visible_errors() {
    // A single-precision fleet of two engines; slot 0 dies permanently
    // after serving 3 blocks.  The session must complete every block on
    // the surviving engine without the client noticing anything.
    //
    // The fault is about engine slots, not about worker interleaving, so
    // one worker drives the pool: its FIFO rotation then alternates the two
    // slots whatever the OS schedules, slot 0 serves blocks 1, 3 and 5 and
    // refuses exactly the 7th.  (With two workers, one kept off the CPU
    // could leave slot 0 with three blocks or fewer of the twelve, and the
    // armed fault never fired.)
    let mut config = config();
    config.precisions = vec![Precision::Float16];
    config.workers = 1;
    config.fault_plan = Some(gpu_sim::FaultPlan::new().kill_device(0, 3));
    let handle = serve("127.0.0.1:0", config).unwrap();

    let blocks = blocks_for(11, 12);
    let mut client = Client::connect(
        handle.addr(),
        "survivor",
        Precision::Float16,
        RECEIVERS,
        SAMPLES,
    )
    .unwrap();
    let served = client.stream_blocks(&blocks).unwrap();
    let summary = client.finish().unwrap();
    let report = handle.shutdown();

    assert_eq!(summary.blocks, 12);
    assert_eq!(
        summary.errors, 0,
        "failover must be invisible to the client"
    );
    assert_eq!(report.total_errors(), 0);
    assert_eq!(
        report.total_recovered(),
        1,
        "the killed engine's one refused job must be replayed: {}",
        report.summary_line()
    );
    assert!(report.is_degraded(), "one quarantined engine of two");
    assert_eq!(report.health.healthy, 1);
    assert_eq!(report.health.total, 2);

    // Recovered output is bit-identical to the no-fault direct engine: the
    // refused job replays the operand it carries.
    let expected = direct_outputs(Precision::Float16, &blocks, None);
    assert_eq!(served, expected, "failover must not corrupt outputs");
}

#[test]
fn degraded_pools_tighten_admission_proportionally() {
    // One precision, two engines, four session slots.  Killing slot 0
    // before it serves anything halves the healthy fraction, so the
    // effective ceiling drops to ceil(4 * 1/2) = 2 sessions.
    let mut config = config();
    config.precisions = vec![Precision::Float16];
    config.max_sessions = 4;
    config.fault_plan = Some(gpu_sim::FaultPlan::new().kill_device(0, 0));
    let handle = serve("127.0.0.1:0", config).unwrap();

    // Trip the fault: one block through the pool quarantines slot 0.
    let blocks = blocks_for(2, 1);
    let mut tripper = Client::connect(
        handle.addr(),
        "tripper",
        Precision::Float16,
        RECEIVERS,
        SAMPLES,
    )
    .unwrap();
    let served = tripper.stream_blocks(&blocks).unwrap();
    assert_eq!(served, direct_outputs(Precision::Float16, &blocks, None));

    // The tripper holds one of the two degraded slots; a second session
    // fits, a third is rejected with the *shrunken* ceiling.
    let second = Client::connect(
        handle.addr(),
        "second",
        Precision::Float16,
        RECEIVERS,
        SAMPLES,
    )
    .unwrap();
    match Client::connect(
        handle.addr(),
        "third",
        Precision::Float16,
        RECEIVERS,
        SAMPLES,
    ) {
        Err(ServeError::Rejected(RejectReason::ServerFull { active, max })) => {
            assert_eq!(max, 2, "the advertised ceiling reflects degradation");
            assert_eq!(active, 2);
        }
        other => panic!("expected a degraded ServerFull rejection, got {other:?}"),
    }

    second.finish().unwrap();
    tripper.finish().unwrap();
    let report = handle.shutdown();
    assert!(report.is_degraded());
    assert_eq!(report.total_errors(), 0);
}

#[test]
fn error_codes_round_trip_the_wire() {
    let handle = serve("127.0.0.1:0", config()).unwrap();

    // Hello with the wrong block shape: typed ShapeMismatch, by code.
    match Client::connect(
        handle.addr(),
        "wrong-shape",
        Precision::Float16,
        RECEIVERS + 1,
        SAMPLES,
    ) {
        Err(ServeError::Remote { code, .. }) => {
            assert_eq!(
                code,
                tcbf::TcbfError::ShapeMismatch {
                    expected: String::new(),
                    actual: String::new(),
                }
                .code()
            );
        }
        other => panic!("expected a remote ShapeMismatch, got {other:?}"),
    }

    // A precision off the menu: typed UnsupportedPrecision, by code.
    let mut float16_only = config();
    float16_only.precisions = vec![Precision::Float16];
    let restricted = serve("127.0.0.1:0", float16_only).unwrap();
    match Client::connect(
        restricted.addr(),
        "off-menu",
        Precision::Int1,
        RECEIVERS,
        SAMPLES,
    ) {
        Err(ServeError::Remote { code, message }) => {
            assert_eq!(
                code,
                tcbf::TcbfError::UnsupportedPrecision {
                    device: String::new(),
                    precision: String::new(),
                }
                .code()
            );
            assert!(message.contains("float16"), "the menu is advertised");
        }
        other => panic!("expected a remote UnsupportedPrecision, got {other:?}"),
    }

    restricted.shutdown();
    handle.shutdown();
}

/// A raw connection that has said `Hello` at `precision` and read its
/// `Welcome`.
fn raw_session(addr: std::net::SocketAddr, tenant: &str, precision: Precision) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    let hello = ClientMsg::Hello {
        version: PROTO_VERSION,
        tenant: tenant.into(),
        precision,
        receivers: RECEIVERS as u32,
        samples_per_block: SAMPLES as u32,
    };
    write_frame(&mut stream, &hello.encode()).unwrap();
    let welcome = ServerMsg::decode(&read_frame(&mut stream).unwrap()).unwrap();
    assert!(matches!(welcome, ServerMsg::Welcome { .. }), "{welcome:?}");
    stream
}

/// Sends one request and reads its one reply.
fn round_trip(stream: &mut TcpStream, msg: &ClientMsg) -> ServerMsg {
    write_frame(stream, &msg.encode()).unwrap();
    ServerMsg::decode(&read_frame(stream).unwrap()).unwrap()
}

#[test]
fn an_f16_session_that_sends_samples_is_served_bit_identically() {
    // The f32 `Block` frame stays on the menu of an f16 session: the server
    // quantises it at admission, with the engine's own quantiser.
    let handle = serve("127.0.0.1:0", config()).unwrap();
    let mut stream = raw_session(handle.addr(), "raw", Precision::Float16);
    let blocks = blocks_for(5, 3);
    let expected = direct_outputs(Precision::Float16, &blocks, None);
    for (seq, (samples, expected)) in blocks.into_iter().zip(expected).enumerate() {
        let seq = seq as u64;
        match round_trip(&mut stream, &ClientMsg::Block { seq, samples }) {
            ServerMsg::Beams {
                seq: got, beams, ..
            } => {
                assert_eq!(got, seq);
                assert_eq!(beams, expected, "block {seq}");
            }
            other => panic!("expected Beams, got {other:?}"),
        }
    }
    assert!(matches!(
        round_trip(&mut stream, &ClientMsg::Finish),
        ServerMsg::Goodbye { .. }
    ));
    assert_eq!(handle.shutdown().total_errors(), 0);
}

#[test]
fn a_misshapen_or_misplaced_operand_is_a_typed_error_and_the_session_carries_on() {
    let handle = serve("127.0.0.1:0", config()).unwrap();
    let code = |reply: ServerMsg| match reply {
        ServerMsg::Error { seq: 1, code, .. } => code,
        other => panic!("expected an Error for seq 1, got {other:?}"),
    };
    let block = blocks_for(9, 1).remove(0);
    for precision in [Precision::Float16, Precision::Int1] {
        let mut stream = raw_session(handle.addr(), "raw", precision);
        // `N × K` one sample short: ShapeMismatch, in either session.
        let short = HostComplexMatrix::zeros(RECEIVERS, SAMPLES - 1);
        let planes = F16Matrix::from_host(&short);
        let reply = round_trip(&mut stream, &ClientMsg::Operand { seq: 1, planes });
        assert_eq!(code(reply), 10, "{precision:?}");
        // The right shape in an int1 session: PrecisionMismatch.
        let planes = F16Matrix::from_host(&block);
        let reply = round_trip(&mut stream, &ClientMsg::Operand { seq: 1, planes });
        match precision {
            Precision::Int1 => assert_eq!(code(reply), 11),
            _ => assert!(
                matches!(reply, ServerMsg::Beams { seq: 1, .. }),
                "{reply:?}"
            ),
        }
        // Either way the session serves its next block.
        let samples = block.clone();
        let reply = round_trip(&mut stream, &ClientMsg::Block { seq: 2, samples });
        let expected = direct_outputs(precision, std::slice::from_ref(&block), None);
        match reply {
            ServerMsg::Beams { seq: 2, beams, .. } => assert_eq!(beams, expected[0]),
            other => panic!("expected Beams for seq 2, got {other:?}"),
        }
        match round_trip(&mut stream, &ClientMsg::Finish) {
            ServerMsg::Goodbye { summary } => assert_eq!(summary.blocks + summary.errors, 3),
            other => panic!("expected Goodbye, got {other:?}"),
        }
    }
    let report = handle.shutdown();
    assert_eq!(report.total_errors(), 3);
}

#[test]
fn a_float32_menu_is_refused_at_start_up() {
    // Float32 is a modelled baseline: an engine of it would fail every
    // block, so the server refuses to build one.
    let mut float32 = config();
    float32.precisions = vec![Precision::Float16, Precision::Float32Reference];
    match serve("127.0.0.1:0", float32) {
        Err(err) => assert_eq!(err.code(), 7, "{err}"),
        Ok(handle) => panic!("a float32 menu was served at {}", handle.addr()),
    }
}
