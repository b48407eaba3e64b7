//! The serving loop: TCP accept, admission control, scheduling and
//! backpressure.
//!
//! One accept thread admits connections (typed `Rejected` past the
//! session cap or a tenant's stream quota), one reader thread per admitted
//! session parses frames and enforces per-tenant rate quotas, and a fixed
//! pool of worker threads drains a **bounded** global job queue, checking
//! engines out of the [`EnginePool`] per block.  Every queue in the path
//! is bounded and every refusal is a typed, retryable message
//! (`Throttled`), so a flood of clients degrades into backpressure, never
//! into unbounded memory growth.
//!
//! Latency is measured wall-clock from job admission (reader side) to
//! reply (worker side) and recorded per tenant in `FleetMetrics` — the
//! served analogue of the paper's per-run metric surface, with tail
//! percentiles instead of single-run means.

use crate::discover::{announce_once, BeaconConfig, WorkerInfo};
use crate::metrics::{FleetMetrics, FleetReport};
use crate::pool::{EnginePool, ServeConfig};
use crate::wire::{
    read_frame_polling, write_frame, ClientMsg, RejectReason, ServerMsg, SessionSummary,
    ThrottleReason, ThrottleReason::QueueFull, ThrottleReason::RateLimited, CODE_PROTOCOL,
    PROTO_VERSION,
};
use beamform::{LatencyHistogram, SessionReport, WeightMatrix};
use ccglib::Precision;
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tcbf::TcbfError;

/// How often blocked reads re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);
/// How long [`ServerHandle::fleet_report`] waits for checked-out engines.
const REPORT_DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// How long one write of a reply may wait for the peer to take bytes before
/// the session is given up on: a client that keeps sending but stops reading
/// fills both socket buffers, and without a deadline the reply's `write_all`
/// would hold a worker (and `shutdown()`'s join on it) for ever.
const REPLY_WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// How long a frame may take to arrive, from its first byte to its last,
/// before the session is given up on: a sender that trickles a frame in holds
/// its reader thread and its `max_sessions` slot for as long as it likes
/// otherwise.  The wait *between* frames is not bounded — an idle session is
/// a legitimate one — and the largest frame the protocol admits (64 MiB)
/// meets it on any link faster than 7 MB/s.
const FRAME_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One unit of work: a block travelling from a session's reader to a
/// worker, carrying everything needed to execute and reply without
/// touching the reader's state.
struct Job {
    session: Arc<Session>,
    precision: Precision,
    seq: u64,
    samples: ccglib::matrix::HostComplexMatrix,
    /// A handle on the session's weights as of enqueue time, so blocks
    /// enqueued before a swap still execute under the old weights; the
    /// worker's lazy swap compares it with what the engine carries.
    weights: WeightMatrix,
    enqueued: Instant,
}

/// What an admitted session's reader and its jobs in flight share: where
/// its replies go and where they are counted.
struct Session {
    tenant: String,
    writer: parking_lot::Mutex<TcpStream>,
    /// Blocks admitted and not yet answered.
    inflight: AtomicUsize,
    stats: SessionStats,
}

impl Session {
    /// Sends one reply.  A reply that cannot be written — the peer is gone,
    /// or took nothing for the socket's write time-out — is this session's
    /// error; [`send`] has then shut the socket down, which ends the session
    /// at its reader's next read, and the caller moves on.
    fn reply(&self, metrics: &FleetMetrics, msg: &ServerMsg) -> std::io::Result<()> {
        let sent = send(&mut self.writer.lock(), msg);
        sent.inspect_err(|_| self.record_error(metrics))
    }

    /// [`Session::reply`] of one typed `Error`.
    fn reply_error(
        &self,
        metrics: &FleetMetrics,
        seq: u64,
        code: u16,
        message: String,
    ) -> std::io::Result<()> {
        self.reply(metrics, &ServerMsg::Error { seq, code, message })
    }

    fn record_error(&self, metrics: &FleetMetrics) {
        self.stats.errors.fetch_add(1, Ordering::Relaxed);
        metrics.record_error(&self.tenant);
    }

    fn record_throttle(&self, metrics: &FleetMetrics) {
        self.stats.throttled.fetch_add(1, Ordering::Relaxed);
        metrics.record_throttle(&self.tenant);
    }
}

/// Per-session accounting, updated by the reader and the workers.
#[derive(Default)]
struct SessionStats {
    blocks: AtomicU64,
    throttled: AtomicU64,
    errors: AtomicU64,
    latency: parking_lot::Mutex<LatencyHistogram>,
    engine: parking_lot::Mutex<SessionReport>,
}

impl SessionStats {
    fn summary(&self) -> SessionSummary {
        let latency = *self.latency.lock();
        let engine = *self.engine.lock();
        SessionSummary {
            blocks: self.blocks.load(Ordering::Relaxed),
            throttled: self.throttled.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            p50_latency_s: latency.p50_s(),
            p95_latency_s: latency.p95_s(),
            p99_latency_s: latency.p99_s(),
            aggregate_tops: engine.aggregate_tops(),
            total_joules: engine.total_joules,
        }
    }
}

/// A deterministic token bucket: `rate` tokens per second, burst capacity
/// `ceil(rate)`, at least 1.
struct TokenBucket {
    tokens: f64,
    burst: f64,
    rate: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(rate: f64, now: Instant) -> Self {
        let burst = rate.ceil().max(1.0);
        TokenBucket {
            tokens: burst,
            burst,
            rate,
            last: now,
        }
    }

    fn try_take(&mut self, now: Instant) -> bool {
        let elapsed = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + elapsed * self.rate).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// State shared by the accept loop, readers, workers and the handle.
struct Shared {
    config: ServeConfig,
    pool: EnginePool,
    metrics: FleetMetrics,
    active_sessions: AtomicUsize,
    tenant_streams: parking_lot::Mutex<HashMap<String, usize>>,
    tenant_buckets: parking_lot::Mutex<HashMap<String, TokenBucket>>,
    next_session_id: AtomicU64,
    shutdown: AtomicBool,
    /// The write time-out of every accepted socket ([`REPLY_WRITE_TIMEOUT`];
    /// tests inject a shorter one).
    reply_timeout: Duration,
    /// What a frame has from its first byte to its last
    /// ([`FRAME_READ_TIMEOUT`]; tests inject a shorter one).
    frame_timeout: Duration,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The next frame of a connection, `None` once the peer has closed it
    /// between two frames; an error when the server is shutting down or the
    /// frame is overdue (`TimedOut`).
    fn read_frame(&self, reader: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
        read_frame_polling(reader, self.frame_timeout, || self.shutting_down())
    }
}

/// The running server: a bound listener plus its accept, reader and worker
/// threads.  Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    announcer: Option<JoinHandle<()>>,
    job_tx: Option<mpsc::SyncSender<Job>>,
}

/// Binds `addr`, builds the engine fleet from `config` and starts serving.
///
/// Engine construction happens here, once — admission never builds
/// engines, so a flood of connections cannot amplify into device work.
pub fn serve(addr: impl ToSocketAddrs, config: ServeConfig) -> tcbf::Result<ServerHandle> {
    serve_with_deadlines(addr, config, REPLY_WRITE_TIMEOUT, FRAME_READ_TIMEOUT)
}

/// [`serve`] with the two per-frame deadlines as parameters, so a test of a
/// client that stops reading, or of one that trickles a frame in, takes what
/// it injects and not [`REPLY_WRITE_TIMEOUT`] / [`FRAME_READ_TIMEOUT`].
fn serve_with_deadlines(
    addr: impl ToSocketAddrs,
    config: ServeConfig,
    reply_timeout: Duration,
    frame_timeout: Duration,
) -> tcbf::Result<ServerHandle> {
    let pool = config.build_pool()?;
    let listener = TcpListener::bind(addr).map_err(|e| TcbfError::InvalidParameters {
        reason: format!("cannot bind listener: {e}"),
    })?;
    let addr = listener
        .local_addr()
        .map_err(|e| TcbfError::InvalidParameters {
            reason: format!("cannot read bound address: {e}"),
        })?;

    let shared = Arc::new(Shared {
        pool,
        metrics: FleetMetrics::new(),
        active_sessions: AtomicUsize::new(0),
        tenant_streams: parking_lot::Mutex::new(HashMap::new()),
        tenant_buckets: parking_lot::Mutex::new(HashMap::new()),
        next_session_id: AtomicU64::new(1),
        shutdown: AtomicBool::new(false),
        reply_timeout,
        frame_timeout,
        config,
    });

    // The global job queue is bounded by what the sessions may have in
    // flight at once; `try_send` failure surfaces as `Throttled`.
    let capacity = shared.config.max_sessions * shared.config.queue_depth;
    let (job_tx, job_rx) = mpsc::sync_channel::<Job>(capacity);
    let job_rx = Arc::new(parking_lot::Mutex::new(job_rx));

    let workers = (0..shared.config.workers)
        .map(|_| {
            let shared = Arc::clone(&shared);
            let job_rx = Arc::clone(&job_rx);
            std::thread::spawn(move || worker_loop(&shared, &job_rx))
        })
        .collect();

    let accept_thread = {
        let shared = Arc::clone(&shared);
        let job_tx = job_tx.clone();
        std::thread::spawn(move || accept_loop(&shared, &listener, &job_tx))
    };

    Ok(ServerHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
        workers,
        announcer: None,
        job_tx: Some(job_tx),
    })
}

impl ServerHandle {
    /// The bound listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts announcing this worker over UDP per `beacon`; the first
    /// beacon is sent immediately.  Call at most once.
    pub fn announce(&mut self, beacon: BeaconConfig) {
        let shared = Arc::clone(&self.shared);
        let addr = self.addr;
        self.announcer = Some(std::thread::spawn(move || {
            while !shared.shutting_down() {
                // Beacons are best-effort: a transient send failure just
                // means one missed announcement.
                let _ = announce_once(&worker_info(&shared, addr), beacon.target);
                let deadline = Instant::now() + beacon.interval;
                while Instant::now() < deadline && !shared.shutting_down() {
                    std::thread::sleep(POLL_INTERVAL.min(beacon.interval));
                }
            }
        }));
    }

    /// The merged fleet report: every tenant's service-side statistics
    /// plus the engine fleet's performance report.
    pub fn fleet_report(&self) -> FleetReport {
        self.shared.metrics.fleet_report(
            self.shared.pool.merged_report(REPORT_DRAIN_TIMEOUT),
            self.shared.pool.health(),
        )
    }

    /// Sessions currently admitted.
    pub fn active_sessions(&self) -> usize {
        self.shared.active_sessions.load(Ordering::SeqCst)
    }

    /// Stops accepting, drains the threads and returns the final fleet
    /// report.
    pub fn shutdown(mut self) -> FleetReport {
        self.stop();
        self.fleet_report()
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.announcer.take() {
            let _ = handle.join();
        }
        // Readers exit on the shutdown flag (their reads poll it) and drop
        // their queue senders; dropping ours lets the workers' `recv` fail
        // once the queue is drained.
        self.job_tx.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("active_sessions", &self.active_sessions())
            .finish()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() || !self.workers.is_empty() {
            self.stop();
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener, job_tx: &mpsc::SyncSender<Job>) {
    for stream in listener.incoming() {
        if shared.shutting_down() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let job_tx = job_tx.clone();
        // One reader thread per connection; the count is bounded by the
        // admission check running *first* inside the handler (rejected
        // connections are answered and closed immediately).
        std::thread::spawn(move || {
            let _ = handle_connection(&shared, stream, &job_tx);
        });
    }
}

/// The discovery beacon payload of the worker listening on `addr`.
fn worker_info(shared: &Shared, addr: SocketAddr) -> WorkerInfo {
    let config = &shared.config;
    WorkerInfo {
        addr: addr.to_string(),
        gpus: config.gpus.iter().map(|g| g.name().to_owned()).collect(),
        precisions: config.precisions.clone(),
        engines_per_precision: config.engines_per_precision as u32,
        max_sessions: config.max_sessions as u32,
        active_sessions: shared.active_sessions.load(Ordering::SeqCst) as u32,
    }
}

/// Writes one server message.  After a failed write — a time-out may have
/// left half a frame behind — nothing more can be said on this connection:
/// it is shut down both ways, so the peer's and our own pending reads end.
fn send(stream: &mut TcpStream, msg: &ServerMsg) -> std::io::Result<()> {
    write_frame(stream, &msg.encode()).inspect_err(|_| {
        let _ = stream.shutdown(Shutdown::Both);
    })
}

/// Writes one typed `Error` reply that belongs to no block (`seq` is
/// `u64::MAX`).
fn send_error(stream: &mut TcpStream, code: u16, message: impl Into<String>) {
    let message = message.into();
    let seq = u64::MAX;
    // The connection is refused and closed either way.
    let _ = send(stream, &ServerMsg::Error { seq, code, message });
}

/// The per-connection reader: admission, then the frame loop.
fn handle_connection(
    shared: &Arc<Shared>,
    mut stream: TcpStream,
    job_tx: &mpsc::SyncSender<Job>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_write_timeout(Some(shared.reply_timeout))?;
    stream.set_nodelay(true)?;
    let mut reader = stream.try_clone()?;

    // --- Hello ---
    let Some(payload) = shared.read_frame(&mut reader)? else {
        return Ok(());
    };
    let hello = match ClientMsg::decode(&payload) {
        Ok(msg) => msg,
        Err(e) => {
            send_error(&mut stream, CODE_PROTOCOL, e.to_string());
            return Ok(());
        }
    };
    let ClientMsg::Hello {
        version,
        tenant,
        precision,
        receivers,
        samples_per_block,
    } = hello
    else {
        send_error(
            &mut stream,
            CODE_PROTOCOL,
            "the first message must be Hello",
        );
        return Ok(());
    };

    if version != PROTO_VERSION {
        let _ = send(
            &mut stream,
            &ServerMsg::Rejected {
                reason: RejectReason::VersionMismatch {
                    server: PROTO_VERSION,
                    client: version,
                },
            },
        );
        return Ok(());
    }
    let config = &shared.config;
    if !shared.pool.serves(precision) {
        let err = TcbfError::UnsupportedPrecision {
            device: "this server".into(),
            precision: precision.to_string(),
        };
        send_error(
            &mut stream,
            err.code(),
            format!(
                "{err}: the menu is [{}]",
                config
                    .precisions
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
        return Ok(());
    }
    if receivers as usize != config.receivers()
        || samples_per_block as usize != config.samples_per_block
    {
        let err = TcbfError::ShapeMismatch {
            expected: format!(
                "{} receivers x {} samples per block",
                config.receivers(),
                config.samples_per_block
            ),
            actual: format!("{receivers} receivers x {samples_per_block} samples per block"),
        };
        send_error(&mut stream, err.code(), err.to_string());
        return Ok(());
    }

    // --- Admission ---
    // Degraded admission: losing engines to quarantine shrinks the
    // session ceiling proportionally (ceiling division, so a pool that
    // is merely dented still admits someone; a fully-dead pool admits
    // nobody).  Already-admitted sessions are never evicted — the
    // tighter ceiling only gates new arrivals.
    let health = shared.pool.health();
    let effective_max = if health.healthy == 0 {
        0
    } else {
        (config.max_sessions * health.healthy).div_ceil(health.total)
    };
    let admitted = shared
        .active_sessions
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |active| {
            (active < effective_max).then_some(active + 1)
        })
        .is_ok();
    if !admitted {
        let _ = send(
            &mut stream,
            &ServerMsg::Rejected {
                reason: RejectReason::ServerFull {
                    active: shared.active_sessions.load(Ordering::SeqCst) as u32,
                    max: effective_max as u32,
                },
            },
        );
        return Ok(());
    }
    {
        let mut streams = shared.tenant_streams.lock();
        let count = streams.entry(tenant.clone()).or_insert(0);
        if *count >= config.tenant_max_streams {
            drop(streams);
            shared.active_sessions.fetch_sub(1, Ordering::SeqCst);
            let _ = send(
                &mut stream,
                &ServerMsg::Rejected {
                    reason: RejectReason::TenantQuota {
                        max: config.tenant_max_streams as u32,
                    },
                },
            );
            return Ok(());
        }
        *count += 1;
    }

    let session_id = shared.next_session_id.fetch_add(1, Ordering::SeqCst);
    shared.metrics.record_session(&tenant);
    let session = Arc::new(Session {
        tenant,
        writer: parking_lot::Mutex::new(stream),
        inflight: AtomicUsize::new(0),
        stats: SessionStats::default(),
    });
    let result = serve_session(shared, &mut reader, &session, job_tx, session_id, precision);

    // --- Teardown (also on error paths) ---
    shared.active_sessions.fetch_sub(1, Ordering::SeqCst);
    let mut streams = shared.tenant_streams.lock();
    if let Some(count) = streams.get_mut(&session.tenant) {
        *count -= 1;
        if *count == 0 {
            streams.remove(&session.tenant);
        }
    }
    result
}

/// The admitted frame loop: blocks, swaps, finish.
fn serve_session(
    shared: &Arc<Shared>,
    reader: &mut TcpStream,
    session: &Arc<Session>,
    job_tx: &mpsc::SyncSender<Job>,
    session_id: u64,
    precision: Precision,
) -> std::io::Result<()> {
    let config = &shared.config;
    let metrics = &shared.metrics;
    let mut weights = shared.pool.weights().clone();

    session.reply(
        metrics,
        &ServerMsg::Welcome {
            session_id,
            beams: config.beams() as u32,
            queue_depth: config.queue_depth as u32,
        },
    )?;

    loop {
        // A frame that trickles in past its deadline is this session's error
        // and its last: half a frame cannot be skipped, so the socket goes
        // down both ways (and the replies still in flight fail at once).
        let frame = shared.read_frame(reader).inspect_err(|e| {
            if e.kind() == std::io::ErrorKind::TimedOut {
                session.record_error(metrics);
                let _ = session.writer.lock().shutdown(Shutdown::Both);
            }
        });
        let Some(payload) = frame? else {
            // Client hung up without Finish: drain what is in flight so no
            // worker writes into a torn-down session.
            wait_for_drain(&session.inflight, shared);
            return Ok(());
        };
        let msg = match ClientMsg::decode(&payload) {
            Ok(msg) => msg,
            Err(e) => {
                session.reply_error(metrics, u64::MAX, CODE_PROTOCOL, e.to_string())?;
                continue;
            }
        };
        match msg {
            ClientMsg::Hello { .. } => {
                let message = "Hello is only valid once, at session start";
                session.reply_error(metrics, u64::MAX, CODE_PROTOCOL, message.into())?;
            }
            ClientMsg::Block { seq, samples } => {
                if samples.rows() != config.receivers()
                    || samples.cols() != config.samples_per_block
                {
                    let err = TcbfError::ShapeMismatch {
                        expected: format!(
                            "{} x {} sample block",
                            config.receivers(),
                            config.samples_per_block
                        ),
                        actual: format!("{} x {}", samples.rows(), samples.cols()),
                    };
                    session.record_error(metrics);
                    session.reply_error(metrics, seq, err.code(), err.to_string())?;
                    continue;
                }
                if let Some(reason) = admit_block(shared, session) {
                    session.record_throttle(metrics);
                    session.reply(metrics, &ServerMsg::Throttled { seq, reason })?;
                    continue;
                }
                let job = Job {
                    session: Arc::clone(session),
                    precision,
                    seq,
                    samples,
                    weights: weights.clone(),
                    enqueued: Instant::now(),
                };
                if job_tx.try_send(job).is_err() {
                    // The global queue is saturated (or shutting down):
                    // undo the admission and push back.
                    session.inflight.fetch_sub(1, Ordering::SeqCst);
                    session.record_throttle(metrics);
                    let reason = ThrottleReason::QueueFull;
                    session.reply(metrics, &ServerMsg::Throttled { seq, reason })?;
                }
            }
            ClientMsg::SwapWeights {
                seq,
                weights: matrix,
            } => {
                if matrix.rows() != config.beams() || matrix.cols() != config.receivers() {
                    let err = TcbfError::ShapeMismatch {
                        expected: format!(
                            "{} beams x {} receivers weight matrix",
                            config.beams(),
                            config.receivers()
                        ),
                        actual: format!("{} x {}", matrix.rows(), matrix.cols()),
                    };
                    session.record_error(metrics);
                    session.reply_error(metrics, seq, err.code(), err.to_string())?;
                    continue;
                }
                // Blocks already enqueued carry a handle on the old
                // weights, so the swap is effective exactly from the next
                // block — no drain required.
                weights = WeightMatrix::from_matrix(matrix);
                session.reply(metrics, &ServerMsg::SwapOk { seq })?;
            }
            ClientMsg::Finish => {
                wait_for_drain(&session.inflight, shared);
                let summary = session.stats.summary();
                session.reply(metrics, &ServerMsg::Goodbye { summary })?;
                let _ = session.writer.lock().shutdown(Shutdown::Both);
                return Ok(());
            }
        }
    }
}

/// Admission of one block: per-tenant rate quota, then the session's
/// queue-depth bound.  `None` admits (and counts the block in flight);
/// `Some(reason)` refuses.
fn admit_block(shared: &Shared, session: &Session) -> Option<ThrottleReason> {
    if let Some(rate) = shared.config.tenant_blocks_per_sec {
        let now = Instant::now();
        let mut buckets = shared.tenant_buckets.lock();
        let bucket = buckets
            .entry(session.tenant.clone())
            .or_insert_with(|| TokenBucket::new(rate, now));
        if !bucket.try_take(now) {
            return Some(RateLimited);
        }
    }
    let admitted = session
        .inflight
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < shared.config.queue_depth).then_some(n + 1)
        })
        .is_ok();
    if admitted {
        None
    } else {
        Some(QueueFull)
    }
}

/// Spins (politely) until the session has no blocks in flight.
fn wait_for_drain(inflight: &AtomicUsize, shared: &Shared) {
    while inflight.load(Ordering::SeqCst) > 0 && !shared.shutting_down() {
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Runs one job on a healthy engine, failing over on engine faults.
///
/// A job is the serve-side replay unit: it carries everything needed to
/// re-execute its block — the samples and a handle on the session's weights
/// — so a fault needs no other state: when the checked-out engine faults,
/// the slot is quarantined (permanent) or returned (transient) and the
/// job simply replays on the next healthy engine.  The client never sees
/// these faults; it only ever sees the block's final result.  Returns
/// [`TcbfError::Degraded`] once no healthy engine remains.
fn run_job(shared: &Shared, job: &Job) -> tcbf::Result<beamform::BeamformOutput> {
    // Every replay consumes either a permanent fault (quarantining one of
    // the fleet's engines) or a one-shot transient fault, so attempts are
    // bounded; the cap is a backstop against misconfigured injectors.
    let fleet = shared.pool.fleet_health(job.precision)?.total;
    let max_attempts = 2 * fleet + 2;
    for _ in 0..max_attempts {
        let mut slot = shared.pool.checkout(job.precision)?;
        // Injected faults surface at checkout time: the engine refuses
        // the job before touching the samples.
        if let Some(injector) = shared.pool.injector() {
            if let gpu_sim::BlockVerdict::Fail(fault) = injector.on_block(slot.slot_id) {
                if fault.permanent {
                    shared.pool.quarantine(job.precision, slot)?;
                } else {
                    shared.pool.check_in(job.precision, slot)?;
                }
                shared.metrics.record_recovery(&job.session.tenant);
                continue;
            }
        }
        // The two zeros are `ensure_weights`' dead parameters.
        let result = slot
            .ensure_weights(0, 0, &job.weights)
            .and_then(|()| slot.engine.process_block(&job.samples));
        match result {
            // The engine lost its last device mid-block (a real fault
            // from the beamform layer, not the serve-level injector):
            // same treatment, quarantine and replay elsewhere.
            Err(TcbfError::DeviceLost {
                permanent: true, ..
            }) => {
                shared.pool.quarantine(job.precision, slot)?;
                shared.metrics.record_recovery(&job.session.tenant);
                continue;
            }
            other => {
                shared.pool.check_in(job.precision, slot)?;
                return other;
            }
        }
    }
    Err(TcbfError::Degraded {
        healthy: shared.pool.fleet_health(job.precision)?.healthy,
        total: fleet,
    })
}

/// The worker loop: pull a job, check an engine out, lazily swap weights,
/// beamform (failing over on engine faults), reply, account.
fn worker_loop(shared: &Arc<Shared>, job_rx: &Arc<parking_lot::Mutex<mpsc::Receiver<Job>>>) {
    loop {
        // Hold the receiver lock only while pulling one job.
        let job = match job_rx.lock().recv() {
            Ok(job) => job,
            Err(_) => return, // all senders gone: shutdown
        };
        let session = &job.session;
        // A reply that cannot be delivered has been counted and has ended
        // its session by the time `reply` returns: the worker's part is to
        // carry on with the next job.
        let _ = match run_job(shared, &job) {
            Ok(output) => {
                let latency_s = job.enqueued.elapsed().as_secs_f64();
                let completed_at = Instant::now();
                session.stats.blocks.fetch_add(1, Ordering::Relaxed);
                session.stats.latency.lock().record_s(latency_s);
                {
                    let shape = tcbf_types::GemmShape::new(
                        shared.config.beams(),
                        shared.config.samples_per_block,
                        shared.config.receivers(),
                    );
                    session.stats.engine.lock().record(
                        &output.report,
                        shape.complex_ops() as f64,
                        1,
                    );
                }
                shared
                    .metrics
                    .record_block(&session.tenant, latency_s, completed_at);
                session.reply(
                    &shared.metrics,
                    &ServerMsg::Beams {
                        seq: job.seq,
                        beams: output.beams,
                        latency_s,
                    },
                )
            }
            Err(err) => {
                session.record_error(&shared.metrics);
                session.reply_error(&shared.metrics, job.seq, err.code(), err.to_string())
            }
        };
        session.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ServeConfig;

    #[test]
    fn token_bucket_enforces_rate_with_burst() {
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(2.0, t0);
        // Burst of ceil(2) = 2 passes immediately, the third is refused.
        assert!(bucket.try_take(t0));
        assert!(bucket.try_take(t0));
        assert!(!bucket.try_take(t0));
        // Half a second refills one token at 2/s.
        assert!(bucket.try_take(t0 + Duration::from_millis(500)));
        assert!(!bucket.try_take(t0 + Duration::from_millis(500)));
    }

    // Small requests, large replies (16 KiB up, 2 MiB down): a handful of
    // served blocks overflows both socket buffers of a peer that never reads.
    const RECEIVERS: usize = 2;
    const SAMPLES: usize = 1024;

    fn hostile_test_config() -> ServeConfig {
        let mut config = ServeConfig::example(256, RECEIVERS, SAMPLES);
        config.precisions = vec![Precision::Float16];
        config
    }

    fn block(seed: usize) -> ccglib::matrix::HostComplexMatrix {
        ccglib::matrix::HostComplexMatrix::from_fn(RECEIVERS, SAMPLES, |r, s| {
            tcbf_types::Complex::new((seed + r + s) as f32 * 0.01, (seed * 3 + s) as f32 * -0.02)
        })
    }

    /// A raw connection that has said `Hello` as `tenant` and nothing else.
    fn raw_session(addr: SocketAddr, tenant: &str) -> TcpStream {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let hello = ClientMsg::Hello {
            version: PROTO_VERSION,
            tenant: tenant.into(),
            precision: Precision::Float16,
            receivers: RECEIVERS as u32,
            samples_per_block: SAMPLES as u32,
        };
        write_frame(&mut stream, &hello.encode()).expect("hello");
        stream
    }

    /// A tenant that behaves, next to a hostile one: streams three blocks
    /// over and over until `hostile_is_done`, and once more after it — every
    /// time bit-identical to a direct engine — then finishes without an error.
    fn stream_beside(addr: SocketAddr, config: &ServeConfig, hostile_is_done: impl Fn() -> bool) {
        let mut direct = tcbf::BeamformerBuilder::new(gpu_sim::Gpu::A100)
            .weights(config.weights.clone())
            .samples_per_block(SAMPLES)
            .precision(Precision::Float16)
            .build_engine()
            .expect("direct engine");
        let blocks: Vec<_> = (1..4).map(block).collect();
        let refs: Vec<_> = blocks.iter().collect();
        let expected: Vec<_> = direct
            .process_batch(&refs)
            .expect("direct run")
            .into_iter()
            .map(|output| output.beams)
            .collect();
        let mut tenant =
            crate::client::Client::connect(addr, "tenant", Precision::Float16, RECEIVERS, SAMPLES)
                .expect("tenant connects");
        let mut over = false;
        while !over {
            over = hostile_is_done();
            assert_eq!(
                tenant.stream_blocks(&blocks).expect("tenant streams"),
                expected
            );
        }
        let summary = tenant.finish().expect("tenant finishes");
        assert_eq!(summary.errors, 0);
    }

    /// `shutdown()` on a thread of its own: its report, or a failure when it
    /// is still waiting for the hostile peer after 30 s.
    fn shutdown_returns(handle: ServerHandle) -> FleetReport {
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = done_tx.send(handle.shutdown());
        });
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("shutdown() must not wait for a hostile peer")
    }

    fn errors_of(report: &FleetReport, tenant: &str) -> u64 {
        let found = report.tenants.iter().find(|t| t.tenant == tenant);
        found.expect("tenant in the report").errors
    }

    /// ROADMAP 7(b), write side.  Without the reply deadline the worker that
    /// writes the stalled session's `Beams` blocks for ever: the raw client's
    /// own write times out and `shutdown()` never returns.
    #[test]
    fn a_client_that_stops_reading_cannot_pin_a_worker_or_hang_shutdown() {
        use std::io::ErrorKind;

        let config = hostile_test_config();
        let reply_timeout = Duration::from_millis(300);
        let handle = serve_with_deadlines(
            "127.0.0.1:0",
            config.clone(),
            reply_timeout,
            FRAME_READ_TIMEOUT,
        )
        .expect("server starts");
        let addr = handle.addr();

        // `Hello`, then blocks for as long as the server takes them — and
        // never a read.  It ends when the server gives the session up; the
        // socket stays open until the test is over.
        let stalled = std::thread::spawn(move || {
            let mut stream = raw_session(addr, "stalled");
            stream
                .set_write_timeout(Some(Duration::from_secs(20)))
                .expect("write time-out");
            let samples = block(0);
            let mut seq = 0;
            loop {
                match write_frame(&mut stream, &ClientMsg::encode_block(seq, &samples)) {
                    Ok(()) => seq += 1,
                    Err(e) => return (stream, e.kind()),
                }
            }
        });

        stream_beside(addr, &config, || stalled.is_finished());
        let (_socket, ended_by) = stalled.join().expect("stalled client thread");
        assert!(
            !matches!(ended_by, ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "the server must hang up on the stalled session, not stop reading from it"
        );

        // `shutdown()` returns, and its report names the stalled session's
        // undeliverable replies as that tenant's errors.
        let report = shutdown_returns(handle);
        assert!(
            errors_of(&report, "stalled") >= 1,
            "{:?}",
            report.tenant_lines()
        );
        assert_eq!(errors_of(&report, "tenant"), 0);
    }

    /// ROADMAP 7(b), read side.  Without the frame deadline a sender that
    /// stays under the poll interval is never asked anything: its reader
    /// thread, its session slot and its socket outlive `shutdown()`.
    #[test]
    fn a_client_that_trickles_a_frame_in_is_given_up_on_at_the_frame_deadline() {
        use std::io::Write;

        let config = hostile_test_config();
        let frame_timeout = Duration::from_millis(200);
        let handle = serve_with_deadlines(
            "127.0.0.1:0",
            config.clone(),
            REPLY_WRITE_TIMEOUT,
            frame_timeout,
        )
        .expect("server starts");
        let addr = handle.addr();

        // `Hello`, a `Block`'s length prefix, then its payload at a byte per
        // 10 ms: 160 s for the frame, were the server to wait for it.  Ends
        // with the error the torn-down socket answers a write with, or after
        // 10 s of being listened to.
        let slow = std::thread::spawn(move || {
            let mut stream = raw_session(addr, "slow");
            let payload = ClientMsg::encode_block(0, &block(0));
            let prefix = (payload.len() as u32).to_le_bytes();
            let mut ended_by = stream.write_all(&prefix).err();
            for byte in payload.chunks(1).take(1_000) {
                if ended_by.is_some() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
                ended_by = stream.write_all(byte).err();
            }
            (stream, ended_by)
        });

        stream_beside(addr, &config, || slow.is_finished());
        let (_socket, ended_by) = slow.join().expect("slow client thread");
        assert!(ended_by.is_some(), "the server listened for 10 s");

        // The session's slot is free again (its reader is past the teardown
        // by the time the tenant has finished a round trip; wait anyway).
        let freed = Instant::now();
        while handle.active_sessions() > 0 && freed.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(handle.active_sessions(), 0);
        let report = shutdown_returns(handle);
        assert_eq!(errors_of(&report, "slow"), 1, "{:?}", report.tenant_lines());
        assert_eq!(errors_of(&report, "tenant"), 0);
    }

    #[test]
    fn server_binds_and_reports_its_worker_info() {
        let mut config = ServeConfig::example(4, 16, 32);
        config.engines_per_precision = 1;
        config.workers = 1;
        let handle = serve("127.0.0.1:0", config).unwrap();
        let info = worker_info(&handle.shared, handle.addr);
        assert_eq!(info.addr, handle.addr().to_string());
        assert_eq!(info.gpus, vec!["A100".to_owned()]);
        assert_eq!(info.active_sessions, 0);
        assert_eq!(info.precisions.len(), 2);
        let report = handle.shutdown();
        assert_eq!(report.total_blocks(), 0);
    }
}
