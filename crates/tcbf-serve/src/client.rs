//! A blocking client for the serve protocol.
//!
//! [`Client::connect`] performs the `Hello`/`Welcome` handshake,
//! [`Client::stream_blocks`] pipelines sample blocks up to the session's
//! advertised queue depth (transparently retrying `Throttled` refusals
//! with capped exponential backoff and deterministic jitter — see
//! `retry_backoff`), [`Client::swap_weights`] hot-swaps the session's
//! beam weights and [`Client::finish`] closes the session and returns the
//! server's [`SessionSummary`].  Outputs come back in input order
//! regardless of how server workers interleave, re-ordered by sequence
//! number client side.

use crate::wire::{
    read_frame_polling, write_frame, ClientMsg, RejectReason, ServerMsg, SessionSummary,
    PROTO_VERSION,
};
use ccglib::matrix::{F16Matrix, HostComplexMatrix};
use ccglib::Precision;
use gpu_sim::fault::splitmix64;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// How long the client waits for any single server reply.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);
/// Socket read timeout, used as the polling interval for the deadline.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// First-retry nominal backoff in microseconds (2 ms); doubles per
/// attempt up to [`BACKOFF_CAP_SHIFT`] doublings (256 ms).
const BACKOFF_BASE_US: u64 = 2_000;
/// Maximum number of doublings of [`BACKOFF_BASE_US`].
const BACKOFF_CAP_SHIFT: u32 = 7;

/// The backoff before retry number `attempt` (0-based) of one logical
/// operation: capped exponential with deterministic jitter.
///
/// The nominal delay is `2 ms << min(attempt, 7)` — 2 ms, 4 ms, … capped
/// at 256 ms — and the returned delay lands in `[0.75, 1.25)` of nominal,
/// positioned by hashing `key` and `attempt` (splitmix64).  Same `(attempt,
/// key)` in, same delay out: retry schedules are reproducible, while
/// distinct keys (sessions, block indices) spread their retries instead of
/// stampeding the server in lockstep.
pub(crate) fn retry_backoff(attempt: u32, key: u64) -> Duration {
    let nominal = BACKOFF_BASE_US << attempt.min(BACKOFF_CAP_SHIFT);
    let hash = splitmix64(key ^ ((u64::from(attempt) << 32) | 0x9e37_79b9));
    let jitter = hash % (nominal / 2).max(1);
    Duration::from_micros(nominal - nominal / 4 + jitter)
}

/// Everything that can go wrong on the client side of a session.
#[derive(Debug)]
pub enum ServeError {
    /// The transport failed (connect, read, write, timeout).
    Io(std::io::Error),
    /// The server refused the session at `Hello` time.
    Rejected(RejectReason),
    /// The server reported a typed failure; `code` round-trips
    /// [`tcbf::TcbfError::code`].
    Remote {
        /// The stable numeric error code.
        code: u16,
        /// The server's human-readable description.
        message: String,
    },
    /// The peer violated the protocol (unexpected or malformed message).
    Protocol(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "transport error: {e}"),
            ServeError::Rejected(reason) => write!(f, "session rejected: {reason}"),
            ServeError::Remote { code, message } => {
                write!(f, "remote error {code}: {message}")
            }
            ServeError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// A blocking session with a serving worker.
#[derive(Debug)]
pub struct Client {
    reader: TcpStream,
    writer: TcpStream,
    precision: Precision,
    session_id: u64,
    beams: u32,
    queue_depth: u32,
    window: usize,
    next_seq: u64,
    throttle_retries: u64,
}

impl Client {
    /// Connects, handshakes and returns an admitted session.
    ///
    /// `receivers`/`samples_per_block` declare the block shape this
    /// session will stream; the server validates them against its
    /// configuration up front so shape errors surface here, not mid-stream.
    pub fn connect(
        addr: impl ToSocketAddrs,
        tenant: &str,
        precision: Precision,
        receivers: usize,
        samples_per_block: usize,
    ) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(POLL_INTERVAL))?;
        let reader = stream.try_clone()?;
        let mut client = Client {
            reader,
            writer: stream,
            precision,
            session_id: 0,
            beams: 0,
            queue_depth: 0,
            window: 0,
            next_seq: 0,
            throttle_retries: 0,
        };
        let hello = ClientMsg::Hello {
            version: PROTO_VERSION,
            tenant: tenant.to_owned(),
            precision,
            receivers: receivers as u32,
            samples_per_block: samples_per_block as u32,
        };
        client.send(&hello.encode())?;
        match client.recv()? {
            ServerMsg::Welcome {
                session_id,
                beams,
                queue_depth,
            } => {
                client.session_id = session_id;
                client.beams = beams;
                client.queue_depth = queue_depth;
                client.window = (queue_depth as usize).clamp(1, 8);
                Ok(client)
            }
            ServerMsg::Rejected { reason } => Err(ServeError::Rejected(reason)),
            ServerMsg::Error { code, message, .. } => Err(ServeError::Remote { code, message }),
            other => Err(ServeError::Protocol(format!(
                "expected Welcome, got {other:?}"
            ))),
        }
    }

    /// Beams per output block, from the server's `Welcome`.
    pub fn beams(&self) -> usize {
        self.beams as usize
    }

    /// The session's queue depth, from the server's `Welcome`.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth as usize
    }

    /// Overrides the pipelining window (clamped to at least 1).  A window
    /// larger than the queue depth deliberately provokes `Throttled`
    /// refusals — useful for testing backpressure.
    pub fn set_window(&mut self, window: usize) {
        self.window = window.max(1);
    }

    /// Throttled refusals retried so far (both queue-full and
    /// rate-limited).  Backpressure is invisible in the outputs — every
    /// refused block is retried until accepted — so this counter is how
    /// callers observe it.
    pub fn throttle_retries(&self) -> u64 {
        self.throttle_retries
    }

    /// Streams `blocks` through the session, pipelined up to the window,
    /// and returns the beamformed outputs **in input order**.
    ///
    /// Each block is encoded once — an f16 one as its binary16 operand, an
    /// int1 one as its samples — and a refused one re-sent as it is.
    ///
    /// `Throttled` refusals are retried until accepted under the
    /// `retry_backoff` schedule — capped exponential per block, with
    /// jitter keyed by session id and block index so pipelined retries
    /// spread out instead of hammering the server in phase.  A block that
    /// is eventually accepted resets nothing: its attempt count keeps
    /// growing until the server takes it.  Typed server errors abort the
    /// stream.
    pub fn stream_blocks(
        &mut self,
        blocks: &[HostComplexMatrix],
    ) -> Result<Vec<HostComplexMatrix>, ServeError> {
        let mut results: Vec<Option<HostComplexMatrix>> = vec![None; blocks.len()];
        // (seq, index into `blocks`, payload) of the requests in flight.
        let mut pending: Vec<(u64, usize, Vec<u8>)> = Vec::new();
        // Per-block throttle count, driving that block's backoff schedule.
        let mut attempts: Vec<u32> = vec![0; blocks.len()];
        let mut next_block = 0usize;
        let mut done = 0usize;

        while done < blocks.len() {
            // Fill the window.
            while pending.len() < self.window && next_block < blocks.len() {
                let samples = blocks.get(next_block).ok_or_else(|| {
                    ServeError::Protocol(format!("block {next_block} out of range"))
                })?;
                let (seq, payload) = self.encode_block(samples);
                self.send(&payload)?;
                pending.push((seq, next_block, payload));
                next_block += 1;
            }
            match self.recv()? {
                ServerMsg::Beams { seq, beams, .. } => {
                    let slot = pending
                        .iter()
                        .position(|&(s, ..)| s == seq)
                        .ok_or_else(|| ServeError::Protocol(format!("unknown seq {seq}")))?;
                    let (_, index, _) = pending.swap_remove(slot);
                    *results.get_mut(index).ok_or_else(|| {
                        ServeError::Protocol(format!("result slot {index} out of range"))
                    })? = Some(beams);
                    done += 1;
                }
                ServerMsg::Throttled { seq, .. } => {
                    // Refused, not failed: back off and re-send that block's
                    // payload as it is.
                    let slot = pending
                        .iter()
                        .position(|&(s, ..)| s == seq)
                        .ok_or_else(|| ServeError::Protocol(format!("unknown seq {seq}")))?;
                    let (_, index, payload) = pending.swap_remove(slot);
                    self.throttle_retries += 1;
                    std::thread::sleep(retry_backoff(
                        attempts.get(index).copied().unwrap_or(0),
                        self.session_id ^ index as u64,
                    ));
                    if let Some(count) = attempts.get_mut(index) {
                        *count = count.saturating_add(1);
                    }
                    self.send(&payload)?;
                    pending.push((seq, index, payload));
                }
                ServerMsg::Error { code, message, .. } => {
                    return Err(ServeError::Remote { code, message });
                }
                other => {
                    return Err(ServeError::Protocol(format!(
                        "expected Beams/Throttled, got {other:?}"
                    )));
                }
            }
        }
        results
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.ok_or_else(|| {
                    ServeError::Protocol(format!("stream finished but block {i} has no output"))
                })
            })
            .collect()
    }

    /// Hot-swaps the session's beam weights; blocks streamed afterwards
    /// use the new weights.
    pub fn swap_weights(&mut self, weights: &HostComplexMatrix) -> Result<(), ServeError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.send(&ClientMsg::encode_swap_weights(seq, weights))?;
        match self.recv()? {
            ServerMsg::SwapOk { .. } => Ok(()),
            ServerMsg::Error { code, message, .. } => Err(ServeError::Remote { code, message }),
            other => Err(ServeError::Protocol(format!(
                "expected SwapOk, got {other:?}"
            ))),
        }
    }

    /// Ends the session cleanly and returns the server's summary.
    pub fn finish(mut self) -> Result<SessionSummary, ServeError> {
        self.send(&ClientMsg::Finish.encode())?;
        match self.recv()? {
            ServerMsg::Goodbye { summary } => Ok(summary),
            ServerMsg::Error { code, message, .. } => Err(ServeError::Remote { code, message }),
            other => Err(ServeError::Protocol(format!(
                "expected Goodbye, got {other:?}"
            ))),
        }
    }

    /// The next sequence number and the payload of the caller's block under
    /// it: an f16 block's planes as its quantised `transposed()` view stores
    /// them (`F16Matrix::from_host` of the view is `GemmInput::quantise_f16`
    /// of it, the engine's quantiser), any other block's samples.
    fn encode_block(&mut self, samples: &HostComplexMatrix) -> (u64, Vec<u8>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let payload = match self.precision {
            Precision::Float16 => {
                let planes = F16Matrix::from_host(&samples.transposed()).transposed();
                ClientMsg::encode_operand(seq, &planes)
            }
            Precision::Int1 | Precision::Float32Reference => ClientMsg::encode_block(seq, samples),
        };
        (seq, payload)
    }

    fn send(&mut self, payload: &[u8]) -> Result<(), ServeError> {
        write_frame(&mut self.writer, payload)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<ServerMsg, ServeError> {
        let deadline = Instant::now() + RESPONSE_TIMEOUT;
        match read_frame_polling(&mut self.reader, RESPONSE_TIMEOUT, || {
            Instant::now() >= deadline
        }) {
            Ok(Some(payload)) => {
                ServerMsg::decode(&payload).map_err(|e| ServeError::Protocol(e.to_string()))
            }
            Ok(None) => Err(ServeError::Protocol(
                "server closed the connection".to_owned(),
            )),
            Err(e) => Err(ServeError::Io(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_per_attempt_and_key() {
        for attempt in 0..12 {
            for key in [0u64, 1, 42, u64::MAX] {
                assert_eq!(
                    retry_backoff(attempt, key),
                    retry_backoff(attempt, key),
                    "same (attempt, key) must give the same delay"
                );
            }
        }
        // Distinct keys de-phase: at least one attempt must differ.
        assert!(
            (0..12).any(|a| retry_backoff(a, 1) != retry_backoff(a, 2)),
            "jitter must depend on the key"
        );
    }

    #[test]
    fn backoff_doubles_until_the_cap() {
        // The jittered delay lands in [0.75, 1.25) of nominal, so the
        // schedule's growth is visible through the bounds.
        for attempt in 0..16u32 {
            let nominal = BACKOFF_BASE_US << attempt.min(BACKOFF_CAP_SHIFT);
            for key in [7u64, 1234, 99_999] {
                let us = retry_backoff(attempt, key).as_micros() as u64;
                assert!(
                    us >= nominal - nominal / 4 && us < nominal + nominal / 4,
                    "attempt {attempt} key {key}: {us} µs outside \
                     [0.75, 1.25) of {nominal} µs"
                );
            }
        }
        // Capped: attempts past the shift limit share the same nominal.
        let cap = BACKOFF_BASE_US << BACKOFF_CAP_SHIFT;
        assert_eq!(cap, 256_000, "cap is 256 ms");
        let deep = retry_backoff(40, 5).as_micros() as u64;
        assert!(deep < cap + cap / 4, "backoff must not grow past the cap");
    }

    #[test]
    fn backoff_lower_bound_keeps_retries_from_spinning() {
        // Even attempt 0 with the most favourable jitter waits >= 1.5 ms.
        for key in 0..64u64 {
            assert!(retry_backoff(0, key) >= Duration::from_micros(1_500));
        }
    }
}
