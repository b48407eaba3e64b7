//! The length-prefixed binary wire protocol.
//!
//! Every message travels as one *frame*: a little-endian `u32` payload
//! length followed by the payload, whose first byte is the message tag.
//! All integers are little-endian, strings are a `u32` length plus UTF-8
//! bytes, and matrices are `rows`/`cols` (`u32` each) plus row-major
//! interleaved `f32` re/im pairs — `f32` bits survive the trip unchanged,
//! which is what makes server-mediated output *bit-identical* to local
//! execution.  An f16 block may travel as its binary16 operand instead.
//!
//! The full frame layout is documented in `docs/PROTOCOL.md`; the
//! round-trip tests at the bottom of this module are the executable
//! version of that document.

use ccglib::matrix::{F16Matrix, HostComplexMatrix};
use ccglib::Precision;
use std::io::{Read, Write};
use std::time::{Duration, Instant};
use tcbf_types::{f16, Complex};

/// Protocol version sent in [`ClientMsg::Hello`] and checked by the
/// server.
pub const PROTO_VERSION: u16 = 2;

/// Upper bound on a frame payload (64 MiB): a decoder must reject larger
/// length prefixes instead of allocating unbounded memory on garbage
/// input.
pub(crate) const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Error code for malformed frames or protocol misuse, distinct from every
/// [`tcbf::TcbfError::code`] (those start at 1 and stay below 1000).
pub(crate) const CODE_PROTOCOL: u16 = 1000;

/// Why the server refused to accept a new session at `Hello` time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The server is at its session capacity.
    ServerFull {
        /// Sessions currently admitted.
        active: u32,
        /// The configured cap.
        max: u32,
    },
    /// The tenant is at its concurrent-stream quota.
    TenantQuota {
        /// The tenant's configured cap.
        max: u32,
    },
    /// The client speaks a different protocol version.
    VersionMismatch {
        /// The server's version.
        server: u16,
        /// The client's version.
        client: u16,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::ServerFull { active, max } => {
                write!(f, "server full: {active}/{max} sessions active")
            }
            RejectReason::TenantQuota { max } => {
                write!(f, "tenant stream quota reached: {max} concurrent streams")
            }
            RejectReason::VersionMismatch { server, client } => {
                write!(
                    f,
                    "protocol version mismatch: server v{server}, client v{client}"
                )
            }
        }
    }
}

/// Why a block was refused instead of queued (backpressure, not failure:
/// the client may retry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThrottleReason {
    /// The session's bounded queue is full.
    QueueFull,
    /// The tenant exceeded its blocks-per-second rate quota.
    RateLimited,
}

impl std::fmt::Display for ThrottleReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThrottleReason::QueueFull => write!(f, "session queue full"),
            ThrottleReason::RateLimited => write!(f, "tenant rate quota exceeded"),
        }
    }
}

/// End-of-session summary carried by [`ServerMsg::Goodbye`]: what the
/// server observed for this session, latency measured wall-clock from
/// block admission to reply.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SessionSummary {
    /// Blocks beamformed for this session.
    pub blocks: u64,
    /// Blocks refused with [`ServerMsg::Throttled`].
    pub throttled: u64,
    /// Blocks that failed with [`ServerMsg::Error`].
    pub errors: u64,
    /// Median block latency in seconds (admission to reply).
    pub p50_latency_s: f64,
    /// 95th-percentile block latency in seconds.
    pub p95_latency_s: f64,
    /// 99th-percentile block latency in seconds.
    pub p99_latency_s: f64,
    /// Aggregate engine throughput over the session in TeraOps/s.
    pub aggregate_tops: f64,
    /// Total simulated device energy in joules.
    pub total_joules: f64,
}

/// Messages flowing client → server.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientMsg {
    /// Opens a session: who is calling and what stream shape it will send.
    Hello {
        /// Protocol version ([`PROTO_VERSION`]).
        version: u16,
        /// Tenant identifier used for quotas and per-tenant metrics.
        tenant: String,
        /// Requested precision (must be on the server's menu).
        precision: Precision,
        /// Receivers per block (`K` of the GEMM).
        receivers: u32,
        /// Time samples per block (`N` of the GEMM).
        samples_per_block: u32,
    },
    /// One `K × N` block of receiver samples to beamform.
    Block {
        /// Client-chosen sequence number echoed in the reply.
        seq: u64,
        /// The sample block.
        samples: HostComplexMatrix,
    },
    /// One `K × N` block of an f16 session, already quantised: the planes
    /// of `GemmInput::quantise_f16(&block.transposed())` in the order that
    /// view stores them, which is a row-major `K × N` binary16 matrix.
    Operand {
        /// Client-chosen sequence number echoed in the reply.
        seq: u64,
        /// The block's binary16 planes, `K × N`.
        planes: F16Matrix,
    },
    /// Hot-swaps this session's beam weights (same `beams × receivers`
    /// shape); blocks sent after the swap use the new weights.
    SwapWeights {
        /// Client-chosen sequence number echoed in the reply.
        seq: u64,
        /// The new weight matrix.
        weights: HostComplexMatrix,
    },
    /// Ends the session cleanly; the server replies with
    /// [`ServerMsg::Goodbye`].
    Finish,
}

/// Messages flowing server → client.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerMsg {
    /// The session was admitted.
    Welcome {
        /// Server-assigned session id.
        session_id: u64,
        /// Beams per output block (`M` of the GEMM).
        beams: u32,
        /// The session's queue depth: more than this many in-flight blocks
        /// get [`ServerMsg::Throttled`].
        queue_depth: u32,
    },
    /// The session was refused at `Hello` time.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
    /// One beamformed output block (`M × N`).
    Beams {
        /// The sequence number of the [`ClientMsg::Block`] this answers.
        seq: u64,
        /// The beamformed block.
        beams: HostComplexMatrix,
        /// Server-side wall latency of this block in seconds (admission to
        /// reply).
        latency_s: f64,
    },
    /// The weight swap took effect.
    SwapOk {
        /// The sequence number of the swap request.
        seq: u64,
    },
    /// Backpressure: the block was refused, the client may retry.
    Throttled {
        /// The sequence number of the refused block.
        seq: u64,
        /// Why.
        reason: ThrottleReason,
    },
    /// A typed failure: `code` round-trips [`tcbf::TcbfError::code`]
    /// (or `CODE_PROTOCOL` for protocol misuse) without string matching.
    Error {
        /// Sequence number of the offending request, or `u64::MAX` for
        /// session-level failures.
        seq: u64,
        /// Stable numeric error code.
        code: u16,
        /// Human-readable description (informational only).
        message: String,
    },
    /// Clean end of session, answering [`ClientMsg::Finish`].
    Goodbye {
        /// The session's summary.
        summary: SessionSummary,
    },
}

// --- message tags ---
const TAG_HELLO: u8 = 0x01;
const TAG_BLOCK: u8 = 0x02;
const TAG_SWAP: u8 = 0x03;
const TAG_FINISH: u8 = 0x04;
const TAG_OPERAND: u8 = 0x05;
const TAG_WELCOME: u8 = 0x81;
const TAG_REJECTED: u8 = 0x82;
const TAG_BEAMS: u8 = 0x83;
const TAG_SWAP_OK: u8 = 0x84;
const TAG_THROTTLED: u8 = 0x85;
const TAG_ERROR: u8 = 0x86;
const TAG_GOODBYE: u8 = 0x87;

const REJECT_SERVER_FULL: u8 = 0;
const REJECT_TENANT_QUOTA: u8 = 1;
const REJECT_VERSION: u8 = 2;

const THROTTLE_QUEUE: u8 = 0;
const THROTTLE_RATE: u8 = 1;

/// Wire code of a precision.
pub(crate) fn precision_code(precision: Precision) -> u8 {
    match precision {
        Precision::Float16 => 0,
        Precision::Int1 => 1,
        Precision::Float32Reference => 2,
    }
}

/// Precision from its wire code.
pub(crate) fn precision_from_code(code: u8) -> Option<Precision> {
    match code {
        0 => Some(Precision::Float16),
        1 => Some(Precision::Int1),
        2 => Some(Precision::Float32Reference),
        _ => None,
    }
}

/// Errors produced while decoding a payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed frame: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over a received payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let slice = self
            .buf
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or_else(|| {
                DecodeError(format!(
                    "need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len().saturating_sub(self.pos)
                ))
            })?;
        self.pos += n;
        Ok(slice)
    }

    /// The next `N` bytes, as an array.
    fn bytes<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        self.take(N)?.try_into().map_err(|_| {
            DecodeError(format!(
                "internal decoder error: take({N}) returned a wrong-width slice"
            ))
        })
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        let [byte] = self.bytes()?;
        Ok(byte)
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.bytes()?))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.bytes()?))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.bytes()?))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError("invalid UTF-8".into()))
    }

    /// A matrix's `rows` and `cols`, and its element count, which the
    /// remaining payload must hold at `width` bytes an element: the bound
    /// that comes before anything is allocated.
    fn dimensions(&mut self, width: usize) -> Result<(usize, usize, usize), DecodeError> {
        let rows = self.u32()? as usize;
        let cols = self.u32()? as usize;
        let elems = rows
            .checked_mul(cols)
            .filter(|&elems| elems <= (self.buf.len() - self.pos) / width)
            .ok_or_else(|| {
                DecodeError(format!(
                    "{rows} x {cols} elements of {width} bytes, but only {} bytes remain",
                    self.buf.len() - self.pos
                ))
            })?;
        Ok((rows, cols, elems))
    }

    fn matrix(&mut self) -> Result<HostComplexMatrix, DecodeError> {
        let (rows, cols, elems) = self.dimensions(8)?;
        // One bounds check for the whole body, then `re | im` little-endian
        // pairs straight out of the validated slice.
        let (pairs, _) = self.take(8 * elems)?.as_chunks::<8>();
        let data = pairs
            .iter()
            .map(|&[r0, r1, r2, r3, i0, i1, i2, i3]| {
                Complex::new(
                    f32::from_le_bytes([r0, r1, r2, r3]),
                    f32::from_le_bytes([i0, i1, i2, i3]),
                )
            })
            .collect();
        HostComplexMatrix::from_data(rows, cols, data)
            .map_err(|e| DecodeError(format!("matrix shape: {e}")))
    }

    /// A binary16 matrix: `rows`, `cols`, the `re` plane, the `im` plane.
    fn planes(&mut self) -> Result<F16Matrix, DecodeError> {
        let (rows, cols, elems) = self.dimensions(4)?;
        let mut plane = || -> Result<Vec<f16>, DecodeError> {
            let (halves, _) = self.take(2 * elems)?.as_chunks::<2>();
            Ok(halves
                .iter()
                .map(|&h| f16::from_bits(u16::from_le_bytes(h)))
                .collect())
        };
        let (re, im) = (plane()?, plane()?);
        F16Matrix::from_planes(rows, cols, re, im)
            .map_err(|e| DecodeError(format!("operand shape: {e}")))
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return Err(DecodeError(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// A payload encoder.  Messages of a few fields grow it; a message that
/// carries a matrix is built by [`Writer::tagged`], so its payload is
/// allocated once, at its final size.
#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn matrix(&mut self, m: &HostComplexMatrix) {
        self.u32(m.rows() as u32);
        self.u32(m.cols() as u32);
        for (pair, value) in self.body::<8>(m.data().len()).iter_mut().zip(m.data()) {
            *pair =
                (u64::from(value.im.to_bits()) << 32 | u64::from(value.re.to_bits())).to_le_bytes();
        }
    }

    /// `len` more `N`-byte chunks, zeroed, to be stored into.  A body is
    /// written the way `Reader` reads it, whole: grown to its final length
    /// first, then filled by a loop with no capacity check or length update
    /// per element, which the compiler turns into a straight copy.
    fn body<const N: usize>(&mut self, len: usize) -> &mut [[u8; N]] {
        let body_at = self.buf.len();
        self.buf.resize(body_at + N * len, 0);
        self.buf.split_at_mut(body_at).1.as_chunks_mut::<N>().0
    }

    /// A whole payload of `tag`, a sequence number and the `len` bytes
    /// `body` writes, allocated once at its final size.
    fn tagged(tag: u8, seq: u64, len: usize, body: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer {
            buf: Vec::with_capacity(1 + 8 + len),
        };
        w.u8(tag);
        w.u64(seq);
        body(&mut w);
        w.buf
    }

    /// The encoded length of a matrix.
    fn matrix_len(m: &HostComplexMatrix) -> usize {
        8 + 8 * m.data().len()
    }

    /// `rows`, `cols`, then each plane as `Reader::planes` reads it.
    fn planes(&mut self, m: &F16Matrix) {
        self.u32(m.rows() as u32);
        self.u32(m.cols() as u32);
        for plane in [m.re(), m.im()] {
            for (half, value) in self.body::<2>(plane.len()).iter_mut().zip(plane) {
                *half = value.to_bits().to_le_bytes();
            }
        }
    }
}

impl ClientMsg {
    /// The payload of a [`ClientMsg::Block`] over *borrowed* samples: what
    /// `ClientMsg::Block { seq, samples }.encode()` returns, without having
    /// to own the block to say so.
    pub(crate) fn encode_block(seq: u64, samples: &HostComplexMatrix) -> Vec<u8> {
        Writer::tagged(TAG_BLOCK, seq, Writer::matrix_len(samples), |w| {
            w.matrix(samples)
        })
    }

    /// The payload of a [`ClientMsg::Operand`] over *borrowed* planes.
    pub(crate) fn encode_operand(seq: u64, planes: &F16Matrix) -> Vec<u8> {
        let len = 8 + 4 * planes.rows() * planes.cols();
        Writer::tagged(TAG_OPERAND, seq, len, |w| w.planes(planes))
    }

    /// The payload of a [`ClientMsg::SwapWeights`] over *borrowed* weights.
    pub(crate) fn encode_swap_weights(seq: u64, weights: &HostComplexMatrix) -> Vec<u8> {
        Writer::tagged(TAG_SWAP, seq, Writer::matrix_len(weights), |w| {
            w.matrix(weights)
        })
    }

    /// Encodes the message into a frame payload (tag + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        match self {
            ClientMsg::Hello {
                version,
                tenant,
                precision,
                receivers,
                samples_per_block,
            } => {
                w.u8(TAG_HELLO);
                w.u16(*version);
                w.string(tenant);
                w.u8(precision_code(*precision));
                w.u32(*receivers);
                w.u32(*samples_per_block);
            }
            ClientMsg::Block { seq, samples } => return ClientMsg::encode_block(*seq, samples),
            ClientMsg::Operand { seq, planes } => return ClientMsg::encode_operand(*seq, planes),
            ClientMsg::SwapWeights { seq, weights } => {
                return ClientMsg::encode_swap_weights(*seq, weights)
            }
            ClientMsg::Finish => w.u8(TAG_FINISH),
        }
        w.buf
    }

    /// Decodes a frame payload into a client message.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(payload);
        let msg = match r.u8()? {
            TAG_HELLO => {
                let version = r.u16()?;
                let tenant = r.string()?;
                let code = r.u8()?;
                let precision = precision_from_code(code)
                    .ok_or_else(|| DecodeError(format!("unknown precision code {code}")))?;
                ClientMsg::Hello {
                    version,
                    tenant,
                    precision,
                    receivers: r.u32()?,
                    samples_per_block: r.u32()?,
                }
            }
            TAG_BLOCK => ClientMsg::Block {
                seq: r.u64()?,
                samples: r.matrix()?,
            },
            TAG_OPERAND => ClientMsg::Operand {
                seq: r.u64()?,
                planes: r.planes()?,
            },
            TAG_SWAP => ClientMsg::SwapWeights {
                seq: r.u64()?,
                weights: r.matrix()?,
            },
            TAG_FINISH => ClientMsg::Finish,
            tag => return Err(DecodeError(format!("unknown client tag 0x{tag:02x}"))),
        };
        r.finish()?;
        Ok(msg)
    }
}

impl ServerMsg {
    /// Encodes the message into a frame payload (tag + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        match self {
            ServerMsg::Welcome {
                session_id,
                beams,
                queue_depth,
            } => {
                w.u8(TAG_WELCOME);
                w.u64(*session_id);
                w.u32(*beams);
                w.u32(*queue_depth);
            }
            ServerMsg::Rejected { reason } => {
                w.u8(TAG_REJECTED);
                match reason {
                    RejectReason::ServerFull { active, max } => {
                        w.u8(REJECT_SERVER_FULL);
                        w.u32(*active);
                        w.u32(*max);
                    }
                    RejectReason::TenantQuota { max } => {
                        w.u8(REJECT_TENANT_QUOTA);
                        w.u32(*max);
                    }
                    RejectReason::VersionMismatch { server, client } => {
                        w.u8(REJECT_VERSION);
                        w.u16(*server);
                        w.u16(*client);
                    }
                }
            }
            ServerMsg::Beams {
                seq,
                beams,
                latency_s,
            } => {
                return Writer::tagged(TAG_BEAMS, *seq, 8 + Writer::matrix_len(beams), |w| {
                    w.f64(*latency_s);
                    w.matrix(beams);
                })
            }
            ServerMsg::SwapOk { seq } => {
                w.u8(TAG_SWAP_OK);
                w.u64(*seq);
            }
            ServerMsg::Throttled { seq, reason } => {
                w.u8(TAG_THROTTLED);
                w.u64(*seq);
                w.u8(match reason {
                    ThrottleReason::QueueFull => THROTTLE_QUEUE,
                    ThrottleReason::RateLimited => THROTTLE_RATE,
                });
            }
            ServerMsg::Error { seq, code, message } => {
                w.u8(TAG_ERROR);
                w.u64(*seq);
                w.u16(*code);
                w.string(message);
            }
            ServerMsg::Goodbye { summary } => {
                w.u8(TAG_GOODBYE);
                w.u64(summary.blocks);
                w.u64(summary.throttled);
                w.u64(summary.errors);
                w.f64(summary.p50_latency_s);
                w.f64(summary.p95_latency_s);
                w.f64(summary.p99_latency_s);
                w.f64(summary.aggregate_tops);
                w.f64(summary.total_joules);
            }
        }
        w.buf
    }

    /// Decodes a frame payload into a server message.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(payload);
        let msg = match r.u8()? {
            TAG_WELCOME => ServerMsg::Welcome {
                session_id: r.u64()?,
                beams: r.u32()?,
                queue_depth: r.u32()?,
            },
            TAG_REJECTED => {
                let reason = match r.u8()? {
                    REJECT_SERVER_FULL => RejectReason::ServerFull {
                        active: r.u32()?,
                        max: r.u32()?,
                    },
                    REJECT_TENANT_QUOTA => RejectReason::TenantQuota { max: r.u32()? },
                    REJECT_VERSION => RejectReason::VersionMismatch {
                        server: r.u16()?,
                        client: r.u16()?,
                    },
                    code => return Err(DecodeError(format!("unknown reject reason {code}"))),
                };
                ServerMsg::Rejected { reason }
            }
            TAG_BEAMS => {
                let seq = r.u64()?;
                let latency_s = r.f64()?;
                ServerMsg::Beams {
                    seq,
                    beams: r.matrix()?,
                    latency_s,
                }
            }
            TAG_SWAP_OK => ServerMsg::SwapOk { seq: r.u64()? },
            TAG_THROTTLED => {
                let seq = r.u64()?;
                let reason = match r.u8()? {
                    THROTTLE_QUEUE => ThrottleReason::QueueFull,
                    THROTTLE_RATE => ThrottleReason::RateLimited,
                    code => return Err(DecodeError(format!("unknown throttle reason {code}"))),
                };
                ServerMsg::Throttled { seq, reason }
            }
            TAG_ERROR => ServerMsg::Error {
                seq: r.u64()?,
                code: r.u16()?,
                message: r.string()?,
            },
            TAG_GOODBYE => ServerMsg::Goodbye {
                summary: SessionSummary {
                    blocks: r.u64()?,
                    throttled: r.u64()?,
                    errors: r.u64()?,
                    p50_latency_s: r.f64()?,
                    p95_latency_s: r.f64()?,
                    p99_latency_s: r.f64()?,
                    aggregate_tops: r.f64()?,
                    total_joules: r.f64()?,
                },
            },
            tag => return Err(DecodeError(format!("unknown server tag 0x{tag:02x}"))),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Writes one frame (length prefix + payload) to a stream.
///
/// A payload over `MAX_FRAME_BYTES` is an
/// [`std::io::ErrorKind::InvalidInput`] error and nothing is written: never
/// a frame the peer must reject, or a length that wrapped in the prefix.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte frame limit",
                    payload.len()
                ),
            )
        })?;
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(payload)?;
    writer.flush()
}

/// The payload length a frame's prefix announces, or the error for one
/// beyond [`MAX_FRAME_BYTES`].
fn payload_len(prefix: [u8; 4]) -> std::io::Result<usize> {
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
        ));
    }
    Ok(len as usize)
}

/// Appends what is left of a `len`-byte payload to `payload`, read straight
/// into its spare capacity: the buffer is allocated once at its final size
/// and, from a reader with a `read_buf` of its own (a socket), written once,
/// by the reads.  An error leaves the bytes that arrived before it in
/// `payload` (`read_to_end` appends before it returns one), so a caller may
/// call again to resume.
fn read_payload(reader: &mut impl Read, payload: &mut Vec<u8>, len: usize) -> std::io::Result<()> {
    let left = (len - payload.len()) as u64;
    reader.take(left).read_to_end(payload)?;
    if payload.len() < len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "stream closed mid-frame",
        ));
    }
    Ok(())
}

/// Reads one frame from a stream; rejects length prefixes beyond
/// `MAX_FRAME_BYTES` so garbage input cannot trigger huge allocations.
pub fn read_frame(reader: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    reader.read_exact(&mut prefix)?;
    let len = payload_len(prefix)?;
    let mut payload = Vec::with_capacity(len);
    read_payload(reader, &mut payload, len)?;
    Ok(payload)
}

/// Asks before every `read` whether there may be another one, and has a
/// refusal look like the poll interval elapsing: `read_to_end` then returns
/// to a caller that asks the same question itself and gets the reason.
///
/// What it costs: `Read::read_buf` is not stable, so this reader cannot hand
/// the socket's on, and `read_to_end` clears the spare capacity once before
/// it lends it to `read` — ≈ 20 µs per MiB of payload over loopback
/// (1 MiB frames: 380–410 µs through [`read_frame`], 400–420 µs through
/// [`read_frame_polling`]).  It goes when a wrapper can forward `read_buf`.
struct Guarded<'a, R, F>(&'a mut R, F);

impl<R: Read, F: Fn() -> bool> Read for Guarded<'_, R, F> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if !(self.1)() {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        self.0.read(buf)
    }
}

/// Reads one frame from a stream whose read timeout is used as a poll
/// interval: a timeout *resumes* the partial read (so one mid-frame never
/// desynchronises the framing), and `should_abort` is consulted before every
/// single `read` — a sender that trickles bytes in faster than the poll
/// interval is stopped like one that sends nothing.
///
/// A frame has `frame_timeout` from its first byte to its last; one that
/// takes longer is an [`std::io::ErrorKind::TimedOut`] error (nothing else
/// returns that kind from here).  The wait *for* a first byte is not bounded
/// by it: that is `should_abort`'s, which ends a read with
/// [`std::io::ErrorKind::ConnectionAborted`].
///
/// Returns `Ok(None)` on clean end-of-stream at a frame boundary; EOF
/// mid-frame is an [`std::io::ErrorKind::UnexpectedEof`] error.
pub(crate) fn read_frame_polling(
    reader: &mut impl Read,
    frame_timeout: Duration,
    should_abort: impl Fn() -> bool,
) -> std::io::Result<Option<Vec<u8>>> {
    // `started`: when the frame's first byte arrived, `None` before it has.
    let may_read = |started: Option<Instant>| {
        if should_abort() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "aborted while waiting for a frame",
            ));
        }
        if started.is_some_and(|at| at.elapsed() > frame_timeout) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("frame still incomplete {frame_timeout:?} after its first byte"),
            ));
        }
        Ok(())
    };

    let mut prefix = [0u8; 4];
    let mut filled = 0;
    let mut started = None;
    while let Some(dst) = prefix.get_mut(filled..).filter(|dst| !dst.is_empty()) {
        may_read(started)?;
        match reader.read(dst) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream closed mid-frame",
                ));
            }
            Ok(n) => {
                filled += n;
                started.get_or_insert_with(Instant::now);
            }
            Err(e) if is_poll(&e) => {}
            Err(e) => return Err(e),
        }
    }
    let len = payload_len(prefix)?;
    let mut payload = Vec::with_capacity(len);
    loop {
        may_read(started)?;
        let mut guarded = Guarded(&mut *reader, || may_read(started).is_ok());
        match read_payload(&mut guarded, &mut payload, len) {
            Ok(()) => return Ok(Some(payload)),
            Err(e) if is_poll(&e) => {}
            Err(e) => return Err(e),
        }
    }
}

/// A failed read that only means "read again": the poll interval elapsed, or
/// a signal arrived.
fn is_poll(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    matches!(e.kind(), WouldBlock | TimedOut | Interrupted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: usize, cols: usize) -> HostComplexMatrix {
        HostComplexMatrix::from_fn(rows, cols, |r, c| {
            Complex::new((r * 31 + c) as f32 * 0.37, (c * 17 + r) as f32 * -0.11)
        })
    }

    #[test]
    fn client_messages_round_trip() {
        let messages = vec![
            ClientMsg::Hello {
                version: PROTO_VERSION,
                tenant: "tenant-α".into(),
                precision: Precision::Int1,
                receivers: 32,
                samples_per_block: 64,
            },
            ClientMsg::Block {
                seq: 7,
                samples: matrix(32, 64),
            },
            ClientMsg::Operand {
                seq: 8,
                planes: F16Matrix::from_host(&matrix(32, 64)),
            },
            ClientMsg::SwapWeights {
                seq: u64::MAX - 1,
                weights: matrix(8, 32),
            },
            ClientMsg::Finish,
        ];
        for msg in messages {
            let decoded = ClientMsg::decode(&msg.encode()).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn server_messages_round_trip() {
        let messages = vec![
            ServerMsg::Welcome {
                session_id: 42,
                beams: 8,
                queue_depth: 4,
            },
            ServerMsg::Rejected {
                reason: RejectReason::ServerFull { active: 9, max: 9 },
            },
            ServerMsg::Rejected {
                reason: RejectReason::TenantQuota { max: 2 },
            },
            ServerMsg::Rejected {
                reason: RejectReason::VersionMismatch {
                    server: 1,
                    client: 2,
                },
            },
            ServerMsg::Beams {
                seq: 3,
                beams: matrix(8, 64),
                latency_s: 1.25e-4,
            },
            ServerMsg::SwapOk { seq: 4 },
            ServerMsg::Throttled {
                seq: 5,
                reason: ThrottleReason::RateLimited,
            },
            ServerMsg::Error {
                seq: u64::MAX,
                code: 10,
                message: "shape mismatch".into(),
            },
            ServerMsg::Goodbye {
                summary: SessionSummary {
                    blocks: 100,
                    throttled: 3,
                    errors: 0,
                    p50_latency_s: 1e-5,
                    p95_latency_s: 2e-5,
                    p99_latency_s: 4e-5,
                    aggregate_tops: 123.5,
                    total_joules: 0.75,
                },
            },
        ];
        for msg in messages {
            let decoded = ServerMsg::decode(&msg.encode()).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn matrices_survive_bit_exactly() {
        // f32 -> LE bytes -> f32 must be the identity, including values
        // that are not representable in shorter formats.
        let tricky = HostComplexMatrix::from_fn(3, 5, |r, c| {
            Complex::new(
                f32::from_bits(0x3f80_0001 + (r * 5 + c) as u32),
                f32::from_bits(0x8000_0001 + (c * 3 + r) as u32),
            )
        });
        let msg = ClientMsg::Block {
            seq: 0,
            samples: tricky.clone(),
        };
        // The body on the wire is `re`, `im` per element, each little-endian,
        // after tag, sequence number and the two dimensions.
        let encoded = msg.encode();
        let body: Vec<u8> = tricky
            .data()
            .iter()
            .flat_map(|v| [v.re.to_le_bytes(), v.im.to_le_bytes()])
            .flatten()
            .collect();
        assert_eq!(encoded[1 + 8 + 4 + 4..], body);
        // Cut short anywhere, the frame is a typed error.
        for len in 0..encoded.len() {
            assert!(ClientMsg::decode(&encoded[..len]).is_err(), "cut at {len}");
        }
        match ClientMsg::decode(&encoded).unwrap() {
            ClientMsg::Block { samples, .. } => {
                for (a, b) in samples.data().iter().zip(tricky.data()) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits());
                    assert_eq!(a.im.to_bits(), b.im.to_bits());
                }
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    /// 2 × 3, every element a value a careless codec loses: `-0.0`, NaNs
    /// with payload and sign, both subnormals of least magnitude, `±Inf`,
    /// `f32::MAX`.
    fn hostile_matrix() -> HostComplexMatrix {
        let bits = [
            (0x8000_0000, 0x7fc0_1234), // -0.0, NaN with payload
            (0x0000_0001, 0x7f80_0000), // least subnormal, +Inf
            (0xff80_0000, 0x7f7f_ffff), // -Inf, f32::MAX
            (0x3f80_0000, 0xc000_0000), // 1.0, -2.0
            (0x0000_0000, 0x8000_0001), // 0.0, least negative subnormal
            (0xffc0_0001, 0x3f00_0000), // negative NaN with payload, 0.5
        ];
        let data = bits
            .iter()
            .map(|&(re, im)| Complex::new(f32::from_bits(re), f32::from_bits(im)))
            .collect();
        HostComplexMatrix::from_data(2, 3, data).unwrap()
    }

    /// [`hostile_matrix`] on the wire: `rows`, `cols`, then `re`, `im` per
    /// element in row-major order, everything little-endian.
    const HOSTILE_MATRIX_BYTES: [u8; 56] = [
        0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, // 2 x 3
        0x00, 0x00, 0x00, 0x80, 0x34, 0x12, 0xc0, 0x7f, //
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x7f, //
        0x00, 0x00, 0x80, 0xff, 0xff, 0xff, 0x7f, 0x7f, //
        0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0xc0, //
        0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x80, //
        0x01, 0x00, 0xc0, 0xff, 0x00, 0x00, 0x00, 0x3f, //
    ];
    const GOLDEN_SEQ: u64 = 0x0102_0304_0506_0708;
    const GOLDEN_SEQ_BYTES: [u8; 8] = [0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01];

    fn bits(m: &HostComplexMatrix) -> (usize, usize, Vec<(u32, u32)>) {
        let data = m.data().iter();
        let data = data.map(|v| (v.re.to_bits(), v.im.to_bits())).collect();
        (m.rows(), m.cols(), data)
    }

    #[test]
    fn matrix_frames_are_pinned_byte_for_byte_in_both_directions() {
        let matrix = hostile_matrix();
        let golden = |head: &[&[u8]]| [&head.concat()[..], &HOSTILE_MATRIX_BYTES[..]].concat();

        let block = golden(&[&[0x02], &GOLDEN_SEQ_BYTES]);
        let samples = matrix.clone();
        assert_eq!(ClientMsg::encode_block(GOLDEN_SEQ, &matrix), block);
        let seq = GOLDEN_SEQ;
        assert_eq!(ClientMsg::Block { seq, samples }.encode(), block);
        match ClientMsg::decode(&block).unwrap() {
            ClientMsg::Block { seq, samples } => {
                assert_eq!((seq, bits(&samples)), (GOLDEN_SEQ, bits(&matrix)));
            }
            other => panic!("wrong message: {other:?}"),
        }

        let swap = golden(&[&[0x03], &GOLDEN_SEQ_BYTES]);
        let weights = matrix.clone();
        assert_eq!(ClientMsg::encode_swap_weights(GOLDEN_SEQ, &matrix), swap);
        assert_eq!(ClientMsg::SwapWeights { seq, weights }.encode(), swap);
        match ClientMsg::decode(&swap).unwrap() {
            ClientMsg::SwapWeights { seq, weights } => {
                assert_eq!((seq, bits(&weights)), (GOLDEN_SEQ, bits(&matrix)));
            }
            other => panic!("wrong message: {other:?}"),
        }

        // 1.5 s of latency sits between the sequence number and the matrix.
        let latency = [0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f];
        let reply = golden(&[&[0x83], &GOLDEN_SEQ_BYTES, &latency]);
        let beams = ServerMsg::Beams {
            seq,
            beams: matrix.clone(),
            latency_s: 1.5,
        };
        assert_eq!(beams.encode(), reply);
        match ServerMsg::decode(&reply).unwrap() {
            ServerMsg::Beams {
                seq,
                beams,
                latency_s,
            } => assert_eq!(
                (seq, latency_s, bits(&beams)),
                (GOLDEN_SEQ, 1.5, bits(&matrix))
            ),
            other => panic!("wrong message: {other:?}"),
        }
    }

    /// 2 × 3 binary16 planes of values a careless codec loses: `-0.0`, NaNs
    /// with payload and sign, the least subnormals, `±Inf`, the largest
    /// finite value.
    const HOSTILE_RE: [u16; 6] = [0x8000, 0x7e01, 0x0001, 0xfc00, 0x7bff, 0x3c00];
    const HOSTILE_IM: [u16; 6] = [0x7c00, 0x8001, 0xfe01, 0xc000, 0x0000, 0x3800];

    /// [`HOSTILE_RE`] / [`HOSTILE_IM`] on the wire: `rows`, `cols`, the
    /// `re` plane, the `im` plane, everything little-endian.
    const HOSTILE_PLANES_BYTES: [u8; 32] = [
        0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, // 2 x 3
        0x00, 0x80, 0x01, 0x7e, 0x01, 0x00, 0x00, 0xfc, 0xff, 0x7b, 0x00, 0x3c, // re
        0x00, 0x7c, 0x01, 0x80, 0x01, 0xfe, 0x00, 0xc0, 0x00, 0x00, 0x00, 0x38, // im
    ];

    fn half_bits(m: &F16Matrix) -> (usize, usize, Vec<u16>, Vec<u16>) {
        let plane = |p: &[f16]| p.iter().map(|h| h.to_bits()).collect();
        (m.rows(), m.cols(), plane(m.re()), plane(m.im()))
    }

    #[test]
    fn operand_frames_are_pinned_byte_for_byte_in_both_directions() {
        let half = |bits: [u16; 6]| bits.map(f16::from_bits).to_vec();
        let planes = F16Matrix::from_planes(2, 3, half(HOSTILE_RE), half(HOSTILE_IM)).unwrap();
        let golden = [&[0x05][..], &GOLDEN_SEQ_BYTES, &HOSTILE_PLANES_BYTES].concat();
        assert_eq!(ClientMsg::encode_operand(GOLDEN_SEQ, &planes), golden);
        let seq = GOLDEN_SEQ;
        let owned = ClientMsg::Operand {
            seq,
            planes: planes.clone(),
        };
        assert_eq!(owned.encode(), golden);
        match ClientMsg::decode(&golden).unwrap() {
            ClientMsg::Operand { seq, planes: got } => {
                assert_eq!((seq, half_bits(&got)), (GOLDEN_SEQ, half_bits(&planes)));
            }
            other => panic!("wrong message: {other:?}"),
        }
        // The planes of a quantised view, as stored, are what travels: the
        // view's planes read row-major are its transpose's.
        let block = matrix(3, 2);
        let view = F16Matrix::from_host(&block.transposed());
        let stored = view.clone().transposed();
        let encoded = ClientMsg::encode_operand(seq, &stored);
        assert_eq!(
            encoded,
            ClientMsg::encode_operand(seq, &F16Matrix::from_host(&block))
        );
        match ClientMsg::decode(&encoded).unwrap() {
            ClientMsg::Operand { planes, .. } => {
                assert_eq!(half_bits(&planes.transposed()), half_bits(&view));
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn an_operand_frame_is_half_the_block_frame_it_replaces() {
        // The served f16 workload's block, K × N = 512 × 256: a frame is
        // the length prefix, tag, sequence number and dimensions (21 bytes)
        // plus 4 bytes a sample, where the samples take 8.
        let block = HostComplexMatrix::zeros(512, 256);
        let planes = F16Matrix::from_host(&block);
        let (mut operand, mut samples) = (Vec::new(), Vec::new());
        write_frame(&mut operand, &ClientMsg::encode_operand(1, &planes)).unwrap();
        write_frame(&mut samples, &ClientMsg::encode_block(1, &block)).unwrap();
        assert_eq!(operand.len(), 21 + 4 * 512 * 256);
        assert_eq!(operand.len(), 524_309);
        assert_eq!(samples.len(), 1_048_597);
    }

    #[test]
    fn a_matrix_payload_is_allocated_once_at_its_final_size() {
        // Degenerate shapes keep their dimensions; every matrix-carrying
        // payload comes out exactly full.
        for m in [
            matrix(0, 5),
            matrix(5, 0),
            matrix(0, 0),
            matrix(1, 1),
            matrix(32, 64),
        ] {
            let (seq, latency_s) = (11, 2.5e-3);
            let block = ClientMsg::encode_block(seq, &m);
            let swap = ClientMsg::encode_swap_weights(seq, &m);
            let beams = ServerMsg::Beams {
                seq,
                beams: m.clone(),
                latency_s,
            };
            let reply = beams.encode();
            for (payload, fixed) in [(&block, 9), (&swap, 9), (&reply, 17)] {
                assert_eq!(payload.len(), fixed + 8 + 8 * m.data().len());
                assert_eq!(payload.capacity(), payload.len());
            }
            let planes = F16Matrix::from_host(&m);
            let operand = ClientMsg::encode_operand(seq, &planes);
            assert_eq!(operand.len(), 9 + 8 + 4 * m.data().len());
            assert_eq!(operand.capacity(), operand.len());
            let owned = ClientMsg::Operand { seq, planes };
            assert_eq!(owned.encode(), operand);
            assert_eq!(ClientMsg::decode(&operand).unwrap(), owned);
            // The borrowed encoders are the body of `encode`, and all three
            // round-trip.
            let samples = m.clone();
            let owned = ClientMsg::Block { seq, samples };
            assert_eq!(owned.encode(), block);
            assert_eq!(ClientMsg::decode(&block).unwrap(), owned);
            let weights = m.clone();
            let owned = ClientMsg::SwapWeights { seq, weights };
            assert_eq!(owned.encode(), swap);
            assert_eq!(ClientMsg::decode(&swap).unwrap(), owned);
            assert_eq!(ServerMsg::decode(&reply).unwrap(), beams);
        }
    }

    #[test]
    fn framing_round_trips_and_bounds_the_length() {
        let payload = ClientMsg::Finish.encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert_eq!(buf.len(), 4 + payload.len());
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), payload);

        // A hostile length prefix is rejected without allocating.
        let hostile = (MAX_FRAME_BYTES + 1).to_le_bytes();
        let mut cursor = std::io::Cursor::new(hostile.to_vec());
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// Delivers its bytes one per `read`, with a time-out before every one.
    struct Trickle<'a> {
        bytes: &'a [u8],
        timed_out: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.timed_out = !self.timed_out;
            if self.timed_out {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = self.bytes.len().min(buf.len()).min(1);
            let (now, later) = self.bytes.split_at(n);
            buf[..n].copy_from_slice(now);
            self.bytes = later;
            Ok(n)
        }
    }

    /// Delivers its bytes one per `read` and never times out: the sender that
    /// stays under the poll interval.
    struct Bytewise<'a>(&'a [u8]);

    impl Read for Bytewise<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.len().min(buf.len()).min(1);
            let (now, later) = self.0.split_at(n);
            buf[..n].copy_from_slice(now);
            self.0 = later;
            Ok(n)
        }
    }

    /// Asked only when a read times out, neither question is ever put to a
    /// sender of a byte per read: no abort, no deadline.
    #[test]
    fn a_frame_has_a_deadline_from_its_first_byte_and_the_wait_for_it_has_none() {
        let msg = ClientMsg::Block {
            seq: 3,
            samples: matrix(4, 4),
        };
        let mut stream = Vec::new();
        write_frame(&mut stream, &msg.encode()).unwrap();
        // A millisecond passes before every read, so a deadline of zero is
        // passed by the second one — and a generous one never.
        let tick = || {
            std::thread::sleep(Duration::from_millis(1));
            false
        };
        let err = read_frame_polling(&mut Bytewise(&stream), Duration::ZERO, tick).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
        assert!(err.to_string().contains("after its first byte"), "{err}");
        let frame = read_frame_polling(&mut Bytewise(&stream), Duration::from_secs(60), tick);
        assert_eq!(ClientMsg::decode(&frame.unwrap().unwrap()).unwrap(), msg);

        /// Times out `idle` times, then delivers whatever is asked for.
        struct Late<'a>(usize, &'a [u8]);
        impl Read for Late<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0 > 0 {
                    self.0 -= 1;
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                let n = self.1.len().min(buf.len());
                let (now, later) = self.1.split_at(n);
                buf[..n].copy_from_slice(now);
                self.1 = later;
                Ok(n)
            }
        }
        // A session that sends nothing for longer than a frame may take is
        // idle, not overdue: the clock starts with the first byte.
        let deadline = Duration::from_millis(200);
        let waited = Instant::now();
        let frame = read_frame_polling(&mut Late(250, &stream), deadline, tick);
        assert!(waited.elapsed() > deadline);
        assert_eq!(ClientMsg::decode(&frame.unwrap().unwrap()).unwrap(), msg);
    }

    #[test]
    fn a_frame_trickling_in_between_timeouts_decodes_to_the_same_message() {
        let msg = ClientMsg::Block {
            seq: 9,
            samples: matrix(5, 7),
        };
        let mut stream = Vec::new();
        write_frame(&mut stream, &msg.encode()).unwrap();
        write_frame(&mut stream, &[]).unwrap();
        let trickle = |bytes| Trickle {
            bytes,
            timed_out: false,
        };
        let mut reader = trickle(&stream);
        let polls = std::cell::Cell::new(0);
        let never = || {
            polls.set(polls.get() + 1);
            false
        };
        const LONG: Duration = Duration::from_secs(3600);
        let frame = read_frame_polling(&mut reader, LONG, never)
            .unwrap()
            .unwrap();
        assert_eq!(ClientMsg::decode(&frame).unwrap(), msg);
        assert_eq!(frame.capacity(), frame.len(), "allocated once, at its size");
        // One before every read, answered or timed out (two reads a byte),
        // and the payload loop's own before each `read_to_end`: the first,
        // and one after every time-out that ended the last.
        assert_eq!(polls.get(), 2 * (4 + frame.len()) + frame.len() + 1);
        // An empty frame, then a clean end of stream at the frame boundary.
        assert_eq!(
            read_frame_polling(&mut reader, LONG, never).unwrap(),
            Some(vec![])
        );
        assert_eq!(read_frame_polling(&mut reader, LONG, never).unwrap(), None);

        // Cut short anywhere past the first byte, the stream closed mid-frame;
        // an abort is honoured at the next time-out, mid-payload too.
        for cut in 1..stream.len() - 4 {
            let err = read_frame_polling(&mut trickle(&stream[..cut]), LONG, never).unwrap_err();
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof,
                "cut at {cut}"
            );
        }
        for abort_after in [0, 2, 4, 5, 40] {
            let polls = std::cell::Cell::new(0);
            let abort = || {
                polls.set(polls.get() + 1);
                polls.get() > abort_after
            };
            let err = read_frame_polling(&mut trickle(&stream), LONG, abort).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::ConnectionAborted);
        }
        // So is one between two bytes that arrive without a time-out between
        // them: every read is asked for.
        let polls = std::cell::Cell::new(0);
        let abort = || {
            polls.set(polls.get() + 1);
            polls.get() > 40
        };
        let err = read_frame_polling(&mut Bytewise(&stream), LONG, abort).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionAborted);
        // The blocking reader sees the same frame (it does not poll).
        assert_eq!(read_frame(&mut stream.as_slice()).unwrap(), frame);
        let short = read_frame(&mut &stream[..20]).unwrap_err();
        assert_eq!(short.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn an_oversized_payload_is_a_typed_error_with_nothing_written() {
        /// Counts what it is given (and never touches a 64 MiB payload).
        struct Counted(usize);
        impl Write for Counted {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0 += buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let over = vec![0u8; MAX_FRAME_BYTES as usize + 1];
        let mut sink = Counted(0);
        write_frame(&mut sink, &over[..MAX_FRAME_BYTES as usize]).unwrap();
        assert_eq!(sink.0, 4 + MAX_FRAME_BYTES as usize, "the cap itself fits");

        let mut sink = Counted(0);
        let err = write_frame(&mut sink, &over).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("67108865 bytes"), "{err}");
        assert_eq!(sink.0, 0, "nothing may reach the peer");
    }

    /// An `Operand` payload's tag, sequence number and dimensions, with no
    /// plane after them.
    fn operand_header(rows: u32, cols: u32) -> Vec<u8> {
        let mut w = Writer::default();
        w.u8(TAG_OPERAND);
        w.u64(1);
        w.u32(rows);
        w.u32(cols);
        w.buf
    }

    #[test]
    fn malformed_payloads_are_typed_errors_not_panics() {
        for bad in [
            vec![],
            vec![0xff],
            vec![TAG_BLOCK, 1, 2],
            // A block whose matrix claims more elements than the payload
            // holds.
            {
                let mut w = Writer::default();
                w.u8(TAG_BLOCK);
                w.u64(1);
                w.u32(u32::MAX);
                w.u32(u32::MAX);
                w.buf
            },
            // Trailing garbage after a valid message.
            {
                let mut buf = ClientMsg::Finish.encode();
                buf.push(0);
                buf
            },
            // An operand whose `im` plane is cut short by one byte.
            {
                let mut buf = ClientMsg::encode_operand(1, &F16Matrix::from_host(&matrix(4, 4)));
                buf.pop();
                buf
            },
            // An operand whose `K·N` overflows.
            operand_header(u32::MAX, u32::MAX),
            // An operand whose `K·N` is larger than the bytes that remain:
            // one element, and 2³² − 1 of them.
            operand_header(1, 1),
            [operand_header(0xffff, 0xffff), vec![0; 64]].concat(),
            // A valid operand with a trailing byte.
            {
                let mut buf = ClientMsg::encode_operand(1, &F16Matrix::from_host(&matrix(2, 3)));
                buf.push(0);
                buf
            },
        ] {
            assert!(ClientMsg::decode(&bad).is_err(), "{bad:?}");
        }
        assert!(ServerMsg::decode(&[0x7f]).is_err());
    }

    #[test]
    fn precision_codes_round_trip() {
        for precision in [
            Precision::Float16,
            Precision::Int1,
            Precision::Float32Reference,
        ] {
            assert_eq!(
                precision_from_code(precision_code(precision)),
                Some(precision)
            );
        }
        assert_eq!(precision_from_code(200), None);
    }
}
