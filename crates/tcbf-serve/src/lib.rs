//! # tcbf-serve — the beamformer as a multi-tenant network service
//!
//! Everything below `tcbf::BeamformerBuilder::build_engine()` treats the
//! beamformer as a library embedded in one process.  This crate turns any
//! [`beamform::Engine`] into a shared **service**: many tenants stream
//! sample blocks over TCP to a fixed engine fleet, with admission control,
//! per-tenant quotas, bounded queues and fleet-wide tail-latency metrics —
//! the deployment shape the paper's telescope and ultrasound pipelines
//! imply (one accelerator pool, many observers/probes), built here from
//! `std::net` alone.
//!
//! The layers, bottom up:
//!
//! - [`wire`]: a hand-rolled length-prefixed binary protocol
//!   (`Hello`/`Block`/`SwapWeights`/`Finish` up, typed replies down).
//!   `f32` samples travel as raw little-endian bits, so served outputs are
//!   **bit-identical** to local execution.  A payload that carries a matrix
//!   is built once, at its final size, from borrowed data
//!   (`ClientMsg::encode_block`, `ClientMsg::encode_swap_weights`).
//! - [`pool`]: [`ServeConfig`] builds a fixed [`EnginePool`] once; workers
//!   check engines out per block, and *lazy weight swaps* keyed on the
//!   weights themselves — an engine is re-loaded only when a block's weights
//!   differ bit for bit from the ones it carries — keep multi-tenant sharing
//!   deterministic and free for tenants that share weights.
//!   An optional [`gpu_sim::FaultPlan`] arms a fault injector over the
//!   pool; faulted engines are **quarantined** and [`PoolHealth`] tracks
//!   the survivors.
//! - [`server`]: [`serve`] binds a listener and runs admission (typed
//!   `Rejected` past [`ServeConfig::max_sessions`] or a tenant's stream
//!   quota — the ceiling shrinks proportionally while the pool is
//!   degraded), per-tenant rate limiting and bounded-queue backpressure
//!   (typed, retryable `Throttled` — never unbounded memory).  A job that
//!   hits an engine fault is **replayed on a healthy engine**; the client
//!   never sees it.  A frame has a deadline in each direction: a client
//!   that stops reading, or trickles a frame in byte by byte, is hung up
//!   on, and holds neither a worker, a session slot nor `shutdown()`.
//! - [`metrics`]: per-tenant block/throttle/error/recovery counts and
//!   wall-clock latency histograms, merged with the engine fleet's
//!   [`beamform::Report`] and the pool's health into one [`FleetReport`]
//!   with p50/p95/p99.
//! - [`discover`]: UDP beacons (`{addr, topology, precision menu}`) and
//!   [`discover_workers`] to find the live fleet without configuration.
//! - [`client`]: a blocking [`Client`] that pipelines blocks up to the
//!   advertised queue depth, retries throttles under capped exponential
//!   backoff with deterministic jitter (`retry_backoff`), re-orders
//!   replies and returns the server's end-of-session [`SessionSummary`].
//!
//! ```no_run
//! use tcbf_serve::{example_weights, serve, Client, ServeConfig};
//! use ccglib::Precision;
//! use gpu_sim::Gpu;
//!
//! let config = ServeConfig {
//!     gpus: vec![Gpu::A100],
//!     precisions: vec![Precision::Float16, Precision::Int1],
//!     engines_per_precision: 2,
//!     weights: example_weights(8, 32),
//!     samples_per_block: 64,
//!     max_sessions: 8,
//!     queue_depth: 4,
//!     tenant_max_streams: 4,
//!     tenant_blocks_per_sec: None,
//!     workers: 2,
//!     fault_plan: None,
//! };
//! let handle = serve("127.0.0.1:0", config).unwrap();
//!
//! let mut client = Client::connect(
//!     handle.addr(), "tenant-a", Precision::Float16, 32, 64,
//! ).unwrap();
//! let blocks = vec![/* 32 x 64 sample blocks */];
//! let beams = client.stream_blocks(&blocks).unwrap();
//! let summary = client.finish().unwrap();
//! println!("p99 = {:.1} us", summary.p99_latency_s * 1e6);
//! println!("{}", handle.shutdown().summary_line());
//! # let _ = beams;
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// The serve path never panics: a failure is a typed error (docs/LINTS.md).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![cfg_attr(not(test), deny(clippy::disallowed_macros))]
// Deadlines and latency histograms are this crate's job: it reads the clock.
#![allow(clippy::disallowed_methods)]

pub mod client;
pub mod discover;
pub mod metrics;
pub mod pool;
pub mod server;
pub mod wire;

pub use client::{Client, ServeError};
pub use discover::{discover_workers, BeaconConfig, Discovery, WorkerInfo};
pub use metrics::{FleetReport, TenantReport};
pub use pool::{example_weights, EnginePool, EngineSlot, PoolHealth, ServeConfig};
pub use server::{serve, ServerHandle};
pub use wire::{ClientMsg, RejectReason, ServerMsg, SessionSummary, ThrottleReason, PROTO_VERSION};
