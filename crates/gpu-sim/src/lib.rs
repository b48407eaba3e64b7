//! Software GPU substrate for the Tensor-Core Beamformer reproduction.
//!
//! The paper evaluates ccglib on seven NVIDIA and AMD GPUs.  This
//! environment has no GPU, so — following the substitution rule documented
//! in `DESIGN.md` — this crate provides the pieces of the GPU stack the
//! library and its evaluation actually depend on:
//!
//! * [`arch`] / [`device`] — a catalog of the seven evaluated devices
//!   (AD4000, A100, GH200, W7700, MI210, MI300X, MI300A) with their
//!   architectural features (tensor-core fragment support, async copies,
//!   XOR deprecation on Hopper, WMMA-vs-WGMMA interface efficiency),
//!   clocks, peak throughputs, memory bandwidth and power envelope.
//! * [`wmma`] — the tensor-core fragment shapes (16×16×16 half precision,
//!   8×8×128 and 16×8×256 1-bit) the planner and Table I are expressed in.
//! * [`exec`] — an analytic execution model: given a kernel profile
//!   (operations, bytes moved, launch configuration, tuning parameters) it
//!   predicts execution time the way a roofline-plus-occupancy model does.
//!   All timing numbers reported by the benchmark harness come from this
//!   model, calibrated against the paper's published peaks.
//! * [`memory`] — shared-memory capacity and asynchronous-copy pipeline
//!   modelling used by the execution model and by the kernel planner to
//!   reject invalid tuning configurations.
//! * [`fault`] — deterministic, seeded fault injection ([`FaultPlan`] /
//!   [`FaultInjector`]): permanent device loss, transient refusals and
//!   latency spikes, used by the fault-tolerance layers above to prove
//!   recovery stays bit-identical.
//! * [`pool`] — multi-device hosts: a [`DevicePool`] of simulated GPUs
//!   (heterogeneous mixes allowed) with the per-member peak throughputs the
//!   sharding layer weights work by.
//! * [`power`] — a simple utilisation-based power model that `ccglib`
//!   integrates over each kernel to produce energy-efficiency numbers.
//! * [`roofline`] — roofline ceilings and attainable-performance queries
//!   used for Fig. 3.
//! * [`table1`] — the tensor-core micro-benchmarks of Table I, read from
//!   the device catalog.
//!
//! Functional correctness (the numbers in output matrices) never depends on
//! the performance model; the two are deliberately separated so tests can
//! validate them independently.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod arch;
pub mod device;
pub mod exec;
pub mod fault;
pub mod memory;
pub mod pool;
pub mod power;
pub mod roofline;
pub mod table1;
pub mod wmma;

pub use arch::{Architecture, BitOp};
pub use device::{Device, DeviceSpec, Gpu};
pub use exec::{ExecutionModel, KernelKind, KernelProfile, KernelTimings, LaunchConfig};
pub use fault::{BlockVerdict, DeviceFault, FaultInjector, FaultPlan};
pub use memory::{MemoryModel, SharedMemoryPlan};
pub use pool::DevicePool;
pub use power::PowerModel;
pub use roofline::Roofline;
pub use wmma::{BitFragmentShape, FragmentShape};
