//! The four workloads and their seeded inputs.
//!
//! Names are stable: later issues state their claims against them.  Each
//! workload fixes a path (direct engine or loopback `tcbf-serve`), a
//! precision and a shape chosen so that a different layer dominates the
//! block (see `README.md` for the measured shares).

use ccglib::matrix::HostComplexMatrix;
use ccglib::synth::pseudo_random_matrix;
use ccglib::{GemmInput, Precision};
use gpu_sim::fault::splitmix64 as mix;
use gpu_sim::Gpu;
use tcbf_types::GemmShape;

/// Every engine runs on the simulated A100: it supports both precisions,
/// and the host wall clock this harness reports does not depend on the
/// modelled device.
pub const GPU: Gpu = Gpu::A100;

/// Distinct input blocks per caller.
pub const BLOCKS_PER_CALLER: usize = 8;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub precision: Precision,
    /// Beams.
    pub m: usize,
    /// Samples per block.
    pub n: usize,
    /// Receivers.
    pub k: usize,
    /// `true`: blocks travel through a loopback `tcbf_serve::serve`.
    pub served: bool,
    /// Closed-loop callers (connections for a served workload).
    pub callers: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "manybeam_f16",
        why: "ultrasound-like, many beams: the f16 FMA micro-kernel dominates, the prologue is small",
        precision: Precision::Float16,
        m: 1024,
        n: 128,
        k: 128,
        served: false,
        callers: 1,
    },
    Workload {
        name: "manybeam_int1",
        why: "the paper's 1-bit regime at large K: the popcount kernel dominates",
        precision: Precision::Int1,
        m: 1024,
        n: 128,
        k: 1024,
        served: false,
        callers: 1,
    },
    Workload {
        name: "fewbeam_int1",
        why: "tied-array-like, few beams and many receivers: transpose and 1-bit packing dominate",
        precision: Precision::Int1,
        m: 32,
        n: 256,
        k: 2048,
        served: false,
        callers: 1,
    },
    Workload {
        name: "served_2tenant_f16",
        why: "two tenants share one served engine: the only path through wire, queue, pool and weight swaps",
        precision: Precision::Float16,
        m: 128,
        n: 256,
        k: 512,
        served: true,
        callers: 2,
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn shape(&self) -> GemmShape {
        GemmShape::new(self.m, self.n, self.k)
    }

    /// Quantises a host matrix to this workload's operand precision — the
    /// same public functions the engine's prologue calls.
    pub fn quantise(&self, host: &HostComplexMatrix) -> GemmInput {
        match self.precision {
            Precision::Int1 => GemmInput::quantise_int1(host),
            _ => GemmInput::quantise_f16(host),
        }
    }

    /// Callers actually run: never more caller threads than cores.
    pub fn callers_on(&self, cores: usize) -> usize {
        self.callers.min(cores).max(1)
    }
}

/// What the program under test sees: one weight matrix and, per caller,
/// [`BLOCKS_PER_CALLER`] distinct `K × N` sample blocks.
pub struct Inputs {
    pub weights: HostComplexMatrix,
    pub blocks: Vec<Vec<HostComplexMatrix>>,
}

impl Inputs {
    /// Same `(workload, seed, callers)` in, same matrices out; splitmix64
    /// spreads `--seed` over the per-matrix generator seeds.
    pub fn generate(w: &Workload, seed: u64, callers: usize) -> Inputs {
        let weights = pseudo_random_matrix(w.m, w.k, mix(seed), 1.0);
        let blocks = (0..callers)
            .map(|c| {
                (0..BLOCKS_PER_CALLER)
                    .map(|i| {
                        let key = mix(seed ^ mix(((c as u64) << 32) | (i as u64 + 1)));
                        pseudo_random_matrix(w.k, w.n, key, 1.0)
                    })
                    .collect()
            })
            .collect();
        Inputs { weights, blocks }
    }
}
