//! Tunable kernel parameters and the tuning search space.
//!
//! The matrix-matrix multiplication kernels are "adaptive in the amount of
//! work per thread block and warp" (Section III-C); the tunable parameters
//! are exactly those of Table III: work per block and per warp along `M`
//! and `N`, and the number of asynchronous-copy pipeline buffers.  ccglib
//! ships a set of per-GPU defaults (the tuned values of Table III) and
//! selects them automatically at run time; the `tuner` crate re-derives
//! them by searching the space defined here.

use crate::error::{Result, TcbfError};
use crate::Precision;
use gpu_sim::{DeviceSpec, Gpu, SharedMemoryPlan};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One configuration of the tunable kernel parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TuningParameters {
    /// Output rows processed per thread block.
    pub m_per_block: usize,
    /// Output rows processed per warp.
    pub m_per_warp: usize,
    /// Output columns processed per thread block.
    pub n_per_block: usize,
    /// Output columns processed per warp.
    pub n_per_warp: usize,
    /// Number of shared-memory pipeline stages (asynchronous-copy
    /// buffers).  Automatically forced to 1 on AMD devices.
    pub buffers: usize,
}

impl TuningParameters {
    /// Creates a parameter set.
    pub const fn new(
        m_per_block: usize,
        m_per_warp: usize,
        n_per_block: usize,
        n_per_warp: usize,
        buffers: usize,
    ) -> Self {
        TuningParameters {
            m_per_block,
            m_per_warp,
            n_per_block,
            n_per_warp,
            buffers,
        }
    }

    /// The K-depth of one shared-memory stage for a precision: two
    /// fragments deep for float16 (32 elements), two 256-bit fragments for
    /// 1-bit (512 samples).
    pub fn k_slice(precision: Precision) -> usize {
        match precision {
            Precision::Float16 | Precision::Float32Reference => 32,
            Precision::Int1 => 512,
        }
    }

    /// Number of warps per thread block implied by the per-block and
    /// per-warp work.
    pub fn warps_per_block(&self) -> usize {
        (self.m_per_block / self.m_per_warp.max(1)).max(1)
            * (self.n_per_block / self.n_per_warp.max(1)).max(1)
    }

    /// Threads per block on a device (warps × warp width).
    pub fn threads_per_block(&self, spec: &DeviceSpec) -> usize {
        self.warps_per_block() * spec.warp_size
    }

    /// 32-bit accumulator registers needed per block: one complex
    /// single-precision accumulator per output element held in registers.
    pub(crate) fn accumulator_registers(&self) -> usize {
        2 * self.m_per_block * self.n_per_block
    }

    /// Shared-memory footprint of this configuration for a precision.
    pub(crate) fn shared_memory_plan(&self, precision: Precision) -> SharedMemoryPlan {
        SharedMemoryPlan::new(
            self.m_per_block,
            self.n_per_block,
            Self::k_slice(precision),
            self.buffers,
            precision.input_bits(),
        )
    }

    /// Checks this configuration against the hard limits of a device;
    /// returns a descriptive error for configurations a real kernel could
    /// not launch with.
    pub(crate) fn validate(&self, spec: &DeviceSpec, precision: Precision) -> Result<()> {
        let invalid = |reason: String| Err(TcbfError::InvalidParameters { reason });
        if self.m_per_warp > self.m_per_block || self.n_per_warp > self.n_per_block {
            return invalid(format!(
                "warp tile {}x{} exceeds block tile {}x{}",
                self.m_per_warp, self.n_per_warp, self.m_per_block, self.n_per_block
            ));
        }
        if !self.m_per_block.is_multiple_of(self.m_per_warp)
            || !self.n_per_block.is_multiple_of(self.n_per_warp)
        {
            return invalid("block tile must be a multiple of the warp tile".to_string());
        }
        if self.buffers == 0 {
            return invalid("at least one pipeline buffer is required".to_string());
        }
        let threads = self.threads_per_block(spec);
        if threads > spec.max_threads_per_block {
            return invalid(format!(
                "{} warps need {} threads, device allows {} per block",
                self.warps_per_block(),
                threads,
                spec.max_threads_per_block
            ));
        }
        if self.accumulator_registers() > spec.registers_per_block {
            return invalid(format!(
                "accumulators need {} registers per block, device has {}",
                self.accumulator_registers(),
                spec.registers_per_block
            ));
        }
        let smem = self.shared_memory_plan(precision);
        if !smem.fits(spec) {
            return invalid(format!(
                "tile needs {} KiB shared memory, device allows {} KiB",
                smem.total_bytes() / 1024,
                spec.shared_mem_per_block_kib
            ));
        }
        Ok(())
    }

    /// The number of pipeline buffers actually used on a device: AMD GPUs
    /// have no asynchronous copies, so ccglib forces a single buffer there
    /// (Section III-C).
    pub(crate) fn effective_buffers(&self, spec: &DeviceSpec) -> usize {
        if spec.arch.supports_async_copies() {
            self.buffers
        } else {
            1
        }
    }

    /// The tuned per-GPU defaults shipped with ccglib (Table III).
    pub fn default_for(gpu: Gpu, precision: Precision) -> TuningParameters {
        match precision {
            Precision::Float16 | Precision::Float32Reference => match gpu {
                Gpu::Ad4000 => TuningParameters::new(256, 32, 32, 32, 2),
                Gpu::A100 => TuningParameters::new(256, 64, 32, 32, 2),
                Gpu::Gh200 => TuningParameters::new(128, 64, 64, 32, 2),
                Gpu::W7700 => TuningParameters::new(256, 128, 64, 16, 1),
                Gpu::Mi210 => TuningParameters::new(128, 64, 64, 32, 1),
                Gpu::Mi300x | Gpu::Mi300a => TuningParameters::new(128, 64, 128, 32, 1),
            },
            Precision::Int1 => match gpu {
                Gpu::Ad4000 => TuningParameters::new(256, 128, 32, 16, 2),
                Gpu::A100 => TuningParameters::new(128, 32, 64, 64, 4),
                Gpu::Gh200 => TuningParameters::new(64, 64, 128, 32, 2),
                // 1-bit mode does not exist on AMD GPUs; fall back to the
                // float16 tile so callers that only need a tile shape (e.g.
                // padding estimates) still get something sensible.
                other => TuningParameters::default_for(other, Precision::Float16),
            },
        }
    }
}

impl fmt::Display for TuningParameters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "block {}x{}, warp {}x{}, {} buffer(s)",
            self.m_per_block, self.n_per_block, self.m_per_warp, self.n_per_warp, self.buffers
        )
    }
}

/// The tuning search space explored by the auto-tuner (Section IV-A).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ParameterSpace {
    /// Candidate values for work per block along M.
    pub m_per_block: Vec<usize>,
    /// Candidate values for work per warp along M.
    pub m_per_warp: Vec<usize>,
    /// Candidate values for work per block along N.
    pub n_per_block: Vec<usize>,
    /// Candidate values for work per warp along N.
    pub n_per_warp: Vec<usize>,
    /// Candidate buffer counts.
    pub buffers: Vec<usize>,
}

impl ParameterSpace {
    /// The search space used for the paper's auto-tuning runs.
    pub fn paper_space() -> Self {
        ParameterSpace {
            m_per_block: vec![64, 128, 256],
            m_per_warp: vec![16, 32, 64, 128],
            n_per_block: vec![32, 64, 128],
            n_per_warp: vec![16, 32, 64],
            buffers: vec![1, 2, 4],
        }
    }

    /// Enumerates every combination in the space, valid or not.
    pub(crate) fn all_combinations(&self) -> Vec<TuningParameters> {
        let mut out = Vec::new();
        for &mb in &self.m_per_block {
            for &mw in &self.m_per_warp {
                for &nb in &self.n_per_block {
                    for &nw in &self.n_per_warp {
                        for &b in &self.buffers {
                            out.push(TuningParameters::new(mb, mw, nb, nw, b));
                        }
                    }
                }
            }
        }
        out
    }

    /// Enumerates only the configurations that are launchable on a device
    /// for a precision.
    pub fn valid_combinations(
        &self,
        spec: &DeviceSpec,
        precision: Precision,
    ) -> Vec<TuningParameters> {
        self.all_combinations()
            .into_iter()
            .filter(|p| p.validate(spec, precision).is_ok())
            .collect()
    }

    /// Size of the unconstrained space.
    pub fn len(&self) -> usize {
        self.m_per_block.len()
            * self.m_per_warp.len()
            * self.n_per_block.len()
            * self.n_per_warp.len()
            * self.buffers.len()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn defaults_match_table3() {
        let p = TuningParameters::default_for(Gpu::Gh200, Precision::Float16);
        assert_eq!(
            (
                p.m_per_block,
                p.m_per_warp,
                p.n_per_block,
                p.n_per_warp,
                p.buffers
            ),
            (128, 64, 64, 32, 2)
        );
        let p = TuningParameters::default_for(Gpu::A100, Precision::Int1);
        assert_eq!(
            (
                p.m_per_block,
                p.m_per_warp,
                p.n_per_block,
                p.n_per_warp,
                p.buffers
            ),
            (128, 32, 64, 64, 4)
        );
        let p = TuningParameters::default_for(Gpu::Mi300x, Precision::Float16);
        assert_eq!((p.m_per_block, p.n_per_block), (128, 128));
        // MI300X and MI300A share optimal parameters, as the paper notes.
        assert_eq!(
            TuningParameters::default_for(Gpu::Mi300x, Precision::Float16),
            TuningParameters::default_for(Gpu::Mi300a, Precision::Float16)
        );
    }

    #[test]
    fn all_table3_defaults_are_valid_on_their_device() {
        for gpu in Gpu::ALL {
            let spec = gpu.spec();
            let p16 = TuningParameters::default_for(gpu, Precision::Float16);
            assert!(
                p16.validate(&spec, Precision::Float16).is_ok(),
                "{gpu} f16: {p16}"
            );
            if spec.supports_int1() {
                let p1 = TuningParameters::default_for(gpu, Precision::Int1);
                assert!(
                    p1.validate(&spec, Precision::Int1).is_ok(),
                    "{gpu} int1: {p1}"
                );
            }
        }
    }

    #[test]
    fn warp_and_thread_accounting() {
        let spec = Gpu::A100.spec();
        let p = TuningParameters::new(128, 64, 64, 32, 2);
        assert_eq!(p.warps_per_block(), 2 * 2);
        assert_eq!(p.threads_per_block(&spec), 4 * 32);
        assert_eq!(p.accumulator_registers(), 2 * 128 * 64);
        let amd = Gpu::Mi210.spec();
        assert_eq!(p.threads_per_block(&amd), 4 * 64);
        assert_eq!(p.effective_buffers(&amd), 1);
        assert_eq!(p.effective_buffers(&spec), 2);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let spec = Gpu::W7700.spec();
        // Warp tile larger than block tile.
        assert!(TuningParameters::new(64, 128, 64, 32, 1)
            .validate(&spec, Precision::Float16)
            .is_err());
        // Non-divisible tiles.
        assert!(TuningParameters::new(96, 64, 64, 32, 1)
            .validate(&spec, Precision::Float16)
            .is_err());
        // Zero buffers.
        assert!(TuningParameters::new(64, 64, 64, 64, 0)
            .validate(&spec, Precision::Float16)
            .is_err());
        // Too much shared memory for the 64 KiB LDS of the W7700.
        assert!(TuningParameters::new(256, 64, 128, 32, 4)
            .validate(&spec, Precision::Float16)
            .is_err());
        // Too many warps per block (64×16 = wait, 256/16 × 128/16 = 128 warps).
        assert!(TuningParameters::new(256, 16, 128, 16, 1)
            .validate(&spec, Precision::Float16)
            .is_err());
    }

    #[test]
    fn paper_space_size_and_filtering() {
        let space = ParameterSpace::paper_space();
        assert_eq!(space.len(), 3 * 4 * 3 * 3 * 3);
        assert_eq!(space.all_combinations().len(), space.len());
        assert!(!space.is_empty());
        for gpu in Gpu::ALL {
            let valid = space.valid_combinations(&gpu.spec(), Precision::Float16);
            assert!(!valid.is_empty(), "{gpu} has no valid configurations");
            assert!(
                valid.len() < space.len(),
                "{gpu} accepted every configuration"
            );
            // The shipped default must be inside the searched space.
            let default = TuningParameters::default_for(gpu, Precision::Float16);
            assert!(
                valid.contains(&default),
                "{gpu} default {default} not in space"
            );
        }
    }

    proptest! {
        #[test]
        fn validated_configs_respect_all_limits(idx in 0usize..324) {
            let space = ParameterSpace::paper_space();
            let combos = space.all_combinations();
            let p = combos[idx % combos.len()];
            for gpu in [Gpu::A100, Gpu::Mi300x, Gpu::W7700] {
                let spec = gpu.spec();
                if p.validate(&spec, Precision::Float16).is_ok() {
                    prop_assert!(p.threads_per_block(&spec) <= spec.max_threads_per_block);
                    prop_assert!(p.accumulator_registers() <= spec.registers_per_block);
                    prop_assert!(p.shared_memory_plan(Precision::Float16).fits(&spec));
                }
            }
        }
    }
}
