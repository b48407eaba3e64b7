//! Memory-hierarchy modelling: shared-memory capacity, data reuse and the
//! multi-stage asynchronous-copy pipeline of Section III-C.
//!
//! "To achieve good performance on tensor cores, it is of utmost importance
//! to ensure the data are efficiently reused throughout the GPU memory
//! hierarchy."  The kernels tile the GEMM per thread block; each block
//! loads an `m_block × k` slice of `A` and a `k × n_block` slice of `B`
//! through shared memory, so the global-memory traffic of the whole GEMM
//! shrinks by the tile sizes.  This module computes:
//!
//! * whether a tile configuration *fits* in shared memory (used by the
//!   planner and tuner to reject invalid configurations);
//! * how many bytes actually cross the device-memory interface for a tiled
//!   GEMM (used by the execution model to decide whether a kernel is
//!   memory-bound);
//! * how much of the copy latency a multi-stage buffer pipeline hides.

use crate::device::DeviceSpec;
use serde::{Deserialize, Serialize};
use tcbf_types::GemmShape;

/// Shared-memory footprint of one thread block for a given tile
/// configuration and input precision.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SharedMemoryPlan {
    /// Bytes for one stage of the `A` tile (complex: both planes).
    pub a_stage_bytes: usize,
    /// Bytes for one stage of the `B` tile.
    pub b_stage_bytes: usize,
    /// Number of pipeline stages (buffers).
    pub stages: usize,
}

impl SharedMemoryPlan {
    /// Computes the footprint for a block tile of `m_block × n_block`
    /// output elements, staged over `k_slice` elements of the reduction
    /// dimension at a time, with `stages` pipeline buffers and
    /// `input_bits_per_component` bits per real scalar.
    pub fn new(
        m_block: usize,
        n_block: usize,
        k_slice: usize,
        stages: usize,
        input_bits_per_component: usize,
    ) -> Self {
        // Complex data: two planes (real + imaginary).
        let bits_per_element = 2 * input_bits_per_component;
        let a_stage_bytes = (m_block * k_slice * bits_per_element).div_ceil(8);
        let b_stage_bytes = (n_block * k_slice * bits_per_element).div_ceil(8);
        SharedMemoryPlan {
            a_stage_bytes,
            b_stage_bytes,
            stages,
        }
    }

    /// Total shared-memory bytes required by the block.
    pub fn total_bytes(&self) -> usize {
        (self.a_stage_bytes + self.b_stage_bytes) * self.stages
    }

    /// Whether the plan fits in the device's per-block shared memory.
    pub fn fits(&self, spec: &DeviceSpec) -> bool {
        self.total_bytes() <= spec.shared_mem_per_block_bytes()
    }
}

/// Device-memory behaviour model.
#[derive(Clone, Debug)]
pub struct MemoryModel {
    spec: DeviceSpec,
}

impl MemoryModel {
    /// Creates a memory model for a device.
    pub fn new(spec: DeviceSpec) -> Self {
        MemoryModel { spec }
    }

    /// Fraction of the theoretical bandwidth that streaming kernels
    /// achieve in practice.  The packing and transpose kernels of ccglib
    /// are "bound by memory bandwidth as they only move data around"; a
    /// well-written streaming kernel typically sustains 80–90 % of the
    /// theoretical number.
    pub(crate) const ACHIEVABLE_BANDWIDTH_FRACTION: f64 = 0.85;

    /// Achievable device-memory bandwidth in bytes per second.
    pub(crate) fn achievable_bandwidth_bytes_per_s(&self) -> f64 {
        self.spec.mem_bandwidth_gbs * 1e9 * Self::ACHIEVABLE_BANDWIDTH_FRACTION
    }

    /// Bytes that cross the device-memory interface for a tiled complex
    /// GEMM.
    ///
    /// Each thread block re-reads the `A` and `B` slices for its tile, but
    /// the blocks of one *wave* (roughly one block per compute unit) run
    /// concurrently and share those slices through the L2 cache, so the
    /// effective reuse tile seen by device memory is the block tile scaled
    /// by the wave extent (√CU along each output dimension).  The output
    /// (complex float32) is written once.
    pub fn gemm_global_bytes(
        &self,
        shape: &GemmShape,
        m_block: usize,
        n_block: usize,
        input_bits_per_component: usize,
    ) -> f64 {
        let bytes_per_input = 2.0 * input_bits_per_component as f64 / 8.0;
        let wave_extent = (self.spec.compute_units as f64).sqrt();
        let m_reuse = ((m_block as f64 * wave_extent) as usize)
            .max(m_block)
            .min(shape.m.max(1));
        let n_reuse = ((n_block as f64 * wave_extent) as usize)
            .max(n_block)
            .min(shape.n.max(1));
        let n_tiles = shape.n.div_ceil(n_reuse) as f64;
        let m_tiles = shape.m.div_ceil(m_reuse) as f64;
        let batch = shape.batch as f64;
        let a_bytes = batch * (shape.m * shape.k) as f64 * bytes_per_input * n_tiles;
        let b_bytes = batch * (shape.k * shape.n) as f64 * bytes_per_input * m_tiles;
        let c_bytes = batch * (shape.m * shape.n) as f64 * 8.0;
        a_bytes + b_bytes + c_bytes
    }

    /// Time in seconds to stream `bytes` through device memory.
    pub(crate) fn streaming_time_s(&self, bytes: f64) -> f64 {
        bytes / self.achievable_bandwidth_bytes_per_s()
    }

    /// Fraction of the global→shared copy latency hidden by a pipeline
    /// with the given number of stages.
    ///
    /// On NVIDIA Ampere and later, asynchronous copies let computation on
    /// one buffer overlap the fill of another: with a single buffer nothing
    /// overlaps, with two buffers roughly half the copy latency is hidden,
    /// and deeper pipelines approach full overlap.  AMD devices have no
    /// `cp.async` equivalent; ccglib forces a single buffer there and the
    /// hardware's wide memory system is modelled as hiding half the
    /// latency through regular latency hiding across warps.
    pub fn copy_overlap_fraction(&self, stages: usize) -> f64 {
        if self.spec.arch.supports_async_copies() {
            match stages {
                0 | 1 => 0.0,
                s => 1.0 - 1.0 / s as f64,
            }
        } else {
            0.5
        }
    }

    /// Effective number of pipeline stages after applying the device
    /// constraints (AMD devices are forced to a single stage because they
    /// lack asynchronous copies).
    pub fn effective_stages(&self, requested: usize) -> usize {
        if self.spec.arch.supports_async_copies() {
            requested.max(1)
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Gpu;
    use proptest::prelude::*;

    /// The touch-once minimum of a float16 GEMM: both binary16 operands
    /// read and the complex f32 output written once.
    fn touch_once_f16_bytes(shape: &GemmShape) -> f64 {
        (shape.a_elements() + shape.b_elements()) as f64 * 4.0 + shape.c_elements() as f64 * 8.0
    }

    #[test]
    fn shared_memory_plan_sizes() {
        // f16 complex: 4 bytes per element.
        let plan = SharedMemoryPlan::new(256, 32, 16, 2, 16);
        assert_eq!(plan.a_stage_bytes, 256 * 16 * 4);
        assert_eq!(plan.b_stage_bytes, 32 * 16 * 4);
        assert_eq!(plan.total_bytes(), 2 * (256 * 16 * 4 + 32 * 16 * 4));
        // 1-bit complex: 2 bits per element.
        let plan1 = SharedMemoryPlan::new(128, 64, 256, 4, 1);
        assert_eq!(plan1.a_stage_bytes, 128 * 256 * 2 / 8);
        assert_eq!(plan1.b_stage_bytes, 64 * 256 * 2 / 8);
    }

    #[test]
    fn fits_respects_device_limit() {
        let a100 = Gpu::A100.spec();
        let w7700 = Gpu::W7700.spec();
        // A big double-buffered f16 tile fits on the A100 (164 KiB) but not
        // within the 64 KiB LDS of the W7700.
        let plan = SharedMemoryPlan::new(256, 128, 32, 2, 16);
        assert!(plan.fits(&a100));
        assert!(!plan.fits(&w7700));
    }

    #[test]
    fn gemm_traffic_shrinks_with_bigger_tiles() {
        let model = MemoryModel::new(Gpu::A100.spec());
        let shape = GemmShape::new(8192, 8192, 8192);
        let small = model.gemm_global_bytes(&shape, 64, 64, 16);
        let large = model.gemm_global_bytes(&shape, 256, 128, 16);
        assert!(large < small);
        // Never below the touch-once minimum.
        assert!(large >= touch_once_f16_bytes(&shape));
    }

    #[test]
    fn copy_overlap_behaviour() {
        let nv = MemoryModel::new(Gpu::A100.spec());
        assert_eq!(nv.copy_overlap_fraction(1), 0.0);
        assert_eq!(nv.copy_overlap_fraction(2), 0.5);
        assert!(nv.copy_overlap_fraction(4) > nv.copy_overlap_fraction(2));
        assert_eq!(nv.effective_stages(4), 4);
        let amd = MemoryModel::new(Gpu::Mi300x.spec());
        assert_eq!(amd.effective_stages(4), 1);
        assert_eq!(amd.copy_overlap_fraction(1), 0.5);
    }

    #[test]
    fn streaming_time_matches_bandwidth() {
        let model = MemoryModel::new(Gpu::Gh200.spec());
        let one_gb = 1e9;
        let t = model.streaming_time_s(one_gb);
        let expected = 1.0 / (4000.0 * 0.85);
        assert!((t - expected).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn traffic_is_monotone_in_tile_size(
            mb_exp in 5usize..9, nb_exp in 5usize..9,
        ) {
            let model = MemoryModel::new(Gpu::A100.spec());
            let shape = GemmShape::new(4096, 4096, 1024);
            let mb = 1 << mb_exp;
            let nb = 1 << nb_exp;
            let t = model.gemm_global_bytes(&shape, mb, nb, 16);
            let t_bigger = model.gemm_global_bytes(&shape, mb * 2, nb * 2, 16);
            prop_assert!(t_bigger <= t);
            prop_assert!(t >= touch_once_f16_bytes(&shape));
        }

        #[test]
        fn overlap_fraction_is_bounded(stages in 0usize..16) {
            for gpu in Gpu::ALL {
                let model = MemoryModel::new(gpu.spec());
                let f = model.copy_overlap_fraction(stages);
                prop_assert!((0.0..1.0).contains(&f));
            }
        }
    }
}
