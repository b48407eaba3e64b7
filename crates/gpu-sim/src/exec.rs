//! Analytic kernel execution model.
//!
//! Real GPU timings in the paper come from running kernels on hardware.
//! Here, functional results are computed on the CPU and *timing* comes from
//! this model: a roofline-style estimate extended with the effects the
//! paper's evaluation depends on —
//!
//! * the kernel is limited either by tensor-core throughput or by device
//!   memory bandwidth, whichever bound is tighter (Fig. 3);
//! * small problems do not fill the GPU: performance ramps with the number
//!   of thread blocks relative to the number of compute units (left-hand
//!   side of Fig. 4, small receiver counts in Fig. 7);
//! * the last "wave" of thread blocks may leave compute units idle (wave
//!   quantisation), producing the characteristic tail-off;
//! * each kernel launch pays a fixed host-side overhead;
//! * the per-configuration efficiency supplied by the kernel (tile padding,
//!   pipeline depth, per-warp work) scales the achievable compute
//!   throughput — this is where the sawtooth of Figs. 4 and 7 and the
//!   spread of the auto-tuning scatter (Fig. 2) come from.

use crate::device::DeviceSpec;
use crate::memory::MemoryModel;
use serde::{Deserialize, Serialize};

/// Fixed host-side launch overhead per kernel, in seconds.
pub(crate) const LAUNCH_OVERHEAD_S: f64 = 5e-6;

/// Number of resident warps per compute unit needed to hide pipeline
/// latency; below this the tensor cores starve.
pub(crate) const WARPS_PER_CU_FOR_FULL_THROUGHPUT: f64 = 8.0;

/// What a kernel does — determines which throughput ceiling applies and
/// which power calibration point is used.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum KernelKind {
    /// Complex GEMM on the float16 tensor cores.
    GemmF16,
    /// Complex GEMM on the 1-bit tensor cores.
    GemmInt1,
    /// Complex GEMM on the regular float32 cores (the reference/baseline
    /// implementations).
    GemmF32,
    /// 1-bit packing / unpacking kernel (memory bound).
    Pack,
    /// Transpose / tiling kernel (memory bound).
    Transpose,
    /// Plain device-to-device copy.
    Memcpy,
}

impl KernelKind {
    /// Whether this kernel kind performs arithmetic on a compute ceiling
    /// (as opposed to being a pure data-movement kernel).
    pub(crate) fn is_compute(&self) -> bool {
        matches!(
            self,
            KernelKind::GemmF16 | KernelKind::GemmInt1 | KernelKind::GemmF32
        )
    }
}

/// Grid/block launch configuration of a kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Number of thread blocks launched.
    pub blocks: usize,
    /// Threads per block.
    pub threads_per_block: usize,
}

impl LaunchConfig {
    /// Creates a launch configuration.
    pub fn new(blocks: usize, threads_per_block: usize) -> Self {
        LaunchConfig {
            blocks,
            threads_per_block,
        }
    }
}

/// Everything the execution model needs to know about one kernel launch.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Kind of kernel.
    pub kind: KernelKind,
    /// Useful operations performed (the paper's `8·M·N·K` convention for
    /// complex GEMM; zero for data-movement kernels).
    pub useful_ops: f64,
    /// Peak throughput of the relevant execution units for this kernel in
    /// useful TeraOps/s (already accounting for instruction doubling of the
    /// AND formulation and for the WMMA interface efficiency).
    pub peak_tops: f64,
    /// Fraction of `peak_tops` the kernel configuration can reach on an
    /// otherwise idle, fully occupied device (tile padding × pipeline ×
    /// per-warp work efficiency, as computed by the kernel planner).
    pub config_efficiency: f64,
    /// Bytes moved across the device-memory interface.
    pub global_bytes: f64,
    /// Launch configuration.
    pub launch: LaunchConfig,
}

impl KernelProfile {
    /// Profile of a pure data-movement kernel (pack, transpose, memcpy).
    pub fn data_movement(kind: KernelKind, global_bytes: f64, launch: LaunchConfig) -> Self {
        KernelProfile {
            kind,
            useful_ops: 0.0,
            peak_tops: 0.0,
            config_efficiency: 1.0,
            global_bytes,
            launch,
        }
    }
}

/// Timing prediction for one kernel launch.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelTimings {
    /// Time the compute units need, in seconds (zero for data movement).
    pub compute_time_s: f64,
    /// Time the memory system needs, in seconds.
    pub memory_time_s: f64,
    /// Predicted elapsed time including launch overhead, in seconds.
    pub elapsed_s: f64,
    /// Fraction of the elapsed time the compute units are busy.
    pub compute_utilization: f64,
    /// Fraction of the elapsed time the memory interface is busy.
    pub memory_utilization: f64,
    /// Achieved useful throughput in TeraOps/s.
    pub achieved_tops: f64,
}

/// The analytic execution model for one device.
#[derive(Clone, Debug)]
pub struct ExecutionModel {
    spec: DeviceSpec,
    memory: MemoryModel,
}

impl ExecutionModel {
    /// Creates the execution model for a device.
    pub fn new(spec: DeviceSpec) -> Self {
        let memory = MemoryModel::new(spec.clone());
        ExecutionModel { spec, memory }
    }

    /// The device specification this model was built from.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Occupancy factor: how close the launch comes to filling the device.
    ///
    /// Two effects are combined: (1) a launch needs roughly
    /// [`WARPS_PER_CU_FOR_FULL_THROUGHPUT`] resident warps per compute unit
    /// to hide instruction latency, and (2) the final wave of blocks may
    /// occupy only part of the device (wave quantisation).
    pub(crate) fn occupancy(&self, launch: LaunchConfig) -> f64 {
        if launch.blocks == 0 || launch.threads_per_block == 0 {
            return 0.0;
        }
        let cus = self.spec.compute_units as f64;
        let warps_per_block =
            (launch.threads_per_block as f64 / self.spec.warp_size as f64).max(1.0);
        let total_warps = launch.blocks as f64 * warps_per_block;
        let latency_hiding = total_warps / (cus * WARPS_PER_CU_FOR_FULL_THROUGHPUT);
        if latency_hiding < 1.0 {
            // Not enough resident warps to hide instruction latency.
            return latency_hiding;
        }
        // Device is full; the only remaining loss is wave quantisation —
        // the last, partially filled wave of blocks leaves some compute
        // units idle.  Blocks do not finish in lockstep, so the tail wave
        // overlaps with the previous one; model it as costing half a wave.
        let blocks = launch.blocks as f64;
        let full_waves = (blocks / cus).floor();
        let has_tail = blocks > full_waves * cus;
        let effective_waves = if has_tail {
            full_waves + 0.5
        } else {
            full_waves
        };
        (blocks / (effective_waves * cus)).min(1.0)
    }

    /// Predicts the timing of one kernel launch.
    pub fn time(&self, profile: &KernelProfile) -> KernelTimings {
        let memory_time_s = if profile.global_bytes > 0.0 {
            self.memory.streaming_time_s(profile.global_bytes)
        } else {
            0.0
        };

        let compute_time_s = if profile.kind.is_compute() && profile.useful_ops > 0.0 {
            let occupancy = self.occupancy(profile.launch).max(1e-3);
            let sustained =
                profile.peak_tops * 1e12 * profile.config_efficiency.clamp(0.0, 1.0) * occupancy;
            profile.useful_ops / sustained.max(1.0)
        } else {
            0.0
        };

        // Compute and memory overlap; the kernel takes the longer of the
        // two plus the launch overhead.
        let busy = compute_time_s.max(memory_time_s);
        let elapsed_s = busy + LAUNCH_OVERHEAD_S;
        let achieved_tops = if elapsed_s > 0.0 {
            profile.useful_ops / elapsed_s / 1e12
        } else {
            0.0
        };

        KernelTimings {
            compute_time_s,
            memory_time_s,
            elapsed_s,
            compute_utilization: if elapsed_s > 0.0 {
                compute_time_s / elapsed_s
            } else {
                0.0
            },
            memory_utilization: if elapsed_s > 0.0 {
                memory_time_s / elapsed_s
            } else {
                0.0
            },
            achieved_tops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Gpu;
    use proptest::prelude::*;

    fn big_launch(spec: &DeviceSpec) -> LaunchConfig {
        LaunchConfig::new(spec.compute_units * 64, 256)
    }

    #[test]
    fn compute_bound_large_gemm_reaches_calibrated_throughput() {
        let spec = Gpu::A100.spec();
        let model = ExecutionModel::new(spec.clone());
        let ops = 8.0 * 8192f64.powi(3);
        let profile = KernelProfile {
            kind: KernelKind::GemmF16,
            useful_ops: ops,
            peak_tops: spec.f16_tensor_measured,
            config_efficiency: spec.gemm_efficiency_f16,
            global_bytes: 3.0 * 8192.0 * 8192.0 * 4.0,
            launch: big_launch(&spec),
        };
        let t = model.time(&profile);
        assert!(t.memory_time_s <= t.compute_time_s);
        // Achieved throughput within 5% of the Table III value (173 TOPs/s).
        assert!(
            (t.achieved_tops - 173.0).abs() / 173.0 < 0.05,
            "{}",
            t.achieved_tops
        );
    }

    #[test]
    fn small_gemm_is_memory_bound() {
        let spec = Gpu::Gh200.spec();
        let model = ExecutionModel::new(spec.clone());
        // The paper's "float16 small" roofline point: 256×1024×1024×64.
        let shape = tcbf_types::GemmShape::batched(256, 1024, 1024, 64);
        let profile = KernelProfile {
            kind: KernelKind::GemmF16,
            useful_ops: shape.complex_ops() as f64,
            peak_tops: spec.f16_tensor_measured,
            config_efficiency: spec.gemm_efficiency_f16,
            // Both binary16 operands read and the f32 output written once.
            global_bytes: (shape.a_elements() + shape.b_elements()) as f64 * 4.0
                + shape.c_elements() as f64 * 8.0,
            launch: big_launch(&spec),
        };
        let t = model.time(&profile);
        assert!(t.memory_time_s > t.compute_time_s);
        assert!(t.achieved_tops < spec.f16_tensor_measured * 0.5);
    }

    #[test]
    fn occupancy_ramps_with_block_count() {
        let spec = Gpu::Mi300x.spec();
        let model = ExecutionModel::new(spec.clone());
        let small = model.occupancy(LaunchConfig::new(8, 256));
        let medium = model.occupancy(LaunchConfig::new(spec.compute_units, 256));
        let large = model.occupancy(LaunchConfig::new(spec.compute_units * 32, 256));
        assert!(small < medium);
        assert!(medium <= large);
        assert!(large <= 1.0);
        assert_eq!(model.occupancy(LaunchConfig::new(0, 256)), 0.0);
    }

    #[test]
    fn low_occupancy_slows_execution() {
        let spec = Gpu::A100.spec();
        let model = ExecutionModel::new(spec.clone());
        let ops = 8.0 * 1024f64.powi(3);
        let mk_profile = |blocks| KernelProfile {
            kind: KernelKind::GemmF16,
            useful_ops: ops,
            peak_tops: spec.f16_tensor_measured,
            config_efficiency: 1.0,
            global_bytes: 0.0,
            launch: LaunchConfig::new(blocks, 256),
        };
        let slow = model.time(&mk_profile(4));
        let fast = model.time(&mk_profile(4096));
        assert!(slow.elapsed_s > fast.elapsed_s);
    }

    #[test]
    fn data_movement_kernels_are_bandwidth_limited() {
        let spec = Gpu::A100.spec();
        let model = ExecutionModel::new(spec.clone());
        let bytes = 8e9;
        let profile = KernelProfile::data_movement(
            KernelKind::Transpose,
            bytes,
            LaunchConfig::new(2048, 256),
        );
        let t = model.time(&profile);
        let expected = bytes / (spec.mem_bandwidth_gbs * 1e9 * 0.85) + LAUNCH_OVERHEAD_S;
        assert!((t.elapsed_s - expected).abs() / expected < 1e-9);
        assert_eq!(t.compute_time_s, 0.0);
        assert!(t.memory_time_s > t.compute_time_s);
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let spec = Gpu::Gh200.spec();
        let model = ExecutionModel::new(spec.clone());
        let profile =
            KernelProfile::data_movement(KernelKind::Memcpy, 1024.0, LaunchConfig::new(1, 32));
        let t = model.time(&profile);
        assert!(t.elapsed_s >= LAUNCH_OVERHEAD_S);
        assert!(t.elapsed_s < 2.0 * LAUNCH_OVERHEAD_S);
    }

    proptest! {
        #[test]
        fn occupancy_is_within_unit_interval(blocks in 0usize..100_000, tpb in 1usize..1025) {
            for gpu in [Gpu::A100, Gpu::Mi300x, Gpu::W7700] {
                let model = ExecutionModel::new(gpu.spec());
                let o = model.occupancy(LaunchConfig::new(blocks, tpb));
                prop_assert!((0.0..=1.0).contains(&o));
            }
        }

        #[test]
        fn more_efficient_configs_are_never_slower(
            eff_lo in 0.05f64..0.5, eff_delta in 0.0f64..0.5,
        ) {
            let spec = Gpu::A100.spec();
            let model = ExecutionModel::new(spec.clone());
            let mk = |eff| KernelProfile {
                kind: KernelKind::GemmF16,
                useful_ops: 1e12,
                peak_tops: spec.f16_tensor_measured,
                config_efficiency: eff,
                global_bytes: 1e9,
                launch: LaunchConfig::new(4096, 256),
            };
            let slow = model.time(&mk(eff_lo));
            let fast = model.time(&mk(eff_lo + eff_delta));
            prop_assert!(fast.elapsed_s <= slow.elapsed_s + 1e-12);
        }
    }
}
