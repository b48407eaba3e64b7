//! Catalog of the GPUs evaluated in the paper.
//!
//! Each [`DeviceSpec`] records the architectural parameters the execution
//! and power models need: compute-unit counts, clocks, theoretical and
//! *measured* tensor-core peaks (Table I of the paper), FP32 peak, memory
//! bandwidth, shared-memory capacity and power envelope.  Two calibration
//! fields (`gemm_efficiency_*`, `gemm_power_*`) anchor the analytic model
//! to the end-to-end GEMM throughput and power the paper reports in
//! Table III, so the regenerated tables and figures are directly comparable
//! in shape to the published ones.  All other behaviour (occupancy ramps,
//! padding sawtooth, memory-bound regimes, XOR-vs-AND penalties) emerges
//! from the model itself.

use crate::arch::{Architecture, BitOp};
use crate::wmma::BitFragmentShape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of one of the GPUs evaluated in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Gpu {
    /// NVIDIA RTX 4000 Ada (workstation).
    Ad4000,
    /// NVIDIA Tesla A100 (server).
    A100,
    /// NVIDIA Grace Hopper GH200 (server).
    Gh200,
    /// AMD Radeon Pro W7700 (workstation).
    W7700,
    /// AMD Instinct MI210 (server).
    Mi210,
    /// AMD Instinct MI300X (server).
    Mi300x,
    /// AMD Instinct MI300A (server APU).
    Mi300a,
}

impl Gpu {
    /// All GPUs evaluated in the paper, in the order used by its tables.
    pub const ALL: [Gpu; 7] = [
        Gpu::Ad4000,
        Gpu::A100,
        Gpu::Gh200,
        Gpu::W7700,
        Gpu::Mi210,
        Gpu::Mi300x,
        Gpu::Mi300a,
    ];

    /// The NVIDIA subset, the only devices with 1-bit tensor-core support.
    pub const NVIDIA: [Gpu; 3] = [Gpu::Ad4000, Gpu::A100, Gpu::Gh200];

    /// Short display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Gpu::Ad4000 => "AD4000",
            Gpu::A100 => "A100",
            Gpu::Gh200 => "GH200",
            Gpu::W7700 => "W7700",
            Gpu::Mi210 => "MI210",
            Gpu::Mi300x => "MI300X",
            Gpu::Mi300a => "MI300A",
        }
    }

    /// Full specification of this device.
    pub fn spec(self) -> DeviceSpec {
        DeviceSpec::of(self)
    }

    /// Convenience constructor for a simulated device instance.
    pub fn device(self) -> Device {
        Device::new(self.spec())
    }
}

impl fmt::Display for Gpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Measured 1-bit micro-benchmark results for one NVIDIA device
/// (Table I): TOPs/s for both fragment layouts and both bit operations.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Int1Peaks {
    /// Theoretical 1-bit peak at spec clock (TOPs/s).
    pub theoretical: f64,
    /// Measured peak, 8×8×128 fragment, XOR operand.
    pub small_xor: f64,
    /// Measured peak, 8×8×128 fragment, AND operand.
    pub small_and: f64,
    /// Measured peak, 16×8×256 fragment, XOR operand.
    pub large_xor: f64,
    /// Measured peak, 16×8×256 fragment, AND operand.
    pub large_and: f64,
}

impl Int1Peaks {
    /// Measured peak for a given fragment layout and bit operation.
    pub(crate) fn measured(&self, fragment: BitFragmentShape, op: BitOp) -> f64 {
        match (fragment, op) {
            (BitFragmentShape::M8N8K128, BitOp::Xor) => self.small_xor,
            (BitFragmentShape::M8N8K128, BitOp::And) => self.small_and,
            (BitFragmentShape::M16N8K256, BitOp::Xor) => self.large_xor,
            (BitFragmentShape::M16N8K256, BitOp::And) => self.large_and,
        }
    }

    /// The best measured 1-bit throughput across fragments and operands.
    pub fn best(&self) -> f64 {
        self.small_xor
            .max(self.small_and)
            .max(self.large_xor)
            .max(self.large_and)
    }
}

/// Static description of a GPU: everything the simulator needs to model
/// execution time, memory behaviour and power draw.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Which catalog entry this is.
    pub gpu: Gpu,
    /// Marketing name.
    pub name: &'static str,
    /// Architecture generation.
    pub arch: Architecture,
    /// Number of streaming multiprocessors (NVIDIA) or compute units (AMD).
    pub compute_units: usize,
    /// Vendor-specified boost clock in GHz.
    pub spec_clock_ghz: f64,
    /// Clock actually sustained during tensor-core micro-benchmarks, in
    /// GHz.  Workstation parts boost above spec (AD4000, W7700); the
    /// MI300X/A cannot sustain their maximum clock under synthetic load.
    pub sustained_clock_ghz: f64,
    /// Theoretical FP32 (regular core) peak in TFLOP/s — the "float32"
    /// roofline ceiling of Fig. 3 and the baseline the reference
    /// beamformers run on.
    pub fp32_peak_tflops: f64,
    /// Theoretical float16 tensor-core peak in TOP/s at spec clock
    /// (Table I, "theoretical").
    pub f16_tensor_theoretical: f64,
    /// Measured float16 tensor-core peak in TOP/s (Table I, "measured").
    pub f16_tensor_measured: f64,
    /// 1-bit tensor-core peaks; `None` on AMD devices.
    pub int1: Option<Int1Peaks>,
    /// Theoretical device-memory bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Device memory capacity in GiB.
    pub mem_size_gib: f64,
    /// Maximum shared memory (LDS) available to a thread block, in KiB.
    pub shared_mem_per_block_kib: usize,
    /// 32-bit registers available per thread block.
    pub registers_per_block: usize,
    /// Maximum threads per block.
    pub max_threads_per_block: usize,
    /// Warp (NVIDIA) or wavefront (AMD) width.
    pub warp_size: usize,
    /// Board power limit in watts.
    pub tdp_watts: f64,
    /// Idle power in watts.
    pub idle_watts: f64,
    /// Fraction of the *measured* f16 tensor peak that the best tuned
    /// ccglib kernel sustains on large matrices (calibrated to Table III).
    pub gemm_efficiency_f16: f64,
    /// Fraction of the usable 1-bit instruction throughput the best tuned
    /// kernel sustains (calibrated to Table III); `None` on AMD.
    pub gemm_efficiency_int1: Option<f64>,
    /// Average board power while running the tuned f16 GEMM at full
    /// utilisation, in watts (calibrated to Table III TOPs/J).
    pub gemm_power_f16_watts: f64,
    /// Average board power while running the tuned 1-bit GEMM, in watts.
    pub gemm_power_int1_watts: Option<f64>,
}

impl DeviceSpec {
    /// Returns the catalog entry for `gpu`.
    ///
    /// Sources: vendor datasheets for clocks, bandwidth, FP32 peaks and
    /// power limits; Table I of the paper for tensor-core peaks; Table III
    /// for the calibration fields.
    pub fn of(gpu: Gpu) -> DeviceSpec {
        match gpu {
            Gpu::Ad4000 => DeviceSpec {
                gpu,
                name: "NVIDIA RTX 4000 Ada",
                arch: Architecture::Ada,
                compute_units: 48,
                spec_clock_ghz: 2.175,
                sustained_clock_ghz: 2.38, // boosts beyond spec (Table I note a)
                fp32_peak_tflops: 26.7,
                f16_tensor_theoretical: 107.0,
                f16_tensor_measured: 117.0,
                int1: Some(Int1Peaks {
                    theoretical: 1710.0,
                    small_xor: 1847.0,
                    small_and: 1804.0,
                    large_xor: 1865.0,
                    large_and: 1865.0,
                }),
                mem_bandwidth_gbs: 360.0,
                mem_size_gib: 20.0,
                shared_mem_per_block_kib: 100,
                registers_per_block: 65_536,
                max_threads_per_block: 1024,
                warp_size: 32,
                tdp_watts: 130.0,
                idle_watts: 14.0,
                gemm_efficiency_f16: 0.795,
                gemm_efficiency_int1: Some(0.751),
                gemm_power_f16_watts: 133.0,
                gemm_power_int1_watts: Some(131.0),
            },
            Gpu::A100 => DeviceSpec {
                gpu,
                name: "NVIDIA Tesla A100 80GB",
                arch: Architecture::Ampere,
                compute_units: 108,
                spec_clock_ghz: 1.41,
                sustained_clock_ghz: 1.40,
                fp32_peak_tflops: 19.5,
                f16_tensor_theoretical: 312.0,
                f16_tensor_measured: 308.0,
                int1: Some(Int1Peaks {
                    theoretical: 4992.0,
                    small_xor: 2465.0,
                    small_and: 2408.0,
                    large_xor: 4942.0,
                    large_and: 4942.0,
                }),
                mem_bandwidth_gbs: 1935.0,
                mem_size_gib: 80.0,
                shared_mem_per_block_kib: 164,
                registers_per_block: 65_536,
                max_threads_per_block: 1024,
                warp_size: 32,
                tdp_watts: 300.0,
                idle_watts: 45.0,
                gemm_efficiency_f16: 0.562,
                gemm_efficiency_int1: Some(0.623),
                gemm_power_f16_watts: 216.0,
                gemm_power_int1_watts: Some(250.0),
            },
            Gpu::Gh200 => DeviceSpec {
                gpu,
                name: "NVIDIA GH200 Grace Hopper",
                arch: Architecture::Hopper,
                compute_units: 132,
                spec_clock_ghz: 1.98,
                sustained_clock_ghz: 1.83,
                fp32_peak_tflops: 67.0,
                f16_tensor_theoretical: 990.0,
                f16_tensor_measured: 646.0,
                int1: Some(Int1Peaks {
                    // NVIDIA does not publish a 1-bit figure for Hopper;
                    // the paper assumes it scales from float16 like on
                    // Ampere/Ada.
                    theoretical: 15_800.0,
                    small_xor: 979.0,
                    small_and: 3894.0,
                    large_xor: 2361.0,
                    large_and: 10_276.0,
                }),
                mem_bandwidth_gbs: 4000.0,
                mem_size_gib: 96.0,
                shared_mem_per_block_kib: 228,
                registers_per_block: 65_536,
                max_threads_per_block: 1024,
                warp_size: 32,
                tdp_watts: 700.0,
                idle_watts: 90.0,
                gemm_efficiency_f16: 0.519,
                // Best tuned kernel sustains 3780 TOPs/s of *useful* work;
                // the AND formulation issues twice as many instructions, so
                // relative to the usable 10276/2 instruction throughput the
                // efficiency is 0.736.
                gemm_efficiency_int1: Some(0.736),
                gemm_power_f16_watts: 419.0,
                gemm_power_int1_watts: Some(630.0),
            },
            Gpu::W7700 => DeviceSpec {
                gpu,
                name: "AMD Radeon Pro W7700",
                arch: Architecture::Rdna3,
                compute_units: 48,
                spec_clock_ghz: 2.36,
                sustained_clock_ghz: 2.44, // boosts beyond spec (Table I note a)
                fp32_peak_tflops: 28.3,
                f16_tensor_theoretical: 57.0,
                f16_tensor_measured: 59.0,
                int1: None,
                mem_bandwidth_gbs: 576.0,
                mem_size_gib: 16.0,
                shared_mem_per_block_kib: 64,
                registers_per_block: 65_536,
                max_threads_per_block: 1024,
                warp_size: 32,
                tdp_watts: 190.0,
                idle_watts: 18.0,
                gemm_efficiency_f16: 0.763,
                gemm_efficiency_int1: None,
                gemm_power_f16_watts: 150.0,
                gemm_power_int1_watts: None,
            },
            Gpu::Mi210 => DeviceSpec {
                gpu,
                name: "AMD Instinct MI210",
                arch: Architecture::Cdna2,
                compute_units: 104,
                spec_clock_ghz: 1.7,
                sustained_clock_ghz: 1.66,
                fp32_peak_tflops: 22.6,
                f16_tensor_theoretical: 181.0,
                f16_tensor_measured: 174.0,
                int1: None,
                mem_bandwidth_gbs: 1638.0,
                mem_size_gib: 64.0,
                shared_mem_per_block_kib: 64,
                registers_per_block: 65_536,
                max_threads_per_block: 1024,
                warp_size: 64,
                tdp_watts: 300.0,
                idle_watts: 40.0,
                gemm_efficiency_f16: 0.845,
                gemm_efficiency_int1: None,
                gemm_power_f16_watts: 113.0,
                gemm_power_int1_watts: None,
            },
            Gpu::Mi300x => DeviceSpec {
                gpu,
                name: "AMD Instinct MI300X",
                arch: Architecture::Cdna3,
                compute_units: 304,
                spec_clock_ghz: 2.1,
                sustained_clock_ghz: 1.94, // cannot sustain max clock (Table I note b)
                fp32_peak_tflops: 163.4,
                f16_tensor_theoretical: 1307.0,
                f16_tensor_measured: 1205.0,
                int1: None,
                mem_bandwidth_gbs: 5300.0,
                mem_size_gib: 192.0,
                shared_mem_per_block_kib: 64,
                registers_per_block: 65_536,
                max_threads_per_block: 1024,
                warp_size: 64,
                tdp_watts: 750.0,
                idle_watts: 140.0,
                gemm_efficiency_f16: 0.500,
                gemm_efficiency_int1: None,
                gemm_power_f16_watts: 670.0,
                gemm_power_int1_watts: None,
            },
            Gpu::Mi300a => DeviceSpec {
                gpu,
                name: "AMD Instinct MI300A",
                arch: Architecture::Cdna3,
                compute_units: 228,
                spec_clock_ghz: 2.1,
                sustained_clock_ghz: 2.03, // cannot sustain max clock (Table I note b)
                fp32_peak_tflops: 122.6,
                f16_tensor_theoretical: 981.0,
                f16_tensor_measured: 949.0,
                int1: None,
                mem_bandwidth_gbs: 5300.0,
                mem_size_gib: 128.0,
                shared_mem_per_block_kib: 64,
                registers_per_block: 65_536,
                max_threads_per_block: 1024,
                warp_size: 64,
                // Configurable up to 760 W; the default 550 W limit is below
                // the ~648 W average the Table III numbers imply, so the
                // evaluated system ran with the raised limit.
                tdp_watts: 760.0,
                idle_watts: 120.0,
                gemm_efficiency_f16: 0.546,
                gemm_efficiency_int1: None,
                gemm_power_f16_watts: 648.0,
                gemm_power_int1_watts: None,
            },
        }
    }

    /// The full catalog, in the paper's ordering.
    pub fn catalog() -> Vec<DeviceSpec> {
        Gpu::ALL.iter().map(|&g| DeviceSpec::of(g)).collect()
    }

    /// Whether the device supports 1-bit tensor-core operations.
    pub fn supports_int1(&self) -> bool {
        self.int1.is_some()
    }

    /// Measured float16 tensor-core peak in TOP/s (Table I).  This is the
    /// ceiling the GEMM kernels are compared against.
    pub fn f16_peak_tops(&self) -> f64 {
        self.f16_tensor_measured
    }

    /// Measured 1-bit tensor-core *instruction* throughput in TOP/s for a
    /// given fragment and bit operation (Table I), or `None` if the device
    /// has no 1-bit support.
    pub fn int1_peak_tops(&self, fragment: BitFragmentShape, op: BitOp) -> Option<f64> {
        self.int1.as_ref().map(|p| p.measured(fragment, op))
    }

    /// The usable 1-bit throughput in *useful* operations per second for a
    /// given fragment and operand, i.e. the instruction throughput divided
    /// by the number of instructions each logical multiply needs (two for
    /// the AND formulation, Section III-E).
    pub fn int1_useful_peak_tops(&self, fragment: BitFragmentShape, op: BitOp) -> Option<f64> {
        self.int1_peak_tops(fragment, op)
            .map(|t| t / op.instructions_per_multiply() as f64)
    }

    /// The best usable 1-bit throughput over all fragments with the bit
    /// operation ccglib would select on this architecture.
    pub fn int1_best_useful_peak_tops(&self) -> Option<f64> {
        let op = BitOp::preferred_for(self.arch);
        let small = self.int1_useful_peak_tops(BitFragmentShape::M8N8K128, op)?;
        let large = self.int1_useful_peak_tops(BitFragmentShape::M16N8K256, op)?;
        Some(small.max(large))
    }

    /// Theoretical FP32 peak in TOP/s counting each FMA as two operations —
    /// the "normal cores" ceiling of Fig. 3 that the reference beamformers
    /// are bound by.
    pub fn fp32_peak_tops(&self) -> f64 {
        self.fp32_peak_tflops
    }

    /// Shared memory per block in bytes.
    pub(crate) fn shared_mem_per_block_bytes(&self) -> usize {
        self.shared_mem_per_block_kib * 1024
    }
}

/// A simulated GPU instance.
///
/// In the real library this would wrap a CUDA/HIP device handle; here it
/// owns the static spec plus the derived models.  It is cheap to clone and
/// thread-safe to share.
#[derive(Clone, Debug)]
pub struct Device {
    spec: DeviceSpec,
}

impl Device {
    /// Creates a device instance from its specification.
    pub fn new(spec: DeviceSpec) -> Self {
        Device { spec }
    }

    /// The device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Shorthand for the catalog identifier.
    pub fn gpu(&self) -> Gpu {
        self.spec.gpu
    }

    /// The device's architecture.
    pub fn arch(&self) -> Architecture {
        self.spec.arch
    }

    /// Roofline ceilings for this device.
    pub fn roofline(&self) -> crate::roofline::Roofline {
        crate::roofline::Roofline::for_device(&self.spec)
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.spec.name, self.spec.arch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_all_seven_devices() {
        let catalog = DeviceSpec::catalog();
        assert_eq!(catalog.len(), 7);
        let names: Vec<_> = catalog.iter().map(|d| d.gpu.name()).collect();
        assert_eq!(
            names,
            vec!["AD4000", "A100", "GH200", "W7700", "MI210", "MI300X", "MI300A"]
        );
    }

    #[test]
    fn int1_support_matches_vendor() {
        for spec in DeviceSpec::catalog() {
            assert_eq!(
                spec.supports_int1(),
                spec.arch.vendor() == crate::arch::Vendor::Nvidia
            );
        }
    }

    #[test]
    fn table1_f16_values() {
        // Spot-check Table I measured / theoretical float16 numbers.
        assert_eq!(Gpu::Ad4000.spec().f16_tensor_measured, 117.0);
        assert_eq!(Gpu::Ad4000.spec().f16_tensor_theoretical, 107.0);
        assert_eq!(Gpu::A100.spec().f16_tensor_measured, 308.0);
        assert_eq!(Gpu::Gh200.spec().f16_tensor_measured, 646.0);
        assert_eq!(Gpu::Mi300x.spec().f16_tensor_measured, 1205.0);
        assert_eq!(Gpu::Mi300a.spec().f16_tensor_measured, 949.0);
    }

    #[test]
    fn table1_int1_values() {
        let a100 = Gpu::A100.spec();
        let p = a100.int1.unwrap();
        assert_eq!(p.small_xor, 2465.0);
        assert_eq!(p.large_xor, 4942.0);
        assert_eq!(
            a100.int1_peak_tops(BitFragmentShape::M16N8K256, BitOp::And),
            Some(4942.0)
        );
        let gh = Gpu::Gh200.spec();
        // On Hopper AND is much faster than XOR for both fragments.
        assert!(
            gh.int1_peak_tops(BitFragmentShape::M8N8K128, BitOp::And)
                .unwrap()
                > 3.0
                    * gh.int1_peak_tops(BitFragmentShape::M8N8K128, BitOp::Xor)
                        .unwrap()
        );
        assert_eq!(
            Gpu::W7700
                .spec()
                .int1_peak_tops(BitFragmentShape::M8N8K128, BitOp::Xor),
            None
        );
    }

    #[test]
    fn useful_peak_accounts_for_and_instruction_doubling() {
        let gh = Gpu::Gh200.spec();
        let instr = gh
            .int1_peak_tops(BitFragmentShape::M16N8K256, BitOp::And)
            .unwrap();
        let useful = gh
            .int1_useful_peak_tops(BitFragmentShape::M16N8K256, BitOp::And)
            .unwrap();
        assert_eq!(useful, instr / 2.0);
        // On Ampere XOR needs no doubling.
        let a100 = Gpu::A100.spec();
        assert_eq!(
            a100.int1_useful_peak_tops(BitFragmentShape::M16N8K256, BitOp::Xor)
                .unwrap(),
            a100.int1_peak_tops(BitFragmentShape::M16N8K256, BitOp::Xor)
                .unwrap()
        );
    }

    #[test]
    fn best_useful_int1_peak_picks_large_fragment() {
        // "the larger layout is never slower than the smaller one".
        for gpu in Gpu::NVIDIA {
            let spec = gpu.spec();
            let op = BitOp::preferred_for(spec.arch);
            let large = spec
                .int1_useful_peak_tops(BitFragmentShape::M16N8K256, op)
                .unwrap();
            assert_eq!(spec.int1_best_useful_peak_tops().unwrap(), large);
        }
    }

    #[test]
    fn workstation_parts_boost_beyond_spec() {
        let clock_ratio = |gpu: Gpu| gpu.spec().sustained_clock_ghz / gpu.spec().spec_clock_ghz;
        assert!(clock_ratio(Gpu::Ad4000) > 1.0);
        assert!(clock_ratio(Gpu::W7700) > 1.0);
        assert!(clock_ratio(Gpu::Mi300x) < 1.0);
        assert!(clock_ratio(Gpu::Mi300a) < 1.0);
    }

    #[test]
    fn tensor_peak_exceeds_fp32_peak_everywhere() {
        // The whole premise of the paper: tensor cores beat the normal
        // cores by a wide margin.
        for spec in DeviceSpec::catalog() {
            assert!(
                spec.f16_peak_tops() > 2.0 * spec.fp32_peak_tops(),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn calibration_fields_reproduce_table3_throughput() {
        // gemm_efficiency × measured peak ≈ Table III TOPs/s (±2%).
        let expected = [
            (Gpu::Ad4000, 93.0),
            (Gpu::A100, 173.0),
            (Gpu::Gh200, 335.0),
            (Gpu::W7700, 45.0),
            (Gpu::Mi210, 147.0),
            (Gpu::Mi300x, 603.0),
            (Gpu::Mi300a, 518.0),
        ];
        for (gpu, tops) in expected {
            let spec = gpu.spec();
            let achieved = spec.gemm_efficiency_f16 * spec.f16_tensor_measured;
            assert!(
                (achieved - tops).abs() / tops < 0.02,
                "{}: {achieved} vs {tops}",
                spec.name
            );
        }
    }

    #[test]
    fn device_wrappers() {
        let dev = Gpu::A100.device();
        assert_eq!(dev.gpu(), Gpu::A100);
        assert_eq!(dev.arch(), Architecture::Ampere);
        assert!(dev.to_string().contains("A100"));
    }
}
