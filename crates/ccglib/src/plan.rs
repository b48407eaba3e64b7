//! Kernel planning, the performance model, and the user-facing [`Gemm`]
//! handle.
//!
//! On real hardware ccglib compiles its GPU kernel at run time with
//! knowledge of the device and the problem shape, then launches it with the
//! tuned per-GPU parameters.  The simulated equivalent is the
//! [`GemmPlan`]: it selects the tuning parameters (shipped defaults or
//! user-supplied), selects the bit operation and fragment layout for 1-bit
//! mode (AND on Hopper and newer, the 16×8×256 fragment whenever
//! available), checks the configuration against the device limits, and
//! derives the *configuration efficiency* that feeds the `gpu-sim`
//! execution model.
//!
//! The configuration efficiency is a product of physically motivated
//! factors —
//!
//! * **padding**: the fraction of the padded iteration space that is useful
//!   work (the origin of the sawtooth in Figs. 4 and 7);
//! * **warp-level pipelining**: a warp needs several independent fragment
//!   accumulators in flight to hide the tensor-core latency;
//! * **block-level latency hiding**: a block needs several warps;
//! * **copy pipelining**: with fewer shared-memory stages, less of the
//!   global→shared copy latency can be hidden (and AMD devices are forced
//!   to a single stage);
//!
//! — normalised so that the best configuration on the paper's tuning shape
//! reproduces the end-to-end throughput of Table III (see `DESIGN.md` for
//! the calibration discussion).

use crate::error::{Result, TcbfError};
use crate::gemm::{gemm_dispatch_with, ComplexOutput, GemmInput, Preparation, PreparedOperand};
use crate::params::{ParameterSpace, TuningParameters};
use crate::reference;
use crate::Precision;
use gpu_sim::{
    BitFragmentShape, BitOp, Device, DeviceSpec, ExecutionModel, FragmentShape, KernelKind,
    KernelProfile, KernelTimings, LaunchConfig, MemoryModel, PowerModel,
};
use parking_lot::Mutex;
use pmt::EnergyMeasurement;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use tcbf_types::{GemmShape, TileShape};

/// Memoised best-raw-efficiency values per `(device, precision)`; see
/// [`GemmPlan::best_raw_on_calibration_shape`].
static CALIBRATION_CACHE: Mutex<Option<HashMap<(gpu_sim::Gpu, Precision), f64>>> = Mutex::new(None);

/// Number of cacheable (catalog-spec) parameter-space enumerations
/// performed so far, so that tests can assert the cache actually
/// short-circuits repeated plan construction.
static CALIBRATION_ENUMERATIONS: AtomicUsize = AtomicUsize::new(0);

/// Report of one (simulated) GEMM execution: predicted timings, energy and
/// the derived throughput metrics of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Predicted kernel timings.
    pub predicted: KernelTimings,
    /// Energy measurement over the kernel.
    pub energy: EnergyMeasurement,
    /// Achieved throughput in TeraOps/s (useful operations).
    pub achieved_tops: f64,
    /// Energy efficiency in TeraOps/J.
    pub tops_per_joule: f64,
    /// The modelled device's 1-bit instruction (`GemmPlan::bit_op`; 1-bit
    /// mode only).  It decides no host instruction and no output bit.
    pub bit_op: Option<BitOp>,
}

/// A planned complex GEMM on one device.
#[derive(Clone, Debug)]
pub struct GemmPlan {
    spec: DeviceSpec,
    shape: GemmShape,
    precision: Precision,
    params: TuningParameters,
    bit_op: BitOp,
    bit_fragment: Option<BitFragmentShape>,
    config_efficiency: f64,
}

/// The paper's tuning shape for `precision` — the single source of truth
/// behind both the efficiency-model calibration points and the simulated
/// tuner's search shape (`M = N = K = 8192` for float16; `M = 32768,
/// N = 8192, K = 524288` for 1-bit; the float16 shape for the scalar
/// reference, which shares its calibration point).
pub fn calibration_shape(precision: Precision) -> GemmShape {
    match precision {
        Precision::Int1 => GemmShape::new(32_768, 8192, 524_288),
        _ => GemmShape::new(8192, 8192, 8192),
    }
}

impl GemmPlan {
    /// Plans a GEMM with the shipped per-GPU default parameters.
    pub fn new(device: &Device, shape: GemmShape, precision: Precision) -> Result<Self> {
        let params = TuningParameters::default_for(device.gpu(), precision);
        Self::with_params(device, shape, precision, params)
    }

    /// Plans a GEMM with explicit tuning parameters (used by the
    /// auto-tuner).
    pub fn with_params(
        device: &Device,
        shape: GemmShape,
        precision: Precision,
        params: TuningParameters,
    ) -> Result<Self> {
        let spec = device.spec().clone();
        if precision == Precision::Int1 && !spec.supports_int1() {
            return Err(TcbfError::UnsupportedPrecision {
                device: spec.name.to_string(),
                precision: precision.to_string(),
            });
        }
        if precision.uses_tensor_cores() {
            // The float32 reference path does not use the tensor-core tile
            // parameters (its profile is built directly from the FP32
            // ceiling), so only the tensor-core precisions validate them —
            // and only they are bound by the operand-footprint check.
            params.validate(&spec, precision)?;
            let required = Self::operand_bytes(&shape, precision);
            let available = (spec.mem_size_gib * 1024.0 * 1024.0 * 1024.0) as u128;
            if required > available {
                return Err(TcbfError::OutOfDeviceMemory {
                    shape,
                    required_bytes: required,
                    available_bytes: available,
                });
            }
        }
        let bit_op = BitOp::preferred_for(spec.arch);
        let bit_fragment = if spec.supports_int1() {
            Some(BitFragmentShape::M16N8K256)
        } else {
            None
        };
        let config_efficiency = Self::calibrated_efficiency(&spec, precision, &params, &shape);
        Ok(GemmPlan {
            spec,
            shape,
            precision,
            params,
            bit_op,
            bit_fragment,
            config_efficiency,
        })
    }

    /// Total device-memory footprint of the operands and the output.
    pub(crate) fn operand_bytes(shape: &GemmShape, precision: Precision) -> u128 {
        let bits = precision.input_bits() as u128;
        let a = shape.a_elements() as u128 * 2 * bits / 8;
        let b = shape.b_elements() as u128 * 2 * bits / 8;
        let c = shape.c_elements() as u128 * 8;
        a + b + c
    }

    /// Raw (uncalibrated) efficiency of a configuration for a shape: the
    /// product of the physically motivated factors described in the module
    /// documentation.  Always in `(0, 1]`.
    pub(crate) fn raw_efficiency(
        spec: &DeviceSpec,
        precision: Precision,
        params: &TuningParameters,
        shape: &GemmShape,
    ) -> f64 {
        let (frag_m, frag_n, frag_k) = match precision {
            Precision::Int1 => {
                let f = BitFragmentShape::M16N8K256;
                (f.m(), f.n(), f.k())
            }
            _ => {
                let f = FragmentShape::M16N16K16;
                (f.m(), f.n(), f.k())
            }
        };

        // 1. Padding: fraction of the padded iteration space that is useful.
        let tile = TileShape::new(params.m_per_block, params.n_per_block, frag_k);
        let padding = tile.efficiency(shape);

        // 2. Warp-level pipelining: independent fragment accumulators per warp.
        let frags_per_warp =
            ((params.m_per_warp / frag_m).max(1) * (params.n_per_warp / frag_n).max(1)) as f64;
        let warp_pipeline = (frags_per_warp / 4.0).min(1.0);

        // 3. Block-level latency hiding: warps per block.
        let warps = params.warps_per_block() as f64;
        let block_warps = (warps / 4.0).min(1.0);

        // 4. Copy pipelining: stages of the shared-memory pipeline.
        let memory = MemoryModel::new(spec.clone());
        let stages = memory.effective_stages(params.effective_buffers(spec));
        let overlap = memory.copy_overlap_fraction(stages);
        let copy_pipeline = 1.0 / (1.0 + 0.25 * (1.0 - overlap));

        // 5. K-loop prologue/epilogue: filling and draining the software
        //    pipeline costs a few K-slices of idle tensor-core cycles, which
        //    only amortises once K is much larger than the slice depth.
        //    This is why the LOFAR workload (K = number of stations ≤ 512)
        //    cannot saturate the biggest devices (Section V-B).
        let k_slice = TuningParameters::k_slice(precision) as f64;
        let prologue = k_slice * (stages as f64 + 2.0);
        let k_loop = shape.k as f64 / (shape.k as f64 + prologue);

        (padding * warp_pipeline * block_warps * copy_pipeline * k_loop)
            .clamp(f64::MIN_POSITIVE, 1.0)
    }

    /// Enumerates the paper's search space on the calibration shape and
    /// returns the best raw efficiency (the expensive step plan
    /// construction memoises).
    fn enumerate_best_raw(spec: &DeviceSpec, precision: Precision) -> f64 {
        let calib_shape = calibration_shape(precision);
        ParameterSpace::paper_space()
            .valid_combinations(spec, precision)
            .iter()
            .map(|p| Self::raw_efficiency(spec, precision, p, &calib_shape))
            .fold(f64::MIN_POSITIVE, f64::max)
    }

    /// The best raw efficiency over the paper's search space on the
    /// calibration shape for this precision.
    ///
    /// For a given catalog device the result only depends on
    /// `(gpu, precision)`, so it is memoised process-wide: every plan after
    /// the first for such a pair reads the cached value instead of
    /// enumerating the parameter space again.  The lock is held across the
    /// enumeration so each pair is enumerated at most once per process.
    /// Hand-modified [`DeviceSpec`]s (what-if simulations through
    /// [`Device::new`]) bypass the cache entirely and are enumerated from
    /// the spec actually supplied.
    fn best_raw_on_calibration_shape(spec: &DeviceSpec, precision: Precision) -> f64 {
        if *spec != DeviceSpec::of(spec.gpu) {
            return Self::enumerate_best_raw(spec, precision);
        }
        let key = (spec.gpu, precision);
        let mut cache = CALIBRATION_CACHE.lock();
        if let Some(&best) = cache.get_or_insert_with(HashMap::new).get(&key) {
            return best;
        }
        // Only cacheable (catalog-spec) enumerations count: the counter
        // measures cache effectiveness, and keeping bypass-spec runs out of
        // it lets tests assert flatness without racing them.
        CALIBRATION_ENUMERATIONS.fetch_add(1, Ordering::Relaxed);
        let best = Self::enumerate_best_raw(spec, precision);
        cache.get_or_insert_with(HashMap::new).insert(key, best);
        best
    }

    /// Calibrated efficiency: raw efficiency scaled so the best
    /// configuration on the calibration shape reaches the end-to-end
    /// fraction of peak reported in Table III.
    fn calibrated_efficiency(
        spec: &DeviceSpec,
        precision: Precision,
        params: &TuningParameters,
        shape: &GemmShape,
    ) -> f64 {
        let target = match precision {
            Precision::Float16 => spec.gemm_efficiency_f16,
            Precision::Int1 => spec
                .gemm_efficiency_int1
                .unwrap_or(spec.gemm_efficiency_f16),
            Precision::Float32Reference => reference::DEFAULT_REFERENCE_EFFICIENCY,
        };
        let raw = Self::raw_efficiency(spec, precision, params, shape);
        let best = Self::best_raw_on_calibration_shape(spec, precision);
        (raw / best * target).clamp(0.0, 1.0)
    }

    /// The peak useful throughput (TeraOps/s) of the execution units this
    /// plan runs on.
    pub fn peak_tops(&self) -> f64 {
        match self.precision {
            Precision::Float16 => self.spec.f16_peak_tops(),
            Precision::Int1 => self
                .spec
                .int1_useful_peak_tops(
                    self.bit_fragment.unwrap_or(BitFragmentShape::M16N8K256),
                    self.bit_op,
                )
                .unwrap_or(0.0),
            Precision::Float32Reference => self.spec.fp32_peak_tops(),
        }
    }

    /// The kernel profile the execution model times.
    pub(crate) fn kernel_profile(&self) -> KernelProfile {
        if self.precision == Precision::Float32Reference {
            return reference::reference_profile(
                &self.spec,
                &self.shape,
                reference::DEFAULT_REFERENCE_EFFICIENCY,
            );
        }
        let memory = MemoryModel::new(self.spec.clone());
        let global_bytes = memory.gemm_global_bytes(
            &self.shape,
            self.params.m_per_block,
            self.params.n_per_block,
            self.precision.input_bits(),
        );
        let blocks = self.shape.batch
            * self.shape.m.div_ceil(self.params.m_per_block)
            * self.shape.n.div_ceil(self.params.n_per_block);
        let kind = match self.precision {
            Precision::Float16 => KernelKind::GemmF16,
            Precision::Int1 => KernelKind::GemmInt1,
            Precision::Float32Reference => KernelKind::GemmF32,
        };
        KernelProfile {
            kind,
            useful_ops: self.shape.complex_ops() as f64,
            peak_tops: self.peak_tops(),
            config_efficiency: self.config_efficiency,
            global_bytes,
            launch: LaunchConfig::new(blocks.max(1), self.params.threads_per_block(&self.spec)),
        }
    }

    /// Device specification of the plan.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }
    /// Problem shape.
    pub fn shape(&self) -> GemmShape {
        self.shape
    }
    /// Input precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }
    /// Bit operation selected for 1-bit mode (AND on Hopper and newer).
    pub fn bit_op(&self) -> BitOp {
        self.bit_op
    }
    /// Calibrated configuration efficiency.
    pub fn config_efficiency(&self) -> f64 {
        self.config_efficiency
    }
}

/// The user-facing GEMM handle: owns the plan, the execution model and the
/// device's power model, and runs (or predicts) the multiplication.
#[derive(Clone)]
pub struct Gemm {
    plan: GemmPlan,
    exec: ExecutionModel,
    power: PowerModel,
}

impl Gemm {
    /// Creates a GEMM with the shipped per-GPU default parameters.
    pub fn new(device: &Device, shape: GemmShape, precision: Precision) -> Result<Self> {
        let plan = GemmPlan::new(device, shape, precision)?;
        Ok(Self::from_plan(plan))
    }

    /// Creates a GEMM with explicit tuning parameters.
    pub fn with_params(
        device: &Device,
        shape: GemmShape,
        precision: Precision,
        params: TuningParameters,
    ) -> Result<Self> {
        let plan = GemmPlan::with_params(device, shape, precision, params)?;
        Ok(Self::from_plan(plan))
    }

    /// Wraps an existing plan.
    pub fn from_plan(plan: GemmPlan) -> Self {
        let exec = ExecutionModel::new(plan.spec().clone());
        let power = PowerModel::new(plan.spec().clone());
        Gemm { plan, exec, power }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &GemmPlan {
        &self.plan
    }

    fn report(&self, profile: &KernelProfile) -> RunReport {
        let timings = self.exec.time(profile);
        let energy = EnergyMeasurement {
            seconds: timings.elapsed_s,
            joules: self.power.energy_joules(profile.kind, &timings),
        };
        RunReport {
            predicted: timings,
            energy,
            achieved_tops: timings.achieved_tops,
            tops_per_joule: energy.tops_per_joule(profile.useful_ops),
            bit_op: (self.plan.precision() == Precision::Int1).then_some(self.plan.bit_op()),
        }
    }

    /// Predicts performance and energy without computing a functional
    /// result — used for paper-scale problems whose operands would not fit
    /// in host memory.
    pub fn predict(&self) -> RunReport {
        self.report(&self.plan.kernel_profile())
    }

    /// Runs the GEMM on quantised operands and returns the output together
    /// with the run report.  `A` is `M×K`, quantised from a row-major
    /// matrix; `B` is `N×K`, quantised from the
    /// [`transposed`](crate::matrix::HostComplexMatrix::transposed) view of
    /// the `K × N` block, which is its one layout — a `B` quantised any
    /// other way is a [`TcbfError::ShapeMismatch`].
    ///
    /// The plan's batch size must be 1 because only one operand pair is
    /// supplied: batched shapes are modelled ([`Gemm::predict`]), not
    /// executed — run their blocks one by one.
    ///
    /// This builds per call what [`GemmInput::prepare`] builds once; the
    /// output is the same bits either way.
    pub fn run(&self, a: &GemmInput, b_t: &GemmInput) -> Result<(ComplexOutput, RunReport)> {
        self.run_with(a, &Preparation::of(a), b_t)
    }

    /// Runs the GEMM with a pre-prepared `A` operand (bulk-decoded once, or
    /// its 1-bit `re ⊕ im` plane built once, e.g. cached beamforming
    /// weights), skipping that per-call work on the hot path.  Otherwise
    /// identical to [`Gemm::run`], including bit-identical output.
    pub fn run_prepared(
        &self,
        a: &PreparedOperand,
        b_t: &GemmInput,
    ) -> Result<(ComplexOutput, RunReport)> {
        self.run_with(a.input(), a.prepared(), b_t)
    }

    /// The one execution core: checks the operand pair against the plan's
    /// batch, precision and shape, then multiplies it with what `prepared`
    /// holds for the `A` operand.
    fn run_with(
        &self,
        a: &GemmInput,
        prepared: &Preparation,
        b_t: &GemmInput,
    ) -> Result<(ComplexOutput, RunReport)> {
        let shape = self.plan.shape();
        if shape.batch != 1 {
            return Err(TcbfError::ShapeMismatch {
                expected: "batch 1 (batched shapes are modelled, not executed: run the blocks \
                           one by one or call predict)"
                    .to_string(),
                actual: format!("batch {}", shape.batch),
            });
        }
        if a.precision() != self.plan.precision() || b_t.precision() != self.plan.precision() {
            return Err(TcbfError::PrecisionMismatch {
                expected: self.plan.precision().to_string(),
                actual: format!("A {}, B {}", a.precision(), b_t.precision()),
            });
        }
        if a.rows() != shape.m || b_t.rows() != shape.n || a.k() != shape.k || b_t.k() != shape.k {
            return Err(TcbfError::ShapeMismatch {
                expected: format!("A {}x{}, B(T) {}x{}", shape.m, shape.k, shape.n, shape.k),
                actual: format!("A {}x{}, B(T) {}x{}", a.rows(), a.k(), b_t.rows(), b_t.k()),
            });
        }
        let output = gemm_dispatch_with(a, prepared, b_t)?;
        let report = self.report(&self.plan.kernel_profile());
        Ok((output, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::HostComplexMatrix;
    use gpu_sim::Gpu;
    use tcbf_types::Complex;

    /// How many times the calibration search space has been enumerated for a
    /// catalog device in this process.  Stays flat once every catalog
    /// `(device, precision)` pair in use has been seen, no matter how many
    /// plans are constructed; enumerations for hand-modified specs (which
    /// bypass the cache) are not counted.
    fn calibration_enumerations() -> usize {
        CALIBRATION_ENUMERATIONS.load(Ordering::Relaxed)
    }

    fn device(gpu: Gpu) -> Device {
        gpu.device()
    }

    #[test]
    fn unsupported_precision_is_rejected() {
        let dev = device(Gpu::Mi300x);
        let err = GemmPlan::new(&dev, GemmShape::new(64, 64, 64), Precision::Int1).unwrap_err();
        assert!(matches!(err, TcbfError::UnsupportedPrecision { .. }));
    }

    #[test]
    fn oversized_problems_are_rejected() {
        let dev = device(Gpu::W7700);
        // 1e6 × 1e6 f16 output alone is ~8 TB.
        let err = GemmPlan::new(
            &dev,
            GemmShape::new(1_000_000, 1_000_000, 64),
            Precision::Float16,
        )
        .unwrap_err();
        assert!(matches!(err, TcbfError::OutOfDeviceMemory { .. }));
    }

    #[test]
    fn bit_op_selection_follows_architecture() {
        let ampere = GemmPlan::new(
            &device(Gpu::A100),
            GemmShape::new(64, 64, 256),
            Precision::Int1,
        )
        .unwrap();
        assert_eq!(ampere.bit_op(), BitOp::Xor);
        let hopper = GemmPlan::new(
            &device(Gpu::Gh200),
            GemmShape::new(64, 64, 256),
            Precision::Int1,
        )
        .unwrap();
        assert_eq!(hopper.bit_op(), BitOp::And);
        assert_eq!(hopper.bit_fragment, Some(BitFragmentShape::M16N8K256));
    }

    #[test]
    fn calibration_shape_reaches_table3_throughput() {
        for (gpu, expect_tops) in [
            (Gpu::A100, 173.0),
            (Gpu::Gh200, 335.0),
            (Gpu::Mi300x, 603.0),
        ] {
            let dev = device(gpu);
            let gemm = Gemm::new(
                &dev,
                calibration_shape(Precision::Float16),
                Precision::Float16,
            )
            .unwrap();
            let report = gemm.predict();
            assert!(
                (report.achieved_tops - expect_tops).abs() / expect_tops < 0.10,
                "{gpu}: {} vs {expect_tops}",
                report.achieved_tops
            );
        }
    }

    #[test]
    fn int1_calibration_reaches_table3_throughput() {
        for (gpu, expect_tops) in [
            (Gpu::Ad4000, 1400.0),
            (Gpu::A100, 3080.0),
            (Gpu::Gh200, 3780.0),
        ] {
            let dev = device(gpu);
            let gemm =
                Gemm::new(&dev, calibration_shape(Precision::Int1), Precision::Int1).unwrap();
            let report = gemm.predict();
            assert!(
                (report.achieved_tops - expect_tops).abs() / expect_tops < 0.15,
                "{gpu}: {} vs {expect_tops}",
                report.achieved_tops
            );
        }
    }

    #[test]
    fn default_params_beat_or_match_most_alternatives() {
        // The shipped defaults should be near the top of the search space on
        // the calibration shape.
        let dev = device(Gpu::A100);
        let spec = dev.spec();
        let shape = calibration_shape(Precision::Float16);
        let default = TuningParameters::default_for(Gpu::A100, Precision::Float16);
        let default_raw = GemmPlan::raw_efficiency(spec, Precision::Float16, &default, &shape);
        let space = ParameterSpace::paper_space().valid_combinations(spec, Precision::Float16);
        let better = space
            .iter()
            .filter(|p| {
                GemmPlan::raw_efficiency(spec, Precision::Float16, p, &shape) > default_raw + 1e-9
            })
            .count();
        // Allow a few ties/better configs (the model is not a perfect match
        // for the hardware) but the default must be in the top quartile.
        assert!(
            better * 4 < space.len(),
            "default beaten by {better}/{}",
            space.len()
        );
    }

    #[test]
    fn padding_produces_sawtooth() {
        // A shape that is a multiple of the block tile is more efficient
        // than one that is a few elements larger (once the device is full
        // enough that occupancy no longer dominates).
        let dev = device(Gpu::A100);
        let aligned = Gemm::new(&dev, GemmShape::new(4096, 4096, 4096), Precision::Float16)
            .unwrap()
            .predict();
        let ragged = Gemm::new(&dev, GemmShape::new(4100, 4100, 4096), Precision::Float16)
            .unwrap()
            .predict();
        assert!(aligned.achieved_tops > ragged.achieved_tops);
    }

    #[test]
    fn run_validates_and_computes() {
        let dev = device(Gpu::A100);
        let shape = GemmShape::new(16, 8, 64);
        let gemm = Gemm::new(&dev, shape, Precision::Float16).unwrap();
        let a = HostComplexMatrix::from_fn(16, 64, |r, c| {
            Complex::new(r as f32 * 0.1, c as f32 * 0.01)
        });
        let b_t = HostComplexMatrix::from_fn(64, 8, |c, r| {
            Complex::new(0.5 - r as f32 * 0.05, c as f32 * 0.02)
        })
        .transposed();
        let (out, report) = gemm
            .run(&GemmInput::quantise_f16(&a), &GemmInput::quantise_f16(&b_t))
            .unwrap();
        assert_eq!(out.rows(), 16);
        assert_eq!(out.cols(), 8);
        let reference = reference::reference_gemm(&a, &b_t).unwrap();
        assert!(out.max_abs_diff(&reference) < 0.5);
        assert!(report.predicted.elapsed_s > 0.0);
        assert!(report.tops_per_joule > 0.0);
        assert!(report.bit_op.is_none());

        // Wrong operand shape is rejected.
        let bad = HostComplexMatrix::zeros(64, 9).transposed();
        assert!(gemm
            .run(&GemmInput::quantise_f16(&a), &GemmInput::quantise_f16(&bad))
            .is_err());
        // Wrong precision is rejected.
        assert!(gemm
            .run(
                &GemmInput::quantise_f16(&a),
                &GemmInput::quantise_int1(&b_t)
            )
            .is_err());
    }

    #[test]
    fn int1_run_reports_bit_op() {
        let dev = device(Gpu::Gh200);
        let shape = GemmShape::new(8, 8, 128);
        let gemm = Gemm::new(&dev, shape, Precision::Int1).unwrap();
        let a = HostComplexMatrix::from_fn(8, 128, |r, c| {
            Complex::new(((r + c) % 3) as f32 - 1.0, ((r * c) % 5) as f32 - 2.0)
        });
        let b_t = HostComplexMatrix::from_fn(128, 8, |c, r| {
            Complex::new(((r * 2 + c) % 7) as f32 - 3.0, (c % 2) as f32 - 0.5)
        })
        .transposed();
        let (out, report) = gemm
            .run(
                &GemmInput::quantise_int1(&a),
                &GemmInput::quantise_int1(&b_t),
            )
            .unwrap();
        assert_eq!(report.bit_op, Some(BitOp::And));
        // Result must match the ±1 reference.
        let qa = crate::matrix::Int1Matrix::from_host(&a).to_host();
        let qb = crate::matrix::Int1Matrix::from_host(&b_t).to_host();
        let reference = reference::reference_gemm(&qa, &qb).unwrap();
        assert!(out.max_abs_diff(&reference) < 0.5);
    }

    #[test]
    fn batched_shapes_predict_and_point_run_at_predict() {
        let dev = device(Gpu::A100);
        let shape = GemmShape::batched(4, 32, 32, 64);
        let gemm = Gemm::new(&dev, shape, Precision::Float16).unwrap();
        let report = gemm.predict();
        assert!(report.predicted.elapsed_s > 0.0);
        // One report covers the whole batch: its useful-op count (through
        // the achieved throughput and elapsed time) is the batched shape's.
        let ops = report.achieved_tops * 1e12 * report.predicted.elapsed_s;
        let expected_ops = shape.complex_ops() as f64;
        assert!((ops - expected_ops).abs() / expected_ops < 1e-6);
        // LOFAR-like: 1024 beams, 1024 samples, 512 stations, batch 256 —
        // far too big to materialise, but the prediction path handles it.
        let lofar = GemmShape::batched(256, 1024, 1024, 512);
        let paper_scale = Gemm::new(&dev, lofar, Precision::Float16).unwrap();
        assert!(paper_scale.predict().achieved_tops > 10.0);
        let a = GemmInput::quantise_f16(&HostComplexMatrix::zeros(32, 64));
        for result in [gemm.run(&a, &a), gemm.run_prepared(&a.prepare(), &a)] {
            let err = result.unwrap_err();
            assert!(matches!(err, TcbfError::ShapeMismatch { .. }), "{err}");
            let text = err.to_string();
            assert!(
                text.contains("modelled, not executed") && text.contains("predict"),
                "{text}"
            );
        }
    }

    #[test]
    fn calibration_search_is_memoised_across_plan_constructions() {
        // Warm the cache for every (catalog device, precision) pair any
        // test in this process could touch; the cache lock is held across
        // each enumeration, so once all pairs are cached the enumeration
        // counter can no longer move (even with tests running in parallel).
        let shape = GemmShape::new(128, 128, 128);
        let warm_all = || {
            for gpu in Gpu::ALL {
                let dev = device(gpu);
                for precision in [
                    Precision::Float16,
                    Precision::Int1,
                    Precision::Float32Reference,
                ] {
                    let _ = GemmPlan::new(&dev, shape, precision);
                }
            }
        };
        warm_all();
        let warm = calibration_enumerations();
        assert!(warm > 0, "warming must have enumerated at least once");
        warm_all();
        for m in 1..20usize {
            GemmPlan::new(
                &device(Gpu::Ad4000),
                GemmShape::new(m * 16, 128, 128),
                Precision::Float16,
            )
            .unwrap();
        }
        assert_eq!(
            calibration_enumerations(),
            warm,
            "repeated plan construction must not re-enumerate the parameter space"
        );
    }

    #[test]
    fn modified_specs_bypass_the_calibration_cache() {
        // A what-if spec (higher sustained clock than the catalog A100)
        // must be calibrated from the spec actually supplied, not from the
        // cached stock value: a faster clock shifts the predicted
        // throughput of the same shape.
        let stock = Gemm::new(
            &device(Gpu::A100),
            calibration_shape(Precision::Float16),
            Precision::Float16,
        )
        .unwrap()
        .predict();
        let mut spec = DeviceSpec::of(Gpu::A100);
        spec.sustained_clock_ghz *= 1.2;
        spec.f16_tensor_measured *= 1.2;
        let boosted = Gemm::new(
            &Device::new(spec),
            calibration_shape(Precision::Float16),
            Precision::Float16,
        )
        .unwrap()
        .predict();
        assert!(
            boosted.achieved_tops > 1.05 * stock.achieved_tops,
            "boosted {} vs stock {}",
            boosted.achieved_tops,
            stock.achieved_tops
        );
    }

    #[test]
    fn tops_per_joule_matches_table3_on_the_calibration_shape() {
        // Table III: 0.8 TOPs/J on the GH200 in float16.
        let gemm = Gemm::new(
            &device(Gpu::Gh200),
            calibration_shape(Precision::Float16),
            Precision::Float16,
        )
        .unwrap();
        let tpj = gemm.predict().tops_per_joule;
        assert!((tpj - 0.8).abs() < 0.15, "tops/J = {tpj}");
    }
}
