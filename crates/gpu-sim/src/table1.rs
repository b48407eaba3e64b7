//! Tensor-core micro-benchmarks: the paper's Table I.
//!
//! The paper's peak-rate library launches kernels that keep the tensor
//! cores busy from registers only, so that the measured throughput is the
//! compute ceiling rather than a memory-bandwidth artefact.  The simulated
//! equivalent reports the sustained-throughput numbers of the device
//! catalog, which were taken from Table I of the paper.  Each result
//! carries both the measured and the theoretical value so the Table I
//! "measured / theoretical" columns can be regenerated directly.

use crate::{BitFragmentShape, BitOp, DeviceSpec, FragmentShape, Gpu};
use serde::{Deserialize, Serialize};

/// The precision / fragment / operand combination of one Table I row.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum BenchmarkCase {
    /// float16 inputs, float32 accumulation, 16×16×16 fragments.
    Float16,
    /// 1-bit inputs, 32-bit integer accumulation.
    Int1 {
        /// Fragment layout.
        fragment: BitFragmentShape,
        /// Bitwise operand.
        op: BitOp,
    },
}

impl BenchmarkCase {
    /// All cases of Table I, in row order.
    pub(crate) fn table1_cases() -> Vec<BenchmarkCase> {
        let mut cases = vec![BenchmarkCase::Float16];
        for fragment in [BitFragmentShape::M8N8K128, BitFragmentShape::M16N8K256] {
            for op in [BitOp::Xor, BitOp::And] {
                cases.push(BenchmarkCase::Int1 { fragment, op });
            }
        }
        cases
    }

    /// Human-readable input/output type column of Table I.
    pub fn type_label(&self) -> String {
        match self {
            BenchmarkCase::Float16 => "float16 / float32".to_string(),
            BenchmarkCase::Int1 { op, .. } => format!("int1 / int32 ({op})"),
        }
    }

    /// Fragment-size column of Table I.
    pub fn fragment_label(&self) -> String {
        match self {
            BenchmarkCase::Float16 => FragmentShape::M16N16K16.to_string(),
            BenchmarkCase::Int1 { fragment, .. } => fragment.to_string(),
        }
    }
}

/// Result of one micro-benchmark on one device.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PeakResult {
    /// Device short name.
    pub device: String,
    /// Benchmark case.
    pub case: BenchmarkCase,
    /// Measured tensor-core throughput in TeraOps/s (instruction
    /// throughput; for the AND formulation this counts issued operations,
    /// as the hardware counter would).
    pub measured_tops: Option<f64>,
    /// Theoretical peak at specification clock in TeraOps/s, when the
    /// vendor publishes one.
    pub theoretical_tops: Option<f64>,
}

/// Runs one micro-benchmark case on one device.
///
/// Returns `None` for combinations the device does not support (1-bit
/// precision on AMD GPUs).
pub(crate) fn run_case(spec: &DeviceSpec, case: BenchmarkCase) -> Option<PeakResult> {
    let (measured, theoretical) = match case {
        BenchmarkCase::Float16 => (
            Some(spec.f16_tensor_measured),
            Some(spec.f16_tensor_theoretical),
        ),
        BenchmarkCase::Int1 { fragment, op } => {
            let peaks = spec.int1.as_ref()?;
            (Some(peaks.measured(fragment, op)), Some(peaks.theoretical))
        }
    };
    Some(PeakResult {
        device: spec.gpu.name().to_string(),
        case,
        measured_tops: measured,
        theoretical_tops: theoretical,
    })
}

/// Regenerates the full Table I: one entry per (case, device), with `None`
/// marking the N/A cells of the paper's table.
pub fn table1() -> Vec<(BenchmarkCase, Vec<Option<PeakResult>>)> {
    BenchmarkCase::table1_cases()
        .into_iter()
        .map(|case| {
            let row = Gpu::ALL
                .iter()
                .map(|gpu| run_case(&gpu.spec(), case))
                .collect();
            (case, row)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Measured over theoretical throughput.
    fn fraction_of_peak(result: &PeakResult) -> f64 {
        result.measured_tops.unwrap() / result.theoretical_tops.unwrap()
    }

    #[test]
    fn table1_has_five_rows_and_seven_columns() {
        let table = table1();
        assert_eq!(table.len(), 5);
        for (_, row) in &table {
            assert_eq!(row.len(), 7);
        }
        // float16 row has no N/A cells; int1 rows are N/A on the four AMD
        // devices.
        assert!(table[0].1.iter().all(Option::is_some));
        for (_, row) in &table[1..] {
            assert_eq!(row.iter().filter(|c| c.is_some()).count(), 3);
        }
    }

    #[test]
    fn measured_values_match_table1() {
        let a100 = Gpu::A100.spec();
        let f16 = run_case(&a100, BenchmarkCase::Float16).unwrap();
        assert_eq!(f16.measured_tops, Some(308.0));
        assert_eq!(f16.theoretical_tops, Some(312.0));
        let large_xor = run_case(
            &a100,
            BenchmarkCase::Int1 {
                fragment: BitFragmentShape::M16N8K256,
                op: BitOp::Xor,
            },
        )
        .unwrap();
        assert_eq!(large_xor.measured_tops, Some(4942.0));
        assert!((fraction_of_peak(&large_xor) - 4942.0 / 4992.0).abs() < 1e-9);
    }

    #[test]
    fn amd_devices_skip_int1() {
        let mi300 = Gpu::Mi300x.spec();
        assert!(run_case(
            &mi300,
            BenchmarkCase::Int1 {
                fragment: BitFragmentShape::M8N8K128,
                op: BitOp::Xor
            }
        )
        .is_none());
        let supported = |spec| {
            let cases = BenchmarkCase::table1_cases().into_iter();
            cases.filter_map(|c| run_case(&spec, c)).count()
        };
        assert_eq!(supported(mi300), 1);
        assert_eq!(supported(Gpu::Gh200.spec()), 5);
    }

    #[test]
    fn gh200_falls_short_of_peak_through_wmma() {
        // The paper: the GH200 reaches only ~65% of its peak through the
        // WMMA interface.
        let gh = Gpu::Gh200.spec();
        let f16 = run_case(&gh, BenchmarkCase::Float16).unwrap();
        let frac = fraction_of_peak(&f16);
        assert!((0.6..0.7).contains(&frac), "fraction {frac}");
        // Workstation boards boost beyond spec and exceed 1.0.
        let ad = run_case(&Gpu::Ad4000.spec(), BenchmarkCase::Float16).unwrap();
        assert!(fraction_of_peak(&ad) > 1.0);
    }

    #[test]
    fn large_fragment_never_slower_than_small() {
        for gpu in Gpu::NVIDIA {
            let spec = gpu.spec();
            for op in [BitOp::Xor, BitOp::And] {
                let small = run_case(
                    &spec,
                    BenchmarkCase::Int1 {
                        fragment: BitFragmentShape::M8N8K128,
                        op,
                    },
                )
                .unwrap();
                let large = run_case(
                    &spec,
                    BenchmarkCase::Int1 {
                        fragment: BitFragmentShape::M16N8K256,
                        op,
                    },
                )
                .unwrap();
                assert!(large.measured_tops >= small.measured_tops, "{gpu} {op}");
            }
        }
    }

    #[test]
    fn xor_is_slow_on_hopper_only() {
        let gh = Gpu::Gh200.spec();
        let xor = run_case(
            &gh,
            BenchmarkCase::Int1 {
                fragment: BitFragmentShape::M16N8K256,
                op: BitOp::Xor,
            },
        )
        .unwrap();
        let and = run_case(
            &gh,
            BenchmarkCase::Int1 {
                fragment: BitFragmentShape::M16N8K256,
                op: BitOp::And,
            },
        )
        .unwrap();
        assert!(and.measured_tops.unwrap() > 4.0 * xor.measured_tops.unwrap());
        let a100 = Gpu::A100.spec();
        let xor = run_case(
            &a100,
            BenchmarkCase::Int1 {
                fragment: BitFragmentShape::M16N8K256,
                op: BitOp::Xor,
            },
        )
        .unwrap();
        let and = run_case(
            &a100,
            BenchmarkCase::Int1 {
                fragment: BitFragmentShape::M16N8K256,
                op: BitOp::And,
            },
        )
        .unwrap();
        assert_eq!(xor.measured_tops, and.measured_tops);
    }

    #[test]
    fn labels_for_report_formatting() {
        assert_eq!(BenchmarkCase::Float16.type_label(), "float16 / float32");
        assert_eq!(BenchmarkCase::Float16.fragment_label(), "16x16x16");
        let c = BenchmarkCase::Int1 {
            fragment: BitFragmentShape::M16N8K256,
            op: BitOp::And,
        };
        assert_eq!(c.type_label(), "int1 / int32 (AND)");
        assert_eq!(c.fragment_label(), "16x8x256");
    }
}
