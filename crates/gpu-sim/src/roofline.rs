//! Roofline model (Fig. 3 of the paper).
//!
//! The roofline plots attainable performance against arithmetic intensity
//! (useful operations per byte of device-memory traffic).  The ceiling is
//! the minimum of the memory roof (bandwidth × intensity) and the compute
//! roof (the measured peak throughput of the execution units in use).  For
//! each GPU the paper draws three compute ceilings: the float16 tensor
//! cores, the 1-bit tensor cores (NVIDIA only) and the regular float32
//! cores for comparison.

use crate::device::DeviceSpec;
use serde::{Deserialize, Serialize};

/// A labelled compute ceiling of the roofline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Ceiling {
    /// Human-readable label ("float16 tensor", "int1 tensor", "float32").
    pub label: String,
    /// Peak throughput in TeraOps/s.
    pub peak_tops: f64,
}

/// Roofline ceilings for one device.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Roofline {
    /// Device name.
    pub device: String,
    /// Theoretical memory bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Compute ceilings, ordered from highest to lowest.
    pub ceilings: Vec<Ceiling>,
}

impl Roofline {
    /// Builds the roofline for a device: float16 tensor ceiling, 1-bit
    /// tensor ceiling (NVIDIA only, using the operand ccglib would select),
    /// and the float32 regular-core ceiling.
    pub(crate) fn for_device(spec: &DeviceSpec) -> Roofline {
        let mut ceilings = vec![Ceiling {
            label: "float16 tensor".to_string(),
            peak_tops: spec.f16_peak_tops(),
        }];
        if let Some(peak) = spec.int1_best_useful_peak_tops() {
            ceilings.push(Ceiling {
                label: "int1 tensor".to_string(),
                peak_tops: peak,
            });
        }
        ceilings.push(Ceiling {
            label: "float32".to_string(),
            peak_tops: spec.fp32_peak_tops(),
        });
        ceilings.sort_by(|a, b| b.peak_tops.total_cmp(&a.peak_tops));
        Roofline {
            device: spec.gpu.name().to_string(),
            mem_bandwidth_gbs: spec.mem_bandwidth_gbs,
            ceilings,
        }
    }

    /// The memory-bound performance limit at a given arithmetic intensity,
    /// in TeraOps/s.
    pub(crate) fn memory_roof_tops(&self, arithmetic_intensity: f64) -> f64 {
        self.mem_bandwidth_gbs * 1e9 * arithmetic_intensity / 1e12
    }

    /// Attainable performance under a named ceiling at a given intensity.
    pub fn attainable_tops(&self, ceiling_label: &str, arithmetic_intensity: f64) -> Option<f64> {
        self.ceilings
            .iter()
            .find(|c| c.label == ceiling_label)
            .map(|c| c.peak_tops.min(self.memory_roof_tops(arithmetic_intensity)))
    }

    /// The intensity at which a ceiling transitions from memory- to
    /// compute-bound (the "ridge point").
    pub fn ridge_point(&self, ceiling_label: &str) -> Option<f64> {
        self.ceilings
            .iter()
            .find(|c| c.label == ceiling_label)
            .map(|c| c.peak_tops * 1e12 / (self.mem_bandwidth_gbs * 1e9))
    }
}

/// The four roofline evaluation shapes used in Section IV-B of the paper.
pub mod eval_shapes {
    use tcbf_types::GemmShape;

    /// float16, small: batch 256, 1024×1024×64 — memory bound everywhere.
    pub fn f16_small() -> GemmShape {
        GemmShape::batched(256, 1024, 1024, 64)
    }

    /// float16, big: 8192×8192×8192 — compute bound everywhere.
    pub fn f16_big() -> GemmShape {
        GemmShape::new(8192, 8192, 8192)
    }

    /// int1, small: batch 256, 1024×1024×256.
    pub fn int1_small() -> GemmShape {
        GemmShape::batched(256, 1024, 1024, 256)
    }

    /// int1, big: 32768×8192×524288.
    pub fn int1_big() -> GemmShape {
        GemmShape::new(32_768, 8192, 524_288)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Gpu;

    #[test]
    fn ceilings_per_vendor() {
        let nv = Roofline::for_device(&Gpu::A100.spec());
        assert_eq!(nv.ceilings.len(), 3);
        assert_eq!(nv.ceilings[0].label, "int1 tensor");
        let amd = Roofline::for_device(&Gpu::Mi300x.spec());
        assert_eq!(amd.ceilings.len(), 2);
        assert_eq!(amd.ceilings[0].label, "float16 tensor");
        assert_eq!(amd.ceilings[1].label, "float32");
    }

    #[test]
    fn tensor_ceiling_above_fp32_ceiling() {
        for gpu in Gpu::ALL {
            let roofline = Roofline::for_device(&gpu.spec());
            let f16 = roofline.attainable_tops("float16 tensor", 1e9).unwrap();
            let f32c = roofline.attainable_tops("float32", 1e9).unwrap();
            assert!(f16 > f32c, "{gpu}");
        }
    }

    #[test]
    fn small_shapes_are_memory_bound_big_shapes_compute_bound() {
        // "For all GPUs, the small matrix size is memory-bound … the larger
        // matrix size is compute bound."
        for gpu in Gpu::ALL {
            let roofline = Roofline::for_device(&gpu.spec());
            let ridge = roofline.ridge_point("float16 tensor").unwrap();
            assert!(
                eval_shapes::f16_small().arithmetic_intensity(16) < ridge,
                "{gpu} small should be memory bound"
            );
            assert!(
                eval_shapes::f16_big().arithmetic_intensity(16) >= ridge,
                "{gpu} big should be compute bound"
            );
        }
        for gpu in Gpu::NVIDIA {
            let roofline = Roofline::for_device(&gpu.spec());
            let ridge = roofline.ridge_point("int1 tensor").unwrap();
            assert!(eval_shapes::int1_small().arithmetic_intensity(1) < ridge);
            assert!(eval_shapes::int1_big().arithmetic_intensity(1) >= ridge);
        }
    }

    #[test]
    fn attainable_is_min_of_roofs() {
        let roofline = Roofline::for_device(&Gpu::Gh200.spec());
        let ridge = roofline.ridge_point("float16 tensor").unwrap();
        // Below the ridge: limited by memory.
        let low = roofline
            .attainable_tops("float16 tensor", ridge / 10.0)
            .unwrap();
        assert!(low < 646.0 * 0.2);
        // Above the ridge: limited by compute.
        let high = roofline
            .attainable_tops("float16 tensor", ridge * 10.0)
            .unwrap();
        assert_eq!(high, 646.0);
        assert_eq!(roofline.attainable_tops("no such ceiling", 1.0), None);
    }
}
