//! Power and energy model of the simulated devices.
//!
//! The paper reports energy efficiency (TeraOps/J) next to every
//! performance number; power is measured with the Power Measurement
//! Toolkit through NVML / rocm-smi.  The simulated equivalent models board
//! power as an idle floor plus a dynamic component proportional to how busy
//! the kernel keeps the compute units and the memory interface, anchored to
//! the average GEMM power the paper reports in Table III.

use crate::device::DeviceSpec;
use crate::exec::{KernelKind, KernelTimings};

/// Utilisation-based board power model for one device.
#[derive(Clone, Debug)]
pub struct PowerModel {
    spec: DeviceSpec,
}

impl PowerModel {
    /// Creates the power model for a device.
    pub fn new(spec: DeviceSpec) -> Self {
        PowerModel { spec }
    }

    /// The device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Board power at full utilisation for a given kernel kind, in watts.
    ///
    /// GEMM kernels use the calibration points from Table III of the paper;
    /// data-movement kernels draw roughly 60 % of TDP, which is typical for
    /// bandwidth-bound streaming kernels.
    pub(crate) fn full_load_watts(&self, kind: KernelKind) -> f64 {
        match kind {
            KernelKind::GemmF16 => self.spec.gemm_power_f16_watts,
            KernelKind::GemmInt1 => self
                .spec
                .gemm_power_int1_watts
                .unwrap_or(self.spec.gemm_power_f16_watts),
            KernelKind::GemmF32 => (0.9 * self.spec.tdp_watts).max(self.spec.idle_watts),
            KernelKind::Pack | KernelKind::Transpose | KernelKind::Memcpy => {
                (0.6 * self.spec.tdp_watts).max(self.spec.idle_watts)
            }
        }
    }

    /// Average board power during a kernel with the given timings.
    ///
    /// The dynamic component scales with the busiest of the two resources
    /// (compute or memory); a kernel that keeps the device only half busy
    /// draws roughly half the dynamic power.
    pub(crate) fn average_watts(&self, kind: KernelKind, timings: &KernelTimings) -> f64 {
        let activity = timings
            .compute_utilization
            .max(timings.memory_utilization)
            .clamp(0.0, 1.0);
        let full = self.full_load_watts(kind);
        self.spec.idle_watts + (full - self.spec.idle_watts) * activity
    }

    /// Energy in joules consumed by a kernel with the given timings.
    pub fn energy_joules(&self, kind: KernelKind, timings: &KernelTimings) -> f64 {
        self.average_watts(kind, timings) * timings.elapsed_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Gpu;
    use crate::exec::{ExecutionModel, KernelProfile, LaunchConfig};
    use proptest::prelude::*;

    fn full_util_timings() -> KernelTimings {
        KernelTimings {
            compute_time_s: 1.0,
            memory_time_s: 0.2,
            elapsed_s: 1.0,
            compute_utilization: 1.0,
            memory_utilization: 0.2,
            achieved_tops: 100.0,
        }
    }

    #[test]
    fn full_load_power_matches_table3_calibration() {
        let a100 = PowerModel::new(Gpu::A100.spec());
        assert_eq!(a100.full_load_watts(KernelKind::GemmF16), 216.0);
        assert_eq!(a100.full_load_watts(KernelKind::GemmInt1), 250.0);
        let mi210 = PowerModel::new(Gpu::Mi210.spec());
        // AMD devices have no 1-bit mode: falls back to the f16 point.
        assert_eq!(mi210.full_load_watts(KernelKind::GemmInt1), 113.0);
    }

    #[test]
    fn average_power_interpolates_with_activity() {
        let model = PowerModel::new(Gpu::Gh200.spec());
        let idle = KernelTimings {
            compute_time_s: 0.0,
            memory_time_s: 0.0,
            elapsed_s: 1.0,
            compute_utilization: 0.0,
            memory_utilization: 0.0,
            achieved_tops: 0.0,
        };
        assert_eq!(
            model.average_watts(KernelKind::GemmF16, &idle),
            model.spec().idle_watts
        );
        let busy = full_util_timings();
        assert_eq!(model.average_watts(KernelKind::GemmF16, &busy), 419.0);
    }

    #[test]
    fn energy_is_power_times_time() {
        let model = PowerModel::new(Gpu::Ad4000.spec());
        let t = full_util_timings();
        let e = model.energy_joules(KernelKind::GemmF16, &t);
        assert!((e - 133.0).abs() < 1e-9);
    }

    #[test]
    fn end_to_end_efficiency_close_to_table3() {
        // Run the calibrated large-GEMM profile through the execution and
        // power models and compare TOPs/J to Table III.
        for (gpu, expect) in [(Gpu::A100, 0.8), (Gpu::Mi210, 1.3), (Gpu::Mi300x, 0.9)] {
            let spec = gpu.spec();
            let exec = ExecutionModel::new(spec.clone());
            let power = PowerModel::new(spec.clone());
            let ops = 8.0 * 8192f64.powi(3);
            let profile = KernelProfile {
                kind: KernelKind::GemmF16,
                useful_ops: ops,
                peak_tops: spec.f16_tensor_measured,
                config_efficiency: spec.gemm_efficiency_f16,
                global_bytes: 3.0 * 8192.0 * 8192.0 * 4.0,
                launch: LaunchConfig::new(spec.compute_units * 64, 256),
            };
            let timings = exec.time(&profile);
            let tpj = ops / power.energy_joules(profile.kind, &timings) / 1e12;
            assert!(
                (tpj - expect).abs() / expect < 0.15,
                "{}: {tpj} vs {expect}",
                spec.name
            );
        }
    }

    proptest! {
        #[test]
        fn power_is_between_idle_and_full_load(cu in 0.0f64..1.0, mu in 0.0f64..1.0) {
            for gpu in Gpu::ALL {
                let model = PowerModel::new(gpu.spec());
                let t = KernelTimings {
                    compute_time_s: cu,
                    memory_time_s: mu,
                    elapsed_s: 1.0,
                    compute_utilization: cu,
                    memory_utilization: mu,
                    achieved_tops: 0.0,
                };
                for kind in [KernelKind::GemmF16, KernelKind::GemmInt1, KernelKind::Pack] {
                    let w = model.average_watts(kind, &t);
                    prop_assert!(w >= model.spec().idle_watts - 1e-9);
                    prop_assert!(w <= model.spec().tdp_watts.max(model.full_load_watts(kind)) + 1e-9);
                }
            }
        }
    }
}
