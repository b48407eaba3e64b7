//! Power Measurement Toolkit (PMT) analogue.
//!
//! The paper measures GPU energy with PMT [Corda et al. 2022], which reads
//! NVIDIA boards through NVML and AMD boards through rocm-smi and exposes a
//! simple begin/end interface: read a cumulative state before and after a
//! kernel, subtract, and obtain joules and seconds.
//!
//! The simulated equivalent keeps the same shape of API.  Because kernels
//! here execute against an analytic timing model rather than wall-clock
//! hardware, the meter advances a *virtual clock*: every kernel that the
//! ccglib simulator "runs" is recorded with its predicted timings and the
//! power model's average draw, and measurements integrate those records.
//! The sensor interface (`PowerSensor`) is kept separate from the meter so
//! other backends (e.g. a constant-power dummy sensor for tests, or a real
//! host RAPL reader in the future) can be slotted in, mirroring PMT's
//! plug-in design.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use gpu_sim::{DeviceSpec, KernelKind, KernelTimings, PowerModel};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Cumulative meter state, as returned by [`PowerMeter::read`]: the analogue
/// of PMT's `State` (timestamp + cumulative joules).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MeterState {
    /// Virtual time since meter creation, in seconds.
    pub timestamp_s: f64,
    /// Cumulative energy since meter creation, in joules.
    pub joules: f64,
}

/// Result of measuring a region between two [`MeterState`]s.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EnergyMeasurement {
    /// Elapsed virtual time in seconds.
    pub seconds: f64,
    /// Energy consumed in joules.
    pub joules: f64,
}

impl EnergyMeasurement {
    /// Average power over the measured region, in watts.
    pub fn average_watts(&self) -> f64 {
        if self.seconds > 0.0 {
            self.joules / self.seconds
        } else {
            0.0
        }
    }

    /// Energy efficiency for a region that performed `useful_ops`
    /// operations, in TeraOps per joule — the metric of Table III and of
    /// every energy panel in the paper's figures.
    pub fn tops_per_joule(&self, useful_ops: f64) -> f64 {
        if self.joules > 0.0 {
            useful_ops / self.joules / 1e12
        } else {
            0.0
        }
    }
}

/// A power sensor: anything that can report instantaneous board power.
pub trait PowerSensor: Send + Sync {
    /// Instantaneous power for a given activity level in `[0, 1]` and
    /// kernel kind.
    fn power_watts(&self, kind: KernelKind, activity: f64) -> f64;
}

/// Sensor backed by the simulated device power model — the equivalent of
/// PMT's NVML backend on NVIDIA boards and rocm-smi backend on AMD boards.
#[derive(Clone, Debug)]
struct DevicePowerSensor {
    model: PowerModel,
}

impl PowerSensor for DevicePowerSensor {
    fn power_watts(&self, kind: KernelKind, activity: f64) -> f64 {
        let idle = self.model.idle_watts();
        let full = self.model.full_load_watts(kind);
        idle + (full - idle) * activity.clamp(0.0, 1.0)
    }
}

#[derive(Debug, Default)]
struct MeterInner {
    virtual_time_s: f64,
    joules: f64,
}

/// The power meter: accumulates energy over recorded kernel executions on
/// a virtual clock.
///
/// Thread-safe: the simulator records kernels from wherever it runs them
/// (including Rayon worker threads); measurements read a consistent
/// snapshot.
#[derive(Clone)]
pub struct PowerMeter {
    sensor: Arc<dyn PowerSensor>,
    inner: Arc<Mutex<MeterInner>>,
}

impl PowerMeter {
    /// Creates a meter from a sensor.
    pub fn new(sensor: Arc<dyn PowerSensor>) -> Self {
        PowerMeter {
            sensor,
            inner: Arc::new(Mutex::new(MeterInner::default())),
        }
    }

    /// Creates a meter for a simulated device, reading its power model.
    pub fn for_device(spec: &DeviceSpec) -> Self {
        PowerMeter::new(Arc::new(DevicePowerSensor {
            model: PowerModel::new(spec.clone()),
        }))
    }

    /// Reads the cumulative meter state (the PMT `read()` analogue).
    pub fn read(&self) -> MeterState {
        let inner = self.inner.lock();
        MeterState {
            timestamp_s: inner.virtual_time_s,
            joules: inner.joules,
        }
    }

    /// Records the execution of one simulated kernel: advances the virtual
    /// clock by its elapsed time and integrates its energy.
    pub fn record_kernel(&self, kind: KernelKind, timings: &KernelTimings) -> EnergyMeasurement {
        let activity = timings.compute_utilization.max(timings.memory_utilization);
        let watts = self.sensor.power_watts(kind, activity);
        let joules = watts * timings.elapsed_s;
        let mut inner = self.inner.lock();
        inner.virtual_time_s += timings.elapsed_s;
        inner.joules += joules;
        EnergyMeasurement {
            seconds: timings.elapsed_s,
            joules,
        }
    }

    /// Measures the region between two previously read states.
    pub fn measure(&self, start: MeterState, end: MeterState) -> EnergyMeasurement {
        EnergyMeasurement {
            seconds: (end.timestamp_s - start.timestamp_s).max(0.0),
            joules: (end.joules - start.joules).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{ExecutionModel, Gpu, KernelProfile, LaunchConfig};

    /// A sensor that always reports the same draw.
    struct ConstantPowerSensor {
        watts: f64,
    }

    impl ConstantPowerSensor {
        fn new(watts: f64) -> Self {
            ConstantPowerSensor { watts }
        }
    }

    impl PowerSensor for ConstantPowerSensor {
        fn power_watts(&self, _kind: KernelKind, _activity: f64) -> f64 {
            self.watts
        }
    }

    fn timings(elapsed: f64, cu: f64, mu: f64) -> KernelTimings {
        KernelTimings {
            compute_time_s: cu * elapsed,
            memory_time_s: mu * elapsed,
            elapsed_s: elapsed,
            compute_utilization: cu,
            memory_utilization: mu,
            achieved_tops: 0.0,
        }
    }

    #[test]
    fn constant_sensor_integrates_linearly() {
        let meter = PowerMeter::new(Arc::new(ConstantPowerSensor::new(100.0)));
        let start = meter.read();
        meter.record_kernel(KernelKind::GemmF16, &timings(2.0, 1.0, 0.5));
        meter.record_kernel(KernelKind::Pack, &timings(1.0, 0.0, 0.0));
        let end = meter.read();
        let m = meter.measure(start, end);
        assert_eq!(m.seconds, 3.0);
        assert_eq!(m.joules, 300.0);
        assert_eq!(m.average_watts(), 100.0);
    }

    #[test]
    fn device_sensor_matches_power_model_calibration() {
        let spec = Gpu::A100.spec();
        let meter = PowerMeter::for_device(&spec);
        let m = meter.record_kernel(KernelKind::GemmF16, &timings(1.0, 1.0, 0.3));
        // Full activity → the Table III calibration point (216 W).
        assert!((m.joules - 216.0).abs() < 1e-9);
        let idle_state = meter.read();
        meter.record_kernel(KernelKind::GemmF16, &timings(2.0, 0.0, 0.0));
        let m2 = meter.measure(idle_state, meter.read());
        assert!((m2.average_watts() - spec.idle_watts).abs() < 1e-9);
    }

    #[test]
    fn tops_per_joule_matches_table3_for_calibrated_gemm() {
        let spec = Gpu::Gh200.spec();
        let exec = ExecutionModel::new(spec.clone());
        let meter = PowerMeter::for_device(&spec);
        let ops = 8.0 * 8192f64.powi(3);
        let profile = KernelProfile {
            kind: KernelKind::GemmF16,
            useful_ops: ops,
            peak_tops: spec.f16_tensor_measured,
            config_efficiency: spec.gemm_efficiency_f16,
            global_bytes: 3.0 * 8192.0 * 8192.0 * 4.0,
            launch: LaunchConfig::new(spec.compute_units * 64, 256),
        };
        let t = exec.time(&profile);
        let start = meter.read();
        meter.record_kernel(KernelKind::GemmF16, &t);
        let m = meter.measure(start, meter.read());
        let tpj = m.tops_per_joule(ops);
        // Table III: 0.8 TOPs/J on the GH200 in float16.
        assert!((tpj - 0.8).abs() < 0.15, "tops/J = {tpj}");
    }

    #[test]
    fn virtual_clock_is_monotonic() {
        let meter = PowerMeter::new(Arc::new(ConstantPowerSensor::new(50.0)));
        let mut last = meter.read();
        for _ in 0..5 {
            meter.record_kernel(KernelKind::Pack, &timings(0.1, 0.0, 1.0));
            let now = meter.read();
            assert!(now.timestamp_s > last.timestamp_s);
            assert!(now.joules > last.joules);
            last = now;
        }
    }

    #[test]
    fn measurement_from_unordered_states_is_clamped() {
        let meter = PowerMeter::new(Arc::new(ConstantPowerSensor::new(10.0)));
        let s0 = meter.read();
        meter.record_kernel(KernelKind::Pack, &timings(1.0, 0.0, 0.0));
        let s1 = meter.read();
        let backwards = meter.measure(s1, s0);
        assert_eq!(backwards.seconds, 0.0);
        assert_eq!(backwards.joules, 0.0);
        assert_eq!(backwards.tops_per_joule(1e12), 0.0);
    }

    #[test]
    fn meter_is_shareable_across_threads() {
        let meter = PowerMeter::new(Arc::new(ConstantPowerSensor::new(1.0)));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = meter.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        m.record_kernel(KernelKind::Pack, &timings(0.001, 0.0, 0.0));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let state = meter.read();
        assert!((state.timestamp_s - 0.4).abs() < 1e-9);
        assert!((state.joules - 0.4).abs() < 1e-9);
    }
}
