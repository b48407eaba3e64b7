//! Power Measurement Toolkit (PMT) analogue.
//!
//! The paper measures GPU energy with PMT [Corda et al. 2022], which reads
//! NVIDIA boards through NVML and AMD boards through rocm-smi and reports
//! the joules and seconds of a measured region.  Here the region is one
//! simulated kernel: `ccglib::Gemm` times it with the `gpu-sim` execution
//! model and integrates `gpu_sim::PowerModel` over it, and an
//! [`EnergyMeasurement`] carries the result together with the paper's
//! derived energy metrics.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use serde::{Deserialize, Serialize};

/// The energy of one measured region (one simulated kernel).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics_follow_the_measurement() {
        let m = EnergyMeasurement {
            seconds: 3.0,
            joules: 300.0,
        };
        assert_eq!(m.average_watts(), 100.0);
        assert_eq!(m.tops_per_joule(3e14), 1.0);
    }

    #[test]
    fn empty_regions_report_zero_not_nan() {
        let m = EnergyMeasurement {
            seconds: 0.0,
            joules: 0.0,
        };
        assert_eq!(m.average_watts(), 0.0);
        assert_eq!(m.tops_per_joule(1e12), 0.0);
    }
}
