//! Synthetic vascular flow phantom.
//!
//! The paper's Fig. 6 shows maximum-intensity projections of blood flow in
//! an anaesthetised mouse brain.  That dataset is not public, so the
//! reproduction generates a synthetic phantom with the same structure: a
//! small set of "vessel" voxels carrying a Doppler-modulated flow signal,
//! embedded in a much stronger stationary (tissue) background plus noise —
//! the reason the paper applies Doppler processing *before* the 1-bit sign
//! extraction ("Otherwise, the Doppler signal will be lost in the dominant
//! stationary signals").

use crate::model::{AcousticModel, Voxel};
use ccglib::matrix::HostComplexMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tcbf_types::{Complex, Complex32};

/// A straight vessel segment through the volume.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Vessel {
    /// Start point in metres.
    pub start: [f64; 3],
    /// End point in metres.
    pub end: [f64; 3],
    /// Radius within which voxels belong to the vessel, in metres.
    pub radius: f64,
    /// Doppler frequency of the flow, as a fraction of the frame rate
    /// (cycles per frame).
    pub doppler_cycles_per_frame: f64,
    /// Amplitude of the flow signal.
    pub amplitude: f64,
}

impl Vessel {
    /// Whether a voxel lies inside the vessel.
    pub fn contains(&self, voxel: &Voxel) -> bool {
        let p = [voxel.x, voxel.y, voxel.z];
        let d = [
            self.end[0] - self.start[0],
            self.end[1] - self.start[1],
            self.end[2] - self.start[2],
        ];
        let len_sq = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        let t = if len_sq == 0.0 {
            0.0
        } else {
            (((p[0] - self.start[0]) * d[0]
                + (p[1] - self.start[1]) * d[1]
                + (p[2] - self.start[2]) * d[2])
                / len_sq)
                .clamp(0.0, 1.0)
        };
        let closest = [
            self.start[0] + t * d[0],
            self.start[1] + t * d[1],
            self.start[2] + t * d[2],
        ];
        let dist_sq =
            (p[0] - closest[0]).powi(2) + (p[1] - closest[1]).powi(2) + (p[2] - closest[2]).powi(2);
        dist_sq <= self.radius * self.radius
    }
}

/// A flow phantom: vessels plus stationary tissue background.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlowPhantom {
    /// The vessels carrying flow.
    pub vessels: Vec<Vessel>,
    /// Amplitude of the stationary tissue signal present in every voxel
    /// (typically much larger than the flow amplitude).
    pub tissue_amplitude: f64,
    /// Standard deviation of the measurement noise.
    pub noise_sigma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl FlowPhantom {
    /// A phantom with two crossing vessels inside a box of the given
    /// extent (metres) starting at `depth`, sized to the default voxel
    /// grids used by tests and examples.
    pub fn two_vessels(extent: f64, depth: f64) -> Self {
        FlowPhantom {
            vessels: vec![
                Vessel {
                    start: [-extent / 2.0, 0.0, depth + 0.2 * extent],
                    end: [extent / 2.0, 0.0, depth + 0.8 * extent],
                    radius: extent * 0.08,
                    doppler_cycles_per_frame: 0.23,
                    amplitude: 1.0,
                },
                Vessel {
                    start: [0.0, -extent / 2.0, depth + 0.6 * extent],
                    end: [0.0, extent / 2.0, depth + 0.4 * extent],
                    radius: extent * 0.06,
                    doppler_cycles_per_frame: 0.11,
                    amplitude: 0.7,
                },
            ],
            tissue_amplitude: 20.0,
            noise_sigma: 0.05,
            seed: 99,
        }
    }

    /// Complex amplitude of a voxel at a given frame: stationary tissue
    /// plus, inside a vessel, the Doppler-rotating flow component.
    pub(crate) fn voxel_amplitude(&self, voxel: &Voxel, frame: usize) -> Complex32 {
        let mut value = Complex::new(self.tissue_amplitude as f32, 0.0);
        for vessel in &self.vessels {
            if vessel.contains(voxel) {
                let phase = std::f64::consts::TAU * vessel.doppler_cycles_per_frame * frame as f64;
                value += Complex::from_polar(vessel.amplitude as f32, phase as f32);
            }
        }
        value
    }

    /// Synthesises the measurement matrix for a model and a number of
    /// frames: column `n` is the sum of the forward signals of every voxel
    /// at frame `n`, plus complex noise.  Shape: `K × frames`.
    pub fn measurements(&self, model: &AcousticModel, frames: usize) -> HostComplexMatrix {
        let k = model.config().k_rows();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut data = HostComplexMatrix::zeros(k, frames);
        for frame in 0..frames {
            // Accumulate forward signals of all voxels.
            let mut column = vec![Complex32::ZERO; k];
            for (v_idx, voxel) in model.voxels().iter().enumerate() {
                let amplitude = self.voxel_amplitude(voxel, frame);
                for (row, value) in model.forward(v_idx, amplitude).into_iter().enumerate() {
                    column[row] += value;
                }
            }
            for (row, value) in column.into_iter().enumerate() {
                let noise = Complex::new(
                    (rng.gen::<f32>() - 0.5) * 2.0 * self.noise_sigma as f32,
                    (rng.gen::<f32>() - 0.5) * 2.0 * self.noise_sigma as f32,
                );
                data.set(row, frame, value + noise);
            }
        }
        data
    }
}

/// The ground truth the reconstruction tests score vessel detection against.
#[cfg(test)]
impl FlowPhantom {
    /// Which voxels of a grid are inside any vessel.
    pub(crate) fn vessel_mask(&self, voxels: &[Voxel]) -> Vec<bool> {
        voxels
            .iter()
            .map(|v| self.vessels.iter().any(|vessel| vessel.contains(v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ImagingConfig;

    #[test]
    fn vessel_membership() {
        let vessel = Vessel {
            start: [0.0, 0.0, 0.0],
            end: [0.0, 0.0, 0.01],
            radius: 0.001,
            doppler_cycles_per_frame: 0.1,
            amplitude: 1.0,
        };
        assert!(vessel.contains(&Voxel {
            x: 0.0005,
            y: 0.0,
            z: 0.005
        }));
        assert!(!vessel.contains(&Voxel {
            x: 0.005,
            y: 0.0,
            z: 0.005
        }));
        assert!(!vessel.contains(&Voxel {
            x: 0.0,
            y: 0.0,
            z: 0.02
        }));
    }

    #[test]
    fn phantom_marks_some_but_not_all_voxels_as_vessel() {
        let phantom = FlowPhantom::two_vessels(0.01, 0.02);
        let grid = ImagingConfig::voxel_grid(12, 12, 12, 0.01, 0.02);
        let mask = phantom.vessel_mask(&grid);
        let inside = mask.iter().filter(|&&m| m).count();
        assert!(inside > 0, "no vessel voxels found");
        assert!(inside < grid.len() / 2, "too many vessel voxels: {inside}");
    }

    #[test]
    fn doppler_signal_rotates_only_in_vessels() {
        let phantom = FlowPhantom::two_vessels(0.01, 0.02);
        let inside = Voxel {
            x: 0.0,
            y: 0.0,
            z: 0.025,
        };
        let outside = Voxel {
            x: 0.0049,
            y: 0.0049,
            z: 0.0201,
        };
        assert!(phantom.vessels.iter().any(|v| v.contains(&inside)));
        assert!(!phantom.vessels.iter().any(|v| v.contains(&outside)));
        let a0 = phantom.voxel_amplitude(&inside, 0);
        let a5 = phantom.voxel_amplitude(&inside, 5);
        assert!(
            (a0 - a5).abs() > 1e-3,
            "flow voxel should change between frames"
        );
        let b0 = phantom.voxel_amplitude(&outside, 0);
        let b5 = phantom.voxel_amplitude(&outside, 5);
        assert_eq!(b0, b5, "stationary voxel must not change");
    }

    #[test]
    fn tissue_dominates_flow_amplitude() {
        // The premise for Doppler-before-sign-extraction: stationary signal
        // is much stronger than the flow signal.
        let phantom = FlowPhantom::two_vessels(0.01, 0.02);
        assert!(phantom.tissue_amplitude > 10.0 * phantom.vessels[0].amplitude);
    }

    #[test]
    fn measurements_have_the_gemm_shape_and_are_reproducible() {
        let config = ImagingConfig::small(4, 4, 2);
        let voxels = ImagingConfig::voxel_grid(3, 3, 2, 0.008, 0.02);
        let model = AcousticModel::build(&config, &voxels);
        let phantom = FlowPhantom::two_vessels(0.008, 0.02);
        let m1 = phantom.measurements(&model, 6);
        let m2 = phantom.measurements(&model, 6);
        assert_eq!(m1.rows(), config.k_rows());
        assert_eq!(m1.cols(), 6);
        assert_eq!(m1, m2);
    }
}
