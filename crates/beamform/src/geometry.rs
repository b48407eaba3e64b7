//! Sensor-array geometries and geometric delays.
//!
//! The delay of sensor `k` for a far-field plane wave arriving from angle
//! `θ` is `τ_k = d_k sin θ / c` (Eq. 2 of the paper), with `d_k` the sensor
//! position along the array axis and `c` the propagation speed of the
//! medium (the speed of light for radio waves, the speed of sound for
//! acoustic waves).  Near-field (spherical-wavefront) delays are also
//! provided, as the ultrasound application images sources centimetres from
//! the probe.

use serde::{Deserialize, Serialize};

/// Speed of light in vacuum, m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;
/// Speed of sound in soft tissue, m/s (the usual ultrasound assumption).
pub const SPEED_OF_SOUND_TISSUE: f64 = 1540.0;

/// Positions of the sensors of an array, in metres.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArrayGeometry {
    /// Sensor positions as (x, y, z) triples.
    positions: Vec<[f64; 3]>,
    /// Propagation speed of the medium in m/s.
    wave_speed: f64,
}

impl ArrayGeometry {
    /// Creates a geometry from explicit positions.
    pub fn new(positions: Vec<[f64; 3]>, wave_speed: f64) -> Self {
        assert!(wave_speed > 0.0, "wave speed must be positive");
        assert!(!positions.is_empty(), "an array needs at least one sensor");
        ArrayGeometry {
            positions,
            wave_speed,
        }
    }

    /// A uniform linear array of `n` sensors spaced `spacing` metres apart
    /// along the x axis, centred on the origin.
    pub fn uniform_linear(n: usize, spacing: f64, wave_speed: f64) -> Self {
        assert!(n > 0);
        let centre = (n as f64 - 1.0) / 2.0;
        let positions = (0..n)
            .map(|k| [(k as f64 - centre) * spacing, 0.0, 0.0])
            .collect();
        ArrayGeometry::new(positions, wave_speed)
    }

    /// Number of sensors (the `K` of the GEMM mapping).
    pub(crate) fn num_sensors(&self) -> usize {
        self.positions.len()
    }

    /// Sensor positions.
    pub fn positions(&self) -> &[[f64; 3]] {
        &self.positions
    }

    /// Propagation speed in the medium.
    pub fn wave_speed(&self) -> f64 {
        self.wave_speed
    }

    /// Far-field delay of every sensor for a plane wave arriving from
    /// `azimuth` (radians, measured from broadside in the x–z plane):
    /// `τ_k = x_k sin θ / c` (Eq. 2).
    pub(crate) fn far_field_delays(&self, azimuth: f64) -> Vec<f64> {
        self.positions
            .iter()
            .map(|p| p[0] * azimuth.sin() / self.wave_speed)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn linear_array_is_centred_and_spaced() {
        let array = ArrayGeometry::uniform_linear(5, 0.5, SPEED_OF_LIGHT);
        assert_eq!(array.num_sensors(), 5);
        assert_eq!(array.positions()[2], [0.0, 0.0, 0.0]);
        assert_eq!(array.positions()[0][0], -1.0);
        assert_eq!(array.positions()[4][0], 1.0);
    }

    #[test]
    fn broadside_plane_wave_has_zero_delays() {
        let array = ArrayGeometry::uniform_linear(16, 1.0, SPEED_OF_LIGHT);
        let delays = array.far_field_delays(0.0);
        assert!(delays.iter().all(|&d| d.abs() < 1e-18));
    }

    #[test]
    fn endfire_delays_match_hand_computation() {
        // θ = 90°: τ_k = x_k / c.
        let array = ArrayGeometry::uniform_linear(3, 30.0, SPEED_OF_LIGHT);
        let delays = array.far_field_delays(std::f64::consts::FRAC_PI_2);
        assert!((delays[0] - (-30.0 / SPEED_OF_LIGHT)).abs() < 1e-15);
        assert!((delays[2] - (30.0 / SPEED_OF_LIGHT)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "wave speed must be positive")]
    fn invalid_wave_speed_panics() {
        ArrayGeometry::new(vec![[0.0; 3]], 0.0);
    }

    proptest! {
        #[test]
        fn delays_are_bounded_by_aperture(n in 2usize..32, spacing in 1e-3f64..1.0, angle in -1.5f64..1.5) {
            let array = ArrayGeometry::uniform_linear(n, spacing, SPEED_OF_LIGHT);
            let delays = array.far_field_delays(angle);
            let aperture = (n - 1) as f64 * spacing;
            let bound = aperture / SPEED_OF_LIGHT;
            for d in delays {
                prop_assert!(d.abs() <= bound + 1e-18);
            }
        }

        #[test]
        fn far_field_delay_is_antisymmetric_in_angle(angle in -1.5f64..1.5) {
            let array = ArrayGeometry::uniform_linear(9, 0.1, SPEED_OF_SOUND_TISSUE);
            let pos = array.far_field_delays(angle);
            let neg = array.far_field_delays(-angle);
            for (a, b) in pos.iter().zip(&neg) {
                prop_assert!((a + b).abs() < 1e-15);
            }
        }
    }
}
