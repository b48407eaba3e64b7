//! Synthetic narrowband signal generation.
//!
//! The evaluation data of the paper comes from real instruments (LOFAR
//! beamlets, an ultrasound probe).  Those are not available here, so the
//! applications are driven by synthetic sensor data with the same
//! structure: narrowband complex baseband samples of one or more plane-wave
//! sources plus complex Gaussian noise, sampled by every sensor of an
//! array (Eq. 1 of the paper: `x_k(t) = s(t − τ_k) + σ_k(t)`).

use crate::geometry::ArrayGeometry;
use ccglib::matrix::HostComplexMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tcbf_types::{Complex, Complex32};

/// A far-field plane-wave source.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlaneWaveSource {
    /// Arrival angle in radians from broadside.
    pub azimuth: f64,
    /// Amplitude of the source.
    pub amplitude: f64,
    /// Baseband frequency of the source signal in Hz (the slow modulation
    /// on top of the carrier).
    pub baseband_frequency: f64,
}

/// Generator of synthetic sensor samples.
#[derive(Clone, Debug)]
pub struct SignalGenerator {
    geometry: ArrayGeometry,
    carrier_frequency: f64,
    sample_rate: f64,
    noise_sigma: f64,
    rng: StdRng,
}

impl SignalGenerator {
    /// Creates a generator for an array observing at `carrier_frequency`
    /// (Hz) with complex sampling at `sample_rate` (Hz) and per-sensor
    /// noise standard deviation `noise_sigma`.
    pub fn new(
        geometry: ArrayGeometry,
        carrier_frequency: f64,
        sample_rate: f64,
        noise_sigma: f64,
        seed: u64,
    ) -> Self {
        assert!(carrier_frequency > 0.0 && sample_rate > 0.0);
        assert!(noise_sigma >= 0.0);
        SignalGenerator {
            geometry,
            carrier_frequency,
            sample_rate,
            noise_sigma,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The array geometry driving the generator.
    pub fn geometry(&self) -> &ArrayGeometry {
        &self.geometry
    }

    /// Approximately standard-normal complex noise sample (two uniform
    /// 12-term sums; good enough for SNR bookkeeping without pulling in a
    /// distributions crate).
    fn noise(&mut self) -> Complex32 {
        let n = |rng: &mut StdRng| -> f32 {
            let sum: f32 = (0..12).map(|_| rng.gen::<f32>()).sum();
            sum - 6.0
        };
        let re = n(&mut self.rng);
        let im = n(&mut self.rng);
        Complex::new(re, im).scale(self.noise_sigma as f32 / std::f32::consts::SQRT_2)
    }

    /// Generates the `K × N` sensor-sample matrix for `num_samples` time
    /// samples of the given sources: row `k` holds the complex baseband
    /// samples of sensor `k` (Eq. 1).
    ///
    /// Narrowband model: the geometric delay appears as a phase rotation of
    /// the carrier, `exp(−2πi f_c τ_k)`, while the baseband envelope is
    /// common to all sensors.
    pub fn sensor_samples(
        &mut self,
        sources: &[PlaneWaveSource],
        num_samples: usize,
    ) -> HostComplexMatrix {
        let k = self.geometry.num_sensors();
        let mut data = HostComplexMatrix::zeros(k, num_samples);
        // Per-source, per-sensor carrier phase from the geometric delay.
        let phases: Vec<Vec<Complex32>> = sources
            .iter()
            .map(|s| {
                self.geometry
                    .far_field_delays(s.azimuth)
                    .iter()
                    .map(|&tau| {
                        let phi = -2.0 * std::f64::consts::PI * self.carrier_frequency * tau;
                        Complex::from_polar(1.0, phi as f32)
                    })
                    .collect()
            })
            .collect();
        for n in 0..num_samples {
            let t = n as f64 / self.sample_rate;
            // Common baseband envelopes.
            let envelopes: Vec<Complex32> = sources
                .iter()
                .map(|s| {
                    let phi = 2.0 * std::f64::consts::PI * s.baseband_frequency * t;
                    Complex::from_polar(s.amplitude as f32, phi as f32)
                })
                .collect();
            for sensor in 0..k {
                let mut v = Complex32::ZERO;
                for (envelope, phase_row) in envelopes.iter().zip(&phases) {
                    v += *envelope * phase_row[sensor];
                }
                v += self.noise();
                data.set(sensor, n, v);
            }
        }
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::SPEED_OF_LIGHT;

    fn test_array() -> ArrayGeometry {
        // Half-wavelength spacing at 150 MHz (LOFAR high band is near this).
        let wavelength = SPEED_OF_LIGHT / 150e6;
        ArrayGeometry::uniform_linear(16, wavelength / 2.0, SPEED_OF_LIGHT)
    }

    #[test]
    fn noiseless_broadside_source_is_in_phase_on_all_sensors() {
        let mut generator = SignalGenerator::new(test_array(), 150e6, 1e5, 0.0, 1);
        let source = PlaneWaveSource {
            azimuth: 0.0,
            amplitude: 1.0,
            baseband_frequency: 0.0,
        };
        let samples = generator.sensor_samples(&[source], 4);
        for n in 0..4 {
            for k in 0..16 {
                let v = samples.get(k, n);
                assert!((v.re - 1.0).abs() < 1e-5 && v.im.abs() < 1e-5);
            }
        }
    }

    #[test]
    fn off_axis_source_produces_phase_gradient() {
        let mut generator = SignalGenerator::new(test_array(), 150e6, 1e5, 0.0, 1);
        let source = PlaneWaveSource {
            azimuth: 0.3,
            amplitude: 1.0,
            baseband_frequency: 0.0,
        };
        let samples = generator.sensor_samples(&[source], 1);
        // Magnitude constant, phase varying across sensors.
        let mut distinct_phases = 0;
        for k in 0..16 {
            let v = samples.get(k, 0);
            assert!((v.abs() - 1.0).abs() < 1e-5);
            if (v.arg() - samples.get(0, 0).arg()).abs() > 1e-3 {
                distinct_phases += 1;
            }
        }
        assert!(distinct_phases > 10);
    }

    #[test]
    fn noise_level_matches_request() {
        let mut generator = SignalGenerator::new(test_array(), 150e6, 1e5, 2.0, 42);
        let samples = generator.sensor_samples(&[], 256);
        let mut power = 0.0f64;
        for k in 0..16 {
            for n in 0..256 {
                power += f64::from(samples.get(k, n).norm_sqr());
            }
        }
        let mean_power = power / (16.0 * 256.0);
        assert!(
            (mean_power - 4.0).abs() < 0.5,
            "mean noise power {mean_power}"
        );
    }

    #[test]
    fn generation_is_reproducible_for_equal_seeds() {
        let source = PlaneWaveSource {
            azimuth: 0.1,
            amplitude: 1.0,
            baseband_frequency: 100.0,
        };
        let mut a = SignalGenerator::new(test_array(), 150e6, 1e5, 1.0, 7);
        let mut b = SignalGenerator::new(test_array(), 150e6, 1e5, 1.0, 7);
        assert_eq!(
            a.sensor_samples(&[source], 8),
            b.sensor_samples(&[source], 8)
        );
        let mut c = SignalGenerator::new(test_array(), 150e6, 1e5, 1.0, 8);
        assert_ne!(
            a.sensor_samples(&[source], 8),
            c.sensor_samples(&[source], 8)
        );
    }
}
