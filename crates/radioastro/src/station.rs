//! LOFAR stations, the first-stage (FPGA) station beamformer and
//! synthetic beamlet generation.
//!
//! Each station consists of many individual antennas whose signals are
//! combined on FPGAs into a single *station beam* pointed at the target
//! region of the sky; the resulting time–frequency "beamlet" data streams
//! to the central processor.  For the reproduction the station beamformer
//! is implemented directly (a weighted sum over antennas, just like the
//! generic beamformer) and the sky is synthetic: a set of point sources
//! with known directions plus receiver noise.

use beamform::geometry::{ArrayGeometry, SPEED_OF_LIGHT};
use beamform::signal::{PlaneWaveSource, SignalGenerator};
use beamform::weights::steering_vector;
use ccglib::matrix::HostComplexMatrix;
use serde::{Deserialize, Serialize};
use tcbf_types::Complex32;

/// A point source on the (one-dimensional, for simplicity) synthetic sky.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SkySource {
    /// Direction of the source in radians from the pointing centre.
    pub azimuth: f64,
    /// Flux (amplitude) of the source.
    pub amplitude: f64,
}

/// One LOFAR-like station.
#[derive(Clone, Debug)]
pub(crate) struct Station {
    /// Station index within the array.
    pub index: usize,
    /// Geographic position of the station along the baseline axis, in
    /// metres from the array centre.
    pub position_m: f64,
    /// Antenna layout within the station.
    geometry: ArrayGeometry,
    /// Observing frequency in Hz.
    frequency: f64,
}

impl Station {
    /// Creates a station with `num_antennas` antennas at half-wavelength
    /// spacing, located `position_m` metres from the array centre.
    pub fn new(index: usize, position_m: f64, num_antennas: usize, frequency: f64) -> Self {
        let wavelength = SPEED_OF_LIGHT / frequency;
        Station {
            index,
            position_m,
            geometry: ArrayGeometry::uniform_linear(num_antennas, wavelength / 2.0, SPEED_OF_LIGHT),
            frequency,
        }
    }

    /// Runs the FPGA station beamformer: points the station at
    /// `pointing` (radians) and produces one beamlet sample per time
    /// sample, given the per-antenna samples of synthetic sky sources.
    ///
    /// The station-level geometric delay (from the station's position in
    /// the array) is *not* removed here — that is precisely the job of the
    /// central beamformer's per-station weights.
    pub(crate) fn beamform_station(
        &self,
        sources: &[SkySource],
        pointing: f64,
        num_samples: usize,
        noise_sigma: f64,
        seed: u64,
    ) -> Vec<Complex32> {
        // Antenna-level samples of the sources as seen by this station.
        let plane_waves: Vec<PlaneWaveSource> = sources
            .iter()
            .map(|s| PlaneWaveSource {
                azimuth: s.azimuth,
                amplitude: s.amplitude,
                baseband_frequency: 0.0,
            })
            .collect();
        let mut generator = SignalGenerator::new(
            self.geometry.clone(),
            self.frequency,
            200e3,
            noise_sigma,
            seed ^ (self.index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let antenna_samples = generator.sensor_samples(&plane_waves, num_samples);

        // Station weights: steer the antenna array towards the pointing.
        let weights = steering_vector(&self.geometry, self.frequency, pointing, true);

        // Station-level phase from the station's position in the array for
        // each source is applied on top, so the central beamformer has a
        // real phase gradient to undo.
        (0..num_samples)
            .map(|n| {
                let mut beamlet = Complex32::ZERO;
                for (a, w) in weights.iter().enumerate() {
                    beamlet += *w * antenna_samples.get(a, n);
                }
                // Apply the array-level geometric phase of the dominant
                // pointing direction mix: each source contributes a phase
                // according to the station position.
                let mut station_phase = Complex32::ZERO;
                for s in sources {
                    let delay = self.position_m * s.azimuth.sin() / SPEED_OF_LIGHT;
                    let phi = -std::f64::consts::TAU * self.frequency * delay;
                    station_phase += tcbf_types::Complex::from_polar(
                        (s.amplitude / sources.iter().map(|x| x.amplitude).sum::<f64>()) as f32,
                        phi as f32,
                    );
                }
                if sources.is_empty() {
                    beamlet
                } else {
                    beamlet * station_phase.scale(1.0 / station_phase.abs().max(1e-6))
                }
            })
            .collect()
    }
}

/// Beamlet data from a set of stations: the `K × N` input of the central
/// beamformer (one row per station).
#[derive(Clone, Debug, PartialEq)]
pub struct StationBeamlets {
    data: HostComplexMatrix,
    station_positions_m: Vec<f64>,
    frequency: f64,
}

impl StationBeamlets {
    /// Generates synthetic beamlets for a regularly spaced array of
    /// `num_stations` stations observing the given sources.
    #[allow(clippy::too_many_arguments)] // mirrors the observation-setup parameter list of the paper's Fig. 7 runs
    pub fn synthesise(
        num_stations: usize,
        antennas_per_station: usize,
        frequency: f64,
        sources: &[SkySource],
        pointing: f64,
        num_samples: usize,
        noise_sigma: f64,
        seed: u64,
    ) -> Self {
        assert!(num_stations > 0);
        let spacing = 1000.0; // 1 km between stations: a compact LOFAR core.
        let centre = (num_stations as f64 - 1.0) / 2.0;
        let stations: Vec<Station> = (0..num_stations)
            .map(|i| {
                Station::new(
                    i,
                    (i as f64 - centre) * spacing,
                    antennas_per_station,
                    frequency,
                )
            })
            .collect();
        let mut data = HostComplexMatrix::zeros(num_stations, num_samples);
        for (s_idx, station) in stations.iter().enumerate() {
            let beamlets =
                station.beamform_station(sources, pointing, num_samples, noise_sigma, seed);
            for (n, v) in beamlets.into_iter().enumerate() {
                data.set(s_idx, n, v);
            }
        }
        StationBeamlets {
            data,
            station_positions_m: stations.iter().map(|s| s.position_m).collect(),
            frequency,
        }
    }

    /// Number of stations (`K` of the central GEMM).
    pub(crate) fn num_stations(&self) -> usize {
        self.data.rows()
    }

    /// Number of time samples (`N`).
    pub fn num_samples(&self) -> usize {
        self.data.cols()
    }

    /// The `K × N` beamlet matrix.
    pub fn matrix(&self) -> &HostComplexMatrix {
        &self.data
    }

    /// Station positions along the baseline axis, in metres.
    pub(crate) fn station_positions_m(&self) -> &[f64] {
        &self.station_positions_m
    }

    /// Observing frequency in Hz.
    pub(crate) fn frequency(&self) -> f64 {
        self.frequency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FREQ: f64 = 150e6;

    #[test]
    fn station_construction() {
        let station = Station::new(3, 2000.0, 48, FREQ);
        assert_eq!(station.index, 3);
        assert_eq!(station.geometry.positions().len(), 48);
        assert_eq!(station.frequency, FREQ);
    }

    #[test]
    fn station_beam_suppresses_off_pointing_sources() {
        let station = Station::new(0, 0.0, 96, FREQ);
        let on_source = vec![SkySource {
            azimuth: 0.0,
            amplitude: 1.0,
        }];
        let off_source = vec![SkySource {
            azimuth: 0.4,
            amplitude: 1.0,
        }];
        let power = |sources: &[SkySource]| -> f64 {
            station
                .beamform_station(sources, 0.0, 32, 0.0, 1)
                .iter()
                .map(|v| f64::from(v.norm_sqr()))
                .sum::<f64>()
                / 32.0
        };
        let on = power(&on_source);
        let off = power(&off_source);
        assert!(on > 20.0 * off, "on {on} vs off {off}");
    }

    #[test]
    fn beamlets_have_station_by_sample_shape() {
        let sources = [SkySource {
            azimuth: 0.01,
            amplitude: 1.0,
        }];
        let beamlets = StationBeamlets::synthesise(12, 16, FREQ, &sources, 0.0, 24, 0.1, 5);
        assert_eq!(beamlets.num_stations(), 12);
        assert_eq!(beamlets.num_samples(), 24);
        assert_eq!(beamlets.station_positions_m().len(), 12);
        // Positions are centred on zero.
        let mean: f64 =
            beamlets.station_positions_m().iter().sum::<f64>() / beamlets.num_stations() as f64;
        assert!(mean.abs() < 1e-9);
    }

    #[test]
    fn synthesis_is_reproducible() {
        let sources = [SkySource {
            azimuth: 0.02,
            amplitude: 2.0,
        }];
        let a = StationBeamlets::synthesise(4, 8, FREQ, &sources, 0.0, 16, 0.2, 9);
        let b = StationBeamlets::synthesise(4, 8, FREQ, &sources, 0.0, 16, 0.2, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn stations_see_phase_gradients_from_off_centre_sources() {
        // A source away from the pointing centre produces different phases
        // at different stations — the information the coherent central
        // beamformer exploits.
        let sources = [SkySource {
            azimuth: 1e-4,
            amplitude: 1.0,
        }];
        let beamlets = StationBeamlets::synthesise(8, 32, FREQ, &sources, 0.0, 4, 0.0, 3);
        let first = beamlets.matrix().get(0, 0);
        let last = beamlets.matrix().get(7, 0);
        assert!((first.arg() - last.arg()).abs() > 1e-3);
    }
}
