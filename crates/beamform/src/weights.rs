//! Beamforming weight computation.
//!
//! The beamformed output is `y(t) = Σ_k w_k x_k(t)` (Eq. 3); the weights
//! `w_k` are unit-magnitude phasors that undo the geometric delay of each
//! sensor for the chosen look direction, so that signals from that
//! direction add coherently.  Forming `M` beams turns the weight vectors
//! into an `M × K` matrix — the `A` operand of the ccglib GEMM.

use crate::geometry::ArrayGeometry;
use ccglib::matrix::HostComplexMatrix;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tcbf_types::{Complex, Complex32};

/// The steering vector for one look direction: `w_k = exp(+2πi f τ_k) / K`
/// (the conjugate of the propagation phase, normalised so the beamformed
/// amplitude of a unit source is one).
pub fn steering_vector(
    geometry: &ArrayGeometry,
    frequency: f64,
    azimuth: f64,
    normalise: bool,
) -> Vec<Complex32> {
    let k = geometry.num_sensors();
    let scale = if normalise { 1.0 / k as f32 } else { 1.0 };
    geometry
        .far_field_delays(azimuth)
        .iter()
        .map(|&tau| {
            let phi = 2.0 * std::f64::consts::PI * frequency * tau;
            Complex::from_polar(scale, phi as f32)
        })
        .collect()
}

/// A weight matrix: `M` beams × `K` receivers.
///
/// A `WeightMatrix` is a cheap *handle* on immutable shared storage:
/// `clone` copies a pointer, never the `M × K` matrix, so one set of
/// weights can be handed to every member of a device pool, to every job of
/// a served session and to whoever remembers what an engine carries without
/// being copied once.  [`WeightMatrix::same_bits`] answers "would these two
/// beamform identically?" — for clones of one handle without looking at the
/// data.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WeightMatrix {
    shared: Arc<Storage>,
}

/// What every clone of one [`WeightMatrix`] points at.
#[derive(Debug, PartialEq)]
struct Storage {
    weights: HostComplexMatrix,
    azimuths: Vec<f64>,
}

impl WeightMatrix {
    fn from_parts(weights: HostComplexMatrix, azimuths: Vec<f64>) -> Self {
        WeightMatrix {
            shared: Arc::new(Storage { weights, azimuths }),
        }
    }

    /// Builds steering weights for a fan of beams at the given azimuths.
    ///
    /// Public for `tests/end_to_end.rs`, which steers uneven, mirrored and
    /// unnormalised fans that [`Self::uniform_fan`] cannot.
    pub fn steering(
        geometry: &ArrayGeometry,
        frequency: f64,
        azimuths: &[f64],
        normalise: bool,
    ) -> Self {
        let k = geometry.num_sensors();
        let mut weights = HostComplexMatrix::zeros(azimuths.len(), k);
        for (m, &az) in azimuths.iter().enumerate() {
            for (kk, w) in steering_vector(geometry, frequency, az, normalise)
                .into_iter()
                .enumerate()
            {
                weights.set(m, kk, w);
            }
        }
        WeightMatrix::from_parts(weights, azimuths.to_vec())
    }

    /// A uniform fan of `num_beams` beams between `min_azimuth` and
    /// `max_azimuth` (inclusive), in radians.
    pub fn uniform_fan(
        geometry: &ArrayGeometry,
        frequency: f64,
        num_beams: usize,
        min_azimuth: f64,
        max_azimuth: f64,
    ) -> Self {
        assert!(num_beams > 0);
        let azimuths: Vec<f64> = if num_beams == 1 {
            vec![(min_azimuth + max_azimuth) / 2.0]
        } else {
            (0..num_beams)
                .map(|i| {
                    min_azimuth + (max_azimuth - min_azimuth) * i as f64 / (num_beams as f64 - 1.0)
                })
                .collect()
        };
        WeightMatrix::steering(geometry, frequency, &azimuths, true)
    }

    /// Builds a weight matrix from raw weights (e.g. calibrated instrument
    /// weights) with unknown look directions.
    pub fn from_matrix(weights: HostComplexMatrix) -> Self {
        let beams = weights.rows();
        WeightMatrix::from_parts(weights, vec![f64::NAN; beams])
    }

    /// Whether `other` holds the same weights **bit for bit**: the same
    /// shape and, for every element, the same `re` and `im` bit patterns.
    ///
    /// Two handles on the same storage are equal without a look at the
    /// data; anything else is compared element by element and leaves at the
    /// first difference.  This is identity of what an engine would compute,
    /// which `==` on `f32` is not: `-0.0 == 0.0` yet the two quantise to
    /// opposite 1-bit signs, and a NaN is not `==` itself.  Azimuths are
    /// not compared — they never reach an engine.
    pub fn same_bits(&self, other: &WeightMatrix) -> bool {
        if Arc::ptr_eq(&self.shared, &other.shared) {
            return true;
        }
        let (a, b) = (self.matrix(), other.matrix());
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    /// Number of beams (`M`).
    pub fn num_beams(&self) -> usize {
        self.matrix().rows()
    }

    /// Number of receivers (`K`).
    pub fn num_receivers(&self) -> usize {
        self.matrix().cols()
    }

    /// Look directions, if known.
    pub fn azimuths(&self) -> &[f64] {
        &self.shared.azimuths
    }

    /// The `M × K` weight matrix.
    pub fn matrix(&self) -> &HostComplexMatrix {
        &self.shared.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{ArrayGeometry, SPEED_OF_LIGHT};

    fn array(n: usize) -> ArrayGeometry {
        let wavelength = SPEED_OF_LIGHT / 150e6;
        ArrayGeometry::uniform_linear(n, wavelength / 2.0, SPEED_OF_LIGHT)
    }

    /// The array (power) response of beam `beam` to a unit plane wave from
    /// `azimuth`: `|Σ_k w_k v_k(azimuth)|²` with `v` the propagation
    /// phasor.  Sampling this over azimuth gives the beam pattern.
    fn beam_response(
        weights: &WeightMatrix,
        geometry: &ArrayGeometry,
        frequency: f64,
        beam: usize,
        azimuth: f64,
    ) -> f64 {
        let arrival = steering_vector(geometry, frequency, azimuth, false)
            .into_iter()
            .map(|v| v.conj())
            .collect::<Vec<_>>();
        let mut sum = Complex32::ZERO;
        for (k, &arrival_k) in arrival.iter().enumerate().take(weights.num_receivers()) {
            sum += weights.matrix().get(beam, k) * arrival_k;
        }
        f64::from(sum.norm_sqr())
    }

    #[test]
    fn steering_vector_is_unit_magnitude() {
        let geom = array(32);
        let w = steering_vector(&geom, 150e6, 0.4, false);
        assert_eq!(w.len(), 32);
        for v in w {
            assert!((v.abs() - 1.0).abs() < 1e-5);
        }
        let wn = steering_vector(&geom, 150e6, 0.4, true);
        assert!((wn[0].abs() - 1.0 / 32.0).abs() < 1e-6);
    }

    #[test]
    fn beam_peaks_at_its_look_direction() {
        let geom = array(64);
        let weights = WeightMatrix::uniform_fan(&geom, 150e6, 5, -0.5, 0.5);
        assert_eq!(weights.num_beams(), 5);
        assert_eq!(weights.num_receivers(), 64);
        for beam in 0..5 {
            let look = weights.azimuths()[beam];
            let on_axis = beam_response(&weights, &geom, 150e6, beam, look);
            // The normalised response at the look direction is 1.
            assert!((on_axis - 1.0).abs() < 1e-4, "beam {beam}: {on_axis}");
            // Looking 0.3 rad away the response must be much lower.
            let off_axis = beam_response(&weights, &geom, 150e6, beam, look + 0.3);
            assert!(off_axis < 0.1 * on_axis, "beam {beam}: off-axis {off_axis}");
        }
    }

    #[test]
    fn single_beam_fan_points_at_centre() {
        let geom = array(8);
        let weights = WeightMatrix::uniform_fan(&geom, 150e6, 1, -0.2, 0.6);
        assert_eq!(weights.num_beams(), 1);
        assert!((weights.azimuths()[0] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn from_matrix_preserves_shape() {
        let raw = HostComplexMatrix::zeros(7, 12);
        let weights = WeightMatrix::from_matrix(raw);
        assert_eq!(weights.num_beams(), 7);
        assert_eq!(weights.num_receivers(), 12);
        assert!(weights.azimuths()[0].is_nan());
    }

    #[test]
    fn a_clone_shares_storage_and_same_bits_is_bit_identity() {
        let raw = HostComplexMatrix::from_fn(3, 4, |b, r| {
            Complex::new(b as f32 - 1.0, f32::from_bits(0x7fc0_0001 + r as u32))
        });
        let weights = WeightMatrix::from_matrix(raw.clone());
        let handle = weights.clone();
        assert!(std::ptr::eq(weights.matrix(), handle.matrix()));
        // NaNs and all: a matrix has the same bits as itself and as a copy
        // in another allocation, which `==` cannot say.
        assert!(weights.same_bits(&handle));
        assert!(weights.same_bits(&WeightMatrix::from_matrix(raw.clone())));
        assert_ne!(weights, handle);

        let with = |row: usize, col: usize, value: Complex32| {
            let mut changed = raw.clone();
            changed.set(row, col, value);
            WeightMatrix::from_matrix(changed)
        };
        // The sign of a zero, and a NaN's payload, are differences.
        assert_eq!(raw.get(1, 0).re, 0.0);
        let negative_zero = with(1, 0, Complex::new(-0.0, raw.get(1, 0).im));
        assert!(!weights.same_bits(&negative_zero));
        let other_payload = with(2, 3, Complex::new(1.0, f32::from_bits(0x7fc0_0099)));
        assert!(!weights.same_bits(&other_payload));
        // Same elements in another shape are other weights.
        let reshaped = HostComplexMatrix::from_data(4, 3, raw.data().to_vec()).unwrap();
        assert!(!weights.same_bits(&WeightMatrix::from_matrix(reshaped)));

        // Azimuths are no part of it: they never reach an engine.
        let geom = array(4);
        let fan = WeightMatrix::uniform_fan(&geom, 150e6, 3, -0.2, 0.2);
        assert!(fan.same_bits(&WeightMatrix::from_matrix(fan.matrix().clone())));
    }

    #[test]
    fn beam_width_shrinks_with_more_receivers() {
        // Larger apertures give narrower beams: the response 0.05 rad off
        // axis is lower for the bigger array.
        let freq = 150e6;
        let small = WeightMatrix::uniform_fan(&array(8), freq, 1, 0.0, 0.0);
        let large = WeightMatrix::uniform_fan(&array(128), freq, 1, 0.0, 0.0);
        let off = 0.05;
        let small_off = beam_response(&small, &array(8), freq, 0, off);
        let large_off = beam_response(&large, &array(128), freq, 0, off);
        assert!(large_off < small_off);
    }
}
