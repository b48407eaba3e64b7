//! The imaging configuration and the acoustic model matrix.
//!
//! The model matrix contains "for every voxel in the image volume (number
//! of columns) all the expected pulse-echo signals for each transceiver and
//! for each measurement (number of rows)".  Rows are indexed by
//! (temporal frequency, transceiver, transmission); the paper's full-scale
//! configuration is 128 frequencies × 64 transceivers × 32 transmissions =
//! 524 288 rows (the `K` of the GEMM) — or 64 transmissions for the
//! pre-recorded dataset.
//!
//! The real system derives the model from a calibrated acoustic simulation
//! of the probe and its encoding mask.  The synthetic substitute uses a
//! monopole propagation model: the expected spectrum of a voxel is the
//! phase accumulated on the transmit path (transmission aperture → voxel)
//! and the receive path (voxel → transceiver), multiplied by the encoding
//! mask's per-transceiver phase plate.  This preserves what matters for
//! the reproduction: the matrix has the right shape, the right statistical
//! structure (unit-magnitude phasors), and voxel columns are mutually
//! quasi-orthogonal so matched-filter reconstruction works.

use beamform::geometry::{ArrayGeometry, SPEED_OF_SOUND_TISSUE};
use ccglib::matrix::HostComplexMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tcbf_types::{Complex, Complex32};

/// One voxel position in metres (probe at z = 0, imaging along +z).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Voxel {
    /// Lateral x coordinate.
    pub x: f64,
    /// Lateral y coordinate.
    pub y: f64,
    /// Depth z coordinate.
    pub z: f64,
}

/// Static configuration of the imaging system.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ImagingConfig {
    /// Number of transceivers in the probe (64 in the paper).
    pub num_transceivers: usize,
    /// Number of temporal frequencies kept per pulse echo (128).
    pub num_frequencies: usize,
    /// Number of transmissions per frame (32, or 64 for the pre-recorded
    /// dataset).
    pub num_transmissions: usize,
    /// Centre frequency of the probe in Hz.
    pub centre_frequency: f64,
    /// Bandwidth spanned by the retained frequencies in Hz.
    pub bandwidth: f64,
    /// Element pitch of the probe in metres.
    pub pitch: f64,
    /// Pulse-echo repetition frequency in Hz (32 kHz in the paper).
    pub pulse_repetition_frequency: f64,
    /// Seed of the spatial encoding mask.
    pub mask_seed: u64,
}

impl ImagingConfig {
    /// The full-scale configuration of the real-time analysis (Fig. 5):
    /// 128 frequencies × 64 transceivers × 32 transmissions.
    pub(crate) fn paper_realtime() -> Self {
        ImagingConfig {
            num_transceivers: 64,
            num_frequencies: 128,
            num_transmissions: 32,
            centre_frequency: 15.0e6,
            bandwidth: 10.0e6,
            pitch: 300e-6,
            pulse_repetition_frequency: 32_000.0,
            mask_seed: 2024,
        }
    }

    /// The pre-recorded mouse-brain dataset configuration (Section V-A):
    /// 128 frequencies × 64 transceivers × 64 transmissions, 8041 frames.
    pub(crate) fn paper_offline() -> Self {
        ImagingConfig {
            num_transmissions: 64,
            ..Self::paper_realtime()
        }
    }

    /// A reduced configuration for functional tests and examples.
    pub fn small(
        num_transceivers: usize,
        num_frequencies: usize,
        num_transmissions: usize,
    ) -> Self {
        ImagingConfig {
            num_transceivers,
            num_frequencies,
            num_transmissions,
            centre_frequency: 15.0e6,
            bandwidth: 10.0e6,
            pitch: 300e-6,
            pulse_repetition_frequency: 32_000.0,
            mask_seed: 7,
        }
    }

    /// Number of rows of the model and measurement matrices
    /// (`K` of the GEMM): frequencies × transceivers × transmissions.
    pub fn k_rows(&self) -> usize {
        self.num_frequencies * self.num_transceivers * self.num_transmissions
    }

    /// The temporal frequencies retained, in Hz.
    pub(crate) fn frequencies(&self) -> Vec<f64> {
        (0..self.num_frequencies)
            .map(|i| {
                self.centre_frequency - self.bandwidth / 2.0
                    + self.bandwidth * i as f64 / self.num_frequencies.max(1) as f64
            })
            .collect()
    }

    /// The probe geometry: a linear transceiver array at z = 0.
    pub(crate) fn probe_geometry(&self) -> ArrayGeometry {
        ArrayGeometry::uniform_linear(self.num_transceivers, self.pitch, SPEED_OF_SOUND_TISSUE)
    }

    /// Builds a regular grid of voxels: `nx × ny × nz` voxels covering a
    /// box of the given physical extent (metres) starting at `depth`.
    pub fn voxel_grid(nx: usize, ny: usize, nz: usize, extent: f64, depth: f64) -> Vec<Voxel> {
        let mut voxels = Vec::with_capacity(nx * ny * nz);
        let step = |i: usize, n: usize| -> f64 {
            if n <= 1 {
                0.0
            } else {
                extent * (i as f64 / (n as f64 - 1.0) - 0.5)
            }
        };
        for iz in 0..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    voxels.push(Voxel {
                        x: step(ix, nx),
                        y: step(iy, ny),
                        z: depth + extent * iz as f64 / nz.max(1) as f64,
                    });
                }
            }
        }
        voxels
    }
}

/// The acoustic model matrix for a set of voxels.
///
/// Stored voxel-major (`voxels × K`), i.e. already in the `A`-operand
/// orientation of the ccglib GEMM (the real pipeline transposes and packs
/// the model once, before the experiment starts).
#[derive(Clone, Debug)]
pub struct AcousticModel {
    config: ImagingConfig,
    voxels: Vec<Voxel>,
    matrix: HostComplexMatrix,
}

impl AcousticModel {
    /// Builds the synthetic model for the given voxels.
    pub fn build(config: &ImagingConfig, voxels: &[Voxel]) -> Self {
        let geometry = config.probe_geometry();
        let positions = geometry.positions().to_vec();
        let frequencies = config.frequencies();
        let c = geometry.wave_speed();
        // Spatial encoding mask: a fixed pseudo-random phase per
        // (transceiver, frequency), the "plastic coding mask" of the cUSi
        // papers.
        let mut rng = StdRng::seed_from_u64(config.mask_seed);
        let mask: Vec<f32> = (0..config.num_transceivers * config.num_frequencies)
            .map(|_| rng.gen::<f32>() * std::f32::consts::TAU)
            .collect();
        // Transmissions: plane waves at evenly spread steering angles.
        let tx_angles: Vec<f64> = (0..config.num_transmissions)
            .map(|t| {
                if config.num_transmissions == 1 {
                    0.0
                } else {
                    -0.3 + 0.6 * t as f64 / (config.num_transmissions as f64 - 1.0)
                }
            })
            .collect();

        let k_rows = config.k_rows();
        let mut matrix = HostComplexMatrix::zeros(voxels.len(), k_rows);
        for (v_idx, voxel) in voxels.iter().enumerate() {
            for (t_idx, &angle) in tx_angles.iter().enumerate() {
                // Transmit path: plane wave reaching the voxel.
                let tx_delay = (voxel.x * angle.sin() + voxel.z * angle.cos()) / c;
                for (rx_idx, rx) in positions.iter().enumerate() {
                    // Receive path: voxel back to the transceiver.
                    let dx = voxel.x - rx[0];
                    let dy = voxel.y - rx[1];
                    let dz = voxel.z - rx[2];
                    let rx_delay = (dx * dx + dy * dy + dz * dz).sqrt() / c;
                    for (f_idx, &freq) in frequencies.iter().enumerate() {
                        let phase = -std::f64::consts::TAU * freq * (tx_delay + rx_delay);
                        let mask_phase = mask[rx_idx * config.num_frequencies + f_idx];
                        let value = Complex::from_polar(1.0, phase as f32 + mask_phase);
                        let row = Self::row_index(config, f_idx, rx_idx, t_idx);
                        matrix.set(v_idx, row, value);
                    }
                }
            }
        }
        AcousticModel {
            config: config.clone(),
            voxels: voxels.to_vec(),
            matrix,
        }
    }

    /// Linear row index of (frequency, transceiver, transmission).
    pub(crate) fn row_index(
        config: &ImagingConfig,
        freq: usize,
        transceiver: usize,
        transmission: usize,
    ) -> usize {
        (transmission * config.num_transceivers + transceiver) * config.num_frequencies + freq
    }

    /// The imaging configuration.
    pub fn config(&self) -> &ImagingConfig {
        &self.config
    }

    /// The voxels covered by this model.
    pub fn voxels(&self) -> &[Voxel] {
        &self.voxels
    }

    /// The `voxels × K` model matrix.
    pub fn matrix(&self) -> &HostComplexMatrix {
        &self.matrix
    }

    /// The expected measurement spectrum (length `K`) of a point source at
    /// a voxel with a given complex amplitude — used by the phantom to
    /// synthesise measurements.
    pub(crate) fn forward(&self, voxel_index: usize, amplitude: Complex32) -> Vec<Complex32> {
        let k = self.config.k_rows();
        // The model stores the *matched filter* (conjugate phase); the
        // forward signal is its conjugate.
        (0..k)
            .map(|row| self.matrix.get(voxel_index, row).conj() * amplitude)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configurations_have_the_published_k() {
        assert_eq!(ImagingConfig::paper_realtime().k_rows(), 128 * 64 * 32);
        assert_eq!(ImagingConfig::paper_realtime().k_rows(), 262_144);
        assert_eq!(ImagingConfig::paper_offline().k_rows(), 524_288);
        // 32 kHz PRF with 32 transmissions per frame = 1000 frames/s.
        let realtime = ImagingConfig::paper_realtime();
        let fps = realtime.pulse_repetition_frequency / realtime.num_transmissions as f64;
        assert!((fps - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn voxel_grid_counts_and_extent() {
        let grid = ImagingConfig::voxel_grid(4, 3, 2, 0.01, 0.02);
        assert_eq!(grid.len(), 24);
        assert!(grid.iter().all(|v| v.z >= 0.02 && v.z <= 0.03 + 1e-12));
        assert!(grid.iter().all(|v| v.x.abs() <= 0.005 + 1e-12));
    }

    #[test]
    fn model_matrix_has_unit_magnitude_entries() {
        let config = ImagingConfig::small(8, 4, 2);
        let voxels = ImagingConfig::voxel_grid(3, 1, 3, 0.005, 0.02);
        let model = AcousticModel::build(&config, &voxels);
        assert_eq!(model.voxels().len(), 9);
        assert_eq!(model.matrix().rows(), 9);
        assert_eq!(model.matrix().cols(), config.k_rows());
        for v in 0..9 {
            for r in 0..config.k_rows() {
                assert!((model.matrix().get(v, r).abs() - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn distinct_voxels_have_quasi_orthogonal_signatures() {
        // Matched filtering only works if different voxels produce
        // different spectra: the normalised correlation between two distant
        // voxels must be well below 1.
        let config = ImagingConfig::small(16, 16, 4);
        let voxels = vec![
            Voxel {
                x: -0.004,
                y: 0.0,
                z: 0.02,
            },
            Voxel {
                x: 0.004,
                y: 0.0,
                z: 0.03,
            },
        ];
        let model = AcousticModel::build(&config, &voxels);
        let k = config.k_rows();
        let mut dot = Complex32::ZERO;
        for r in 0..k {
            dot += model.matrix().get(0, r) * model.matrix().get(1, r).conj();
        }
        let correlation = dot.abs() / k as f32;
        assert!(correlation < 0.3, "correlation {correlation}");
    }

    #[test]
    fn forward_signal_is_conjugate_of_model_row() {
        let config = ImagingConfig::small(4, 4, 1);
        let voxels = vec![Voxel {
            x: 0.0,
            y: 0.0,
            z: 0.025,
        }];
        let model = AcousticModel::build(&config, &voxels);
        let forward = model.forward(0, Complex::new(2.0, 0.0));
        assert_eq!(forward.len(), config.k_rows());
        for (r, f) in forward.iter().enumerate() {
            let expected = model.matrix().get(0, r).conj().scale(2.0);
            assert!((*f - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn row_index_is_a_bijection() {
        let config = ImagingConfig::small(3, 5, 2);
        let mut seen = std::collections::HashSet::new();
        for t in 0..2 {
            for rx in 0..3 {
                for f in 0..5 {
                    let idx = AcousticModel::row_index(&config, f, rx, t);
                    assert!(idx < config.k_rows());
                    assert!(seen.insert(idx));
                }
            }
        }
        assert_eq!(seen.len(), config.k_rows());
    }
}
