//! The searchable shape of the host micro-kernels.
//!
//! [`TuningParameters`](crate::TuningParameters) describe the *simulated*
//! GPU kernel (warps, fragments, shared-memory buffers) and feed the
//! analytic execution model.  This module describes the kernel that
//! actually burns wall clock: the cache-blocked f16 hot path in
//! [`gemm`](crate::gemm).  A [`MicroKernelConfig`] names the blocking
//! factors that kernel used to hard-code — the f16 column tile,
//! lane-vector width and k-tile — so the tuner can search them against
//! real measured throughput and the winner can ride on a
//! [`GemmPlan`](crate::GemmPlan).
//!
//! The register-tiled 1-bit kernel has no axis here.  Its tile height was
//! searched (1, 2 and 4 rows of `A` per pass) and 4 rows measured fastest
//! on every shape and both popcount paths, so the height is a constant of
//! the kernel and the 1-bit menu is the default alone; which popcount
//! path runs is detected ([`crate::Int1Isa`]), never configured.
//!
//! Every configuration on the [`MicroKernelConfig::menu`] is
//! **bit-identical** to every other on the conformance inputs: the f16
//! kernel reduces each lane vector by adjacent pairwise halving (the same
//! summation tree at every width) and tiles only change which dot
//! products are in flight together, never the order of any single
//! reduction.  The 1-bit kernel is integer-exact, so it gives the same
//! bits on *all* inputs on every popcount path.  The conformance suites
//! assert both, so tuning can never change results — only wall clock.

use crate::error::{CcglibError, Result};
use crate::Precision;
use serde::{Deserialize, Serialize};

/// The f16 column-tile widths the menu searches over.
pub const F16_J_TILES: [usize; 3] = [1, 2, 4];
/// The f16 lane-vector widths (accumulator lanes per dot product) the menu
/// searches over.  Powers of two, so pairwise-halving reduction is exact.
pub const F16_LANE_WIDTHS: [usize; 3] = [4, 8, 16];
/// The f16 k-tile lengths the menu searches over.
pub const F16_K_TILES: [usize; 3] = [256, 1024, 4096];

/// A validated blocking configuration of the host micro-kernels — the
/// value the autotuner searches and [`GemmPlan`](crate::GemmPlan) carries.
///
/// The default reproduces the previously hard-coded constants exactly
/// (j-tile 2, 8 lanes, k-tile 1024), so untuned code paths are
/// byte-for-byte the kernels that produced the committed benchmarks.
///
/// ```
/// use ccglib::MicroKernelConfig;
///
/// let config = MicroKernelConfig::default();
/// assert!(config.validate().is_ok());
/// assert!(MicroKernelConfig::menu().contains(&config));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MicroKernelConfig {
    /// Output columns computed together per f16 kernel row pass (the
    /// j-tile): more columns reuse one A-row load across more dot
    /// products but need more live accumulators.
    pub f16_j_tile: usize,
    /// Lanes per f16 accumulator vector: wider vectors expose more
    /// instruction-level parallelism per dot product.
    pub f16_lanes: usize,
    /// Reduction-dimension tile of the f16 kernel: bounds the working set
    /// of one (A-row, B-column-tile) pass.
    pub f16_k_tile: usize,
}

impl Default for MicroKernelConfig {
    fn default() -> Self {
        MicroKernelConfig {
            f16_j_tile: 2,
            f16_lanes: 8,
            f16_k_tile: 1024,
        }
    }
}

impl std::fmt::Display for MicroKernelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "j{} l{} k{}",
            self.f16_j_tile, self.f16_lanes, self.f16_k_tile
        )
    }
}

impl MicroKernelConfig {
    /// Checks every field against the monomorphised menu axes: the
    /// kernels dispatch over compiled instances, so only listed values
    /// are executable.  The k-tile must also be a multiple of the lane
    /// width so whole tiles split into whole lane vectors.
    pub fn validate(&self) -> Result<()> {
        let invalid = |reason: String| CcglibError::InvalidParameters { reason };
        if !F16_J_TILES.contains(&self.f16_j_tile) {
            return Err(invalid(format!(
                "f16_j_tile {} not in the compiled menu {F16_J_TILES:?}",
                self.f16_j_tile
            )));
        }
        if !F16_LANE_WIDTHS.contains(&self.f16_lanes) {
            return Err(invalid(format!(
                "f16_lanes {} not in the compiled menu {F16_LANE_WIDTHS:?}",
                self.f16_lanes
            )));
        }
        if !F16_K_TILES.contains(&self.f16_k_tile) {
            return Err(invalid(format!(
                "f16_k_tile {} not in the compiled menu {F16_K_TILES:?}",
                self.f16_k_tile
            )));
        }
        if !self.f16_k_tile.is_multiple_of(self.f16_lanes) {
            return Err(invalid(format!(
                "f16_k_tile {} is not a multiple of f16_lanes {}",
                self.f16_k_tile, self.f16_lanes
            )));
        }
        Ok(())
    }

    /// The full menu of compiled configurations, default first: the
    /// j-tile × lane-width cartesian product at the default k-tile and the
    /// non-default k-tiles at the default f16 blocking.  Every entry
    /// validates.
    pub fn menu() -> Vec<MicroKernelConfig> {
        let base = MicroKernelConfig::default();
        let mut menu = vec![base];
        for j_tile in F16_J_TILES {
            for lanes in F16_LANE_WIDTHS {
                let candidate = MicroKernelConfig {
                    f16_j_tile: j_tile,
                    f16_lanes: lanes,
                    ..base
                };
                if candidate != base {
                    menu.push(candidate);
                }
            }
        }
        for k_tile in F16_K_TILES {
            if k_tile != base.f16_k_tile {
                menu.push(MicroKernelConfig {
                    f16_k_tile: k_tile,
                    ..base
                });
            }
        }
        menu
    }

    /// The menu entries that can change the hot path at `precision`: the
    /// whole menu for [`Precision::Float16`], the default alone for
    /// [`Precision::Int1`] (its kernel has no searchable blocking) and for
    /// the scalar reference.  The default is always first, so exhaustive
    /// search ties resolve towards it.
    pub fn menu_for(precision: Precision) -> Vec<MicroKernelConfig> {
        match precision {
            Precision::Float16 => Self::menu(),
            Precision::Int1 | Precision::Float32Reference => vec![MicroKernelConfig::default()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_reproduces_the_previously_hard_coded_constants() {
        let config = MicroKernelConfig::default();
        assert_eq!(config.f16_j_tile, 2);
        assert_eq!(config.f16_lanes, 8);
        assert_eq!(config.f16_k_tile, 1024);
        config.validate().unwrap();
    }

    #[test]
    fn every_menu_entry_validates_and_the_default_leads() {
        let menu = MicroKernelConfig::menu();
        assert_eq!(menu[0], MicroKernelConfig::default());
        for config in &menu {
            config.validate().unwrap();
        }
        let unique: std::collections::HashSet<_> = menu.iter().collect();
        assert_eq!(unique.len(), menu.len(), "menu entries are distinct");
    }

    #[test]
    fn per_precision_menus_partition_the_search_space() {
        let f16 = MicroKernelConfig::menu_for(Precision::Float16);
        assert_eq!(f16, MicroKernelConfig::menu());
        assert_eq!(
            MicroKernelConfig::menu_for(Precision::Int1),
            vec![MicroKernelConfig::default()]
        );
        assert_eq!(
            MicroKernelConfig::menu_for(Precision::Float32Reference),
            vec![MicroKernelConfig::default()]
        );
    }

    #[test]
    fn validation_rejects_each_out_of_menu_field() {
        let base = MicroKernelConfig::default();
        for bad in [
            MicroKernelConfig {
                f16_j_tile: 3,
                ..base
            },
            MicroKernelConfig {
                f16_lanes: 6,
                ..base
            },
            MicroKernelConfig {
                f16_k_tile: 1000,
                ..base
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must not validate");
        }
    }

    #[test]
    fn display_is_compact_and_field_complete() {
        assert_eq!(MicroKernelConfig::default().to_string(), "j2 l8 k1024");
    }
}
