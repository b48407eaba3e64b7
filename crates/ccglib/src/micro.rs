//! The searchable shape of the host micro-kernels — today, nothing.
//!
//! [`TuningParameters`](crate::TuningParameters) describe the *simulated*
//! GPU kernel (warps, fragments, shared-memory buffers) and feed the
//! analytic execution model.  This module describes the kernels that
//! actually burn wall clock, the two register-tiled hot paths in
//! [`gemm`](crate::gemm).  A [`MicroKernelConfig`] names the blocking
//! factors of those kernels that are worth searching against real measured
//! throughput, so the tuner can search them and the winner can ride on a
//! [`GemmPlan`](crate::GemmPlan).
//!
//! Both kernels' tiles were searched and neither kept an axis:
//!
//! * the 1-bit kernel's height (1, 2 and 4 rows of `A` per pass) — 4 rows
//!   measured fastest on every shape and both paths;
//! * the f16 kernel's height and width (1–7 rows of `A` × 1–4 vectors of
//!   output columns) and the number of tiles sharing a `B` panel — 4 rows ×
//!   one vector in blocks of up to 4 tiles was within the run-to-run spread
//!   of the best candidate in every cell on both paths, and the lane-width,
//!   column-tile and k-tile axes of the row kernel it replaced have no
//!   meaning in a kernel that never reduces across lanes.
//!
//! So the tile shapes are constants of the kernels, the menu of either
//! precision is the default alone, and which compiled instance runs is
//! detected ([`crate::Isa`]), never configured.  The type, its menu and its
//! validation stay because the tuner, its cache and the builder's
//! `micro_config`/`micro_cache` are built around them; they have nothing to
//! search until a kernel grows an axis again.
//!
//! Every configuration on the [`MicroKernelConfig::menu`] is
//! **bit-identical** to every other on *all* inputs, for both precisions
//! and on every [`crate::Isa`] path: an f16 output is four `mul_add` chains
//! in ascending `k` whatever the tile, the 1-bit kernel is integer-exact.
//! The conformance suites assert both, so tuning can never change results —
//! only wall clock.

use crate::error::Result;
use serde::{Deserialize, Serialize};

/// A validated blocking configuration of the host micro-kernels — the
/// value the autotuner searches and [`GemmPlan`](crate::GemmPlan) carries.
/// It has no axis at present (see the [module docs](self)), so the default
/// is its only value.
///
/// ```
/// use ccglib::MicroKernelConfig;
///
/// let config = MicroKernelConfig::default();
/// assert!(config.validate().is_ok());
/// assert_eq!(MicroKernelConfig::menu(), [config]);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MicroKernelConfig {}

impl std::fmt::Display for MicroKernelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("default")
    }
}

impl MicroKernelConfig {
    /// Checks every field against the compiled menu.  Without fields there
    /// is nothing to reject.
    pub fn validate(&self) -> Result<()> {
        Ok(())
    }

    /// The full menu of compiled configurations, default first — the same
    /// for every precision.  Every entry validates.
    pub fn menu() -> Vec<MicroKernelConfig> {
        vec![MicroKernelConfig::default()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn display_is_compact_and_field_complete() {
        assert_eq!(MicroKernelConfig::default().to_string(), "default");
    }
}
