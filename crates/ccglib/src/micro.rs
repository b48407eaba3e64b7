//! The searchable shape of the host micro-kernels — nothing.
//!
//! Both register-tiled hot paths in [`gemm`](crate::gemm) had their tiles
//! searched against measured throughput and neither kept an axis:
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
//! So the tile shapes are constants of the kernels and which compiled
//! instance runs is detected ([`crate::Isa`]), never configured: there is
//! no host tuner, no cache of its winners and nothing on a plan to pin.

/// The one configuration of the host micro-kernels (see the
/// [module docs](self) for why it has no axis).  Kept as a name only
/// because `examples/pipeline_bench` prints it in its header line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MicroKernelConfig;

impl std::fmt::Display for MicroKernelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("default")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_only_value_prints_as_default() {
        assert_eq!(MicroKernelConfig.to_string(), "default");
    }
}
