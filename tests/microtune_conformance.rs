//! Conformance of the micro-kernel configuration menu.
//!
//! Autotuning may only ever change *how fast* the beamformer runs, never
//! *what* it computes.  These tests drive every [`MicroKernelConfig`] the
//! tuner can possibly select — the full per-precision menu — through the
//! public `Box<dyn Engine>` pipeline and demand outputs element-wise
//! **identical** (not merely close) to the default blocking, across
//! ragged shapes and both tensor-core precisions.
//!
//! The float16 argument relies on exact-integer operands: every weight
//! and sample component is a small integer, so each f16 intermediate is
//! exact and any summation order (j-tiles, lane widths, k-tiles) produces
//! the same bits.  The int1 path is exact on *all* inputs — popcount
//! sums are integers — so pseudo-random operands cover it fully.

use ccglib::synth::{exact_integer_matrix, pseudo_random_matrix};
use ccglib::MicroKernelConfig;
use proptest::prelude::*;
use tcbf::{BeamformOutput, BeamformerBuilder, Gpu, Precision, WeightMatrix};

/// Runs `blocks` through a freshly built `Box<dyn Engine>` pinned to
/// `micro` and returns the per-block outputs.
fn engine_outputs(
    weights: &WeightMatrix,
    samples: usize,
    precision: Precision,
    micro: MicroKernelConfig,
    blocks: &[ccglib::matrix::HostComplexMatrix],
) -> Vec<BeamformOutput> {
    let mut engine = BeamformerBuilder::new(Gpu::A100)
        .weight_matrix(weights.clone())
        .samples_per_block(samples)
        .precision(precision)
        .micro_config(micro)
        .build_engine()
        .expect("menu configs always build");
    let refs: Vec<&ccglib::matrix::HostComplexMatrix> = blocks.iter().collect();
    engine
        .process_batch(&refs)
        .expect("menu configs always run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every float16 menu entry is bit-identical to the default blocking
    /// through the boxed engine, on ragged shapes chosen to straddle
    /// j-tile, lane and k-tile boundaries.
    #[test]
    fn every_f16_menu_config_matches_the_default_through_the_engine(
        beams in 1usize..6,
        receivers in 1usize..40,
        samples in 1usize..12,
        seed in any::<u64>(),
    ) {
        let weights =
            WeightMatrix::from_matrix(exact_integer_matrix(beams, receivers, seed ^ 0x5EED));
        let blocks: Vec<_> = (0..2)
            .map(|b| exact_integer_matrix(receivers, samples, seed.wrapping_add(b)))
            .collect();
        let reference = engine_outputs(
            &weights,
            samples,
            Precision::Float16,
            MicroKernelConfig::default(),
            &blocks,
        );
        for micro in MicroKernelConfig::menu_for(Precision::Float16) {
            let outputs = engine_outputs(&weights, samples, Precision::Float16, micro, &blocks);
            prop_assert_eq!(outputs.len(), reference.len());
            for (got, want) in outputs.iter().zip(&reference) {
                prop_assert_eq!(&got.beams, &want.beams, "config {}", micro);
            }
        }
    }

    /// Every int1 menu entry (the word-unroll depths) is bit-identical to
    /// the default through the boxed engine, on arbitrary inputs — one-bit
    /// outputs are exact integers regardless of evaluation order.
    #[test]
    fn every_int1_menu_config_matches_the_default_through_the_engine(
        beams in 1usize..6,
        receivers in 1usize..40,
        samples in 1usize..12,
        seed in any::<u64>(),
    ) {
        let weights = WeightMatrix::from_matrix(pseudo_random_matrix(
            beams, receivers, seed ^ 0x0B17, 1.0,
        ));
        let blocks: Vec<_> = (0..2)
            .map(|b| pseudo_random_matrix(receivers, samples, seed.wrapping_add(b) | 1, 1.0))
            .collect();
        let reference = engine_outputs(
            &weights,
            samples,
            Precision::Int1,
            MicroKernelConfig::default(),
            &blocks,
        );
        for micro in MicroKernelConfig::menu_for(Precision::Int1) {
            let outputs = engine_outputs(&weights, samples, Precision::Int1, micro, &blocks);
            prop_assert_eq!(outputs.len(), reference.len());
            for (got, want) in outputs.iter().zip(&reference) {
                prop_assert_eq!(&got.beams, &want.beams, "config {}", micro);
            }
        }
    }
}

/// The sharded engine honours a pinned config on every pool member: a
/// two-device pool pinned to the most aggressive f16 menu entry matches
/// the single-device default bit for bit.
#[test]
fn pinned_config_is_conformant_through_a_sharded_engine() {
    let weights = WeightMatrix::from_matrix(exact_integer_matrix(5, 33, 42));
    let blocks: Vec<_> = (0..6)
        .map(|b| exact_integer_matrix(33, 9, 100 + b))
        .collect();
    let refs: Vec<_> = blocks.iter().collect();

    let reference = engine_outputs(
        &weights,
        9,
        Precision::Float16,
        MicroKernelConfig::default(),
        &blocks,
    );
    let menu = MicroKernelConfig::menu_for(Precision::Float16);
    let pinned = *menu.last().expect("menu is non-empty");
    let mut sharded = BeamformerBuilder::new(Gpu::A100)
        .weight_matrix(weights)
        .samples_per_block(9)
        .devices(&[Gpu::A100, Gpu::Gh200])
        .micro_config(pinned)
        .build_engine()
        .unwrap();
    let outputs = sharded.process_batch(&refs).unwrap();
    assert_eq!(outputs.len(), reference.len());
    for (got, want) in outputs.iter().zip(&reference) {
        assert_eq!(got.beams, want.beams, "sharded config {}", pinned);
    }
}
