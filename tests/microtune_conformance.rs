//! Conformance of the micro-kernel configuration menu.
//!
//! Autotuning may only ever change *how fast* the beamformer runs, never
//! *what* it computes.  These tests drive every [`MicroKernelConfig`] the
//! tuner can possibly select — the full menu — through the public
//! `Box<dyn Engine>` pipeline and demand outputs element-wise
//! **identical** (not merely close) to the default blocking, across
//! ragged shapes and both tensor-core precisions, on **arbitrary** inputs.
//!
//! Neither precision needs a cooperative input family: a float16 output
//! is four `mul_add` chains in ascending `k` whatever tile computes it, and
//! an int1 output is an exact integer.  The engines are also held to the
//! scalar definitions themselves, so the menu cannot agree with itself on
//! a wrong answer.

use ccglib::matrix::{F16Matrix, HostComplexMatrix};
use ccglib::synth::pseudo_random_matrix;
use ccglib::MicroKernelConfig;
use proptest::prelude::*;
use tcbf::{BeamformOutput, BeamformerBuilder, Gpu, Precision, WeightMatrix};
use tcbf_types::Complex32;

/// `weights · block` by the definition of one float16 output: both operands
/// rounded to binary16, four `mul_add` chains in ascending `k`, then
/// `rr − ii` and `ri + ir`.
fn four_chain_definition(weights: &WeightMatrix, block: &HostComplexMatrix) -> HostComplexMatrix {
    let a = F16Matrix::from_host(weights.matrix());
    let b = F16Matrix::from_host(block);
    HostComplexMatrix::from_fn(a.rows(), b.cols(), |i, j| {
        let mut acc = [0.0f32; 4];
        for k in 0..a.cols() {
            let (x, y) = (a.get(i, k), b.get(k, j));
            acc[0] = x.re.mul_add(y.re, acc[0]);
            acc[1] = x.im.mul_add(y.im, acc[1]);
            acc[2] = x.re.mul_add(y.im, acc[2]);
            acc[3] = x.im.mul_add(y.re, acc[3]);
        }
        Complex32::new(acc[0] - acc[1], acc[2] + acc[3])
    })
}

fn bits(m: &HostComplexMatrix) -> Vec<(u32, u32)> {
    let of = |v: &Complex32| (v.re.to_bits(), v.im.to_bits());
    m.data().iter().map(of).collect()
}

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
    /// and to the four-chain definition through the boxed engine, on
    /// arbitrary inputs and ragged shapes chosen to straddle tile and lane
    /// boundaries.
    #[test]
    fn every_f16_menu_config_matches_the_default_through_the_engine(
        beams in 1usize..6,
        receivers in 1usize..40,
        samples in 1usize..12,
        seed in any::<u64>(),
    ) {
        let weights = WeightMatrix::from_matrix(pseudo_random_matrix(
            beams, receivers, seed ^ 0x5EED, 1.0,
        ));
        let blocks: Vec<_> = (0..2)
            .map(|b| pseudo_random_matrix(receivers, samples, seed.wrapping_add(b), 1.0))
            .collect();
        let reference = engine_outputs(
            &weights,
            samples,
            Precision::Float16,
            MicroKernelConfig::default(),
            &blocks,
        );
        for (got, block) in reference.iter().zip(&blocks) {
            prop_assert_eq!(bits(&got.beams), bits(&four_chain_definition(&weights, block)));
        }
        for micro in MicroKernelConfig::menu() {
            let outputs = engine_outputs(&weights, samples, Precision::Float16, micro, &blocks);
            prop_assert_eq!(outputs.len(), reference.len());
            for (got, want) in outputs.iter().zip(&reference) {
                prop_assert_eq!(bits(&got.beams), bits(&want.beams), "config {}", micro);
            }
        }
    }

    /// Every int1 menu entry is bit-identical to the default through the
    /// boxed engine, on arbitrary inputs — one-bit outputs are exact
    /// integers regardless of evaluation order.
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
        for micro in MicroKernelConfig::menu() {
            let outputs = engine_outputs(&weights, samples, Precision::Int1, micro, &blocks);
            prop_assert_eq!(outputs.len(), reference.len());
            for (got, want) in outputs.iter().zip(&reference) {
                prop_assert_eq!(&got.beams, &want.beams, "config {}", micro);
            }
        }
    }
}

/// The sharded engine honours a pinned config on every pool member: a
/// two-device pool pinned to the last menu entry matches the single-device
/// default bit for bit, on arbitrary inputs.
#[test]
fn pinned_config_is_conformant_through_a_sharded_engine() {
    let weights = WeightMatrix::from_matrix(pseudo_random_matrix(5, 33, 42, 1.0));
    let blocks: Vec<_> = (0..6)
        .map(|b| pseudo_random_matrix(33, 9, 100 + b, 1.0))
        .collect();
    let refs: Vec<_> = blocks.iter().collect();

    let reference = engine_outputs(
        &weights,
        9,
        Precision::Float16,
        MicroKernelConfig::default(),
        &blocks,
    );
    let menu = MicroKernelConfig::menu();
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
        assert_eq!(
            bits(&got.beams),
            bits(&want.beams),
            "sharded config {}",
            pinned
        );
    }
}
