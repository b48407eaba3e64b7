//! The bits of executed outputs, pinned across commits, hosts and builds.
//!
//! Every other bit-identity suite compares two paths inside one process,
//! so a change to the per-element definition that every path follows
//! alike passes them all.  This test folds the `f32` bits of a seeded
//! grid's outputs into one FNV-1a digest and compares it with a committed
//! constant: the portable build (`RUSTFLAGS=""`), hosts with and without
//! AVX-512 and the parent commit all have to produce the same value.  The
//! AVX-512 path is pinned through bit equality with the portable one.  A change that
//! moves the digest replaces the constant and says why.

use beamform::Engine;
use ccglib::gemm::{gemm_f16_on, gemm_int1_on};
use ccglib::matrix::HostComplexMatrix;
use ccglib::synth::pseudo_random_matrix;
use ccglib::{GemmInput, Isa, Precision};
use gpu_sim::{BitOp, Gpu};
use tcbf::BeamformerBuilder;

/// The digest of the grid below, as every build and host computes it:
/// only the portable path's GEMM outputs and the engines' outputs are
/// folded, so the number of paths a host detects does not enter it.
const EXPECTED: u64 = 0x758f_e0e3_e233_e7ee;

/// `(beams M, samples N, receivers K, precision)`: the four
/// `BENCHMARK.json` workloads' blocks, then two shapes ragged in every
/// dimension, in both precisions.
const CASES: [(usize, usize, usize, Precision); 8] = [
    (1024, 128, 128, Precision::Float16),
    (1024, 128, 1024, Precision::Int1),
    (32, 256, 2048, Precision::Int1),
    (128, 256, 512, Precision::Float16),
    (7, 37, 70, Precision::Float16),
    (7, 37, 70, Precision::Int1),
    (37, 65, 333, Precision::Float16),
    (37, 65, 333, Precision::Int1),
];

/// FNV-1a over the `re`, `im` bits of every element, in row-major order.
fn fold(digest: &mut u64, output: &HostComplexMatrix) {
    for value in output.data() {
        for bits in [value.re.to_bits(), value.im.to_bits()] {
            for byte in bits.to_le_bytes() {
                *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// True when both outputs hold the same `f32` bits element for element.
fn bits_equal(a: &HostComplexMatrix, b: &HostComplexMatrix) -> bool {
    a.data().len() == b.data().len()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

#[test]
fn executed_outputs_match_the_committed_digest() {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for (seed, &(m, n, k, precision)) in (1u64..).zip(&CASES) {
        let weights = pseudo_random_matrix(m, k, seed, 1.0);
        let block = pseudo_random_matrix(k, n, 100 + seed, 1.0);
        let samples_t = block.transposed();
        // `Isa::available()` starts with the portable path every host has:
        // its outputs are folded, and every other path must match them.
        let mut reference: Option<Vec<HostComplexMatrix>> = None;
        for isa in Isa::available() {
            let pair = match precision {
                Precision::Int1 => (
                    GemmInput::quantise_int1_on(isa, &weights),
                    GemmInput::quantise_int1_on(isa, &samples_t),
                ),
                _ => (
                    GemmInput::quantise_f16_on(isa, &weights),
                    GemmInput::quantise_f16_on(isa, &samples_t),
                ),
            };
            let outputs = match pair {
                (GemmInput::F16(a), GemmInput::F16(b)) => vec![gemm_f16_on(isa, &a, &b).unwrap()],
                (GemmInput::Int1(a), GemmInput::Int1(b)) => [BitOp::Xor, BitOp::And]
                    .map(|op| gemm_int1_on(isa, &a, &b, op).unwrap())
                    .into(),
                _ => unreachable!("both operands share the precision"),
            };
            match &reference {
                None => {
                    outputs.iter().for_each(|output| fold(&mut digest, output));
                    reference = Some(outputs);
                }
                Some(reference) => {
                    for (output, expected) in outputs.iter().zip(reference) {
                        assert!(
                            bits_equal(output, expected),
                            "{isa:?} differs from the portable path on {m}x{n}x{k} {precision:?}"
                        );
                    }
                }
            }
        }
        for pool in [&[Gpu::A100][..], &[Gpu::A100, Gpu::Gh200, Gpu::Ad4000]] {
            let mut engine = BeamformerBuilder::new(Gpu::A100)
                .devices(pool)
                .weights(weights.clone())
                .samples_per_block(n)
                .precision(precision)
                .build_engine()
                .unwrap();
            fold(&mut digest, &engine.process_block(&block).unwrap().beams);
        }
    }
    assert_eq!(
        digest, EXPECTED,
        "executed outputs moved: {digest:#018x} != {EXPECTED:#018x}"
    );
}
