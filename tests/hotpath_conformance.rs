//! Conformance of the rewritten GEMM hot path against the reference
//! kernels.
//!
//! The hot-path rewrite (fused `dot4` popcounts, the blocked f16
//! micro-kernel over pre-decoded planes, decode-once batched execution)
//! must be invisible to every consumer: 1-bit outputs stay bit-identical
//! to the decoded ±1 reference, float16 outputs stay within quantisation
//! tolerance of the f32 reference (and bit-identical to it when the
//! inputs make every intermediate exact), and the prepared/batched entry
//! points produce exactly the same bits as the one-shot path.

use ccglib::matrix::HostComplexMatrix;
use ccglib::synth::{exact_integer_matrix, pseudo_random_matrix};
use ccglib::{Gemm, GemmInput, Precision, PreparedOperand};
use gpu_sim::{BitOp, Gpu};
use proptest::prelude::*;
use tcbf_types::GemmShape;

#[test]
fn decode_once_batch_is_bit_identical_to_single_runs() {
    // The shared-A batched path decodes the weights once for the whole
    // batch; its outputs must still equal the one-pair path bit for bit.
    let device = Gpu::A100.device();
    let batch = 4;
    let a_host = pseudo_random_matrix(16, 96, 1, 1.0);
    let b_hosts: Vec<HostComplexMatrix> = (0..batch)
        .map(|e| pseudo_random_matrix(12, 96, 100 + e as u64, 1.0))
        .collect();

    for precision in [Precision::Float16, Precision::Int1] {
        let quantise = |host: &HostComplexMatrix| match precision {
            Precision::Int1 => GemmInput::quantise_int1(host),
            _ => GemmInput::quantise_f16(host),
        };
        let a = quantise(&a_host);
        let b_ts: Vec<GemmInput> = b_hosts.iter().map(&quantise).collect();

        let single = Gemm::new(&device, GemmShape::new(16, 12, 96), precision).unwrap();
        let batched = Gemm::new(&device, GemmShape::batched(batch, 16, 12, 96), precision).unwrap();

        let expected: Vec<HostComplexMatrix> = b_ts
            .iter()
            .map(|b_t| single.run(&a, b_t).unwrap().0)
            .collect();

        // run_batch with a shared A: the same prepared operand (decoded
        // once, cached across calls) repeated for every batch element.
        let prepared = PreparedOperand::new(a.clone());
        let pairs: Vec<(&PreparedOperand, &GemmInput)> =
            b_ts.iter().map(|b_t| (&prepared, b_t)).collect();
        let (outputs, _) = batched.run_batch(&pairs).unwrap();
        assert_eq!(outputs, expected, "{precision}: run_batch diverged");
        for b_t in &b_ts {
            let (out, _) = single.run_prepared(&prepared, b_t).unwrap();
            let (direct, _) = single.run(&a, b_t).unwrap();
            assert_eq!(out, direct, "{precision}: run_prepared diverged");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fused dot4 1-bit kernel stays bit-identical to the decoded ±1
    /// reference for shapes whose K is not a multiple of the word size,
    /// tile depth or packing granularity, in both formulations.
    #[test]
    fn int1_hot_path_is_bit_identical_to_reference(
        m in 1usize..10, n in 1usize..10, k in 1usize..520,
        granularity_index in 0usize..3,
        seed in any::<u64>(),
    ) {
        let granularity = [32usize, 128, 256][granularity_index];
        let a_host = pseudo_random_matrix(m, k, seed, 1.0);
        let b_host = pseudo_random_matrix(n, k, seed ^ 0xFEED, 1.0);
        let a = GemmInput::quantise_int1_padded(&a_host, granularity);
        let b = GemmInput::quantise_int1_padded(&b_host, granularity);
        let (qa, qb) = match (&a, &b) {
            (GemmInput::Int1(a), GemmInput::Int1(b)) => (a.to_host(), b.to_host()),
            _ => unreachable!(),
        };
        let reference = ccglib::reference_gemm(&qa, &qb).unwrap();
        let xor = ccglib::gemm::gemm_dispatch(&a, &b, BitOp::Xor).unwrap();
        let and = ccglib::gemm::gemm_dispatch(&a, &b, BitOp::And).unwrap();
        // Integer outputs: exact equality, not a tolerance.
        prop_assert_eq!(&xor, &reference);
        prop_assert_eq!(&xor, &and);
    }

    /// The blocked f16 micro-kernel is bit-identical to the f32 reference
    /// whenever the arithmetic is exact, across K values straddling the
    /// lane count, j-tile and k-tile boundaries.
    #[test]
    fn f16_hot_path_is_bit_identical_to_reference_on_exact_inputs(
        m in 1usize..8, n in 1usize..12, k in 1usize..1100, seed in any::<u64>(),
    ) {
        let a_host = exact_integer_matrix(m, k, seed);
        let b_host = exact_integer_matrix(n, k, seed ^ 0xBEEF);
        let a = GemmInput::quantise_f16(&a_host);
        let b = GemmInput::quantise_f16(&b_host);
        let result = ccglib::gemm::gemm_dispatch(&a, &b, BitOp::Xor).unwrap();
        let reference = ccglib::reference_gemm(&a_host, &b_host).unwrap();
        prop_assert_eq!(result, reference);
    }

    /// On arbitrary continuous inputs the micro-kernel stays within the
    /// binary16 quantisation envelope of the full-precision reference.
    #[test]
    fn f16_hot_path_stays_within_quantisation_tolerance(
        m in 1usize..6, n in 1usize..6, k in 1usize..260, seed in any::<u64>(),
    ) {
        let a_host = pseudo_random_matrix(m, k, seed, 1.0);
        let b_host = pseudo_random_matrix(n, k, seed ^ 0x7777, 1.0);
        let a = GemmInput::quantise_f16(&a_host);
        let b = GemmInput::quantise_f16(&b_host);
        let result = ccglib::gemm::gemm_dispatch(&a, &b, BitOp::Xor).unwrap();
        let reference = ccglib::reference_gemm(&a_host, &b_host).unwrap();
        let tol = 2.0 * 2.0f32.powi(-11) * 2.0 * k as f32;
        prop_assert!(result.max_abs_diff(&reference) < tol);
    }
}
