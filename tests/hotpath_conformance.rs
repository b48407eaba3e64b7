//! Conformance of the rewritten GEMM hot path against the reference
//! kernels.
//!
//! The hot-path rewrite (fused `dot4` popcounts, the blocked f16
//! micro-kernel over pre-decoded planes, decode-once prepared operands)
//! must be invisible to every consumer: 1-bit outputs stay bit-identical
//! to the decoded ±1 reference, float16 outputs stay within quantisation
//! tolerance of the f32 reference (and bit-identical to it when the
//! inputs make every intermediate exact), an operand prepared once
//! produces exactly the same bits as one prepared per call, and a boxed
//! `build_engine()` engine equals the scalar definition of either
//! precision bit for bit on arbitrary inputs.

use beamform::Engine;
use ccglib::gemm::{gemm_dispatch_prepared, gemm_f16_on, gemm_int1_on};
use ccglib::matrix::{F16Matrix, HostComplexMatrix, Int1Matrix};
use ccglib::synth::{exact_integer_matrix, pseudo_random_matrix};
use ccglib::{Gemm, GemmInput, Isa, Precision};
use gpu_sim::{BitOp, Gpu};
use proptest::prelude::*;
use tcbf::BeamformerBuilder;
use tcbf_types::{f16, Complex, GemmShape, PackedBits};

#[test]
fn decode_once_batch_is_bit_identical_to_single_runs() {
    // A prepared `A` is decoded once for a whole batch of blocks; every
    // output must still equal `Gemm::run`'s, which prepares `A` afresh per
    // call, bit for bit.
    let device = Gpu::A100.device();
    let a_host = pseudo_random_matrix(16, 96, 1, 1.0);
    let blocks: Vec<HostComplexMatrix> = (0..4)
        .map(|e| pseudo_random_matrix(96, 12, 100 + e, 1.0))
        .collect();

    for precision in [Precision::Float16, Precision::Int1] {
        let a = quantise_on(Isa::detected(), precision, &a_host);
        let prepared = a.prepare();
        let gemm = Gemm::new(&device, GemmShape::new(16, 12, 96), precision).unwrap();
        for block in &blocks {
            let b_t = quantise_on(Isa::detected(), precision, &block.transposed());
            let (out, _) = gemm.run_prepared(&prepared, &b_t).unwrap();
            let (direct, _) = gemm.run(&a, &b_t).unwrap();
            assert_eq!(out, direct, "{precision}: run_prepared diverged");
        }
    }
}

/// `host` quantised to `precision` on `isa`, as the engine quantises its
/// weights (row-major, a GEMM's `A`) and a block's `transposed()` view (a
/// GEMM's `B`).
fn quantise_on(isa: Isa, precision: Precision, host: &HostComplexMatrix) -> GemmInput {
    match precision {
        Precision::Int1 => GemmInput::quantise_int1_on(isa, host),
        _ => GemmInput::quantise_f16_on(isa, host),
    }
}

/// Asserts that two operands hold the same values in the same places,
/// whichever layout stores them: the bits of both binary16 planes read
/// row-major (NaN payloads included, which binary16 `==` would not
/// equate), or the bit planes by `==`.
fn assert_same_operand(x: &GemmInput, y: &GemmInput) {
    match (x, y) {
        (GemmInput::F16(x), GemmInput::F16(y)) => {
            let bits = |m: &F16Matrix| {
                let plane = |plane: &[f16]| plane.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
                ((m.rows(), m.cols()), plane(m.re()), plane(m.im()))
            };
            assert_eq!(bits(x), bits(y));
        }
        (GemmInput::Int1(x), GemmInput::Int1(y)) => assert_eq!(x, y),
        _ => panic!("operands of two precisions"),
    }
}

/// The 1-bit encoding of one component: everything that is not `>= 0`
/// is −1 (bit 0) — NaN included — and −0.0 is +1 (bit 1) like +0.0.
fn one_bit(v: f32) -> bool {
    !(v.is_nan() || (v.is_sign_negative() && v != 0.0))
}

/// An operand built one element at a time from the scalar definitions,
/// with no bulk encoder, word-assembling packer or tiled transpose in
/// the way.  `element(row, k)` reads the host value.
fn element_wise_operand(
    precision: Precision,
    rows: usize,
    k: usize,
    element: impl Fn(usize, usize) -> Complex<f32>,
) -> GemmInput {
    let host = HostComplexMatrix::from_fn(rows, k, &element);
    match precision {
        Precision::Int1 => {
            // `Int1Matrix` has no per-row constructor, so pin the packed
            // rows against per-bit `PackedBits::set` instead.
            let packed = Int1Matrix::from_host_padded(&host, GemmInput::DEFAULT_INT1_K_GRANULARITY);
            for r in 0..rows {
                let mut re = PackedBits::zeros(packed.k_padded());
                let mut im = PackedBits::zeros(packed.k_padded());
                for c in 0..k {
                    re.set(c, one_bit(element(r, c).re));
                    im.set(c, one_bit(element(r, c).im));
                }
                assert_eq!(packed.re_row(r), &re, "re row {r}");
                assert_eq!(packed.im_row(r), &im, "im row {r}");
            }
            GemmInput::Int1(packed)
        }
        _ => {
            let plane = |part: fn(&Complex<f32>) -> f32| -> Vec<f16> {
                host.data().iter().map(|v| f16::from_f32(part(v))).collect()
            };
            let planes = F16Matrix::from_planes(rows, k, plane(|v| v.re), plane(|v| v.im));
            GemmInput::F16(planes.unwrap())
        }
    }
}

fn bits(m: &HostComplexMatrix) -> Vec<(u32, u32)> {
    let of = |v: &Complex<f32>| (v.re.to_bits(), v.im.to_bits());
    m.data().iter().map(of).collect()
}

/// ROADMAP hostile-input item (c) at engine level: NaN, ±Inf, binary32
/// and binary16 subnormals, values that overflow binary16 and −0.0 in a
/// sample block give a *defined* result — the one the scalar definitions
/// give — through `build_engine()`, on one device and on a pool, for both
/// precisions.  Never a panic.
#[test]
fn hostile_samples_give_the_element_wise_result_through_the_engine() {
    // 70 × 37 straddles the transpose tile on both axes and leaves the
    // bulk f16 encoder a ragged tail.
    let (beams, receivers, samples) = (3, 70, 37);
    let hostile = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e-40,   // binary32 subnormal
        -1e-40,  // … and negative: −1 in 1-bit
        65520.0, // rounds to binary16 infinity
        -1e9,
        3.0e-6, // binary16 subnormal
        -0.0,
    ];
    let weights = pseudo_random_matrix(beams, receivers, 7, 1.0);
    let clean = pseudo_random_matrix(receivers, samples, 8, 1.0);
    let block = HostComplexMatrix::from_fn(receivers, samples, |r, s| {
        let i = r * samples + s;
        let v = clean.get(r, s);
        match i % 13 {
            0 => Complex::new(hostile[(i / 13) % hostile.len()], v.im),
            6 => Complex::new(v.re, hostile[(i / 13 + 4) % hostile.len()]),
            _ => v,
        }
    });

    for precision in [Precision::Float16, Precision::Int1] {
        let a = element_wise_operand(precision, beams, receivers, |b, k| weights.get(b, k));
        let b_t = quantise_on(Isa::detected(), precision, &block.transposed());
        assert_same_operand(
            &element_wise_operand(precision, samples, receivers, |n, k| block.get(k, n)),
            &b_t,
        );
        if let GemmInput::Int1(packed) = &b_t {
            // block(0, 0).re is NaN → −1; every −0.0 → +1.
            let decoded = packed.to_host();
            assert_eq!(decoded.get(0, 0).re, -1.0);
            let negative_zeros: Vec<(usize, usize)> = (0..samples)
                .flat_map(|n| (0..receivers).map(move |k| (n, k)))
                .filter(|&(n, k)| block.get(k, n).re.to_bits() == (-0.0f32).to_bits())
                .collect();
            assert!(!negative_zeros.is_empty());
            for (n, k) in negative_zeros {
                assert_eq!(decoded.get(n, k).re, 1.0);
            }
        }
        let shape = GemmShape::new(beams, samples, receivers);
        let gemm = Gemm::new(&Gpu::A100.device(), shape, precision).unwrap();
        let (expected, _) = gemm.run(&a, &b_t).unwrap();
        if precision == Precision::Int1 {
            // 1-bit outputs are sums of ±1 products: always finite.
            assert!(expected
                .data()
                .iter()
                .all(|v| v.re.is_finite() && v.im.is_finite()));
        }

        for pool in [&[Gpu::A100][..], &[Gpu::A100, Gpu::A100]] {
            let mut engine = BeamformerBuilder::new(Gpu::A100)
                .devices(pool)
                .weights(weights.clone())
                .samples_per_block(samples)
                .precision(precision)
                .build_engine()
                .unwrap();
            let outputs = engine.process_batch(&[&block, &block]).unwrap();
            assert_eq!(outputs.len(), 2);
            for output in &outputs {
                assert_eq!(
                    bits(&output.beams),
                    bits(&expected),
                    "{precision} on {} device(s)",
                    pool.len()
                );
            }
        }
    }
}

/// [`bits`] with every NaN made the same one: which payload a NaN result
/// carries depends on the operand order an instruction was given, which is
/// the compiler's choice per kernel instance.
fn bits_nan_as_nan(m: &HostComplexMatrix) -> Vec<(u32, u32)> {
    let of = |v: f32| if v.is_nan() { u32::MAX } else { v.to_bits() };
    m.data().iter().map(|v| (of(v.re), of(v.im))).collect()
}

/// ROADMAP hostile-input item (c), the other operand: the *weights* hold
/// NaN (with payload, either sign), ±Inf, −0.0, a subnormal, ±65504 and
/// their neighbours on both sides of the binary16 overflow, `f32::MAX` — in
/// every other beam, at ragged `M`, `N` and `K`.  The engine's beams are
/// then what each kernel instance the host has gives on the element-wise
/// quantised operands, no panic, and a beam whose weights are finite comes
/// out finite and exactly as it does beside clean neighbours: a hostile row
/// of the register tile does not leak into the other three.
#[test]
fn hostile_weights_give_every_kernel_paths_result_through_the_engine() {
    let (beams, receivers, samples) = (7, 70, 37);
    let hostile = [
        f32::from_bits(0x7fc0_1234), // NaN with a payload
        f32::from_bits(0xffa0_0001), // … negative and signalling
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        1e-40, // binary32 subnormal
        65504.0,
        -65504.0,
        65519.0, // rounds down to the largest binary16
        65520.0, // rounds up to infinity
        -65520.0,
        f32::MAX,
        f32::MIN_POSITIVE,
    ];
    let clean = pseudo_random_matrix(beams, receivers, 17, 1.0);
    let weights = HostComplexMatrix::from_fn(beams, receivers, |b, k| {
        let i = b * receivers + k;
        let v = clean.get(b, k);
        match (b % 2, i % 5) {
            (0, 0) => Complex::new(hostile[(i / 5) % hostile.len()], v.im),
            (0, 3) => Complex::new(v.re, hostile[(i / 5 + 6) % hostile.len()]),
            _ => v,
        }
    });
    let block = pseudo_random_matrix(receivers, samples, 18, 1.0);
    let finite = |m: &HostComplexMatrix, row: usize| {
        (0..m.cols()).all(|c| m.get(row, c).re.is_finite() && m.get(row, c).im.is_finite())
    };

    for precision in [Precision::Float16, Precision::Int1] {
        let a = element_wise_operand(precision, beams, receivers, |b, k| weights.get(b, k));
        let element_wise =
            element_wise_operand(precision, samples, receivers, |n, k| block.get(k, n));
        let build = |weights: &HostComplexMatrix, pool: &[Gpu]| {
            BeamformerBuilder::new(Gpu::A100)
                .devices(pool)
                .weights(weights.clone())
                .samples_per_block(samples)
                .precision(precision)
                .build_engine()
                .unwrap()
        };
        let beside_clean_rows = build(&clean, &[Gpu::A100])
            .process_batch(&[&block])
            .unwrap()
            .remove(0)
            .beams;

        for pool in [&[Gpu::A100][..], &[Gpu::A100, Gpu::A100]] {
            let outputs = build(&weights, pool)
                .process_batch(&[&block, &block])
                .unwrap();
            assert_eq!(outputs.len(), 2);
            for output in &outputs {
                let beams_out = &output.beams;
                for isa in Isa::available() {
                    let b_t = quantise_on(isa, precision, &block.transposed());
                    assert_same_operand(&element_wise, &b_t);
                    let expected = match (&a, &b_t) {
                        (GemmInput::F16(a), GemmInput::F16(b_t)) => {
                            vec![gemm_f16_on(isa, a, b_t).unwrap()]
                        }
                        (GemmInput::Int1(a), GemmInput::Int1(b_t)) => {
                            vec![gemm_int1_on(isa, a, b_t).unwrap()]
                        }
                        _ => unreachable!("both operands were quantised to {precision}"),
                    };
                    for expected in &expected {
                        assert_eq!(
                            bits_nan_as_nan(beams_out),
                            bits_nan_as_nan(expected),
                            "{precision} on {} device(s) against {isa:?}",
                            pool.len()
                        );
                    }
                }
                for beam in 0..beams {
                    let hostile_row = beam % 2 == 0;
                    // 1-bit outputs are sums of ±1 products, always finite;
                    // a float16 beam is finite exactly when its weights are
                    // (so the hostile values did reach the kernel).
                    let expect_finite = precision == Precision::Int1 || !hostile_row;
                    assert_eq!(
                        finite(beams_out, beam),
                        expect_finite,
                        "{precision}: beam {beam}"
                    );
                    if !hostile_row {
                        for n in 0..samples {
                            let (got, clean) =
                                (beams_out.get(beam, n), beside_clean_rows.get(beam, n));
                            assert_eq!(
                                (got.re.to_bits(), got.im.to_bits()),
                                (clean.re.to_bits(), clean.im.to_bits()),
                                "{precision}: beam {beam}, sample {n}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Runs `blocks` through a freshly built `Box<dyn Engine>` and returns the
/// beams of each.
fn engine_outputs(
    weights: &HostComplexMatrix,
    samples: usize,
    precision: Precision,
    blocks: &[HostComplexMatrix],
) -> Vec<HostComplexMatrix> {
    let mut engine = BeamformerBuilder::new(Gpu::A100)
        .weights(weights.clone())
        .samples_per_block(samples)
        .precision(precision)
        .build_engine()
        .expect("a non-empty shape builds");
    let refs: Vec<&HostComplexMatrix> = blocks.iter().collect();
    let outputs = engine.process_batch(&refs).expect("conforming blocks run");
    outputs.into_iter().map(|output| output.beams).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The 1-bit kernel stays bit-identical to the decoded ±1 reference
    /// for shapes whose K is not a multiple of the word size, tile depth or
    /// packing granularity.
    #[test]
    fn int1_hot_path_is_bit_identical_to_reference(
        m in 1usize..10, n in 1usize..10, k in 1usize..520,
        granularity_index in 0usize..3,
        seed in any::<u64>(),
    ) {
        let granularity = [32usize, 128, 256][granularity_index];
        let a_host = pseudo_random_matrix(m, k, seed, 1.0);
        let b_host = pseudo_random_matrix(k, n, seed ^ 0xFEED, 1.0).transposed();
        let a = Int1Matrix::from_host_padded(&a_host, granularity);
        let b = Int1Matrix::from_host_padded(&b_host, granularity);
        let reference = ccglib::reference_gemm(&a.to_host(), &b.to_host()).unwrap();
        let (a, b) = (GemmInput::Int1(a), GemmInput::Int1(b));
        let result = gemm_dispatch_prepared(&a.prepare(), &b, BitOp::And).unwrap();
        // Integer outputs: exact equality, not a tolerance.
        prop_assert_eq!(&result, &reference);
    }

    /// The blocked f16 micro-kernel is bit-identical to the f32 reference
    /// whenever the arithmetic is exact, across K values straddling the
    /// lane count, j-tile and k-tile boundaries.
    #[test]
    fn f16_hot_path_is_bit_identical_to_reference_on_exact_inputs(
        m in 1usize..8, n in 1usize..12, k in 1usize..1100, seed in any::<u64>(),
    ) {
        let a_host = exact_integer_matrix(m, k, seed);
        let b_host = exact_integer_matrix(k, n, seed ^ 0xBEEF).transposed();
        let a = GemmInput::quantise_f16(&a_host);
        let b = GemmInput::quantise_f16(&b_host);
        let result = gemm_dispatch_prepared(&a.prepare(), &b, BitOp::Xor).unwrap();
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
        let b_host = pseudo_random_matrix(k, n, seed ^ 0x7777, 1.0).transposed();
        let a = GemmInput::quantise_f16(&a_host);
        let b = GemmInput::quantise_f16(&b_host);
        let result = gemm_dispatch_prepared(&a.prepare(), &b, BitOp::Xor).unwrap();
        let reference = ccglib::reference_gemm(&a_host, &b_host).unwrap();
        let tol = 2.0 * 2.0f32.powi(-11) * 2.0 * k as f32;
        prop_assert!(result.max_abs_diff(&reference) < tol);
    }

    /// A boxed `build_engine()` engine equals the definition of one float16
    /// output — both operands rounded to binary16, four `mul_add` chains in
    /// ascending `k`, then `rr − ii` and `ri + ir` — bit for bit, on
    /// arbitrary inputs and ragged shapes that straddle tile and lane
    /// boundaries.
    #[test]
    fn f16_engine_is_bit_identical_to_the_four_chain_definition(
        beams in 1usize..6, receivers in 1usize..40, samples in 1usize..12,
        seed in any::<u64>(),
    ) {
        let weights = pseudo_random_matrix(beams, receivers, seed ^ 0x5EED, 1.0);
        let blocks: Vec<_> = (0..2)
            .map(|b| pseudo_random_matrix(receivers, samples, seed.wrapping_add(b), 1.0))
            .collect();
        let outputs = engine_outputs(&weights, samples, Precision::Float16, &blocks);
        prop_assert_eq!(outputs.len(), blocks.len());
        let a = F16Matrix::from_host(&weights);
        for (got, block) in outputs.iter().zip(&blocks) {
            let b = F16Matrix::from_host(block);
            let definition = HostComplexMatrix::from_fn(beams, samples, |i, j| {
                let mut acc = [0.0f32; 4];
                for k in 0..receivers {
                    let (x, y) = (a.get(i, k), b.get(k, j));
                    acc[0] = x.re.mul_add(y.re, acc[0]);
                    acc[1] = x.im.mul_add(y.im, acc[1]);
                    acc[2] = x.re.mul_add(y.im, acc[2]);
                    acc[3] = x.im.mul_add(y.re, acc[3]);
                }
                Complex::new(acc[0] - acc[1], acc[2] + acc[3])
            });
            prop_assert_eq!(bits(got), bits(&definition));
        }
    }

    /// The int1 twin: a boxed engine equals the exact integer definition —
    /// every component ±1 by [`one_bit`], the complex products summed in
    /// integers — on arbitrary inputs.
    #[test]
    fn int1_engine_is_bit_identical_to_the_integer_definition(
        beams in 1usize..6, receivers in 1usize..40, samples in 1usize..12,
        seed in any::<u64>(),
    ) {
        let weights = pseudo_random_matrix(beams, receivers, seed ^ 0x0B17, 1.0);
        let blocks: Vec<_> = (0..2)
            .map(|b| pseudo_random_matrix(receivers, samples, seed.wrapping_add(b) | 1, 1.0))
            .collect();
        let outputs = engine_outputs(&weights, samples, Precision::Int1, &blocks);
        prop_assert_eq!(outputs.len(), blocks.len());
        let sign = |v: f32| if one_bit(v) { 1i32 } else { -1 };
        for (got, block) in outputs.iter().zip(&blocks) {
            let definition = HostComplexMatrix::from_fn(beams, samples, |i, j| {
                let (mut re, mut im) = (0i32, 0i32);
                for k in 0..receivers {
                    let (x, y) = (weights.get(i, k), block.get(k, j));
                    let (xr, xi, yr, yi) = (sign(x.re), sign(x.im), sign(y.re), sign(y.im));
                    re += xr * yr - xi * yi;
                    im += xr * yi + xi * yr;
                }
                Complex::new(re as f32, im as f32)
            });
            prop_assert_eq!(bits(got), bits(&definition));
        }
    }
}
