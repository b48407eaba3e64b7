//! Functional complex GEMM kernels.
//!
//! Two tensor-core kernels are implemented, mirroring Sections III-B, III-D
//! and III-E of the paper:
//!
//! * **float16** — complex multiplication decomposed into four real
//!   multiply-accumulates with an in-register negation of `Im(b)`; inputs
//!   are binary16, accumulation is binary32.
//! * **int1** — inputs are ±1 encoded as single bits; real-valued dot
//!   products are computed from XOR + popcount (Table II) or, on
//!   architectures where XOR is deprecated, from two AND + popcount passes
//!   (Eq. 6).  Complex outputs apply the padding correction of Eq. 5: the
//!   real part is insensitive to the −1-valued padding (the two partial
//!   products cancel), while the imaginary part must subtract the
//!   `K_pad` contribution.
//!
//! Operand convention used throughout the crate: `A` is `M×K`, `B` is
//! supplied **transposed** as `N×K` (each row holds the `K`-vector of one
//! output column).  This is the orientation the transpose kernel produces
//! and the one in which both the bit-rows of the 1-bit kernel and the
//! fragment loads of the 16-bit kernel are contiguous.

use crate::error::{CcglibError, Result};
use crate::matrix::{F16Matrix, HostComplexMatrix, Int1Matrix};
use crate::micro::MicroKernelConfig;
use crate::Precision;
use gpu_sim::BitOp;
use rayon::prelude::*;
use tcbf_types::{decode_to_f32, Complex32, PackedBits};

/// The beamformed output matrix: `M×N` complex values in single precision
/// (for 1-bit inputs the components are integers represented exactly).
pub type ComplexOutput = HostComplexMatrix;

/// A quantised GEMM operand, ready for the tensor-core kernels.
#[derive(Clone, Debug)]
pub enum GemmInput {
    /// Planar binary16 operand.
    F16(F16Matrix),
    /// Packed 1-bit operand.
    Int1(Int1Matrix),
}

impl GemmInput {
    /// Default packing granularity for 1-bit operands: the depth of the
    /// 16×8×256 fragment, so a packed operand is always consumable by
    /// either fragment layout.
    pub const DEFAULT_INT1_K_GRANULARITY: usize = 256;

    /// Quantises a host matrix to binary16 planes.
    pub fn quantise_f16(host: &HostComplexMatrix) -> Self {
        GemmInput::F16(F16Matrix::from_host(host))
    }

    /// Builds a binary16 operand from interleaved single-precision data
    /// (the layout applications naturally produce); the split into planes
    /// is what the paper's transpose kernel does.
    ///
    /// A buffer that is not `2·rows·cols` scalars long is a
    /// [`CcglibError::ShapeMismatch`].
    pub fn quantise_f16_interleaved(rows: usize, cols: usize, interleaved: &[f32]) -> Result<Self> {
        crate::transpose::interleaved_to_planar(rows, cols, interleaved).map(GemmInput::F16)
    }

    /// Quantises a host matrix to packed 1-bit planes with the default
    /// padding granularity.
    pub fn quantise_int1(host: &HostComplexMatrix) -> Self {
        GemmInput::Int1(Int1Matrix::from_host_padded(
            host,
            Self::DEFAULT_INT1_K_GRANULARITY,
        ))
    }

    /// Quantises to 1-bit with an explicit padding granularity.
    pub fn quantise_int1_padded(host: &HostComplexMatrix, k_granularity: usize) -> Self {
        GemmInput::Int1(Int1Matrix::from_host_padded(host, k_granularity))
    }

    /// Precision of this operand.
    pub fn precision(&self) -> Precision {
        match self {
            GemmInput::F16(_) => Precision::Float16,
            GemmInput::Int1(_) => Precision::Int1,
        }
    }

    /// Number of rows (M for the `A` operand, N for the transposed `B`).
    pub fn rows(&self) -> usize {
        match self {
            GemmInput::F16(m) => m.rows(),
            GemmInput::Int1(m) => m.rows(),
        }
    }

    /// Logical reduction-dimension length (K, before padding).
    pub fn k(&self) -> usize {
        match self {
            GemmInput::F16(m) => m.cols(),
            GemmInput::Int1(m) => m.k_bits(),
        }
    }

    /// Device-memory footprint in bytes.
    pub fn device_bytes(&self) -> u128 {
        match self {
            GemmInput::F16(m) => m.device_bytes(),
            GemmInput::Int1(m) => m.device_bytes(),
        }
    }
}

/// A binary16 operand bulk-decoded to binary32 planes once, so the GEMM
/// micro-kernel streams plain `f32` data instead of converting inside the
/// inner loop.
///
/// The decode is exact (binary16 ⊂ binary32) and costs `O(rows·cols)`
/// table lookups; the naive kernel paid an `O(M·N·K)` conversion tax by
/// widening all four operand values per multiply-accumulate.
#[derive(Clone, Debug)]
pub struct DecodedPlanes {
    rows: usize,
    cols: usize,
    re: Vec<f32>,
    im: Vec<f32>,
}

impl DecodedPlanes {
    /// Decodes both planes of a binary16 matrix in one bulk pass each.
    pub fn from_f16(matrix: &F16Matrix) -> Self {
        DecodedPlanes {
            rows: matrix.rows(),
            cols: matrix.cols(),
            re: decode_to_f32(matrix.re()),
            im: decode_to_f32(matrix.im()),
        }
    }

    /// The preparation an operand needs, if any: binary16 operands decode
    /// to f32 planes, packed 1-bit operands are already in kernel format.
    /// The single source of truth for the precision→preparation mapping
    /// (used by [`PreparedOperand::new`]).
    pub fn maybe_from(input: &GemmInput) -> Option<Self> {
        match input {
            GemmInput::F16(m) => Some(DecodedPlanes::from_f16(m)),
            GemmInput::Int1(_) => None,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }
    /// Number of columns (the reduction dimension K).
    pub fn cols(&self) -> usize {
        self.cols
    }
    /// Decoded real plane, row-major.
    pub fn re(&self) -> &[f32] {
        &self.re
    }
    /// Decoded imaginary plane, row-major.
    pub fn im(&self) -> &[f32] {
        &self.im
    }
}

/// A GEMM operand with its precision-specific pre-processing done once, so
/// repeated executions (streaming sessions, shared-`A` batches) skip it.
///
/// For binary16 operands this holds the bulk-decoded f32 planes alongside
/// the original operand; 1-bit operands are already in kernel format, so
/// preparation is free.  Built with [`GemmInput::prepare`] or
/// [`PreparedOperand::new`] and consumed by [`crate::Gemm::run_prepared`]
/// and [`crate::Gemm::run_batch`].
#[derive(Clone, Debug)]
pub struct PreparedOperand {
    input: GemmInput,
    decoded: Option<DecodedPlanes>,
}

impl PreparedOperand {
    /// Prepares an operand, taking ownership.
    pub fn new(input: GemmInput) -> Self {
        let decoded = DecodedPlanes::maybe_from(&input);
        PreparedOperand { input, decoded }
    }

    /// The quantised operand this preparation wraps.
    pub fn input(&self) -> &GemmInput {
        &self.input
    }

    /// The pre-decoded planes (binary16 operands only).
    pub fn decoded(&self) -> Option<&DecodedPlanes> {
        self.decoded.as_ref()
    }
}

impl From<GemmInput> for PreparedOperand {
    fn from(input: GemmInput) -> Self {
        PreparedOperand::new(input)
    }
}

impl GemmInput {
    /// Pre-processes this operand for repeated kernel executions (bulk
    /// half→float decode for binary16; a no-op for packed 1-bit data).
    ///
    /// This clones the operand so the original stays usable; callers that
    /// own the operand and are done with it should move it into
    /// [`PreparedOperand::new`] instead and skip the copy.
    pub fn prepare(&self) -> PreparedOperand {
        PreparedOperand::new(self.clone())
    }
}

/// One vectorised fused-multiply-add step over a lane group.
#[inline(always)]
fn fma_lanes<const LANES: usize>(acc: &mut [f32; LANES], a: &[f32], b: &[f32]) {
    for l in 0..LANES {
        acc[l] = a[l].mul_add(b[l], acc[l]);
    }
}

/// Fixed pairwise reduction of one lane vector (plus the scalar-remainder
/// accumulator), keeping the summation order independent of `K`.
///
/// Adjacent lanes are halved pairwise — `buf[i] = buf[2i] + buf[2i+1]` —
/// until one value remains, the same summation tree at every power-of-two
/// width.  For 8 lanes this is exactly the historical hand-written order
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, so the default configuration
/// is bit-for-bit the pre-refactor kernel.
#[inline(always)]
fn reduce_lanes<const LANES: usize>(lanes: &[f32; LANES], tail: f32) -> f32 {
    let mut buf = *lanes;
    let mut width = LANES;
    while width > 1 {
        width /= 2;
        for i in 0..width {
            buf[i] = buf[2 * i] + buf[2 * i + 1];
        }
    }
    buf[0] + tail
}

/// The blocked f16 micro-kernel over pre-decoded f32 planes: one output
/// row per invocation, tiled over `j` (output columns, `JT` at a time) and
/// `k` (the reduction dimension, `k_tile` at a time), four lane-vector
/// accumulators of `LANES` lanes per column held in registers, fused
/// multiply-adds in the inner loop.
///
/// Per output element the four real accumulations of Section III-B are
/// chained in ascending `k` within each lane, and the lanes are combined
/// in a fixed pairwise order at the end — a deterministic schedule, the
/// software analogue of the per-fragment accumulators the tensor-core
/// kernel keeps in flight.  `Im(b)` is negated "in registers" by
/// subtracting the `ii` accumulator at the end instead of mutating the
/// operand.
///
/// The blocking factors only change which dot products are in flight
/// together and how the reduction interleaves with memory traffic; the
/// per-element summation order is identical for every `(JT, LANES,
/// k_tile)` with the same `LANES`, and across `LANES` the pairwise tree
/// differs only where floating-point addition is exact on the conformance
/// input family — which is why every menu configuration is bit-identical
/// on the inputs the proptests use.
fn f16_row_kernel<const JT: usize, const LANES: usize>(
    row: &mut [Complex32],
    a_re_row: &[f32],
    a_im_row: &[f32],
    b_re: &[f32],
    b_im: &[f32],
    k: usize,
    k_tile: usize,
) {
    let n = row.len();
    let mut jt = 0;
    while jt < n {
        let jn = JT.min(n - jt);
        let mut acc = [[[0.0f32; LANES]; 4]; JT];
        let mut tail = [[0.0f32; 4]; JT];
        let mut k0 = 0;
        while k0 < k {
            let k1 = (k0 + k_tile).min(k);
            let ar_slice = &a_re_row[k0..k1];
            let ai_slice = &a_im_row[k0..k1];
            for jj in 0..jn {
                let j = jt + jj;
                let br_slice = &b_re[j * k + k0..j * k + k1];
                let bi_slice = &b_im[j * k + k0..j * k + k1];
                let [rr, ii, ri, ir] = &mut acc[jj];
                for (((ar, ai), br), bi) in ar_slice
                    .chunks_exact(LANES)
                    .zip(ai_slice.chunks_exact(LANES))
                    .zip(br_slice.chunks_exact(LANES))
                    .zip(bi_slice.chunks_exact(LANES))
                {
                    fma_lanes(rr, ar, br);
                    fma_lanes(ii, ai, bi);
                    fma_lanes(ri, ar, bi);
                    fma_lanes(ir, ai, br);
                }
                // Scalar remainder of a ragged K (only the last k-slice
                // can have one: the tile size is a multiple of the lane
                // count), accumulated separately and folded in at the
                // final reduction.
                let rem = ar_slice.len() - ar_slice.len() % LANES;
                let [mut t_rr, mut t_ii, mut t_ri, mut t_ir] = tail[jj];
                for kk in rem..ar_slice.len() {
                    let (ar, ai) = (ar_slice[kk], ai_slice[kk]);
                    let (br, bi) = (br_slice[kk], bi_slice[kk]);
                    t_rr = ar.mul_add(br, t_rr);
                    t_ii = ai.mul_add(bi, t_ii);
                    t_ri = ar.mul_add(bi, t_ri);
                    t_ir = ai.mul_add(br, t_ir);
                }
                tail[jj] = [t_rr, t_ii, t_ri, t_ir];
            }
            k0 = k1;
        }
        for jj in 0..jn {
            let rr = reduce_lanes(&acc[jj][0], tail[jj][0]);
            let ii = reduce_lanes(&acc[jj][1], tail[jj][1]);
            let ri = reduce_lanes(&acc[jj][2], tail[jj][2]);
            let ir = reduce_lanes(&acc[jj][3], tail[jj][3]);
            row[jt + jj] = Complex32::new(rr - ii, ri + ir);
        }
        jt += jn;
    }
}

/// The signature of one monomorphised f16 row kernel.
type F16RowKernel = fn(&mut [Complex32], &[f32], &[f32], &[f32], &[f32], usize, usize);

/// Resolves a configuration's `(j-tile, lanes)` pair to its compiled
/// kernel instance.  The menu is closed — [`MicroKernelConfig::validate`]
/// admits only these pairs — so the fallback arm is unreachable for
/// validated configs and conservatively selects the default instance.
fn f16_row_dispatch(micro: &MicroKernelConfig) -> F16RowKernel {
    match (micro.f16_j_tile, micro.f16_lanes) {
        (1, 4) => f16_row_kernel::<1, 4>,
        (1, 8) => f16_row_kernel::<1, 8>,
        (1, 16) => f16_row_kernel::<1, 16>,
        (2, 4) => f16_row_kernel::<2, 4>,
        (2, 16) => f16_row_kernel::<2, 16>,
        (4, 4) => f16_row_kernel::<4, 4>,
        (4, 8) => f16_row_kernel::<4, 8>,
        (4, 16) => f16_row_kernel::<4, 16>,
        _ => f16_row_kernel::<2, 8>,
    }
}

/// Shared implementation of the f16 paths: `A` is already decoded, `B` is
/// decoded here (once per operand, never per output element).
pub(crate) fn gemm_f16_decoded_with(
    a: &DecodedPlanes,
    b_t: &F16Matrix,
    micro: &MicroKernelConfig,
) -> Result<ComplexOutput> {
    if a.cols() != b_t.cols() {
        return Err(CcglibError::ShapeMismatch {
            expected: format!("A and B to share K (A has K={})", a.cols()),
            actual: format!("B has K={}", b_t.cols()),
        });
    }
    let m = a.rows();
    let n = b_t.rows();
    let k = a.cols();
    let b = DecodedPlanes::from_f16(b_t);
    let kernel = f16_row_dispatch(micro);
    let k_tile = micro.f16_k_tile;

    let mut out = vec![Complex32::ZERO; m * n];
    out.par_chunks_mut(n.max(1))
        .enumerate()
        .for_each(|(i, row)| {
            kernel(
                row,
                &a.re()[i * k..(i + 1) * k],
                &a.im()[i * k..(i + 1) * k],
                b.re(),
                b.im(),
                k,
                k_tile,
            );
        });
    HostComplexMatrix::from_data(m, n, out)
}

/// float16 complex GEMM: `C[M×N] = A[M×K] · Bᵀ[N×K]` with binary16 inputs
/// and binary32 accumulation.
///
/// Both operands are bulk-decoded to f32 planes first (`O((M+N)·K)`
/// conversions instead of the naive kernel's `O(M·N·K)`), then multiplied
/// by the cache-blocked micro-kernel.  Callers that reuse `A` across many
/// calls should decode it once via [`GemmInput::prepare`] and the prepared
/// entry points on [`crate::Gemm`].
///
/// Runs the default [`MicroKernelConfig`]; [`gemm_f16_with`] selects a
/// tuned blocking.
pub fn gemm_f16(a: &F16Matrix, b_t: &F16Matrix) -> Result<ComplexOutput> {
    gemm_f16_with(a, b_t, &MicroKernelConfig::default())
}

/// [`gemm_f16`] under an explicit micro-kernel blocking configuration —
/// the entry point the real-measurement autotuner benchmarks and the
/// tuned plans execute.  Every menu configuration produces bit-identical
/// output on the conformance input family; only wall clock changes.
pub fn gemm_f16_with(
    a: &F16Matrix,
    b_t: &F16Matrix,
    micro: &MicroKernelConfig,
) -> Result<ComplexOutput> {
    gemm_f16_decoded_with(&DecodedPlanes::from_f16(a), b_t, micro)
}

/// 1-bit complex GEMM with the XOR or AND formulation.
///
/// Both operands must have been packed with the same padding granularity;
/// the `K_pad` correction of Eq. 5 is applied to the imaginary part.  The
/// two formulations produce bit-identical results (a property the test
/// suite asserts); the AND path exists because XOR is deprecated from the
/// Hopper architecture on.
///
/// Runs the default [`MicroKernelConfig`]; [`gemm_int1_with`] selects a
/// tuned word-unroll depth.
pub fn gemm_int1(a: &Int1Matrix, b_t: &Int1Matrix, op: BitOp) -> Result<ComplexOutput> {
    gemm_int1_with(a, b_t, op, &MicroKernelConfig::default())
}

/// The signature of one monomorphised fused quadruple dot product.
type Dot4 = fn(&PackedBits, &PackedBits, &PackedBits, &PackedBits) -> [i32; 4];

/// Resolves `(formulation, unroll depth)` to its compiled fused-popcount
/// instance.  Integer-exact at every depth, so all choices agree on all
/// inputs; unvalidated depths conservatively fall back to no unrolling.
fn dot4_dispatch(op: BitOp, unroll: usize) -> Dot4 {
    match (op, unroll) {
        (BitOp::Xor, 2) => PackedBits::dot4_xor_unrolled::<2>,
        (BitOp::Xor, 4) => PackedBits::dot4_xor_unrolled::<4>,
        (BitOp::And, 2) => PackedBits::dot4_and_unrolled::<2>,
        (BitOp::And, 4) => PackedBits::dot4_and_unrolled::<4>,
        (BitOp::Xor, _) => PackedBits::dot4_xor,
        (BitOp::And, _) => PackedBits::dot4_and,
    }
}

/// [`gemm_int1`] under an explicit micro-kernel configuration (only the
/// word-unroll depth applies to the 1-bit path) — the entry point the
/// real-measurement autotuner benchmarks and the tuned plans execute.
pub fn gemm_int1_with(
    a: &Int1Matrix,
    b_t: &Int1Matrix,
    op: BitOp,
    micro: &MicroKernelConfig,
) -> Result<ComplexOutput> {
    if a.k_bits() != b_t.k_bits() || a.k_padded() != b_t.k_padded() {
        return Err(CcglibError::ShapeMismatch {
            expected: format!(
                "A and B to share K (A has K={}/{} padded)",
                a.k_bits(),
                a.k_padded()
            ),
            actual: format!("B has K={}/{} padded", b_t.k_bits(), b_t.k_padded()),
        });
    }
    let m = a.rows();
    let n = b_t.rows();
    let k_valid = a.k_bits() as i32;
    // The K_pad correction of Eq. 5 is a property of the operands, not of
    // any particular output element — hoisted out of both loops.  The
    // padding value is binary 0 (decimal −1) in every plane, so:
    //  * the real part  Σ ar·br − Σ ai·bi  sees +K_pad from both terms and
    //    they cancel (re = rr − ii with no correction);
    //  * the imaginary part Σ ar·bi + Σ ai·br picks up +K_pad from each
    //    term, which must be subtracted.
    let k_pad = a.k_padding() as i32;

    // The four plane-pair dot products of one output element, fused: one
    // pass over the packed words instead of four (the AND variant still
    // doubles the popcount work per word, mirroring the doubled
    // tensor-core instruction count on Hopper), at the configured unroll
    // depth.
    let dot4 = dot4_dispatch(op, micro.int1_unroll);

    let mut out = vec![Complex32::ZERO; m * n];
    out.par_chunks_mut(n.max(1))
        .enumerate()
        .for_each(|(i, row)| {
            let ar = a.re_row(i);
            let ai = a.im_row(i);
            for (j, slot) in row.iter_mut().enumerate() {
                let [rr, ii, ri, ir] = dot4(ar, ai, b_t.re_row(j), b_t.im_row(j));
                let re = rr - ii;
                let im = (ri - k_pad) + (ir - k_pad);
                debug_assert!(re.abs() <= 2 * k_valid && im.abs() <= 2 * k_valid);
                *slot = Complex32::new(re as f32, im as f32);
            }
        });
    HostComplexMatrix::from_data(m, n, out)
}

/// Executes a GEMM on already-quantised operands, dispatching on their
/// precision.  Both operands must share the same precision.  Runs the
/// default [`MicroKernelConfig`]; tuned configurations flow through
/// [`crate::GemmPlan`] and the [`crate::Gemm`] entry points.
pub fn gemm_dispatch(a: &GemmInput, b_t: &GemmInput, op: BitOp) -> Result<ComplexOutput> {
    gemm_dispatch_decoded(a, None, b_t, op, &MicroKernelConfig::default())
}

/// Executes a GEMM with an operand whose preparation (bulk half→float
/// decode) was done ahead of time, dispatching on precision.
pub fn gemm_dispatch_prepared(
    a: &PreparedOperand,
    b_t: &GemmInput,
    op: BitOp,
) -> Result<ComplexOutput> {
    gemm_dispatch_decoded(
        a.input(),
        a.decoded(),
        b_t,
        op,
        &MicroKernelConfig::default(),
    )
}

/// Dispatch core: uses `decoded` for the `A` operand when supplied (the
/// decode-once paths), decodes on the fly otherwise, and runs the kernel
/// instance `micro` selects — the point where a plan's tuned blocking
/// reaches the hot path.
pub(crate) fn gemm_dispatch_decoded(
    a: &GemmInput,
    decoded: Option<&DecodedPlanes>,
    b_t: &GemmInput,
    op: BitOp,
    micro: &MicroKernelConfig,
) -> Result<ComplexOutput> {
    match (a, b_t) {
        (GemmInput::F16(a), GemmInput::F16(b)) => match decoded {
            Some(planes) => gemm_f16_decoded_with(planes, b, micro),
            None => gemm_f16_with(a, b, micro),
        },
        (GemmInput::Int1(a), GemmInput::Int1(b)) => gemm_int1_with(a, b, op, micro),
        (a, b) => Err(CcglibError::PrecisionMismatch {
            expected: a.precision().to_string(),
            actual: b.precision().to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_gemm;
    use crate::synth::{exact_integer_matrix, pseudo_random_matrix};
    use proptest::prelude::*;

    #[test]
    fn f16_gemm_matches_reference_within_half_precision() {
        let a = pseudo_random_matrix(24, 40, 1, 1.0);
        let b_t = pseudo_random_matrix(16, 40, 2, 1.0);
        let tensor = gemm_f16(&F16Matrix::from_host(&a), &F16Matrix::from_host(&b_t)).unwrap();
        let exact = reference_gemm(&a, &b_t).unwrap();
        // Binary16 quantisation of the inputs bounds the error: relative
        // 2^-11 per input value, accumulated over K=40 terms.
        let tol = 40.0 * 2.0 * 2.0f32.powi(-11) * 2.0;
        assert!(
            tensor.max_abs_diff(&exact) < tol,
            "diff = {}",
            tensor.max_abs_diff(&exact)
        );
    }

    #[test]
    fn f16_gemm_checks_shapes() {
        let a = F16Matrix::from_host(&HostComplexMatrix::zeros(4, 8));
        let b = F16Matrix::from_host(&HostComplexMatrix::zeros(4, 9));
        assert!(gemm_f16(&a, &b).is_err());
    }

    #[test]
    fn int1_gemm_matches_decoded_reference_with_padding() {
        // K = 100 forces 156 bits of padding at granularity 256; the
        // corrected kernel must agree exactly with the ±1 reference.
        let a_host = pseudo_random_matrix(9, 100, 3, 1.0);
        let b_host = pseudo_random_matrix(7, 100, 4, 1.0);
        let a = Int1Matrix::from_host_padded(&a_host, 256);
        let b = Int1Matrix::from_host_padded(&b_host, 256);
        assert_eq!(a.k_padding(), 156);
        let reference = reference_gemm(&a.to_host(), &b.to_host()).unwrap();
        for op in [BitOp::Xor, BitOp::And] {
            let result = gemm_int1(&a, &b, op).unwrap();
            assert_eq!(result.rows(), 9);
            assert_eq!(result.cols(), 7);
            assert!(result.max_abs_diff(&reference) < 0.5, "op {op}");
        }
    }

    #[test]
    fn int1_xor_and_paths_are_bit_identical() {
        let a_host = pseudo_random_matrix(12, 300, 5, 1.0);
        let b_host = pseudo_random_matrix(10, 300, 6, 1.0);
        let a = Int1Matrix::from_host_padded(&a_host, 128);
        let b = Int1Matrix::from_host_padded(&b_host, 128);
        let xor = gemm_int1(&a, &b, BitOp::Xor).unwrap();
        let and = gemm_int1(&a, &b, BitOp::And).unwrap();
        assert_eq!(xor, and);
    }

    #[test]
    fn int1_values_have_expected_parity_and_bounds() {
        let a_host = pseudo_random_matrix(6, 64, 7, 1.0);
        let b_host = pseudo_random_matrix(6, 64, 8, 1.0);
        let a = Int1Matrix::from_host(&a_host);
        let b = Int1Matrix::from_host(&b_host);
        let c = gemm_int1(&a, &b, BitOp::Xor).unwrap();
        for i in 0..6 {
            for j in 0..6 {
                let v = c.get(i, j);
                // Each component is a sum/difference of 2·64 ±1 terms:
                // bounded by 128 and even.
                assert!(v.re.abs() <= 128.0 && v.im.abs() <= 128.0);
                assert_eq!(v.re as i32 % 2, 0);
                assert_eq!(v.im as i32 % 2, 0);
            }
        }
    }

    #[test]
    fn gemm_dispatch_rejects_mixed_precision() {
        let host = HostComplexMatrix::zeros(4, 32);
        let f = GemmInput::quantise_f16(&host);
        let b = GemmInput::quantise_int1(&host);
        assert!(matches!(
            gemm_dispatch(&f, &b, BitOp::Xor),
            Err(CcglibError::PrecisionMismatch { .. })
        ));
        assert!(gemm_dispatch(&f, &f, BitOp::Xor).is_ok());
    }

    #[test]
    fn gemm_input_accessors() {
        let host = HostComplexMatrix::zeros(4, 100);
        let f = GemmInput::quantise_f16(&host);
        assert_eq!(f.precision(), Precision::Float16);
        assert_eq!(f.rows(), 4);
        assert_eq!(f.k(), 100);
        assert_eq!(f.device_bytes(), 4 * 100 * 4);
        let i = GemmInput::quantise_int1(&host);
        assert_eq!(i.precision(), Precision::Int1);
        assert_eq!(i.k(), 100);
        // Padded to 256 bits → 2 planes × 4 rows × 32 bytes.
        assert_eq!(i.device_bytes(), 2 * 4 * 256 / 8);
    }

    #[test]
    fn interleaved_input_matches_planar_input() {
        let host = pseudo_random_matrix(8, 16, 11, 2.0);
        let mut interleaved = Vec::new();
        for r in 0..8 {
            for c in 0..16 {
                let v = host.get(r, c);
                interleaved.push(v.re);
                interleaved.push(v.im);
            }
        }
        let from_planar = GemmInput::quantise_f16(&host);
        let from_interleaved = GemmInput::quantise_f16_interleaved(8, 16, &interleaved).unwrap();
        assert!(GemmInput::quantise_f16_interleaved(8, 16, &interleaved[1..]).is_err());
        let b = GemmInput::quantise_f16(&pseudo_random_matrix(4, 16, 12, 1.0));
        let c1 = gemm_dispatch(&from_planar, &b, BitOp::Xor).unwrap();
        let c2 = gemm_dispatch(&from_interleaved, &b, BitOp::Xor).unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn prepared_paths_are_bit_identical_to_the_direct_path() {
        let a_host = pseudo_random_matrix(13, 300, 21, 1.0);
        let b_host = pseudo_random_matrix(9, 300, 22, 1.0);
        for (a, b) in [
            (
                GemmInput::quantise_f16(&a_host),
                GemmInput::quantise_f16(&b_host),
            ),
            (
                GemmInput::quantise_int1(&a_host),
                GemmInput::quantise_int1(&b_host),
            ),
        ] {
            let direct = gemm_dispatch(&a, &b, BitOp::Xor).unwrap();
            let prepared = gemm_dispatch_prepared(&a.prepare(), &b, BitOp::Xor).unwrap();
            assert_eq!(direct, prepared);
        }
    }

    #[test]
    fn decoded_planes_are_exact() {
        let host = pseudo_random_matrix(7, 45, 31, 100.0);
        let f16m = F16Matrix::from_host(&host);
        let planes = DecodedPlanes::from_f16(&f16m);
        assert_eq!(planes.rows(), 7);
        assert_eq!(planes.cols(), 45);
        for (idx, (&re, &im)) in planes.re().iter().zip(planes.im()).enumerate() {
            let v = f16m.get(idx / 45, idx % 45);
            assert_eq!(re.to_bits(), v.re.to_bits());
            assert_eq!(im.to_bits(), v.im.to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn blocked_f16_kernel_is_bit_identical_to_reference_on_exact_inputs(
            m in 1usize..10, n in 1usize..10, k in 1usize..600, seed in any::<u64>(),
        ) {
            // Integer inputs in ±4 keep every product and partial sum exact
            // (|Σ| ≤ 600·16 < 2^24), so the blocked micro-kernel must agree
            // with the f32 reference GEMM bit for bit — across K values
            // that are not multiples of the k-tile, j-tile or word size.
            let a_host = exact_integer_matrix(m, k, seed);
            let b_host = exact_integer_matrix(n, k, seed ^ 0x5A5A);
            let result = gemm_f16(&F16Matrix::from_host(&a_host), &F16Matrix::from_host(&b_host))
                .unwrap();
            let reference = reference_gemm(&a_host, &b_host).unwrap();
            prop_assert_eq!(result, reference);
        }

        #[test]
        fn every_menu_config_is_bit_identical_to_the_default(
            m in 1usize..8, n in 1usize..8, k in 1usize..600, seed in any::<u64>(),
        ) {
            // f16: exact integer inputs make every summation order exact,
            // so all blockings must agree bit for bit.  int1: outputs are
            // exact integers on every input, so all unroll depths must.
            let a_host = exact_integer_matrix(m, k, seed);
            let b_host = exact_integer_matrix(n, k, seed ^ 0x33CC);
            let a = F16Matrix::from_host(&a_host);
            let b = F16Matrix::from_host(&b_host);
            let f16_default = gemm_f16(&a, &b).unwrap();
            for config in MicroKernelConfig::menu_for(Precision::Float16) {
                let tuned = gemm_f16_with(&a, &b, &config).unwrap();
                prop_assert_eq!(&tuned, &f16_default, "f16 config {}", config);
            }
            let ai = Int1Matrix::from_host_padded(&a_host, 128);
            let bi = Int1Matrix::from_host_padded(&b_host, 128);
            for op in [BitOp::Xor, BitOp::And] {
                let int1_default = gemm_int1(&ai, &bi, op).unwrap();
                for config in MicroKernelConfig::menu_for(Precision::Int1) {
                    let tuned = gemm_int1_with(&ai, &bi, op, &config).unwrap();
                    prop_assert_eq!(&tuned, &int1_default, "int1 config {} op {}", config, op);
                }
            }
        }

        #[test]
        fn int1_gemm_equals_reference_for_random_shapes(
            m in 1usize..8, n in 1usize..8, k in 1usize..150, seed in any::<u64>(),
        ) {
            let a_host = pseudo_random_matrix(m, k, seed, 1.0);
            let b_host = pseudo_random_matrix(n, k, seed ^ 0xABCD, 1.0);
            let a = Int1Matrix::from_host_padded(&a_host, 128);
            let b = Int1Matrix::from_host_padded(&b_host, 128);
            let reference = reference_gemm(&a.to_host(), &b.to_host()).unwrap();
            let result = gemm_int1(&a, &b, BitOp::Xor).unwrap();
            prop_assert!(result.max_abs_diff(&reference) < 0.5);
        }

        #[test]
        fn f16_gemm_linear_in_scalar(
            m in 1usize..6, n in 1usize..6, k in 1usize..32, seed in any::<u64>(),
        ) {
            // (2A)·B ≈ 2·(A·B) up to half-precision rounding.
            let a_host = pseudo_random_matrix(m, k, seed, 1.0);
            let b_host = pseudo_random_matrix(n, k, seed ^ 0x1111, 1.0);
            let a2_host = HostComplexMatrix::from_fn(m, k, |r, c| a_host.get(r, c).scale(2.0));
            let c1 = gemm_f16(&F16Matrix::from_host(&a_host), &F16Matrix::from_host(&b_host)).unwrap();
            let c2 = gemm_f16(&F16Matrix::from_host(&a2_host), &F16Matrix::from_host(&b_host)).unwrap();
            for i in 0..m {
                for j in 0..n {
                    let lhs = c2.get(i, j);
                    let rhs = c1.get(i, j).scale(2.0);
                    let tol = 0.02 * (1.0 + rhs.abs()) + 0.02 * k as f32;
                    prop_assert!((lhs - rhs).abs() <= tol, "{lhs:?} vs {rhs:?}");
                }
            }
        }
    }
}
