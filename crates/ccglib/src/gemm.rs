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
//!   `K_pad` contribution.  The host kernel is laid out the way the binary
//!   tensor-core fragments imply: operands are flat `u64` bit planes
//!   ([`Int1Matrix`]), `B` is repacked per call into word-interleaved
//!   column panels, and a register tile of 4 rows of `A` × one vector of
//!   output columns accumulates two folded sums per output — one output
//!   per vector lane, so nothing is ever reduced across lanes.  The same
//!   safe-Rust kernel is compiled for two popcount paths, chosen by what
//!   the CPU reports ([`Int1Isa`]); see [`gemm_int1_on`].
//!
//! Operand convention used throughout the crate: `A` is `M×K`, `B` is
//! supplied **transposed** as `N×K` (each row holds the `K`-vector of one
//! output column).  This is the orientation the transpose kernel produces
//! and the one in which both the bit-rows of the 1-bit kernel and the
//! fragment loads of the 16-bit kernel are contiguous.

use crate::error::{CcglibError, Result};
use crate::isa::{int1_row_group_on, Int1Isa};
use crate::matrix::{F16Matrix, HostComplexMatrix, Int1Matrix};
use crate::micro::MicroKernelConfig;
use crate::Precision;
use gpu_sim::BitOp;
use rayon::prelude::*;
use tcbf_types::{decode_to_f32, Complex32};

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
/// Runs on the fastest popcount path the host has
/// ([`Int1Isa::detected`]).  The kernel has no tunable blocking, so there
/// is no `_with` variant taking a [`MicroKernelConfig`].
pub fn gemm_int1(a: &Int1Matrix, b_t: &Int1Matrix, op: BitOp) -> Result<ComplexOutput> {
    gemm_int1_on(Int1Isa::detected(), a, b_t, op)
}

/// Rows of `A` per register tile of the 1-bit kernel.  Heights 1, 2 and 4
/// were measured on every `BENCH_gemm.json` shape and both popcount paths;
/// 4 was fastest in every cell, so it is a constant, not a tuning axis.
const INT1_TILE_ROWS: usize = 4;

/// `B` as the tile kernel reads it: the rows of the transposed operand in
/// groups of `lanes` (the last group filled up with all-zero rows), each
/// group stored word-interleaved — word `w` of the group's `lanes` rows
/// side by side — so one vector load fetches the same 64 samples of
/// `lanes` output columns.  `O(N·K)` bits moved once per call, against the
/// kernel's `O(M·N·K)`.
fn int1_column_panel(plane: &[u64], stride: usize, lanes: usize) -> Vec<u64> {
    // `stride >= 1`: an `Int1Matrix` row holds at least one padded sample.
    let rows = plane.len() / stride;
    let mut panel = vec![0u64; rows.next_multiple_of(lanes) * stride];
    for (j, row) in plane.chunks_exact(stride).enumerate() {
        let group = &mut panel[(j / lanes) * lanes * stride..][..lanes * stride];
        for (slot, &word) in group[j % lanes..].iter_mut().step_by(lanes).zip(row) {
            *slot = word;
        }
    }
    panel
}

/// The operands of one 1-bit GEMM as the tile kernel reads them — `A`'s
/// flat bit planes, `B`'s column panels — and the constants that are
/// properties of the operands rather than of any output element.
pub(crate) struct Int1Operands<'a> {
    a_re: &'a [u64],
    a_im: &'a [u64],
    b_re: Vec<u64>,
    b_im: Vec<u64>,
    /// Columns per panel group: the lane count of the instance to run.
    lanes: usize,
    /// Words per row of every plane.
    stride: usize,
    /// Output columns (rows of `B`).
    n: usize,
    /// `2·K`, the largest magnitude an output component can take.
    bound: i32,
}

/// `2·K` as the 32-bit integer the 1-bit kernel's outputs are defined in
/// (Section III-D: 1-bit input, 32-bit integer output).
///
/// Every partial sum of the kernel is bounded by `2·K_padded`, so this one
/// conversion is the accumulator's whole overflow analysis: operands too
/// long for it are a [`CcglibError::ShapeMismatch`], never a wrapped sum.
fn int1_output_bound(k_bits: usize, k_padded: usize) -> Result<i32> {
    match k_padded.checked_mul(2).map(i32::try_from) {
        Some(Ok(_)) => Ok(2 * k_bits as i32),
        _ => Err(CcglibError::ShapeMismatch {
            expected: format!("2·K_padded to fit the 32-bit accumulator ({})", i32::MAX),
            actual: format!("K_padded = {k_padded}"),
        }),
    }
}

/// The population-count term of one operand word pair under each
/// formulation: mismatches for XOR (Table II), matches for AND (Eq. 6 —
/// two counts per pair, mirroring the doubled tensor-core instruction
/// count on Hopper).
#[inline(always)]
fn popc_term<const AND: bool>(a: u64, b: u64) -> i64 {
    if AND {
        i64::from((a & b).count_ones() + (!a & !b).count_ones())
    } else {
        i64::from((a ^ b).count_ones())
    }
}

/// The register-tiled 1-bit micro-kernel: `MR` rows of `A` (from row `i0`;
/// `out` is exactly their `MR` output rows) against every column panel of
/// `B` — an `MR × LANES` tile of outputs per pass over `K`, one output per
/// vector lane.  Each `B` vector loaded feeds `MR` rows' accumulators and
/// each `A` word, broadcast, feeds `LANES` columns'; nothing is reduced
/// across lanes, so there is no horizontal step at all.
///
/// Per output the complex product is folded as it accumulates: with `t`
/// the [`popc_term`] of the formulation, one accumulator takes
/// `t(ar,br) − t(ai,bi)` and one `t(ar,bi) + t(ai,br)` — two per output,
/// not four.  Under XOR (`t` counts mismatches, `rr = K_padded − 2·t`):
///
/// ```text
/// re = rr − ii           = −2·Σ(t(ar,br) − t(ai,bi))
/// im = ri + ir − 2·K_pad =  2·K − 2·Σ(t(ar,bi) + t(ai,br))
/// ```
///
/// the `K_pad` correction of Eq. 5 hoisted into the constant `2·K`: the
/// padding is binary 0 (decimal −1) in every plane, so it cancels in the
/// real part and adds `+K_pad` to both terms of the imaginary part.  Under
/// AND `t` counts matches over every bit of the row's words — padding and
/// slack, zero in both operands, all match — so the signs flip and the
/// constant absorbs the words' length instead.
///
/// `LANES` is the vector width in words the instance is compiled for; it
/// never changes a result (integer sums), only the instructions.
#[inline(always)]
fn int1_tile_rows<const MR: usize, const LANES: usize, const AND: bool>(
    out: &mut [Complex32],
    i0: usize,
    g: &Int1Operands<'_>,
) {
    let (n, stride) = (g.n, g.stride);
    assert_eq!((out.len(), g.lanes), (MR * n, LANES));
    let (scale, im_bias) = if AND {
        (2, i64::from(g.bound) - 4 * 64 * stride as i64)
    } else {
        (-2, i64::from(g.bound))
    };
    let ar: [&[u64]; MR] = std::array::from_fn(|i| &g.a_re[(i0 + i) * stride..][..stride]);
    let ai: [&[u64]; MR] = std::array::from_fn(|i| &g.a_im[(i0 + i) * stride..][..stride]);
    let panels = g.b_re.chunks_exact(LANES * stride);
    for (group, (br, bi)) in panels.zip(g.b_im.chunks_exact(LANES * stride)).enumerate() {
        let (br, bi) = (br.as_chunks::<LANES>().0, bi.as_chunks::<LANES>().0);
        let mut acc_re = [[0i64; LANES]; MR];
        let mut acc_im = [[0i64; LANES]; MR];
        for (w, (br, bi)) in br.iter().zip(bi).enumerate() {
            for i in 0..MR {
                let (ar, ai) = (ar[i][w], ai[i][w]);
                for l in 0..LANES {
                    acc_re[i][l] += popc_term::<AND>(ar, br[l]) - popc_term::<AND>(ai, bi[l]);
                    acc_im[i][l] += popc_term::<AND>(ar, bi[l]) + popc_term::<AND>(ai, br[l]);
                }
            }
        }

        let j0 = group * LANES;
        for i in 0..MR {
            // Whole vectors are finished before the columns that exist
            // are stored; `int1_output_bound` is why `as i32` is lossless.
            let re = acc_re[i].map(|sum| (scale * sum) as i32);
            let im = acc_im[i].map(|sum| (scale * sum + im_bias) as i32);
            debug_assert!(re.iter().chain(&im).all(|v| v.abs() <= g.bound));
            let values: [Complex32; LANES] =
                std::array::from_fn(|l| Complex32::new(re[l] as f32, im[l] as f32));
            let row = &mut out[i * n + j0..(i + 1) * n];
            match row.first_chunk_mut::<LANES>() {
                Some(whole) => *whole = values,
                None => row.copy_from_slice(&values[..row.len()]),
            }
        }
    }
}

/// One group of up to [`INT1_TILE_ROWS`] output rows (`out`, starting at
/// row `i0` of `A`): a whole tile where the rows are there, else the same
/// kernel at the next smaller heights — a ragged `M` costs no redundant
/// row.
#[inline(always)]
pub(crate) fn int1_row_group<const LANES: usize, const AND: bool>(
    out: &mut [Complex32],
    i0: usize,
    g: &Int1Operands<'_>,
) {
    let n = g.n;
    if out.len() == INT1_TILE_ROWS * n {
        return int1_tile_rows::<INT1_TILE_ROWS, LANES, AND>(out, i0, g);
    }
    let (pair, single) = out.split_at_mut(if out.len() >= 2 * n { 2 * n } else { 0 });
    if !pair.is_empty() {
        int1_tile_rows::<2, LANES, AND>(pair, i0, g);
    }
    if !single.is_empty() {
        int1_tile_rows::<1, LANES, AND>(single, i0 + pair.len() / n, g);
    }
}

/// [`gemm_int1`] on an explicit popcount path — how the tests and
/// `hotpath_bench` run every path the host has.  Production callers never
/// choose: [`gemm_int1`] passes [`Int1Isa::detected`].  All paths agree on
/// all inputs.
pub fn gemm_int1_on(
    isa: Int1Isa,
    a: &Int1Matrix,
    b_t: &Int1Matrix,
    op: BitOp,
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
    let bound = int1_output_bound(a.k_bits(), a.k_padded())?;
    let (m, n, stride) = (a.rows(), b_t.rows(), a.words_per_row());
    let operands = Int1Operands {
        a_re: a.re_words(),
        a_im: a.im_words(),
        b_re: int1_column_panel(b_t.re_words(), stride, isa.lanes()),
        b_im: int1_column_panel(b_t.im_words(), stride, isa.lanes()),
        lanes: isa.lanes(),
        stride,
        n,
        bound,
    };
    let kernel = match op {
        BitOp::Xor => int1_row_group_on::<false>,
        BitOp::And => int1_row_group_on::<true>,
    };

    let mut out = vec![Complex32::ZERO; m * n];
    out.par_chunks_mut((INT1_TILE_ROWS * n).max(1))
        .enumerate()
        .for_each(|(group, rows)| kernel(isa, rows, group * INT1_TILE_ROWS, &operands));
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
        (GemmInput::Int1(a), GemmInput::Int1(b)) => gemm_int1(a, b, op),
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
    use tcbf_types::PackedBits;

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

    /// `a · bᵀ` one output element at a time through the per-element
    /// definition, `PackedBits::dot4_xor`, with the Eq. 5 correction.
    fn per_element_gemm(a: &Int1Matrix, b_t: &Int1Matrix) -> HostComplexMatrix {
        let k_pad = a.k_padding() as i32;
        HostComplexMatrix::from_fn(a.rows(), b_t.rows(), |i, j| {
            let [rr, ii, ri, ir] = PackedBits::dot4_xor(
                &a.re_row(i).to_packed_bits(),
                &a.im_row(i).to_packed_bits(),
                &b_t.re_row(j).to_packed_bits(),
                &b_t.im_row(j).to_packed_bits(),
            );
            Complex32::new((rr - ii) as f32, (ri + ir - 2 * k_pad) as f32)
        })
    }

    fn bits(m: &HostComplexMatrix) -> Vec<(u32, u32)> {
        let of = |v: &Complex32| (v.re.to_bits(), v.im.to_bits());
        m.data().iter().map(of).collect()
    }

    /// Asserts that every popcount path × formulation gives `expected`,
    /// bit for bit.
    fn assert_every_int1_path_gives(
        a: &Int1Matrix,
        b_t: &Int1Matrix,
        expected: &HostComplexMatrix,
    ) {
        for isa in Int1Isa::available() {
            for op in [BitOp::Xor, BitOp::And] {
                let got = gemm_int1_on(isa, a, b_t, op).unwrap();
                assert_eq!(
                    bits(&got),
                    bits(expected),
                    "{}x{}x{} (padded to {}) on {isa}, {op}",
                    a.rows(),
                    b_t.rows(),
                    a.k_bits(),
                    a.k_padded(),
                );
            }
        }
    }

    #[test]
    fn int1_kernel_is_exact_at_every_tile_edge_on_every_path() {
        // Rows around one and two tiles (every remainder: 1, 2 and 2 + 1);
        // columns around one and two vectors of either lane width; K either
        // side of the 32-bit device word, the 64-bit host word and their
        // multiples.
        let t = INT1_TILE_ROWS;
        let ks = [1, 31, 32, 33, 63, 64, 65, 255, 256, 257, 511, 513, 1000];
        for m in [1, 2, t - 1, t, t + 1, t + 2, 2 * t + 1] {
            for n in [1, 3, 4, 5, 7, 8, 9, 17] {
                for k in ks {
                    let seed = (m * 131 + n * 17 + k) as u64;
                    let a = Int1Matrix::from_host_padded(
                        &pseudo_random_matrix(m, k, seed, 1.0),
                        GemmInput::DEFAULT_INT1_K_GRANULARITY,
                    );
                    let b = Int1Matrix::from_host_padded(
                        &pseudo_random_matrix(n, k, seed ^ 0xB17, 1.0),
                        GemmInput::DEFAULT_INT1_K_GRANULARITY,
                    );
                    let reference = reference_gemm(&a.to_host(), &b.to_host()).unwrap();
                    assert_eq!(bits(&per_element_gemm(&a, &b)), bits(&reference));
                    assert_every_int1_path_gives(&a, &b, &reference);
                }
            }
        }
    }

    #[test]
    fn any_padding_granularity_quantises_and_matches_the_reference() {
        // Granularities that are not a multiple of 32 used to index past
        // the row's words (or trip `PackedBits::from_words`).
        for granularity in [1, 31, 33, 48, 100, 256] {
            for k in [1, 40, 100, 257] {
                let a_host = pseudo_random_matrix(3, k, (granularity * k) as u64, 1.0);
                let b_host = pseudo_random_matrix(5, k, (granularity + k) as u64, 1.0);
                let (GemmInput::Int1(a), GemmInput::Int1(b)) = (
                    GemmInput::quantise_int1_padded(&a_host, granularity),
                    GemmInput::quantise_int1_padded(&b_host, granularity),
                ) else {
                    panic!("quantise_int1_padded yields 1-bit operands");
                };
                assert_eq!(a.k_padded(), k.next_multiple_of(granularity));
                let reference = reference_gemm(&a.to_host(), &b.to_host()).unwrap();
                assert_eq!(bits(&per_element_gemm(&a, &b)), bits(&reference));
                assert_every_int1_path_gives(&a, &b, &reference);
            }
        }
    }

    #[test]
    fn int1_accumulators_hold_at_the_papers_tuning_k() {
        // K = 524 288 is the 1-bit tuning shape of the paper; one 256-bit
        // granule and one sample either side move `K_pad` between 0, 1 and
        // 255.  Constant and alternating rows drive every partial sum to
        // its extreme: |re| or |im| = 2·K exactly.
        const TUNING_K: usize = 524_288;
        let ones = |_: usize| Complex32::new(1.0, 1.0);
        let minus = |_: usize| Complex32::new(-1.0, -1.0);
        let conj = |_: usize| Complex32::new(1.0, -1.0);
        let alternating = |k: usize| Complex32::new(1.0, 1.0).scale(1.0 - 2.0 * (k % 2) as f32);
        for k in [
            TUNING_K - 256,
            TUNING_K - 1,
            TUNING_K,
            TUNING_K + 1,
            TUNING_K + 256,
        ] {
            let rows: [fn(usize) -> Complex32; 4] = [ones, minus, conj, alternating];
            let host = HostComplexMatrix::from_fn(rows.len(), k, |r, c| rows[r](c));
            let a = Int1Matrix::from_host_padded(&host, GemmInput::DEFAULT_INT1_K_GRANULARITY);
            assert_eq!(a.k_padding(), k.next_multiple_of(256) - k);
            let reference = reference_gemm(&a.to_host(), &a.to_host()).unwrap();
            let two_k = 2.0 * k as f32;
            // (1+i)², (1+i)(−1−i), (1+i)(1−i) and a row against its own
            // alternation, which cancels to the odd sample out.
            assert_eq!(reference.get(0, 0), Complex32::new(0.0, two_k));
            assert_eq!(reference.get(0, 1), Complex32::new(0.0, -two_k));
            assert_eq!(reference.get(0, 2), Complex32::new(two_k, 0.0));
            assert_eq!(reference.get(2, 2), Complex32::new(0.0, -two_k));
            assert_eq!(reference.get(3, 3), Complex32::new(0.0, two_k));
            assert_eq!(
                reference.get(0, 3),
                Complex32::new(0.0, 2.0 * (k % 2) as f32)
            );
            for v in reference.data() {
                assert!(v.re.abs() <= two_k && v.im.abs() <= two_k);
                assert_eq!((v.re as i64 % 2, v.im as i64 % 2), (0, 0));
            }
            assert_every_int1_path_gives(&a, &a, &reference);
        }
    }

    #[test]
    fn operands_too_long_for_the_accumulator_are_a_typed_error() {
        let largest = (i32::MAX / 2) as usize;
        assert_eq!(int1_output_bound(largest - 7, largest), Ok(i32::MAX - 15));
        assert_eq!(int1_output_bound(0, 0), Ok(0));
        for k_padded in [largest + 1, usize::MAX / 2, usize::MAX] {
            let error = int1_output_bound(1, k_padded).unwrap_err();
            assert!(
                matches!(error, CcglibError::ShapeMismatch { .. }),
                "{error}"
            );
            assert!(error.to_string().contains("32-bit accumulator"), "{error}");
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
            // so all blockings must agree bit for bit.
            let a_host = exact_integer_matrix(m, k, seed);
            let b_host = exact_integer_matrix(n, k, seed ^ 0x33CC);
            let a = F16Matrix::from_host(&a_host);
            let b = F16Matrix::from_host(&b_host);
            let f16_default = gemm_f16(&a, &b).unwrap();
            for config in MicroKernelConfig::menu_for(Precision::Float16) {
                let tuned = gemm_f16_with(&a, &b, &config).unwrap();
                prop_assert_eq!(&tuned, &f16_default, "f16 config {}", config);
            }
            // int1: outputs are exact integers on every input, so every
            // popcount path must agree with the detected one.
            let ai = Int1Matrix::from_host_padded(&a_host, 128);
            let bi = Int1Matrix::from_host_padded(&b_host, 128);
            for op in [BitOp::Xor, BitOp::And] {
                let int1_default = gemm_int1(&ai, &bi, op).unwrap();
                for isa in Int1Isa::available() {
                    let on_path = gemm_int1_on(isa, &ai, &bi, op).unwrap();
                    prop_assert_eq!(&on_path, &int1_default, "int1 on {} op {}", isa, op);
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
