//! Functional complex GEMM kernels.
//!
//! Two tensor-core kernels are implemented, mirroring Sections III-B, III-D
//! and III-E of the paper:
//!
//! * **float16** — complex multiplication decomposed into four real
//!   multiply-accumulates with an in-register negation of `Im(b)`; inputs
//!   are binary16, accumulation is binary32.  One output is *defined* as
//!   four `mul_add` chains in ascending `k` and two final additions (see
//!   [`gemm_f16_on`]), so it has the same bits wherever and however it is
//!   computed.
//! * **int1** — inputs are ±1 encoded as single bits; the paper computes
//!   real-valued dot products from XOR + popcount (Table II) or, on
//!   architectures where XOR is deprecated, from two AND + popcount passes
//!   (Eq. 6), and applies the padding correction of Eq. 5 to the complex
//!   outputs.  The host kernel gives those bits with two popcounts per
//!   word pair instead of four: the product of two values `±1 ± i` is one
//!   of `±2`, `±2i`, so two bits per sample say which, and two counts carry
//!   the whole complex sum (see `int1_tile_rows`).  Padding counts zero in
//!   both, so Eq. 5 reduces to the constant `2·K`.
//!
//! The two host kernels share one shape, the one the tensor-core fragments
//! imply (and BLIS's `MR × NR` micro-kernel spells out for CPUs).  `A` stays
//! row-major — decoded `f32` planes ([`DecodedPlanes`]) or flat `u64` bit
//! planes ([`Int1Matrix`]) — and is read one scalar at a time, broadcast.
//! `B` is read as **column panels** of one vector of output columns each,
//! k-major, so that step `k` of a panel is one vector load.  Binary16 is
//! decoded into the panels per call, straight from the `K × N` block it
//! arrives as, where step `k` of a panel is already one stored run (by
//! `vcvtph2ps` on the AVX-512 path, through the lookup table of
//! `tcbf_types::decode_to_f32` on the portable one).  Bit panels are
//! word-interleaved `re ⊕ im` and `im`, and a block brings them built:
//! `quantise_int1` of a `transposed()` view packs the block straight into
//! them, for the lane count of the path it runs on, and the GEMM reads
//! them as stored.  A 1-bit `A` carries a third plane, `re ⊕ im`.  A
//! **register tile** of 4 rows of `A` × one vector of columns then makes
//! one pass over `K` with one output per vector lane: every `B` vector
//! feeds 4 rows, every `A` scalar a whole vector of columns, and nothing is
//! ever reduced across lanes, so there is no horizontal step, no
//! lane-width-dependent summation tree and no `K` tail.
//! Each kernel is written once in safe Rust and compiled twice — portable
//! and AVX-512 — and the instance is chosen by what the CPU reports
//! ([`Isa`]), never by a setting; see [`gemm_f16_on`] and [`gemm_int1_on`].
//!
//! Everything a call builds — `A`'s decoded or `re ⊕ im` planes, `B`'s
//! panels, the output matrix — is a write-once destination (the crate's
//! private `write_once` helper): allocated at its final size, not cleared,
//! and handed to the work items as `&mut [MaybeUninit<_>]`, so each element
//! is stored once, by the thread that computes it.  The zeros such a buffer
//! holds are therefore stored like any other value: the all-zero rows that
//! fill up the last panel of a ragged `N`, and the outputs of an empty sum
//! (`K = 0`).  A debug build fails the call that leaves an element
//! unwritten.
//!
//! Operand convention used throughout the crate: `A` is `M×K`, quantised
//! from a row-major matrix.  `B` has one layout: it is the quantised
//! [`HostComplexMatrix::transposed`] view of the `K × N` block, `N×K` as
//! its shape reads (each row holds the `K`-vector of one output column),
//! stored as the block is — binary16 planes in `K × N` order, which is the
//! order its panels are built in, or bits packed into the panels of the
//! path that quantised them.  A `B` quantised from a row-major matrix, or
//! a 1-bit one packed on a path of another lane count, is a
//! [`TcbfError::ShapeMismatch`]: quantise the view, on the path that runs
//! the GEMM.

use crate::error::{Result, TcbfError};
use crate::isa::{f16_row_block_on, int1_row_group_on, prologue_on, Isa, Prologue};
use crate::matrix::{F16Matrix, HostComplexMatrix, Int1Matrix, PLANE_ITEM};
use crate::write_once::{write_once, write_once_pair};
use crate::Precision;
use gpu_sim::BitOp;
use rayon::prelude::*;
use std::mem::MaybeUninit;
use tcbf_types::{decode_to_f32, f16, Complex32};

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

    /// Quantises a host matrix to `precision`'s operand format.  Float32 is
    /// modelled only: a [`TcbfError::UnsupportedPrecision`].
    pub fn quantise(precision: Precision, host: &HostComplexMatrix) -> Result<Self> {
        match precision {
            Precision::Float16 => Ok(Self::quantise_f16(host)),
            Precision::Int1 => Ok(Self::quantise_int1(host)),
            Precision::Float32Reference => Err(TcbfError::UnsupportedPrecision {
                device: "the host GEMM".into(),
                precision: precision.to_string(),
            }),
        }
    }

    /// Quantises the `B` operand of a `K × N` block: its
    /// [`transposed`](HostComplexMatrix::transposed) view, `B`'s one layout
    /// (see the module doc).  A row-major block is quantised straight from
    /// its buffer, as it is stored.  A block that is itself a view — whose
    /// `transposed()` would read row-major — is quantised from the view of
    /// its row-major [`data`](HostComplexMatrix::data) instead, so every
    /// block, whatever order its buffer holds, gives the same `B`.
    pub fn quantise_block(precision: Precision, block: &HostComplexMatrix) -> Result<Self> {
        match block.columns() {
            None => Self::quantise(precision, &block.transposed()),
            Some(_) => {
                let rows = HostComplexMatrix::from_data(
                    block.rows(),
                    block.cols(),
                    block.data().to_vec(),
                )?;
                Self::quantise(precision, &rows.transposed())
            }
        }
    }

    /// Quantises a host matrix to binary16 planes, on the fastest path the
    /// host has ([`Isa::detected`]).
    pub fn quantise_f16(host: &HostComplexMatrix) -> Self {
        Self::quantise_f16_on(Isa::detected(), host)
    }

    /// [`quantise_f16`](Self::quantise_f16) on an explicit path — how the
    /// tests and `hotpath_bench` run every path the host has.  All paths
    /// give the same bits.
    pub fn quantise_f16_on(isa: Isa, host: &HostComplexMatrix) -> Self {
        GemmInput::F16(F16Matrix::from_host_on(isa, host))
    }

    /// Quantises a host matrix to packed 1-bit planes with the default
    /// padding granularity, on the fastest path the host has
    /// ([`Isa::detected`]).
    pub fn quantise_int1(host: &HostComplexMatrix) -> Self {
        Self::quantise_int1_on(Isa::detected(), host)
    }

    /// [`quantise_int1`](Self::quantise_int1) on an explicit path — how the
    /// tests and `hotpath_bench` run every path the host has.  All paths
    /// give the same bits.
    pub fn quantise_int1_on(isa: Isa, host: &HostComplexMatrix) -> Self {
        let granularity = Self::DEFAULT_INT1_K_GRANULARITY;
        GemmInput::Int1(Int1Matrix::from_host_padded_on(isa, host, granularity))
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
    /// Decodes both planes of a binary16 matrix in one bulk pass; a run of
    /// a few thousand elements — both planes of it — is one parallel work
    /// item.
    pub(crate) fn from_f16(matrix: &F16Matrix) -> Self {
        let [re, im] = write_once_pair(matrix.re().len(), |re, im| {
            re.par_chunks_mut(PLANE_ITEM)
                .zip(im.par_chunks_mut(PLANE_ITEM))
                .enumerate()
                .for_each(|(item, (re, im))| {
                    let at = item * PLANE_ITEM;
                    decode_to_f32(&matrix.re()[at..][..re.len()], re);
                    decode_to_f32(&matrix.im()[at..][..im.len()], im);
                });
        });
        DecodedPlanes {
            rows: matrix.rows(),
            cols: matrix.cols(),
            re,
            im,
        }
    }

    /// The decode an operand needs, if any: binary16 operands decode to f32
    /// planes, packed 1-bit operands decode to nothing (what a 1-bit `A`
    /// is prepared with is another bit plane — see [`PreparedOperand`]).
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
/// repeated executions (streaming sessions: every block under the same
/// weights) skip it.
///
/// For binary16 operands this holds the bulk-decoded f32 planes alongside
/// the original operand; for 1-bit operands, the `re ⊕ im` plane the
/// kernel reads beside the two sign planes (one word per word of a plane,
/// built by the same function a direct call builds it with).  Built with
/// [`GemmInput::prepare`] or [`PreparedOperand::new`] and consumed by
/// [`crate::Gemm::run_prepared`].
#[derive(Clone, Debug)]
pub struct PreparedOperand {
    input: GemmInput,
    prepared: Preparation,
}

/// What the kernel of an operand's precision reads of `A` beside the
/// operand itself: built once per weights by [`PreparedOperand::new`], and
/// per call by [`crate::Gemm::run`].
#[derive(Clone, Debug)]
pub(crate) enum Preparation {
    /// A binary16 operand's f32 planes.
    Decoded(DecodedPlanes),
    /// A 1-bit operand's [`int1_quadrant_plane`].
    Quadrant(Vec<u64>),
}

impl Preparation {
    /// Builds what `input`'s kernel reads of it.
    pub(crate) fn of(input: &GemmInput) -> Self {
        match input {
            GemmInput::F16(m) => Preparation::Decoded(DecodedPlanes::from_f16(m)),
            GemmInput::Int1(m) => Preparation::Quadrant(int1_quadrant_plane(m)),
        }
    }
}

impl PreparedOperand {
    /// Prepares an operand, taking ownership.
    pub fn new(input: GemmInput) -> Self {
        let prepared = Preparation::of(&input);
        PreparedOperand { input, prepared }
    }

    /// The quantised operand this preparation wraps.
    pub fn input(&self) -> &GemmInput {
        &self.input
    }

    /// The pre-decoded planes (binary16 operands only).
    pub fn decoded(&self) -> Option<&DecodedPlanes> {
        match &self.prepared {
            Preparation::Decoded(planes) => Some(planes),
            Preparation::Quadrant(_) => None,
        }
    }

    /// What preparation built, for the kernel of the operand's precision.
    pub(crate) fn prepared(&self) -> &Preparation {
        &self.prepared
    }
}

impl GemmInput {
    /// Pre-processes this operand for repeated kernel executions (bulk
    /// half→float decode for binary16; the `re ⊕ im` plane for packed 1-bit
    /// data).
    ///
    /// This clones the operand so the original stays usable; callers that
    /// own the operand and are done with it should move it into
    /// [`PreparedOperand::new`] instead and skip the copy.
    pub fn prepare(&self) -> PreparedOperand {
        PreparedOperand::new(self.clone())
    }
}

/// Rows of `A` per register tile of the f16 kernel.  Heights 1–7 (and two-
/// and three-vector-wide tiles at heights 1–3) were measured on every
/// `BENCH_gemm.json` and `BENCHMARK.json` f16 shape on both paths; no shape
/// beat 4 rows × one vector by more than the run-to-run spread on either,
/// so it is a constant, not a tuning axis.
const F16_TILE_ROWS: usize = 4;

/// Most register tiles stacked into one parallel work item of the f16
/// kernel — see [`f16_row_block`].  Measured at 1, 4, 8 and 16: one tile
/// re-streams every `B` panel from L2 per four rows (1.03–1.09× slower
/// portable, 1.16–1.26× AVX-512); past 4 nothing more is gained.
const F16_BLOCK_TILES: usize = 4;

/// `B` as the f16 tile kernel reads it: the `N × K` operand decoded from
/// binary16 straight into k-major column panels of `lanes` output columns,
///
/// ```text
/// panel[g][k] = [ Re Bᵀ[g·lanes .. (g+1)·lanes][k] | Im Bᵀ[g·lanes .. (g+1)·lanes][k] ]
/// ```
///
/// so step `k` of a tile is one contiguous run of `2·lanes` scalars: the
/// real parts of `lanes` columns' `k`-th sample, then the imaginary parts.
/// In the `K × N` block that `B` arrives as — `[re, im]`, both planes as
/// stored — that step is already one stored run, `[k·N + g·lanes ..]` of
/// each plane.  Columns past `N` in the last group are zero, stored here
/// like every other scalar: the panels are written once, not cleared first.
/// One pass and one allocation per call — this *is* the decode of `B`, not
/// a repack of a decoded copy — `O(N·K)` against the kernel's `O(M·N·K)`; a
/// panel is one parallel work item, run on `isa` (a GEMM passes
/// `isa.f16_lanes()` as `lanes`; the tests also build the portable
/// instance's panels at other widths).
fn f16_column_panels(
    isa: Isa,
    [re, im]: [&[f16]; 2],
    (n, k): (usize, usize),
    lanes: usize,
) -> Vec<f32> {
    write_once(n.next_multiple_of(lanes) * 2 * k, |panels| {
        panels
            .par_chunks_mut((2 * lanes * k).max(1))
            .enumerate()
            .for_each(|(g, panel)| {
                let j0 = g * lanes;
                prologue_on(
                    isa,
                    Prologue::Steps {
                        re,
                        im,
                        n,
                        j0,
                        panel,
                    },
                );
            });
    })
}

/// One work item of [`f16_column_panels`], portable — the definition the
/// AVX-512 instance is tested against: the panel of output columns `j0..`,
/// step `k` decoded from the stored run `[k·n + j0 ..]` of both planes of
/// the `K × N` block, the lanes past column `n` stored as zeros.
pub(crate) fn panel_steps(
    re: &[f16],
    im: &[f16],
    n: usize,
    j0: usize,
    panel: &mut [MaybeUninit<f32>],
) {
    let lanes = panel.len() / (2 * (re.len() / n));
    let width = lanes.min(n - j0);
    let rows = re.chunks_exact(n).zip(im.chunks_exact(n));
    for ((re_row, im_row), step) in rows.zip(panel.chunks_exact_mut(2 * lanes)) {
        let (re_lanes, im_lanes) = step.split_at_mut(lanes);
        for (row, lanes) in [(re_row, re_lanes), (im_row, im_lanes)] {
            let (valid, past) = lanes.split_at_mut(width);
            decode_to_f32(&row[j0..][..width], valid);
            past.fill(MaybeUninit::new(0.0));
        }
    }
}

/// The operands of one f16 GEMM as the tile kernel reads them: `A`'s
/// row-major decoded planes, `B`'s column panels.
pub(crate) struct F16Operands<'a> {
    a_re: &'a [f32],
    a_im: &'a [f32],
    /// See [`f16_column_panels`].
    b: Vec<f32>,
    /// Output columns per panel: the lane count of the instance to run.
    lanes: usize,
    /// The reduction dimension.
    k: usize,
    /// Output columns (rows of `B`).
    n: usize,
}

/// `acc[l] = a.mul_add(b[l], acc[l])` in every lane: one link of one chain
/// of [`f16_tile`] for `LANES` neighbouring output columns at once — a
/// broadcast of `a` and one vector fused multiply-add.
#[inline(always)]
fn chain_step<const LANES: usize>(acc: &mut [f32; LANES], a: f32, b: &[f32; LANES]) {
    for l in 0..LANES {
        acc[l] = a.mul_add(b[l], acc[l]);
    }
}

/// The register-tiled f16 micro-kernel: `MR` rows of `A` (from row `i0`;
/// `out` is exactly their `MR` output rows) against one column panel of
/// `B` (its columns start at `j0`) — an `MR × LANES` tile of outputs from
/// one pass over `K`, one output per vector lane.  Each `B` vector loaded
/// feeds `MR` rows' accumulators and each `A` scalar, broadcast, feeds
/// `LANES` columns'; nothing is reduced across lanes, so there is no
/// horizontal step and no `K` tail.
///
/// The arithmetic of one output is a definition, not a schedule — the four
/// real multiply-accumulates of Section III-B as four chains, each
/// `acc = a.mul_add(b, acc)` from `0.0` in ascending `k`:
///
/// ```text
/// rr = Σ Re a·Re b    ii = Σ Im a·Im b    ri = Σ Re a·Im b    ir = Σ Im a·Re b
/// re = rr − ii        im = ri + ir
/// ```
///
/// with `Im(b)` negated "in registers" by the final subtraction instead of
/// in the operand.  `MR` and `LANES` decide only which outputs are in
/// flight together, so every instance, thread count and position in the
/// matrix gives the same bits on every input.
#[inline(always)]
fn f16_tile<const MR: usize, const LANES: usize>(
    out: &mut [MaybeUninit<Complex32>],
    (i0, j0): (usize, usize),
    panel: &[f32],
    g: &F16Operands<'_>,
) {
    let (n, k) = (g.n, g.k);
    assert_eq!((out.len(), panel.len()), (MR * n, 2 * LANES * k));
    let ar: [&[f32]; MR] = std::array::from_fn(|i| &g.a_re[(i0 + i) * k..][..k]);
    let ai: [&[f32]; MR] = std::array::from_fn(|i| &g.a_im[(i0 + i) * k..][..k]);
    let mut rr = [[0.0f32; LANES]; MR];
    let mut ii = [[0.0f32; LANES]; MR];
    let mut ri = [[0.0f32; LANES]; MR];
    let mut ir = [[0.0f32; LANES]; MR];
    for (kk, [br, bi]) in panel
        .as_chunks::<LANES>()
        .0
        .as_chunks::<2>()
        .0
        .iter()
        .enumerate()
    {
        for i in 0..MR {
            chain_step(&mut rr[i], ar[i][kk], br);
            chain_step(&mut ii[i], ai[i][kk], bi);
            chain_step(&mut ri[i], ar[i][kk], bi);
            chain_step(&mut ir[i], ai[i][kk], br);
        }
    }

    for i in 0..MR {
        // Whole vectors are finished before the columns that exist are
        // stored: the zero-filled surplus lanes of a ragged `N` stop here.
        let values: [Complex32; LANES] =
            std::array::from_fn(|l| Complex32::new(rr[i][l] - ii[i][l], ri[i][l] + ir[i][l]));
        store_columns(&mut out[i * n + j0..(i + 1) * n], &values);
    }
}

/// Stores one vector of finished outputs into what is left of an output
/// row from the vector's first column on: all of it, or the columns that
/// exist at the ragged end of `N`.
#[inline(always)]
fn store_columns<const LANES: usize>(
    row: &mut [MaybeUninit<Complex32>],
    values: &[Complex32; LANES],
) {
    match row.first_chunk_mut::<LANES>() {
        Some(whole) => {
            whole.write_copy_of_slice(values);
        }
        None => store_ragged(row, values),
    }
}

/// The ragged end of [`store_columns`], out of line: inlined, LLVM merged
/// it with the whole-vector store into one `memcpy` call per output row.
#[cold]
#[inline(never)]
fn store_ragged(row: &mut [MaybeUninit<Complex32>], values: &[Complex32]) {
    row.write_copy_of_slice(&values[..row.len()]);
}

/// A block of whole output rows (`out`, starting at row `i0` of `A`)
/// against every column panel of `B`, panel by panel: a panel is fetched
/// once and then stays in the nearest cache while every tile of the block
/// passes over it, and `A`'s rows stream instead.  Rows are taken
/// [`F16_TILE_ROWS`] at a time where they are there, else one at a time by
/// the same kernel — only the last rows of a ragged `M` take that path.
#[inline(always)]
pub(crate) fn f16_row_block<const LANES: usize>(
    out: &mut [MaybeUninit<Complex32>],
    i0: usize,
    g: &F16Operands<'_>,
) {
    const MR: usize = F16_TILE_ROWS;
    let (n, k) = (g.n, g.k);
    assert_eq!(g.lanes, LANES);
    if n == 0 || k == 0 {
        // No panel to pass over: every output there is is the empty sum.
        out.fill(MaybeUninit::new(Complex32::ZERO));
        return;
    }
    let tiled_rows = out.len() / n / MR * MR;
    for (group, panel) in g.b.chunks_exact(2 * LANES * k).enumerate() {
        let j0 = group * LANES;
        let (tiles, singles) = out.split_at_mut(tiled_rows * n);
        for (t, tile) in tiles.chunks_exact_mut(MR * n).enumerate() {
            f16_tile::<MR, LANES>(tile, (i0 + t * MR, j0), panel, g);
        }
        for (r, row) in singles.chunks_exact_mut(n).enumerate() {
            f16_tile::<1, LANES>(row, (i0 + tiled_rows + r, j0), panel, g);
        }
    }
}

/// What a GEMM returns for a `B` in any layout but the one its kernels read
/// on `isa`; `actual` names the layout it has.
fn b_layout_mismatch(isa: Isa, actual: String) -> TcbfError {
    TcbfError::ShapeMismatch {
        expected: format!(
            "B quantised from the transposed() view of its K × N block, on the {isa} path"
        ),
        actual,
    }
}

/// Shared implementation of the f16 paths: `A` is already decoded, `B` is
/// decoded here, straight into the column panels of the instance `isa`
/// names (once per operand, never per output element).
pub(crate) fn gemm_f16_decoded_on(
    isa: Isa,
    a: &DecodedPlanes,
    b_t: &F16Matrix,
) -> Result<ComplexOutput> {
    if a.cols() != b_t.cols() {
        return Err(TcbfError::ShapeMismatch {
            expected: format!("A and B to share K (A has K={})", a.cols()),
            actual: format!("B has K={}", b_t.cols()),
        });
    }
    let Some(b_planes) = b_t.columns() else {
        return Err(b_layout_mismatch(isa, "a row-major B".into()));
    };
    let (m, n, k) = (a.rows(), b_t.rows(), a.cols());
    let lanes = isa.f16_lanes();
    let operands = F16Operands {
        a_re: a.re(),
        a_im: a.im(),
        b: f16_column_panels(isa, b_planes, (n, k), lanes),
        lanes,
        k,
        n,
    };
    // Whole tiles per work item, fewer where `M` is short, so that a block
    // of few beams still spreads over a handful of threads.
    let block_rows = F16_TILE_ROWS * (m / (8 * F16_TILE_ROWS)).clamp(1, F16_BLOCK_TILES);

    let out = write_once(m * n, |out| {
        out.par_chunks_mut((block_rows * n).max(1))
            .enumerate()
            .for_each(|(block, rows)| f16_row_block_on(isa, rows, block * block_rows, &operands));
    });
    HostComplexMatrix::from_data(m, n, out)
}

/// float16 complex GEMM: `C[M×N] = A[M×K] · Bᵀ[N×K]` with binary16 inputs
/// and binary32 accumulation, on the instance `isa` names — how the tests
/// and `hotpath_bench` run every path the host has.  Production callers
/// never choose: [`crate::Gemm`] runs [`Isa::detected`].
///
/// One output is, by definition, four chains `rr = Σ Re a·Re b`,
/// `ii = Σ Im a·Im b`, `ri = Σ Re a·Im b`, `ir = Σ Im a·Re b` — each
/// `acc = a.mul_add(b, acc)` from `0.0` in ascending `k` — and then
/// `re = rr − ii`, `im = ri + ir`: the same bits on every instance, for
/// every thread count and at every position in the matrix.
///
/// `A` is bulk-decoded to f32 planes and `B` to f32 column panels first
/// (`O((M+N)·K)` conversions instead of the naive kernel's `O(M·N·K)`),
/// then multiplied by the register-tiled micro-kernel.  Callers that reuse
/// `A` across many calls should decode it once via [`GemmInput::prepare`]
/// and the prepared entry points on [`crate::Gemm`].  All paths agree on
/// all inputs.  `b_t` is the quantised `transposed()` view of the `K × N`
/// block; a row-major one is a [`TcbfError::ShapeMismatch`].
pub fn gemm_f16_on(isa: Isa, a: &F16Matrix, b_t: &F16Matrix) -> Result<ComplexOutput> {
    gemm_f16_decoded_on(isa, &DecodedPlanes::from_f16(a), b_t)
}

/// Rows of `A` per register tile of the 1-bit kernel.  Heights 1, 2 and 4
/// were measured on every `BENCH_gemm.json` shape and both popcount paths;
/// 4 was fastest in every cell, so it is a constant, not a tuning axis.
const INT1_TILE_ROWS: usize = 4;

/// `re ⊕ im` of a 1-bit operand, word for word: the third plane of `A` the
/// tile kernel reads, built once per weights by [`PreparedOperand::new`]
/// and per call by [`gemm_int1_on`] and [`crate::Gemm::run`].  Padding and
/// slack are zero in both sign planes, so they are zero here too.  A run
/// of [`PLANE_ITEM`] words is one parallel work item.
fn int1_quadrant_plane(a: &Int1Matrix) -> Vec<u64> {
    write_once(a.re_words().len(), |q| {
        q.par_chunks_mut(PLANE_ITEM)
            .enumerate()
            .for_each(|(item, q)| {
                let at = item * PLANE_ITEM;
                let words = a.re_words()[at..].iter().zip(&a.im_words()[at..]);
                for (slot, (&re, &im)) in q.iter_mut().zip(words) {
                    slot.write(re ^ im);
                }
            });
    })
}

/// The operands of one 1-bit GEMM as the tile kernel reads them — `A`'s
/// flat bit planes, `B`'s column panels — and the constants that are
/// properties of the operands rather than of any output element.
pub(crate) struct Int1Operands<'a> {
    a_re: &'a [u64],
    a_im: &'a [u64],
    /// See [`int1_quadrant_plane`].
    a_q: &'a [u64],
    /// `re ⊕ im` and the imaginary plane of `B`, its column panels as
    /// `quantise_int1` of a view packs them (see [`Int1Matrix`]).
    b_q: &'a [u64],
    b_im: &'a [u64],
    /// Columns per panel group: the lane count of the instance to run.
    lanes: usize,
    /// Words per row of every plane.
    stride: usize,
    /// Output columns (rows of `B`).
    n: usize,
    /// `2·K`, the largest magnitude an output component can take.
    bound: i32,
}

/// Longest `K` whose 1-bit outputs `f32` holds exactly: an output
/// component is an integer of magnitude at most `2·K`, and every integer up
/// to `2²⁴` is an `f32`.
const INT1_F32_EXACT_K: usize = 1 << 23;

/// `2·K` as the 32-bit integer the 1-bit kernel's outputs are defined in
/// (Section III-D: 1-bit input, 32-bit integer output).
///
/// Every count the kernel sums is at most `K_padded` and every output at
/// most `2·K` in magnitude, so this one conversion is the whole overflow
/// analysis of the 32-bit result: operands too long for it are a
/// [`TcbfError::ShapeMismatch`], never a wrapped sum.
/// So is a `K` above [`INT1_F32_EXACT_K`], whose outputs the `f32` output
/// matrix could only round.
fn int1_output_bound(k_bits: usize, k_padded: usize) -> Result<i32> {
    if k_bits > INT1_F32_EXACT_K {
        return Err(TcbfError::ShapeMismatch {
            expected: format!(
                "K ≤ 2²³ = {INT1_F32_EXACT_K}, so that every output (|·| ≤ 2·K) is exact in f32"
            ),
            actual: format!("K = {k_bits}"),
        });
    }
    match k_padded.checked_mul(2).map(i32::try_from) {
        Some(Ok(_)) => Ok(2 * k_bits as i32),
        _ => Err(TcbfError::ShapeMismatch {
            expected: format!("2·K_padded to fit the 32-bit accumulator ({})", i32::MAX),
            actual: format!("K_padded = {k_padded}"),
        }),
    }
}

/// The register-tiled 1-bit micro-kernel: `MR` rows of `A` (from row `i0`;
/// `out` is exactly their `MR` output rows) against every column panel of
/// `B` — an `MR × LANES` tile of outputs per pass over `K`, one output per
/// vector lane.  Each `B` vector loaded feeds `MR` rows' accumulators and
/// each `A` word, broadcast, feeds `LANES` columns'; nothing is reduced
/// across lanes, so there is no horizontal step at all.
///
/// Per output it counts *quadrants*, not signs.  A sign bit is 1 for +1,
/// and the product of two samples `±1 ± i` is always one of `±2`, `±2i`;
/// with `q = ar ⊕ ai` and `r = br ⊕ bi` (the third plane of `A`, the first
/// panel of `B`), per word
///
/// ```text
/// t = bi ⊕ (q ∧ r)      H = t ⊕ ai      G = t ⊕ r ⊕ ar
/// ```
///
/// codes each sample's product in two bits — `(H, G)` is `00` for `+2i`,
/// `10` for `+2`, `11` for `−2i` and `01` for `−2` — so two popcounts per
/// word pair carry the whole complex sum, where Table II's four XOR counts
/// or Eq. 6's eight AND counts carry four real ones:
///
/// ```text
/// re = 2·(ΣH − ΣG)      im = 2·K − 2·(ΣH + ΣG)
/// ```
///
/// Padding and slack are 0 in every plane, so they give `H = G = 0` and
/// count in neither sum: the `K_pad` correction of Eq. 5 is all in the
/// constant `2·K`, which counts the valid samples only.  The outputs are
/// those of both formulations bit for bit.
///
/// `LANES` is the vector width in words the instance is compiled for; it
/// never changes a result (integer sums), only the instructions.
#[inline(always)]
fn int1_tile_rows<const MR: usize, const LANES: usize>(
    out: &mut [MaybeUninit<Complex32>],
    i0: usize,
    g: &Int1Operands<'_>,
) {
    let (n, stride) = (g.n, g.stride);
    assert_eq!((out.len(), g.lanes), (MR * n, LANES));
    let ar: [&[u64]; MR] = std::array::from_fn(|i| &g.a_re[(i0 + i) * stride..][..stride]);
    let ai: [&[u64]; MR] = std::array::from_fn(|i| &g.a_im[(i0 + i) * stride..][..stride]);
    let aq: [&[u64]; MR] = std::array::from_fn(|i| &g.a_q[(i0 + i) * stride..][..stride]);
    let panels = g.b_q.chunks_exact(LANES * stride);
    for (group, (bq, bi)) in panels.zip(g.b_im.chunks_exact(LANES * stride)).enumerate() {
        let (bq, bi) = (bq.as_chunks::<LANES>().0, bi.as_chunks::<LANES>().0);
        let mut acc_h = [[0i64; LANES]; MR];
        let mut acc_g = [[0i64; LANES]; MR];
        for (w, (bq, bi)) in bq.iter().zip(bi).enumerate() {
            for i in 0..MR {
                let (ar, ai, aq) = (ar[i][w], ai[i][w], aq[i][w]);
                for l in 0..LANES {
                    let t = bi[l] ^ (aq & bq[l]);
                    acc_h[i][l] += i64::from((t ^ ai).count_ones());
                    acc_g[i][l] += i64::from((t ^ bq[l] ^ ar).count_ones());
                }
            }
        }

        let j0 = group * LANES;
        let two_k = i64::from(g.bound);
        for (i, (sum_h, sum_g)) in acc_h.iter().zip(&acc_g).enumerate() {
            // Whole vectors are finished before the columns that exist
            // are stored; `int1_output_bound` is why `as i32` is lossless.
            let re: [i32; LANES] = std::array::from_fn(|l| 2 * (sum_h[l] - sum_g[l]) as i32);
            let im: [i32; LANES] =
                std::array::from_fn(|l| (two_k - 2 * (sum_h[l] + sum_g[l])) as i32);
            debug_assert!(re.iter().chain(&im).all(|v| v.abs() <= g.bound));
            let values: [Complex32; LANES] =
                std::array::from_fn(|l| Complex32::new(re[l] as f32, im[l] as f32));
            store_columns(&mut out[i * n + j0..(i + 1) * n], &values);
        }
    }
}

/// One group of up to [`INT1_TILE_ROWS`] output rows (`out`, starting at
/// row `i0` of `A`): a whole tile where the rows are there, else the same
/// kernel at the next smaller heights — a ragged `M` costs no redundant
/// row.
#[inline(always)]
pub(crate) fn int1_row_group<const LANES: usize>(
    out: &mut [MaybeUninit<Complex32>],
    i0: usize,
    g: &Int1Operands<'_>,
) {
    let n = g.n;
    if out.len() == INT1_TILE_ROWS * n {
        return int1_tile_rows::<INT1_TILE_ROWS, LANES>(out, i0, g);
    }
    let (pair, single) = out.split_at_mut(if out.len() >= 2 * n { 2 * n } else { 0 });
    if !pair.is_empty() {
        int1_tile_rows::<2, LANES>(pair, i0, g);
    }
    if !single.is_empty() {
        int1_tile_rows::<1, LANES>(single, i0 + pair.len() / n, g);
    }
}

/// 1-bit complex GEMM, the XOR (Table II) and AND (Eq. 6) formulation
/// alike, on the popcount path `isa` names — how the tests and
/// `hotpath_bench` run every path the host has.  Production callers never
/// choose: [`crate::Gemm`] runs [`Isa::detected`].  All paths agree on all
/// inputs.
///
/// Both operands must have been packed with the same padding granularity;
/// the `K_pad` correction of Eq. 5 is applied to the imaginary part.  An
/// output is an integer of magnitude at most `2·K`, exact in the `f32`
/// output for `K ≤ 2²³` (8 388 608, 16× the paper's largest); a longer `K`
/// is a [`TcbfError::ShapeMismatch`], not a rounded result.  The two
/// formulations give the same bits by definition, and one kernel, counting
/// quadrants (see the module doc), computes both; the device model picks
/// AND because XOR is deprecated from the Hopper architecture on.  `b_t`
/// is the `transposed()` view of the `K × N` block, quantised on `isa`; a
/// row-major one, or one packed on a path of another lane count, is a
/// [`TcbfError::ShapeMismatch`].  `A`'s `re ⊕ im` plane is built here per
/// call; [`PreparedOperand`] builds it per weights.
pub fn gemm_int1_on(isa: Isa, a: &Int1Matrix, b_t: &Int1Matrix) -> Result<ComplexOutput> {
    gemm_int1_quadrant_on(isa, a, &int1_quadrant_plane(a), b_t)
}

/// The 1-bit GEMM on `isa`, with `A`'s `re ⊕ im` plane (`a_q`) built.
fn gemm_int1_quadrant_on(
    isa: Isa,
    a: &Int1Matrix,
    a_q: &[u64],
    b_t: &Int1Matrix,
) -> Result<ComplexOutput> {
    if a.k_bits() != b_t.k_bits() || a.k_padded() != b_t.k_padded() {
        return Err(TcbfError::ShapeMismatch {
            expected: format!(
                "A and B to share K (A has K={}/{} padded)",
                a.k_bits(),
                a.k_padded()
            ),
            actual: format!("B has K={}/{} padded", b_t.k_bits(), b_t.k_padded()),
        });
    }
    let bound = int1_output_bound(a.k_bits(), a.k_padded())?;
    let lanes = isa.int1_lanes();
    let [b_q, b_im] = match b_t.panels() {
        Some((packed, panels)) if packed == lanes => panels,
        Some((packed, _)) => {
            let actual = format!("B packed for {packed} lanes, where the {isa} path reads {lanes}");
            return Err(b_layout_mismatch(isa, actual));
        }
        None => return Err(b_layout_mismatch(isa, "a row-major B".into())),
    };
    let (m, n, stride) = (a.rows(), b_t.rows(), a.words_per_row());
    let operands = Int1Operands {
        a_re: a.re_words(),
        a_im: a.im_words(),
        a_q,
        b_q,
        b_im,
        lanes,
        stride,
        n,
        bound,
    };

    let out = write_once(m * n, |out| {
        out.par_chunks_mut((INT1_TILE_ROWS * n).max(1))
            .enumerate()
            .for_each(|(group, rows)| {
                int1_row_group_on(isa, rows, group * INT1_TILE_ROWS, &operands)
            });
    });
    HostComplexMatrix::from_data(m, n, out)
}

/// Executes a GEMM with an operand whose preparation (bulk half→float
/// decode, or the 1-bit `re ⊕ im` plane) was done ahead of time,
/// dispatching on precision.  Both operands must share the same precision,
/// and `b_t` is the quantised `transposed()` view of the `K × N` block (see
/// the module doc).  The formulation `_op` changes no bit: one kernel
/// computes both (see [`gemm_int1_on`]).
pub fn gemm_dispatch_prepared(
    a: &PreparedOperand,
    b_t: &GemmInput,
    _op: BitOp,
) -> Result<ComplexOutput> {
    gemm_dispatch_with(a.input(), a.prepared(), b_t)
}

/// Dispatch core: runs the kernel instance the host supports
/// ([`Isa::detected`]) on `a` with what [`Preparation::of`] built of it.
pub(crate) fn gemm_dispatch_with(
    a: &GemmInput,
    prepared: &Preparation,
    b_t: &GemmInput,
) -> Result<ComplexOutput> {
    let isa = Isa::detected();
    match (a, prepared, b_t) {
        (GemmInput::F16(_), Preparation::Decoded(planes), GemmInput::F16(b)) => {
            gemm_f16_decoded_on(isa, planes, b)
        }
        (GemmInput::Int1(a), Preparation::Quadrant(a_q), GemmInput::Int1(b)) => {
            gemm_int1_quadrant_on(isa, a, a_q, b)
        }
        (a, _, b) => Err(TcbfError::PrecisionMismatch {
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
        let b_t = pseudo_random_matrix(40, 16, 2, 1.0).transposed();
        let (a16, b16) = (F16Matrix::from_host(&a), F16Matrix::from_host(&b_t));
        let tensor = gemm_f16_on(Isa::detected(), &a16, &b16).unwrap();
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
        let b = F16Matrix::from_host(&HostComplexMatrix::zeros(9, 4).transposed());
        let error = gemm_f16_on(Isa::detected(), &a, &b).unwrap_err();
        assert!(error.to_string().contains("share K"), "{error}");
    }

    #[test]
    fn int1_gemm_matches_decoded_reference_with_padding() {
        // K = 100 forces 156 bits of padding at granularity 256; the
        // corrected kernel must agree exactly with the ±1 reference.
        let a_host = pseudo_random_matrix(9, 100, 3, 1.0);
        let b_host = pseudo_random_matrix(100, 7, 4, 1.0).transposed();
        let a = Int1Matrix::from_host_padded(&a_host, 256);
        let b = Int1Matrix::from_host_padded(&b_host, 256);
        assert_eq!(a.k_padding(), 156);
        let reference = reference_gemm(&a.to_host(), &b.to_host()).unwrap();
        let result = gemm_int1_on(Isa::detected(), &a, &b).unwrap();
        assert_eq!(result.rows(), 9);
        assert_eq!(result.cols(), 7);
        assert!(result.max_abs_diff(&reference) < 0.5);
    }

    #[test]
    fn int1_values_have_expected_parity_and_bounds() {
        let a_host = pseudo_random_matrix(6, 64, 7, 1.0);
        let b_host = pseudo_random_matrix(64, 6, 8, 1.0).transposed();
        let a = Int1Matrix::from_host(&a_host);
        let b = Int1Matrix::from_host(&b_host);
        let c = gemm_int1_on(Isa::detected(), &a, &b).unwrap();
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

    /// `a · bᵀ` one output element at a time through Table II's
    /// definition, `PackedBits::dot_xor` — one XOR + popcount pass per word
    /// pair of each of the four real products — with the Eq. 5 correction.
    fn per_element_gemm(a: &Int1Matrix, b_t: &Int1Matrix) -> HostComplexMatrix {
        let k_pad = a.k_padding() as i32;
        HostComplexMatrix::from_fn(a.rows(), b_t.rows(), |i, j| {
            let [ar, ai] = [a.re_row(i), a.im_row(i)].map(|row| row.to_packed_bits());
            let [br, bi] = [b_t.re_row(j), b_t.im_row(j)].map(|row| row.to_packed_bits());
            Complex32::new(
                (ar.dot_xor(&br) - ai.dot_xor(&bi)) as f32,
                (ar.dot_xor(&bi) + ai.dot_xor(&br) - 2 * k_pad) as f32,
            )
        })
    }

    /// `a · bᵀ` one output element at a time through Eq. 6's definition,
    /// `PackedBits::dot_and` — two AND + popcount passes per word pair of
    /// each of the four real products — with the Eq. 5 correction.
    fn per_element_and_gemm(a: &Int1Matrix, b_t: &Int1Matrix) -> HostComplexMatrix {
        let k_pad = a.k_padding() as i32;
        HostComplexMatrix::from_fn(a.rows(), b_t.rows(), |i, j| {
            let [ar, ai] = [a.re_row(i), a.im_row(i)].map(|row| row.to_packed_bits());
            let [br, bi] = [b_t.re_row(j), b_t.im_row(j)].map(|row| row.to_packed_bits());
            Complex32::new(
                (ar.dot_and(&br) - ai.dot_and(&bi)) as f32,
                (ar.dot_and(&bi) + ai.dot_and(&br) - 2 * k_pad) as f32,
            )
        })
    }

    fn bits(m: &HostComplexMatrix) -> Vec<(u32, u32)> {
        let of = |v: &Complex32| (v.re.to_bits(), v.im.to_bits());
        m.data().iter().map(of).collect()
    }

    /// Asserts that both formulations' per-element definitions — Table II
    /// and Eq. 6 — and every popcount path of the kernel give `expected`,
    /// bit for bit, with `B` quantised from the view `b` at
    /// `granularity` on the path that runs it.
    fn assert_every_int1_path_gives(
        a: &Int1Matrix,
        b: &HostComplexMatrix,
        granularity: usize,
        expected: &HostComplexMatrix,
    ) {
        let shape = format!(
            "{}x{}x{} (padded to {})",
            a.rows(),
            b.rows(),
            a.k_bits(),
            a.k_padded()
        );
        for isa in Isa::available() {
            let b_t = Int1Matrix::from_host_padded_on(isa, b, granularity);
            if isa == Isa::PORTABLE {
                let definitions = [
                    ("Table II", per_element_gemm(a, &b_t)),
                    ("Eq. 6", per_element_and_gemm(a, &b_t)),
                ];
                for (name, definition) in definitions {
                    assert_eq!(bits(&definition), bits(expected), "{shape}: {name}");
                }
            }
            let got = gemm_int1_on(isa, a, &b_t).unwrap();
            assert_eq!(bits(&got), bits(expected), "{shape} on {isa}");
        }
    }

    /// `a · bᵀ` by the definition of one f16 output — four `mul_add` chains
    /// in ascending `k`, then `rr − ii` and `ri + ir` — one element at a
    /// time, through nothing the kernel uses.
    fn four_chain_gemm(a: &F16Matrix, b_t: &F16Matrix) -> HostComplexMatrix {
        HostComplexMatrix::from_fn(a.rows(), b_t.rows(), |i, j| {
            let (mut rr, mut ii, mut ri, mut ir) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for k in 0..a.cols() {
                let (x, y) = (a.get(i, k), b_t.get(j, k));
                rr = x.re.mul_add(y.re, rr);
                ii = x.im.mul_add(y.im, ii);
                ri = x.re.mul_add(y.im, ri);
                ir = x.im.mul_add(y.re, ir);
            }
            Complex32::new(rr - ii, ri + ir)
        })
    }

    /// Asserts that every path gives `expected` bit for bit, except that
    /// any NaN stands for any other (which payload an `fma` of two NaNs
    /// keeps is the code generator's choice of operand order).
    fn assert_every_f16_path_gives(a: &F16Matrix, b_t: &F16Matrix, expected: &HostComplexMatrix) {
        let same = |x: f32, y: f32| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        for isa in Isa::available() {
            let got = gemm_f16_on(isa, a, b_t).unwrap();
            assert_eq!((got.rows(), got.cols()), (a.rows(), b_t.rows()));
            for (at, (g, e)) in got.data().iter().zip(expected.data()).enumerate() {
                assert!(
                    same(g.re, e.re) && same(g.im, e.im),
                    "{}x{}x{} on {isa}: element {at} is {g:?}, the definition gives {e:?}",
                    a.rows(),
                    b_t.rows(),
                    a.cols(),
                );
            }
        }
    }

    /// The shapes of the f16 tile-edge tests: rows around one and two
    /// tiles and every remainder, columns around one and two vectors of
    /// every lane width (4, 8, 16), `K` around every length a vector-along-K
    /// kernel would care about.
    fn f16_edge_shapes() -> impl Iterator<Item = (usize, usize, usize)> {
        const MS: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 13];
        const NS: [usize; 8] = [1, 7, 8, 9, 15, 16, 17, 33];
        const KS: [usize; 9] = [1, 2, 7, 8, 9, 127, 128, 129, 1000];
        MS.into_iter()
            .flat_map(|m| NS.into_iter().flat_map(move |n| KS.map(|k| (m, n, k))))
    }

    #[test]
    fn f16_kernel_is_exact_at_every_tile_edge_on_every_path() {
        for (m, n, k) in f16_edge_shapes() {
            let seed = (m * 131 + n * 17 + k) as u64;
            let a_host = pseudo_random_matrix(m, k, seed, 1.0);
            let b_host = pseudo_random_matrix(k, n, seed ^ 0xF16, 1.0).transposed();
            let (a, b) = (F16Matrix::from_host(&a_host), F16Matrix::from_host(&b_host));
            let definition = four_chain_gemm(&a, &b);
            assert_every_f16_path_gives(&a, &b, &definition);
            // The documented envelope: relative 2⁻¹¹ per input value,
            // accumulated over 2·K products of magnitude up to 2.
            let tol = 2.0 * 2.0f32.powi(-11) * 2.0 * k as f32;
            let diff = definition.max_abs_diff(&reference_gemm(&a_host, &b_host).unwrap());
            assert!(diff < tol, "{m}x{n}x{k}: {diff} >= {tol}");
        }
    }

    #[test]
    fn f16_kernel_gives_the_definition_on_hostile_values_on_every_path() {
        // Every special value meets every other in some product, and a
        // ragged N puts zero-filled surplus lanes beside them: 0·Inf there
        // is NaN, and it must never reach a stored column.
        let hostile = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            65504.0,
            -65504.0,
            5.960_464_5e-8,
            -6.097_555e-5,
            1.0,
            -1.5,
        ];
        let pick = |r: usize, c: usize, salt: usize| {
            let at = |i: usize| hostile[(r * 7 + c * 3 + salt + i) % hostile.len()];
            Complex32::new(at(0), at(5))
        };
        for (m, n, k) in f16_edge_shapes().filter(|&(_, _, k)| k <= 129) {
            let a = F16Matrix::from_host(&HostComplexMatrix::from_fn(m, k, |r, c| pick(r, c, m)));
            let block = HostComplexMatrix::from_fn(k, n, |c, r| pick(r, c, n + 4));
            let b = F16Matrix::from_host(&block.transposed());
            assert_every_f16_path_gives(&a, &b, &four_chain_gemm(&a, &b));
        }
        // A finite column beside hostile ones stays finite: nothing crosses
        // lanes.
        let one = Complex32::new(1.0, 0.0);
        let a = F16Matrix::from_host(&HostComplexMatrix::from_fn(5, 9, |_, _| one));
        let block = HostComplexMatrix::from_fn(9, 9, |c, r| {
            if r == 4 {
                Complex32::new(1.0, -1.0)
            } else {
                pick(r, c, 0)
            }
        });
        let b = F16Matrix::from_host(&block.transposed());
        for isa in Isa::available() {
            let out = gemm_f16_on(isa, &a, &b).unwrap();
            for i in 0..5 {
                assert_eq!(out.get(i, 4), Complex32::new(9.0, -9.0), "{isa}");
            }
        }
    }

    #[test]
    fn a_zero_dimension_gives_an_empty_or_zero_matrix_everywhere() {
        for (m, n, k) in [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0)] {
            let a_host = pseudo_random_matrix(m, k, 1, 1.0);
            let b_host = pseudo_random_matrix(k, n, 2, 1.0).transposed();
            let zeros = HostComplexMatrix::zeros(m, n);
            assert_eq!(reference_gemm(&a_host, &b_host).unwrap(), zeros);
            let (a, b) = (F16Matrix::from_host(&a_host), F16Matrix::from_host(&b_host));
            assert_eq!(bits(&four_chain_gemm(&a, &b)), bits(&zeros));
            assert_every_f16_path_gives(&a, &b, &zeros);
            let granularity = GemmInput::DEFAULT_INT1_K_GRANULARITY;
            let a = Int1Matrix::from_host_padded(&a_host, granularity);
            assert_every_int1_path_gives(&a, &b_host, granularity, &zeros);
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
                let prepared = gemm_dispatch_prepared(&a.prepare(), &b, BitOp::And).unwrap();
                assert_eq!(prepared, zeros);
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
                    let granularity = GemmInput::DEFAULT_INT1_K_GRANULARITY;
                    let a = Int1Matrix::from_host_padded(
                        &pseudo_random_matrix(m, k, seed, 1.0),
                        granularity,
                    );
                    let b_host = pseudo_random_matrix(k, n, seed ^ 0xB17, 1.0).transposed();
                    let b = Int1Matrix::from_host_padded(&b_host, granularity);
                    let reference = reference_gemm(&a.to_host(), &b.to_host()).unwrap();
                    assert_eq!(bits(&per_element_gemm(&a, &b)), bits(&reference));
                    assert_every_int1_path_gives(&a, &b_host, granularity, &reference);
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
                let b_host = pseudo_random_matrix(k, 5, (granularity + k) as u64, 1.0).transposed();
                let a = Int1Matrix::from_host_padded(&a_host, granularity);
                let b = Int1Matrix::from_host_padded(&b_host, granularity);
                assert_eq!(a.k_padded(), k.next_multiple_of(granularity));
                let reference = reference_gemm(&a.to_host(), &b.to_host()).unwrap();
                assert_eq!(bits(&per_element_gemm(&a, &b)), bits(&reference));
                assert_every_int1_path_gives(&a, &b_host, granularity, &reference);
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
            let granularity = GemmInput::DEFAULT_INT1_K_GRANULARITY;
            let a = Int1Matrix::from_host_padded(&host, granularity);
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
            // The same rows as `B`: the view of the `K × 4` block.
            let b = HostComplexMatrix::from_fn(k, rows.len(), |c, r| rows[r](c)).transposed();
            assert_every_int1_path_gives(&a, &b, granularity, &reference);
        }
    }

    #[test]
    fn operands_too_long_for_the_accumulator_are_a_typed_error() {
        let largest = (i32::MAX / 2) as usize;
        assert_eq!(int1_output_bound(1, largest), Ok(2));
        assert_eq!(int1_output_bound(0, 0), Ok(0));
        for k_padded in [largest + 1, usize::MAX / 2, usize::MAX] {
            let error = int1_output_bound(1, k_padded).unwrap_err();
            assert!(matches!(error, TcbfError::ShapeMismatch { .. }), "{error}");
            assert!(error.to_string().contains("32-bit accumulator"), "{error}");
        }
    }

    #[test]
    fn outputs_f32_cannot_hold_exactly_are_a_typed_error() {
        // |output| ≤ 2·K, and 2²⁴ is the last integer before f32 skips one.
        assert_eq!(int1_output_bound(524_288, 524_288), Ok(1 << 20));
        assert_eq!(int1_output_bound(1 << 23, 1 << 23), Ok(1 << 24));
        assert_ne!(((1 << 24) + 1) as f32 as i32, (1 << 24) + 1);
        for k_padded in [(1 << 23) + 1, (1 << 23) + 256] {
            let error = int1_output_bound((1 << 23) + 1, k_padded).unwrap_err();
            assert!(matches!(error, TcbfError::ShapeMismatch { .. }), "{error}");
            assert!(error.to_string().contains("exact in f32"), "{error}");
        }
    }

    #[test]
    fn gemm_dispatch_rejects_mixed_precision() {
        let block = HostComplexMatrix::zeros(32, 4);
        let f = GemmInput::quantise_f16(&block.transposed());
        let b = GemmInput::quantise_int1(&block.transposed());
        assert!(matches!(
            gemm_dispatch_prepared(&f.prepare(), &b, BitOp::Xor),
            Err(TcbfError::PrecisionMismatch { .. })
        ));
        assert!(gemm_dispatch_prepared(&f.prepare(), &f, BitOp::Xor).is_ok());
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
    fn prepared_paths_are_bit_identical_to_the_direct_path() {
        let a_host = pseudo_random_matrix(13, 300, 21, 1.0);
        let b_host = pseudo_random_matrix(300, 9, 22, 1.0).transposed();
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
            // The kernels on the detected path, building `A`'s preparation
            // per call.
            let direct = match (&a, &b) {
                (GemmInput::F16(a), GemmInput::F16(b)) => gemm_f16_on(Isa::detected(), a, b),
                (GemmInput::Int1(a), GemmInput::Int1(b)) => gemm_int1_on(Isa::detected(), a, b),
                _ => unreachable!("both operands share a precision"),
            }
            .unwrap();
            let prepared = gemm_dispatch_prepared(&a.prepare(), &b, BitOp::Xor).unwrap();
            assert_eq!(direct, prepared);
        }
    }

    #[test]
    fn the_parallel_decodes_and_repacks_match_a_per_element_loop_bit_for_bit() {
        use crate::matrix::tests::{arbitrary_bits_matrix, f16_view, prologue_shapes};
        use tcbf_types::f16;
        let word = |at: usize, salt: usize| gpu_sim::fault::splitmix64((at * 2 + salt) as u64);
        for (n, k) in prologue_shapes() {
            // Every binary16 bit pattern, NaN payloads and −0.0 among them.
            let plane = |salt| (0..n * k).map(move |at| f16::from_bits(word(at, salt) as u16));
            let a = F16Matrix::from_planes(n, k, plane(0).collect(), plane(1).collect()).unwrap();
            let bits = |plane: &[f16]| plane.iter().map(|h| h.to_f32().to_bits()).collect();
            let to_bits = |plane: &[f32]| plane.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();

            let decoded = DecodedPlanes::from_f16(&a);
            assert_eq!((decoded.rows(), decoded.cols()), (n, k));
            let expected: Vec<u32> = bits(a.re());
            assert_eq!(to_bits(decoded.re()), expected, "{n}x{k} re");
            let expected: Vec<u32> = bits(a.im());
            assert_eq!(to_bits(decoded.im()), expected, "{n}x{k} im");

            // The same planes as a `B` stores them: the `K × N` block.
            assert_panels_match_their_definition(&f16_view(
                n,
                k,
                plane(0).collect(),
                plane(1).collect(),
            ));

            // Arbitrary sign bits, padded to the kernel's granularity.
            let block = arbitrary_bits_matrix(k, n, (n * 8191 + k) as u64);
            assert_int1_panels_match_their_definition(
                &block,
                GemmInput::DEFAULT_INT1_K_GRANULARITY,
            );
        }

        // The GEMM outputs, where a store is easiest to lose: no `K` to pass
        // over or a single step of it, whole and ragged last vectors of
        // columns at every lane width, whole and ragged tiles of rows — on
        // every path.
        for (lanes, k) in [4, 8, 16].into_iter().flat_map(|l| [(l, 0), (l, 1)]) {
            for n in [lanes, lanes + 1, 2 * lanes - 1, 2 * lanes] {
                for m in [1, 3, 4, 9, 33] {
                    let a_host = arbitrary_bits_matrix(m, k, (m * 64 + n) as u64);
                    let b_host =
                        arbitrary_bits_matrix(k, n, (n * 64 + m) as u64 ^ 0xB).transposed();
                    let (a, b) = (F16Matrix::from_host(&a_host), F16Matrix::from_host(&b_host));
                    assert_every_f16_path_gives(&a, &b, &four_chain_gemm(&a, &b));
                    let a = Int1Matrix::from_host(&a_host);
                    let b = Int1Matrix::from_host(&b_host);
                    let expected = per_element_gemm(&a, &b);
                    assert_every_int1_path_gives(&a, &b_host, Int1Matrix::WORD_BITS, &expected);
                }
            }
        }
    }

    /// `B`'s f16 column panels from the portable instance at every lane
    /// width and from every path at its own, against their per-element
    /// definition `panel[g][k][l] = Bᵀ[g·L + l][k]` — the real part in lanes
    /// `0..L` of a step, the imaginary part in `L..2L`, zero past `N` —
    /// read through `get`.
    fn assert_panels_match_their_definition(b_t: &F16Matrix) {
        let (n, k) = (b_t.rows(), b_t.cols());
        let planes = b_t.columns().expect("a B operand is a quantised view");
        let portable = [4, 8, 16].map(|lanes| (Isa::PORTABLE, lanes));
        let every_path = Isa::available()
            .into_iter()
            .map(|isa| (isa, isa.f16_lanes()));
        for (isa, lanes) in portable.into_iter().chain(every_path) {
            let definition = |at: usize| {
                let (g, kk, l) = (at / (2 * lanes * k), at / (2 * lanes) % k, at % (2 * lanes));
                let j = g * lanes + l % lanes;
                let value = if j < n {
                    b_t.get(j, kk)
                } else {
                    Complex32::ZERO
                };
                if l < lanes { value.re } else { value.im }.to_bits()
            };
            let expected: Vec<u32> = (0..n.next_multiple_of(lanes) * 2 * k)
                .map(definition)
                .collect();
            let panels = f16_column_panels(isa, planes, (n, k), lanes);
            let bits: Vec<u32> = panels.iter().map(|v| v.to_bits()).collect();
            // Not `assert_eq!`: a failing 16 × 65 536 case would print 8 MiB.
            assert!(bits == expected, "{n}x{k} in panels of {lanes} on {isa}");
        }
    }

    /// The 1-bit `B` of the `K × N` `block` — its view quantised at
    /// `granularity` on every path — against its per-element definition:
    /// word `w` of bit-row `j` of the row-major quantisation of the
    /// element-wise transpose, `re ⊕ im` in the first panel and `im` in the
    /// second, at word `(j / L · stride + w) · L + j mod L` for the path's
    /// `L` lanes, every other word zero; and equal, by `==`, to that
    /// row-major quantisation.
    fn assert_int1_panels_match_their_definition(block: &HostComplexMatrix, granularity: usize) {
        let (k, n) = (block.rows(), block.cols());
        let by_element = HostComplexMatrix::from_fn(n, k, |j, kk| block.get(kk, j));
        let rows = Int1Matrix::from_host_padded(&by_element, granularity);
        let stride = rows.words_per_row();
        let (re, im) = (rows.re_words(), rows.im_words());
        let q: Vec<u64> = re.iter().zip(im).map(|(re, im)| re ^ im).collect();
        for isa in Isa::available() {
            let lanes = isa.int1_lanes();
            let expected = [&q[..], im].map(|plane| {
                let mut panel = vec![0u64; n.next_multiple_of(lanes) * stride];
                for (j, w) in (0..n).flat_map(|j| (0..stride).map(move |w| (j, w))) {
                    panel[((j / lanes) * stride + w) * lanes + j % lanes] = plane[j * stride + w];
                }
                panel
            });
            let view = Int1Matrix::from_host_padded_on(isa, &block.transposed(), granularity);
            let shape = format!("{k}x{n} / {granularity} {isa}");
            let (packed, panels) = view.panels().expect("a view is packed into panels");
            assert_eq!(packed, lanes, "{shape}");
            assert!(*panels[0] == expected[0][..], "{shape}: re ⊕ im");
            assert!(*panels[1] == expected[1][..], "{shape}: im");
            assert_eq!(view, rows, "{shape}");
        }
    }

    #[test]
    fn every_binary16_pattern_reaches_the_panels_bit_for_bit_on_every_path() {
        // Sixteen columns of the output — one whole group of the AVX-512
        // instance — each holding every bit pattern once, rotated from
        // column to column, in both planes: subnormals, ±0, ±∞ and NaNs
        // quiet and signalling, stored as a view is (`K × N`).
        use crate::matrix::tests::f16_view;
        let (n, k) = (16, 1 << 16);
        let pattern =
            |j: usize, kk: usize, salt: usize| f16::from_bits((j * 4099 + kk + salt) as u16);
        let column_major = |salt| (0..n * k).map(|at| pattern(at % n, at / n, salt)).collect();
        let view = f16_view(n, k, column_major(0), column_major(7));
        for j in [0, 5, 15] {
            assert_eq!(
                view.get(j, 3).re.to_bits(),
                pattern(j, 3, 0).to_f32().to_bits()
            );
        }
        assert_panels_match_their_definition(&view);
    }

    #[test]
    fn the_panels_of_a_view_match_their_definition_and_give_the_four_chain_gemm() {
        // `K` and `N` on and either side of one and two AVX-512 groups, and
        // a whole 256 × 256 block, with hostile values and arbitrary bits.
        use crate::matrix::tests::{arbitrary_bits_matrix, hostile_matrix};
        const DIMS: [usize; 7] = [0, 1, 15, 16, 17, 33, 256];
        for k in DIMS {
            for n in DIMS {
                let seed = (k * 1000 + n) as u64;
                for block in [hostile_matrix(k, n), arbitrary_bits_matrix(k, n, seed)] {
                    let view = F16Matrix::from_host(&block.transposed());
                    assert_panels_match_their_definition(&view);
                    let a = F16Matrix::from_host(&arbitrary_bits_matrix(5, k, seed ^ 0xA));
                    assert_every_f16_path_gives(&a, &view, &four_chain_gemm(&a, &view));
                }
            }
        }
    }

    #[test]
    fn every_bit_past_the_valid_samples_is_zero_at_any_granularity_and_xor_equals_and() {
        // The planes are not cleared before they are packed, so the padding
        // of Eq. 5, the slack of a row's last word and whole padding words
        // (a granularity above 64) are zero only because the packing pass
        // stored them — and the kernel counts over whole words, so its
        // constant `2·K` is the whole Eq. 5 correction only if they are.
        use crate::matrix::tests::arbitrary_bits_matrix;
        for granularity in [1, 33, 64, 100, 256, 1024] {
            for k in [0, 1, 63, 64, 65, 257] {
                let (m, n) = (5, 9);
                let seed = (granularity * 1000 + k) as u64;
                let a =
                    Int1Matrix::from_host_padded(&arbitrary_bits_matrix(m, k, seed), granularity);
                let block = arbitrary_bits_matrix(k, n, seed ^ 0xABCD);
                let b = Int1Matrix::from_host_padded(&block.transposed(), granularity);
                assert_eq!(a.k_padded(), k.max(1).next_multiple_of(granularity));
                for (matrix, rows) in [(&a, m), (&b, n)] {
                    let stride = matrix.words_per_row();
                    assert_eq!(matrix.re_words().len(), rows * stride);
                    for plane in [matrix.re_words(), matrix.im_words()] {
                        for (r, row) in plane.chunks_exact(stride).enumerate() {
                            for (w, &word) in row.iter().enumerate() {
                                let valid = k.saturating_sub(64 * w).min(64);
                                let past = word.checked_shr(valid as u32).unwrap_or(0);
                                assert_eq!(past, 0, "{k}/{granularity}: row {r}, word {w}");
                            }
                        }
                    }
                }
                // `B`'s panels word for word, the rows past `N` included.
                assert_int1_panels_match_their_definition(&block, granularity);
                // Both formulations' definitions and every path alike.
                let expected = per_element_gemm(&a, &b);
                assert_every_int1_path_gives(&a, &block.transposed(), granularity, &expected);
            }
        }
    }

    #[test]
    fn the_panels_of_a_packed_view_match_their_definition_on_every_path() {
        // The one pass from a view's buffer into `B`'s panels against its
        // per-element definition, either side of the 64 × 64 bit block on
        // each axis, more bands than a block has lanes, every granularity;
        // NaN payloads, ±0.0, ±∞ and subnormals, and arbitrary bits.
        use crate::matrix::tests::{arbitrary_bits_matrix, hostile_matrix};
        const DIMS: [usize; 7] = [0, 1, 63, 64, 65, 129, 300];
        let shapes = DIMS.into_iter().flat_map(|k| DIMS.map(|n| (k, n)));
        for (k, n) in shapes.chain([(65, 600), (300, 513)]) {
            let seed = (k * 1000 + n) as u64;
            for block in [hostile_matrix(k, n), arbitrary_bits_matrix(k, n, seed)] {
                for granularity in [0, 1, 32, 64, 100, 256, 512] {
                    assert_int1_panels_match_their_definition(&block, granularity);
                }
            }
        }
    }

    #[test]
    fn a_row_major_or_lane_mismatched_b_is_a_typed_error_on_every_entry_point() {
        // A `B` in any layout but the quantised view of its `K × N` block,
        // packed for the running path: a `ShapeMismatch` that says what to
        // quantise, never a panic and never a result.
        use tcbf_types::GemmShape;
        let (m, n, k) = (9, 37, 300);
        let a_host = pseudo_random_matrix(m, k, 0xA, 1.0);
        let block = pseudo_random_matrix(k, n, 0xB, 1.0);
        let row_major = HostComplexMatrix::from_fn(n, k, |j, kk| block.get(kk, j));
        let refused = |result: Result<ComplexOutput>, what: &str| {
            let error = result.expect_err(what);
            assert!(
                matches!(error, TcbfError::ShapeMismatch { .. }),
                "{what}: {error}"
            );
            assert!(
                error.to_string().contains("transposed() view"),
                "{what}: {error}"
            );
            error.to_string()
        };
        let device = gpu_sim::Gpu::A100.device();
        for precision in [Precision::Float16, Precision::Int1] {
            let quantise = |host: &HostComplexMatrix| match precision {
                Precision::Int1 => GemmInput::quantise_int1(host),
                _ => GemmInput::quantise_f16(host),
            };
            let gemm = crate::Gemm::new(&device, GemmShape::new(m, n, k), precision).unwrap();
            let (a, view) = (quantise(&a_host), quantise(&block.transposed()));
            let wrong = quantise(&row_major);
            // The view runs; the row-major quantisation of the same block
            // holds the same values and runs nowhere.
            let (expected, _) = gemm.run(&a, &view).unwrap();
            let run = |b: &GemmInput| gemm.run(&a, b).map(|(out, _)| out);
            let prepared = |b: &GemmInput| gemm.run_prepared(&a.prepare(), b).map(|(out, _)| out);
            let message = refused(run(&wrong), "Gemm::run");
            assert!(message.contains("row-major"), "{message}");
            refused(prepared(&wrong), "Gemm::run_prepared");
            refused(
                gemm_dispatch_prepared(&a.prepare(), &wrong, BitOp::Xor),
                "gemm_dispatch_prepared",
            );
            for isa in Isa::available() {
                match (&a, &view, &wrong) {
                    (GemmInput::F16(a), GemmInput::F16(view), GemmInput::F16(wrong)) => {
                        assert_eq!(view, wrong);
                        assert_eq!(gemm_f16_on(isa, a, view).unwrap(), expected);
                        refused(gemm_f16_on(isa, a, wrong), "gemm_f16_on");
                    }
                    (GemmInput::Int1(a), _, GemmInput::Int1(wrong)) => {
                        let view = Int1Matrix::from_host_padded_on(isa, &block.transposed(), 256);
                        assert_eq!(&view, wrong);
                        assert_eq!(gemm_int1_on(isa, a, &view).unwrap(), expected);
                        refused(gemm_int1_on(isa, a, wrong), "gemm_int1_on");
                    }
                    _ => unreachable!("both operands are quantised to {precision}"),
                }
            }
        }

        // A 1-bit view packed on one path and run on another whose kernel
        // has another lane count (portable 4, AVX-512 8).
        let a = Int1Matrix::from_host_padded(&a_host, 256);
        let detected = Isa::detected();
        let available = Isa::available();
        for (&packed_on, &run_on) in available
            .iter()
            .flat_map(|p| available.iter().map(move |r| (p, r)))
        {
            let b = Int1Matrix::from_host_padded_on(packed_on, &block.transposed(), 256);
            let mismatched = packed_on.int1_lanes() != run_on.int1_lanes();
            let result = gemm_int1_on(run_on, &a, &b);
            if mismatched {
                let message = refused(result, "gemm_int1_on");
                assert!(message.contains("lanes"), "{message}");
            } else {
                assert_eq!(bits(&result.unwrap()), bits(&per_element_gemm(&a, &b)));
            }
            if packed_on.int1_lanes() != detected.int1_lanes() {
                let (a, b) = (GemmInput::Int1(a.clone()), GemmInput::Int1(b));
                let gemm = crate::Gemm::new(&device, GemmShape::new(m, n, k), Precision::Int1);
                let run = gemm.unwrap().run(&a, &b).map(|(out, _)| out);
                refused(run, "Gemm::run, lanes");
                let prepared = gemm_dispatch_prepared(&a.prepare(), &b, BitOp::And);
                refused(prepared, "gemm_dispatch_prepared, lanes");
            }
        }
    }

    #[test]
    fn the_prepared_quadrant_plane_is_re_xor_im_and_zero_past_the_samples() {
        use crate::matrix::tests::arbitrary_bits_matrix;
        for granularity in [1, 32, 33, 256] {
            for k in [1, 63, 64, 65, 300] {
                let host = arbitrary_bits_matrix(5, k, (granularity * 1000 + k) as u64);
                let a = Int1Matrix::from_host_padded(&host, granularity);
                let prepared = PreparedOperand::new(GemmInput::Int1(a.clone()));
                let Preparation::Quadrant(plane) = prepared.prepared() else {
                    panic!("a 1-bit operand is prepared with its quadrant plane");
                };
                assert!(prepared.decoded().is_none());
                let definition: Vec<u64> = a
                    .re_words()
                    .iter()
                    .zip(a.im_words())
                    .map(|(re, im)| re ^ im)
                    .collect();
                assert_eq!(plane, &definition, "{k}/{granularity}");
                let stride = a.words_per_row();
                for (r, row) in plane.chunks_exact(stride).enumerate() {
                    for (w, &word) in row.iter().enumerate() {
                        let valid = k.saturating_sub(64 * w).min(64);
                        let past = word.checked_shr(valid as u32).unwrap_or(0);
                        assert_eq!(past, 0, "{k}/{granularity}: row {r}, word {w}");
                    }
                }
                // The plane a direct call builds is the same function's.
                assert_eq!(&int1_quadrant_plane(&a), plane);
            }
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
            let b_host = exact_integer_matrix(k, n, seed ^ 0x5A5A).transposed();
            let (a, b) = (F16Matrix::from_host(&a_host), F16Matrix::from_host(&b_host));
            let result = gemm_f16_on(Isa::detected(), &a, &b).unwrap();
            let reference = reference_gemm(&a_host, &b_host).unwrap();
            prop_assert_eq!(result, reference);
        }

        #[test]
        fn every_path_is_bit_identical_to_the_detected_one(
            m in 1usize..8, n in 1usize..8, k in 1usize..600, seed in any::<u64>(),
        ) {
            // Arbitrary inputs: an f16 output is four `mul_add` chains in
            // ascending k whatever the tile, a 1-bit output an exact
            // integer, so every path must agree with the detected one.
            let a_host = pseudo_random_matrix(m, k, seed, 1.0);
            let b_host = pseudo_random_matrix(k, n, seed ^ 0x33CC, 1.0).transposed();
            let a = F16Matrix::from_host(&a_host);
            let b = F16Matrix::from_host(&b_host);
            let f16_default = gemm_f16_on(Isa::detected(), &a, &b).unwrap();
            for isa in Isa::available() {
                let on_path = gemm_f16_on(isa, &a, &b).unwrap();
                prop_assert_eq!(bits(&on_path), bits(&f16_default), "f16 on {}", isa);
            }
            let ai = Int1Matrix::from_host_padded(&a_host, 128);
            let bi = Int1Matrix::from_host_padded(&b_host, 128);
            let int1_default = gemm_int1_on(Isa::detected(), &ai, &bi).unwrap();
            for isa in Isa::available() {
                let bi = Int1Matrix::from_host_padded_on(isa, &b_host, 128);
                let on_path = gemm_int1_on(isa, &ai, &bi).unwrap();
                prop_assert_eq!(&on_path, &int1_default, "int1 on {}", isa);
            }
        }

        #[test]
        fn int1_gemm_equals_reference_for_random_shapes(
            m in 1usize..8, n in 1usize..8, k in 1usize..150, seed in any::<u64>(),
        ) {
            let a_host = pseudo_random_matrix(m, k, seed, 1.0);
            let b_host = pseudo_random_matrix(k, n, seed ^ 0xABCD, 1.0).transposed();
            let a = Int1Matrix::from_host_padded(&a_host, 128);
            let b = Int1Matrix::from_host_padded(&b_host, 128);
            let reference = reference_gemm(&a.to_host(), &b.to_host()).unwrap();
            let result = gemm_int1_on(Isa::detected(), &a, &b).unwrap();
            prop_assert!(result.max_abs_diff(&reference) < 0.5);
        }

        #[test]
        fn f16_gemm_linear_in_scalar(
            m in 1usize..6, n in 1usize..6, k in 1usize..32, seed in any::<u64>(),
        ) {
            // (2A)·B ≈ 2·(A·B) up to half-precision rounding.
            let a_host = pseudo_random_matrix(m, k, seed, 1.0);
            let b_host = pseudo_random_matrix(k, n, seed ^ 0x1111, 1.0).transposed();
            let a2_host = HostComplexMatrix::from_fn(m, k, |r, c| a_host.get(r, c).scale(2.0));
            let b = F16Matrix::from_host(&b_host);
            let c1 = gemm_f16_on(Isa::detected(), &F16Matrix::from_host(&a_host), &b).unwrap();
            let c2 = gemm_f16_on(Isa::detected(), &F16Matrix::from_host(&a2_host), &b).unwrap();
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
