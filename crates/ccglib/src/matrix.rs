//! Host- and device-side complex matrix containers.
//!
//! ccglib distinguishes three representations:
//!
//! * [`HostComplexMatrix`] — the user-facing container: full-precision
//!   complex values, read and written in row-major order.  This is what
//!   application code produces (beam weights, receiver samples) and
//!   consumes (beamformed output).  Its samples live in a shared buffer,
//!   and [`HostComplexMatrix::transposed`] is a column-major *view* of the
//!   same buffer, not a copy: both quantisers read a view's buffer in the
//!   order it is stored, and everything else reads it through
//!   [`HostComplexMatrix::data`], which materialises the row-major copy
//!   once.
//! * [`F16Matrix`] — the 16-bit device format: separate (planar) real and
//!   imaginary planes of binary16 values.  A row-major one is a GEMM's
//!   `A`; quantised from a view, its planes keep the view's column-major
//!   order — the `K × N` block — and it is a GEMM's `B`, whose panels the
//!   f16 GEMM builds from it directly.
//! * [`Int1Matrix`] — the 1-bit device format: real and imaginary bit
//!   planes packed along the reduction dimension, the output of the packing
//!   kernel, held as two flat `u64` buffers with a row stride.  A row-major
//!   one is a GEMM's `A`; quantised from a view, it is a GEMM's `B`, stored
//!   as the 1-bit kernel of the quantising path reads it: the `re ⊕ im` and
//!   `im` column panels, packed in one pass over the block.
//!
//! The stages that build one of these whole — a view's
//! [`HostComplexMatrix::data`], [`F16Matrix::from_host`],
//! [`Int1Matrix::from_host_padded`] — write their
//! destination exactly once: it is allocated, not cleared, and handed to the
//! parallel pass as `&mut [MaybeUninit<_>]` (the crate's private `write_once`
//! helper), so the thread that fills a band is the first to touch it.  Every
//! zero such a buffer holds — the padding and slack of a bit-row, the rows
//! that fill up a panel group, a matrix without samples — is therefore
//! stored by that pass, and a debug build fails the call that leaves an
//! element unwritten.
//! [`HostComplexMatrix::zeros`] stays a zero-fill: there the zeros are the
//! value.

use crate::error::{Result, TcbfError};
use crate::isa::{prologue_on, Isa, Prologue};
use crate::write_once::{write_once, write_once_pair};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::mem::MaybeUninit;
use std::sync::{Arc, OnceLock};
use tcbf_types::matrix::round_up;
use tcbf_types::{encode_from_f32, f16, Complex, Complex32, PackedBits};

/// Tile edge of the transpose behind a view's [`HostComplexMatrix::data`],
/// in elements: 32 rows of 256 B each.  A band of rows is one work item.
const TRANSPOSE_TILE: usize = 32;

/// Scalars per parallel work item of the stages that convert a plane
/// element by element ([`F16Matrix::from_host`], the decode behind
/// [`crate::gemm::DecodedPlanes`]): a few microseconds of work, and a whole
/// number of the bulk encoder's chunks.
pub(crate) const PLANE_ITEM: usize = 4096;

/// Samples per parallel work item of [`Int1Matrix::from_host_padded`], which
/// deals whole rows (of a view, the stored runs of whole words of `K`):
/// 256 KiB of source.
const PACK_ITEM_SAMPLES: usize = 32 * 1024;

/// The order in which a [`HostComplexMatrix`]'s buffer, or an
/// [`F16Matrix`]'s planes, hold the values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Layout {
    /// Row after row: how every matrix is built.
    RowMajor,
    /// Column after column: a [`HostComplexMatrix::transposed`] view of a
    /// row-major buffer, and what [`F16Matrix::from_host`] makes of one.
    ColumnMajor,
}

impl Layout {
    /// The other order: a transposed matrix's.
    fn flipped(self) -> Self {
        match self {
            Layout::RowMajor => Layout::ColumnMajor,
            Layout::ColumnMajor => Layout::RowMajor,
        }
    }
}

/// A host-side complex matrix, read and written in row-major order.
///
/// Cloning or transposing one shares its buffer; [`set`](Self::set) copies
/// the buffer first when another matrix shares it.
#[derive(Clone, Serialize, Deserialize)]
pub struct HostComplexMatrix {
    rows: usize,
    cols: usize,
    layout: Layout,
    samples: Arc<Vec<Complex32>>,
    /// The row-major copy of a column-major matrix, built by the first
    /// [`data`](Self::data).
    row_major: OnceLock<Vec<Complex32>>,
}

impl HostComplexMatrix {
    fn row_major(rows: usize, cols: usize, data: Vec<Complex32>) -> Self {
        HostComplexMatrix {
            rows,
            cols,
            layout: Layout::RowMajor,
            samples: Arc::new(data),
            row_major: OnceLock::new(),
        }
    }

    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::row_major(rows, cols, vec![Complex32::ZERO; rows * cols])
    }

    /// Creates a matrix from a generator function over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self::row_major(rows, cols, data)
    }

    /// Creates a matrix from row-major data.
    pub fn from_data(rows: usize, cols: usize, data: Vec<Complex32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TcbfError::ShapeMismatch {
                expected: format!("{rows}x{cols} = {} elements", rows * cols),
                actual: format!("{} elements", data.len()),
            });
        }
        Ok(Self::row_major(rows, cols, data))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Complex32 {
        match self.layout {
            Layout::RowMajor => self.samples[row * self.cols + col],
            Layout::ColumnMajor => self.samples[col * self.rows + row],
        }
    }

    /// Mutable element access.  A view is made row-major first, and a
    /// buffer another matrix shares is copied first.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: Complex32) {
        if self.layout == Layout::ColumnMajor {
            let data = self.row_major.take().unwrap_or_else(|| self.materialise());
            *self = Self::row_major(self.rows, self.cols, data);
        }
        Arc::make_mut(&mut self.samples)[row * self.cols + col] = value;
    }

    /// The underlying row-major data.  Of a [`transposed`](Self::transposed)
    /// view, the first call builds the row-major copy and keeps it.  No
    /// stage of a GEMM calls it: both quantisers read a view's buffer as it
    /// is stored.
    pub fn data(&self) -> &[Complex32] {
        match self.layout {
            Layout::RowMajor => &self.samples,
            Layout::ColumnMajor => self.row_major.get_or_init(|| self.materialise()),
        }
    }

    /// The buffer of a column-major view — column after column, each
    /// `rows` samples long — or `None` for a row-major matrix.
    pub(crate) fn columns(&self) -> Option<&[Complex32]> {
        (self.layout == Layout::ColumnMajor).then_some(&self.samples[..])
    }

    /// Returns the transposed matrix in O(1): a view that shares this
    /// matrix's buffer and reads it column-major, so
    /// `m.transposed().transposed()` is `m` again.  The view of a `K × N`
    /// block, quantised, is a GEMM's `B` operand — its one layout.  No
    /// sample moves until something asks for the view's row-major
    /// [`data`](Self::data); the two quantisers never do.
    pub fn transposed(&self) -> HostComplexMatrix {
        HostComplexMatrix {
            rows: self.cols,
            cols: self.rows,
            layout: self.layout.flipped(),
            samples: Arc::clone(&self.samples),
            row_major: OnceLock::new(),
        }
    }

    /// The row-major samples of a column-major view.
    ///
    /// An element-wise gather walks a column of a `rows × cols` matrix at
    /// a stride of `8·cols` bytes, which for the power-of-two widths of
    /// real blocks revisits a handful of cache sets and evicts every line
    /// after one use.  The copy is therefore blocked into
    /// `TRANSPOSE_TILE`-square tiles: each tile's source lines stay
    /// resident while all of their elements are consumed, and every
    /// destination run is written contiguously.  A band of
    /// `TRANSPOSE_TILE` destination rows is one parallel work item, and
    /// the thread that copies a band is the first to touch it: the
    /// destination is written once, not cleared first.
    fn materialise(&self) -> Vec<Complex32> {
        // The buffer, row-major: a `cols × rows` matrix.
        let shape @ (rows, _) = (self.cols, self.rows);
        write_once(self.rows * self.cols, |data| {
            data.par_chunks_mut((TRANSPOSE_TILE * rows).max(1))
                .enumerate()
                .for_each(|(item, band)| {
                    transpose_band(&self.samples, shape, item * TRANSPOSE_TILE, band)
                });
        })
    }

    /// Maximum absolute difference to another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &HostComplexMatrix) -> f32 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f32, f32::max)
    }
}

/// Two matrices are equal when they have the same shape and the same
/// values in the same places, whichever order their buffers hold them in.
impl PartialEq for HostComplexMatrix {
    fn eq(&self, other: &Self) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols)
            && if self.layout == other.layout {
                self.samples == other.samples
            } else {
                self.data() == other.data()
            }
    }
}

impl std::fmt::Debug for HostComplexMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostComplexMatrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("data", &self.data())
            .finish()
    }
}

/// Planar binary16 device matrix: the input format of the float16 tensor
/// core GEMM kernel.
///
/// Like a [`HostComplexMatrix`], its planes hold the values row after row
/// — a GEMM's `A` — or, quantised from a
/// [`transposed`](HostComplexMatrix::transposed) view, column after column,
/// in the order the view's buffer holds them: a GEMM's `B`, which takes no
/// other layout.  [`get`](Self::get), `==` and `Clone` read through the
/// layout; [`re`](Self::re) and [`im`](Self::im) are row-major, and of a
/// column-major matrix the first call gathers both planes once and keeps
/// them.
#[derive(Clone, Debug)]
pub struct F16Matrix {
    rows: usize,
    cols: usize,
    layout: Layout,
    re: Vec<f16>,
    im: Vec<f16>,
    /// The row-major planes of a column-major matrix, built by the first
    /// [`re`](Self::re) or [`im`](Self::im).
    row_major: OnceLock<[Vec<f16>; 2]>,
}

impl F16Matrix {
    fn row_major(rows: usize, cols: usize, re: Vec<f16>, im: Vec<f16>) -> Self {
        F16Matrix {
            rows,
            cols,
            layout: Layout::RowMajor,
            re,
            im,
            row_major: OnceLock::new(),
        }
    }

    /// Quantises a host matrix to binary16, splitting it into planes, on
    /// the fastest path the host has ([`Isa::detected`]).
    pub fn from_host(host: &HostComplexMatrix) -> Self {
        Self::from_host_on(Isa::detected(), host)
    }

    /// [`from_host`](Self::from_host) on `isa`.  A view's buffer is encoded
    /// in the order it is stored, into column-major planes: one sequential
    /// pass, no sample moved.
    pub(crate) fn from_host_on(isa: Isa, host: &HostComplexMatrix) -> Self {
        let (src, layout) = match host.columns() {
            Some(columns) => (columns, Layout::ColumnMajor),
            None => (host.data(), Layout::RowMajor),
        };
        let planes = Self::encode(host.rows(), host.cols(), src, |src, re, im| {
            prologue_on(isa, Prologue::Encode { src, re, im });
        });
        F16Matrix { layout, ..planes }
    }

    /// Quantises `rows × cols` row-major elements to binary16 planes;
    /// `item` encodes one run of [`PLANE_ITEM`] elements into both planes
    /// of it, which is one parallel work item.
    pub(crate) fn encode<T: Sync>(
        rows: usize,
        cols: usize,
        src: &[T],
        item: impl Fn(&[T], &mut [MaybeUninit<f16>], &mut [MaybeUninit<f16>]) + Sync,
    ) -> Self {
        assert_eq!(src.len(), rows * cols);
        let [re, im] = write_once_pair(src.len(), |re, im| {
            re.par_chunks_mut(PLANE_ITEM)
                .zip(im.par_chunks_mut(PLANE_ITEM))
                .enumerate()
                .for_each(|(at, (re, im))| item(&src[at * PLANE_ITEM..][..re.len()], re, im));
        });
        Self::row_major(rows, cols, re, im)
    }

    /// Builds a row-major matrix directly from its planes.
    pub fn from_planes(rows: usize, cols: usize, re: Vec<f16>, im: Vec<f16>) -> Result<Self> {
        if re.len() != rows * cols || im.len() != rows * cols {
            return Err(TcbfError::ShapeMismatch {
                expected: format!("{} scalars per plane", rows * cols),
                actual: format!("re={}, im={}", re.len(), im.len()),
            });
        }
        Ok(Self::row_major(rows, cols, re, im))
    }

    /// The transposed matrix in O(1), like
    /// [`HostComplexMatrix::transposed`]: the same planes, read in the
    /// other order.  A quantised view's planes are its block's, row-major.
    pub fn transposed(self) -> Self {
        F16Matrix {
            rows: self.cols,
            cols: self.rows,
            layout: self.layout.flipped(),
            row_major: OnceLock::new(),
            ..self
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }
    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }
    /// Real plane, row-major.
    pub fn re(&self) -> &[f16] {
        self.planes()[0]
    }
    /// Imaginary plane, row-major.
    pub fn im(&self) -> &[f16] {
        self.planes()[1]
    }

    /// Both planes, row-major.
    fn planes(&self) -> [&[f16]; 2] {
        match self.layout {
            Layout::RowMajor => [&self.re, &self.im],
            Layout::ColumnMajor => self
                .row_major
                .get_or_init(|| {
                    // Row-major element `i` is stored at `(i mod cols)·rows + i / cols`.
                    let (rows, cols) = (self.rows, self.cols);
                    let at = |i: usize| i % cols * rows + i / cols;
                    [&self.re, &self.im]
                        .map(|plane| (0..rows * cols).map(|i| plane[at(i)]).collect())
                })
                .each_ref()
                .map(Vec::as_slice),
        }
    }

    /// Both planes of a column-major matrix as they are stored — column
    /// after column, each `rows` values long — or `None` for a row-major
    /// one.
    pub(crate) fn columns(&self) -> Option<[&[f16]; 2]> {
        (self.layout == Layout::ColumnMajor).then_some([&self.re, &self.im])
    }

    /// Element access, widening to single precision.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Complex32 {
        let idx = match self.layout {
            Layout::RowMajor => row * self.cols + col,
            Layout::ColumnMajor => col * self.rows + row,
        };
        Complex::new(self.re[idx].to_f32(), self.im[idx].to_f32())
    }

    /// Converts back to a host matrix (exact: binary16 ⊂ binary32).
    pub fn to_host(&self) -> HostComplexMatrix {
        HostComplexMatrix::from_fn(self.rows, self.cols, |r, c| self.get(r, c))
    }

    /// Device-memory footprint in bytes (two planes of 2-byte scalars).
    pub fn device_bytes(&self) -> u128 {
        4 * (self.rows as u128) * (self.cols as u128)
    }
}

/// Two matrices are equal when they have the same shape and equal values
/// (binary16 `==`) in the same places, whichever order their planes hold
/// them in.
impl PartialEq for F16Matrix {
    fn eq(&self, other: &Self) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols)
            && if self.layout == other.layout {
                (&self.re, &self.im) == (&other.re, &other.im)
            } else {
                self.planes() == other.planes()
            }
    }
}

/// A destination element a stage stores into: a write-once slot or a
/// plain value.
pub(crate) trait Slot<T> {
    fn put(&mut self, value: T);
}

impl<T> Slot<T> for MaybeUninit<T> {
    fn put(&mut self, value: T) {
        self.write(value);
    }
}

impl<T> Slot<T> for T {
    fn put(&mut self, value: T) {
        *self = value;
    }
}

/// One band of the transpose behind a view's [`HostComplexMatrix::data`]:
/// from `src`, `rows × cols` row-major, into the destination rows of `band`
/// (source columns `c0..`), a tile of `TRANSPOSE_TILE` source rows at a
/// time.
fn transpose_band(
    src: &[Complex32],
    (rows, cols): (usize, usize),
    c0: usize,
    band: &mut [MaybeUninit<Complex32>],
) {
    for r0 in (0..rows).step_by(TRANSPOSE_TILE) {
        let part = r0..(r0 + TRANSPOSE_TILE).min(rows);
        for (c, row) in (c0..).zip(band.chunks_exact_mut(rows)) {
            for (r, slot) in part.clone().zip(&mut row[part.clone()]) {
                slot.write(src[r * cols + c]);
            }
        }
    }
}

/// The sign bits (`>= 0` is 1) of up to 32 samples' real and imaginary
/// parts, first sample in the least-significant bit.
fn sign_bits(samples: &[Complex32]) -> (u32, u32) {
    let (mut re, mut im) = (0u32, 0u32);
    for (i, v) in samples.iter().enumerate() {
        re |= u32::from(v.re >= 0.0) << i;
        im |= u32::from(v.im >= 0.0) << i;
    }
    (re, im)
}

/// The sign words of one row's samples, 64 to a word, the slack of a last
/// partial word binary 0: the definition behind [`Int1Matrix::from_host`].
pub(crate) fn sign_words(row: &[Complex32], re: &mut [impl Slot<u64>], im: &mut [impl Slot<u64>]) {
    for ((chunk, re_word), im_word) in row.chunks(64).zip(re).zip(im) {
        let (low, high) = chunk.split_at(chunk.len().min(32));
        let (re_low, im_low) = sign_bits(low);
        let (re_high, im_high) = sign_bits(high);
        re_word.put(u64::from(re_low) | u64::from(re_high) << 32);
        im_word.put(u64::from(im_low) | u64::from(im_high) << 32);
    }
}

/// Both binary16 planes of a run of samples, `f16::from_f32` bit for bit:
/// the definition behind [`F16Matrix::from_host`].
pub(crate) fn encode_planes(
    src: &[Complex32],
    re: &mut [MaybeUninit<f16>],
    im: &mut [MaybeUninit<f16>],
) {
    encode_from_f32(src, |v| v.re, re);
    encode_from_f32(src, |v| v.im, im);
}

/// Packed 1-bit device matrix: `rows` bit-rows of `k_bits` samples packed
/// along the reduction dimension, one plane per complex component.
///
/// Both operands of the 1-bit GEMM use this orientation: `A` as `M×K` and
/// `B` transposed to `N×K`, so each output element is a dot product of two
/// bit-rows — exactly how the binary tensor-core fragments consume data.
///
/// A row of a plane is `k_padded.div_ceil(64)` `u64` words, least-significant
/// bit first.  Every bit past a row's valid samples is zero: the padding up
/// to `k_padded` (binary 0 is the paper's padding value, decimal −1) and the
/// slack between `k_padded` and the end of the row's last word alike, so
/// whole-word population counts need no mask.
///
/// Quantised from a row-major matrix — a GEMM's `A` — the planes are stored
/// row after row.  Quantised from a
/// [`transposed`](HostComplexMatrix::transposed) view of a `K × N` block —
/// a GEMM's `B`, which takes no other layout — they are stored the way the
/// quantising path's 1-bit kernel reads `B`: as its column panels,
/// `re ⊕ im` and `im`, for that path's lane count.
/// [`re_row`](Self::re_row), [`im_row`](Self::im_row),
/// [`to_host`](Self::to_host), `==` and `Clone` read through the layout; of
/// panels, the first row read builds the row-major planes once and keeps
/// them.
#[derive(Clone, Serialize, Deserialize)]
pub struct Int1Matrix {
    rows: usize,
    /// Number of valid (unpadded) samples along the packed dimension.
    k_bits: usize,
    /// Number of samples after padding to the packing granularity.
    k_padded: usize,
    layout: BitLayout,
    /// Both planes, stored as `layout` says.
    words: [Vec<u64>; 2],
    /// The row-major planes of a matrix stored in panels, built by the
    /// first row read.
    row_major: OnceLock<[Vec<u64>; 2]>,
}

/// The order in which an [`Int1Matrix`]'s words are stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BitLayout {
    /// The real plane, then the imaginary one, each row after row: how
    /// every row-major matrix is packed, `A` among them.
    Rows,
    /// `B`'s column panels for the 1-bit kernel instance of `lanes` lanes:
    /// `re ⊕ im`, then `im`, the rows in groups of `lanes` (the last group
    /// filled up with all-zero rows), word `w` of a group's rows side by
    /// side.
    Panels { lanes: usize },
}

impl Int1Matrix {
    /// Packing granularity in bits of the device format: 32 samples per
    /// word (Section III of the paper).
    pub(crate) const WORD_BITS: usize = 32;

    /// Quantises a host matrix (`rows × k`) to 1-bit by keeping component
    /// signs, padding the packed dimension to a whole number of words with
    /// binary 0 (decimal −1) as the paper prescribes.
    pub fn from_host(host: &HostComplexMatrix) -> Self {
        Self::from_host_padded(host, Self::WORD_BITS)
    }

    /// Quantises and pads the packed dimension up to a multiple of
    /// `k_granularity` bits (e.g. the tensor-core fragment depth), so the
    /// K<sub>pad</sub> correction of Eq. 5 can be exercised explicitly.
    /// Any granularity is accepted (zero counts as one).  Runs on the
    /// fastest path the host has ([`Isa::detected`]).
    pub fn from_host_padded(host: &HostComplexMatrix, k_granularity: usize) -> Self {
        Self::from_host_padded_on(Isa::detected(), host, k_granularity)
    }

    /// [`from_host_padded`](Self::from_host_padded) on `isa`.  A view is
    /// packed straight into the column panels of `isa`'s 1-bit kernel, in
    /// one pass over its buffer in the order it is stored.
    pub(crate) fn from_host_padded_on(
        isa: Isa,
        host: &HostComplexMatrix,
        k_granularity: usize,
    ) -> Self {
        let rows = host.rows();
        let k_bits = host.cols();
        let k_padded = round_up(k_bits.max(1), k_granularity.max(1));
        let stride = k_padded.div_ceil(64);
        let (layout, words) = match host.columns() {
            Some(columns) => {
                let lanes = isa.int1_lanes();
                let panels = pack_panels(isa, columns, rows, lanes, stride);
                (BitLayout::Panels { lanes }, panels)
            }
            None => (BitLayout::Rows, pack_rows(isa, host, stride)),
        };
        Int1Matrix {
            rows,
            k_bits,
            k_padded,
            layout,
            words,
            row_major: OnceLock::new(),
        }
    }

    /// Number of bit-rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Valid samples per row (the logical `K`).
    pub(crate) fn k_bits(&self) -> usize {
        self.k_bits
    }

    /// Samples per row after padding.
    pub fn k_padded(&self) -> usize {
        self.k_padded
    }

    /// Amount of padding along the packed dimension (the `K_pad` of Eq. 5).
    pub fn k_padding(&self) -> usize {
        self.k_padded - self.k_bits
    }

    /// Row stride of both planes in `u64` words.
    pub(crate) fn words_per_row(&self) -> usize {
        self.k_padded.div_ceil(64)
    }

    /// Both planes, row-major.
    fn planes(&self) -> &[Vec<u64>; 2] {
        match self.layout {
            BitLayout::Rows => &self.words,
            BitLayout::Panels { lanes } => self.row_major.get_or_init(|| {
                rows_of_panels(&self.words, lanes, self.rows, self.words_per_row())
            }),
        }
    }

    /// `B`'s column panels as stored — `re ⊕ im`, then `im` — with the lane
    /// count of the kernel instance they were packed for, or `None` for a
    /// row-major matrix.
    pub(crate) fn panels(&self) -> Option<(usize, [&[u64]; 2])> {
        match self.layout {
            BitLayout::Rows => None,
            BitLayout::Panels { lanes } => Some((lanes, self.words.each_ref().map(|p| &p[..]))),
        }
    }

    /// The whole real plane, `rows × words_per_row` words, row-major.
    pub(crate) fn re_words(&self) -> &[u64] {
        &self.planes()[0]
    }

    /// The whole imaginary plane, laid out like the real one.
    pub(crate) fn im_words(&self) -> &[u64] {
        &self.planes()[1]
    }

    /// Real bit plane of one row.
    pub fn re_row(&self, row: usize) -> BitRow<'_> {
        self.row_of(self.re_words(), row)
    }

    /// Imaginary bit plane of one row.
    pub fn im_row(&self, row: usize) -> BitRow<'_> {
        self.row_of(self.im_words(), row)
    }

    fn row_of<'a>(&self, plane: &'a [u64], row: usize) -> BitRow<'a> {
        let stride = self.words_per_row();
        BitRow {
            words: &plane[row * stride..(row + 1) * stride],
            len: self.k_padded,
        }
    }

    /// Decodes back to ±1-valued complex numbers (only the valid samples).
    pub fn to_host(&self) -> HostComplexMatrix {
        let decode = |row: BitRow<'_>, c| if row.get(c) { 1.0 } else { -1.0 };
        HostComplexMatrix::from_fn(self.rows, self.k_bits, |r, c| {
            Complex::new(decode(self.re_row(r), c), decode(self.im_row(r), c))
        })
    }

    /// Device-memory footprint in bytes (two bit planes of `k_padded`
    /// samples per row).
    pub fn device_bytes(&self) -> u128 {
        2 * (self.rows as u128) * (self.k_padded as u128).div_ceil(8)
    }
}

/// Two matrices are equal when they have the same shape and the same bits
/// in the same places, whichever layout stores them.
impl PartialEq for Int1Matrix {
    fn eq(&self, other: &Self) -> bool {
        let shape = |m: &Self| (m.rows, m.k_bits, m.k_padded);
        shape(self) == shape(other)
            && if self.layout == other.layout {
                self.words == other.words
            } else {
                self.planes() == other.planes()
            }
    }
}

impl std::fmt::Debug for Int1Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Int1Matrix")
            .field("rows", &self.rows)
            .field("k_bits", &self.k_bits)
            .field("k_padded", &self.k_padded)
            .field("re", &self.re_words())
            .field("im", &self.im_words())
            .finish()
    }
}

/// The row-major sign planes of a row-major matrix, `stride` words a row.
/// Every word of both planes is written exactly once.  A word that holds
/// valid samples is assembled in registers — one write per 64 samples, the
/// slack of a row's last such word left binary 0 — and the words past them
/// (Eq. 5 padding, whole padding words of a granularity above 64) are
/// stored as zeros by the same pass: the planes are not cleared first, so
/// no zero is the allocator's.  A group of whole rows — both planes of it —
/// is one parallel work item.
fn pack_rows(isa: Isa, host: &HostComplexMatrix, stride: usize) -> [Vec<u64>; 2] {
    let k_bits = host.cols();
    write_once_pair(host.rows() * stride, |re, im| {
        if k_bits == 0 {
            // A matrix without samples is all padding.
            re.fill(MaybeUninit::new(0));
            im.fill(MaybeUninit::new(0));
            return;
        }
        let sample_words = k_bits.div_ceil(64);
        let group = PACK_ITEM_SAMPLES.div_ceil(k_bits);
        re.par_chunks_mut(group * stride)
            .zip(im.par_chunks_mut(group * stride))
            .enumerate()
            .for_each(|(item, (re_rows, im_rows))| {
                let source = host.data()[item * group * k_bits..].chunks_exact(k_bits);
                let planes = re_rows
                    .chunks_exact_mut(stride)
                    .zip(im_rows.chunks_exact_mut(stride));
                for (row, (re_row, im_row)) in source.zip(planes) {
                    let (re, re_padding) = re_row.split_at_mut(sample_words);
                    let (im, im_padding) = im_row.split_at_mut(sample_words);
                    prologue_on(isa, Prologue::Signs { row, re, im });
                    re_padding.fill(MaybeUninit::new(0));
                    im_padding.fill(MaybeUninit::new(0));
                }
            });
    })
}

/// A run of words of both column panels of one group of bit-rows: the
/// `re ⊕ im` panel's, then the `im` panel's, `lanes` words per word of `K`.
pub(crate) type PanelRun<'d> = [&'d mut [MaybeUninit<u64>]; 2];

/// `B`'s column panels for the kernel instance of `lanes` lanes, packed
/// straight from a view's buffer: `columns` is the `K × N` block, one
/// stored run of `n` samples per `k`, and a row of a panel is `stride`
/// words.
///
/// Word `w` of every bit-row comes from the 64 runs `64·w ..` alone, so a
/// work item is the runs of a few consecutive words — one contiguous stretch
/// of the block, at least [`PACK_ITEM_SAMPLES`] samples where `K` has them —
/// and stores those words of every group: its destination is strided, so
/// its slices are dealt out beside it.  The words past the runs (Eq. 5
/// padding) and the rows past `n` are stored as zeros by the same pass: the
/// panels are written once.
fn pack_panels(
    isa: Isa,
    columns: &[Complex32],
    n: usize,
    lanes: usize,
    stride: usize,
) -> [Vec<u64>; 2] {
    let groups = n.div_ceil(lanes);
    let item_words = PACK_ITEM_SAMPLES.div_ceil(64 * n.max(1)).min(stride);
    let items = stride.div_ceil(item_words);
    write_once_pair(groups * lanes * stride, |q, im| {
        let run = item_words * lanes;
        let mut per_group: Vec<_> = q
            .chunks_exact_mut(lanes * stride)
            .zip(im.chunks_exact_mut(lanes * stride))
            .map(|(q, im)| (q.chunks_mut(run), im.chunks_mut(run)))
            .collect();
        // Item after item, the same run of every group.
        let mut runs: Vec<PanelRun<'_>> = Vec::with_capacity(items * groups);
        for _ in 0..items {
            runs.extend(per_group.iter_mut().map(|(q, im)| {
                [q.next(), im.next()].map(|words| words.expect("a run of words per item"))
            }));
        }
        let item_samples = 64 * item_words * n;
        runs.par_chunks_mut(groups.max(1))
            .enumerate()
            .for_each(|(item, groups)| {
                let runs = columns.get(item * item_samples..).unwrap_or_default();
                let runs = &runs[..runs.len().min(item_samples)];
                let item = Prologue::Panels {
                    runs,
                    n,
                    lanes,
                    groups,
                };
                prologue_on(isa, item);
            });
    })
}

/// One work item of [`pack_panels`], `L` 64 × 64 bit blocks at a time, one
/// per lane of a `[[u64; L]; 64]`: the bands of 64 bit-rows of a word of
/// `K`, and of as many consecutive words as the lanes have room for.  Row
/// `r` of a lane holds the sign word of run `64·w + r`'s samples of the
/// lane's band (the `Signs` step, by `signs`, into words instead of slots);
/// the six swap rounds of [`transpose_bits`] make it word `w` of bit-row
/// `64·band + r`, stored at the row's slot in its group — `re ⊕ im`, then
/// `im`.  The runs are read in the order they are stored.  Rows past `n`
/// come out of the runs' zero slack, words past the runs out of the
/// block's zeros.
#[inline(always)]
pub(crate) fn panel_words<const L: usize>(
    runs: &[Complex32],
    n: usize,
    lanes: usize,
    groups: &mut [PanelRun<'_>],
    signs: impl Fn(&[Complex32], &mut [u64], &mut [u64]),
) {
    let words = groups.first().map_or(0, |[q, _]| q.len() / lanes);
    let bands = n.div_ceil(64);
    // A block's lanes: `per_run` bands of each of `at_once` words.
    let per_run = bands.clamp(1, L);
    let at_once = L / per_run;
    for w0 in (0..words).step_by(at_once) {
        let chunk = runs.get(64 * w0 * n..).unwrap_or_default();
        let chunk = &chunk[..chunk.len().min(64 * at_once * n)];
        for b0 in (0..bands).step_by(per_run) {
            let (mut re, mut im) = ([[0u64; L]; 64], [[0u64; L]; 64]);
            let samples = 64 * b0..n.min(64 * (b0 + per_run));
            for (c, run) in chunk.chunks_exact(n).enumerate() {
                let (r, lane) = (c % 64, c / 64 * per_run);
                let (re, im) = (&mut re[r][lane..][..per_run], &mut im[r][lane..][..per_run]);
                signs(&run[samples.clone()], re, im);
            }
            transpose_bits(&mut re);
            transpose_bits(&mut im);
            for lane in 0..L {
                let (w, band) = (w0 + lane / per_run, b0 + lane % per_run);
                if w >= words || band >= bands {
                    continue;
                }
                let band_groups = groups[64 * band / lanes..].iter_mut().take(64 / lanes);
                for (g, [q_words, im_words]) in band_groups.enumerate() {
                    let slots = q_words[w * lanes..]
                        .iter_mut()
                        .zip(&mut im_words[w * lanes..]);
                    for (r, (q_slot, im_slot)) in (g * lanes..).zip(slots.take(lanes)) {
                        q_slot.write(re[r][lane] ^ im[r][lane]);
                        im_slot.write(im[r][lane]);
                    }
                }
            }
        }
    }
}

/// The row-major planes of `B`'s column panels: row `j`'s word `w` is word
/// `(j / lanes · stride + w) · lanes + j mod lanes` of each panel, and the
/// real plane is `re ⊕ im ⊕ im`.
fn rows_of_panels(
    [q, im]: &[Vec<u64>; 2],
    lanes: usize,
    rows: usize,
    stride: usize,
) -> [Vec<u64>; 2] {
    let at = |i: usize| {
        let (j, w) = (i / stride, i % stride);
        (j / lanes * stride + w) * lanes + j % lanes
    };
    [
        (0..rows * stride).map(|i| q[at(i)] ^ im[at(i)]).collect(),
        (0..rows * stride).map(|i| im[at(i)]).collect(),
    ]
}

/// Transposes `L` 64 × 64 bit matrices in place at once — of lane `l`, row
/// `i` is `block[i][l]` and column `j` its bit `j` — by six rounds of block
/// swaps: the round of width `h` exchanges, inside every `2h`-square block,
/// the top-right and the bottom-left `h`-square quarters, in every lane.
#[inline(always)]
fn transpose_bits<const L: usize>(block: &mut [[u64; L]; 64]) {
    let (mut width, mut mask) = (32, 0x0000_0000_FFFF_FFFF_u64);
    while width > 0 {
        for pair in block.chunks_exact_mut(2 * width) {
            let (top, bottom) = pair.split_at_mut(width);
            for (t, b) in top.iter_mut().zip(bottom) {
                for (t, b) in t.iter_mut().zip(b) {
                    let swap = ((*t >> width) ^ *b) & mask;
                    *t ^= swap << width;
                    *b ^= swap;
                }
            }
        }
        width /= 2;
        mask ^= mask << width;
    }
}

/// One row of one [`Int1Matrix`] plane, borrowed: `len` samples (the
/// matrix's `k_padded`) in `len.div_ceil(64)` words, slack bits zero.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct BitRow<'a> {
    words: &'a [u64],
    len: usize,
}

impl<'a> BitRow<'a> {
    /// Number of samples in the row, padding included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the row holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words, 64 samples each, least-significant bit first.
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Reads the sample at `index`.
    ///
    /// # Panics
    /// Panics if `index` is not below [`BitRow::len`].
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// The row as 32-bit device words, low half of each host word first.
    fn halves(&self) -> impl Iterator<Item = u32> + 'a {
        self.words
            .iter()
            .flat_map(|&w| [w as u32, (w >> 32) as u32])
    }

    /// The row in the device's 32-bit word format.
    pub(crate) fn to_packed_bits(self) -> PackedBits {
        let words = self.halves().take(self.len.div_ceil(32)).collect();
        PackedBits::from_words(words, self.len)
    }
}

impl std::fmt::Debug for BitRow<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.to_packed_bits(), f)
    }
}

/// A row equals a [`PackedBits`] plane when both hold the same samples in
/// the same words: the 32-bit halves are compared one for one, slack
/// included, so a row with a dirty slack bit equals no plane.
impl PartialEq<&PackedBits> for BitRow<'_> {
    fn eq(&self, other: &&PackedBits) -> bool {
        let mut halves = self.halves();
        self.len == other.len()
            && other.words().iter().all(|&w| halves.next() == Some(w))
            && halves.all(|slack| slack == 0)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn host_matrix_roundtrip_and_indexing() {
        let m = HostComplexMatrix::from_fn(3, 4, |r, c| Complex::new(r as f32, c as f32));
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.get(2, 3), Complex::new(2.0, 3.0));
        let t = m.transposed();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.get(3, 2), Complex::new(2.0, 3.0));
        assert_eq!(m.transposed().transposed(), m);
    }

    /// Every bit pattern, NaNs and −0.0 included, so equality must be on bits.
    pub(crate) fn arbitrary_bits_matrix(rows: usize, cols: usize, seed: u64) -> HostComplexMatrix {
        let mut counter = seed;
        let mut next = move || {
            counter = counter.wrapping_add(1);
            f32::from_bits(gpu_sim::fault::splitmix64(counter) as u32)
        };
        HostComplexMatrix::from_fn(rows, cols, |_, _| Complex::new(next(), next()))
    }

    fn bits(m: &HostComplexMatrix) -> Vec<(u32, u32)> {
        let of = |v: &Complex32| (v.re.to_bits(), v.im.to_bits());
        m.data().iter().map(of).collect()
    }

    /// The transpose of `m`, row-major, one element at a time.
    fn transpose_by_element(m: &HostComplexMatrix) -> HostComplexMatrix {
        HostComplexMatrix::from_fn(m.cols(), m.rows(), |r, c| m.get(c, r))
    }

    /// A view's materialised `data()` against the element-wise copy, and
    /// the view of that copy's back.
    fn assert_transposed_matches_its_definition(m: &HostComplexMatrix) {
        let t = m.transposed();
        assert_eq!((t.rows(), t.cols()), (m.cols(), m.rows()));
        let shape = format!("{}x{}", m.rows(), m.cols());
        assert_eq!(bits(&t), bits(&transpose_by_element(m)), "{shape}");
        let copy = HostComplexMatrix::from_data(t.rows(), t.cols(), t.data().to_vec()).unwrap();
        let back = copy.transposed();
        assert_eq!((back.rows(), back.cols()), (m.rows(), m.cols()));
        assert_eq!(bits(&back), bits(m), "{shape} back");
    }

    /// Every path's binary16 planes against `f16::from_f32` on every scalar.
    fn assert_f16_planes_match_from_f32(host: &HostComplexMatrix) {
        for isa in Isa::available() {
            let planes = F16Matrix::from_host_on(isa, host);
            assert_eq!((planes.rows(), planes.cols()), (host.rows(), host.cols()));
            let encoded = planes.re().iter().zip(planes.im());
            for (at, (v, (re, im))) in host.data().iter().zip(encoded).enumerate() {
                let expected = (f16::from_f32(v.re).to_bits(), f16::from_f32(v.im).to_bits());
                assert_eq!((re.to_bits(), im.to_bits()), expected, "{isa} at {at}");
            }
        }
    }

    /// Every path's sign words against `v >= 0.0` on every sample, padding
    /// and slack zero.
    fn assert_sign_words_match_their_definition(host: &HostComplexMatrix, granularity: usize) {
        let (rows, cols) = (host.rows(), host.cols());
        for isa in Isa::available() {
            let packed = Int1Matrix::from_host_padded_on(isa, host, granularity);
            let stride = packed.words_per_row();
            assert_eq!(packed.k_padded(), cols.max(1).next_multiple_of(granularity));
            let mut re = vec![0u64; rows * stride];
            let mut im = vec![0u64; rows * stride];
            for r in 0..rows {
                for c in 0..cols {
                    let v = host.get(r, c);
                    re[r * stride + c / 64] |= u64::from(v.re >= 0.0) << (c % 64);
                    im[r * stride + c / 64] |= u64::from(v.im >= 0.0) << (c % 64);
                }
            }
            assert_eq!(packed.re_words(), re, "{rows}x{cols} / {granularity} {isa}");
            assert_eq!(packed.im_words(), im, "{rows}x{cols} / {granularity} {isa}");
        }
    }

    #[test]
    fn transposed_matches_its_definition_at_every_tile_edge() {
        // 0-sized, 1×N, N×1, a few short ragged sides and tile−1 / tile /
        // tile+1 on each axis, for one and two tiles.
        let t = TRANSPOSE_TILE;
        let edges = [
            0,
            1,
            2,
            7,
            8,
            9,
            t - 1,
            t,
            t + 1,
            2 * t - 1,
            2 * t,
            2 * t + 1,
        ];
        for rows in edges {
            for cols in edges {
                let seed = (rows * 1000 + cols) as u64;
                assert_transposed_matches_its_definition(&arbitrary_bits_matrix(rows, cols, seed));
            }
        }
    }

    /// Shapes of the parallel-prologue tests: rows and columns on and either
    /// side of every band, row-group and work-item size, multiples of 8
    /// that are not of the tile and ragged ones, up to
    /// a whole `fewbeam_int1` block's worth of elements.
    pub(crate) fn prologue_shapes() -> impl Iterator<Item = (usize, usize)> {
        const DIMS: [usize; 11] = [0, 1, 9, 17, 31, 32, 33, 40, 255, 257, 2048];
        DIMS.into_iter()
            .flat_map(|rows| DIMS.map(|cols| (rows, cols)))
            .filter(|(rows, cols)| rows * cols <= 2048 * 257)
    }

    #[test]
    fn the_parallel_prologue_matches_a_per_element_loop_bit_for_bit() {
        for (rows, cols) in prologue_shapes() {
            let host = arbitrary_bits_matrix(rows, cols, (rows * 4099 + cols) as u64);
            assert_transposed_matches_its_definition(&host);
            assert_f16_planes_match_from_f32(&host);
            for granularity in [1, 32, 33, 256] {
                assert_sign_words_match_their_definition(&host, granularity);
            }
        }
    }

    /// NaN payloads of both signs, quiet and signalling; ±0 and ±∞; binary32
    /// subnormals; values that round to binary16 subnormals or to zero; the
    /// largest binary16, the last value below its overflow, the overflow;
    /// round-to-nearest-even ties either way — cycled through a ragged
    /// matrix, so every one sits in whole register blocks and in tails.
    pub(crate) fn hostile_matrix(rows: usize, cols: usize) -> HostComplexMatrix {
        let hostile = [
            f32::from_bits(0x7FC0_0000),
            f32::from_bits(0xFFC0_1234),
            f32::from_bits(0x7F80_0001),
            f32::from_bits(0xFFBF_FFFF),
            f32::from_bits(0x7FA5_5A5A),
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            f32::from_bits(0x807F_FFFF),
            3.0e-5,
            -1.0e-7,
            2.0f32.powi(-25),
            65504.0,
            65519.99,
            65520.0,
            -65520.0,
            1.0 + 2.0f32.powi(-11),
            1.0 + 3.0 * 2.0f32.powi(-11),
            -1.5,
        ];
        let pick = |at: usize| hostile[at % hostile.len()];
        HostComplexMatrix::from_fn(rows, cols, |r, c| {
            let at = r * cols + c;
            Complex::new(pick(at), pick(7 * at + 3))
        })
    }

    #[test]
    fn transposed_copies_hostile_values_bit_for_bit_on_every_path() {
        assert_transposed_matches_its_definition(&hostile_matrix(37, 150));
    }

    #[test]
    fn quantise_f16_gives_from_f32_on_hostile_values_on_every_path() {
        assert_f16_planes_match_from_f32(&hostile_matrix(37, 150));
    }

    #[test]
    fn quantise_int1_gives_the_sign_definition_on_hostile_values_on_every_path() {
        assert_sign_words_match_their_definition(&hostile_matrix(37, 150), 256);
    }

    #[test]
    fn quantise_f16_gives_from_f32_on_a_million_arbitrary_bit_patterns() {
        assert_f16_planes_match_from_f32(&arbitrary_bits_matrix(1024, 512, 0xF16));
    }

    #[test]
    fn transposed_matches_its_definition_on_the_fewbeam_block() {
        assert_transposed_matches_its_definition(&crate::synth::pseudo_random_matrix(
            2048, 256, 14, 1.0,
        ));
    }

    #[test]
    fn a_view_reads_as_the_eager_transpose() {
        for (rows, cols) in [(0, 5), (5, 0), (1, 1), (7, 9), (33, 65)] {
            let m = crate::synth::pseudo_random_matrix(rows, cols, (rows * 100 + cols) as u64, 1.0);
            let (view, eager) = (m.transposed(), transpose_by_element(&m));
            assert_eq!((view.rows(), view.cols()), (cols, rows));
            for r in 0..cols {
                for c in 0..rows {
                    assert_eq!(view.get(r, c), eager.get(r, c), "{rows}x{cols} at {r},{c}");
                }
            }
            assert_eq!(bits(&view), bits(&eager), "{rows}x{cols}");
            assert_eq!(view, eager);
            assert_eq!(eager, view);
            assert_eq!(view.max_abs_diff(&eager), 0.0);
            // No sample moved: the view and its transpose share `m`'s buffer.
            let back = view.transposed();
            assert!(Arc::ptr_eq(&back.samples, &m.samples) && back.layout == Layout::RowMajor);
            assert_eq!(back, m);
            assert_eq!(format!("{view:?}"), format!("{eager:?}"));
        }
    }

    #[test]
    fn set_copies_a_shared_buffer_and_materialises_a_view_first() {
        let m = crate::synth::pseudo_random_matrix(6, 4, 0x5E7, 1.0);
        let value = Complex::new(7.0, -7.0);
        let mut copy = m.clone();
        copy.set(1, 2, value);
        assert_eq!(copy.get(1, 2), value);
        assert_ne!(m.get(1, 2), value);
        assert!(!Arc::ptr_eq(&copy.samples, &m.samples));

        let mut view = m.transposed();
        let before = view.data().to_vec();
        view.set(2, 1, value);
        assert_eq!(view.layout, Layout::RowMajor);
        let mut expected = before;
        expected[2 * view.cols() + 1] = value;
        assert_eq!(view.data(), expected);
        assert_ne!(m.get(1, 2), value);
    }

    #[test]
    fn quantise_int1_of_a_view_equals_that_of_the_eager_transpose() {
        // Both sides of the 64 × 64 bit block on each axis; NaN payloads,
        // ±0.0, ±∞ and subnormals in every block (NaN packs as 0, −0.0 as
        // 1, as `v >= 0.0` says) and arbitrary bit patterns.
        const DIMS: [usize; 8] = [0, 1, 3, 63, 64, 65, 129, 300];
        for k in DIMS {
            for n in DIMS {
                let seed = (k * 1000 + n) as u64;
                for block in [hostile_matrix(k, n), arbitrary_bits_matrix(k, n, seed)] {
                    let view = block.transposed();
                    let eager = transpose_by_element(&block);
                    for isa in Isa::available() {
                        for granularity in [0, 1, 32, 64, 100, 256, 512] {
                            assert_eq!(
                                Int1Matrix::from_host_padded_on(isa, &view, granularity),
                                Int1Matrix::from_host_padded_on(isa, &eager, granularity),
                                "{k}x{n} / {granularity} {isa}"
                            );
                        }
                    }
                    assert_sign_words_match_their_definition(&view, 100);
                    assert!(view.row_major.get().is_none(), "{k}x{n} materialised");
                }
            }
        }
    }

    #[test]
    fn a_packed_view_reads_through_its_panels() {
        // `re_row`, `im_row`, `to_host`, `==`, `Clone` and `Debug` of a view
        // stored in panels against the row-major quantisation of the eager
        // transpose; the row-major planes are built by the first row read.
        for (k, n) in [(1, 1), (65, 9), (300, 129)] {
            let block = arbitrary_bits_matrix(k, n, (k * 1000 + n) as u64);
            for isa in Isa::available() {
                let view = Int1Matrix::from_host_padded_on(isa, &block.transposed(), 256);
                let rows = Int1Matrix::from_host_padded_on(isa, &transpose_by_element(&block), 256);
                let lanes = isa.int1_lanes();
                assert_eq!(
                    (view.layout, rows.layout),
                    (BitLayout::Panels { lanes }, BitLayout::Rows)
                );
                assert_eq!(
                    view.words[0].len(),
                    n.next_multiple_of(lanes) * view.words_per_row()
                );
                assert!(
                    view.clone() == view && view.row_major.get().is_none(),
                    "{k}x{n} {isa}"
                );
                for r in 0..n {
                    assert_eq!(view.re_row(r), rows.re_row(r), "{k}x{n} {isa}: re row {r}");
                    assert_eq!(view.im_row(r), rows.im_row(r), "{k}x{n} {isa}: im row {r}");
                }
                assert!(view.row_major.get().is_some());
                assert_eq!(
                    bits(&view.to_host()),
                    bits(&rows.to_host()),
                    "{k}x{n} {isa}"
                );
                assert_eq!(view, rows);
                assert_eq!(rows, view);
                assert_eq!(view.clone(), rows);
                assert_eq!(format!("{view:?}"), format!("{rows:?}"));
                // One sample's sign flipped in a panel is another matrix.
                let mut other = Int1Matrix::from_host_padded_on(isa, &block.transposed(), 256);
                other.words[1][0] ^= 1;
                assert_ne!(other, view, "{k}x{n} {isa}");
                assert_ne!(other, rows, "{k}x{n} {isa}");
                assert_ne!(other.im_row(0), rows.im_row(0));
            }
        }
    }

    /// The `rows × cols` binary16 matrix whose planes hold, column after
    /// column, `re` and `im` — a quantised view's layout.
    pub(crate) fn f16_view(rows: usize, cols: usize, re: Vec<f16>, im: Vec<f16>) -> F16Matrix {
        F16Matrix::from_planes(cols, rows, re, im)
            .unwrap()
            .transposed()
    }

    fn f16_bits(plane: &[f16]) -> Vec<u16> {
        plane.iter().map(|h| h.to_bits()).collect()
    }

    /// `K`, `N` on and either side of the AVX-512 instance's 16 lanes and
    /// of two of them, and a whole 256 × 256 block.
    const F16_VIEW_DIMS: [usize; 7] = [0, 1, 15, 16, 17, 33, 256];

    #[test]
    fn an_f16_view_reads_as_the_quantised_eager_transpose() {
        for k in F16_VIEW_DIMS {
            for n in F16_VIEW_DIMS {
                let block = crate::synth::pseudo_random_matrix(k, n, (k * 1000 + n) as u64, 1.0);
                for isa in Isa::available() {
                    let view = F16Matrix::from_host_on(isa, &block.transposed());
                    let eager = F16Matrix::from_host(&transpose_by_element(&block));
                    assert_eq!(view.layout, Layout::ColumnMajor);
                    assert_eq!((view.rows(), view.cols()), (n, k));
                    for (r, c) in (0..n).flat_map(|r| (0..k).map(move |c| (r, c))) {
                        let (v, e) = (view.get(r, c), eager.get(r, c));
                        let pair = |x: Complex32| (x.re.to_bits(), x.im.to_bits());
                        assert_eq!(pair(v), pair(e), "{k}x{n} {isa} at {r},{c}");
                    }
                    assert_eq!(f16_bits(view.re()), f16_bits(eager.re()), "{k}x{n} {isa}");
                    assert_eq!(f16_bits(view.im()), f16_bits(eager.im()), "{k}x{n} {isa}");
                    assert_eq!(view, eager);
                    assert_eq!(eager, view);
                    assert_eq!(view.clone(), view);
                    assert_eq!(bits(&view.to_host()), bits(&eager.to_host()), "{k}x{n}");
                    if k * n > 1 {
                        let mut other = F16Matrix::from_host_on(isa, &block.transposed());
                        other.re[0] = f16::from_f32(other.re[0].to_f32() + 1.0);
                        assert_ne!(other, eager, "{k}x{n} {isa}");
                    }
                }
            }
        }
    }

    #[test]
    fn an_f16_view_transposed_is_its_block_quantised_and_back_again() {
        for k in F16_VIEW_DIMS {
            for n in F16_VIEW_DIMS {
                let block = crate::synth::pseudo_random_matrix(k, n, (k * 1000 + n) as u64, 1.0);
                let view = F16Matrix::from_host(&block.transposed());
                // The view's planes as stored are the block's, row-major.
                let stored = view.clone().transposed();
                let direct = F16Matrix::from_host(&block);
                assert_eq!(
                    (stored.layout, stored.rows(), stored.cols()),
                    (Layout::RowMajor, k, n)
                );
                assert_eq!(f16_bits(stored.re()), f16_bits(direct.re()), "{k}x{n}");
                assert_eq!(f16_bits(stored.im()), f16_bits(direct.im()), "{k}x{n}");
                // Flipped back, the same operand: layout, shape and planes.
                let back = stored.transposed();
                assert_eq!((back.layout, back.rows(), back.cols()), (view.layout, n, k));
                assert_eq!(
                    (f16_bits(&back.re), f16_bits(&back.im)),
                    (f16_bits(&view.re), f16_bits(&view.im))
                );
            }
        }
    }

    #[test]
    fn quantise_f16_of_a_view_equals_that_of_the_eager_transpose() {
        // NaN payloads, ±0.0, ±∞, binary32 subnormals and values that round
        // to binary16 subnormals or overflow in every run, and arbitrary bit
        // patterns.
        for k in F16_VIEW_DIMS {
            for n in F16_VIEW_DIMS {
                let seed = (k * 1000 + n) as u64;
                for block in [hostile_matrix(k, n), arbitrary_bits_matrix(k, n, seed)] {
                    let view = block.transposed();
                    for isa in Isa::available() {
                        let of_view = F16Matrix::from_host_on(isa, &view);
                        let eager = F16Matrix::from_host_on(isa, &transpose_by_element(&block));
                        assert!(of_view.columns().is_some() && eager.columns().is_none());
                        let stored = |m: &F16Matrix| [f16_bits(&m.re), f16_bits(&m.im)];
                        assert_eq!(stored(&of_view), stored(&f16_view_of(&eager)), "{k}x{n}");
                        assert_eq!(
                            f16_bits(of_view.re()),
                            f16_bits(eager.re()),
                            "{k}x{n} {isa}"
                        );
                        assert_eq!(
                            f16_bits(of_view.im()),
                            f16_bits(eager.im()),
                            "{k}x{n} {isa}"
                        );
                    }
                    assert!(view.row_major.get().is_none(), "{k}x{n} materialised");
                    assert_f16_planes_match_from_f32(&view);
                }
            }
        }
    }

    /// The column-major planes of a row-major matrix, by element.
    fn f16_view_of(m: &F16Matrix) -> F16Matrix {
        let (rows, cols) = (m.rows(), m.cols());
        let column_major = |plane: &[f16]| -> Vec<f16> {
            (0..rows * cols)
                .map(|at| plane[at % rows * cols + at / rows])
                .collect()
        };
        f16_view(rows, cols, column_major(m.re()), column_major(m.im()))
    }

    #[test]
    fn transpose_bits_moves_bit_j_of_word_i_to_bit_i_of_word_j() {
        // Every lane is a matrix of its own: a lane that took another's
        // bits, or a round of the wrong width, moves some bit elsewhere.
        fn check<const L: usize>() {
            let mut block = [[0u64; L]; 64];
            for (i, words) in block.iter_mut().enumerate() {
                for (l, word) in words.iter_mut().enumerate() {
                    *word = gpu_sim::fault::splitmix64((64 * l + i) as u64);
                }
            }
            let original = block;
            transpose_bits(&mut block);
            for l in 0..L {
                for (i, row) in original.iter().enumerate() {
                    for (j, column) in block.iter().enumerate() {
                        assert_eq!(
                            column[l] >> i & 1,
                            row[l] >> j & 1,
                            "{L} lanes: {l}: {i},{j}"
                        );
                    }
                }
            }
        }
        check::<1>();
        check::<4>();
        check::<8>();
    }

    #[test]
    fn from_data_validates_length() {
        assert!(HostComplexMatrix::from_data(2, 2, vec![Complex32::ZERO; 4]).is_ok());
        assert!(HostComplexMatrix::from_data(2, 2, vec![Complex32::ZERO; 3]).is_err());
    }

    #[test]
    fn f16_matrix_quantises_with_half_precision() {
        let host = HostComplexMatrix::from_fn(4, 4, |r, c| {
            Complex::new(1.0 / (1.0 + r as f32), -1.0 / (1.0 + c as f32))
        });
        let dev = F16Matrix::from_host(&host);
        let back = dev.to_host();
        assert!(host.max_abs_diff(&back) < 1e-3);
        assert_eq!(dev.device_bytes(), 4 * 16);
    }

    #[test]
    fn int1_matrix_packs_signs_and_pads() {
        let host = HostComplexMatrix::from_fn(2, 40, |r, c| {
            Complex::new(if (r + c) % 2 == 0 { 1.0 } else { -1.0 }, -0.5)
        });
        let dev = Int1Matrix::from_host_padded(&host, 128);
        assert_eq!(dev.rows(), 2);
        assert_eq!(dev.k_bits(), 40);
        assert_eq!(dev.k_padded(), 128);
        assert_eq!(dev.k_padding(), 88);
        // Padding bits decode as −1 (binary 0).
        assert!(!dev.re_row(0).get(100));
        let back = dev.to_host();
        assert_eq!(back.cols(), 40);
        for r in 0..2 {
            for c in 0..40 {
                let expect = Complex::new(if (r + c) % 2 == 0 { 1.0 } else { -1.0 }, -1.0);
                assert_eq!(back.get(r, c), expect);
            }
        }
    }

    #[test]
    fn flat_rows_match_the_per_bit_layout() {
        // Every row of the flat planes must be, word for word and slack
        // included, the row the per-bit `PackedBits::set` construction
        // gives — for strides that end mid-word (`k_padded % 64 == 32`,
        // odd granularities) as well as whole ones.
        for (k, granularity) in [
            (70, 128),
            (70, 32),
            (33, 32),
            (1, 1),
            (64, 64),
            (100, 48),
            (257, 100),
        ] {
            let host = HostComplexMatrix::from_fn(3, k, |r, c| {
                Complex::new(
                    ((r * 31 + c * 17) % 7) as f32 - 3.0,
                    ((r * 13 + c * 5) % 11) as f32 - 5.0,
                )
            });
            let flat = Int1Matrix::from_host_padded(&host, granularity);
            assert_eq!(flat.k_padded(), k.next_multiple_of(granularity));
            assert_eq!(flat.re_words().len(), 3 * flat.k_padded().div_ceil(64));
            for r in 0..3 {
                let mut re_bits = PackedBits::zeros(flat.k_padded());
                let mut im_bits = PackedBits::zeros(flat.k_padded());
                for c in 0..k {
                    let v = host.get(r, c);
                    re_bits.set(c, v.re >= 0.0);
                    im_bits.set(c, v.im >= 0.0);
                }
                assert_eq!(flat.re_row(r), &re_bits, "re row {r} of {k}/{granularity}");
                assert_eq!(flat.im_row(r), &im_bits, "im row {r} of {k}/{granularity}");
                assert_eq!(flat.re_row(r).to_packed_bits(), re_bits);
                assert_eq!(flat.re_row(r).len(), flat.k_padded());
            }
            // The derived value semantics survive the layout change.
            let copy = flat.clone();
            assert_eq!(copy, flat);
            assert_eq!(copy.to_host(), flat.to_host());
            let mut flipped = host.clone();
            flipped.set(
                2,
                k - 1,
                Complex::new(-1.0, -1.0).scale(host.get(2, k - 1).re.signum()),
            );
            assert_ne!(Int1Matrix::from_host_padded(&flipped, granularity), flat);
        }
    }

    #[test]
    fn a_row_with_a_dirty_slack_bit_equals_no_plane() {
        let clean = PackedBits::zeros(40);
        let row = |words| BitRow { words, len: 40 };
        assert_eq!(row(&[0]), &clean);
        assert_ne!(row(&[1 << 40]), &clean);
        assert_ne!(row(&[0, 0]), &PackedBits::zeros(100));
    }

    #[test]
    fn device_bytes_accounting() {
        let host = HostComplexMatrix::zeros(8, 256);
        let one_bit = Int1Matrix::from_host(&host);
        // 8 rows × 256 bits × 2 planes / 8 bits-per-byte = 512 bytes.
        assert_eq!(one_bit.device_bytes(), 512);
        let f16m = F16Matrix::from_host(&host);
        assert_eq!(f16m.device_bytes(), 8 * 256 * 4);
    }

    #[test]
    fn max_abs_diff_is_the_largest_elementwise_gap() {
        let a = HostComplexMatrix::from_fn(2, 2, |_, _| Complex::new(1.0, 0.0));
        let b = HostComplexMatrix::from_fn(2, 2, |_, _| Complex::new(0.0, 0.0));
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn transposed_matches_its_definition(rows in 0usize..71, cols in 0usize..71, seed in any::<u64>()) {
            assert_transposed_matches_its_definition(&arbitrary_bits_matrix(rows, cols, seed));
        }

        #[test]
        fn int1_quantisation_is_idempotent(rows in 1usize..6, k in 1usize..80, seed in any::<u64>()) {
            let mut state = seed | 1;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 40) as f32 / 8388608.0) - 1.0
            };
            let host = HostComplexMatrix::from_fn(rows, k, |_, _| Complex::new(next(), next()));
            let once = Int1Matrix::from_host(&host).to_host();
            let twice = Int1Matrix::from_host(&once).to_host();
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn f16_roundtrip_error_is_bounded(rows in 1usize..5, cols in 1usize..5, scale in 0.1f32..100.0) {
            let host = HostComplexMatrix::from_fn(rows, cols, |r, c| {
                Complex::new(scale * (r as f32 + 0.5), -scale * (c as f32 + 0.25))
            });
            let back = F16Matrix::from_host(&host).to_host();
            let tol = scale * (rows + cols) as f32 * 2.0f32.powi(-10);
            prop_assert!(host.max_abs_diff(&back) <= tol);
        }
    }
}
