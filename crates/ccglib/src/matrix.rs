//! Host- and device-side complex matrix containers.
//!
//! ccglib distinguishes three representations:
//!
//! * [`HostComplexMatrix`] — the user-facing container: full-precision
//!   complex values in the usual interleaved row-major layout.  This is
//!   what application code produces (beam weights, receiver samples) and
//!   consumes (beamformed output).
//! * [`F16Matrix`] — the 16-bit device format: separate (planar) real and
//!   imaginary planes of binary16 values, the layout the float16 tensor
//!   core kernel consumes after the transpose kernel has split the
//!   interleaved input.
//! * [`Int1Matrix`] — the 1-bit device format: real and imaginary bit
//!   planes packed along the reduction dimension, the output of the packing
//!   kernel, held as two flat `u64` buffers with a row stride.
//!
//! The stages that build one of these whole — [`HostComplexMatrix::transposed`],
//! [`F16Matrix::from_host`], [`Int1Matrix::from_host_padded`] — write their
//! destination exactly once: it is allocated, not cleared, and handed to the
//! parallel pass as `&mut [MaybeUninit<_>]` (the crate's private `write_once`
//! helper), so the thread that fills a band is the first to touch it.  Every
//! zero such a buffer holds — the padding and slack of a bit-row, a matrix
//! without samples — is therefore stored by that pass, and a debug build
//! fails the call that leaves an element unwritten.
//! [`HostComplexMatrix::zeros`] stays a zero-fill: there the zeros are the
//! value.

use crate::error::{Result, TcbfError};
use crate::isa::{prologue_on, Isa, Prologue};
use crate::write_once::{write_once, write_once_pair};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::mem::MaybeUninit;
use std::ops::Range;
use tcbf_types::matrix::round_up;
use tcbf_types::{encode_from_f32, f16, Complex, Complex32, PackedBits};

/// Tile edge of [`HostComplexMatrix::transposed`], in elements: 32 rows of
/// 256 B each.  A band of rows is one work item, and a share boundary of this
/// stage is one of the next stage's when the two item counts nest (the rule
/// is `vendor/rayon`'s `deal`).
const TRANSPOSE_TILE: usize = 32;

/// Scalars per parallel work item of the stages that convert a plane
/// element by element ([`F16Matrix::from_host`], the decode behind
/// [`crate::gemm::DecodedPlanes`]): a few microseconds of work, and a whole
/// number of the bulk encoder's chunks.  A share boundary of this stage is
/// one of the f16 panel builder's when the two item counts nest (`deal`).
pub(crate) const PLANE_ITEM: usize = 4096;

/// Samples per parallel work item of [`Int1Matrix::from_host_padded`], which
/// deals whole rows: 256 KiB of source.  A share boundary of this stage is
/// one of the 1-bit panel builder's when the two item counts nest (`deal`).
const PACK_ITEM_SAMPLES: usize = 32 * 1024;

/// A host-side complex matrix in row-major order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HostComplexMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex32>,
}

impl HostComplexMatrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        HostComplexMatrix {
            rows,
            cols,
            data: vec![Complex32::ZERO; rows * cols],
        }
    }

    /// Creates a matrix from a generator function over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        HostComplexMatrix { rows, cols, data }
    }

    /// Creates a matrix from row-major data.
    pub fn from_data(rows: usize, cols: usize, data: Vec<Complex32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TcbfError::ShapeMismatch {
                expected: format!("{rows}x{cols} = {} elements", rows * cols),
                actual: format!("{} elements", data.len()),
            });
        }
        Ok(HostComplexMatrix { rows, cols, data })
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
        self.data[row * self.cols + col]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: Complex32) {
        self.data[row * self.cols + col] = value;
    }

    /// The underlying row-major data.
    pub fn data(&self) -> &[Complex32] {
        &self.data
    }

    /// Returns the transposed matrix (used to bring the `B` operand into
    /// the `N×K` orientation the packed kernels expect), on the fastest
    /// path the host has ([`Isa::detected`]).
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
    /// destination is written once, not cleared first.  On the AVX-512
    /// path a band moves in 8 × 8 blocks of samples instead: eight 64-byte
    /// source rows in, transposed in registers, eight 64-byte rows out.
    pub fn transposed(&self) -> HostComplexMatrix {
        self.transposed_on(Isa::detected())
    }

    /// [`transposed`](Self::transposed) on an explicit path — how the tests
    /// and `hotpath_bench` run every path the host has.  All paths give the
    /// same bits.
    pub fn transposed_on(&self, isa: Isa) -> HostComplexMatrix {
        let (rows, cols) = (self.rows, self.cols);
        let data = write_once(rows * cols, |data| {
            data.par_chunks_mut((TRANSPOSE_TILE * rows).max(1))
                .enumerate()
                .for_each(|(item, band)| {
                    let (src, c0) = (self, item * TRANSPOSE_TILE);
                    prologue_on(isa, Prologue::Transpose { src, c0, band });
                });
        });
        HostComplexMatrix {
            rows: cols,
            cols: rows,
            data,
        }
    }

    /// Maximum absolute difference to another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &HostComplexMatrix) -> f32 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f32, f32::max)
    }
}

/// Planar binary16 device matrix: the input format of the float16 tensor
/// core GEMM kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct F16Matrix {
    rows: usize,
    cols: usize,
    re: Vec<f16>,
    im: Vec<f16>,
}

impl F16Matrix {
    /// Quantises a host matrix to binary16, splitting it into planes, on
    /// the fastest path the host has ([`Isa::detected`]).
    pub fn from_host(host: &HostComplexMatrix) -> Self {
        Self::from_host_on(Isa::detected(), host)
    }

    /// [`from_host`](Self::from_host) on `isa`.
    pub(crate) fn from_host_on(isa: Isa, host: &HostComplexMatrix) -> Self {
        Self::encode(host.rows(), host.cols(), host.data(), |src, re, im| {
            prologue_on(isa, Prologue::Encode { src, re, im });
        })
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
        F16Matrix { rows, cols, re, im }
    }

    /// Builds a matrix directly from planes (used by the transpose kernel).
    pub fn from_planes(rows: usize, cols: usize, re: Vec<f16>, im: Vec<f16>) -> Result<Self> {
        if re.len() != rows * cols || im.len() != rows * cols {
            return Err(TcbfError::ShapeMismatch {
                expected: format!("{} scalars per plane", rows * cols),
                actual: format!("re={}, im={}", re.len(), im.len()),
            });
        }
        Ok(F16Matrix { rows, cols, re, im })
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
        &self.re
    }
    /// Imaginary plane, row-major.
    pub fn im(&self) -> &[f16] {
        &self.im
    }

    /// Element access, widening to single precision.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Complex32 {
        let idx = row * self.cols + col;
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

/// The element-wise copy that defines [`HostComplexMatrix::transposed`],
/// at source rows `rows`, into the destination rows of `band` (source
/// columns `c0..`).
pub(crate) fn transpose_rect(
    src: &HostComplexMatrix,
    rows: Range<usize>,
    c0: usize,
    band: &mut [MaybeUninit<Complex32>],
) {
    for (c, row) in (c0..).zip(band.chunks_exact_mut(src.rows)) {
        for (r, slot) in rows.clone().zip(&mut row[rows.clone()]) {
            slot.write(src.data[r * src.cols + c]);
        }
    }
}

/// One band of [`HostComplexMatrix::transposed`] on the portable path, a
/// tile of `TRANSPOSE_TILE` source rows at a time.
pub(crate) fn transpose_band(
    src: &HostComplexMatrix,
    c0: usize,
    band: &mut [MaybeUninit<Complex32>],
) {
    for r0 in (0..src.rows).step_by(TRANSPOSE_TILE) {
        transpose_rect(src, r0..(r0 + TRANSPOSE_TILE).min(src.rows), c0, band);
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
pub(crate) fn sign_words(
    row: &[Complex32],
    re: &mut [MaybeUninit<u64>],
    im: &mut [MaybeUninit<u64>],
) {
    for ((chunk, re_word), im_word) in row.chunks(64).zip(re).zip(im) {
        let (low, high) = chunk.split_at(chunk.len().min(32));
        let (re_low, im_low) = sign_bits(low);
        let (re_high, im_high) = sign_bits(high);
        re_word.write(u64::from(re_low) | u64::from(re_high) << 32);
        im_word.write(u64::from(im_low) | u64::from(im_high) << 32);
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
/// Each plane is one contiguous buffer of `u64` words, least-significant
/// bit first, `k_padded.div_ceil(64)` words per row.  Every bit past
/// a row's valid samples is zero: the padding up to `k_padded` (binary 0 is
/// the paper's padding value, decimal −1) and the slack between `k_padded`
/// and the end of the row's last word alike, so whole-word population
/// counts need no mask.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Int1Matrix {
    rows: usize,
    /// Number of valid (unpadded) samples along the packed dimension.
    k_bits: usize,
    /// Number of samples after padding to the packing granularity.
    k_padded: usize,
    re: Vec<u64>,
    im: Vec<u64>,
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

    /// [`from_host_padded`](Self::from_host_padded) on `isa`.
    pub(crate) fn from_host_padded_on(
        isa: Isa,
        host: &HostComplexMatrix,
        k_granularity: usize,
    ) -> Self {
        let rows = host.rows();
        let k_bits = host.cols();
        let k_padded = round_up(k_bits.max(1), k_granularity.max(1));
        let stride = k_padded.div_ceil(64);
        // Every word of both planes is written exactly once.  A word that
        // holds valid samples is assembled in registers — one write per 64
        // samples, the slack of a row's last such word left binary 0 — and
        // the words past them (Eq. 5 padding, whole padding words of a
        // granularity above 64) are stored as zeros by the same pass: the
        // planes are not cleared first, so no zero is the allocator's.  A
        // group of whole rows — both planes of it — is one parallel work
        // item.
        let [re, im] = write_once_pair(rows * stride, |re, im| {
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
        });
        Int1Matrix {
            rows,
            k_bits,
            k_padded,
            re,
            im,
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

    /// The whole real plane, `rows × words_per_row` words, row-major.
    pub(crate) fn re_words(&self) -> &[u64] {
        &self.re
    }

    /// The whole imaginary plane, laid out like the real one.
    pub(crate) fn im_words(&self) -> &[u64] {
        &self.im
    }

    /// Real bit plane of one row.
    pub fn re_row(&self, row: usize) -> BitRow<'_> {
        self.row_of(&self.re, row)
    }

    /// Imaginary bit plane of one row.
    pub fn im_row(&self, row: usize) -> BitRow<'_> {
        self.row_of(&self.im, row)
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

    /// Every path's `transposed_on` against the element-wise copy, and back.
    fn assert_transposed_matches_its_definition(m: &HostComplexMatrix) {
        let by_definition = HostComplexMatrix::from_fn(m.cols(), m.rows(), |r, c| m.get(c, r));
        for isa in Isa::available() {
            let t = m.transposed_on(isa);
            assert_eq!((t.rows(), t.cols()), (m.cols(), m.rows()));
            assert_eq!(
                bits(&t),
                bits(&by_definition),
                "{}x{} {isa}",
                m.rows(),
                m.cols()
            );
            let back = t.transposed_on(isa);
            assert_eq!((back.rows(), back.cols()), (m.rows(), m.cols()));
            assert_eq!(bits(&back), bits(m), "{}x{} {isa}", m.rows(), m.cols());
        }
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
        // 0-sized, 1×N, N×1 and block−1 / block / block+1 on each axis, for
        // the 8 × 8 register block and for one and two tiles.
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
    /// side of every band, row-group and work-item size, multiples of the
    /// 8 × 8 register block that are not of the tile and ragged ones, up to
    /// a whole `fewbeam_int1` block's worth of elements.
    pub(crate) fn prologue_shapes() -> impl Iterator<Item = (usize, usize)> {
        const DIMS: [usize; 10] = [0, 1, 9, 31, 32, 33, 40, 255, 257, 2048];
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
    fn hostile_matrix(rows: usize, cols: usize) -> HostComplexMatrix {
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
