//! The compiled instances of the two tile kernels and of the five block
//! prologue stages, and all but one of the crate's `unsafe` (the other is
//! `write_once`'s, which hands the stages the output they store into).
//!
//! Both register-tiled kernels ([`crate::gemm`]) are written once, in safe
//! Rust, over vectors of `LANES` output columns — the 1-bit kernel's lanes
//! are 64-bit words counted with `u64::count_ones`, the f16 kernel's are
//! `f32` accumulators advanced with `f32::mul_add`.  Each is compiled twice:
//!
//! * **portable** — under the crate's ordinary target features
//!   (`.cargo/config.toml`: AVX2 + FMA on x86-64, where one vector is a
//!   `ymm` register: 4 words / 8 floats, the lane-wise `count_ones` becomes
//!   LLVM's `vpshufb`/`vpsadbw` sequence and `mul_add` a `vfmadd`; baseline
//!   code — 4 floats per vector, `fmaf` calls on x86-64 — under
//!   `RUSTFLAGS=""` and on every other architecture).  The only path on
//!   hosts without AVX-512, and the conformance reference.
//! * **AVX-512** (x86-64 only) — inside `#[target_feature]` functions,
//!   where one vector is a `zmm` register (8 words / 16 floats), there are
//!   32 of them — the f16 tile's 16 accumulators stay in registers — and
//!   the same `count_ones` becomes one `vpopcntq`.
//!
//! The four prologue stages in front of the tile kernels, one work item
//! at a time, have a portable loop, which is the stage's definition, and
//! an AVX-512 instance written with `std::arch` intrinsics that gives the
//! same bits (LLVM turns none of the loops into these instructions on its
//! own): the 1-bit pack takes 64 signs from eight
//! `vcmpps` masks and `pext` (`avx512f`, `bmi2`) — of a row-major row, or
//! of a view's stored runs on their way into `B`'s panels, where the same
//! generic loop transposes eight 64 × 64 bit blocks at once in `zmm`
//! registers instead of four in `ymm` — the binary16 encode splits
//! 16 samples by `vpermt2ps` and rounds them by `vcvtps2ph` (`avx512f`), and
//! the f16 GEMM's `B` panels are widened by `vcvtph2ps`, one stored run of
//! 16 values per step, instead of a table lookup per value (`avx512f`).
//! Ragged edges take the portable loop.
//!
//! Which one runs is decided by what the process can observe —
//! `is_x86_feature_detected!` — never by a setting.  One detection serves
//! every instance: the AVX-512 path needs `avx512f`, `avx512vpopcntdq` and
//! `bmi2` (Ice Lake, Zen 4 and later).  Parts with AVX-512F alone run the
//! portable instances — one path name per host instead of one per stage,
//! on the generation whose 512-bit FMA costs clock frequency anyway.  An
//! [`Isa`] naming the AVX-512 path can only be obtained from
//! [`Isa::available`] / [`Isa::detected`] after detection succeeded; that is
//! the condition the three dispatching `unsafe` blocks below rely on.  The
//! other four move a vector between registers and a fixed-size array —
//! eight samples or sixteen binary16 values in, sixteen binary16 or
//! sixteen `f32` values out — whose type is their safety argument: written
//! with safe lane-by-lane code, LLVM splinters the encoder's loads.

use crate::gemm::{f16_row_block, int1_row_group, panel_steps, F16Operands, Int1Operands};
use crate::matrix::{encode_planes, panel_words, sign_words, PanelRun, Slot};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::mem::MaybeUninit;
use tcbf_types::{f16, Complex32};

/// One compiled path of the tile kernels and the prologue.  All paths agree
/// on all inputs, for both precisions; they differ only in speed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Isa(Path);

// Private, so that `Path::Avx512` is proof of detection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Path {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// The safe-Rust path every host has.
    pub(crate) const PORTABLE: Isa = Isa(Path::Portable);

    /// The AVX-512 path, if the CPU and OS support it.  The feature probe
    /// is cached by `std` after its first use in the process.
    fn avx512() -> Option<Isa> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
            && std::arch::is_x86_feature_detected!("bmi2")
        {
            return Some(Isa(Path::Avx512));
        }
        None
    }

    /// Every path this host can run, slowest first: always
    /// `Isa::PORTABLE`, then the AVX-512 path where detected.
    pub fn available() -> Vec<Isa> {
        std::iter::once(Isa::PORTABLE)
            .chain(Isa::avx512())
            .collect()
    }

    /// The fastest available path — what every production call runs.
    pub fn detected() -> Isa {
        Isa::avx512().unwrap_or(Isa::PORTABLE)
    }

    /// Output columns per vector of the path's 1-bit kernel instance — what
    /// `B`'s column panels must be packed for.
    pub(crate) fn int1_lanes(self) -> usize {
        match self.0 {
            Path::Portable => PORTABLE_INT1_LANES,
            #[cfg(target_arch = "x86_64")]
            Path::Avx512 => AVX512_INT1_LANES,
        }
    }

    /// Output columns per vector of the path's f16 kernel instance — what
    /// `B`'s column panels must be decoded for.
    pub(crate) fn f16_lanes(self) -> usize {
        match self.0 {
            Path::Portable => PORTABLE_F16_LANES,
            #[cfg(target_arch = "x86_64")]
            Path::Avx512 => AVX512_F16_LANES,
        }
    }

    /// Stable name of the path, as `BENCH_gemm.json` spells it.
    pub fn name(self) -> &'static str {
        match self.0 {
            Path::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Path::Avx512 => "avx512",
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// 64-bit lanes of the portable 1-bit instance: 256 bits, one AVX2 register.
const PORTABLE_INT1_LANES: usize = 4;

/// 64-bit lanes of the AVX-512 1-bit instance: one `zmm` register.
#[cfg(target_arch = "x86_64")]
const AVX512_INT1_LANES: usize = 8;

/// `f32` lanes of the portable f16 instance: one `ymm` register where the
/// build has AVX2, 128 bits (SSE2, NEON) elsewhere.
const PORTABLE_F16_LANES: usize = if cfg!(target_feature = "avx2") { 8 } else { 4 };

/// `f32` lanes of the AVX-512 f16 instance: one `zmm` register.
#[cfg(target_arch = "x86_64")]
const AVX512_F16_LANES: usize = 16;

/// [`int1_row_group`] compiled with 512-bit lanes and `vpopcntq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
fn int1_row_group_avx512(out: &mut [MaybeUninit<Complex32>], i0: usize, g: &Int1Operands<'_>) {
    int1_row_group::<AVX512_INT1_LANES>(out, i0, g);
}

/// Runs one row group of the 1-bit tile kernel on `isa`.
pub(crate) fn int1_row_group_on(
    isa: Isa,
    out: &mut [MaybeUninit<Complex32>],
    i0: usize,
    g: &Int1Operands<'_>,
) {
    match isa.0 {
        Path::Portable => int1_row_group::<PORTABLE_INT1_LANES>(out, i0, g),
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        // SAFETY: `Path::Avx512` is private to this module and built only by
        // `Isa::avx512`, after `is_x86_feature_detected!` reported both
        // `avx512f` and `avx512vpopcntdq` — exactly the features the callee
        // enables.
        Path::Avx512 => unsafe { int1_row_group_avx512(out, i0, g) },
    }
}

/// [`f16_row_block`] compiled with 512-bit lanes and 32 vector registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn f16_row_block_avx512(out: &mut [MaybeUninit<Complex32>], i0: usize, g: &F16Operands<'_>) {
    f16_row_block::<AVX512_F16_LANES>(out, i0, g);
}

/// Runs one row block of the f16 tile kernel on `isa`.
pub(crate) fn f16_row_block_on(
    isa: Isa,
    out: &mut [MaybeUninit<Complex32>],
    i0: usize,
    g: &F16Operands<'_>,
) {
    match isa.0 {
        Path::Portable => f16_row_block::<PORTABLE_F16_LANES>(out, i0, g),
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        // SAFETY: `Path::Avx512` is private to this module and built only by
        // `Isa::avx512`, after `is_x86_feature_detected!` reported `avx512f`
        // (and `avx512vpopcntdq`) — a superset of what the callee enables.
        Path::Avx512 => unsafe { f16_row_block_avx512(out, i0, g) },
    }
}

/// One parallel work item of a prologue stage: the stages that quantise a
/// GEMM's `A` (a row-major matrix) and its `B` (the `transposed()` view of
/// a `K × N` block), and the f16 GEMM's per-call `B` panels.
pub(crate) enum Prologue<'a, 'd> {
    /// Of `Int1Matrix::from_host_padded` of a row-major matrix: the sign
    /// words of one row's samples, 64 to a word.
    Signs {
        row: &'a [Complex32],
        re: &'a mut [MaybeUninit<u64>],
        im: &'a mut [MaybeUninit<u64>],
    },
    /// Of `Int1Matrix::from_host_padded` of a view, a GEMM's whole 1-bit
    /// `B`: the stored runs of a few consecutive words of `K` (64 runs of
    /// `n` samples a word, as many as `runs` holds) into those words of
    /// `B`'s column panels, in every group of `lanes` bit-rows.
    Panels {
        runs: &'a [Complex32],
        n: usize,
        lanes: usize,
        groups: &'a mut [PanelRun<'d>],
    },
    /// Of `F16Matrix::from_host`: a run of samples as stored — a row-major
    /// matrix's or a view's — to both binary16 planes.
    Encode {
        src: &'a [Complex32],
        re: &'a mut [MaybeUninit<f16>],
        im: &'a mut [MaybeUninit<f16>],
    },
    /// Of the f16 GEMM's `B` panels: the column panel of output columns
    /// `j0..`, step by step from both planes of the `K × N` block, `n`
    /// values a row.
    Steps {
        re: &'a [f16],
        im: &'a [f16],
        n: usize,
        j0: usize,
        panel: &'a mut [MaybeUninit<f32>],
    },
}

/// Runs one prologue work item on `isa`.
pub(crate) fn prologue_on(isa: Isa, item: Prologue<'_, '_>) {
    match isa.0 {
        Path::Portable => match item {
            Prologue::Signs { row, re, im } => sign_words(row, re, im),
            Prologue::Panels {
                runs,
                n,
                lanes,
                groups,
            } => panel_words::<PORTABLE_INT1_LANES>(runs, n, lanes, groups, sign_words),
            Prologue::Encode { src, re, im } => encode_planes(src, re, im),
            Prologue::Steps {
                re,
                im,
                n,
                j0,
                panel,
            } => panel_steps(re, im, n, j0, panel),
        },
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        // SAFETY: `Path::Avx512` is private to this module and built only by
        // `Isa::avx512`, after `is_x86_feature_detected!` reported `avx512f`
        // and `bmi2` (and `avx512vpopcntdq`) — a superset of what the callee
        // enables.
        Path::Avx512 => unsafe { prologue_avx512(item) },
    }
}

/// The prologue's AVX-512 instances.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,bmi2")]
fn prologue_avx512(item: Prologue<'_, '_>) {
    match item {
        Prologue::Signs { row, re, im } => sign_words_avx512(row, re, im),
        Prologue::Panels {
            runs,
            n,
            lanes,
            groups,
        } => panel_words::<AVX512_INT1_LANES>(runs, n, lanes, groups, |row, re, im| {
            sign_words_avx512(row, re, im)
        }),
        Prologue::Encode { src, re, im } => encode_planes_avx512(src, re, im),
        Prologue::Steps {
            re,
            im,
            n,
            j0,
            panel,
        } => panel_steps_avx512(re, im, n, j0, panel),
    }
}

/// [`sign_words`] with every whole 64 samples packed from eight ordered,
/// quiet `>= 0` compares (`vcmpps`: NaN is 0, −0.0 is 1, as `v >= 0.0`):
/// bit `2i` of a compare's mask is sample `i`'s real part, bit `2i + 1` its
/// imaginary one, and `pext` separates them.  A last partial word takes the
/// portable loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,bmi2")]
fn sign_words_avx512(row: &[Complex32], re: &mut [impl Slot<u64>], im: &mut [impl Slot<u64>]) {
    const REAL: u64 = 0x5555_5555_5555_5555;
    let (chunks, tail) = row.as_chunks::<64>();
    for ((chunk, re_word), im_word) in chunks.iter().zip(&mut *re).zip(&mut *im) {
        let mut halves = [0u64; 2];
        for (b, block) in chunk.as_chunks::<8>().0.iter().enumerate() {
            let mask = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(load_samples(block), _mm512_setzero_ps());
            halves[b / 4] |= u64::from(mask) << (16 * (b % 4));
        }
        let [low, high] = halves;
        re_word.put(_pext_u64(low, REAL) | _pext_u64(high, REAL) << 32);
        im_word.put(_pext_u64(low, !REAL) | _pext_u64(high, !REAL) << 32);
    }
    sign_words(tail, &mut re[chunks.len()..], &mut im[chunks.len()..]);
}

/// [`encode_planes`] 16 samples at a time: two loads, `vpermt2ps` for the
/// real and for the imaginary parts, `vcvtps2ph` with round to nearest even
/// (the immediate, not `MXCSR`, sets it), two 32-byte stores.  The tail
/// takes the portable loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn encode_planes_avx512(
    src: &[Complex32],
    re: &mut [MaybeUninit<f16>],
    im: &mut [MaybeUninit<f16>],
) {
    const NEAREST_EVEN: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
    let real = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
    let imag = _mm512_add_epi32(real, _mm512_set1_epi32(1));
    let (runs, tail) = src.as_chunks::<16>();
    let (re_runs, re_tail) = re.as_chunks_mut::<16>();
    let (im_runs, im_tail) = im.as_chunks_mut::<16>();
    for ((run, re16), im16) in runs.iter().zip(re_runs).zip(im_runs) {
        let halves = run.as_chunks::<8>().0;
        let (a, b) = (load_samples(&halves[0]), load_samples(&halves[1]));
        store_halves(
            re16,
            _mm512_cvtps_ph::<NEAREST_EVEN>(_mm512_permutex2var_ps(a, real, b)),
        );
        store_halves(
            im16,
            _mm512_cvtps_ph::<NEAREST_EVEN>(_mm512_permutex2var_ps(a, imag, b)),
        );
    }
    encode_planes(tail, re_tail, im_tail);
}

/// [`panel_steps`] for a whole group of 16 columns in a 16-lane panel: per
/// step and plane, the 16 stored values are loaded, widened by `vcvtph2ps`
/// — exact, and like `f16::to_f32` it quiets a signalling NaN and keeps its
/// payload — and stored as the step's lanes.  A ragged last group and any
/// other lane count take the portable loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn panel_steps_avx512(re: &[f16], im: &[f16], n: usize, j0: usize, panel: &mut [MaybeUninit<f32>]) {
    const LANES: usize = AVX512_F16_LANES;
    if panel.len() != 2 * LANES * (re.len() / n) || j0 + LANES > n {
        return panel_steps(re, im, n, j0, panel);
    }
    let rows = re.chunks_exact(n).zip(im.chunks_exact(n));
    let steps = panel.as_chunks_mut::<LANES>().0.as_chunks_mut::<2>().0;
    for ((re_row, im_row), [re_lanes, im_lanes]) in rows.zip(steps) {
        for (row, lanes) in [(re_row, re_lanes), (im_row, im_lanes)] {
            let halves = row[j0..].first_chunk().expect("a whole group");
            store_floats(lanes, _mm512_cvtph_ps(load_halves(halves)));
        }
    }
}

/// Loads eight samples as one `zmm` register, `re, im` interleaved.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
#[allow(unsafe_code)]
fn load_samples(src: &[Complex32; 8]) -> __m512 {
    // SAFETY: `src` is 64 readable bytes — eight `Complex32`, `repr(C)`
    // pairs of `f32` — which is what the unaligned load reads; it needs
    // `avx512f`, enabled here.
    unsafe { _mm512_loadu_ps(src.as_ptr().cast()) }
}

/// Loads sixteen binary16 values as one `ymm` register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
#[allow(unsafe_code)]
fn load_halves(src: &[f16; 16]) -> __m256i {
    // SAFETY: `src` is 32 readable bytes — sixteen `f16`, `repr(transparent)`
    // over `u16` — which is what the unaligned load reads; it needs `avx`,
    // which `avx512f`, enabled here, implies.
    unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
}

/// Stores one `zmm` register of sixteen `f32`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
#[allow(unsafe_code)]
fn store_floats(dst: &mut [MaybeUninit<f32>; 16], v: __m512) {
    // SAFETY: `dst` is 64 writable bytes — sixteen `f32` — which is what the
    // unaligned store writes; it needs `avx512f`, enabled here.
    unsafe { _mm512_storeu_ps(dst.as_mut_ptr().cast(), v) }
}

/// Stores one `ymm` register of sixteen binary16 values.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
#[allow(unsafe_code)]
fn store_halves(dst: &mut [MaybeUninit<f16>; 16], v: __m256i) {
    // SAFETY: `dst` is 32 writable bytes — sixteen `f16`, `repr(transparent)`
    // over `u16` — which is what the unaligned store writes; it needs `avx`,
    // which `avx512f`, enabled here, implies.
    unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
}
