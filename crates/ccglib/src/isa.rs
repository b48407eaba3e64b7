//! The compiled instances of the two tile kernels, and two of the crate's
//! three `unsafe` blocks (the third is `write_once`'s, which hands the
//! kernels the output they store into).
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
//! Which one runs is decided by what the process can observe —
//! `is_x86_feature_detected!` — never by a setting.  One detection serves
//! both kernels: the AVX-512 path needs `avx512f` *and* `avx512vpopcntdq`
//! (Ice Lake, Zen 4 and later).  Parts with AVX-512F alone run the portable
//! instances of both kernels — one path name per host instead of one per
//! kernel, on the generation whose 512-bit FMA costs clock frequency anyway.
//! An [`Isa`] naming the AVX-512 path can only be obtained from
//! [`Isa::available`] / [`Isa::detected`] after detection succeeded; that is
//! the condition the `unsafe` blocks below rely on.

use crate::gemm::{f16_row_block, int1_row_group, F16Operands, Int1Operands};
use std::mem::MaybeUninit;
use tcbf_types::Complex32;

/// One compiled path of the tile kernels.  All paths agree on all inputs,
/// for both precisions; they differ only in speed.
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
    pub const PORTABLE: Isa = Isa(Path::Portable);

    /// The AVX-512 path, if the CPU and OS support it.  The feature probe
    /// is cached by `std` after its first use in the process.
    fn avx512() -> Option<Isa> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
        {
            return Some(Isa(Path::Avx512));
        }
        None
    }

    /// Every path this host can run, slowest first: always
    /// [`Isa::PORTABLE`], then the AVX-512 path where detected.
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
fn int1_row_group_avx512<const AND: bool>(
    out: &mut [MaybeUninit<Complex32>],
    i0: usize,
    g: &Int1Operands<'_>,
) {
    int1_row_group::<AVX512_INT1_LANES, AND>(out, i0, g);
}

/// Runs one row group of the 1-bit tile kernel on `isa`.
pub(crate) fn int1_row_group_on<const AND: bool>(
    isa: Isa,
    out: &mut [MaybeUninit<Complex32>],
    i0: usize,
    g: &Int1Operands<'_>,
) {
    match isa.0 {
        Path::Portable => int1_row_group::<PORTABLE_INT1_LANES, AND>(out, i0, g),
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        // SAFETY: `Path::Avx512` is private to this module and built only by
        // `Isa::avx512`, after `is_x86_feature_detected!` reported both
        // `avx512f` and `avx512vpopcntdq` — exactly the features the callee
        // enables.
        Path::Avx512 => unsafe { int1_row_group_avx512::<AND>(out, i0, g) },
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
