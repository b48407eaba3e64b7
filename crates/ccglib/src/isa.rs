//! The popcount paths of the 1-bit kernel, and the only `unsafe` in the
//! workspace.
//!
//! The register-tiled kernel ([`crate::gemm`]) is written once, in safe
//! Rust, over vectors of `LANES` output columns whose per-lane population
//! count is `u64::count_ones`.  It is compiled twice:
//!
//! * **portable** — four lanes under the crate's ordinary target features
//!   (`.cargo/config.toml`: AVX2 on x86-64, where LLVM lowers the lane-wise
//!   `count_ones` to its `vpshufb`/`vpsadbw` sequence; baseline code under
//!   `RUSTFLAGS=""` and on every other architecture).  The only path on
//!   hosts without AVX-512, and the conformance reference.
//! * **AVX-512 VPOPCNTDQ** (x86-64 only) — eight lanes inside a
//!   `#[target_feature]` function, where the same `count_ones` becomes one
//!   `vpopcntq` per 512 bits.
//!
//! Which one runs is decided by what the process can observe —
//! `is_x86_feature_detected!` — never by a setting.  An [`Int1Isa`] naming
//! the AVX-512 path can only be obtained from [`Int1Isa::available`] /
//! [`Int1Isa::detected`] after detection succeeded; that is the condition
//! the one `unsafe` block below relies on.

use crate::gemm::{int1_row_group, Int1Operands};
use tcbf_types::Complex32;

/// One compiled popcount path of the 1-bit kernel.  All paths agree on all
/// inputs; they differ only in speed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Int1Isa(Path);

// Private, so that `Path::Avx512Vpopcntdq` is proof of detection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Path {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx512Vpopcntdq,
}

impl Int1Isa {
    /// The safe-Rust path every host has.
    pub const PORTABLE: Int1Isa = Int1Isa(Path::Portable);

    /// The AVX-512 path, if the CPU and OS support it.  The feature probe
    /// is cached by `std` after its first use in the process.
    fn avx512() -> Option<Int1Isa> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
        {
            return Some(Int1Isa(Path::Avx512Vpopcntdq));
        }
        None
    }

    /// Every path this host can run, slowest first: always
    /// [`Int1Isa::PORTABLE`], then the AVX-512 path where detected.
    pub fn available() -> Vec<Int1Isa> {
        std::iter::once(Int1Isa::PORTABLE)
            .chain(Int1Isa::avx512())
            .collect()
    }

    /// The fastest available path — what every production call runs.
    pub fn detected() -> Int1Isa {
        Int1Isa::avx512().unwrap_or(Int1Isa::PORTABLE)
    }

    /// Output columns per vector of the path's kernel instance — what `B`'s
    /// column panels must be packed for.
    pub(crate) fn lanes(self) -> usize {
        match self.0 {
            Path::Portable => PORTABLE_LANES,
            #[cfg(target_arch = "x86_64")]
            Path::Avx512Vpopcntdq => AVX512_LANES,
        }
    }

    /// Stable name of the path, as `BENCH_gemm.json` spells it.
    pub fn name(self) -> &'static str {
        match self.0 {
            Path::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Path::Avx512Vpopcntdq => "avx512-vpopcntdq",
        }
    }
}

impl std::fmt::Display for Int1Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// 64-bit lanes of the portable instance: 256 bits, one AVX2 register.
const PORTABLE_LANES: usize = 4;

/// 64-bit lanes of the AVX-512 instance: one `zmm` register.
#[cfg(target_arch = "x86_64")]
const AVX512_LANES: usize = 8;

/// [`int1_row_group`] compiled with 512-bit lanes and `vpopcntq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
fn int1_row_group_avx512<const AND: bool>(out: &mut [Complex32], i0: usize, g: &Int1Operands<'_>) {
    int1_row_group::<AVX512_LANES, AND>(out, i0, g);
}

/// Runs one row group of the tile kernel on `isa`.
pub(crate) fn int1_row_group_on<const AND: bool>(
    isa: Int1Isa,
    out: &mut [Complex32],
    i0: usize,
    g: &Int1Operands<'_>,
) {
    match isa.0 {
        Path::Portable => int1_row_group::<PORTABLE_LANES, AND>(out, i0, g),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Path::Avx512Vpopcntdq` is private to this module and
        // built only by `Int1Isa::avx512`, after `is_x86_feature_detected!`
        // reported both `avx512f` and `avx512vpopcntdq` — exactly the
        // features the callee enables.
        Path::Avx512Vpopcntdq => unsafe { int1_row_group_avx512::<AND>(out, i0, g) },
    }
}
