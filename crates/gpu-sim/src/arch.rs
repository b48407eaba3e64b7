//! GPU vendors, architecture generations and architectural features.
//!
//! The behavioural differences the paper relies on are encoded here as
//! queryable predicates rather than scattered `if name == "GH200"` checks:
//!
//! * 1-bit tensor-core support is NVIDIA-only (Section II);
//! * the XOR bit operation is *deprecated* from Hopper on and emulated in
//!   software, making it up to five times slower than AND (Section III-A/E);
//! * the 16×8×256 1-bit fragment is only reachable through inline PTX, not
//!   WMMA, and is at least twice as fast as 8×8×128 on A100/GH200;
//! * asynchronous global→shared copies exist on NVIDIA Ampere and later
//!   only, which is why the number of pipeline buffers is forced to one on
//!   AMD devices (Section III-C);
//! * on Hopper the WMMA interface reaches only ~65 % of the peak that the
//!   newer WGMMA interface would reach (Section III-A, ref. \[5\]).

use serde::{Deserialize, Serialize};
use std::fmt;

/// GPU vendor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum Vendor {
    /// NVIDIA GPUs, programmed through CUDA / WMMA.
    Nvidia,
    /// AMD GPUs, programmed through HIP / rocWMMA.
    Amd,
}

/// GPU architecture generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Architecture {
    /// NVIDIA Ampere (A100).
    Ampere,
    /// NVIDIA Ada Lovelace (RTX 4000 Ada).
    Ada,
    /// NVIDIA Hopper (GH200).
    Hopper,
    /// NVIDIA Blackwell (not evaluated in the paper; listed as future work).
    Blackwell,
    /// AMD RDNA3 workstation parts (Radeon Pro W7700).
    Rdna3,
    /// AMD CDNA2 (Instinct MI210).
    Cdna2,
    /// AMD CDNA3 (Instinct MI300X / MI300A).
    Cdna3,
}

impl Architecture {
    /// Vendor of this architecture.
    pub(crate) fn vendor(self) -> Vendor {
        match self {
            Architecture::Ampere
            | Architecture::Ada
            | Architecture::Hopper
            | Architecture::Blackwell => Vendor::Nvidia,
            Architecture::Rdna3 | Architecture::Cdna2 | Architecture::Cdna3 => Vendor::Amd,
        }
    }

    /// Whether 1-bit tensor-core matrix operations are available.
    /// "1-bit precision … is only supported on NVIDIA GPUs."
    pub fn supports_int1(self) -> bool {
        self.vendor() == Vendor::Nvidia
    }

    /// Whether the XOR binary tensor-core operation is implemented in
    /// hardware.  From Hopper on it is deprecated: still exposed at the
    /// WMMA/PTX level but lowered to several AND operations plus boolean
    /// logic, which is why it is up to five times slower there.
    pub(crate) fn xor_in_hardware(self) -> bool {
        matches!(self, Architecture::Ampere | Architecture::Ada)
    }

    /// Whether asynchronous copies from global to shared memory exist
    /// (`cp.async`, NVIDIA Ampere and later).  On AMD devices ccglib forces
    /// the number of pipeline buffers to one.
    pub fn supports_async_copies(self) -> bool {
        self.vendor() == Vendor::Nvidia
    }

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Architecture::Ampere => "Ampere",
            Architecture::Ada => "Ada Lovelace",
            Architecture::Hopper => "Hopper",
            Architecture::Blackwell => "Blackwell",
            Architecture::Rdna3 => "RDNA3",
            Architecture::Cdna2 => "CDNA2",
            Architecture::Cdna3 => "CDNA3",
        }
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The bitwise operation used by 1-bit tensor-core instructions.
///
/// XOR detects *differing* bits (native up to Ada, emulated from Hopper);
/// AND detects *equal* bits when combined with a second AND on the negated
/// inputs (Eq. 6), at the cost of twice the instruction count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BitOp {
    /// Element-wise exclusive-or followed by population count.
    Xor,
    /// Element-wise and followed by population count.
    And,
}

impl BitOp {
    /// Number of binary MMA instructions needed per logical multiply:
    /// the AND formulation needs two (one on the inputs, one on their
    /// complements), XOR needs one.
    pub(crate) fn instructions_per_multiply(self) -> usize {
        match self {
            BitOp::Xor => 1,
            BitOp::And => 2,
        }
    }

    /// The operation ccglib automatically selects on a given architecture:
    /// AND on Hopper and newer (where XOR is emulated), XOR elsewhere.
    pub fn preferred_for(arch: Architecture) -> BitOp {
        if arch.xor_in_hardware() {
            BitOp::Xor
        } else {
            BitOp::And
        }
    }
}

impl fmt::Display for BitOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitOp::Xor => write!(f, "XOR"),
            BitOp::And => write!(f, "AND"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vendor_mapping() {
        assert_eq!(Architecture::Ampere.vendor(), Vendor::Nvidia);
        assert_eq!(Architecture::Ada.vendor(), Vendor::Nvidia);
        assert_eq!(Architecture::Hopper.vendor(), Vendor::Nvidia);
        assert_eq!(Architecture::Rdna3.vendor(), Vendor::Amd);
        assert_eq!(Architecture::Cdna2.vendor(), Vendor::Amd);
        assert_eq!(Architecture::Cdna3.vendor(), Vendor::Amd);
    }

    #[test]
    fn int1_is_nvidia_only() {
        for arch in [
            Architecture::Ampere,
            Architecture::Ada,
            Architecture::Hopper,
        ] {
            assert!(arch.supports_int1());
        }
        for arch in [
            Architecture::Rdna3,
            Architecture::Cdna2,
            Architecture::Cdna3,
        ] {
            assert!(!arch.supports_int1());
        }
    }

    #[test]
    fn xor_deprecated_from_hopper() {
        assert!(Architecture::Ampere.xor_in_hardware());
        assert!(Architecture::Ada.xor_in_hardware());
        assert!(!Architecture::Hopper.xor_in_hardware());
    }

    #[test]
    fn preferred_bit_op_switches_on_hopper() {
        assert_eq!(BitOp::preferred_for(Architecture::Ampere), BitOp::Xor);
        assert_eq!(BitOp::preferred_for(Architecture::Ada), BitOp::Xor);
        assert_eq!(BitOp::preferred_for(Architecture::Hopper), BitOp::And);
        assert_eq!(BitOp::preferred_for(Architecture::Blackwell), BitOp::And);
    }

    #[test]
    fn and_needs_twice_the_instructions() {
        assert_eq!(BitOp::Xor.instructions_per_multiply(), 1);
        assert_eq!(BitOp::And.instructions_per_multiply(), 2);
    }

    #[test]
    fn async_copies_nvidia_only() {
        assert!(Architecture::Ampere.supports_async_copies());
        assert!(!Architecture::Cdna3.supports_async_copies());
    }

    #[test]
    fn display_names() {
        assert_eq!(Architecture::Hopper.to_string(), "Hopper");
        assert_eq!(BitOp::Xor.to_string(), "XOR");
    }
}
