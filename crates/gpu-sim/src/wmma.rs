//! Tensor-core fragment shapes.
//!
//! Tensor cores execute small fixed-size matrix multiplications called
//! *fragments*.  The performance model needs their shapes — the planner's
//! padding and warp-pipelining factors and the Table I fragment column are
//! expressed in them — but not their arithmetic: the functional GEMM is
//! ccglib's host micro-kernels.
//!
//! * [`FragmentShape`] — the half-precision fragment (`A`, `B` in binary16,
//!   accumulator in binary32), 16×16×16 on every evaluated architecture;
//! * [`BitFragmentShape`] — the 1-bit ("binary") fragments, whose XOR or
//!   AND + popcount accumulation Table II and Eqs. 5–6 describe.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Shape of a half-precision tensor-core fragment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FragmentShape {
    /// The 16×16×16 fragment available on every evaluated architecture
    /// (NVIDIA WMMA and AMD MFMA/rocWMMA).
    M16N16K16,
}

impl FragmentShape {
    /// Fragment rows (M).
    pub const fn m(self) -> usize {
        16
    }
    /// Fragment columns (N).
    pub const fn n(self) -> usize {
        16
    }
    /// Fragment depth (K).
    pub const fn k(self) -> usize {
        16
    }
}

impl fmt::Display for FragmentShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.m(), self.n(), self.k())
    }
}

/// Shape of a 1-bit ("binary") tensor-core fragment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BitFragmentShape {
    /// 8×8×128: the layout exposed through the WMMA API.
    M8N8K128,
    /// 16×8×256: only reachable through inline PTX; at least as fast as the
    /// small layout everywhere and more than twice as fast on A100/GH200.
    M16N8K256,
}

impl BitFragmentShape {
    /// Fragment rows (M).
    pub const fn m(self) -> usize {
        match self {
            BitFragmentShape::M8N8K128 => 8,
            BitFragmentShape::M16N8K256 => 16,
        }
    }
    /// Fragment columns (N).
    pub const fn n(self) -> usize {
        8
    }
    /// Fragment depth in bits (K).
    pub const fn k(self) -> usize {
        match self {
            BitFragmentShape::M8N8K128 => 128,
            BitFragmentShape::M16N8K256 => 256,
        }
    }

    /// Both layouts, small first.
    pub const ALL: [BitFragmentShape; 2] =
        [BitFragmentShape::M8N8K128, BitFragmentShape::M16N8K256];
}

impl fmt::Display for BitFragmentShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.m(), self.n(), self.k())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_shapes() {
        assert_eq!(FragmentShape::M16N16K16.to_string(), "16x16x16");
        assert_eq!(BitFragmentShape::M8N8K128.to_string(), "8x8x128");
        assert_eq!(BitFragmentShape::M16N8K256.to_string(), "16x8x256");
    }
}
