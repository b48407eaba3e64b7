//! Deterministic synthetic operands for tests and benchmarks.
//!
//! The bit-identity guarantees of the GEMM hot path are asserted against
//! matrices with carefully chosen value distributions, and the same
//! generators drive the wall-clock benchmark harness.  They live here —
//! once — because their properties are load-bearing: the conformance
//! proptests, the workspace-level integration tests and `hotpath_bench`
//! must all sample from identical distributions, and the exactness bound
//! of [`exact_integer_matrix`] is part of the bit-identity argument.

use crate::matrix::HostComplexMatrix;
use tcbf_types::Complex;

/// A deterministic pseudo-random complex matrix with components uniform in
/// `±scale`, generated by a fixed 64-bit LCG: the same `(rows, cols,
/// seed, scale)` always produces the same matrix, on every platform.
pub fn pseudo_random_matrix(rows: usize, cols: usize, seed: u64, scale: f32) -> HostComplexMatrix {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((state >> 40) & 0xFFFF) as f32 / 32768.0 - 1.0) * scale
    };
    HostComplexMatrix::from_fn(rows, cols, |_, _| Complex::new(next(), next()))
}

/// A deterministic matrix of integer-valued components in `±4`.
///
/// Every component is exactly representable in binary16, every product of
/// two components is at most 16 in magnitude, and partial sums stay well
/// below `2^24` for any reduction length the tests use — so every
/// intermediate of the f16 GEMM is exact and **any** summation order
/// (naive, blocked, fused-multiply-add, lane-reduced) must produce
/// bit-identical results.  This is the input family the bit-identity
/// proptests of the hot path are built on.
///
/// Public for `tests/hotpath_conformance.rs`, whose exact-input tests
/// sample the same distribution from outside the crate.
pub fn exact_integer_matrix(rows: usize, cols: usize, seed: u64) -> HostComplexMatrix {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 40) % 9) as f32 - 4.0
    };
    HostComplexMatrix::from_fn(rows, cols, |_, _| Complex::new(next(), next()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_bounded() {
        let a = pseudo_random_matrix(5, 7, 42, 2.0);
        assert_eq!(a, pseudo_random_matrix(5, 7, 42, 2.0));
        for v in a.data() {
            assert!(v.re.abs() <= 2.0 && v.im.abs() <= 2.0);
        }
        let e = exact_integer_matrix(6, 4, 7);
        assert_eq!(e, exact_integer_matrix(6, 4, 7));
        for v in e.data() {
            assert!(v.re.fract() == 0.0 && v.re.abs() <= 4.0);
            assert!(v.im.fract() == 0.0 && v.im.abs() <= 4.0);
        }
    }
}
