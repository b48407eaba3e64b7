//! The write-once destination of every stage whose output is fully
//! overwritten.
//!
//! In the paper a stage of a block — the transpose kernel, the packing
//! kernel, the GEMM — writes into a device buffer that was allocated, not
//! cleared.  `vec![ZERO; n]` clears it first, on the calling thread: every
//! element is stored twice, and the lines end up in the caller's cache,
//! from where the pool's other threads have to fetch them back before they
//! may store to their share.  [`write_once`] hands the producer the buffer
//! as it was allocated, typed `&mut [MaybeUninit<T>]` — which can be
//! split, zipped and dealt over the worker pool like any slice, written
//! with the safe `MaybeUninit::write`, and never read — so the threads
//! that write a band are the first to touch it.
//!
//! The one thing safe Rust has no operation for is the last step, calling
//! the buffer a `Vec<T>` once it is full; that is this module's single
//! `unsafe`, and its invariant — *every element was written by the producer*
//! — is checked in debug builds, the builds `cargo test` runs.  Zeros that
//! used to be the allocator's are therefore the producer's to store: a
//! forgotten padding word is a failed test, not a wrong beam.

use std::mem::MaybeUninit;
use tcbf_types::{f16, Complex32};

/// An element type of a write-once destination, with the value the debug
/// check fills the destination with before the producer runs and looks for
/// afterwards.
///
/// A stored value that equalled its poison would fail a correct call (in a
/// debug build only), so each is chosen out of its producers' reach where
/// they have a range, and is 64 bits wide where they copy arbitrary bits
/// through.
pub(crate) trait Poison: Copy {
    /// The fill.
    const POISON: Self;

    /// The value's bit pattern — the float poisons are NaNs, which `==`
    /// never finds.
    fn bits(self) -> u64;

    /// Bit-for-bit equality with [`Poison::POISON`].
    fn is_poison(&self) -> bool {
        self.bits() == Self::POISON.bits()
    }
}

impl Poison for f32 {
    /// A signalling NaN with low mantissa bits set.  A decoded binary16 has
    /// the low 13 bits clear and every NaN the decoder or an FMA produces
    /// is quiet.
    const POISON: Self = f32::from_bits(0x7FA5_5A5A);
    fn bits(self) -> u64 {
        self.to_bits().into()
    }
}

impl Poison for f16 {
    /// A signalling NaN: `f16::from_f32` quiets every NaN it encodes.
    const POISON: Self = f16::from_bits(0x7D5A);
    fn bits(self) -> u64 {
        self.to_bits().into()
    }
}

impl Poison for u64 {
    /// Any word is a possible run of 64 sign bits; this one has no period
    /// a constant or alternating test row could produce.
    const POISON: Self = 0x5EED_1E55_DEAD_B175;
    fn bits(self) -> u64 {
        self
    }
}

impl Poison for Complex32 {
    /// Out of a GEMM's reach like the scalar; a sample `transposed` copies
    /// through equals all 64 bits only by accident.
    const POISON: Self = Complex32::new(f32::POISON, f32::POISON);
    fn bits(self) -> u64 {
        self.re.bits() << 32 | self.im.bits()
    }
}

/// A `Vec<T>` of `len` elements, each written exactly where it ends up:
/// allocated at its final size — the one block `vec![..; len]` allocated —
/// handed to `produce` uninitialised, and given its length only after
/// `produce` has returned, so a producer that panics leaves nothing
/// uninitialised reachable (the block is freed, and `T: Copy` has no
/// destructor to run over it).
///
/// `produce` must write every element of the slice.  In a debug build an
/// element it did not write fails the call.
pub(crate) fn write_once<T: Poison>(
    len: usize,
    produce: impl FnOnce(&mut [MaybeUninit<T>]),
) -> Vec<T> {
    let mut vec = Vec::with_capacity(len);
    let dest = &mut vec.spare_capacity_mut()[..len];
    if cfg!(debug_assertions) {
        dest.fill(MaybeUninit::new(T::POISON));
    }
    produce(dest);
    #[allow(unsafe_code)]
    // SAFETY: `len` is within the capacity (`dest` was cut from the spare
    // capacity), and every element below it was written by the producer
    // before the length is set — the contract `produce` is handed the
    // buffer under, kept by all of this crate's producers and checked for
    // each call below: in a debug build the fill above has initialised the
    // elements whatever the producer did, so the check itself reads only
    // initialised memory.  `T: Copy`, so nothing is ever dropped.
    unsafe {
        vec.set_len(len)
    };
    if cfg!(debug_assertions) {
        if let Some(at) = vec.iter().position(T::is_poison) {
            panic!("write-once destination: element {at} of {len} was not written");
        }
    }
    vec
}

/// Two destinations of `len` elements for one producer — the real and the
/// imaginary plane of a stage that walks both together.  Allocated first
/// then second, as the two `vec!`s were.
pub(crate) fn write_once_pair<T: Poison>(
    len: usize,
    produce: impl FnOnce(&mut [MaybeUninit<T>], &mut [MaybeUninit<T>]),
) -> [Vec<T>; 2] {
    let mut second = Vec::new();
    let first = write_once(len, |first| {
        second = write_once(len, |second| produce(first, second));
    });
    [first, second]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use tcbf_types::{decode_to_f32, encode_from_f32};

    /// Scalars per chunk of `tcbf_types::encode_from_f32`'s branch-free
    /// path.  The codecs write only through `&mut [MaybeUninit<_>]`, so
    /// their bit-identity tests live here, where a destination can be read
    /// back safely.
    const ENCODE_CHUNK: usize = 32;

    /// Writes `at → at` everywhere except at `skip`, two-way parallel.
    fn counting(len: usize, skip: Option<usize>) -> Vec<u64> {
        const ITEM: usize = 100;
        write_once(len, |dest| {
            dest.par_chunks_mut(ITEM)
                .enumerate()
                .for_each(|(item, chunk)| {
                    for (at, slot) in (item * ITEM..).zip(chunk) {
                        if Some(at) != skip {
                            slot.write(at as u64);
                        }
                    }
                });
        })
    }

    #[test]
    fn every_length_comes_back_as_written() {
        for len in [0, 1, 2, 99, 100, 101, 1000] {
            let vec = counting(len, None);
            assert_eq!(vec, (0..len as u64).collect::<Vec<_>>());
            assert_eq!(vec.capacity(), len, "one block at its final size");
        }
        let [re, im] = write_once_pair(3, |re: &mut [MaybeUninit<f32>], im| {
            for (at, (re, im)) in re.iter_mut().zip(im).enumerate() {
                re.write(at as f32);
                im.write(-(at as f32));
            }
        });
        assert_eq!((re, im), (vec![0.0, 1.0, 2.0], vec![-0.0, -1.0, -2.0]));
        assert_eq!(
            write_once_pair(0, |_: &mut [MaybeUninit<f16>], _| ()),
            [[], []]
        );
    }

    // Release builds carry no check — there the skipped element would be
    // read uninitialised, which is the very thing the check exists to keep
    // out of the tree — so this test exists in debug builds only.
    #[cfg(debug_assertions)]
    #[test]
    fn an_element_the_producer_skips_fails_the_call_in_a_debug_build() {
        // First, last, one in the middle of a parallel item, an item's first
        // and last, the only one.
        for (len, skip) in [
            (1000, 0),
            (1000, 999),
            (1000, 250),
            (1000, 300),
            (1000, 399),
            (1, 0),
        ] {
            let panic = catch_unwind(|| counting(len, Some(skip))).unwrap_err();
            let message = panic.downcast_ref::<String>().expect("a formatted panic");
            assert!(
                message.contains(&format!("element {skip} of {len} was not written")),
                "{message}"
            );
        }
        // Either plane of a pair, and every element type.
        for skipped_plane in [0, 1] {
            let pair = |re: &mut [MaybeUninit<u64>], im: &mut [MaybeUninit<u64>]| {
                [re, im][1 - skipped_plane][0].write(7);
            };
            assert!(catch_unwind(|| write_once_pair(1, pair)).is_err());
        }
        assert!(catch_unwind(|| write_once::<f32>(1, |_| ())).is_err());
        assert!(catch_unwind(|| write_once::<f16>(1, |_| ())).is_err());
        assert!(catch_unwind(|| write_once::<Complex32>(1, |_| ())).is_err());
        // Half a complex number is not a complex number.
        let half = Complex32::new(f32::POISON, 0.0);
        assert_eq!(write_once(1, |dest| _ = dest[0].write(half)).len(), 1);
    }

    #[test]
    fn a_producer_that_panics_leaves_nothing_behind() {
        let mut reached = None;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            reached = Some(write_once::<u64>(1000, |dest| {
                dest[0].write(1);
                panic!("producer gave up");
            }));
        }));
        let payload = outcome.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"producer gave up"));
        assert!(reached.is_none(), "no vector, whole or partial, came back");
        // And the same from a work item on the pool.
        let outcome = catch_unwind(|| {
            write_once::<u64>(1000, |dest| {
                dest.par_chunks_mut(500)
                    .for_each(|_| panic!("item gave up"));
            })
        });
        assert!(outcome.is_err());
        assert_eq!(counting(1000, None)[999], 999);
    }

    #[test]
    fn the_poisons_are_out_of_their_producers_reach() {
        // Every binary16 the encoder can produce from a NaN is quiet, every
        // binary32 the decoder produces has its low 13 bits clear.
        for bits in 0..=u16::MAX {
            let h = f16::from_bits(bits);
            assert!(!h.to_f32().is_poison(), "{bits:#06x}");
            assert!(!f16::from_f32(h.to_f32()).is_poison(), "{bits:#06x}");
        }
        for low in [
            0u32, 1, 0x1FFF, 0x2000, 0x5A5A, 0x3F_FFFF, 0x40_0000, 0x7F_FFFF,
        ] {
            for high in [0x7F80_0000u32, 0xFF80_0000] {
                assert!(!f16::from_f32(f32::from_bits(high | low)).is_poison());
            }
        }
        assert!(f32::POISON.is_nan() && f16::POISON.is_nan());
    }

    #[test]
    fn bulk_decoder_is_bit_identical_to_scalar_conversion_everywhere() {
        // Every one of the 65 536 bit patterns, including NaNs, subnormals
        // and infinities, must decode to exactly the same f32 bits as the
        // scalar path.
        let all: Vec<f16> = (0..=u16::MAX).map(f16::from_bits).collect();
        let decoded = write_once(all.len(), |out| decode_to_f32(&all, out));
        for (h, d) in all.iter().zip(&decoded) {
            assert_eq!(
                d.to_bits(),
                h.to_f32().to_bits(),
                "bits {:#06x}",
                h.to_bits()
            );
        }
    }

    fn assert_bulk_encoder_matches_scalar(values: &[f32]) {
        let bulk = write_once(values.len(), |out| encode_from_f32(values, |&v| v, out));
        for (i, (v, h)) in values.iter().zip(&bulk).enumerate() {
            assert_eq!(
                h.to_bits(),
                f16::from_f32(*v).to_bits(),
                "element {i} of {}: f32 bits {:#010x}",
                values.len(),
                v.to_bits()
            );
        }
    }

    #[test]
    fn bulk_encoder_is_bit_identical_to_scalar_conversion_on_every_exponent_and_rounding_edge() {
        // Every upper half-word (sign, exponent, top seven mantissa bits) ×
        // the lower half-words that sit on and beside the rounding ties of
        // the 13 dropped bits: every exponent, both signs, subnormals,
        // overflow to infinity, quiet and signalling NaN payloads.
        const LOW: [u32; 16] = [
            0, 1, 0x0FFF, 0x1000, 0x1001, 0x1FFF, 0x2000, 0x2FFF, 0x3000, 0x3001, 0x7FFF, 0x8000,
            0xEFFF, 0xF000, 0xF001, 0xFFFF,
        ];
        let sweep: Vec<f32> = (0..=u32::from(u16::MAX))
            .flat_map(|high| LOW.map(|low| f32::from_bits(high << 16 | low)))
            .collect();
        assert_eq!(sweep.len(), 1 << 20);
        // Densely packed, a chunk is all-fast or falls back as a whole …
        assert_bulk_encoder_matches_scalar(&sweep);
        // … so also give every pattern a chunk of its own among values the
        // fast path takes: whether *it* falls back is then its own doing,
        // which is what pins the two range bounds.
        let mut isolated = vec![1.0f32; LOW.len() * ENCODE_CHUNK];
        for (high, patterns) in sweep.chunks_exact(LOW.len()).enumerate() {
            for (chunk, pattern) in isolated.chunks_exact_mut(ENCODE_CHUNK).zip(patterns) {
                chunk[high % ENCODE_CHUNK] = *pattern;
            }
            assert_bulk_encoder_matches_scalar(&isolated);
            for chunk in isolated.chunks_exact_mut(ENCODE_CHUNK) {
                chunk[high % ENCODE_CHUNK] = 1.0;
            }
        }
    }

    #[test]
    fn bulk_encoder_falls_back_for_a_special_value_in_any_lane() {
        let specials = [
            f32::NAN,
            f32::from_bits(0x7F80_0001), // signalling NaN
            f32::INFINITY,
            f32::NEG_INFINITY,
            65520.0,            // rounds to binary16 infinity
            -1e6,               // overflows
            3.0e-5,             // binary16 subnormal
            -2.0f32.powi(-26),  // underflows to −0
            f32::from_bits(1),  // binary32 subnormal
            -f32::MIN_POSITIVE, // smallest binary32 normal
        ];
        // Normal values (and ±0, which stay on the fast path) either side
        // of the chunk under test, so a fallback must not leak into its
        // neighbours.
        let normals: Vec<f32> = (0..3 * ENCODE_CHUNK)
            .map(|i| match i % 5 {
                0 => 0.0,
                1 => -0.0,
                _ => (i as f32 - 40.0) * 1.000_123,
            })
            .collect();
        assert_bulk_encoder_matches_scalar(&normals);
        for special in specials {
            for lane in 0..ENCODE_CHUNK {
                let mut values = normals.clone();
                values[ENCODE_CHUNK + lane] = special;
                assert_bulk_encoder_matches_scalar(&values);
            }
        }
    }

    #[test]
    fn bulk_encoder_handles_every_ragged_length_and_strided_sources() {
        let values: Vec<f32> = (0..2 * ENCODE_CHUNK + 1)
            .map(|i| {
                if i % 7 == 3 {
                    1e-7
                } else {
                    i as f32 * 0.37 - 9.0
                }
            })
            .collect();
        for len in 0..=values.len() {
            assert_bulk_encoder_matches_scalar(&values[..len]);
        }
        // The component selector reads one scalar of a wider element.
        let (pairs, _) = values.as_chunks::<2>();
        for part in 0..2 {
            let plane = write_once(pairs.len(), |out| encode_from_f32(pairs, |p| p[part], out));
            let expect: Vec<u16> = pairs
                .iter()
                .map(|p| f16::from_f32(p[part]).to_bits())
                .collect();
            let got: Vec<u16> = plane.iter().map(|h| h.to_bits()).collect();
            assert_eq!(got, expect);
        }
    }
}
