//! Word primitives of the row codec's fused streams: the branch-free
//! symbol [`gather`], transition counting and byte↔word shuffles,
//! written over `u64` words.
//!
//! Stable Rust has no portable SIMD type and this crate forbids `unsafe`
//! (so no intrinsics either); the primitives are therefore *manual*
//! lanes — fixed-width SWAR loops with no data-dependent branches,
//! shaped so the optimizer maps them onto vector registers. The
//! [`U64x4`] helper is the explicit four-lane vector the transition
//! counter runs on.
//!
//! The table *lookup* itself is a data-dependent gather and stays
//! scalar; with 2^22-entry tables at most it is L1/L2-resident and the
//! out-of-order core overlaps the independent loads. What these
//! primitives remove is everything around the lookup: per-symbol
//! bit-reader loops, `Option` branches, and per-symbol transition
//! counts.
//!
//! [`crate::BlockCodec`]'s `encode_row_into`/`decode_row_into` run one
//! [`crate::SymbolLut`] stream over these words whenever the code's
//! geometry tabulates and fall back to the per-symbol reference path
//! otherwise. `tests/lut_equivalence.rs` proves them bit-identical to
//! that reference path.

use crate::wit::Transitions;

/// The tabulated row kernel [`crate::BlockCodec`] runs: one fused
/// [`crate::SymbolLut`] stream over this module's word primitives is the
/// only one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// One fused table stream per row, built on this module's primitives.
    Lanes,
}

/// Four `u64` lanes processed element-wise — the manual vector type the
/// transition kernel is written in. A plain tuple struct the optimizer
/// lowers to vector registers where profitable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct U64x4(u64, u64, u64, u64);

impl U64x4 {
    /// Loads four lanes from the front of `words`, zero-padding a short
    /// slice.
    #[inline]
    #[must_use]
    pub fn load(words: &[u64]) -> Self {
        let mut it = words.iter().copied();
        Self(
            it.next().unwrap_or(0),
            it.next().unwrap_or(0),
            it.next().unwrap_or(0),
            it.next().unwrap_or(0),
        )
    }

    /// Lane-wise `!self & other`, popcounted and summed: the number of
    /// `0 → 1` flips when `self` is the old image and `other` the new.
    #[inline]
    #[must_use]
    pub fn andnot_count_ones(self, other: Self) -> u32 {
        (!self.0 & other.0).count_ones()
            + (!self.1 & other.1).count_ones()
            + (!self.2 & other.2).count_ones()
            + (!self.3 & other.3).count_ones()
    }
}

/// Counts `(sets, resets)` between two packed row images, four words per
/// step. Zips to the shorter slice, so a padded staging buffer may be
/// compared against an exact-length one.
#[must_use]
pub fn xor_transitions(old: &[u64], new: &[u64]) -> Transitions {
    let n = old.len().min(new.len());
    let old = old.get(..n).unwrap_or_default();
    let new = new.get(..n).unwrap_or_default();
    let mut t = Transitions::default();
    let mut old4 = old.chunks_exact(4);
    let mut new4 = new.chunks_exact(4);
    for (o, n) in (&mut old4).zip(&mut new4) {
        let o = U64x4::load(o);
        let n = U64x4::load(n);
        t.sets += o.andnot_count_ones(n);
        t.resets += n.andnot_count_ones(o);
    }
    for (&o, &n) in old4.remainder().iter().zip(new4.remainder()) {
        t.sets += (!o & n).count_ones();
        t.resets += (o & !n).count_ones();
    }
    t
}

/// Branch-free gather of one `width`-bit symbol starting at bit `bit`
/// of packed `words`: unconditionally reads the word pair the symbol
/// starts in, so `words` must extend one word past the last touched bit.
/// The single-symbol primitive the fused streams
/// ([`crate::SymbolLut::encode_stream`] and
/// [`crate::SymbolLut::decode_stream`]) are built on.
#[inline]
#[must_use]
pub fn gather(words: &[u64], bit: usize, width: usize) -> u64 {
    debug_assert!((1..=16).contains(&width));
    let word = bit / 64;
    let sh = (bit % 64) as u32;
    let lo = words.get(word).copied().unwrap_or(0);
    let hi = words.get(word + 1).copied().unwrap_or(0);
    // `(hi << (63 - sh)) << 1` is `hi << (64 - sh)` without the sh = 0
    // shift-overflow; the mask drops it when the symbol fits in `lo`.
    ((lo >> sh) | ((hi << (63 - sh)) << 1)) & ((1u64 << width) - 1)
}

/// Copies little-endian bytes into `words` as packed `u64`s, appending
/// one zero padding word so the result can feed [`gather`].
pub fn bytes_to_words(bytes: &[u8], words: &mut Vec<u64>) {
    words.clear();
    let mut chunks = bytes.chunks_exact(8);
    words.extend((&mut chunks).map(|c| {
        let mut b = [0u8; 8];
        b.copy_from_slice(c);
        u64::from_le_bytes(b)
    }));
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut b = [0u8; 8];
        b.iter_mut().zip(tail).for_each(|(d, &s)| *d = s);
        words.push(u64::from_le_bytes(b));
    }
    words.push(0);
}

/// Writes packed `words` back out as little-endian bytes (the inverse of
/// [`bytes_to_words`]; any padding word past `out.len()` bytes is
/// ignored).
pub fn words_to_bytes(words: &[u64], out: &mut [u8]) {
    for (chunk, &w) in out.chunks_mut(8).zip(words) {
        let b = w.to_le_bytes();
        let src = b.get(..chunk.len()).unwrap_or_default();
        chunk.copy_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive single-bit extraction oracle.
    fn bit_of(words: &[u64], bit: usize) -> u64 {
        (words[bit / 64] >> (bit % 64)) & 1
    }

    #[test]
    fn gather_matches_naive_extraction_at_every_width() {
        let mut state = 0xDEAD_BEEF_1234_5678u64;
        let mut words: Vec<u64> = (0..5)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        words.push(0); // padding word
        for width in 1..=16usize {
            for s in 0..(5 * 64) / width {
                let mut expect = 0u64;
                for i in 0..width {
                    expect |= bit_of(&words, s * width + i) << i;
                }
                assert_eq!(
                    gather(&words, s * width, width),
                    expect,
                    "width {width} symbol {s}"
                );
            }
        }
    }

    #[test]
    fn byte_word_shuffles_round_trip() {
        let bytes: Vec<u8> = (0..61).map(|i| (i * 7 + 3) as u8).collect();
        let mut words = Vec::new();
        bytes_to_words(&bytes, &mut words);
        assert_eq!(words.len(), 9, "8 data words + 1 pad");
        assert_eq!(words[8], 0);
        let mut back = vec![0u8; 61];
        words_to_bytes(&words, &mut back);
        assert_eq!(back, bytes);
    }

    #[test]
    fn xor_transitions_matches_naive_popcount() {
        let old: Vec<u64> = (0..11u64)
            .map(|i| i.wrapping_mul(0x0123_4567_89AB_CDEF))
            .collect();
        let new: Vec<u64> = (0..11u64)
            .map(|i| i.wrapping_mul(0xFEDC_BA98_7654_3210))
            .collect();
        let t = xor_transitions(&old, &new);
        let mut sets = 0;
        let mut resets = 0;
        for (o, n) in old.iter().zip(&new) {
            sets += (!o & n).count_ones();
            resets += (o & !n).count_ones();
        }
        assert_eq!((t.sets, t.resets), (sets, resets));
        // Padded staging vs exact-length image: zip to the shorter.
        let padded: Vec<u64> = new.iter().copied().chain([0]).collect();
        assert_eq!(xor_transitions(&old, &padded), t);
    }
}
