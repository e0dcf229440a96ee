//! Lane kernels for the row codec: the gather-free stages of the LUT
//! fast path (symbol extraction, pattern packing, transition counting,
//! byte↔word shuffles) written as branch-free loops over `u64` lanes.
//!
//! Stable Rust has no portable SIMD type and this crate forbids `unsafe`
//! (so no intrinsics either); the kernels are therefore *manual* lanes —
//! fixed-width SWAR loops with no data-dependent branches, shaped so the
//! optimizer maps them onto vector registers. The [`U64x4`] helper is
//! the explicit four-lane vector the transition counter runs on; the
//! pack/unpack kernels process one packed `u64` window at a time and
//! keep their inner loops branch-free so they unroll cleanly.
//!
//! The table *lookup* itself is a data-dependent gather and stays
//! scalar; with 2^22-entry tables at most it is L1/L2-resident and the
//! out-of-order core overlaps the independent loads. What these kernels
//! remove is everything around the gather: per-symbol bit-reader loops,
//! `Option` branches, and per-symbol transition counts.
//!
//! These are the only tabulated row kernels: [`crate::BlockCodec`]'s
//! `encode_row_into`/`decode_row_into` run them whenever the code's
//! geometry tabulates and fall back to the per-symbol reference path
//! otherwise. `tests/lut_equivalence.rs` proves them bit-identical to
//! that reference path.

use crate::wit::Transitions;

/// The tabulated row kernel [`crate::BlockCodec`] runs: the lane
/// kernels of this module are the only one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Branch-free lane kernels (this module) around the table gather.
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

/// Unpacks `out.len()` consecutive `width`-bit symbols (little-endian
/// bit order) out of packed `words` into one `u16` lane each.
///
/// `words` must extend one word past the last word any symbol's bits
/// touch — the gather is branch-free and unconditionally reads the
/// word-pair a symbol starts in, even when the symbol does not straddle.
/// Symbol widths are at most [`crate::SymbolLut::MAX_SYMBOL_BITS`].
pub fn unpack_symbols(words: &[u64], width: usize, out: &mut [u16]) {
    debug_assert!((1..=16).contains(&width));
    let mask = (1u64 << width) - 1;
    let total = out.len();
    for (w, pair) in words.windows(2).enumerate() {
        let &[lo, hi] = pair else { break };
        let base = w * 64;
        // Symbols whose *start* bit lies in this word.
        let first = base.div_ceil(width).min(total);
        let last = (base + 64).div_ceil(width).min(total);
        let lanes = out.get_mut(first..last).unwrap_or_default();
        for (k, lane) in lanes.iter_mut().enumerate() {
            let sh = ((first + k) * width - base) as u32;
            // `(hi << (63 - sh)) << 1` is `hi << (64 - sh)` without the
            // sh = 0 shift-overflow, and contributes only masked-off
            // bits when the symbol does not straddle the boundary.
            let bits = (lo >> sh) | ((hi << (63 - sh)) << 1);
            *lane = (bits & mask) as u16;
        }
    }
}

/// Branch-free gather of one `width`-bit symbol starting at bit `bit`
/// of packed `words`: unconditionally reads the word pair the symbol
/// starts in, so `words` must extend one word past the last touched bit
/// (as for [`unpack_symbols`]). The single-symbol primitive the fused
/// encode stream ([`crate::SymbolLut::encode_stream`]) is built on.
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

/// Packs `width`-bit symbols back into little-endian `words`
/// (the inverse of [`unpack_symbols`]).
///
/// Every word covering the packed bits is fully *assigned* (not OR-ed),
/// including zeroed slack bits above the last symbol in the final word;
/// words past `ceil(syms.len() * width / 64)` are left untouched.
pub fn pack_symbols(syms: &[u16], width: usize, words: &mut [u64]) {
    debug_assert!((1..=16).contains(&width));
    let mut out = words.iter_mut();
    let mut acc = 0u64;
    let mut acc_bits = 0usize;
    for &sym in syms {
        acc |= u64::from(sym) << acc_bits;
        acc_bits += width;
        if acc_bits >= 64 {
            if let Some(w) = out.next() {
                *w = acc;
            }
            acc_bits -= 64;
            // The bits of `sym` that did not fit (none when the flush
            // landed exactly on the boundary: the shift zeroes out).
            acc = u64::from(sym) >> (width - acc_bits);
        }
    }
    if acc_bits > 0 {
        if let Some(w) = out.next() {
            *w = acc;
        }
    }
}

/// Copies little-endian bytes into `words` as packed `u64`s, appending
/// one zero padding word so the result can feed [`unpack_symbols`].
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
    fn unpack_matches_naive_extraction_at_every_width() {
        let mut state = 0x1234_5678_9ABC_DEFFu64;
        let mut words: Vec<u64> = (0..9)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        words.push(0); // padding word
        for width in 1..=16usize {
            let total = (9 * 64) / width;
            let mut out = vec![0u16; total];
            unpack_symbols(&words, width, &mut out);
            for (s, &lane) in out.iter().enumerate() {
                let mut expect = 0u64;
                for i in 0..width {
                    expect |= bit_of(&words, s * width + i) << i;
                }
                assert_eq!(u64::from(lane), expect, "width {width} symbol {s}");
            }
        }
    }

    #[test]
    fn gather_matches_unpack_lanes() {
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
            let total = (5 * 64) / width;
            let mut out = vec![0u16; total];
            unpack_symbols(&words, width, &mut out);
            for (s, &lane) in out.iter().enumerate() {
                assert_eq!(
                    gather(&words, s * width, width),
                    u64::from(lane),
                    "width {width} symbol {s}"
                );
            }
        }
    }

    #[test]
    fn pack_round_trips_unpack() {
        for width in 1..=16usize {
            let total = 700 / width;
            let syms: Vec<u16> = (0..total)
                .map(|i| ((i * 2654435761) & ((1 << width) - 1)) as u16)
                .collect();
            let words_len = (total * width).div_ceil(64);
            let mut words = vec![u64::MAX; words_len + 1]; // stale junk
            pack_symbols(&syms, width, &mut words);
            assert_eq!(words[words_len], u64::MAX, "pad word untouched");
            words[words_len] = 0;
            let mut back = vec![0u16; total];
            unpack_symbols(&words, width, &mut back);
            assert_eq!(back, syms, "width {width}");
        }
    }

    #[test]
    fn pack_zeroes_slack_bits_of_the_final_word() {
        let syms = [0x7u16; 3]; // 9 bits
        let mut words = [u64::MAX; 1];
        pack_symbols(&syms, 3, &mut words);
        assert_eq!(words[0], 0b111_111_111);
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
