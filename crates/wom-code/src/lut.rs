//! Dense symbol lookup tables: the word-parallel fast path's substrate.
//!
//! Every [`WomCode`] in this crate operates on small symbols (2–16 wits),
//! so the full transition function
//! `(generation, current_pattern, data_value) → (next_pattern, transitions)`
//! fits in a dense table that [`SymbolLut::build`] precompiles once per
//! codec ([`SymbolLut::build_pair`] does the same for two adjacent
//! symbols at once). Row encoding then becomes one fused stream
//! ([`SymbolLut::encode_stream`] / [`SymbolLut::decode_stream`]) over raw
//! `u64` words — no [`Pattern`] construction, no trait dispatch, no
//! per-symbol validation — which is where WOM-codec throughput comes
//! from (cf. the word-level treatment in the WIRE and fine-grain
//! coset-coding PCM literature). A [`crate::block::BlockCodec`] holds
//! one table and runs one stream of it per row.
//!
//! The table is bit-identical to the code it was built from *by
//! construction*: every entry is the memoized result of one
//! [`WomCode::encode`] / [`WomCode::decode`] call, including the
//! implementation-defined decode of non-codewords. Codes whose geometry
//! would need more than [`SymbolLut::MAX_TABLE_ENTRIES`] encode entries
//! (e.g. [`crate::rs2::Rs2Code`] at `k ≥ 5`, wide identity codes) do not
//! get a table; [`crate::block::BlockCodec`] falls back to the per-symbol
//! reference path for them.

use crate::code::WomCode;
use crate::error::WomCodeError;
use crate::simd;
use crate::wit::{Orientation, Pattern, Transitions};

/// Packed encode-table entry layout (one `u32` per entry):
///
/// * bits `0..16` — the next pattern's bits;
/// * bits `16..22` — SET transition count (`0 → 1` flips);
/// * bits `22..28` — RESET transition count (`1 → 0` flips);
/// * bit `31` — entry valid (clear means the symbol code errors for this
///   `(generation, pattern, data)` triple, e.g. an illegal transition).
const NEXT_MASK: u32 = 0xFFFF;
const SETS_SHIFT: u32 = 16;
const RESETS_SHIFT: u32 = 22;
const COUNT_MASK: u32 = 0x3F;
const VALID_BIT: u32 = 1 << 31;

/// A dense, validated lookup table for one symbol [`WomCode`].
///
/// ```
/// use wom_code::{Inverted, Rs23Code, SymbolLut, WomCode};
///
/// let code = Inverted::new(Rs23Code::new());
/// let lut = SymbolLut::build(&code).expect("rs23 is tiny");
/// // Every lookup agrees with the code it memoizes:
/// let erased = code.initial_pattern().bits();
/// let (next, t) = lut.encode(0, erased, 0b01).expect("legal first write");
/// assert_eq!(next, code.encode(0, 0b01, code.initial_pattern()).unwrap().bits());
/// assert_eq!(t.sets, 0); // inverted codes rewrite RESET-only
/// assert_eq!(lut.decode(next), 0b01);
/// ```
#[derive(Debug, Clone)]
pub struct SymbolLut {
    data_bits: u32,
    wits: u32,
    writes: u32,
    values: usize,
    patterns: usize,
    /// `entries[(gen * patterns + pattern) * values + data]`.
    entries: Box<[u32]>,
    /// `decode[pattern]` — the code's decode of every possible pattern.
    decode: Box<[u16]>,
}

impl SymbolLut {
    /// Upper bound on `writes × 2^wits × 2^data_bits`; larger geometries
    /// are not tabulated and use the per-symbol reference path instead.
    pub const MAX_TABLE_ENTRIES: usize = 1 << 22;

    /// Upper bound on a *paired* table's entries ([`Self::build_pair`]).
    /// Much tighter than [`Self::MAX_TABLE_ENTRIES`]: pairing only pays
    /// when the table stays L1-resident (8192 entries = 32 KiB), since
    /// its whole point is halving cheap gathers — a pair table spilling
    /// to L2 would be slower than two L1 lookups.
    pub const MAX_PAIR_ENTRIES: usize = 1 << 13;

    /// Widest symbol (in wits or data bits) a table entry can represent.
    pub const MAX_SYMBOL_BITS: u32 = 16;

    /// Precompiles `code` into dense tables, or `None` when the geometry
    /// is too large to tabulate (see [`Self::MAX_TABLE_ENTRIES`]).
    #[must_use]
    pub fn build<C: WomCode + ?Sized>(code: &C) -> Option<Self> {
        Self::build_capped(code, Self::MAX_TABLE_ENTRIES)
    }

    /// Precompiles the *symbol-pair* product table of `code`: one entry
    /// per `(generation, pattern-pair, data-pair)` triple, so the row
    /// kernels can encode or decode two symbols per gather. The pair of
    /// adjacent symbols is itself a WOM code (the product code: low half
    /// = even symbol, matching the row's little-endian bit order), so
    /// the result is an ordinary [`SymbolLut`] with doubled geometry.
    ///
    /// Returns `None` when the doubled geometry exceeds
    /// [`Self::MAX_SYMBOL_BITS`] per field or [`Self::MAX_PAIR_ENTRIES`]
    /// total — callers then stay on the single-symbol table.
    #[must_use]
    pub fn build_pair<C: WomCode + ?Sized>(code: &C) -> Option<Self> {
        Self::build_capped(&Paired(code), Self::MAX_PAIR_ENTRIES)
    }

    fn build_capped<C: WomCode + ?Sized>(code: &C, cap: usize) -> Option<Self> {
        let data_bits = code.data_bits();
        let wits = code.wits();
        let writes = code.writes();
        if data_bits > Self::MAX_SYMBOL_BITS || wits > Self::MAX_SYMBOL_BITS || writes == 0 {
            return None;
        }
        let values = 1usize << data_bits;
        let patterns = 1usize << wits;
        let total = (writes as usize)
            .checked_mul(patterns)?
            .checked_mul(values)?;
        if total > cap {
            return None;
        }
        let wlen = wits as usize;
        let mut entries = vec![0u32; total].into_boxed_slice();
        for gen in 0..writes {
            for bits in 0..patterns {
                let current = Pattern::from_bits(bits as u64, wlen);
                for data in 0..values {
                    let idx = (gen as usize * patterns + bits) * values + data;
                    if let Ok(next) = code.encode(gen, data as u64, current) {
                        let t = current
                            .transitions_to(next)
                            .expect("encode preserves width");
                        entries[idx] = VALID_BIT
                            | (next.bits() as u32 & NEXT_MASK)
                            | ((t.sets & COUNT_MASK) << SETS_SHIFT)
                            | ((t.resets & COUNT_MASK) << RESETS_SHIFT);
                    }
                }
            }
        }
        let decode = (0..patterns)
            .map(|bits| code.decode(Pattern::from_bits(bits as u64, wlen)) as u16)
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Some(Self {
            data_bits,
            wits,
            writes,
            values,
            patterns,
            entries,
            decode,
        })
    }

    /// Data bits per symbol of the tabulated code.
    #[must_use]
    pub fn data_bits(&self) -> u32 {
        self.data_bits
    }

    /// Wits per symbol of the tabulated code.
    #[must_use]
    pub fn wits(&self) -> u32 {
        self.wits
    }

    /// Write generations the table covers (the code's `writes()`).
    #[must_use]
    pub fn writes(&self) -> u32 {
        self.writes
    }

    /// Total encode-table entries (for size accounting).
    #[must_use]
    pub fn table_entries(&self) -> usize {
        self.entries.len()
    }

    /// Looks up one symbol encode: the next pattern's bits and the wit
    /// transitions from `current`. Returns `None` exactly when the
    /// tabulated code's [`WomCode::encode`] errors for this triple (the
    /// caller re-runs the code to surface the precise error).
    ///
    /// # Panics
    ///
    /// Panics (debug) / indexes out of range (release) if `gen`,
    /// `current`, or `data` exceed the tabulated geometry; the block
    /// codec validates them once per row, not once per symbol.
    #[inline]
    #[must_use]
    pub fn encode(&self, gen: u32, current: u64, data: u64) -> Option<(u64, Transitions)> {
        let e = self.entry(gen, current, data)?;
        Some((
            u64::from(e & NEXT_MASK),
            Transitions {
                sets: (e >> SETS_SHIFT) & COUNT_MASK,
                resets: (e >> RESETS_SHIFT) & COUNT_MASK,
            },
        ))
    }

    /// Like [`Self::encode`] but returns only the next pattern's bits —
    /// the row fast path counts transitions word-parallel instead.
    #[inline]
    #[must_use]
    pub fn encode_bits(&self, gen: u32, current: u64, data: u64) -> Option<u64> {
        self.entry(gen, current, data)
            .map(|e| u64::from(e & NEXT_MASK))
    }

    #[inline]
    fn entry(&self, gen: u32, current: u64, data: u64) -> Option<u32> {
        let idx = (gen as usize * self.patterns + current as usize) * self.values + data as usize;
        let e = self.entries[idx];
        (e & VALID_BIT != 0).then_some(e)
    }

    /// Looks up the decode of a pattern (total over all `2^wits`
    /// patterns, exactly as the tabulated code's [`WomCode::decode`]).
    #[inline]
    #[must_use]
    pub fn decode(&self, pattern: u64) -> u64 {
        u64::from(self.decode[pattern as usize])
    }

    /// Fused row encode: one pass that gathers each of `lanes` symbols'
    /// current pattern from `cur` and data value from `data`, looks the
    /// pair up, and streams the packed next patterns into `out` — no
    /// intermediate lane arrays, so nothing but the table itself
    /// competes for L1 on kilobyte rows. Validity is AND-accumulated
    /// over the raw entries instead of branching per symbol: returns
    /// `false` (with `out` unspecified) when any symbol's triple is
    /// invalid, and the caller re-runs the per-symbol path for the exact
    /// error. An out-of-range `gen` reports invalid.
    ///
    /// `cur` and `data` must extend one word past the last bit gathered
    /// (see [`simd::gather`]); `out` receives
    /// `ceil(lanes × wits / 64)` fully assigned words, zeroed slack
    /// included.
    #[must_use]
    pub fn encode_stream(
        &self,
        gen: u32,
        lanes: usize,
        cur: &[u64],
        data: &[u64],
        out: &mut [u64],
    ) -> bool {
        // Constant-specialize the hot geometries: literal widths turn
        // the variable shifts into immediates and let LLVM hoist the
        // table bounds check out of the loop (the gathered index is
        // provably `< 2^(wits + data_bits)` once the mask is a
        // constant). (6, 4) is the rs23/rs2-k2 pair, (3, 2) their
        // single-symbol path, (8, 2) the flip-t4 pair.
        match (self.wits, self.data_bits) {
            (6, 4) if lanes.is_multiple_of(32) => {
                self.encode_stream_blocked_6_4(gen, lanes, cur, data, out)
            }
            (6, 4) => self.encode_stream_body(gen, lanes, cur, data, out, 6, 4),
            (3, 2) => self.encode_stream_body(gen, lanes, cur, data, out, 3, 2),
            (8, 2) => self.encode_stream_body(gen, lanes, cur, data, out, 8, 2),
            (w, d) => self.encode_stream_body(gen, lanes, cur, data, out, w as usize, d as usize),
        }
    }

    /// Blocked fused encode for the 6-wit/4-data-bit pair geometry (the
    /// ⟨2²⟩²/3 and rs2-k2 pair tables): 32 lanes consume exactly three
    /// current words, two data words, and three output words, so the
    /// inner loop fully unrolls with every shift an immediate and no
    /// per-lane word indexing.
    fn encode_stream_blocked_6_4(
        &self,
        gen: u32,
        lanes: usize,
        cur: &[u64],
        data: &[u64],
        out: &mut [u64],
    ) -> bool {
        debug_assert!(lanes.is_multiple_of(32));
        let span = self.patterns * self.values;
        let start = (gen as usize).saturating_mul(span);
        let table = self
            .entries
            .get(start..start.saturating_add(span))
            .unwrap_or_default();
        let mut valid = u32::MAX;
        for ((cw, dw), ow) in cur
            .chunks_exact(3)
            .zip(data.chunks_exact(2))
            .zip(out.chunks_exact_mut(3))
            .take(lanes / 32)
        {
            let (c0, c1, c2) = match *cw {
                [a, b, c] => (a, b, c),
                _ => (0, 0, 0),
            };
            let (d0, d1) = match *dw {
                [a, b] => (a, b),
                _ => (0, 0),
            };
            let (mut o0, mut o1, mut o2) = (0u64, 0u64, 0u64);
            let mut look = |c: u64, d: u64| {
                let e = table
                    .get((((c & 63) as usize) << 4) | (d & 15) as usize)
                    .copied()
                    .unwrap_or(0);
                valid &= e;
                u64::from(e & NEXT_MASK)
            };
            // The word each lane touches is fixed per range, so every
            // shift below is a compile-time constant after unrolling;
            // lanes 10 and 21 straddle a word boundary on both sides.
            for k in 0..10 {
                o0 |= look(c0 >> (6 * k), d0 >> (4 * k)) << (6 * k);
            }
            let n = look((c0 >> 60) | (c1 << 4), d0 >> 40);
            o0 |= n << 60;
            o1 |= n >> 4;
            for k in 11..16 {
                o1 |= look(c1 >> (6 * k - 64), d0 >> (4 * k)) << (6 * k - 64);
            }
            for k in 16..21 {
                o1 |= look(c1 >> (6 * k - 64), d1 >> (4 * k - 64)) << (6 * k - 64);
            }
            let n = look((c1 >> 62) | (c2 << 2), d1 >> 20);
            o1 |= n << 62;
            o2 |= n >> 2;
            for k in 22..32 {
                o2 |= look(c2 >> (6 * k - 128), d1 >> (4 * k - 64)) << (6 * k - 128);
            }
            if let [a, b, c] = ow {
                *a = o0;
                *b = o1;
                *c = o2;
            }
        }
        valid & VALID_BIT != 0
    }

    /// Fused row decode: the read-side counterpart of
    /// [`Self::encode_stream`] — gathers each of `lanes` patterns from
    /// `cur` (padded as for [`simd::gather`]), looks it up in the decode
    /// table, and streams the packed data values into `out`
    /// (`ceil(lanes × data_bits / 64)` fully assigned words).
    pub fn decode_stream(&self, lanes: usize, cur: &[u64], out: &mut [u64]) {
        match (self.wits, self.data_bits) {
            (6, 4) if lanes.is_multiple_of(32) => self.decode_stream_blocked_6_4(lanes, cur, out),
            (6, 4) => self.decode_stream_body(lanes, cur, out, 6, 4),
            (w, d) => self.decode_stream_body(lanes, cur, out, w as usize, d as usize),
        }
    }

    /// Blocked decode for the 6-wit/4-data-bit pair geometry: 32 lanes
    /// read three words and write exactly two, shifts all immediate.
    fn decode_stream_blocked_6_4(&self, lanes: usize, cur: &[u64], out: &mut [u64]) {
        debug_assert!(lanes.is_multiple_of(32));
        for (cw, ow) in cur
            .chunks_exact(3)
            .zip(out.chunks_exact_mut(2))
            .take(lanes / 32)
        {
            let (c0, c1, c2) = match *cw {
                [a, b, c] => (a, b, c),
                _ => (0, 0, 0),
            };
            let (mut o0, mut o1) = (0u64, 0u64);
            let look = |c: u64| u64::from(self.decode.get((c & 63) as usize).copied().unwrap_or(0));
            // Same constant-shift ranges as the encode kernel; the
            // 4-bit outputs never straddle a word boundary.
            for k in 0..10 {
                o0 |= look(c0 >> (6 * k)) << (4 * k);
            }
            o0 |= look((c0 >> 60) | (c1 << 4)) << 40;
            for k in 11..16 {
                o0 |= look(c1 >> (6 * k - 64)) << (4 * k);
            }
            for k in 16..21 {
                o1 |= look(c1 >> (6 * k - 64)) << (4 * k - 64);
            }
            o1 |= look((c1 >> 62) | (c2 << 2)) << 20;
            for k in 22..32 {
                o1 |= look(c2 >> (6 * k - 128)) << (4 * k - 64);
            }
            if let [a, b] = ow {
                *a = o0;
                *b = o1;
            }
        }
    }

    #[inline(always)]
    fn decode_stream_body(
        &self,
        lanes: usize,
        cur: &[u64],
        out: &mut [u64],
        wbits: usize,
        dbits: usize,
    ) {
        let mut outw = out.iter_mut();
        let mut acc = 0u64;
        let mut acc_bits = 0usize;
        let mut cbit = 0usize;
        for _ in 0..lanes {
            let c = simd::gather(cur, cbit, wbits);
            cbit += wbits;
            let v = u64::from(self.decode.get(c as usize).copied().unwrap_or(0));
            acc |= v << acc_bits;
            acc_bits += dbits;
            if acc_bits >= 64 {
                if let Some(w) = outw.next() {
                    *w = acc;
                }
                acc_bits -= 64;
                acc = v >> (dbits - acc_bits);
            }
        }
        if acc_bits > 0 {
            if let Some(w) = outw.next() {
                *w = acc;
            }
        }
    }

    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn encode_stream_body(
        &self,
        gen: u32,
        lanes: usize,
        cur: &[u64],
        data: &[u64],
        out: &mut [u64],
        wbits: usize,
        dbits: usize,
    ) -> bool {
        let span = self.patterns * self.values;
        let start = (gen as usize).saturating_mul(span);
        let table = self
            .entries
            .get(start..start.saturating_add(span))
            .unwrap_or_default();
        let mut outw = out.iter_mut();
        let mut valid = u32::MAX;
        let mut acc = 0u64;
        let mut acc_bits = 0usize;
        let mut cbit = 0usize;
        let mut dbit = 0usize;
        for _ in 0..lanes {
            let c = simd::gather(cur, cbit, wbits);
            let d = simd::gather(data, dbit, dbits);
            cbit += wbits;
            dbit += dbits;
            let e = table
                .get(((c as usize) << dbits) | d as usize)
                .copied()
                .unwrap_or(0);
            valid &= e;
            let n = u64::from(e & NEXT_MASK);
            acc |= n << acc_bits;
            acc_bits += wbits;
            if acc_bits >= 64 {
                if let Some(w) = outw.next() {
                    *w = acc;
                }
                acc_bits -= 64;
                // Bits of `n` that did not fit (zero on an exact flush).
                acc = n >> (wbits - acc_bits);
            }
        }
        if acc_bits > 0 {
            if let Some(w) = outw.next() {
                *w = acc;
            }
        }
        valid & VALID_BIT != 0
    }
}

/// The product code of two adjacent symbols of the same inner code: wit
/// bits `[0, w)` hold the even (low) symbol and `[w, 2w)` the odd one,
/// matching the row's little-endian symbol order; the data halves are
/// split the same way. Encoding/decoding a pair is exactly encoding each
/// half independently, so the product inherits every [`WomCode`]
/// contract guarantee from the inner code.
#[derive(Debug)]
struct Paired<'a, C: ?Sized>(&'a C);

impl<C: WomCode + ?Sized> WomCode for Paired<'_, C> {
    fn data_bits(&self) -> u32 {
        self.0.data_bits() * 2
    }

    fn wits(&self) -> u32 {
        self.0.wits() * 2
    }

    fn writes(&self) -> u32 {
        self.0.writes()
    }

    fn orientation(&self) -> Orientation {
        self.0.orientation()
    }

    fn encode(&self, gen: u32, data: u64, current: Pattern) -> Result<Pattern, WomCodeError> {
        let w = self.0.wits() as usize;
        let d = self.0.data_bits();
        let wmask = (1u64 << w) - 1;
        let dmask = (1u64 << d) - 1;
        let bits = current.bits();
        let lo = self
            .0
            .encode(gen, data & dmask, Pattern::from_bits(bits & wmask, w))?;
        let hi = self.0.encode(
            gen,
            (data >> d) & dmask,
            Pattern::from_bits((bits >> w) & wmask, w),
        )?;
        Ok(Pattern::from_bits(lo.bits() | (hi.bits() << w), 2 * w))
    }

    fn decode(&self, pattern: Pattern) -> u64 {
        let w = self.0.wits() as usize;
        let d = self.0.data_bits();
        let wmask = (1u64 << w) - 1;
        let bits = pattern.bits();
        self.0.decode(Pattern::from_bits(bits & wmask, w))
            | (self.0.decode(Pattern::from_bits((bits >> w) & wmask, w)) << d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flip::FlipCode;
    use crate::identity::IdentityCode;
    use crate::inverted::Inverted;
    use crate::rs2::Rs2Code;
    use crate::rs23::Rs23Code;

    #[test]
    fn rs23_table_matches_code_everywhere() {
        let code = Rs23Code::new();
        let lut = SymbolLut::build(&code).unwrap();
        assert_eq!(lut.table_entries(), 2 * 8 * 4);
        for gen in 0..2 {
            for bits in 0..8u64 {
                let p = Pattern::from_bits(bits, 3);
                for data in 0..4u64 {
                    match code.encode(gen, data, p) {
                        Ok(next) => {
                            let (nb, t) = lut.encode(gen, bits, data).unwrap();
                            assert_eq!(nb, next.bits());
                            assert_eq!(t, p.transitions_to(next).unwrap());
                        }
                        Err(_) => assert!(lut.encode(gen, bits, data).is_none()),
                    }
                }
                assert_eq!(lut.decode(bits), code.decode(p));
            }
        }
    }

    #[test]
    fn inverted_codes_tabulate_reset_only_rewrites() {
        let code = Inverted::new(Rs23Code::new());
        let lut = SymbolLut::build(&code).unwrap();
        for data in 0..4u64 {
            let (first, t) = lut.encode(0, 0b111, data).unwrap();
            assert_eq!(t.sets, 0, "inverted first writes are RESET-only");
            for y in 0..4u64 {
                let (_, t2) = lut.encode(1, first, y).unwrap();
                assert_eq!(t2.sets, 0, "inverted rewrites are RESET-only");
            }
        }
    }

    #[test]
    fn oversized_geometries_are_refused() {
        // k = 5 ⇒ 31 wits ⇒ 2^31 patterns: far past the table budget.
        assert!(SymbolLut::build(&Rs2Code::new(5).unwrap()).is_none());
        assert!(SymbolLut::build(&IdentityCode::new(32).unwrap()).is_none());
        // Flip t = 16 is 2 × 16 × 65536 entries: comfortably inside.
        assert!(SymbolLut::build(&FlipCode::new(16).unwrap()).is_some());
        assert!(SymbolLut::build(&FlipCode::new(24).unwrap()).is_none());
    }

    /// Reads `width` bits at bit `at` of `words`, one bit at a time.
    fn bits_at(words: &[u64], at: usize, width: usize) -> u64 {
        (0..width).fold(0, |acc, i| {
            acc | (((words[(at + i) / 64] >> ((at + i) % 64)) & 1) << i)
        })
    }

    /// ORs `value` into `words` as `width` bits at bit `at`.
    fn put_bits(words: &mut [u64], at: usize, width: usize, value: u64) {
        for i in 0..width {
            words[(at + i) / 64] |= ((value >> i) & 1) << ((at + i) % 64);
        }
    }

    /// The encode stream's reference: one [`SymbolLut::encode_bits`]
    /// lookup per lane, or `None` when any lane's triple is invalid.
    fn encode_per_lane(
        lut: &SymbolLut,
        gen: u32,
        lanes: usize,
        cur: &[u64],
        data: &[u64],
    ) -> Option<Vec<u64>> {
        let (w, d) = (lut.wits() as usize, lut.data_bits() as usize);
        let mut out = vec![0u64; (lanes * w).div_ceil(64)];
        for s in 0..lanes {
            let next = lut.encode_bits(gen, bits_at(cur, s * w, w), bits_at(data, s * d, d))?;
            put_bits(&mut out, s * w, w, next);
        }
        Some(out)
    }

    /// The decode stream's reference: one [`SymbolLut::decode`] lookup
    /// per lane.
    fn decode_per_lane(lut: &SymbolLut, lanes: usize, cur: &[u64]) -> Vec<u64> {
        let (w, d) = (lut.wits() as usize, lut.data_bits() as usize);
        let mut out = vec![0u64; (lanes * d).div_ceil(64)];
        for s in 0..lanes {
            put_bits(&mut out, s * d, d, lut.decode(bits_at(cur, s * w, w)));
        }
        out
    }

    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn streams_match_per_symbol_lookups() {
        // The rs23 single table runs the (3, 2) bodies; its pair table
        // the blocked (6, 4) kernels at 128 lanes (a multiple of 32) and
        // the dynamic (6, 4) bodies at 50; rs2 k=3 (7 wits, 3 data bits)
        // the generic bodies, with symbols straddling words at irregular
        // offsets. Trial 0 starts from the erased image, where every
        // symbol encodes legally; the others from arbitrary (possibly
        // corrupt) images, where the verdict may go either way.
        let code = Inverted::new(Rs23Code::new());
        let single = SymbolLut::build(&code).unwrap();
        let pair = SymbolLut::build_pair(&code).unwrap();
        let wide = SymbolLut::build(&Inverted::new(Rs2Code::new(3).unwrap())).unwrap();
        let mut rand = xorshift(0x0123_4567_89AB_CDEF);
        for (lut, lanes) in [(&single, 100usize), (&pair, 128), (&pair, 50), (&wide, 128)] {
            let cur_len = (lanes * lut.wits() as usize).div_ceil(64);
            let dat_len = (lanes * lut.data_bits() as usize).div_ceil(64);
            for gen in 0..2 {
                for trial in 0..8 {
                    let at = format!("wits {} lanes {lanes} gen {gen} trial {trial}", lut.wits());
                    let cur_words: Vec<u64> = (0..cur_len)
                        .map(|_| if trial == 0 { u64::MAX } else { rand() })
                        .chain([0])
                        .collect();
                    let data_words: Vec<u64> = (0..dat_len).map(|_| rand()).chain([0]).collect();
                    let mut out = vec![u64::MAX; cur_len];
                    let ok = lut.encode_stream(gen, lanes, &cur_words, &data_words, &mut out);
                    let expect = encode_per_lane(lut, gen, lanes, &cur_words, &data_words);
                    assert_eq!(ok, expect.is_some(), "{at}");
                    assert!(ok || trial != 0, "erased image rejected: {at}");
                    if let Some(expect) = expect {
                        assert_eq!(out, expect, "{at}");
                    }
                    let mut got = vec![u64::MAX; dat_len];
                    lut.decode_stream(lanes, &cur_words, &mut got);
                    assert_eq!(got, decode_per_lane(lut, lanes, &cur_words), "{at}");
                }
            }
        }
        // Out-of-range generation: invalid, no panic.
        let pad = [0u64; 2];
        let mut out = [0u64; 1];
        assert!(!single.encode_stream(7, 4, &pad, &pad, &mut out));
    }

    #[test]
    fn pair_table_is_the_product_of_single_lookups() {
        let code = Inverted::new(Rs23Code::new());
        let single = SymbolLut::build(&code).unwrap();
        let pair = SymbolLut::build_pair(&code).unwrap();
        assert_eq!(pair.wits(), 6);
        assert_eq!(pair.data_bits(), 4);
        assert_eq!(pair.writes(), 2);
        assert_eq!(pair.table_entries(), 2 * 64 * 16);
        for gen in 0..2 {
            for cur in 0..64u64 {
                for data in 0..16u64 {
                    let lo = single.encode(gen, cur & 7, data & 3);
                    let hi = single.encode(gen, cur >> 3, data >> 2);
                    match (lo, hi) {
                        (Some((ln, lt)), Some((hn, ht))) => {
                            let (n, t) = pair.encode(gen, cur, data).unwrap();
                            assert_eq!(n, ln | (hn << 3));
                            assert_eq!(t.sets, lt.sets + ht.sets);
                            assert_eq!(t.resets, lt.resets + ht.resets);
                        }
                        _ => assert!(pair.encode(gen, cur, data).is_none()),
                    }
                }
                assert_eq!(
                    pair.decode(cur),
                    single.decode(cur & 7) | (single.decode(cur >> 3) << 2)
                );
            }
        }
    }

    #[test]
    fn pair_tables_obey_the_tighter_cap() {
        // rs2 k=3 pairs to 14 wits: within MAX_SYMBOL_BITS but
        // 2 x 2^14 x 2^6 entries is far past the L1-resident pair cap.
        assert!(SymbolLut::build_pair(&Rs2Code::new(3).unwrap()).is_none());
        // flip t=7 tabulates singly but its pair is 7 x 2^14 x 4 entries.
        assert!(SymbolLut::build(&FlipCode::new(7).unwrap()).is_some());
        assert!(SymbolLut::build_pair(&FlipCode::new(7).unwrap()).is_none());
        // flip t=4 pairs to 4 x 2^8 x 4 = 4096 entries: eligible.
        assert!(SymbolLut::build_pair(&FlipCode::new(4).unwrap()).is_some());
        // rs2 k=4 pairs to 30 wits: past MAX_SYMBOL_BITS entirely.
        assert!(SymbolLut::build_pair(&Rs2Code::new(4).unwrap()).is_none());
    }

    #[test]
    fn geometry_accessors_mirror_the_code() {
        let code = Rs2Code::new(3).unwrap();
        let lut = SymbolLut::build(&code).unwrap();
        assert_eq!(lut.data_bits(), 3);
        assert_eq!(lut.wits(), 7);
        assert_eq!(lut.writes(), 2);
    }
}
