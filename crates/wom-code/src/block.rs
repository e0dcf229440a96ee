//! Row-level (block) encoding: apply a symbol WOM-code across a whole
//! memory row, as the wide-column and hidden-page organizations do.
//!
//! A PCM row holds thousands of bits; the WOM-code operates on small symbols
//! (2 data bits → 3 wits for the ⟨2²⟩²/3 code). [`BlockCodec`] tiles the
//! symbol code across the row, and [`WitBuffer`] is the bit-addressable cell
//! array the encoded wits live in.

use crate::code::WomCode;
use crate::error::WomCodeError;
use crate::lut::SymbolLut;
use crate::simd::{self, Kernel};
use crate::wit::{Pattern, Transitions};
use std::sync::Arc;

/// A growable bit buffer representing the wit states of a memory row.
///
/// Bits are stored little-endian within `u64` words; chunk accessors may
/// cross word boundaries.
///
/// ```
/// use wom_code::WitBuffer;
///
/// let mut buf = WitBuffer::zeros(128);
/// buf.set_chunk(62, 4, 0b1011); // straddles the first word boundary
/// assert_eq!(buf.chunk(62, 4), 0b1011);
/// assert_eq!(buf.count_ones(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WitBuffer {
    words: Vec<u64>,
    len: usize,
}

impl WitBuffer {
    /// Creates an all-zeros buffer of `len` bits.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self {
            // womlint::allow(hotpath/transitive, reason = "buffer constructor: rows allocate once at materialization/erase and are reused for every later access")
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates an all-ones buffer of `len` bits.
    #[must_use]
    pub fn ones(len: usize) -> Self {
        let mut buf = Self {
            // womlint::allow(hotpath/transitive, reason = "buffer constructor: rows allocate once at materialization/erase and are reused for every later access")
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        buf.mask_tail();
        buf
    }

    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Buffer length in bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer has zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of `1` bits in the buffer.
    #[must_use]
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Reads a `width`-bit chunk starting at bit `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `offset + width > len()`.
    #[must_use]
    pub fn chunk(&self, offset: usize, width: usize) -> u64 {
        assert!(width <= 64, "chunk width {width} exceeds 64");
        assert!(
            offset + width <= self.len,
            "chunk [{offset}, {offset}+{width}) out of range"
        );
        if width == 0 {
            return 0;
        }
        let word = offset / 64;
        let shift = offset % 64;
        let mut value = self.words[word] >> shift;
        if shift + width > 64 {
            value |= self.words[word + 1] << (64 - shift);
        }
        if width < 64 {
            value &= (1u64 << width) - 1;
        }
        value
    }

    /// Writes a `width`-bit chunk starting at bit `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`, `offset + width > len()`, or `value` does not
    /// fit in `width` bits.
    pub fn set_chunk(&mut self, offset: usize, width: usize, value: u64) {
        assert!(width <= 64, "chunk width {width} exceeds 64");
        assert!(
            offset + width <= self.len,
            "chunk [{offset}, {offset}+{width}) out of range"
        );
        if width < 64 {
            assert!(
                value < (1u64 << width),
                "value {value:#x} does not fit in {width} bits"
            );
        }
        if width == 0 {
            return;
        }
        let word = offset / 64;
        let shift = offset % 64;
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        self.words[word] &= !(mask << shift);
        self.words[word] |= value << shift;
        if shift + width > 64 {
            let high_bits = shift + width - 64;
            let high_mask = (1u64 << high_bits) - 1;
            self.words[word + 1] &= !high_mask;
            self.words[word + 1] |= value >> (64 - shift);
        }
    }

    /// Copies `other`'s bits into `self` without reallocating — the
    /// in-place counterpart of `clone` for hot loops that reset a buffer
    /// to a saved state (e.g. re-erasing a row between benchmark
    /// iterations).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn copy_from(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "copy_from requires equal lengths");
        self.words.copy_from_slice(&other.words);
    }

    /// Counts the `(sets, resets)` transitions from `self` to `other`.
    ///
    /// # Errors
    ///
    /// Returns [`WomCodeError::LengthMismatch`] if lengths differ.
    pub fn transitions_to(&self, other: &Self) -> Result<Transitions, WomCodeError> {
        if self.len != other.len {
            return Err(WomCodeError::LengthMismatch {
                expected: self.len,
                actual: other.len,
            });
        }
        let mut t = Transitions::default();
        for (a, b) in self.words.iter().zip(&other.words) {
            t.sets += (!a & b).count_ones();
            t.resets += (a & !b).count_ones();
        }
        Ok(t)
    }
}

/// Tiles a symbol-level [`WomCode`] across a memory row.
///
/// The codec is stateless: the caller owns the [`WitBuffer`] (the cell
/// array) and the write-generation counter, mirroring how the memory
/// controller in the paper tracks per-row rewrite state.
///
/// ```
/// use wom_code::{BlockCodec, Inverted, Rs23Code};
///
/// # fn main() -> Result<(), wom_code::WomCodeError> {
/// // A 64-bit data row stored in the inverted (PCM) RS code: 96 wits.
/// let codec = BlockCodec::new(Inverted::new(Rs23Code::new()), 64)?;
/// assert_eq!(codec.encoded_bits(), 96);
///
/// let mut cells = codec.erased_buffer();
/// let t1 = codec.encode_row(0, &0xDEAD_BEEF_u64.to_le_bytes(), &mut cells)?;
/// assert_eq!(t1.sets, 0); // first write is pure RESET in inverted code
/// assert_eq!(codec.decode_row(&cells)?, 0xDEAD_BEEF_u64.to_le_bytes());
///
/// let t2 = codec.encode_row(1, &0x1234_5678_u64.to_le_bytes(), &mut cells)?;
/// assert_eq!(t2.sets, 0); // rewrite is pure RESET too
/// assert_eq!(codec.decode_row(&cells)?, 0x1234_5678_u64.to_le_bytes());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BlockCodec<C> {
    code: C,
    symbols: usize,
    data_bits: usize,
    /// Precompiled symbol tables (shared across clones); `None` when the
    /// code's geometry is too large to tabulate — the per-symbol
    /// reference path is used then.
    lut: Option<Arc<SymbolLut>>,
    /// Symbol-*pair* product table ([`SymbolLut::build_pair`]): lets the
    /// lane kernels process two symbols per gather. Built only when the
    /// row tiles an even number of symbols and the doubled geometry
    /// stays L1-resident; `None` keeps the single-symbol lanes.
    pair_lut: Option<Arc<SymbolLut>>,
}

impl<C: WomCode> BlockCodec<C> {
    /// Creates a codec for rows of `row_data_bits` data bits.
    ///
    /// # Errors
    ///
    /// Returns [`WomCodeError::LengthMismatch`] if `row_data_bits` is zero,
    /// not a multiple of 8 (rows are byte-addressed), or not divisible by
    /// the code's `data_bits()`.
    pub fn new(code: C, row_data_bits: usize) -> Result<Self, WomCodeError> {
        let per_symbol = code.data_bits() as usize;
        if row_data_bits == 0
            || !row_data_bits.is_multiple_of(8)
            || !row_data_bits.is_multiple_of(per_symbol)
        {
            return Err(WomCodeError::LengthMismatch {
                expected: per_symbol.max(8),
                actual: row_data_bits,
            });
        }
        let lut = SymbolLut::build(&code).map(Arc::new);
        let symbols = row_data_bits / per_symbol;
        let pair_lut = (lut.is_some() && symbols.is_multiple_of(2))
            .then(|| SymbolLut::build_pair(&code).map(Arc::new))
            .flatten();
        Ok(Self {
            code,
            symbols,
            data_bits: row_data_bits,
            lut,
            pair_lut,
        })
    }

    /// Whether row calls actually run the tabulated kernels. `false`
    /// means the geometry exceeded [`SymbolLut::MAX_TABLE_ENTRIES`] and
    /// every `*_row_into` call silently takes the per-symbol reference
    /// path — bench bins log this so reported numbers cannot quietly mix
    /// fast and slow paths.
    #[must_use]
    pub fn is_accelerated(&self) -> bool {
        self.lut.is_some()
    }

    /// The kernel row calls run when [`Self::is_accelerated`]: always
    /// [`Kernel::Lanes`]. Benchmark reports print it as the `kernel` of
    /// their provenance.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        Kernel::Lanes
    }

    /// The symbol code used per chunk.
    #[must_use]
    pub fn code(&self) -> &C {
        &self.code
    }

    /// Number of code symbols tiled across a row.
    #[must_use]
    pub fn symbols(&self) -> usize {
        self.symbols
    }

    /// Raw data bits per row.
    #[must_use]
    pub fn data_bits(&self) -> usize {
        self.data_bits
    }

    /// Encoded wits per row (`symbols × code.wits()`), e.g. 1.5× the data
    /// bits for the ⟨2²⟩²/3 code — the wide-column width of the paper.
    #[must_use]
    pub fn encoded_bits(&self) -> usize {
        self.symbols * self.code.wits() as usize
    }

    /// Rewrite limit of the row (the symbol code's `writes()`).
    #[must_use]
    pub fn rewrite_limit(&self) -> u32 {
        self.code.writes()
    }

    /// A freshly erased cell buffer for one row.
    #[must_use]
    pub fn erased_buffer(&self) -> WitBuffer {
        match self.code.orientation() {
            crate::wit::Orientation::SetOnly => WitBuffer::zeros(self.encoded_bits()),
            crate::wit::Orientation::ResetOnly => WitBuffer::ones(self.encoded_bits()),
        }
    }

    /// Encodes `data` (exactly `data_bits()/8` bytes) into `cells` at write
    /// generation `gen`, returning the aggregate wit transitions — the
    /// quantity that determines the physical write latency.
    ///
    /// # Errors
    ///
    /// * [`WomCodeError::LengthMismatch`] if `data` or `cells` have the
    ///   wrong size.
    /// * Any error from the symbol code (exhausted generation, illegal
    ///   transition) — in that case `cells` is left unmodified.
    pub fn encode_row(
        &self,
        gen: u32,
        data: &[u8],
        cells: &mut WitBuffer,
    ) -> Result<Transitions, WomCodeError> {
        if self.lut.is_some() {
            let mut scratch = RowScratch::new();
            self.encode_row_into(gen, data, cells, &mut scratch)
        } else {
            self.encode_row_reference(gen, data, cells)
        }
    }

    /// The per-symbol reference implementation of [`Self::encode_row`]:
    /// one [`WomCode::encode`] call per symbol, with a `Vec<Pattern>`
    /// staging buffer. Kept public as the validation oracle the LUT fast
    /// path is tested against (and as the only path for codes too large
    /// to tabulate).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::encode_row`].
    pub fn encode_row_reference(
        &self,
        gen: u32,
        data: &[u8],
        cells: &mut WitBuffer,
    ) -> Result<Transitions, WomCodeError> {
        self.check_row_args(data.len(), cells.len())?;
        let dbits = self.code.data_bits() as usize;
        let wbits = self.code.wits() as usize;
        // Two-pass: validate all symbols first so a failure cannot leave the
        // row half-written.
        let mut new_patterns = Vec::with_capacity(self.symbols);
        let mut total = Transitions::default();
        for s in 0..self.symbols {
            let value = read_bits(data, s * dbits, dbits);
            let current = Pattern::from_bits(cells.chunk(s * wbits, wbits), wbits);
            let next = self.code.encode(gen, value, current)?;
            let t = current.transitions_to(next)?;
            total.sets += t.sets;
            total.resets += t.resets;
            new_patterns.push(next);
        }
        for (s, p) in new_patterns.into_iter().enumerate() {
            cells.set_chunk(s * wbits, wbits, p.bits());
        }
        Ok(total)
    }

    /// Decodes the row's cells back into raw data bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WomCodeError::LengthMismatch`] if `cells` has the wrong
    /// size.
    pub fn decode_row(&self, cells: &WitBuffer) -> Result<Vec<u8>, WomCodeError> {
        let mut out = vec![0u8; self.data_bits / 8];
        let mut scratch = RowScratch::new();
        self.decode_row_into(cells, &mut out, &mut scratch)?;
        Ok(out)
    }

    /// Tabulated row encode into caller-provided scratch: one pass of
    /// branch-free gathers ([`simd::gather`]) and AND-accumulated table
    /// lookups ([`SymbolLut::encode_stream`]) stages the next row image
    /// in `scratch`, via the symbol-*pair* table (two symbols per lookup)
    /// when the geometry allowed building one — no heap allocation once
    /// `scratch` has warmed up. Transition totals come from whole-word
    /// XOR popcounts rather than per-symbol counting.
    ///
    /// Behaviour is bit-identical to [`Self::encode_row_reference`],
    /// including the all-or-nothing guarantee: on any error `cells` is
    /// left unmodified. Codes too large to tabulate (not
    /// [`Self::is_accelerated`]) fall back to the reference path, which
    /// allocates its staging buffer per call.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::encode_row`].
    pub fn encode_row_into(
        &self,
        gen: u32,
        data: &[u8],
        cells: &mut WitBuffer,
        scratch: &mut RowScratch,
    ) -> Result<Transitions, WomCodeError> {
        let Some(lut) = self.lut.as_deref() else {
            return self.encode_row_reference(gen, data, cells);
        };
        self.check_row_args(data.len(), cells.len())?;
        if gen >= self.code.writes() {
            return Err(WomCodeError::GenerationExhausted {
                requested: gen,
                limit: self.code.writes(),
            });
        }
        let (table, paired) = match self.pair_lut.as_deref() {
            Some(pair) => (pair, true),
            None => (lut, false),
        };
        let lanes = if paired {
            self.symbols / 2
        } else {
            self.symbols
        };
        let RowScratch {
            words,
            cur_words,
            io_words,
            cur_syms,
            io_syms,
        } = scratch;
        fit(words, cells.words.len());
        // The gathers are branch-free and always read a word pair, so
        // the current image is copied once with a padding word (the data
        // bytes get theirs from `bytes_to_words`).
        cur_words.clear();
        cur_words.extend_from_slice(&cells.words);
        cur_words.push(0);
        simd::bytes_to_words(data, io_words);
        if !table.encode_stream(gen, lanes, cur_words, io_words, words) {
            // Cold path: unpack the lanes and re-run the symbol code to
            // surface the exact error the reference path would produce.
            fit(cur_syms, lanes);
            fit(io_syms, lanes);
            simd::unpack_symbols(cur_words, table.wits() as usize, cur_syms);
            simd::unpack_symbols(io_words, table.data_bits() as usize, io_syms);
            return Err(if paired {
                self.first_symbol_error_paired(gen, cur_syms, io_syms)
            } else {
                self.first_symbol_error(gen, cur_syms, io_syms)
            });
        }
        let total = simd::xor_transitions(&cells.words, words);
        for (dst, &src) in cells.words.iter_mut().zip(words.iter()) {
            *dst = src;
        }
        Ok(total)
    }

    /// Decodes the row's cells into a caller-provided byte slice without
    /// allocating — the word-parallel counterpart of
    /// [`Self::decode_row`]. Uses the lane kernels over the [`SymbolLut`]
    /// when available and the per-symbol reference decode otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`WomCodeError::LengthMismatch`] if `cells` or `out` have
    /// the wrong size.
    pub fn decode_row_into(
        &self,
        cells: &WitBuffer,
        out: &mut [u8],
        scratch: &mut RowScratch,
    ) -> Result<(), WomCodeError> {
        let Some(lut) = self.lut.as_deref() else {
            return self.decode_row_reference(cells, out);
        };
        self.check_row_args(out.len(), cells.len())?;
        self.decode_row_lanes(lut, cells, out, scratch);
        Ok(())
    }

    /// Lane decode: one fused gather-and-pack sweep over the pair or
    /// single-symbol table, or, for geometries whose `2^wits × data_bits`
    /// fits in 64 bits, a branch-free unpack, the register-resident
    /// broadcast table (no memory lookup at all) and a branch-free repack
    /// into bytes.
    fn decode_row_lanes(
        &self,
        lut: &SymbolLut,
        cells: &WitBuffer,
        out: &mut [u8],
        scratch: &mut RowScratch,
    ) {
        scratch.cur_words.clear();
        scratch.cur_words.extend_from_slice(&cells.words);
        scratch.cur_words.push(0);
        // The pair table halves every lane pass (two symbols per
        // lookup) and decodes in one fused gather-and-pack sweep with
        // no intermediate lane arrays.
        if let Some(pair) = self.pair_lut.as_deref() {
            fit(&mut scratch.io_words, self.data_bits.div_ceil(64));
            pair.decode_stream(self.symbols / 2, &scratch.cur_words, &mut scratch.io_words);
            simd::words_to_bytes(&scratch.io_words, out);
            return;
        }
        // Unpaired codes with a memory-resident decode table also decode
        // in one fused sweep; only the broadcast (register-table) codes
        // keep the unpack→broadcast→pack pipeline, which beats a fused
        // memory walk for them.
        let Some(packed) = lut.packed_decode() else {
            fit(&mut scratch.io_words, self.data_bits.div_ceil(64));
            lut.decode_stream(self.symbols, &scratch.cur_words, &mut scratch.io_words);
            simd::words_to_bytes(&scratch.io_words, out);
            return;
        };
        let wbits = lut.wits() as usize;
        let dbits = lut.data_bits() as usize;
        let lanes = self.symbols;
        fit(&mut scratch.cur_syms, lanes);
        fit(&mut scratch.io_syms, lanes);
        simd::unpack_symbols(&scratch.cur_words, wbits, &mut scratch.cur_syms);
        let dmask = (1u64 << dbits) - 1;
        for (&p, o) in scratch.cur_syms.iter().zip(scratch.io_syms.iter_mut()) {
            *o = ((packed >> ((p as usize) * dbits)) & dmask) as u16;
        }
        fit(&mut scratch.io_words, self.data_bits.div_ceil(64));
        simd::pack_symbols(&scratch.io_syms, dbits, &mut scratch.io_words);
        simd::words_to_bytes(&scratch.io_words, out);
    }

    /// The per-symbol reference implementation of
    /// [`Self::decode_row_into`]: one [`Pattern`] construction and
    /// [`WomCode::decode`] call per symbol. Kept public as the validation
    /// oracle and benchmark baseline for the LUT decode (and as the only
    /// path for codes too large to tabulate).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::decode_row_into`].
    pub fn decode_row_reference(
        &self,
        cells: &WitBuffer,
        out: &mut [u8],
    ) -> Result<(), WomCodeError> {
        self.check_row_args(out.len(), cells.len())?;
        let dbits = self.code.data_bits();
        let wbits = self.code.wits() as usize;
        for s in 0..self.symbols {
            let pattern = Pattern::from_bits(cells.chunk(s * wbits, wbits), wbits);
            write_bits(
                out,
                s * dbits as usize,
                dbits as usize,
                self.code.decode(pattern),
            );
        }
        Ok(())
    }

    /// Validates row-level argument sizes shared by encode and decode.
    fn check_row_args(&self, data_bytes: usize, cell_bits: usize) -> Result<(), WomCodeError> {
        if data_bytes * 8 != self.data_bits {
            return Err(WomCodeError::LengthMismatch {
                expected: self.data_bits,
                actual: data_bytes * 8,
            });
        }
        if cell_bits != self.encoded_bits() {
            return Err(WomCodeError::LengthMismatch {
                expected: self.encoded_bits(),
                actual: cell_bits,
            });
        }
        Ok(())
    }

    /// Reproduces the exact symbol-level error after the lane kernel's
    /// AND-accumulated validity check failed: re-runs the symbol code
    /// over the unpacked lanes and returns the first error, exactly as
    /// the reference walk would have reported it.
    #[cold]
    fn first_symbol_error(&self, gen: u32, current: &[u16], data: &[u16]) -> WomCodeError {
        let wbits = self.code.wits() as usize;
        for (&c, &d) in current.iter().zip(data) {
            if let Err(e) =
                self.code
                    .encode(gen, u64::from(d), Pattern::from_bits(u64::from(c), wbits))
            {
                return e;
            }
        }
        WomCodeError::InvalidTable("lane kernel and symbol code disagree on encode success".into())
    }

    /// Pair-lane counterpart of [`Self::first_symbol_error`]: each lane
    /// holds two adjacent symbols (even in the low half), so the halves
    /// are re-encoded in row order to surface the same first error the
    /// reference walk would report.
    #[cold]
    fn first_symbol_error_paired(&self, gen: u32, current: &[u16], data: &[u16]) -> WomCodeError {
        let wbits = self.code.wits() as usize;
        let dbits = self.code.data_bits();
        let wmask = (1u64 << wbits) - 1;
        let dmask = (1u64 << dbits) - 1;
        for (&c, &d) in current.iter().zip(data) {
            let (c, d) = (u64::from(c), u64::from(d));
            for (cs, ds) in [(c & wmask, d & dmask), (c >> wbits, (d >> dbits) & dmask)] {
                if let Err(e) = self.code.encode(gen, ds, Pattern::from_bits(cs, wbits)) {
                    return e;
                }
            }
        }
        WomCodeError::InvalidTable("pair kernel and symbol code disagree on encode success".into())
    }
}

/// Resizes a scratch vector to exactly `n` elements (cheap no-op once
/// warm; shrink keeps capacity so alternating row sizes stay
/// allocation-free after the first pass).
#[inline]
fn fit<T: Copy + Default>(v: &mut Vec<T>, n: usize) {
    if v.len() != n {
        v.resize(n, T::default());
    }
}

/// Caller-owned staging buffers for [`BlockCodec::encode_row_into`] and
/// [`BlockCodec::decode_row_into`].
///
/// `words` holds the next row image while symbols are validated, so a
/// failed encode cannot leave the row half-written; the remaining fields
/// are the lane kernels' symbol and word staging. A warm scratch makes
/// the whole encode/decode allocation-free. One scratch can be reused
/// across codecs and row sizes; it grows to the largest row it has seen.
#[derive(Debug, Clone, Default)]
pub struct RowScratch {
    /// Staged next row image.
    words: Vec<u64>,
    /// Padded copy of the current cell image the lane unpack gathers from.
    cur_words: Vec<u64>,
    /// Data bytes repacked as padded words (encode) / packed data symbols
    /// awaiting byte serialization (decode).
    io_words: Vec<u64>,
    /// Unpacked current wit patterns, one lane per symbol (lane decode
    /// and the encode error cold path).
    cur_syms: Vec<u16>,
    /// Unpacked data values (encode cold path) / decoded values (decode).
    io_syms: Vec<u16>,
}

impl RowScratch {
    /// Creates an empty scratch (it sizes itself on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

fn read_bits(bytes: &[u8], offset: usize, width: usize) -> u64 {
    debug_assert!(width <= 64);
    let mut value = 0u64;
    for i in 0..width {
        let bit = offset + i;
        if (bytes[bit / 8] >> (bit % 8)) & 1 == 1 {
            value |= 1 << i;
        }
    }
    value
}

fn write_bits(bytes: &mut [u8], offset: usize, width: usize, value: u64) {
    debug_assert!(width <= 64);
    for i in 0..width {
        let bit = offset + i;
        if (value >> i) & 1 == 1 {
            bytes[bit / 8] |= 1 << (bit % 8);
        } else {
            bytes[bit / 8] &= !(1 << (bit % 8));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverted::Inverted;
    use crate::rs23::Rs23Code;

    fn pcm_codec(bits: usize) -> BlockCodec<Inverted<Rs23Code>> {
        BlockCodec::new(Inverted::new(Rs23Code::new()), bits).unwrap()
    }

    #[test]
    fn witbuffer_chunk_round_trip_across_boundary() {
        let mut buf = WitBuffer::zeros(200);
        buf.set_chunk(60, 10, 0b10_1101_0011);
        assert_eq!(buf.chunk(60, 10), 0b10_1101_0011);
        // Neighbours untouched.
        assert_eq!(buf.chunk(0, 60), 0);
        assert_eq!(buf.chunk(70, 64), 0);
    }

    #[test]
    fn witbuffer_ones_masks_tail() {
        let buf = WitBuffer::ones(70);
        assert_eq!(buf.count_ones(), 70);
    }

    #[test]
    fn witbuffer_full_word_chunks() {
        let mut buf = WitBuffer::zeros(128);
        buf.set_chunk(64, 64, u64::MAX);
        assert_eq!(buf.chunk(64, 64), u64::MAX);
        assert_eq!(buf.chunk(0, 64), 0);
    }

    #[test]
    fn witbuffer_transitions() {
        let a = WitBuffer::zeros(100);
        let b = WitBuffer::ones(100);
        let t = a.transitions_to(&b).unwrap();
        assert_eq!(t.sets, 100);
        assert_eq!(t.resets, 0);
        assert!(a.transitions_to(&WitBuffer::zeros(99)).is_err());
    }

    #[test]
    fn geometry_of_rs23_row() {
        let codec = pcm_codec(4096 * 8); // a 4 KB page
        assert_eq!(codec.symbols(), 4096 * 8 / 2);
        assert_eq!(codec.encoded_bits(), 4096 * 8 * 3 / 2); // 6 KB of wits
        assert_eq!(codec.rewrite_limit(), 2);
    }

    #[test]
    fn rejects_bad_row_sizes() {
        assert!(BlockCodec::new(Rs23Code::new(), 0).is_err());
        assert!(BlockCodec::new(Rs23Code::new(), 12).is_err()); // not byte-multiple
        let codec = pcm_codec(64);
        let mut cells = codec.erased_buffer();
        assert!(codec.encode_row(0, &[0u8; 7], &mut cells).is_err());
        assert!(codec
            .encode_row(0, &[0u8; 8], &mut WitBuffer::zeros(5))
            .is_err());
        assert!(codec.decode_row(&WitBuffer::zeros(5)).is_err());
    }

    #[test]
    fn encode_decode_round_trip_both_generations() {
        let codec = pcm_codec(64);
        let mut cells = codec.erased_buffer();
        let d1 = 0xA5C3_0F96_1234_9ABCu64.to_le_bytes();
        let d2 = 0x0123_4567_89AB_CDEFu64.to_le_bytes();
        codec.encode_row(0, &d1, &mut cells).unwrap();
        assert_eq!(codec.decode_row(&cells).unwrap(), d1);
        codec.encode_row(1, &d2, &mut cells).unwrap();
        assert_eq!(codec.decode_row(&cells).unwrap(), d2);
    }

    #[test]
    fn inverted_rows_never_set_within_limit() {
        let codec = pcm_codec(256);
        let mut cells = codec.erased_buffer();
        let d1 = vec![0x5Au8; 32];
        let d2 = vec![0xC3u8; 32];
        let t1 = codec.encode_row(0, &d1, &mut cells).unwrap();
        let t2 = codec.encode_row(1, &d2, &mut cells).unwrap();
        assert_eq!(t1.sets, 0);
        assert_eq!(t2.sets, 0);
    }

    #[test]
    fn exhausted_row_fails_without_partial_write() {
        let codec = pcm_codec(64);
        let mut cells = codec.erased_buffer();
        codec.encode_row(0, &[0x11u8; 8], &mut cells).unwrap();
        codec.encode_row(1, &[0x22u8; 8], &mut cells).unwrap();
        let snapshot = cells.clone();
        let err = codec.encode_row(2, &[0x33u8; 8], &mut cells);
        assert!(matches!(err, Err(WomCodeError::GenerationExhausted { .. })));
        assert_eq!(cells, snapshot, "failed encode must not modify cells");
    }

    #[test]
    fn rewriting_same_data_is_free() {
        let codec = pcm_codec(64);
        let mut cells = codec.erased_buffer();
        let d = [0x42u8; 8];
        codec.encode_row(0, &d, &mut cells).unwrap();
        let t = codec.encode_row(1, &d, &mut cells).unwrap();
        assert!(t.is_noop());
        assert_eq!(codec.decode_row(&cells).unwrap(), d);
    }

    #[test]
    fn bit_helpers_round_trip() {
        let mut bytes = vec![0u8; 4];
        write_bits(&mut bytes, 3, 7, 0b1011001);
        assert_eq!(read_bits(&bytes, 3, 7), 0b1011001);
        write_bits(&mut bytes, 3, 7, 0);
        assert_eq!(bytes, vec![0u8; 4]);
    }
}
