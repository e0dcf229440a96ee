//! Compact, deterministic state serialization for snapshot/restore.
//!
//! The `WOMSNAP` container (assembled in the `wom-pcm` crate) carries an
//! opaque payload produced by the little-endian primitives here. The
//! encoding is deliberately boring: fixed-width integers, `f64` via
//! [`f64::to_bits`], and length-prefixed sequences, written in struct
//! declaration order by each type's own `save_state`/`load_state`. Two
//! identical simulation states therefore serialize to identical bytes —
//! the property the resumable-run determinism tests pin.
//!
//! [`SnapWriter`] appends to an owned byte buffer; [`SnapReader`] is a
//! cursor over a borrowed one. Neither touches `std::io`, so decode
//! errors are always typed [`SnapError`]s with an exact byte offset.

use core::fmt;

/// Errors produced while decoding a snapshot payload.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapError {
    /// The payload ended before the value at `byte_offset` was complete.
    Truncated {
        /// Offset of the first missing byte.
        byte_offset: u64,
    },
    /// A decoded value is structurally impossible (bad enum tag, a
    /// length that contradicts the container, a non-boolean bool byte).
    /// The string names the field being decoded.
    Corrupt(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { byte_offset } => {
                write!(f, "snapshot payload truncated at byte {byte_offset}")
            }
            Self::Corrupt(what) => write!(f, "snapshot payload corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// The reflected IEEE 802.3 CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables, built at compile time. `CRC_TABLES[s][b]` is the
/// CRC register after the byte `b` and then `s` zero bytes have passed
/// through it, so one table lookup per input byte folds eight bytes into
/// the register at once.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// Shifts the 8 low bits of `crc` through the polynomial, one bit at a
/// time (the definition every table entry derives from).
const fn crc_shift_byte(mut crc: u32) -> u32 {
    let mut k = 0;
    while k < 8 {
        let mask = (crc & 1).wrapping_neg();
        crc = (crc >> 1) ^ (CRC_POLY & mask);
        k += 1;
    }
    crc
}

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut rest: &mut [[u32; 256]] = &mut tables;
    let mut zeros = 0;
    while let Some((table, tail)) = rest.split_first_mut() {
        let mut slots: &mut [u32] = table;
        let mut byte = 0;
        while let Some((slot, more)) = slots.split_first_mut() {
            let mut crc = crc_shift_byte(byte);
            let mut k = 0;
            while k < zeros {
                crc = (crc >> 8) ^ crc_shift_byte(crc & 0xFF);
                k += 1;
            }
            *slot = crc;
            slots = more;
            byte += 1;
        }
        rest = tail;
        zeros += 1;
    }
    tables
}

#[inline]
fn lookup(table: &[u32; 256], byte: u8) -> u32 {
    // A `u8` always indexes a 256-entry table; the fallback is dead code.
    table.get(usize::from(byte)).copied().unwrap_or(0)
}

/// CRC-32 (IEEE 802.3, reflected) of `bytes`.
///
/// Slicing-by-8 over compile-time tables (8 KiB), about 8x the
/// throughput of the bitwise loop the tables derive from. The checksum
/// sits on service latency: `womd` parks a session into a `WOMSNAP`
/// container on every LRU miss and checks the CRC again on every resume.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let (words, tail) = bytes.as_chunks::<8>();
    let mut crc = !0u32;
    for word in words {
        let [b0, b1, b2, b3, b4, b5, b6, b7] =
            (u64::from_le_bytes(*word) ^ u64::from(crc)).to_le_bytes();
        crc = lookup(t7, b0)
            ^ lookup(t6, b1)
            ^ lookup(t5, b2)
            ^ lookup(t4, b3)
            ^ lookup(t3, b4)
            ^ lookup(t2, b5)
            ^ lookup(t1, b6)
            ^ lookup(t0, b7);
    }
    for &b in tail {
        crc = (crc >> 8) ^ lookup(t0, (crc as u8) ^ b);
    }
    !crc
}

/// Appends little-endian primitives to an owned byte buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded payload.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128`, little-endian.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (sizes are platform-independent in
    /// the container).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` via its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes (callers write their own length prefix when the
    /// length is not implied by the schema).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// A cursor decoding little-endian primitives from a borrowed payload.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Creates a cursor at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Current byte offset from the start of the payload.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Fails unless every byte was consumed (a longer-than-expected
    /// payload means writer and reader disagree on the schema).
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] when bytes remain.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Corrupt("trailing bytes after the last field"))
        }
    }

    /// Consumes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when fewer than `n` bytes remain.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated {
            byte_offset: self.buf.len() as u64,
        })?;
        let bytes = self.buf.get(self.pos..end).ok_or(SnapError::Truncated {
            byte_offset: self.buf.len() as u64,
        })?;
        self.pos = end;
        Ok(bytes)
    }

    /// Consumes one byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of payload.
    pub fn take_u8(&mut self) -> Result<u8, SnapError> {
        let bytes = self.take_bytes(1)?;
        bytes.first().copied().ok_or(SnapError::Corrupt("u8"))
    }

    /// Consumes a bool byte, rejecting values other than 0 and 1.
    ///
    /// # Errors
    ///
    /// Truncation, or [`SnapError::Corrupt`] for a non-boolean byte.
    pub fn take_bool(&mut self) -> Result<bool, SnapError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool byte must be 0 or 1")),
        }
    }

    /// Consumes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when fewer than 4 bytes remain.
    pub fn take_u32(&mut self) -> Result<u32, SnapError> {
        let bytes = self.take_bytes(4)?;
        let arr: [u8; 4] = bytes.try_into().map_err(|_| SnapError::Corrupt("u32"))?;
        Ok(u32::from_le_bytes(arr))
    }

    /// Consumes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when fewer than 8 bytes remain.
    pub fn take_u64(&mut self) -> Result<u64, SnapError> {
        let bytes = self.take_bytes(8)?;
        let arr: [u8; 8] = bytes.try_into().map_err(|_| SnapError::Corrupt("u64"))?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Consumes a little-endian `u128`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when fewer than 16 bytes remain.
    pub fn take_u128(&mut self) -> Result<u128, SnapError> {
        let bytes = self.take_bytes(16)?;
        let arr: [u8; 16] = bytes.try_into().map_err(|_| SnapError::Corrupt("u128"))?;
        Ok(u128::from_le_bytes(arr))
    }

    /// Consumes a `u64`-encoded size, checked against the remaining
    /// payload so corrupt lengths fail fast instead of driving huge
    /// allocations.
    ///
    /// `min_elem_bytes` is the smallest possible encoding of one element
    /// (1 for byte sequences).
    ///
    /// # Errors
    ///
    /// Truncation, or [`SnapError::Corrupt`] when the declared length
    /// could not possibly fit in the remaining bytes.
    pub fn take_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let raw = self.take_u64()?;
        let n = usize::try_from(raw).map_err(|_| SnapError::Corrupt("length overflows usize"))?;
        let need = n.checked_mul(min_elem_bytes.max(1));
        match need {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(SnapError::Corrupt("length exceeds remaining payload")),
        }
    }

    /// Consumes a length-prefixed section of entries saved in strictly
    /// ascending key order, and collects it into `C`.
    ///
    /// `min_entry_bytes` bounds the length as in
    /// [`take_len`](Self::take_len) before anything is allocated;
    /// `entry` decodes one entry and `key` gives its ordering key. A
    /// `BTreeMap` or `BTreeSet` collected from sorted entries is
    /// bulk-built with no per-key search, which is why every ordered
    /// collection in a payload is restored through here rather than by
    /// one `insert` per entry.
    ///
    /// # Errors
    ///
    /// Whatever `take_len` or `entry` returns, and [`SnapError::Corrupt`]
    /// for a key that is not strictly greater than the one before it: a
    /// valid payload never repeats a key or writes one out of order.
    pub fn take_sorted<T, K, C>(
        &mut self,
        min_entry_bytes: usize,
        key: impl Fn(&T) -> K,
        mut entry: impl FnMut(&mut Self) -> Result<T, SnapError>,
    ) -> Result<C, SnapError>
    where
        K: Ord,
        C: FromIterator<T>,
    {
        let len = self.take_len(min_entry_bytes)?;
        let mut entries = Vec::with_capacity(len);
        for _ in 0..len {
            let next = entry(self)?;
            if entries.last().is_some_and(|prev| key(prev) >= key(&next)) {
                return Err(SnapError::Corrupt("section keys not strictly ascending"));
            }
            entries.push(next);
        }
        Ok(entries.into_iter().collect())
    }

    /// Consumes an `f64` stored as its exact bit pattern.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when fewer than 8 bytes remain.
    pub fn take_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.take_u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(0xAB);
        w.put_bool(true);
        w.put_bool(false);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 7);
        w.put_u128(u128::MAX / 3);
        w.put_f64(-0.125);
        w.put_f64(f64::NAN);
        w.put_usize(4096);
        w.put_bytes(b"tail");
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 0xAB);
        assert!(r.take_bool().unwrap());
        assert!(!r.take_bool().unwrap());
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.take_u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.take_f64().unwrap(), -0.125);
        assert!(r.take_f64().unwrap().is_nan());
        assert_eq!(r.take_u64().unwrap(), 4096);
        assert_eq!(r.take_bytes(4).unwrap(), b"tail");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_reports_the_offset() {
        let mut w = SnapWriter::new();
        w.put_u32(7);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.take_u32().unwrap(), 7);
        assert_eq!(r.take_u64(), Err(SnapError::Truncated { byte_offset: 4 }));
    }

    #[test]
    fn bad_bool_is_corrupt() {
        let mut r = SnapReader::new(&[2u8]);
        assert!(matches!(r.take_bool(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let r = SnapReader::new(&[0u8; 3]);
        assert!(matches!(r.finish(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn absurd_length_is_rejected_before_allocating() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.take_len(8), Err(SnapError::Corrupt(_))));
        assert!(matches!(take_map(&bytes), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn plausible_length_is_accepted() {
        let mut w = SnapWriter::new();
        w.put_u64(3);
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.take_len(1).unwrap(), 3);
        assert_eq!(r.take_bytes(3).unwrap(), &[1, 2, 3]);
    }

    /// The definition the tables derive from: one bit per step.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = crc_shift_byte(crc ^ u32::from(b));
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Flipping one bit changes the checksum.
        assert_ne!(crc32(b"womsnap"), crc32(b"womsnaq"));
    }

    #[test]
    fn sliced_crc32_matches_the_bitwise_reference() {
        let mut rng = pcm_rng::Rng::seed_from_u64(2014);
        let buf: Vec<u8> = (0..1024 + 8).map(|_| rng.next_u32() as u8).collect();
        for start in 0..8 {
            for len in 0..=1024 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "start {start}, length {len}"
                );
            }
        }
    }

    fn section(keys: &[u64]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_usize(keys.len());
        for &k in keys {
            w.put_u64(k);
            w.put_u32(7);
        }
        w.into_bytes()
    }

    fn take_map(bytes: &[u8]) -> Result<BTreeMap<u64, u32>, SnapError> {
        let mut r = SnapReader::new(bytes);
        let map = r.take_sorted(12, |&(k, _)| k, |r| Ok((r.take_u64()?, r.take_u32()?)))?;
        r.finish()?;
        Ok(map)
    }

    #[test]
    fn sorted_sections_collect_in_key_order() {
        let map = take_map(&section(&[1, 5, u64::MAX])).unwrap();
        assert_eq!(map.keys().copied().collect::<Vec<_>>(), [1, 5, u64::MAX]);
        assert!(take_map(&section(&[])).unwrap().is_empty());
        let mut w = SnapWriter::new();
        w.put_usize(2);
        w.put_u64(3);
        w.put_u64(9);
        let bytes = w.into_bytes();
        let set: BTreeSet<u64> = SnapReader::new(&bytes)
            .take_sorted(8, |&k| k, SnapReader::take_u64)
            .unwrap();
        assert_eq!(set.into_iter().collect::<Vec<_>>(), [3, 9]);
    }

    #[test]
    fn repeated_or_descending_keys_are_corrupt() {
        for keys in [&[4u64, 4][..], &[9, 2], &[1, 3, 3], &[1, 8, 5]] {
            assert!(
                matches!(take_map(&section(keys)), Err(SnapError::Corrupt(_))),
                "keys {keys:?}"
            );
        }
    }
}
