//! Compact, deterministic state serialization for snapshot/restore.
//!
//! The `WOMSNAP` container (assembled in the `wom-pcm` crate) carries an
//! opaque payload produced by this codec. Every value enters or leaves a
//! payload through one trait, [`Snap`], written by [`SnapWriter::put`]
//! and read by [`SnapReader::take`]. The impls here fix the layout once:
//! integers little-endian at their width, `usize` as a `u64`, `f64` as
//! its exact bits, `bool` as one byte, `Option` as that flag then the
//! value, tuples and arrays field by field, and `Vec`, `VecDeque`,
//! `BTreeMap` and `BTreeSet` as a `u64` length then their elements in
//! order. A struct's impl is its field list in declaration order
//! ([`snap_fields!`](crate::snap_fields)), so two identical simulation
//! states serialize to identical bytes — the property the resumable-run
//! determinism tests pin.
//!
//! Decoding trusts no length: [`SnapReader::take_len`] bounds a count by
//! the element type's [`Snap::MIN_BYTES`] and the bytes left before
//! anything is allocated, and [`SnapReader::take_sorted`] rejects a
//! repeated or descending key. Neither side touches `std::io`, so decode
//! errors are always typed [`SnapError`]s with an exact byte offset.

use core::fmt;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

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

/// A value with one fixed `WOMSNAP` encoding, written through
/// [`SnapWriter::put`] and read through [`SnapReader::take`].
pub trait Snap: Sized {
    /// A lower bound on the bytes any value of the type encodes to, which
    /// [`SnapReader::take_len`] bounds element counts by.
    const MIN_BYTES: usize;

    /// Appends the value's encoding.
    fn save_state(&self, w: &mut SnapWriter);

    /// Decodes a value written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the payload ends early, and
    /// [`SnapError::Corrupt`] for bytes no value of the type encodes to.
    fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// Appends encoded values to an owned byte buffer.
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

    /// Consumes the writer, returning the encoded payload.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends `value`'s encoding.
    pub fn put<T: Snap>(&mut self, value: &T) {
        value.save_state(self);
    }

    /// Appends `value` in the `Option` layout, with `save` writing the
    /// value: for state restored in place into an instance built from
    /// the configuration (read back with [`SnapReader::take_presence`]).
    pub fn put_presence<T>(&mut self, value: Option<&T>, save: impl FnOnce(&T, &mut Self)) {
        self.put(&value.is_some());
        if let Some(v) = value {
            save(v, self);
        }
    }

    /// Appends raw bytes (callers write their own length prefix when the
    /// length is not implied by the schema).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// A cursor decoding values from a borrowed payload.
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

    /// Decodes one value.
    ///
    /// # Errors
    ///
    /// Whatever `T`'s [`Snap::load_state`] returns.
    pub fn take<T: Snap>(&mut self) -> Result<T, SnapError> {
        T::load_state(self)
    }

    /// Decodes a [`SnapWriter::put_presence`] flag, which must equal
    /// `expected`: whether the configuration built the value.
    ///
    /// # Errors
    ///
    /// Truncation, or [`SnapError::Corrupt`] with `what` on a mismatch.
    pub fn take_presence(&mut self, expected: bool, what: &'static str) -> Result<(), SnapError> {
        if self.take::<bool>()? == expected {
            Ok(())
        } else {
            Err(SnapError::Corrupt(what))
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

    /// Consumes exactly `N` raw bytes.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], SnapError> {
        let bytes = self.take_bytes(N)?;
        bytes
            .try_into()
            .map_err(|_| SnapError::Corrupt("fixed-width field"))
    }

    /// Consumes a `u64`-encoded length, checked against the remaining
    /// payload at `min_elem_bytes` (an element type's
    /// [`Snap::MIN_BYTES`]) per element, so a corrupt length fails fast
    /// instead of driving a huge allocation.
    ///
    /// # Errors
    ///
    /// Truncation, or [`SnapError::Corrupt`] when the declared length
    /// could not possibly fit in the remaining bytes.
    pub fn take_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let n: usize = self.take()?;
        let need = n.checked_mul(min_elem_bytes.max(1));
        match need {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(SnapError::Corrupt("length exceeds remaining payload")),
        }
    }

    /// Consumes a length-prefixed section of entries saved in strictly
    /// ascending key order, and collects it into `C`: `entry` decodes an
    /// entry, `key` gives its ordering key, and `min_entry_bytes` bounds
    /// the length as in [`take_len`](Self::take_len). A `BTreeMap` or
    /// `BTreeSet` collected from sorted entries is bulk-built with no
    /// per-key search.
    ///
    /// # Errors
    ///
    /// Whatever `take_len` or `entry` returns, and [`SnapError::Corrupt`]
    /// for a key that is not strictly greater than the one before it: a
    /// valid payload never repeats a key or writes one out of order.
    pub fn take_sorted<T, K, C>(
        &mut self,
        min_entry_bytes: usize,
        key: impl Fn(&T) -> &K,
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
}

/// Implements [`Snap`] for a struct as its field list, in declaration
/// order: `save_state` writes the fields, `load_state` reads each as its
/// listed type into the struct literal (so a field left out or listed
/// twice does not compile), and `MIN_BYTES` sums the field types' own.
///
/// ```
/// use pcm_sim::snap::{Snap, SnapReader, SnapWriter};
///
/// struct Span {
///     start: u64,
///     len: Option<u32>,
/// }
/// pcm_sim::snap_fields!(Span {
///     start: u64,
///     len: Option<u32>,
/// });
///
/// let mut w = SnapWriter::new();
/// w.put(&Span { start: 7, len: Some(3) });
/// let bytes = w.into_bytes();
/// assert_eq!((bytes.len(), Span::MIN_BYTES), (8 + 1 + 4, 8 + 1));
/// let back: Span = SnapReader::new(&bytes).take().unwrap();
/// assert_eq!((back.start, back.len), (7, Some(3)));
/// ```
#[macro_export]
macro_rules! snap_fields {
    ($ty:ident { $($field:ident: $fty:ty),* $(,)? }) => {
        impl $crate::snap::Snap for $ty {
            const MIN_BYTES: usize = 0 $(+ <$fty as $crate::snap::Snap>::MIN_BYTES)*;

            fn save_state(&self, w: &mut $crate::snap::SnapWriter) {
                $(w.put(&self.$field);)*
            }

            fn load_state(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::snap::SnapError> {
                ::core::result::Result::Ok(Self {
                    $($field: r.take::<$fty>()?,)*
                })
            }
        }
    };
}

/// Implements [`Snap`] for a fieldless enum as a one-byte tag per
/// listed variant; any other tag decodes to [`SnapError::Corrupt`]
/// naming the type.
#[macro_export]
macro_rules! snap_tags {
    ($ty:ident { $($variant:ident = $tag:literal),* $(,)? }) => {
        impl $crate::snap::Snap for $ty {
            const MIN_BYTES: usize = 1;

            fn save_state(&self, w: &mut $crate::snap::SnapWriter) {
                w.put::<u8>(&match self {
                    $(Self::$variant => $tag,)*
                });
            }

            fn load_state(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::snap::SnapError> {
                match r.take::<u8>()? {
                    $($tag => ::core::result::Result::Ok(Self::$variant),)*
                    _ => ::core::result::Result::Err($crate::snap::SnapError::Corrupt(concat!(
                        stringify!($ty),
                        " tag"
                    ))),
                }
            }
        }
    };
}

/// Fixed-width little-endian integers.
macro_rules! snap_le_int {
    ($($t:ty),*) => {$(
        impl Snap for $t {
            const MIN_BYTES: usize = size_of::<$t>();

            fn save_state(&self, w: &mut SnapWriter) {
                w.put_bytes(&self.to_le_bytes());
            }

            fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.take_array().map(Self::from_le_bytes)
            }
        }
    )*};
}

snap_le_int!(u8, u32, u64, u128);

impl Snap for bool {
    const MIN_BYTES: usize = 1;

    fn save_state(&self, w: &mut SnapWriter) {
        w.put(&u8::from(*self));
    }

    fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.take::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool byte must be 0 or 1")),
        }
    }
}

/// Sizes are platform-independent in the container: a `u64`.
impl Snap for usize {
    const MIN_BYTES: usize = u64::MIN_BYTES;

    fn save_state(&self, w: &mut SnapWriter) {
        w.put(&(*self as u64));
    }

    fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Self::try_from(r.take::<u64>()?).map_err(|_| SnapError::Corrupt("length overflows usize"))
    }
}

/// The exact bit pattern, so accumulators resume bit-identically.
impl Snap for f64 {
    const MIN_BYTES: usize = u64::MIN_BYTES;

    fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.to_bits());
    }

    fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.take().map(Self::from_bits)
    }
}

impl<T: Snap> Snap for Option<T> {
    const MIN_BYTES: usize = bool::MIN_BYTES;

    fn save_state(&self, w: &mut SnapWriter) {
        w.put_presence(self.as_ref(), T::save_state);
    }

    fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        if r.take()? {
            r.take().map(Some)
        } else {
            Ok(None)
        }
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;

    fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.0);
        w.put(&self.1);
    }

    fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((r.take()?, r.take()?))
    }
}

/// A fixed-length array: no length prefix.
impl<const N: usize> Snap for [u64; N] {
    const MIN_BYTES: usize = N * u64::MIN_BYTES;

    fn save_state(&self, w: &mut SnapWriter) {
        for v in self {
            w.put(v);
        }
    }

    fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = [0; N];
        for v in &mut out {
            *v = r.take()?;
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for Vec<T> {
    const MIN_BYTES: usize = u64::MIN_BYTES;

    fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.len());
        for v in self {
            w.put(v);
        }
    }

    fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.take_len(T::MIN_BYTES)?;
        let mut out = Self::with_capacity(len);
        for _ in 0..len {
            out.push(r.take()?);
        }
        Ok(out)
    }
}

/// The `Vec` layout.
impl<T: Snap> Snap for VecDeque<T> {
    const MIN_BYTES: usize = u64::MIN_BYTES;

    fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.len());
        for v in self {
            w.put(v);
        }
    }

    fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.take::<Vec<T>>().map(Self::from)
    }
}

/// Entries in key order; restored through [`SnapReader::take_sorted`].
impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    const MIN_BYTES: usize = u64::MIN_BYTES;

    fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.len());
        for (k, v) in self {
            w.put(k);
            w.put(v);
        }
    }

    fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.take_sorted(
            K::MIN_BYTES + V::MIN_BYTES,
            |(k, _)| k,
            |r| Ok((r.take()?, r.take()?)),
        )
    }
}

/// Keys in order; restored through [`SnapReader::take_sorted`].
impl<T: Snap + Ord> Snap for BTreeSet<T> {
    const MIN_BYTES: usize = u64::MIN_BYTES;

    fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.len());
        for v in self {
            w.put(v);
        }
    }

    fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.take_sorted(T::MIN_BYTES, |v| v, SnapReader::take)
    }
}

/// Encodes `value` alone.
#[cfg(test)]
pub(crate) fn encode<T: Snap>(value: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put(value);
    w.into_bytes()
}

/// Decodes `T`'s smallest value (zero numbers, `None`, empty
/// collections) from zero bytes, and checks that it encodes back to the
/// bytes it took, at least `T::MIN_BYTES` of them.
#[cfg(test)]
pub(crate) fn assert_min_bytes<T: Snap>() {
    let zeros = [0u8; 1024];
    let mut r = SnapReader::new(&zeros);
    let smallest: T = r.take().expect("zero bytes decode");
    let len = encode(&smallest).len();
    let name = core::any::type_name::<T>();
    assert_eq!(len, r.position(), "{name}");
    assert!(
        len >= T::MIN_BYTES,
        "{name}: {len} bytes, MIN_BYTES {}",
        T::MIN_BYTES
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.put(&0xABu8);
        w.put(&true);
        w.put(&false);
        w.put(&0xDEAD_BEEFu32);
        w.put(&(u64::MAX - 7));
        w.put(&(u128::MAX / 3));
        w.put(&-0.125f64);
        w.put(&f64::NAN);
        w.put(&4096usize);
        w.put_bytes(b"tail");
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.take::<u8>().unwrap(), 0xAB);
        assert!(r.take::<bool>().unwrap());
        assert!(!r.take::<bool>().unwrap());
        assert_eq!(r.take::<u32>().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take::<u64>().unwrap(), u64::MAX - 7);
        assert_eq!(r.take::<u128>().unwrap(), u128::MAX / 3);
        assert_eq!(r.take::<f64>().unwrap(), -0.125);
        assert!(r.take::<f64>().unwrap().is_nan());
        assert_eq!(r.take::<u64>().unwrap(), 4096);
        assert_eq!(r.take_bytes(4).unwrap(), b"tail");
        r.finish().unwrap();
    }

    #[test]
    fn composite_layouts_are_flag_length_and_field_order() {
        assert_eq!(encode(&None::<u32>), [0]);
        assert_eq!(encode(&Some(7u32)), [1, 7, 0, 0, 0]);
        assert_eq!(encode(&(1u8, (true, 2u32))), [1, 1, 2, 0, 0, 0]);
        assert_eq!(encode(&[3u64]), 3u64.to_le_bytes());
        let two = [&2u64.to_le_bytes()[..], &[5, 6]].concat();
        assert_eq!(encode(&vec![5u8, 6]), two);
        assert_eq!(encode(&VecDeque::from([5u8, 6])), two);
        assert_eq!(encode(&BTreeSet::from([6u8, 5])), two);
        let one = [&1u64.to_le_bytes()[..], &[5, 6]].concat();
        assert_eq!(encode(&BTreeMap::from([(5u8, 6u8)])), one);
    }

    #[test]
    fn smallest_values_encode_to_at_least_min_bytes() {
        use crate::*;
        assert_min_bytes::<u8>();
        assert_min_bytes::<bool>();
        assert_min_bytes::<u32>();
        assert_min_bytes::<u64>();
        assert_min_bytes::<u128>();
        assert_min_bytes::<usize>();
        assert_min_bytes::<f64>();
        assert_min_bytes::<Option<u64>>();
        assert_min_bytes::<(u8, u32)>();
        assert_min_bytes::<(bool, (u64, u64))>();
        assert_min_bytes::<[u64; 3]>();
        assert_min_bytes::<Vec<u64>>();
        assert_min_bytes::<VecDeque<u32>>();
        assert_min_bytes::<BTreeMap<u64, u64>>();
        assert_min_bytes::<BTreeSet<u64>>();
        assert_min_bytes::<MemOp>();
        assert_min_bytes::<ServiceClass>();
        assert_min_bytes::<Transaction>();
        assert_min_bytes::<Completion>();
        assert_min_bytes::<InFlight>();
        assert_min_bytes::<BankState>();
        assert_min_bytes::<LatencySummary>();
        assert_min_bytes::<LatencyHistogram>();
        assert_min_bytes::<MemStats>();
        assert_min_bytes::<EnergyTally>();
        assert_min_bytes::<WearTracker>();
        assert_min_bytes::<WearSummary>();
    }

    #[test]
    fn truncation_reports_the_offset() {
        let bytes = encode(&7u32);
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.take::<u32>().unwrap(), 7);
        assert_eq!(
            r.take::<u64>(),
            Err(SnapError::Truncated { byte_offset: 4 })
        );
    }

    #[test]
    fn bad_bool_is_corrupt() {
        let corrupt = Err(SnapError::Corrupt("bool byte must be 0 or 1"));
        assert_eq!(SnapReader::new(&[2u8]).take::<bool>(), corrupt);
        assert_eq!(
            SnapReader::new(&[2u8]).take::<Option<u8>>(),
            corrupt.map(|_| None)
        );
    }

    #[test]
    fn presence_must_match_the_configuration() {
        let mut w = SnapWriter::new();
        w.put_presence(Some(&9u32), u32::save_state);
        w.put_presence(None::<&u32>, u32::save_state);
        let bytes = w.into_bytes();
        assert_eq!(bytes, encode(&(Some(9u32), None::<u32>)));
        let mut r = SnapReader::new(&bytes);
        r.take_presence(true, "first").unwrap();
        assert_eq!(r.take::<u32>().unwrap(), 9);
        assert_eq!(
            r.take_presence(true, "second"),
            Err(SnapError::Corrupt("second"))
        );
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let r = SnapReader::new(&[0u8; 3]);
        assert!(matches!(r.finish(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn absurd_length_is_rejected_before_allocating() {
        let bytes = encode(&u64::MAX);
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.take_len(8), Err(SnapError::Corrupt(_))));
        assert!(matches!(take_map(&bytes), Err(SnapError::Corrupt(_))));
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.take::<Vec<u8>>(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn plausible_length_is_accepted() {
        let mut w = SnapWriter::new();
        w.put(&3u64);
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.take_len(1).unwrap(), 3);
        assert_eq!(r.take_bytes(3).unwrap(), &[1, 2, 3]);
        assert_eq!(
            SnapReader::new(&bytes).take::<Vec<u8>>().unwrap(),
            [1, 2, 3]
        );
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
        w.put(&keys.len());
        for &k in keys {
            w.put(&k);
            w.put(&7u32);
        }
        w.into_bytes()
    }

    fn take_map(bytes: &[u8]) -> Result<BTreeMap<u64, u32>, SnapError> {
        let mut r = SnapReader::new(bytes);
        let map = r.take()?;
        r.finish()?;
        Ok(map)
    }

    #[test]
    fn sorted_sections_collect_in_key_order() {
        let map = take_map(&section(&[1, 5, u64::MAX])).unwrap();
        assert_eq!(map.keys().copied().collect::<Vec<_>>(), [1, 5, u64::MAX]);
        assert_eq!(encode(&map), section(&[1, 5, u64::MAX]));
        assert!(take_map(&section(&[])).unwrap().is_empty());
        let bytes = encode(&vec![3u64, 9]);
        let set: BTreeSet<u64> = SnapReader::new(&bytes).take().unwrap();
        assert_eq!(set.into_iter().collect::<Vec<_>>(), [3, 9]);
        let listed: Vec<u64> = SnapReader::new(&bytes)
            .take_sorted(8, |k| k, SnapReader::take)
            .unwrap();
        assert_eq!(listed, [3, 9]);
    }

    #[test]
    fn repeated_or_descending_keys_are_corrupt() {
        for keys in [&[4u64, 4][..], &[9, 2], &[1, 3, 3], &[1, 8, 5]] {
            assert!(
                matches!(take_map(&section(keys)), Err(SnapError::Corrupt(_))),
                "keys {keys:?}"
            );
            let set = encode(&keys.to_vec());
            assert!(
                matches!(
                    SnapReader::new(&set).take::<BTreeSet<u64>>(),
                    Err(SnapError::Corrupt(_))
                ),
                "set keys {keys:?}"
            );
        }
    }
}
