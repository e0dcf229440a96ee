//! A compact binary trace container.
//!
//! The DRAMSim2 text format ([`crate::format`]) is interoperable but
//! bulky (~25 bytes/record); paper-scale captures run to hundreds of
//! millions of records. This container stores records in 17 fixed bytes —
//! little-endian `cycle: u64`, `addr: u64`, `op: u8` — behind an 8-byte
//! magic header with a format version.
//!
//! Version 2 (the current writer output) appends a 16-byte footer — the
//! record count followed by an end marker — so the reader,
//! [`crate::stream::BinaryStreamSource`], detects truncation *before*
//! handing out a single record. Version 1 files (no footer) remain fully
//! readable.

use crate::record::{TraceOp, TraceRecord};
use std::io::Write;

/// File magic prefix: `WOMTRC` + NUL; the 8th byte is the format version.
const MAGIC_PREFIX: &[u8; 7] = b"WOMTRC\x00";
/// Magic for version 1 (header + records, no footer).
pub(crate) const MAGIC_V1: &[u8; 8] = b"WOMTRC\x00\x01";
/// Magic for version 2 (header + records + count footer).
pub(crate) const MAGIC_V2: &[u8; 8] = b"WOMTRC\x00\x02";
/// End marker closing the version-2 footer.
const FOOTER_MARK: &[u8; 8] = b"WOMEND\x00\x02";
/// Bytes per record: `cycle: u64` + `addr: u64` + `op: u8` (all
/// little-endian). Public so wire consumers can size raw-chunk
/// payloads.
pub const RECORD_BYTES: usize = 17;
/// Header length (shared by both versions).
pub(crate) const HEADER_BYTES: u64 = 8;
/// Footer length (version 2 only): `count: u64` + end marker.
pub(crate) const FOOTER_BYTES: usize = 16;

/// Errors from the binary container.
#[derive(Debug)]
#[non_exhaustive]
pub enum BinaryTraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The stream does not start with the expected magic/version.
    BadMagic,
    /// The stream ends in the middle of a record, or a version-2 stream
    /// is missing data promised by its footer.
    Truncated {
        /// Complete records read (or recoverable) before the truncation.
        records_read: u64,
        /// Byte offset into the stream at which the data stops short.
        byte_offset: u64,
    },
    /// A record's op byte is neither 0 (read) nor 1 (write).
    BadOp {
        /// The offending byte.
        value: u8,
        /// 0-based index of the bad record.
        index: u64,
    },
}

impl core::fmt::Display for BinaryTraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "binary trace i/o error: {e}"),
            Self::BadMagic => f.write_str("not a womtrc binary trace (bad magic or version)"),
            Self::Truncated {
                records_read,
                byte_offset,
            } => {
                write!(
                    f,
                    "binary trace truncated after {records_read} records (byte offset {byte_offset})"
                )
            }
            Self::BadOp { value, index } => {
                write!(f, "bad op byte {value:#x} in record {index}")
            }
        }
    }
}

impl std::error::Error for BinaryTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BinaryTraceError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Parses a magic header, returning the container version (1 or 2).
pub(crate) fn parse_magic(magic: &[u8; 8]) -> Result<u8, BinaryTraceError> {
    if magic == MAGIC_V1 {
        Ok(1)
    } else if magic == MAGIC_V2 {
        Ok(2)
    } else {
        let _ = MAGIC_PREFIX; // versions share this prefix
        Err(BinaryTraceError::BadMagic)
    }
}

/// Encodes one record into a fixed 17-byte buffer.
pub(crate) fn encode_record(r: &TraceRecord, buf: &mut [u8; RECORD_BYTES]) {
    let (cycle, rest) = buf.split_at_mut(8);
    let (addr, op) = rest.split_at_mut(8);
    cycle.copy_from_slice(&r.cycle.to_le_bytes());
    addr.copy_from_slice(&r.addr.to_le_bytes());
    op.copy_from_slice(&[match r.op {
        TraceOp::Read => 0,
        TraceOp::Write => 1,
    }]);
}

/// Decodes one 17-byte chunk into a record. `index` is the 0-based record
/// number, used only for error reporting.
pub(crate) fn decode_record(chunk: &[u8], index: u64) -> Result<TraceRecord, BinaryTraceError> {
    // Infallible for chunks produced by `chunks_exact(RECORD_BYTES)`.
    let &[c0, c1, c2, c3, c4, c5, c6, c7, a0, a1, a2, a3, a4, a5, a6, a7, op_byte] = chunk else {
        return Err(BinaryTraceError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "internal: record chunk is not 17 bytes",
        )));
    };
    let cycle = u64::from_le_bytes([c0, c1, c2, c3, c4, c5, c6, c7]);
    let addr = u64::from_le_bytes([a0, a1, a2, a3, a4, a5, a6, a7]);
    let op = match op_byte {
        0 => TraceOp::Read,
        1 => TraceOp::Write,
        value => return Err(BinaryTraceError::BadOp { value, index }),
    };
    Ok(TraceRecord { cycle, addr, op })
}

/// Encodes the version-2 footer for a stream of `count` records.
pub(crate) fn encode_footer(count: u64) -> [u8; FOOTER_BYTES] {
    let mut out = [0u8; FOOTER_BYTES];
    let (n, mark) = out.split_at_mut(8);
    n.copy_from_slice(&count.to_le_bytes());
    mark.copy_from_slice(FOOTER_MARK);
    out
}

/// Parses a version-2 footer, returning the declared record count if the
/// end marker matches.
pub(crate) fn parse_footer(bytes: &[u8]) -> Option<u64> {
    let (n, mark) = (bytes.get(0..8)?, bytes.get(8..16)?);
    if mark != FOOTER_MARK {
        return None;
    }
    let mut count = [0u8; 8];
    count.copy_from_slice(n);
    Some(u64::from_le_bytes(count))
}

/// Encodes `records` as raw fixed-width record bytes — the container's
/// record encoding with no header or footer. This is the payload format
/// of a wire *chunk*: a service feeding a simulation session over a
/// byte stream frames records with its own length prefix and has no use
/// for the per-file envelope. [`decode_records_into`] is the inverse.
pub fn encode_records_into(records: &[TraceRecord], out: &mut Vec<u8>) {
    let mut buf = [0u8; RECORD_BYTES];
    for r in records {
        encode_record(r, &mut buf);
        out.extend_from_slice(&buf);
    }
}

/// Decodes raw record bytes produced by [`encode_records_into`],
/// appending to `out` (which may hold earlier chunks — nothing is
/// cleared). `base_index` is the 0-based index of the chunk's first
/// record within the whole stream, used for error reporting. Returns
/// the number of records decoded.
///
/// # Errors
///
/// [`BinaryTraceError::Truncated`] when `bytes` is not a whole number
/// of records (offsets are relative to the chunk), and
/// [`BinaryTraceError::BadOp`] for an invalid op byte — in which case
/// `out` keeps the records decoded before the bad one.
pub fn decode_records_into(
    bytes: &[u8],
    base_index: u64,
    out: &mut Vec<TraceRecord>,
) -> Result<usize, BinaryTraceError> {
    if !bytes.len().is_multiple_of(RECORD_BYTES) {
        let whole = (bytes.len() / RECORD_BYTES) as u64;
        return Err(BinaryTraceError::Truncated {
            records_read: whole,
            byte_offset: whole * RECORD_BYTES as u64,
        });
    }
    let mut n: usize = 0;
    for raw in bytes.chunks_exact(RECORD_BYTES) {
        out.push(decode_record(raw, base_index + n as u64)?);
        n += 1;
    }
    Ok(n)
}

/// An incremental writer for the binary container (version 2).
///
/// Writes the header on construction, records one at a time, and the
/// record-count footer on [`finish`](Self::finish) — so arbitrarily long
/// traces can be captured without materializing them.
#[derive(Debug)]
pub struct BinaryWriter<W: Write> {
    writer: W,
    count: u64,
    buf: [u8; RECORD_BYTES],
}

impl<W: Write> BinaryWriter<W> {
    /// Starts a new container, writing the version-2 header.
    ///
    /// # Errors
    ///
    /// Returns [`BinaryTraceError::Io`] on write failure.
    pub fn new(mut writer: W) -> Result<Self, BinaryTraceError> {
        writer.write_all(MAGIC_V2)?;
        Ok(Self {
            writer,
            count: 0,
            buf: [0u8; RECORD_BYTES],
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns [`BinaryTraceError::Io`] on write failure.
    pub fn write(&mut self, record: &TraceRecord) -> Result<(), BinaryTraceError> {
        encode_record(record, &mut self.buf);
        self.writer.write_all(&self.buf)?;
        self.count += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Writes the footer and flushes, returning the record count.
    ///
    /// # Errors
    ///
    /// Returns [`BinaryTraceError::Io`] on write failure.
    pub fn finish(mut self) -> Result<u64, BinaryTraceError> {
        self.writer.write_all(&encode_footer(self.count))?;
        self.writer.flush()?;
        Ok(self.count)
    }
}

/// Writes `records` to `writer` in the binary container format
/// (version 2, with a record-count footer). A `&mut` reference may be
/// passed as the writer.
///
/// # Errors
///
/// Returns [`BinaryTraceError::Io`] on write failure.
pub fn write_binary<W: Write, I: IntoIterator<Item = TraceRecord>>(
    writer: W,
    records: I,
) -> Result<u64, BinaryTraceError> {
    let mut out = BinaryWriter::new(writer)?;
    for r in records {
        out.write(&r)?;
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{BinaryStreamSource, TraceSource, TraceStreamError};
    use crate::synth::benchmarks;
    use std::io::Cursor;

    /// Decodes a whole container through the streaming reader.
    fn read_all(bytes: &[u8]) -> Result<Vec<TraceRecord>, TraceStreamError> {
        let mut source = BinaryStreamSource::new(Cursor::new(bytes))?;
        let mut out = Vec::new();
        while let Some(chunk) = source.next_chunk()? {
            out.extend_from_slice(chunk);
        }
        Ok(out)
    }

    #[test]
    fn round_trip_preserves_records() {
        let records = benchmarks::by_name("qsort").unwrap().generate(5, 4_000);
        let mut bytes = Vec::new();
        let n = write_binary(&mut bytes, records.iter().copied()).unwrap();
        assert_eq!(n, 4_000);
        assert_eq!(bytes.len(), 8 + 4_000 * RECORD_BYTES + FOOTER_BYTES);
        assert_eq!(read_all(&bytes).unwrap(), records);
    }

    #[test]
    fn incremental_writer_matches_one_shot() {
        let records = benchmarks::by_name("mad").unwrap().generate(3, 512);
        let mut one_shot = Vec::new();
        write_binary(&mut one_shot, records.iter().copied()).unwrap();
        let mut incremental = Vec::new();
        let mut w = BinaryWriter::new(&mut incremental).unwrap();
        for r in &records {
            w.write(r).unwrap();
        }
        assert_eq!(w.count(), 512);
        assert_eq!(w.finish().unwrap(), 512);
        assert_eq!(one_shot, incremental);
    }

    #[test]
    fn version_1_files_still_read() {
        let records = benchmarks::by_name("qsort").unwrap().generate(2, 64);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC_V1);
        let mut buf = [0u8; RECORD_BYTES];
        for r in &records {
            encode_record(r, &mut buf);
            bytes.extend_from_slice(&buf);
        }
        assert_eq!(read_all(&bytes).unwrap(), records);
    }

    #[test]
    fn binary_is_much_smaller_than_text() {
        let records = benchmarks::by_name("mad").unwrap().generate(9, 2_000);
        let mut bin = Vec::new();
        write_binary(&mut bin, records.iter().copied()).unwrap();
        let mut text = Vec::new();
        crate::format::write_trace(&mut text, records.iter().copied()).unwrap();
        // Text size varies with address magnitude; binary is fixed-width
        // and always smaller.
        assert!(
            bin.len() < text.len(),
            "binary {} vs text {}",
            bin.len(),
            text.len()
        );
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut bytes = Vec::new();
        write_binary(&mut bytes, std::iter::empty()).unwrap();
        assert_eq!(read_all(&bytes).unwrap(), Vec::new());
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(matches!(
            read_all(&b"NOTATRACE"[..]),
            Err(TraceStreamError::Binary(BinaryTraceError::BadMagic))
        ));
        assert!(matches!(
            read_all(&b"WO"[..]),
            Err(TraceStreamError::Binary(BinaryTraceError::BadMagic))
        ));
        assert!(matches!(
            read_all(&b"WOMTRC\x00\x09"[..]),
            Err(TraceStreamError::Binary(BinaryTraceError::BadMagic))
        ));
    }

    #[test]
    fn truncation_is_reported_with_progress_and_offset() {
        let records = benchmarks::by_name("qsort").unwrap().generate(1, 10);
        let mut bytes = Vec::new();
        write_binary(&mut bytes, records.iter().copied()).unwrap();
        bytes.truncate(8 + 5 * RECORD_BYTES + 3); // mid-record
        match read_all(&bytes) {
            Err(TraceStreamError::Binary(BinaryTraceError::Truncated {
                records_read,
                byte_offset,
            })) => {
                assert_eq!(records_read, 5);
                assert_eq!(byte_offset, 8 + 5 * RECORD_BYTES as u64 + 3);
            }
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn missing_footer_is_truncation_in_v2() {
        // Records chopped exactly at a record boundary: a v1 reader would
        // call this clean; the v2 footer proves records are missing.
        let records = benchmarks::by_name("qsort").unwrap().generate(1, 10);
        let mut bytes = Vec::new();
        write_binary(&mut bytes, records.iter().copied()).unwrap();
        bytes.truncate(8 + 7 * RECORD_BYTES);
        match read_all(&bytes) {
            Err(TraceStreamError::Binary(BinaryTraceError::Truncated {
                records_read,
                byte_offset,
            })) => {
                assert_eq!(records_read, 7);
                assert_eq!(byte_offset, 8 + 7 * RECORD_BYTES as u64);
            }
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn bad_op_byte_is_rejected() {
        let mut bytes = Vec::new();
        write_binary(&mut bytes, vec![TraceRecord::new(1, 64, TraceOp::Read)]).unwrap();
        bytes[8 + RECORD_BYTES - 1] = 7;
        match read_all(&bytes) {
            Err(TraceStreamError::Binary(BinaryTraceError::BadOp { value: 7, index: 0 })) => {}
            other => panic!("expected bad op, got {other:?}"),
        }
    }
}
