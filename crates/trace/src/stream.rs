//! Streaming trace sources: lazy, chunked, deterministically resettable.
//!
//! Every consumer used to materialize a full `Vec<TraceRecord>` before the
//! engine saw a single record, capping endurance studies at traces that
//! fit in RAM. A [`TraceSource`] instead hands out records a chunk at a
//! time from a reused internal buffer, so trace-side memory stays
//! `O(chunk)` regardless of trace length, and [`reset`](TraceSource::reset)
//! rewinds to the first record so multi-architecture sweeps and repeated
//! benchmark runs replay the *identical* stream.
//!
//! The concrete sources:
//!
//! * [`SliceSource`] — borrows an already-materialized slice (the
//!   compatibility path; also what trace transforms produce);
//! * [`IterSource`] — adapts any `Clone` iterator of records, notably the
//!   synthetic generators ([`WorkloadProfile::generate_stream`] and the
//!   datacenter generators), keeping a pristine copy for reset;
//! * [`BinaryStreamSource`] — chunked reader for the binary container,
//!   validating the version-2 record-count footer up front so truncation
//!   is reported before the first record is consumed. Bytes that arrive
//!   without a seekable file (a socket, a service frame) are decoded a
//!   chunk at a time with [`binary::decode_records_into`] instead.
//!
//! [`TraceSpec`] is the `Clone + Send` *description* of a source; the
//! parallel runners clone a spec per worker and [`open`](TraceSpec::open)
//! a private source in each, which is what makes per-cell replay safe.

use crate::binary::{self, BinaryTraceError, FOOTER_BYTES, HEADER_BYTES, RECORD_BYTES};
use crate::record::TraceRecord;
use crate::synth::datacenter::{self, DcProfile, DcTrace};
use crate::synth::{benchmarks, SyntheticTrace, WorkloadProfile};
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::PathBuf;

/// Default records per chunk (≈ 96 KiB of buffered records).
pub const DEFAULT_CHUNK_RECORDS: usize = 4096;

/// Errors from opening or draining a trace source.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceStreamError {
    /// Underlying I/O failure (e.g. opening a trace file).
    Io(std::io::Error),
    /// Malformed binary container.
    Binary(BinaryTraceError),
    /// Invalid or unknown workload profile.
    Profile(String),
}

impl core::fmt::Display for TraceStreamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "trace stream i/o error: {e}"),
            Self::Binary(e) => write!(f, "trace stream container error: {e}"),
            Self::Profile(msg) => write!(f, "trace stream profile error: {msg}"),
        }
    }
}

impl std::error::Error for TraceStreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Binary(e) => Some(e),
            Self::Profile(_) => None,
        }
    }
}

impl From<std::io::Error> for TraceStreamError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<BinaryTraceError> for TraceStreamError {
    fn from(e: BinaryTraceError) -> Self {
        Self::Binary(e)
    }
}

/// A lazy, chunked, resettable stream of trace records.
///
/// The contract:
///
/// * [`next_chunk`](Self::next_chunk) yields a non-empty slice of records
///   in trace order, valid until the next call on the same source, or
///   `Ok(None)` at end of stream. The slice borrows an internal buffer —
///   implementations must not allocate per record.
/// * [`reset`](Self::reset) rewinds to the first record; a reset source
///   replays the byte-identical record sequence (determinism is what lets
///   the benchmark harness time repeated runs of one source and the
///   parallel runner replay one spec per cell).
/// * [`len_hint`](Self::len_hint) is the total records a fresh (or newly
///   reset) source will yield, when known.
pub trait TraceSource {
    /// Returns the next chunk of records, or `None` at end of stream.
    ///
    /// # Errors
    ///
    /// Returns [`TraceStreamError`] on I/O failure or malformed input.
    fn next_chunk(&mut self) -> Result<Option<&[TraceRecord]>, TraceStreamError>;

    /// Rewinds the source to its first record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceStreamError`] if the underlying reader cannot seek.
    fn reset(&mut self) -> Result<(), TraceStreamError>;

    /// Total records a fresh source yields, if known up front.
    fn len_hint(&self) -> Option<u64> {
        None
    }
}

/// Chunked view over an already-materialized record slice.
#[derive(Debug)]
pub struct SliceSource<'a> {
    records: &'a [TraceRecord],
    pos: usize,
    chunk: usize,
}

impl<'a> SliceSource<'a> {
    /// Wraps `records` with the default chunk size.
    #[must_use]
    pub fn new(records: &'a [TraceRecord]) -> Self {
        Self::with_chunk_records(records, DEFAULT_CHUNK_RECORDS)
    }

    /// Wraps `records`, yielding at most `chunk` records per call.
    #[must_use]
    pub fn with_chunk_records(records: &'a [TraceRecord], chunk: usize) -> Self {
        Self {
            records,
            pos: 0,
            chunk: chunk.max(1),
        }
    }
}

impl TraceSource for SliceSource<'_> {
    fn next_chunk(&mut self) -> Result<Option<&[TraceRecord]>, TraceStreamError> {
        let end = self.pos.saturating_add(self.chunk).min(self.records.len());
        let out = self.records.get(self.pos..end).unwrap_or_default();
        self.pos = end;
        Ok(if out.is_empty() { None } else { Some(out) })
    }

    fn reset(&mut self) -> Result<(), TraceStreamError> {
        self.pos = 0;
        Ok(())
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.records.len() as u64)
    }
}

/// Adapts a deterministic `Clone` iterator into a bounded source.
///
/// Keeps a pristine copy of the iterator so [`reset`](TraceSource::reset)
/// replays the identical stream without regenerating shared state.
#[derive(Debug, Clone)]
pub struct IterSource<I> {
    fresh: I,
    iter: I,
    total: u64,
    remaining: u64,
    buf: Vec<TraceRecord>,
    chunk: usize,
}

impl<I: Iterator<Item = TraceRecord> + Clone> IterSource<I> {
    /// Bounds `iter` to `records` items with the default chunk size.
    #[must_use]
    pub fn new(iter: I, records: u64) -> Self {
        Self::with_chunk_records(iter, records, DEFAULT_CHUNK_RECORDS)
    }

    /// Bounds `iter` to `records` items, `chunk` records per call.
    #[must_use]
    pub fn with_chunk_records(iter: I, records: u64, chunk: usize) -> Self {
        let chunk = chunk.max(1);
        Self {
            fresh: iter.clone(),
            iter,
            total: records,
            remaining: records,
            buf: Vec::with_capacity(chunk),
            chunk,
        }
    }
}

impl<I: Iterator<Item = TraceRecord> + Clone> TraceSource for IterSource<I> {
    fn next_chunk(&mut self) -> Result<Option<&[TraceRecord]>, TraceStreamError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let n = (self.remaining).min(self.chunk as u64) as usize;
        self.buf.clear();
        self.buf.extend(self.iter.by_ref().take(n));
        self.remaining -= self.buf.len() as u64;
        if self.buf.len() < n {
            // The underlying iterator ran dry early (finite adversarial
            // generators); stop here rather than spinning.
            self.remaining = 0;
        }
        Ok(if self.buf.is_empty() {
            None
        } else {
            Some(&self.buf)
        })
    }

    fn reset(&mut self) -> Result<(), TraceStreamError> {
        self.iter = self.fresh.clone();
        self.remaining = self.total;
        Ok(())
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.total)
    }
}

/// Chunked reader for the binary trace container.
///
/// Requires `Read + Seek` so the version-2 record-count footer can be
/// validated *before* any record is handed out: a truncated capture fails
/// at open time with the byte offset where data stops, not hours into a
/// run. Version-1 files (no footer) are accepted when their payload is an
/// exact multiple of the record size.
#[derive(Debug)]
pub struct BinaryStreamSource<R> {
    reader: R,
    total: u64,
    pos: u64,
    bytes: Vec<u8>,
    records: Vec<TraceRecord>,
    chunk: usize,
}

/// A [`BinaryStreamSource`] over a buffered file, as produced by
/// [`BinaryStreamSource::open`].
pub type FileSource = BinaryStreamSource<BufReader<File>>;

impl BinaryStreamSource<BufReader<File>> {
    /// Opens and validates a binary trace file.
    ///
    /// # Errors
    ///
    /// Returns [`TraceStreamError::Io`] if the file cannot be opened and
    /// [`TraceStreamError::Binary`] for a malformed or truncated
    /// container.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, TraceStreamError> {
        let path = path.into();
        let file = File::open(&path)?;
        Self::new(BufReader::new(file))
    }
}

impl<R: Read + Seek> BinaryStreamSource<R> {
    /// Wraps `reader` with the default chunk size, validating the header
    /// and (for version 2) the record-count footer up front.
    ///
    /// # Errors
    ///
    /// See [`TraceStreamError`].
    pub fn new(reader: R) -> Result<Self, TraceStreamError> {
        Self::with_chunk_records(reader, DEFAULT_CHUNK_RECORDS)
    }

    /// Wraps `reader`, yielding at most `chunk` records per call.
    ///
    /// # Errors
    ///
    /// See [`TraceStreamError`].
    pub fn with_chunk_records(mut reader: R, chunk: usize) -> Result<Self, TraceStreamError> {
        let chunk = chunk.max(1);
        let stream_len = reader.seek(SeekFrom::End(0))?;
        reader.seek(SeekFrom::Start(0))?;
        let mut magic = [0u8; 8];
        reader
            .read_exact(&mut magic)
            .map_err(|_| BinaryTraceError::BadMagic)?;
        let version = binary::parse_magic(&magic)?;
        let record_bytes = RECORD_BYTES as u64;
        let total = if version >= 2 {
            // Whole complete records present in the payload region, used
            // only for error reporting when validation fails.
            let payload_records = stream_len.saturating_sub(HEADER_BYTES) / record_bytes;
            let footer_at = stream_len
                .checked_sub(FOOTER_BYTES as u64)
                .filter(|at| *at >= HEADER_BYTES)
                .ok_or(BinaryTraceError::Truncated {
                    records_read: 0,
                    byte_offset: stream_len,
                })?;
            reader.seek(SeekFrom::Start(footer_at))?;
            let mut footer = [0u8; FOOTER_BYTES];
            reader.read_exact(&mut footer)?;
            let declared = binary::parse_footer(&footer).ok_or(BinaryTraceError::Truncated {
                records_read: payload_records,
                byte_offset: stream_len,
            })?;
            let expected = HEADER_BYTES + declared * record_bytes + FOOTER_BYTES as u64;
            if expected != stream_len {
                return Err(BinaryTraceError::Truncated {
                    records_read: payload_records,
                    byte_offset: stream_len,
                }
                .into());
            }
            declared
        } else {
            let payload = stream_len.saturating_sub(HEADER_BYTES);
            if payload % record_bytes != 0 {
                return Err(BinaryTraceError::Truncated {
                    records_read: payload / record_bytes,
                    byte_offset: stream_len,
                }
                .into());
            }
            payload / record_bytes
        };
        reader.seek(SeekFrom::Start(HEADER_BYTES))?;
        Ok(Self {
            reader,
            total,
            pos: 0,
            bytes: vec![0u8; chunk * RECORD_BYTES],
            records: Vec::with_capacity(chunk),
            chunk,
        })
    }

    /// Total records promised by the container.
    #[must_use]
    pub fn total_records(&self) -> u64 {
        self.total
    }
}

impl<R: Read + Seek> TraceSource for BinaryStreamSource<R> {
    fn next_chunk(&mut self) -> Result<Option<&[TraceRecord]>, TraceStreamError> {
        if self.pos == self.total {
            return Ok(None);
        }
        let n = (self.total - self.pos).min(self.chunk as u64) as usize;
        let nbytes = n * RECORD_BYTES;
        let Some(fill) = self.bytes.get_mut(..nbytes) else {
            return Err(TraceStreamError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "internal: chunk buffer smaller than chunk",
            )));
        };
        if let Err(e) = self.reader.read_exact(fill) {
            // The container promised `total` records (validated at open),
            // so running dry here means the stream shrank underneath us.
            return Err(match e.kind() {
                std::io::ErrorKind::UnexpectedEof => BinaryTraceError::Truncated {
                    records_read: self.pos,
                    byte_offset: HEADER_BYTES + self.pos * RECORD_BYTES as u64,
                }
                .into(),
                _ => TraceStreamError::Io(e),
            });
        }
        self.records.clear();
        for (i, raw) in fill.chunks_exact(RECORD_BYTES).enumerate() {
            self.records
                .push(binary::decode_record(raw, self.pos + i as u64)?);
        }
        self.pos += n as u64;
        Ok(Some(&self.records))
    }

    fn reset(&mut self) -> Result<(), TraceStreamError> {
        self.reader.seek(SeekFrom::Start(HEADER_BYTES))?;
        self.pos = 0;
        Ok(())
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.total)
    }
}

/// A workload profile from either catalog: the paper's SPEC / MiBench /
/// SPLASH-2 suites or the datacenter generators.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceProfile {
    /// A paper-suite profile ([`crate::synth::benchmarks`]).
    Suite(WorkloadProfile),
    /// A datacenter generator ([`crate::synth::datacenter`]).
    Datacenter(DcProfile),
}

impl From<WorkloadProfile> for TraceProfile {
    fn from(p: WorkloadProfile) -> Self {
        Self::Suite(p)
    }
}

impl From<DcProfile> for TraceProfile {
    fn from(p: DcProfile) -> Self {
        Self::Datacenter(p)
    }
}

impl TraceProfile {
    /// The profile's name (unique across both catalogs).
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Self::Suite(p) => &p.name,
            Self::Datacenter(p) => p.name(),
        }
    }

    /// Looks up `name` (case-insensitive) in the paper-suite catalog,
    /// then the datacenter catalog.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        benchmarks::by_name(name)
            .map(Self::Suite)
            .or_else(|| datacenter::by_name(name).map(Self::Datacenter))
    }

    /// Opens a lazy source yielding `records` records for `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceStreamError::Profile`] if the profile's knobs are
    /// invalid.
    pub fn source(&self, seed: u64, records: u64) -> Result<ProfileSource, TraceStreamError> {
        match self {
            Self::Suite(p) => {
                p.validate().map_err(TraceStreamError::Profile)?;
                Ok(ProfileSource::Suite(IterSource::new(
                    p.generator(seed),
                    records,
                )))
            }
            Self::Datacenter(p) => Ok(ProfileSource::Datacenter(IterSource::new(
                p.generator(seed).map_err(TraceStreamError::Profile)?,
                records,
            ))),
        }
    }

    /// Convenience: materializes `n` records (small runs and tests).
    ///
    /// # Errors
    ///
    /// Returns [`TraceStreamError::Profile`] if the profile's knobs are
    /// invalid.
    pub fn generate(&self, seed: u64, n: usize) -> Result<Vec<TraceRecord>, TraceStreamError> {
        let mut source = self.source(seed, n as u64)?;
        let mut out = Vec::with_capacity(n);
        while let Some(chunk) = source.next_chunk()? {
            out.extend_from_slice(chunk);
        }
        Ok(out)
    }
}

/// A source backed by either profile family.
#[derive(Debug, Clone)]
pub enum ProfileSource {
    /// Paper-suite generator stream.
    Suite(IterSource<SyntheticTrace>),
    /// Datacenter generator stream.
    Datacenter(IterSource<DcTrace>),
}

impl TraceSource for ProfileSource {
    fn next_chunk(&mut self) -> Result<Option<&[TraceRecord]>, TraceStreamError> {
        match self {
            Self::Suite(s) => s.next_chunk(),
            Self::Datacenter(s) => s.next_chunk(),
        }
    }

    fn reset(&mut self) -> Result<(), TraceStreamError> {
        match self {
            Self::Suite(s) => s.reset(),
            Self::Datacenter(s) => s.reset(),
        }
    }

    fn len_hint(&self) -> Option<u64> {
        match self {
            Self::Suite(s) => s.len_hint(),
            Self::Datacenter(s) => s.len_hint(),
        }
    }
}

/// A cloneable, sendable *description* of a trace source.
///
/// The parallel runners hand one spec to each worker; every worker
/// [`open`](Self::open)s its own private source, so cells never contend
/// on shared reader state and each replays the identical stream.
#[derive(Debug, Clone)]
pub enum TraceSpec {
    /// An already-materialized trace (compatibility path; also the output
    /// of trace transforms).
    Records(Vec<TraceRecord>),
    /// A synthetic profile, generated lazily per open.
    Profile {
        /// Workload profile from either catalog.
        profile: TraceProfile,
        /// Generator seed.
        seed: u64,
        /// Records to yield.
        records: u64,
    },
    /// A binary container file, streamed chunk-wise per open.
    BinaryFile(PathBuf),
}

impl From<Vec<TraceRecord>> for TraceSpec {
    fn from(records: Vec<TraceRecord>) -> Self {
        Self::Records(records)
    }
}

impl TraceSpec {
    /// Spec for a lazily generated synthetic workload.
    #[must_use]
    pub fn synth(profile: impl Into<TraceProfile>, seed: u64, records: u64) -> Self {
        Self::Profile {
            profile: profile.into(),
            seed,
            records,
        }
    }

    /// Records the spec will yield, when known without opening a file.
    #[must_use]
    pub fn records_hint(&self) -> Option<u64> {
        match self {
            Self::Records(v) => Some(v.len() as u64),
            Self::Profile { records, .. } => Some(*records),
            Self::BinaryFile(_) => None,
        }
    }

    /// Opens a fresh source for this spec.
    ///
    /// # Errors
    ///
    /// See [`TraceStreamError`].
    pub fn open(&self) -> Result<SpecSource<'_>, TraceStreamError> {
        match self {
            Self::Records(v) => Ok(SpecSource::Slice(SliceSource::new(v))),
            Self::Profile {
                profile,
                seed,
                records,
            } => Ok(SpecSource::Profile(Box::new(
                profile.source(*seed, *records)?,
            ))),
            Self::BinaryFile(path) => Ok(SpecSource::File(BinaryStreamSource::open(path.clone())?)),
        }
    }
}

/// The source opened from a [`TraceSpec`].
#[derive(Debug)]
pub enum SpecSource<'a> {
    /// Borrowed materialized records.
    Slice(SliceSource<'a>),
    /// Lazily generated synthetic stream.
    Profile(Box<ProfileSource>),
    /// Streamed binary container file.
    File(FileSource),
}

impl TraceSource for SpecSource<'_> {
    fn next_chunk(&mut self) -> Result<Option<&[TraceRecord]>, TraceStreamError> {
        match self {
            Self::Slice(s) => s.next_chunk(),
            Self::Profile(s) => s.next_chunk(),
            Self::File(s) => s.next_chunk(),
        }
    }

    fn reset(&mut self) -> Result<(), TraceStreamError> {
        match self {
            Self::Slice(s) => s.reset(),
            Self::Profile(s) => s.reset(),
            Self::File(s) => s.reset(),
        }
    }

    fn len_hint(&self) -> Option<u64> {
        match self {
            Self::Slice(s) => s.len_hint(),
            Self::Profile(s) => s.len_hint(),
            Self::File(s) => s.len_hint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::write_binary;
    use std::io::Cursor;

    fn drain<S: TraceSource>(source: &mut S) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        while let Some(chunk) = source.next_chunk().expect("source streams") {
            assert!(!chunk.is_empty(), "chunks are non-empty");
            out.extend_from_slice(chunk);
        }
        out
    }

    #[test]
    fn slice_source_round_trips_and_resets() {
        let records = benchmarks::by_name("qsort").unwrap().generate(3, 1000);
        let mut s = SliceSource::with_chunk_records(&records, 64);
        assert_eq!(s.len_hint(), Some(1000));
        assert_eq!(drain(&mut s), records);
        assert!(s.next_chunk().unwrap().is_none());
        s.reset().unwrap();
        assert_eq!(drain(&mut s), records);
    }

    #[test]
    fn iter_source_matches_materialized() {
        let p = benchmarks::by_name("464.h264ref").unwrap();
        let materialized = p.generate(9, 5000);
        let mut s = IterSource::with_chunk_records(p.generator(9), 5000, 77);
        assert_eq!(drain(&mut s), materialized);
        s.reset().unwrap();
        assert_eq!(drain(&mut s), materialized);
    }

    #[test]
    fn binary_stream_source_round_trips_and_resets() {
        let records = benchmarks::by_name("mad").unwrap().generate(5, 3000);
        let mut bytes = Vec::new();
        write_binary(&mut bytes, records.iter().copied()).unwrap();
        let mut s =
            BinaryStreamSource::with_chunk_records(Cursor::new(bytes), 100).expect("valid file");
        assert_eq!(s.total_records(), 3000);
        assert_eq!(drain(&mut s), records);
        s.reset().unwrap();
        assert_eq!(drain(&mut s), records);
    }

    #[test]
    fn truncated_v2_fails_at_open() {
        let records = benchmarks::by_name("qsort").unwrap().generate(1, 50);
        let mut bytes = Vec::new();
        write_binary(&mut bytes, records.iter().copied()).unwrap();
        bytes.truncate(bytes.len() - 40);
        match BinaryStreamSource::new(Cursor::new(bytes)) {
            Err(TraceStreamError::Binary(BinaryTraceError::Truncated { .. })) => {}
            other => panic!("expected up-front truncation, got {other:?}"),
        }
    }

    #[test]
    fn spec_opens_equivalent_sources() {
        let p = benchmarks::by_name("qsort").unwrap();
        let records = p.generate(11, 800);
        let from_vec = TraceSpec::from(records.clone());
        let from_profile = TraceSpec::synth(p, 11, 800);
        let mut a = from_vec.open().unwrap();
        let mut b = from_profile.open().unwrap();
        assert_eq!(drain(&mut a), drain(&mut b));
    }

    #[test]
    fn raw_chunk_codec_round_trips() {
        let records = benchmarks::by_name("mad").unwrap().generate(5, 321);
        let mut bytes = Vec::new();
        crate::binary::encode_records_into(&records, &mut bytes);
        assert_eq!(bytes.len(), 321 * 17);
        let mut out = Vec::new();
        let n = crate::binary::decode_records_into(&bytes, 0, &mut out).unwrap();
        assert_eq!(n, 321);
        assert_eq!(out, records);
        // A ragged chunk is rejected with the offset of the tear.
        match crate::binary::decode_records_into(&bytes[..20], 0, &mut Vec::new()) {
            Err(BinaryTraceError::Truncated {
                records_read: 1, ..
            }) => {}
            other => panic!("expected truncation, got {other:?}"),
        }
    }
}
