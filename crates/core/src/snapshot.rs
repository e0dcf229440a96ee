//! The `WOMSNAP` snapshot container: deterministic engine state capture
//! for resumable endurance runs.
//!
//! A snapshot freezes a [`Session`](crate::session::Session) between
//! trace records so a long endurance run can be interrupted and resumed
//! bit-identically, and so `womd` can park an idle session and resume it
//! later. The container mirrors the `WOMTRC` v2 idiom from
//! `pcm_trace::binary`: an 8-byte magic-plus-version prefix, a fixed
//! header, the payload, and a self-describing footer (payload length and
//! CRC-32) so a chopped-off tail is distinguishable from a clean file.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     7  magic  b"WOMSNAP"
//!      7     1  format version (0x04)
//!      8     1  architecture tag (0..=3)
//!      9     8  config fingerprint (FNV-1a over the Debug rendering)
//!     17     8  trace records consumed before the snapshot
//!     25     8  payload length N
//!     33     N  payload (engine + policy state, `pcm_sim::snap` codec)
//!   33+N     8  payload length N (repeated, footer)
//!   41+N     4  CRC-32 (IEEE, reflected) of the payload
//! ```
//!
//! Version `0x04`, the only one read, writes only live run state
//! (DESIGN.md §12), and each live count once: nothing the configuration
//! fixes (no presence flags, dimensions, limits or clock period — every
//! configured part restores into the instance the configuration built),
//! nothing restore can derive (such as the next refresh tick), nothing
//! set only when a run finishes (the energy, wear and verified-read
//! totals of `RunMetrics`), and no closed coalescing window. Each
//! controller's wear is one (row, writes) list. A `0x01`, `0x02` or
//! `0x03` container fails with [`SnapshotError::UnsupportedVersion`].
//!
//! The config fingerprint rejects restoring a snapshot into a system
//! built from a different [`SystemConfig`] — the payload layout depends
//! on geometry, code selection, and policy parameters, so a mismatch
//! would at best surface as a confusing [`SnapshotError::Corrupt`] deep
//! inside the decoder.

use core::fmt;

use crate::arch::Architecture;
use crate::config::SystemConfig;
use pcm_sim::snap::{crc32, SnapError, SnapReader, SnapWriter};

/// File magic prefix; the 8th container byte is the format version.
const MAGIC: &[u8; 7] = b"WOMSNAP";
/// Current (and only) container format version.
const VERSION: u8 = 0x04;
/// Fixed header length: magic + version + arch + fingerprint +
/// records-consumed + payload length.
const HEADER_BYTES: usize = 7 + 1 + 1 + 8 + 8 + 8;

/// Errors from encoding, decoding, or applying a `WOMSNAP` container.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Reading or writing the snapshot file failed.
    Io(std::io::Error),
    /// The bytes do not start with the `WOMSNAP` magic.
    BadMagic,
    /// The container declares a format version this build cannot read.
    UnsupportedVersion(u8),
    /// The container ends before the byte at `byte_offset` promised by
    /// its header or footer — an interrupted or chopped-off write.
    Truncated {
        /// Offset of the first missing byte.
        byte_offset: u64,
    },
    /// The payload CRC-32 does not match the footer — bit rot or a
    /// torn write.
    BadChecksum,
    /// The snapshot was taken under a different system configuration
    /// (architecture or config fingerprint mismatch).
    ConfigMismatch {
        /// Fingerprint recorded in the snapshot.
        snapshot: u64,
        /// Fingerprint of the configuration being restored into.
        current: u64,
    },
    /// The payload decoded but violated a structural invariant; the
    /// string names the first check that failed.
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "snapshot i/o error: {e}"),
            Self::BadMagic => f.write_str("not a womsnap snapshot (bad magic)"),
            Self::UnsupportedVersion(v) => {
                write!(f, "unsupported womsnap format version {v}")
            }
            Self::Truncated { byte_offset } => {
                write!(f, "snapshot truncated at byte {byte_offset}")
            }
            Self::BadChecksum => f.write_str("snapshot payload failed its CRC-32 check"),
            Self::ConfigMismatch { snapshot, current } => write!(
                f,
                "snapshot was taken under a different configuration \
                 (fingerprint {snapshot:#018x}, current {current:#018x})"
            ),
            Self::Corrupt(what) => write!(f, "corrupt snapshot payload: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<SnapError> for SnapshotError {
    fn from(e: SnapError) -> Self {
        match e {
            SnapError::Truncated { byte_offset } => Self::Truncated { byte_offset },
            SnapError::Corrupt(what) => Self::Corrupt(what),
            _ => Self::Corrupt("unrecognized payload codec error"),
        }
    }
}

/// A decoded snapshot container: header fields plus a borrowed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotEnvelope<'a> {
    /// Architecture the snapshot was taken under.
    pub arch: Architecture,
    /// FNV-1a fingerprint of the originating configuration.
    pub fingerprint: u64,
    /// Trace records the run had consumed when the snapshot was taken.
    pub records_consumed: u64,
    /// The engine + policy state payload.
    pub payload: &'a [u8],
}

/// FNV-1a hash of a configuration's `Debug` rendering — a cheap,
/// dependency-free fingerprint that changes whenever any config field
/// does (geometry, timings, code selection, policy parameters).
#[must_use]
pub fn config_fingerprint(config: &SystemConfig) -> u64 {
    let rendered = format!("{config:?}");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in rendered.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn arch_tag(arch: Architecture) -> u8 {
    match arch {
        Architecture::Baseline => 0,
        Architecture::WomCode => 1,
        Architecture::WomCodeRefresh => 2,
        Architecture::Wcpcm => 3,
    }
}

fn arch_from_tag(tag: u8) -> Result<Architecture, SnapshotError> {
    match tag {
        0 => Ok(Architecture::Baseline),
        1 => Ok(Architecture::WomCode),
        2 => Ok(Architecture::WomCodeRefresh),
        3 => Ok(Architecture::Wcpcm),
        _ => Err(SnapshotError::Corrupt("architecture tag")),
    }
}

/// Builds a `WOMSNAP` container whose payload `write_payload` appends
/// straight into the container buffer: the header goes first with a
/// placeholder length, which is patched once the payload is complete,
/// and the footer follows. The payload is never copied.
#[must_use]
pub fn encode_container(
    arch: Architecture,
    fingerprint: u64,
    records_consumed: u64,
    write_payload: impl FnOnce(&mut SnapWriter),
) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_bytes(MAGIC);
    w.put(&VERSION);
    w.put(&arch_tag(arch));
    w.put(&fingerprint);
    w.put(&records_consumed);
    w.put(&0u64);
    write_payload(&mut w);
    let mut out = w.into_bytes();
    let (header, payload) = out.split_at_mut(HEADER_BYTES);
    let len = (payload.len() as u64).to_le_bytes();
    let crc = crc32(payload).to_le_bytes();
    if let Some(len_field) = header.get_mut(HEADER_BYTES - 8..) {
        len_field.copy_from_slice(&len);
    }
    out.extend_from_slice(&len);
    out.extend_from_slice(&crc);
    // womd keeps a parked session as this buffer: hand back the growth
    // slack (a shrink is usually in place) rather than hold up to twice
    // the container's size.
    out.shrink_to_fit();
    out
}

/// Validates a `WOMSNAP` container and returns its header fields and
/// payload. The payload's CRC and both length fields are checked here;
/// decoding the payload itself is the caller's job.
///
/// # Errors
///
/// [`SnapshotError::BadMagic`] / [`SnapshotError::UnsupportedVersion`]
/// for foreign bytes, [`SnapshotError::Truncated`] when the container is
/// shorter than its header promises, [`SnapshotError::BadChecksum`] when
/// the payload fails its CRC, and [`SnapshotError::Corrupt`] for an
/// unknown architecture tag or disagreeing length fields.
pub fn decode_container(bytes: &[u8]) -> Result<SnapshotEnvelope<'_>, SnapshotError> {
    let mut r = SnapReader::new(bytes);
    if r.take_bytes(MAGIC.len()).ok() != Some(MAGIC) {
        return Err(SnapshotError::BadMagic);
    }
    let version: u8 = r.take().map_err(|_| SnapshotError::BadMagic)?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let arch = arch_from_tag(r.take()?)?;
    let fingerprint = r.take()?;
    let records_consumed = r.take()?;
    let payload_len: usize = r.take()?;
    let payload = r.take_bytes(payload_len)?;
    if r.take::<usize>()? != payload_len {
        return Err(SnapshotError::Corrupt(
            "footer length disagrees with header",
        ));
    }
    if r.take::<u32>()? != crc32(payload) {
        return Err(SnapshotError::BadChecksum);
    }
    Ok(SnapshotEnvelope {
        arch,
        fingerprint,
        records_consumed,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        encode_container(Architecture::WomCodeRefresh, 0xDEAD_BEEF, 42, |w| {
            w.put_bytes(b"payload");
        })
    }

    #[test]
    fn round_trips_header_and_payload() {
        let bytes = sample();
        let env = decode_container(&bytes).unwrap();
        assert_eq!(env.arch, Architecture::WomCodeRefresh);
        assert_eq!(env.fingerprint, 0xDEAD_BEEF);
        assert_eq!(env.records_consumed, 42);
        assert_eq!(env.payload, b"payload");
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        assert!(matches!(
            decode_container(b"NOTSNAP\x01junk"),
            Err(SnapshotError::BadMagic)
        ));
        assert!(matches!(
            decode_container(b""),
            Err(SnapshotError::BadMagic)
        ));
        let mut bytes = sample();
        bytes[7] = 0x7f;
        assert!(matches!(
            decode_container(&bytes),
            Err(SnapshotError::UnsupportedVersion(0x7f))
        ));
    }

    #[test]
    fn truncation_is_typed_at_every_region() {
        let bytes = sample();
        for cut in [8, 12, 20, 30, HEADER_BYTES + 3, bytes.len() - 1] {
            let err = decode_container(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated { .. })
                    || matches!(err, SnapshotError::BadMagic),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn corruption_fails_the_checksum() {
        let mut bytes = sample();
        bytes[HEADER_BYTES] ^= 0x40;
        assert!(matches!(
            decode_container(&bytes),
            Err(SnapshotError::BadChecksum)
        ));
    }

    #[test]
    fn footer_length_mismatch_is_corrupt() {
        let mut bytes = sample();
        // The footer is the repeated payload length, then the CRC-32.
        let end = bytes.len() - 8 - 4;
        bytes[end] ^= 1;
        assert!(matches!(
            decode_container(&bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_arch_tag_is_corrupt() {
        let mut bytes = sample();
        bytes[8] = 9;
        assert!(matches!(
            decode_container(&bytes),
            Err(SnapshotError::Corrupt("architecture tag"))
        ));
    }

    #[test]
    fn fingerprint_tracks_config_changes() {
        let a = SystemConfig::tiny(Architecture::WomCode);
        let mut b = SystemConfig::tiny(Architecture::WomCode);
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
        b.rewrite_limit += 1;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
    }

    #[test]
    fn smallest_values_encode_to_at_least_min_bytes() {
        use crate::{CacheStats, EpochCounters, RowMap};
        use pcm_sim::snap::Snap;

        fn check<T: Snap>(smallest: &T) {
            let mut w = SnapWriter::new();
            w.put(smallest);
            let bytes = w.into_bytes();
            let name = core::any::type_name::<T>();
            assert!(bytes.len() >= T::MIN_BYTES, "{name}: below MIN_BYTES");
            let mut r = SnapReader::new(&bytes);
            let back: T = r.take().expect("decodes");
            r.finish().expect("consumes every byte");
            let mut again = SnapWriter::new();
            again.put(&back);
            assert_eq!(again.into_bytes(), bytes, "{name}");
        }
        check(&CacheStats::default());
        check(&EpochCounters::default());
        check(&RowMap::<u32>::new());
    }
}
