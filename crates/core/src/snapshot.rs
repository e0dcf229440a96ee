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
//!      7     1  format version (0x01)
//!      8     1  architecture tag (0..=3)
//!      9     8  config fingerprint (FNV-1a over the Debug rendering)
//!     17     8  trace records consumed before the snapshot
//!     25     8  payload length N
//!     33     N  payload (engine + policy state, `pcm_sim::snap` codec)
//!   33+N     8  payload length N (repeated, footer)
//!   41+N     4  CRC-32 (IEEE, reflected) of the payload
//! ```
//!
//! The config fingerprint rejects restoring a snapshot into a system
//! built from a different [`SystemConfig`] — the payload layout depends
//! on geometry, code selection, and policy parameters, so a mismatch
//! would at best surface as a confusing [`SnapshotError::Corrupt`] deep
//! inside the decoder.

use core::fmt;

use crate::arch::Architecture;
use crate::config::SystemConfig;
use pcm_sim::snap::{crc32, SnapError, SnapWriter};

/// File magic prefix; the 8th container byte is the format version.
const MAGIC: &[u8; 7] = b"WOMSNAP";
/// Current (and only) container format version.
const VERSION: u8 = 0x01;
/// Fixed header length: magic + version + arch + fingerprint +
/// records-consumed + payload length.
const HEADER_BYTES: usize = 7 + 1 + 1 + 8 + 8 + 8;
/// Footer length: repeated payload length + CRC-32.
const FOOTER_BYTES: usize = 8 + 4;

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
///
/// # Errors
///
/// Whatever `write_payload` returns; the partial container is dropped.
pub fn encode_container<E>(
    arch: Architecture,
    fingerprint: u64,
    records_consumed: u64,
    write_payload: impl FnOnce(&mut SnapWriter) -> Result<(), E>,
) -> Result<Vec<u8>, E> {
    let mut w = SnapWriter::new();
    w.put_bytes(MAGIC);
    w.put_u8(VERSION);
    w.put_u8(arch_tag(arch));
    w.put_u64(fingerprint);
    w.put_u64(records_consumed);
    w.put_u64(0);
    write_payload(&mut w)?;
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
    Ok(out)
}

fn take_le_u64(bytes: &[u8], offset: usize) -> Result<u64, SnapshotError> {
    match bytes.get(offset..offset + 8) {
        Some(s) => {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(s);
            Ok(u64::from_le_bytes(raw))
        }
        None => Err(SnapshotError::Truncated {
            byte_offset: bytes.len() as u64,
        }),
    }
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
    match bytes.get(..7) {
        Some(m) if m == MAGIC => {}
        Some(_) => return Err(SnapshotError::BadMagic),
        None => return Err(SnapshotError::BadMagic),
    }
    let version = bytes.get(7).copied().ok_or(SnapshotError::BadMagic)?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let arch = arch_from_tag(
        bytes
            .get(8)
            .copied()
            .ok_or(SnapshotError::Truncated { byte_offset: 8 })?,
    )?;
    let fingerprint = take_le_u64(bytes, 9)?;
    let records_consumed = take_le_u64(bytes, 17)?;
    let payload_len = take_le_u64(bytes, 25)?;
    let payload_len = usize::try_from(payload_len)
        .map_err(|_| SnapshotError::Corrupt("payload length overflows usize"))?;
    let end = HEADER_BYTES
        .checked_add(payload_len)
        .ok_or(SnapshotError::Corrupt("payload length overflows usize"))?;
    let payload = bytes
        .get(HEADER_BYTES..end)
        .ok_or(SnapshotError::Truncated {
            byte_offset: bytes.len() as u64,
        })?;
    let footer_len = take_le_u64(bytes, end)?;
    if footer_len != payload_len as u64 {
        return Err(SnapshotError::Corrupt(
            "footer length disagrees with header",
        ));
    }
    let crc_bytes = bytes
        .get(end + 8..end + FOOTER_BYTES)
        .ok_or(SnapshotError::Truncated {
            byte_offset: bytes.len() as u64,
        })?;
    let mut raw = [0u8; 4];
    raw.copy_from_slice(crc_bytes);
    if u32::from_le_bytes(raw) != crc32(payload) {
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
        let Ok(container) = encode_container(Architecture::WomCodeRefresh, 0xDEAD_BEEF, 42, |w| {
            w.put_bytes(b"payload");
            Ok::<_, core::convert::Infallible>(())
        });
        container
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
        let end = bytes.len() - FOOTER_BYTES;
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
}
