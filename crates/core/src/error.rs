//! Error type for the WOM-code PCM architecture layer.

use core::fmt;

use crate::snapshot::SnapshotError;
use pcm_sim::{SimError, SnapError};
use pcm_trace::stream::TraceStreamError;
use wom_code::WomCodeError;

/// Errors from building or driving a WOM-code PCM system.
#[derive(Debug)]
#[non_exhaustive]
pub enum WomPcmError {
    /// The underlying memory simulator rejected a request.
    Sim(SimError),
    /// The WOM code layer failed (bad code geometry, exhausted writes
    /// reaching the encoder — which the architecture should prevent).
    Code(WomCodeError),
    /// Inconsistent architecture configuration; the string names the issue.
    InvalidConfig(String),
    /// A streaming trace source failed while being drained (I/O error,
    /// truncated container, bad record).
    Trace(TraceStreamError),
    /// A snapshot container failed to encode, decode, or apply
    /// (truncated/corrupt payload, checksum failure, config mismatch).
    Snapshot(SnapshotError),
    /// Trace records arrived out of order (cycles must be non-decreasing).
    TraceOrder {
        /// Time already reached.
        now: u64,
        /// The (earlier) record cycle.
        record: u64,
    },
    /// A [`Session`](crate::session::Session) method was called in a
    /// lifecycle state that does not support it (e.g. feeding a
    /// finished session). Typed rather than panicking so a multi-tenant
    /// service can reject one client's misuse without poisoning its
    /// other sessions.
    SessionState {
        /// The operation attempted.
        op: &'static str,
        /// The lifecycle state the session was in.
        state: &'static str,
    },
    /// An internal invariant was violated — a simulator bug, not a user
    /// error. Returned instead of panicking so a broken invariant aborts
    /// one run of a parallel sweep, not the whole process.
    Internal(String),
    /// The operating system refused the thread a verified session runs
    /// its data checker on.
    Spawn(std::io::Error),
}

impl fmt::Display for WomPcmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Sim(e) => write!(f, "memory simulator error: {e}"),
            Self::Code(e) => write!(f, "wom-code error: {e}"),
            Self::InvalidConfig(what) => write!(f, "invalid architecture configuration: {what}"),
            Self::Trace(e) => write!(f, "trace source error: {e}"),
            Self::Snapshot(e) => write!(f, "snapshot error: {e}"),
            Self::TraceOrder { now, record } => {
                write!(f, "trace record at cycle {record} arrived after time {now}")
            }
            Self::SessionState { op, state } => {
                write!(f, "session operation `{op}` is invalid in state {state}")
            }
            Self::Internal(what) => write!(f, "internal invariant violated: {what}"),
            Self::Spawn(e) => write!(f, "cannot start the data checker thread: {e}"),
        }
    }
}

impl std::error::Error for WomPcmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Sim(e) => Some(e),
            Self::Code(e) => Some(e),
            Self::Trace(e) => Some(e),
            Self::Snapshot(e) => Some(e),
            Self::Spawn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for WomPcmError {
    fn from(e: SimError) -> Self {
        Self::Sim(e)
    }
}

impl From<WomCodeError> for WomPcmError {
    fn from(e: WomCodeError) -> Self {
        Self::Code(e)
    }
}

impl From<TraceStreamError> for WomPcmError {
    fn from(e: TraceStreamError) -> Self {
        Self::Trace(e)
    }
}

impl From<SnapshotError> for WomPcmError {
    fn from(e: SnapshotError) -> Self {
        Self::Snapshot(e)
    }
}

impl From<SnapError> for WomPcmError {
    fn from(e: SnapError) -> Self {
        Self::Snapshot(SnapshotError::from(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = WomPcmError::from(SimError::QueueFull { capacity: 4 });
        assert!(e.to_string().contains("queue full"));
        assert!(std::error::Error::source(&e).is_some());
        let e = WomPcmError::InvalidConfig("r_th out of range".into());
        assert!(std::error::Error::source(&e).is_none());
        assert!(e.to_string().contains("r_th"));
        let e = WomPcmError::TraceOrder { now: 10, record: 5 };
        assert!(e.to_string().contains("cycle 5"));
    }

    #[test]
    fn is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<WomPcmError>();
    }
}
