//! Session-oriented lifecycle API: one object owning engine, observer,
//! and snapshot state.
//!
//! [`Session`] is the one way to drive a simulation. Running,
//! observation, and checkpointing are methods of one explicit state
//! machine:
//!
//! ```text
//!            open / resume
//!                 │
//!                 ▼
//!          ┌────────────┐   feed / feed_source / poll_epochs /
//!          │    Open    │◄─ checkpoint  (any number of times,
//!          └─────┬──────┘               in any order)
//!                │ finish
//!                ▼
//!          ┌────────────┐   poll_epochs / into_epochs /
//!          │  Finished  │   metrics  (drained, immutable)
//!          └────────────┘
//! ```
//!
//! Calling a method in the wrong state returns
//! [`WomPcmError::SessionState`] instead of panicking or silently
//! corrupting the run — a multi-tenant service routes that error to one
//! client without poisoning its other sessions.
//!
//! Determinism contract: a session's [`RunMetrics`] and epoch series
//! depend only on its configuration and the sequence of records fed.
//! Feeding one big slice, many small slices, or a checkpoint/resume
//! round-trip mid-trace all produce `{:#?}`-byte-identical results.
//!
//! # Example
//!
//! ```
//! use wom_pcm::session::{Session, SessionSpec};
//! use wom_pcm::{Architecture, SystemConfig};
//! use pcm_trace::synth::benchmarks;
//!
//! # fn main() -> Result<(), wom_pcm::WomPcmError> {
//! let trace = benchmarks::by_name("qsort").unwrap().generate(7, 2_000);
//!
//! let spec = SessionSpec::new(SystemConfig::tiny(Architecture::WomCodeRefresh));
//! let mut session = Session::open(spec)?;
//! session.feed(&trace)?;
//! let metrics = session.finish()?;
//! assert!(metrics.fast_write_fraction() > 0.3);
//! # Ok(())
//! # }
//! ```

use crate::builder::SystemBuilder;
use crate::config::SystemConfig;
use crate::engine::Engine;
use crate::error::WomPcmError;
use crate::metrics::RunMetrics;
use crate::observe::{EpochCounters, EpochSeries};
use crate::snapshot::{self, SnapshotError};
use pcm_sim::{Cycle, SnapReader};
use pcm_trace::stream::TraceSource;
use pcm_trace::TraceRecord;

/// Lifecycle state of a [`Session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Accepting records; observable and checkpointable.
    Open,
    /// Drained by [`Session::finish`]; results are final and immutable.
    Finished,
}

impl SessionState {
    fn name(self) -> &'static str {
        match self {
            Self::Open => "Open",
            Self::Finished => "Finished",
        }
    }
}

/// Everything needed to open (or re-open) a [`Session`]: today that is
/// the [`SystemConfig`], carried behind a dedicated type so service
/// front-ends can grow session-level knobs (priorities, quotas) without
/// touching the engine configuration.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    config: SystemConfig,
    /// [`snapshot::config_fingerprint`] of `config`, rendered once here
    /// so that no checkpoint or resume renders the configuration again.
    fingerprint: u64,
}

impl SessionSpec {
    /// Wraps a full configuration.
    #[must_use]
    pub fn new(config: SystemConfig) -> Self {
        let fingerprint = snapshot::config_fingerprint(&config);
        Self {
            config,
            fingerprint,
        }
    }

    /// The paper's configuration for `arch` (see [`SystemConfig::paper`]).
    #[must_use]
    pub fn paper(arch: crate::arch::Architecture) -> Self {
        Self::new(SystemConfig::paper(arch))
    }

    /// The fast test configuration for `arch` (see [`SystemConfig::tiny`]).
    #[must_use]
    pub fn tiny(arch: crate::arch::Architecture) -> Self {
        Self::new(SystemConfig::tiny(arch))
    }

    /// Enables epoch observation with `width`-cycle epochs.
    #[must_use]
    pub fn epoch_cycles(mut self, width: Cycle) -> Self {
        self.config.set_epoch_cycles(Some(width));
        Self::new(self.config)
    }

    /// The wrapped configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }
}

impl From<SystemConfig> for SessionSpec {
    fn from(config: SystemConfig) -> Self {
        Self::new(config)
    }
}

impl From<SystemBuilder> for SessionSpec {
    fn from(builder: SystemBuilder) -> Self {
        Self::new(builder.into_config())
    }
}

/// Newly completed epochs returned by [`Session::poll_epochs`]: a
/// window of the session's epoch series that is final (no later event
/// can land in it) and has not been returned by an earlier poll.
#[derive(Debug)]
pub struct EpochDelta<'a> {
    /// Index of `epochs[0]` within the full series.
    pub first_index: usize,
    /// Epoch width in cycles.
    pub epoch_cycles: Cycle,
    /// End of the recorded series when the session is finished (bounds
    /// the last epoch's window); `Cycle::MAX` while the session is open
    /// and every delivered epoch spans a full width.
    pub end_cycle: Cycle,
    /// The newly completed epoch counters.
    pub epochs: &'a [EpochCounters],
}

impl<'a> EpochDelta<'a> {
    /// Number of epochs in the delta.
    #[must_use]
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// Whether the poll produced nothing new.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// Iterates `(index, start_cycle, end_cycle, counters)` with the
    /// same window arithmetic as [`EpochSeries::epoch_start`] /
    /// [`EpochSeries::epoch_end`], so lines exported from a delta are
    /// byte-identical to lines exported from the final series.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Cycle, Cycle, &'a EpochCounters)> + '_ {
        let width = self.epoch_cycles;
        let end = self.end_cycle;
        let first = self.first_index;
        self.epochs.iter().enumerate().map(move |(k, c)| {
            let i = first + k;
            let start = i as Cycle * width;
            (i, start, (start + width).min(end), c)
        })
    }
}

/// A simulation with an explicit lifecycle (see module docs): engine,
/// observer, and snapshot state behind one object.
#[derive(Debug)]
pub struct Session {
    engine: Engine,
    state: SessionState,
    /// Records accepted so far — written into checkpoint containers so a
    /// resuming feeder knows how far the trace had advanced.
    records_fed: u64,
    /// Epochs already handed out by [`Self::poll_epochs`]; persisted in
    /// checkpoints so an evict/restore cycle never replays a delta.
    epochs_polled: usize,
    /// The spec's configuration fingerprint, written into checkpoints.
    fingerprint: u64,
}

impl Session {
    /// Opens a fresh session. With `verify_data` on, this starts the
    /// session's data checker thread, which dropping the session joins.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] for inconsistent
    /// configuration parameters, and [`WomPcmError::Spawn`] when the
    /// data checker thread cannot be started.
    pub fn open(spec: impl Into<SessionSpec>) -> Result<Self, WomPcmError> {
        let spec = spec.into();
        Ok(Self {
            engine: Engine::new(spec.config)?,
            state: SessionState::Open,
            records_fed: 0,
            epochs_polled: 0,
            fingerprint: spec.fingerprint,
        })
    }

    /// Re-opens a session from a [`checkpoint`](Self::checkpoint)
    /// container. The spec must describe the same configuration the
    /// checkpoint was taken under (the container fingerprint is
    /// checked). The restored session continues exactly where the
    /// checkpointed one stopped: feed the remaining records (the first
    /// [`records_fed`](Self::records_fed) of the trace are already
    /// consumed) and results are `{:#?}`-identical to an uninterrupted
    /// run — including [`poll_epochs`](Self::poll_epochs) deltas, whose
    /// cursor travels in the container.
    ///
    /// The container's framing, CRC and fingerprint are checked before
    /// any engine is built, so foreign or damaged bytes cost no
    /// allocation beyond the error.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::Snapshot`] for foreign bytes, truncation,
    /// checksum failure, or a checkpoint taken under a different
    /// configuration; as [`open`](Self::open) for the spec.
    pub fn resume(spec: impl Into<SessionSpec>, container: &[u8]) -> Result<Self, WomPcmError> {
        let spec = spec.into();
        let envelope = snapshot::decode_container(container)?;
        if envelope.arch != spec.config.arch || envelope.fingerprint != spec.fingerprint {
            return Err(SnapshotError::ConfigMismatch {
                snapshot: envelope.fingerprint,
                current: spec.fingerprint,
            }
            .into());
        }
        let mut r = SnapReader::new(envelope.payload);
        let epochs_polled = r.take()?;
        let mut session = Self::open(spec)?;
        session.engine.restore_state(&mut r)?;
        r.finish()?;
        session.records_fed = envelope.records_consumed;
        session.epochs_polled = epochs_polled;
        Ok(session)
    }

    /// The session's lifecycle state.
    #[must_use]
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// The session's configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        self.engine.config()
    }

    /// Current simulated time in cycles.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.engine.now()
    }

    /// Records accepted so far (across resumes).
    #[must_use]
    pub fn records_fed(&self) -> u64 {
        self.records_fed
    }

    /// Results accumulated so far; final once the session is
    /// [`Finished`](SessionState::Finished).
    #[must_use]
    pub fn metrics(&self) -> &RunMetrics {
        self.engine.metrics()
    }

    /// The epoch series recorded so far, when epoch observation is
    /// enabled (`epoch_cycles` in the spec); `None` otherwise.
    #[must_use]
    pub fn epochs(&self) -> Option<&EpochSeries> {
        self.engine.epochs()
    }

    fn ensure_open(&self, op: &'static str) -> Result<(), WomPcmError> {
        match self.state {
            SessionState::Open => Ok(()),
            SessionState::Finished => Err(WomPcmError::SessionState {
                op,
                state: self.state.name(),
            }),
        }
    }

    /// Feeds a batch of trace records, advancing simulated time to each
    /// record's arrival cycle.
    ///
    /// With `verify_data` on, the data checker runs behind the engine on
    /// its own thread and catches up before the feed returns, on every
    /// path: a failed check is returned by the feed whose records caused
    /// it, ahead of any engine error (the check comes from an earlier
    /// record). [`records_fed`](Self::records_fed) counts the records the
    /// engine took, so after a failed check it includes the rest of the
    /// batch, which the engine took before the checker reported.
    ///
    /// # Errors
    ///
    /// * [`WomPcmError::SessionState`] unless the session is open.
    /// * [`WomPcmError::TraceOrder`] when record cycles decrease (also
    ///   across batches — a session is one totally-ordered trace).
    /// * Simulator errors for malformed addresses.
    /// * [`WomPcmError::Internal`] for a failed data check, or a data
    ///   checker that stopped.
    pub fn feed(&mut self, records: &[TraceRecord]) -> Result<(), WomPcmError> {
        self.ensure_open("feed")?;
        let fed = self.submit_all(records);
        self.engine.sync_check()?;
        fed
    }

    /// Drains a streaming [`TraceSource`] into the session; trace-side
    /// memory stays `O(chunk)`. Returns the number of records fed. The
    /// session stays open — call [`finish`](Self::finish) to finalize.
    /// [`records_fed`](Self::records_fed) counts records as
    /// [`feed`](Self::feed) does, one at a time, so after an error it
    /// names exactly the records the engine took.
    ///
    /// # Errors
    ///
    /// As [`feed`](Self::feed), plus [`WomPcmError::Trace`] when the
    /// source itself fails (I/O error, truncated container, bad record).
    pub fn feed_source<S: TraceSource>(&mut self, source: &mut S) -> Result<u64, WomPcmError> {
        self.ensure_open("feed_source")?;
        let before = self.records_fed;
        let fed = self.submit_source(source);
        self.engine.sync_check()?;
        fed.map(|()| self.records_fed - before)
    }

    /// Submits every record of `source`; [`feed_source`](Self::feed_source)
    /// syncs the data checker after it.
    fn submit_source<S: TraceSource>(&mut self, source: &mut S) -> Result<(), WomPcmError> {
        while let Some(chunk) = source.next_chunk()? {
            self.submit_all(chunk)?;
        }
        Ok(())
    }

    /// Submits `records` in order, counting each one the engine takes:
    /// the one per-record loop of both feeds.
    fn submit_all(&mut self, records: &[TraceRecord]) -> Result<(), WomPcmError> {
        for record in records {
            self.engine.submit(*record)?;
            self.records_fed += 1;
        }
        Ok(())
    }

    /// Returns the epochs that became final since the last poll.
    ///
    /// An epoch is final once simulated time has passed its end: every
    /// in-flight operation at that point completes strictly later, so
    /// no future event can fold into it. On a finished session the
    /// remainder of the series (including the trailing partial epoch)
    /// is delivered. Polling is cheap (no allocation, no copy) and the
    /// cursor survives [`checkpoint`](Self::checkpoint) /
    /// [`resume`](Self::resume), so an incremental consumer sees every
    /// epoch exactly once. Empty when epoch observation is off.
    pub fn poll_epochs(&mut self) -> EpochDelta<'_> {
        let now = self.engine.now();
        let state = self.state;
        let cursor = self.epochs_polled;
        let Some(series) = self.engine.epochs() else {
            return EpochDelta {
                first_index: cursor,
                epoch_cycles: 1,
                end_cycle: Cycle::MAX,
                epochs: &[],
            };
        };
        let width = series.epoch_cycles();
        let (complete, end_cycle) = match state {
            SessionState::Finished => (series.len(), series.end_cycle()),
            SessionState::Open => {
                let elapsed = usize::try_from(now / width).unwrap_or(usize::MAX);
                (elapsed.min(series.len()), Cycle::MAX)
            }
        };
        let first_index = cursor.min(complete);
        let epochs = series
            .epochs()
            .get(first_index..complete)
            .unwrap_or_default();
        self.epochs_polled = complete;
        EpochDelta {
            first_index,
            epoch_cycles: width,
            end_cycle,
            epochs,
        }
    }

    /// Serializes the session's complete state — engine, observer, and
    /// the poll cursor — into a `WOMSNAP` container (see
    /// [`crate::snapshot`]). [`resume`](Self::resume) with the same spec
    /// continues the run exactly.
    ///
    /// # Errors
    ///
    /// [`WomPcmError::SessionState`] unless the session is open;
    /// [`WomPcmError::Internal`] when the data checker panicked.
    pub fn checkpoint(&self) -> Result<Vec<u8>, WomPcmError> {
        self.ensure_open("checkpoint")?;
        let mut saved = Ok(());
        let container = snapshot::encode_container(
            self.engine.config().arch,
            self.fingerprint,
            self.records_fed,
            |w| {
                w.put(&self.epochs_polled);
                saved = self.engine.save_state(w);
            },
        );
        saved.map(|()| container)
    }

    /// Completes all outstanding work and returns the final metrics;
    /// the session transitions to
    /// [`Finished`](SessionState::Finished).
    ///
    /// # Errors
    ///
    /// [`WomPcmError::SessionState`] when already finished; a failed data
    /// check of the drain's refresh rewrites, as for
    /// [`feed`](Self::feed); simulator errors are propagated (none are
    /// expected during a drain).
    pub fn finish(&mut self) -> Result<RunMetrics, WomPcmError> {
        self.ensure_open("finish")?;
        let metrics = self.engine.finish()?;
        self.state = SessionState::Finished;
        Ok(metrics)
    }

    /// Consumes the session, returning the recorded epoch series
    /// (`None` when epoch observation was off). Ownership enforces the
    /// lifecycle: the series can only be taken once, and nothing can be
    /// fed afterwards.
    #[must_use]
    pub fn into_epochs(self) -> Option<EpochSeries> {
        let mut engine = self.engine;
        engine.take_epochs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use pcm_trace::synth::benchmarks;
    use pcm_trace::{TraceOp, TraceRecord};

    fn trace(records: usize) -> Vec<TraceRecord> {
        benchmarks::by_name("qsort")
            .expect("paper workload")
            .generate(11, records)
    }

    #[test]
    fn feed_in_any_batching_is_byte_identical() {
        let trace = trace(3_000);
        let spec = SessionSpec::tiny(Architecture::WomCodeRefresh).epoch_cycles(10_000);

        let mut solo = Session::open(spec.clone()).unwrap();
        solo.feed(&trace).unwrap();
        let solo_metrics = solo.finish().unwrap();

        let mut chunked = Session::open(spec).unwrap();
        for chunk in trace.chunks(7) {
            chunked.feed(chunk).unwrap();
        }
        let chunked_metrics = chunked.finish().unwrap();

        assert_eq!(
            format!("{solo_metrics:#?}"),
            format!("{chunked_metrics:#?}")
        );
    }

    #[test]
    fn lifecycle_violations_are_typed_errors() {
        let mut s = Session::open(SessionSpec::tiny(Architecture::Baseline)).unwrap();
        s.feed(&[TraceRecord::new(0, 0, TraceOp::Write)]).unwrap();
        s.finish().unwrap();
        assert_eq!(s.state(), SessionState::Finished);

        let err = s.feed(&[TraceRecord::new(1, 0, TraceOp::Read)]);
        assert!(matches!(
            err,
            Err(WomPcmError::SessionState { op: "feed", .. })
        ));
        assert!(matches!(
            s.finish(),
            Err(WomPcmError::SessionState { op: "finish", .. })
        ));
        assert!(matches!(
            s.checkpoint(),
            Err(WomPcmError::SessionState {
                op: "checkpoint",
                ..
            })
        ));
    }

    #[test]
    fn poll_epochs_streams_each_epoch_exactly_once() {
        let trace = trace(4_000);
        let spec = SessionSpec::tiny(Architecture::WomCode).epoch_cycles(5_000);
        let mut s = Session::open(spec.clone()).unwrap();

        let mut streamed = Vec::new();
        for chunk in trace.chunks(101) {
            s.feed(chunk).unwrap();
            let delta = s.poll_epochs();
            for (i, start, end, c) in delta.iter() {
                streamed.push((i, start, end, c.clone()));
            }
        }
        s.finish().unwrap();
        let delta = s.poll_epochs();
        for (i, start, end, c) in delta.iter() {
            streamed.push((i, start, end, c.clone()));
        }
        assert!(s.poll_epochs().is_empty(), "post-drain poll is empty");

        let series = s.into_epochs().expect("observed");
        assert_eq!(streamed.len(), series.len());
        for (k, (i, start, end, c)) in streamed.iter().enumerate() {
            assert_eq!(*i, k);
            assert_eq!(*start, series.epoch_start(k));
            assert_eq!(*end, series.epoch_end(k));
            assert_eq!(
                format!("{c:#?}"),
                format!("{:#?}", series.epochs()[k]),
                "epoch {k} delta differs from final series"
            );
        }
    }

    #[test]
    fn checkpoint_resume_preserves_results_and_poll_cursor() {
        let trace = trace(3_000);
        let spec = SessionSpec::tiny(Architecture::Wcpcm).epoch_cycles(8_000);

        let mut straight = Session::open(spec.clone()).unwrap();
        straight.feed(&trace).unwrap();
        let straight_metrics = straight.finish().unwrap();
        let straight_series = straight.into_epochs().expect("observed");

        let mut first = Session::open(spec.clone()).unwrap();
        let (head, tail) = trace.split_at(trace.len() / 2);
        first.feed(head).unwrap();
        let polled_before = first.poll_epochs().len();
        let container = first.checkpoint().unwrap();
        drop(first);

        let mut resumed = Session::resume(spec, &container).unwrap();
        assert_eq!(resumed.records_fed(), head.len() as u64);
        resumed.feed(tail).unwrap();
        let resumed_metrics = resumed.finish().unwrap();
        let polled_after = resumed.poll_epochs().len();
        assert_eq!(
            polled_before + polled_after,
            straight_series.len(),
            "poll cursor must survive the checkpoint"
        );
        let resumed_series = resumed.into_epochs().expect("observed");

        assert_eq!(
            format!("{straight_metrics:#?}"),
            format!("{resumed_metrics:#?}")
        );
        assert_eq!(
            format!("{straight_series:#?}"),
            format!("{resumed_series:#?}")
        );
    }

    #[test]
    fn resume_rejects_mismatched_spec() {
        let spec = SessionSpec::tiny(Architecture::WomCode);
        let s = Session::open(spec).unwrap();
        let container = s.checkpoint().unwrap();
        let other = SessionSpec::tiny(Architecture::Baseline);
        assert!(matches!(
            Session::resume(other, &container),
            Err(WomPcmError::Snapshot(_))
        ));
    }

    #[test]
    fn poll_without_observation_is_empty() {
        let mut s = Session::open(SessionSpec::tiny(Architecture::Baseline)).unwrap();
        s.feed(&trace(500)).unwrap();
        assert!(s.poll_epochs().is_empty());
    }

    #[test]
    fn all_architectures_open() {
        for arch in Architecture::all_paper() {
            Session::open(SessionSpec::tiny(arch)).unwrap();
        }
    }

    #[test]
    fn invalid_configs_are_rejected_at_open() {
        let mut cfg = SystemConfig::tiny(Architecture::WomCode);
        cfg.rewrite_limit = 0;
        assert!(Session::open(cfg).is_err());
    }

    #[test]
    fn metrics_are_cumulative_until_finish() {
        let mut s = Session::open(SessionSpec::tiny(Architecture::Baseline)).unwrap();
        s.feed(&[TraceRecord::new(0, 0, TraceOp::Write)]).unwrap();
        assert_eq!(s.metrics().writes.count, 0, "write still in flight");
        let m = s.finish().unwrap();
        assert_eq!(m.writes.count, 1);
        assert_eq!(
            s.metrics().writes.count,
            1,
            "finish snapshots into the session"
        );
    }

    #[test]
    fn a_far_future_record_fails_the_feed_instead_of_aborting() {
        let spec = SessionSpec::tiny(Architecture::Baseline).epoch_cycles(10_000);
        let mut s = Session::open(spec).unwrap();
        let records = [
            TraceRecord::new(0, 0, TraceOp::Read),
            TraceRecord::new(1 << 50, 0x40, TraceOp::Read),
        ];
        let err = s
            .feed(&records)
            .expect_err("the series cannot span the gap");
        assert!(matches!(err, WomPcmError::InvalidConfig(_)), "{err:?}");
        assert!(err.to_string().contains("widen epoch_cycles"), "{err}");
        assert!(s.epochs().unwrap().len() <= EpochSeries::MAX_EPOCHS);
    }

    /// A far-future record on a refresh architecture costs one refresh
    /// tick once the system drains, not one per stagger across the gap.
    #[test]
    fn a_far_future_record_skips_the_idle_refresh_ticks() {
        for arch in [Architecture::WomCodeRefresh, Architecture::Wcpcm] {
            let mut s = Session::open(SessionSpec::tiny(arch)).unwrap();
            let records = [
                TraceRecord::new(0, 0, TraceOp::Write),
                TraceRecord::new(1 << 50, 0x40, TraceOp::Write),
            ];
            // Times the test itself; nothing simulated reads the clock.
            #[allow(clippy::disallowed_methods)]
            let start = std::time::Instant::now();
            s.feed(&records).unwrap();
            let m = s.finish().unwrap();
            let took = start.elapsed();
            assert!(took.as_secs_f64() < 1.0, "{arch:?} took {took:?}");
            assert_eq!(m.writes.count, 2, "{arch:?}");
            assert!(s.now() > 1 << 50, "{arch:?}");
        }
    }

    fn verified(arch: Architecture) -> Session {
        SystemBuilder::tiny(arch).verify_data(true).open().unwrap()
    }

    fn checker(s: &Session) -> &crate::data_check::Checker {
        s.engine.checker().expect("verified session")
    }

    /// `n` writes, one per line, 10 cycles apart from cycle 0.
    fn line_writes(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord::new(i * 10, i * 64, TraceOp::Write))
            .collect()
    }

    /// The checker runs behind the engine, but the read of a corrupted
    /// line fails the feed that holds it, blocks of ops before that feed
    /// ends, and no later call.
    #[test]
    fn a_corrupted_reference_fails_the_feed_that_reads_it() {
        let mut s = verified(Architecture::WomCode);
        let writes = line_writes(400);
        s.feed(&writes[..1]).unwrap();
        checker(&s).corrupt_reference(0);
        let mut batch = writes[1..].to_vec();
        batch.insert(100, TraceRecord::new(batch[99].cycle, 0, TraceOp::Read));
        let err = s.feed(&batch).expect_err("line 0 no longer verifies");
        assert!(matches!(err, WomPcmError::Internal(_)), "{err:?}");
        assert!(
            err.to_string().contains("data corruption at line 0x0"),
            "{err}"
        );
        assert_eq!(s.records_fed(), 401, "the engine took the whole batch");
        assert_eq!(
            checker(&s).writes_applied(),
            400,
            "the checker applied the ops after the failure too"
        );
        s.feed(&[TraceRecord::new(10_000, 0x40, TraceOp::Read)])
            .expect("the failure was returned once");
    }

    /// An engine error mid-feed still returns with the checker caught up,
    /// and a failed check from an earlier record wins over it.
    #[test]
    fn an_engine_error_mid_feed_returns_with_the_checker_synced() {
        let writes = line_writes(300);
        let past = TraceRecord::new(5, 0, TraceOp::Read);
        let mut batch = writes.clone();
        batch.push(past);
        let mut s = verified(Architecture::WomCodeRefresh);
        let err = s.feed(&batch).expect_err("the last record is out of order");
        assert!(matches!(err, WomPcmError::TraceOrder { .. }), "{err:?}");
        assert_eq!(s.records_fed(), 300);
        assert_eq!(checker(&s).writes_applied(), 300);
        let mut clean = verified(Architecture::WomCodeRefresh);
        clean.feed(&writes).unwrap();
        assert_eq!(s.checkpoint().unwrap(), clean.checkpoint().unwrap());

        let mut s = verified(Architecture::WomCodeRefresh);
        s.feed(&writes[..1]).unwrap();
        checker(&s).corrupt_reference(0);
        let mut batch = writes[1..].to_vec();
        batch.insert(50, TraceRecord::new(batch[49].cycle, 0, TraceOp::Read));
        batch.push(past);
        let err = s.feed(&batch).expect_err("two failures");
        assert!(
            err.to_string().contains("data corruption at line 0x0"),
            "{err}"
        );
    }

    /// A checker that panicked while holding its lock stops its thread;
    /// every later call is an `Internal` error and dropping the session
    /// joins the thread, with no hang.
    #[test]
    fn a_panicked_checker_fails_every_call_without_hanging() {
        let mut s = verified(Architecture::Wcpcm);
        s.feed(&line_writes(10)).unwrap();
        checker(&s).poison();
        let read = [TraceRecord::new(1_000, 0x40, TraceOp::Read)];
        let outcomes = [
            s.feed(&read),
            s.checkpoint().map(drop),
            s.finish().map(drop),
        ];
        for outcome in outcomes {
            let err = outcome.expect_err("the checker is gone");
            assert!(matches!(err, WomPcmError::Internal(_)), "{err:?}");
        }
    }

    /// Both feeds count the records the engine took before an error, so
    /// a checkpoint taken then tells a resuming feeder where to go on.
    #[test]
    fn both_feeds_count_the_records_taken_before_an_error() {
        use pcm_trace::stream::SliceSource;
        for arch in Architecture::all_paper() {
            let mut records = line_writes(10);
            records.push(TraceRecord::new(5, 0x40, TraceOp::Write));
            let mut sliced = Session::open(SessionSpec::tiny(arch)).unwrap();
            let err = sliced.feed(&records).expect_err("the last record is late");
            assert!(matches!(err, WomPcmError::TraceOrder { .. }), "{err:?}");
            let mut sourced = Session::open(SessionSpec::tiny(arch)).unwrap();
            let err = sourced
                .feed_source(&mut SliceSource::new(&records))
                .expect_err("the last record is late");
            assert!(matches!(err, WomPcmError::TraceOrder { .. }), "{err:?}");
            assert_eq!(sliced.records_fed(), 10, "{arch:?}");
            assert_eq!(sourced.records_fed(), 10, "{arch:?}");
            assert_eq!(
                sliced.checkpoint().unwrap(),
                sourced.checkpoint().unwrap(),
                "{arch:?}"
            );
        }
    }

    #[test]
    fn feed_rejects_regressing_cycles() {
        let mut s = Session::open(SessionSpec::tiny(Architecture::Baseline)).unwrap();
        s.feed(&[TraceRecord::new(10, 0, TraceOp::Read)]).unwrap();
        assert!(matches!(
            s.feed(&[TraceRecord::new(9, 0, TraceOp::Read)]),
            Err(WomPcmError::TraceOrder { .. })
        ));
    }
}
