//! Per-epoch time-series instrumentation behind a unified metrics API.
//!
//! The engine and the architecture policies report structured
//! [`Event`]s — demand issue/completion with latency class, refresh
//! bursts and per-row refresh outcomes, WOM-cache hits/misses/victim
//! writebacks, wear-leveling gap moves, rewrite-budget exhaustion —
//! into the engine's observer sink. Observation is off by default and
//! costs one predictable branch per event when disabled: events are
//! `Copy` values built inline, so the hot path stays allocation-free
//! (enforced by the womlint `hotpath/alloc` regions over the dispatch
//! sites).
//!
//! When on, the sink is an [`EpochRecorder`], which folds the
//! stream into a fixed-width [`EpochSeries`] (configure it with
//! [`SystemConfig::epoch_cycles`](crate::SystemConfig) or
//! [`SystemBuilder::epoch_cycles`](crate::SystemBuilder)); export a
//! series with [`write_jsonl`] / [`write_csv`]. Run-level
//! [`RunMetrics`](crate::RunMetrics) is a fold over the same stream, so
//! epoch sums reconcile exactly with the end-of-run aggregates.
//!
//! ```
//! use wom_pcm::{Architecture, SystemBuilder};
//! use pcm_trace::synth::benchmarks;
//!
//! # fn main() -> Result<(), wom_pcm::WomPcmError> {
//! let trace = benchmarks::by_name("qsort").unwrap().generate(1, 2_000);
//! let mut session = SystemBuilder::tiny(Architecture::WomCode)
//!     .epoch_cycles(10_000)
//!     .open()?;
//! session.feed(&trace)?;
//! let metrics = session.finish()?;
//! let series = session.into_epochs().expect("observation was enabled");
//! assert_eq!(series.totals().writes_completed, metrics.writes.count);
//! # Ok(())
//! # }
//! ```

mod epoch;
mod event;
mod export;

pub use epoch::{EpochCounters, EpochRecorder, EpochSeries};
pub use event::{Event, WriteClass};
pub use export::{push_epoch_jsonl, write_csv, write_jsonl};

use crate::error::WomPcmError;
use pcm_sim::snap::{SnapError, SnapReader, SnapWriter};
use pcm_sim::Cycle;

/// The engine's observer slot: off by default, an epoch recorder when
/// `SystemConfig::epoch_cycles` is set.
///
/// Dispatch is a single match; the `Off` arm is the first pattern so the
/// disabled path is one predicted branch and provably allocation-free.
#[derive(Debug, Default)]
pub(crate) enum ObserverSink {
    /// Observation disabled; events are discarded at the dispatch site.
    #[default]
    Off,
    /// The built-in epoch time-series recorder.
    Epochs(EpochRecorder),
}

impl ObserverSink {
    #[inline]
    pub(crate) fn on_event(&mut self, event: &Event) {
        match self {
            Self::Off => {}
            Self::Epochs(r) => EpochRecorder::on_event(r, event),
        }
    }

    pub(crate) fn on_finish(&mut self, now: Cycle) {
        match self {
            Self::Off => {}
            Self::Epochs(r) => EpochRecorder::on_finish(r, now),
        }
    }

    /// The recorded epoch series, when the built-in recorder is attached.
    pub(crate) fn epochs(&self) -> Option<&EpochSeries> {
        match self {
            Self::Off => None,
            Self::Epochs(r) => Some(r.series()),
        }
    }

    /// Detaches and returns the recorded series (the sink reverts to
    /// `Off`), when the built-in recorder is attached.
    pub(crate) fn take_epochs(&mut self) -> Option<EpochSeries> {
        match std::mem::take(self) {
            Self::Off => None,
            Self::Epochs(r) => Some(r.into_series()),
        }
    }

    /// Fails once the run outgrows the attached recorder's series (see
    /// [`EpochRecorder::check_ceiling`]).
    pub(crate) fn check_ceiling(&self) -> Result<(), WomPcmError> {
        match self {
            Self::Off => Ok(()),
            Self::Epochs(r) => r.check_ceiling(),
        }
    }

    /// Appends the recorder's state when one is attached. Whether one is
    /// attached is fixed by the configuration, so no flag is written.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        if let Self::Epochs(r) = self {
            r.save_state(w);
        }
    }

    /// Restores state written by [`save_state`](Self::save_state) into
    /// this sink, built from the same configuration.
    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        match self {
            Self::Off => Ok(()),
            Self::Epochs(recorder) => recorder.load_state(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_sink_discards_and_yields_no_series() {
        let mut sink = ObserverSink::Off;
        sink.on_event(&Event::VictimWriteback { cycle: 5 });
        sink.on_finish(10);
        assert!(sink.epochs().is_none());
        assert!(sink.take_epochs().is_none());
    }

    #[test]
    fn epoch_sink_records_and_take_resets_to_off() {
        let mut sink = ObserverSink::Epochs(EpochRecorder::new(100));
        sink.on_event(&Event::VictimWriteback { cycle: 5 });
        sink.on_finish(10);
        assert_eq!(sink.epochs().unwrap().totals().victim_writebacks, 1);
        let series = sink.take_epochs().unwrap();
        assert_eq!(series.end_cycle(), 10);
        assert!(matches!(sink, ObserverSink::Off));
    }
}
