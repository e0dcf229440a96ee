//! Per-epoch time-series instrumentation behind a unified metrics API.
//!
//! The engine and the architecture policies report structured
//! [`Event`]s — demand issue/completion with latency class, refresh
//! bursts and per-row refresh outcomes, WOM-cache hits/misses/victim
//! writebacks and flushes, wear-leveling gap moves, rewrite-budget
//! exhaustion — through one emit site, which folds each into up to three
//! consumers: run-level [`RunMetrics`](crate::RunMetrics) always, an
//! [`EpochRecorder`] when epoch observation is on, and the functional
//! data checker when `verify_data` is on. Events are `Copy` values
//! built inline, so the hot path stays allocation-free (enforced by the
//! womlint `hotpath/alloc` regions over the fold sites), and an absent
//! recorder or checker costs one predicted branch per event.
//!
//! The [`EpochRecorder`] folds the stream into a fixed-width
//! [`EpochSeries`] (configure it with
//! [`SystemConfig::epoch_cycles`](crate::SystemConfig) or
//! [`SystemBuilder::epoch_cycles`](crate::SystemBuilder)); export a
//! series with [`write_jsonl`]. [`RunMetrics`](crate::RunMetrics) is a
//! fold over the same stream, so epoch sums reconcile exactly with the
//! end-of-run aggregates.
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
pub use export::{push_epoch_jsonl, write_jsonl};
