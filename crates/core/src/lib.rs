//! WOM-code PCM architectures: the primary contribution of *"Write-Once-
//! Memory-Code Phase Change Memory"* (Li & Mohanram, DATE 2014), rebuilt
//! as a Rust library.
//!
//! PCM's SET operation (`0 → 1`) is ~4–10× slower than RESET. This crate
//! layers inverted write-once-memory codes over a cycle-level PCM
//! simulator so that most writes become RESET-only:
//!
//! * [`session::Session`] — the one way to drive a simulation: engine,
//!   observer, and snapshot state behind one object with an explicit
//!   lifecycle (`open → feed/poll/checkpoint → finish`), built from a
//!   [`session::SessionSpec`] or a [`builder::SystemBuilder`]. It runs
//!   any of the four architectures of the paper's evaluation:
//!   conventional PCM, WOM-code PCM, WOM-code PCM with PCM-refresh, and
//!   WCPCM. The simulation engine and the per-architecture policies
//!   behind it are crate-private.
//! * [`wom_state`] — per-row rewrite-budget tracking (α-write detection).
//! * [`wide_column`] / [`hidden_page`] — the two §3.1 memory organizations
//!   that provision the code's extra bits.
//! * [`refresh`] — the §3.2 PCM-refresh engine (row address tables,
//!   round-robin idle-rank selection, refresh threshold).
//! * [`wcpcm`] — the §4 per-rank WOM-cache (tags, victims, hit rates).
//! * [`observe`] — the instrumentation layer: structured events from the
//!   engine and policies, per-epoch time-series, JSONL/CSV exporters.
//! * [`rowmap`] — the page-grained row-state store backing every
//!   hot-path row-keyed table above.
//! * [`functional`] — a data-bearing memory model (actual WOM encode /
//!   decode through `wom_code::BlockCodec`) for end-to-end validation.
//!
//! # Quick start
//!
//! ```
//! use wom_pcm::session::{Session, SessionSpec};
//! use wom_pcm::Architecture;
//! use pcm_trace::synth::benchmarks;
//!
//! # fn main() -> Result<(), wom_pcm::WomPcmError> {
//! let trace = benchmarks::by_name("qsort").unwrap().generate(7, 2_000);
//!
//! // Baseline vs WOM-code PCM on the same trace:
//! let mut base = Session::open(SessionSpec::tiny(Architecture::Baseline))?;
//! base.feed(&trace)?;
//! let base = base.finish()?;
//! let mut wom = Session::open(SessionSpec::tiny(Architecture::WomCode))?;
//! wom.feed(&trace)?;
//! let wom = wom.finish()?;
//! let normalized = wom.normalized_write_latency(&base).unwrap();
//! assert!(normalized < 1.0, "WOM coding must speed up writes");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod builder;
pub mod config;
mod engine;
pub mod error;
pub mod functional;
pub mod hidden_page;
pub mod metrics;
pub mod observe;
mod policy;
pub mod refresh;
pub mod rowmap;
pub mod session;
pub mod shard;
pub mod snapshot;
pub mod wcpcm;
pub mod wear_leveling;
pub mod wide_column;
pub mod wom_state;

pub use arch::{Architecture, Organization};
pub use builder::SystemBuilder;
pub use config::SystemConfig;
pub use error::WomPcmError;
pub use functional::FunctionalMemory;
pub use hidden_page::HiddenPageTable;
pub use metrics::RunMetrics;
pub use observe::{EpochCounters, EpochRecorder, EpochSeries, Event};
pub use policy::ArraySide;
pub use refresh::{RefreshConfig, RefreshEngine};
pub use rowmap::RowMap;
pub use session::{EpochDelta, Session, SessionSpec, SessionState};
pub use shard::{ShardPlan, ShardSource};
pub use snapshot::{SnapshotEnvelope, SnapshotError};
pub use wcpcm::{CacheStats, CacheWriteOutcome, WomCache};
pub use wear_leveling::StartGap;
pub use wide_column::WideColumn;
pub use wom_state::{BudgetGranularity, ColdPolicy, WomStateTable, WriteKind};
