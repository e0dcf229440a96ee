//! Facade crate for the WOM-code PCM reproduction.
//!
//! Re-exports the whole stack so examples and downstream users need a
//! single dependency:
//!
//! * [`code`] (`wom-code`) — WOM codes: the Rivest–Shamir ⟨2²⟩²/3 code,
//!   inverted codes for PCM, block codecs, analytic bounds.
//! * [`sim`] (`pcm-sim`) — the cycle-level PCM memory-system simulator.
//! * [`trace`] (`pcm-trace`) — trace formats and the synthetic SPEC /
//!   MiBench / SPLASH-2 workload generators.
//! * [`arch`] (`wom-pcm`) — the paper's architectures: WOM-code PCM,
//!   PCM-refresh, and WCPCM.
//!
//! # Example
//!
//! ```
//! use womcode_pcm::arch::{Architecture, Session, SystemConfig};
//! use womcode_pcm::trace::synth::benchmarks;
//!
//! # fn main() -> Result<(), womcode_pcm::arch::WomPcmError> {
//! let trace = benchmarks::by_name("mad").unwrap().generate(1, 1_000);
//! let mut session = Session::open(SystemConfig::tiny(Architecture::WomCode))?;
//! session.feed(&trace)?;
//! let metrics = session.finish()?;
//! println!("mean write latency: {:.1} ns", metrics.mean_write_ns());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pcm_sim as sim;
pub use pcm_trace as trace;
pub use wom_code as code;
pub use wom_pcm as arch;

/// Convenience re-exports for the common experiment workflow.
///
/// ```
/// use womcode_pcm::prelude::*;
///
/// # fn main() -> Result<(), WomPcmError> {
/// let trace = benchmarks::by_name("qsort").unwrap().generate(1, 1_000);
/// let mut session = Session::open(SystemConfig::tiny(Architecture::WomCode))?;
/// session.feed(&trace)?;
/// let metrics = session.finish()?;
/// assert!(metrics.writes.count > 0);
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use crate::arch::{
        Architecture, RunMetrics, Session, SessionSpec, SystemBuilder, SystemConfig, WomPcmError,
    };
    pub use crate::code::{BlockCodec, Inverted, RowScratch, Rs23Code, Sequencer, WomCode};
    pub use crate::sim::{MemConfig, MemoryGeometry, TimingParams};
    pub use crate::trace::synth::benchmarks;
    pub use crate::trace::{TraceOp, TraceRecord, TraceStats};
}

/// The README's Rust blocks, compiled and run as doctests so its quick
/// start cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
