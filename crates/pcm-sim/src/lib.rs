//! A cycle-resolution, trace-driven PCM memory-system simulator.
//!
//! This crate is the from-scratch Rust equivalent of the DRAMSim2-derived
//! substrate used in *"Write-Once-Memory-Code Phase Change Memory"* (Li &
//! Mohanram, DATE 2014): a single-channel memory system with ranks, banks,
//! bounded read/write queues, a shared data bus, JEDEC-DDR3-style burst
//! timing, and PCM-specific service classes (row read, full SET-bearing
//! write, RESET-only write, and preemptible burst-mode rank refresh).
//!
//! It is deliberately *policy-free*: the WOM-code architectures of the
//! paper (which decide whether a write is RESET-only, when to refresh,
//! what the WOM-cache does) live in the `wom-pcm` crate and drive this
//! simulator through [`MemorySystem`]'s transaction API.
//!
//! # Quick start
//!
//! ```
//! use pcm_sim::{MemConfig, MemOp, MemorySystem, ServiceClass};
//!
//! # fn main() -> Result<(), pcm_sim::SimError> {
//! let mut mem = MemorySystem::new(MemConfig::paper_baseline())?;
//!
//! // A fast (RESET-only) write and a read to another bank.
//! mem.enqueue(MemOp::Write, 0x0000, ServiceClass::ResetOnlyWrite)?;
//! mem.enqueue(MemOp::Read, 0x8000, ServiceClass::Read)?;
//!
//! for c in mem.drain() {
//!     println!("{:?} finished after {} cycles", c.op, c.latency());
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod bank;
pub mod config;
pub mod energy;
pub mod error;
pub mod memory;
pub mod snap;
pub mod stats;
pub mod timing;
pub mod transaction;
pub mod wear;

pub use address::{AddressDecoder, AddressMapping, DecodedAddr, MemoryGeometry};
pub use bank::{BankState, InFlight};
pub use config::{MemConfig, RowPolicy, SchedulerPolicy};
pub use energy::{EnergyParams, EnergyTally};
pub use error::SimError;
pub use memory::MemorySystem;
pub use snap::{Snap, SnapError, SnapReader, SnapWriter};
pub use stats::{Histogram, LatencyHistogram, LatencySummary, MemStats};
pub use timing::{Cycle, TimingParams};
pub use transaction::{Completion, MemOp, ServiceClass, Transaction, TransactionId};
pub use wear::{WearSummary, WearTracker};
