//! The architecture-policy layer: per-architecture behaviour behind one
//! closed enum.
//!
//! Each of the paper's four architectures maps to one [`Policy`]
//! variant owning its architecture-specific state:
//!
//! * `Baseline` — stateless; every write is a full PCM write.
//! * `WomCode` — per-row WOM rewrite budgets (and, optionally, the
//!   hidden-page companion table); under `WomCodeRefresh` also the §3.2
//!   PCM-refresh driver re-initializing exhausted rows during idle
//!   periods.
//! * `Wcpcm` — the §4 per-rank WOM-cache with victim writebacks and
//!   cache refresh.
//!
//! The shared [`Engine`](crate::engine::Engine) drives the clock, the
//! memory arrays, and the metrics; the policy decides *what* each demand
//! access does by returning a [`ReadAction`] / [`WriteAction`], and
//! reacts to refresh ticks and refresh completions. A fifth architecture
//! is one more variant plus its arms in the `match`es below (see
//! `DESIGN.md`, "Policy layer").

mod baseline;
mod refresh;
mod wcpcm;
mod wom_code;

use crate::arch::Architecture;
use crate::config::SystemConfig;
use crate::engine::EngineCore;
use crate::error::WomPcmError;
use pcm_sim::{Completion, DecodedAddr, ServiceClass, SnapReader, SnapWriter};
use refresh::RefreshDriver;
use wcpcm::WcpcmPolicy;
use wom_code::WomCodePolicy;

/// Which memory arrays an operation or event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArraySide {
    /// The PCM main-memory arrays.
    Main,
    /// The per-rank WOM-cache arrays.
    Cache,
}

/// What a demand read should do, as decided by the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadAction {
    /// Read main memory.
    Main {
        /// Physical (post-remap) address to read.
        addr: u64,
        /// Hidden-page companion read to charge alongside, if any.
        companion: Option<u64>,
    },
    /// Read the WOM-cache row of `(rank, row)`.
    Cache {
        /// Rank whose cache array holds the data.
        rank: u32,
        /// Cache row to read.
        row: u32,
    },
}

/// What a demand write should do, as decided by the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteAction {
    /// Absorbed into an open coalescing window; the policy has already
    /// emitted the merged write's completion via
    /// [`EngineCore::try_coalesce`].
    Coalesced,
    /// Issue a write to main memory.
    Main {
        /// Physical (post-remap) address to write.
        addr: u64,
        /// Service class (full write vs RESET-only).
        class: ServiceClass,
        /// Coalescing-window key (flat row id).
        row_key: u64,
        /// Hidden-page companion write to charge alongside, if any.
        companion: Option<u64>,
    },
    /// Issue a write to the WOM-cache row of `(rank, row)`.
    Cache {
        /// Rank whose cache array receives the write.
        rank: u32,
        /// Cache row to write.
        row: u32,
        /// Service class (full write vs RESET-only).
        class: ServiceClass,
        /// Coalescing-window key (`rank << 32 | row`).
        merge_key: u64,
    },
}

/// Architecture-specific behaviour plugged into the shared engine, one
/// variant per policy.
///
/// Hooks receive `&mut EngineCore` for the shared machinery (clock,
/// address decoding, coalescing, victim queue, metrics); the policy's own
/// state (WOM budgets, refresh tables, cache tags) lives in the variant.
/// Demand enqueues — which may stall and re-enter [`Self::on_tick`] /
/// [`Self::on_completion`] through time advancement — are performed by
/// the engine from the returned actions, never by the policy. The two
/// stateful variants are boxed: unboxed, every `Policy` would be as
/// large as the largest policy state (hundreds of bytes).
#[derive(Debug)]
pub(crate) enum Policy {
    /// Conventional PCM: no architecture state.
    Baseline,
    /// WOM-code PCM, with the refresh driver under `WomCodeRefresh`.
    WomCode(Box<WomCodePolicy>),
    /// The per-rank WOM-cache.
    Wcpcm(Box<WcpcmPolicy>),
}

impl Policy {
    /// Builds the policy matching `config.arch` — the one place the
    /// architecture is matched on.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] for inconsistent parameters.
    pub(crate) fn new(config: &SystemConfig) -> Result<Self, WomPcmError> {
        let g = config.mem.geometry;
        Ok(match config.arch {
            Architecture::Baseline => Self::Baseline,
            Architecture::WomCode => Self::WomCode(Box::new(WomCodePolicy::new(config, None)?)),
            Architecture::WomCodeRefresh => {
                let driver =
                    RefreshDriver::new(ArraySide::Main, config.refresh, g.ranks, g.banks_per_rank)?;
                Self::WomCode(Box::new(WomCodePolicy::new(config, Some(driver))?))
            }
            Architecture::Wcpcm => Self::Wcpcm(Box::new(WcpcmPolicy::new(config)?)),
        })
    }

    /// Decides where a demand read goes.
    ///
    /// # Errors
    ///
    /// Propagates address-decoding and data-verification errors.
    pub(crate) fn on_read(
        &mut self,
        core: &mut EngineCore,
        addr: u64,
    ) -> Result<ReadAction, WomPcmError> {
        match self {
            Self::Baseline => baseline::on_read(core, addr),
            Self::WomCode(p) => p.on_read(core, addr),
            Self::Wcpcm(p) => p.on_read(core, addr),
        }
    }

    /// Decides what a demand write does (and updates write-state such as
    /// WOM budgets or cache tags).
    ///
    /// # Errors
    ///
    /// Propagates address-decoding and data-verification errors.
    pub(crate) fn on_write(
        &mut self,
        core: &mut EngineCore,
        addr: u64,
    ) -> Result<WriteAction, WomPcmError> {
        match self {
            Self::Baseline => baseline::on_write(core, addr),
            Self::WomCode(p) => p.on_write(core, addr),
            Self::Wcpcm(p) => p.on_write(core, addr),
        }
    }

    /// Periodic refresh opportunity, on the staggered per-rank schedule
    /// the engine runs for architectures that refresh.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from refresh enqueues.
    pub(crate) fn on_tick(&mut self, core: &mut EngineCore) -> Result<(), WomPcmError> {
        match self {
            Self::Baseline => Ok(()),
            Self::WomCode(p) => p.tick(core),
            Self::Wcpcm(p) => p.tick(core),
        }
    }

    /// Reacts to a rank-refresh completion (or preemption) on `side`.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::Internal`] when the policy refreshes no
    /// arrays or other arrays than `side`'s (a scheduling bug), and
    /// propagates address-decoding or data-verification errors from the
    /// policy's post-refresh bookkeeping.
    pub(crate) fn on_completion(
        &mut self,
        core: &mut EngineCore,
        side: ArraySide,
        c: &Completion,
    ) -> Result<(), WomPcmError> {
        match self {
            Self::Baseline => Err(WomPcmError::Internal(
                "the baseline never schedules rank refreshes".into(),
            )),
            Self::WomCode(p) => p.on_completion(core, side, c),
            Self::Wcpcm(p) => p.on_completion(core, side, c),
        }
    }

    /// Reacts to a wear-leveling row copy: the destination physical row
    /// `dest` was erased and rewritten once.
    pub(crate) fn on_wear_level_copy(&mut self, core: &mut EngineCore, dest: DecodedAddr) {
        if let Self::WomCode(p) = self {
            p.on_wear_level_copy(core, dest);
        }
    }

    /// Serializes the policy's architecture-specific state for
    /// snapshot/restore. The baseline writes nothing.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        match self {
            Self::Baseline => {}
            Self::WomCode(p) => p.save_state(w),
            Self::Wcpcm(p) => p.save_state(w),
        }
    }

    /// Restores state written by [`Self::save_state`] into this policy
    /// (freshly built from the same configuration). The baseline reads
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::Snapshot`] for truncated or corrupt
    /// payloads.
    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), WomPcmError> {
        match self {
            Self::Baseline => Ok(()),
            Self::WomCode(p) => p.load_state(r),
            Self::Wcpcm(p) => p.load_state(r),
        }
    }
}

/// The WOM rewrite-budget column index of a decoded address under the
/// configured budget granularity.
pub(crate) fn budget_column(config: &SystemConfig, d: &DecodedAddr) -> u32 {
    match config.budget_granularity {
        crate::wom_state::BudgetGranularity::Row => 0,
        crate::wom_state::BudgetGranularity::Column => d.column,
    }
}
