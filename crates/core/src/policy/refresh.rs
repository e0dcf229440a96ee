//! PCM-refresh (§3.2): WOM-code PCM plus a periodic engine that
//! re-initializes exhausted rows in idle ranks.

use super::wom_code::WomCodePolicy;
use super::{ArchPolicy, ArraySide, ReadAction, WriteAction};
use crate::config::SystemConfig;
use crate::engine::EngineCore;
use crate::error::WomPcmError;
use crate::metrics::RunMetrics;
use crate::refresh::{RefreshConfig, RefreshEngine};
use pcm_sim::{Completion, DecodedAddr, SnapError, SnapReader, SnapWriter, TransactionId};
use std::collections::BTreeMap;

/// The main-array refresh machinery shared by the refresh-capable
/// policies: the [`RefreshEngine`] (row address tables, round-robin
/// idle-rank selection) plus the bookkeeping mapping in-flight refresh
/// transactions back to their `(rank, bank, row)`.
#[derive(Debug)]
pub(super) struct RefreshDriver {
    engine: RefreshEngine,
    // Ordered map (determinism invariant; see `EngineCore`).
    planned: BTreeMap<TransactionId, (u32, u32, u32)>,
    // Tick-time scratch, reused so the no-plan steady state of every
    // tick is allocation-free.
    idle_scratch: Vec<u32>,
    rows_scratch: Vec<(u32, u32)>,
}

impl RefreshDriver {
    pub(super) fn new(config: RefreshConfig, ranks: u32, banks: u32) -> Result<Self, WomPcmError> {
        Ok(Self {
            engine: RefreshEngine::new(config, ranks, banks)?,
            planned: BTreeMap::new(),
            idle_scratch: Vec::new(),
            rows_scratch: Vec::new(),
        })
    }

    pub(super) fn record_exhausted(&mut self, rank: u32, bank: u32, row: u32) {
        self.engine.record_exhausted(rank, bank, row);
    }

    pub(super) fn row_refreshed(&mut self, rank: u32, bank: u32, row: u32) {
        self.engine.row_refreshed(rank, bank, row);
    }

    pub(super) fn row_preempted(&mut self, rank: u32, bank: u32, row: u32) {
        self.engine.row_preempted(rank, bank, row);
    }

    /// Removes and returns the planned target of a finished refresh.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::Internal`] when `id` was never planned —
    /// a refresh-scheduling bug.
    pub(super) fn take_planned(
        &mut self,
        id: TransactionId,
    ) -> Result<(u32, u32, u32), WomPcmError> {
        self.planned.remove(&id).ok_or_else(|| {
            // womlint::allow(hotpath/transitive, reason = "internal-error path: an unplanned completion is a policy bug and aborts the run")
            WomPcmError::Internal(format!("refresh completion {id:?} was never planned"))
        })
    }

    /// Handles a finished main-array refresh transaction end to end:
    /// resolves the planned `(rank, bank, row)`, accounts it, and — for
    /// a completed (not preempted) refresh — re-initializes the row's
    /// data in the functional checker through
    /// [`EngineCore::check_refresh_row`], which rewrites each of its
    /// lines. Returns the refreshed target, or `None` when the refresh
    /// was preempted.
    ///
    /// # Errors
    ///
    /// Propagates scheduling bugs ([`WomPcmError::Internal`]) and
    /// functional-rewrite failures.
    pub(super) fn on_refresh_completion(
        &mut self,
        core: &mut EngineCore,
        c: &Completion,
    ) -> Result<Option<(u32, u32, u32)>, WomPcmError> {
        let (rank, bank, row) = self.take_planned(c.id)?;
        core.note_refresh_row(ArraySide::Main, rank, bank, row, c);
        if c.preempted {
            self.row_preempted(rank, bank, row);
            return Ok(None);
        }
        self.row_refreshed(rank, bank, row);
        core.check_refresh_row(rank, bank, row)?;
        Ok(Some((rank, bank, row)))
    }

    /// One staggered refresh opportunity on the main arrays.
    ///
    /// A rank qualifies when no demand access for it is queued; banks
    /// still finishing in-flight work are simply skipped from the batch.
    /// Write pausing lets any later demand access preempt the refresh, so
    /// this is safe for demand latency.
    pub(super) fn tick(&mut self, core: &mut EngineCore) -> Result<(), WomPcmError> {
        if !self.engine.has_work() {
            return Ok(());
        }
        let ranks = core.config().mem.geometry.ranks;
        self.idle_scratch.clear();
        self.idle_scratch
            .extend((0..ranks).filter(|&r| core.main_rank_idle(r)));
        if let Some(rank) = self
            .engine
            .plan_into(&self.idle_scratch, &mut self.rows_scratch)
        {
            self.rows_scratch
                .retain(|&(bank, _)| core.main_bank_free(rank, bank));
            if self.rows_scratch.is_empty() {
                return Ok(());
            }
            let first = core.enqueue_main_rank_refresh(rank, &self.rows_scratch)?;
            for (k, &(bank, row)) in self.rows_scratch.iter().enumerate() {
                self.planned.insert(first + k as u64, (rank, bank, row));
            }
        }
        Ok(())
    }

    /// Serializes the refresh engine and the in-flight refresh plan. The
    /// tick-time scratch vectors are transient and not written.
    pub(super) fn save_state(&self, w: &mut SnapWriter) {
        self.engine.save_state(w);
        w.put_usize(self.planned.len());
        for (&id, &(rank, bank, row)) in &self.planned {
            w.put_u64(id);
            w.put_u32(rank);
            w.put_u32(bank);
            w.put_u32(row);
        }
    }

    /// Restores state written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Propagates payload truncation and structural corruption.
    pub(super) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.engine = RefreshEngine::load_state(r)?;
        self.planned = r.take_sorted(
            20,
            |&(id, _)| id,
            |r| Ok((r.take_u64()?, (r.take_u32()?, r.take_u32()?, r.take_u32()?))),
        )?;
        self.idle_scratch.clear();
        self.rows_scratch.clear();
        Ok(())
    }
}

/// WOM-code PCM with PCM-refresh: the [`WomCodePolicy`] write path plus a
/// refresh engine restoring rewrite budgets during idle periods.
#[derive(Debug)]
pub struct WomCodeRefreshPolicy {
    inner: WomCodePolicy,
}

impl WomCodeRefreshPolicy {
    /// Builds the refresh-enabled WOM-code policy.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] for inconsistent parameters.
    pub fn new(config: &SystemConfig) -> Result<Self, WomPcmError> {
        let g = config.mem.geometry;
        let driver = RefreshDriver::new(config.refresh, g.ranks, g.banks_per_rank)?;
        Ok(Self {
            inner: WomCodePolicy::with_driver(config, Some(driver))?,
        })
    }
}

impl ArchPolicy for WomCodeRefreshPolicy {
    fn wants_ticks(&self) -> bool {
        true
    }

    fn on_read(&mut self, core: &mut EngineCore, addr: u64) -> Result<ReadAction, WomPcmError> {
        self.inner.on_read(core, addr)
    }

    fn on_write(&mut self, core: &mut EngineCore, addr: u64) -> Result<WriteAction, WomPcmError> {
        self.inner.on_write(core, addr)
    }

    fn on_tick(&mut self, core: &mut EngineCore) -> Result<(), WomPcmError> {
        self.inner.tick(core)
    }

    fn on_completion(
        &mut self,
        core: &mut EngineCore,
        side: ArraySide,
        c: &Completion,
    ) -> Result<(), WomPcmError> {
        self.inner.on_completion(core, side, c)
    }

    fn on_wear_level_copy(&mut self, core: &mut EngineCore, dest: DecodedAddr) {
        self.inner.on_wear_level_copy(core, dest);
    }

    fn finish(&mut self, core: &EngineCore, result: &mut RunMetrics) {
        self.inner.finish(core, result);
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), WomPcmError> {
        self.inner.load_state(r)
    }
}
