//! PCM-refresh (§3.2): the periodic driver that re-initializes
//! exhausted rows in idle ranks, on main memory (WOM-code PCM with
//! refresh) or on the WOM-cache arrays (WCPCM).

use super::ArraySide;
use crate::engine::EngineCore;
use crate::error::WomPcmError;
use crate::refresh::{RefreshConfig, RefreshEngine};
use pcm_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use pcm_sim::{Completion, TransactionId};
use std::collections::BTreeMap;

/// The refresh machinery of one array side: the [`RefreshEngine`] (row
/// address tables, round-robin idle-rank selection) plus the bookkeeping
/// mapping in-flight refresh transactions back to their
/// `(rank, bank, row)`.
#[derive(Debug)]
pub(super) struct RefreshDriver {
    /// The arrays this driver refreshes (and whose completions it
    /// settles).
    side: ArraySide,
    engine: RefreshEngine,
    // Ordered map (determinism invariant; see `EngineCore`). Cache-side
    // entries always hold bank 0: one WOM-cache array per rank.
    planned: BTreeMap<TransactionId, (u32, u32, u32)>,
    // Tick-time scratch, reused so the no-plan steady state of every
    // tick is allocation-free.
    idle_scratch: Vec<u32>,
    rows_scratch: Vec<(u32, u32)>,
}

impl RefreshDriver {
    pub(super) fn new(
        side: ArraySide,
        config: RefreshConfig,
        ranks: u32,
        banks: u32,
    ) -> Result<Self, WomPcmError> {
        Ok(Self {
            side,
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

    /// Settles a finished refresh transaction from the `side` arrays:
    /// resolves the planned `(rank, bank, row)` and accounts it. Returns
    /// the refreshed target, or `None` when the refresh was preempted.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::Internal`] when the completion comes from
    /// the other side or was never planned — a refresh-scheduling bug.
    pub(super) fn on_refresh_completion(
        &mut self,
        core: &mut EngineCore,
        side: ArraySide,
        c: &Completion,
    ) -> Result<Option<(u32, u32, u32)>, WomPcmError> {
        if side != self.side {
            return Err(WomPcmError::Internal(
                "refresh completion from arrays the driver does not refresh".into(),
            ));
        }
        let (rank, bank, row) = self.planned.remove(&c.id).ok_or_else(|| {
            // womlint::allow(hotpath/transitive, reason = "internal-error path: an unplanned completion is a policy bug and aborts the run")
            WomPcmError::Internal(format!(
                "{side:?} refresh completion {:?} was never planned",
                c.id
            ))
        })?;
        core.note_refresh_row(side, rank, bank, row, c);
        if c.preempted {
            self.engine.row_preempted(rank, bank, row);
            return Ok(None);
        }
        self.engine.row_refreshed(rank, bank, row);
        Ok(Some((rank, bank, row)))
    }

    /// One staggered refresh opportunity on the driver's arrays.
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
        let (arrays, _) = core.side_arrays(self.side)?;
        self.idle_scratch.clear();
        self.idle_scratch
            .extend((0..ranks).filter(|&r| arrays.rank_queue_empty(r)));
        if let Some(rank) = self
            .engine
            .plan_into(&self.idle_scratch, &mut self.rows_scratch)
        {
            self.rows_scratch
                .retain(|&(bank, _)| arrays.is_bank_free(rank, bank));
            if self.rows_scratch.is_empty() {
                return Ok(());
            }
            let first = core.enqueue_refresh_burst(self.side, rank, &self.rows_scratch)?;
            for (k, &(bank, row)) in self.rows_scratch.iter().enumerate() {
                self.planned.insert(first + k as u64, (rank, bank, row));
            }
        }
        Ok(())
    }

    /// Serializes the refresh engine and the in-flight refresh plan: 20
    /// bytes per main-side entry, 16 per cache-side entry (no bank). The
    /// tick-time scratch vectors are transient and not written.
    pub(super) fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.engine);
        w.put(&self.planned.len());
        for (id, &(rank, bank, row)) in &self.planned {
            w.put(id);
            w.put(&rank);
            if self.side == ArraySide::Main {
                w.put(&bank);
            }
            w.put(&row);
        }
    }

    /// Restores state written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Propagates payload truncation and structural corruption.
    pub(super) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.engine = r.take()?;
        let main = self.side == ArraySide::Main;
        let banks = if main { u32::MIN_BYTES } else { 0 };
        self.planned = r.take_sorted(
            TransactionId::MIN_BYTES + 2 * u32::MIN_BYTES + banks,
            |(id, _)| id,
            |r| {
                let id: TransactionId = r.take()?;
                let rank = r.take()?;
                let bank = if main { r.take()? } else { 0 };
                Ok((id, (rank, bank, r.take()?)))
            },
        )?;
        self.idle_scratch.clear();
        self.rows_scratch.clear();
        Ok(())
    }
}
