//! PCM-refresh (§3.2): the periodic driver that re-initializes
//! exhausted rows in idle ranks, on main memory (WOM-code PCM with
//! refresh) or on the WOM-cache arrays (WCPCM).

use super::ArraySide;
use crate::engine::EngineCore;
use crate::error::WomPcmError;
use crate::refresh::{RefreshConfig, RefreshEngine};
use pcm_sim::snap::{SnapError, SnapReader, SnapWriter};
use pcm_sim::Completion;

/// The refresh machinery of one array side: the [`RefreshEngine`] (row
/// address tables, round-robin idle-rank selection) and the tick that
/// plans its bursts. A refresh completion's address names its
/// `(rank, bank, row)`, so nothing in flight is tracked here.
#[derive(Debug)]
pub(super) struct RefreshDriver {
    /// The arrays this driver refreshes (and whose completions it
    /// settles).
    side: ArraySide,
    engine: RefreshEngine,
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
    /// decodes its `(rank, bank, row)` with that side's decoder (bank 0
    /// on the WOM-cache, one array per rank) and accounts it. Returns the
    /// refreshed target, or `None` when the refresh was preempted.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::Internal`] when the completion comes from
    /// the other side — a refresh-scheduling bug.
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
        let (arrays, _) = core.side_arrays(side)?;
        let d = arrays.decoder().decode(c.addr);
        core.note_refresh_row(side, d.rank, d.bank, d.row, c);
        if c.preempted {
            return Ok(None); // the row stays exhausted in its table
        }
        self.engine.row_refreshed(d.rank, d.bank, d.row);
        Ok(Some((d.rank, d.bank, d.row)))
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
            core.enqueue_refresh_burst(self.side, rank, &self.rows_scratch)?;
        }
        Ok(())
    }

    /// Serializes the refresh engine. The tick-time scratch vectors are
    /// transient and not written.
    pub(super) fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.engine);
    }

    /// Restores state written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Propagates payload truncation and structural corruption.
    pub(super) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.engine = r.take()?;
        Ok(())
    }
}
