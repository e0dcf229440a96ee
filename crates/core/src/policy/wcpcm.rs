//! WCPCM (§4): a per-rank WOM-cache absorbs writes; misses write victims
//! back to conventional main memory; the cache itself is refreshed.

use super::{ArchPolicy, ArraySide, ReadAction, WriteAction};
use crate::config::SystemConfig;
use crate::engine::EngineCore;
use crate::error::WomPcmError;
use crate::metrics::RunMetrics;
use crate::observe::Event;
use crate::refresh::RefreshEngine;
use crate::wcpcm::{CacheWriteOutcome, WomCache};
use crate::wom_state::BudgetGranularity;
use pcm_sim::{Completion, DecodedAddr, ServiceClass, SnapReader, SnapWriter, TransactionId};
use std::collections::BTreeMap;

/// Main memory stays conventional; a WOM-coded cache array per rank
/// absorbs the write stream. Owns the [`WomCache`] (tags, budgets,
/// victims) and the [`RefreshEngine`] that flushes exhausted cache rows.
#[derive(Debug)]
pub struct WcpcmPolicy {
    cache: WomCache,
    engine: RefreshEngine,
    // Ordered map (determinism invariant; see `EngineCore`).
    planned: BTreeMap<TransactionId, (u32, u32)>,
    // Tick-time scratch, reused so the no-plan steady state of every
    // tick is allocation-free.
    idle_scratch: Vec<u32>,
    rows_scratch: Vec<(u32, u32)>,
}

impl WcpcmPolicy {
    /// Builds the WCPCM policy.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] for inconsistent parameters.
    pub fn new(config: &SystemConfig) -> Result<Self, WomPcmError> {
        let g = config.mem.geometry;
        let budget_columns = match config.budget_granularity {
            BudgetGranularity::Row => 1,
            BudgetGranularity::Column => g.columns_per_row(),
        };
        let cache = WomCache::new(
            g.ranks,
            g.banks_per_rank,
            g.rows_per_bank,
            budget_columns,
            config.rewrite_limit,
        );
        // One WOM-cache array (bank) per rank.
        let engine = RefreshEngine::new(config.refresh, g.ranks, 1)?;
        Ok(Self {
            cache,
            engine,
            planned: BTreeMap::new(),
            idle_scratch: Vec::new(),
            rows_scratch: Vec::new(),
        })
    }
}

impl ArchPolicy for WcpcmPolicy {
    fn wants_ticks(&self) -> bool {
        true
    }

    fn on_read(&mut self, core: &mut EngineCore, addr: u64) -> Result<ReadAction, WomPcmError> {
        // §4's read protocol: cache and main memory are accessed in
        // parallel and the right side forwards the data, costing only
        // the one-to-two-cycle tag comparison. The tags (6 bits per
        // row at 32 banks/rank) are mirrored in the controller, so the
        // losing side's access is squashed before it occupies an
        // array; we therefore route the read to the owning side only.
        //
        // The functional checker is keyed by the logical address on
        // both sides of the cache (wear leveling is rejected alongside
        // verification, so logical == physical in main memory).
        core.check_read(addr)?;
        let d = core.decoder().decode(addr);
        let hit = self.cache.read(d.rank, d.bank, d.row);
        core.emit(Event::CacheRead {
            cycle: core.now(),
            hit,
        });
        if hit {
            return Ok(ReadAction::Cache {
                rank: d.rank,
                row: d.row,
            });
        }
        let physical = core.remap_main(addr)?;
        Ok(ReadAction::Main {
            addr: physical,
            companion: None,
        })
    }

    fn on_write(&mut self, core: &mut EngineCore, addr: u64) -> Result<WriteAction, WomPcmError> {
        core.check_write(addr)?;
        let d = core.decoder().decode(addr);
        let cache_key = (u64::from(d.rank) << 32) | u64::from(d.row);
        // Coalescing requires the pending cache-row write to hold
        // the same bank's data (a tag conflict must evict instead).
        let tag_matches = self.cache.peek_tag(d.rank, d.row) == Some(d.bank);
        if tag_matches && core.try_coalesce(true, cache_key) {
            return Ok(WriteAction::Coalesced);
        }
        let budget_col = super::budget_column(core.config(), &d);
        let outcome = self.cache.write(d.rank, d.bank, d.row, budget_col);
        core.emit(Event::CacheWrite {
            cycle: core.now(),
            hit: matches!(outcome, CacheWriteOutcome::Hit { .. }),
        });
        if self.cache.row_at_limit(d.rank, d.row) {
            self.engine.record_exhausted(d.rank, 0, d.row);
            core.emit(Event::BudgetExhausted {
                cycle: core.now(),
                side: ArraySide::Cache,
                rank: d.rank,
                bank: 0,
                row: d.row,
            });
        }
        if let CacheWriteOutcome::Miss { victim_bank, .. } = outcome {
            // §4's write protocol: the victim data is read out of
            // the row buffer into a register during the same row
            // activation that programs the new data (no extra array
            // occupancy), then written back to PCM main memory.
            let victim = DecodedAddr {
                rank: d.rank,
                bank: victim_bank,
                row: d.row,
                column: 0,
            };
            let victim_addr = core.remap_main(core.decoder().encode(victim)?)?;
            core.push_victim(victim_addr);
        }
        let class = if outcome.kind().is_fast() {
            ServiceClass::ResetOnlyWrite
        } else {
            ServiceClass::Write
        };
        Ok(WriteAction::Cache {
            rank: d.rank,
            row: d.row,
            class,
            merge_key: cache_key,
        })
    }

    /// One staggered refresh opportunity on the cache arrays (see
    /// `RefreshDriver::tick` for the rank/bank qualification rules).
    fn on_tick(&mut self, core: &mut EngineCore) -> Result<(), WomPcmError> {
        if !self.engine.has_work() {
            return Ok(());
        }
        let ranks = core.config().mem.geometry.ranks;
        self.idle_scratch.clear();
        self.idle_scratch
            .extend((0..ranks).filter(|&r| core.cache_rank_idle(r)));
        if let Some(rank) = self
            .engine
            .plan_into(&self.idle_scratch, &mut self.rows_scratch)
        {
            self.rows_scratch
                .retain(|&(bank, _)| core.cache_bank_free(rank, bank));
            if self.rows_scratch.is_empty() {
                return Ok(());
            }
            let first = core.enqueue_cache_rank_refresh(rank, &self.rows_scratch)?;
            for (k, &(_, row)) in self.rows_scratch.iter().enumerate() {
                self.planned.insert(first + k as u64, (rank, row));
            }
        }
        Ok(())
    }

    fn on_completion(
        &mut self,
        core: &mut EngineCore,
        side: ArraySide,
        c: &Completion,
    ) -> Result<(), WomPcmError> {
        if side != ArraySide::Cache {
            return Err(WomPcmError::Internal(
                "WCPCM refreshes only its cache".into(),
            ));
        }
        let (rank, row) = self.planned.remove(&c.id).ok_or_else(|| {
            // womlint::allow(hotpath/transitive, reason = "internal-error path: an unplanned completion is a policy bug and aborts the run")
            WomPcmError::Internal(format!(
                "cache refresh completion {:?} was never planned",
                c.id
            ))
        })?;
        core.note_refresh_row(ArraySide::Cache, rank, 0, row, c);
        if c.preempted {
            self.engine.row_preempted(rank, 0, row);
        } else {
            self.engine.row_refreshed(rank, 0, row);
            // The WOM-cache refreshes by flushing: the entry's data
            // is written back to main memory and the row erased to
            // the full-budget state (a write cache may evict; main
            // memory rows must instead preserve data, §3.2).
            if let Some(victim_bank) = self.cache.flush(rank, row) {
                let victim = DecodedAddr {
                    rank,
                    bank: victim_bank,
                    row,
                    column: 0,
                };
                let addr = core.decoder().encode(victim)?;
                let physical = core.remap_main(addr)?;
                core.push_victim(physical);
                // The flushed entry's lines land in main memory as
                // first-pattern writes; the functional checker rewrites
                // each of them (see `EngineCore::check_refresh_row`).
                core.check_refresh_row(rank, victim_bank, row)?;
            }
        }
        Ok(())
    }

    fn finish(&mut self, _core: &EngineCore, result: &mut RunMetrics) {
        result.cache = Some(*self.cache.stats());
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.cache.save_state(w);
        self.engine.save_state(w);
        w.put_usize(self.planned.len());
        for (&id, &(rank, row)) in &self.planned {
            w.put_u64(id);
            w.put_u32(rank);
            w.put_u32(row);
        }
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), WomPcmError> {
        self.cache = WomCache::load_state(r)?;
        self.engine = RefreshEngine::load_state(r)?;
        self.planned = r.take_sorted(
            16,
            |&(id, _)| id,
            |r| Ok((r.take_u64()?, (r.take_u32()?, r.take_u32()?))),
        )?;
        self.idle_scratch.clear();
        self.rows_scratch.clear();
        Ok(())
    }
}
