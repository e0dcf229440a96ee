//! WCPCM (§4): a per-rank WOM-cache absorbs writes; misses write victims
//! back to conventional main memory; the cache itself is refreshed.

use super::refresh::RefreshDriver;
use super::{ArraySide, ReadAction, WriteAction};
use crate::config::SystemConfig;
use crate::engine::EngineCore;
use crate::error::WomPcmError;
use crate::observe::Event;
use crate::wcpcm::{CacheWriteOutcome, WomCache};
use crate::wom_state::BudgetGranularity;
use pcm_sim::{Completion, DecodedAddr, ServiceClass, SnapReader, SnapWriter};

/// Main memory stays conventional; a WOM-coded cache array per rank
/// absorbs the write stream. Owns the [`WomCache`] (tags, budgets,
/// victims) and the cache-side [`RefreshDriver`] that flushes exhausted
/// cache rows.
#[derive(Debug)]
pub(crate) struct WcpcmPolicy {
    cache: WomCache,
    refresh: RefreshDriver,
}

impl WcpcmPolicy {
    /// Builds the WCPCM policy.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] for inconsistent parameters.
    pub(super) fn new(config: &SystemConfig) -> Result<Self, WomPcmError> {
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
        let refresh = RefreshDriver::new(ArraySide::Cache, config.refresh, g.ranks, 1)?;
        Ok(Self { cache, refresh })
    }

    pub(super) fn on_read(
        &mut self,
        core: &mut EngineCore,
        addr: u64,
    ) -> Result<ReadAction, WomPcmError> {
        // §4's read protocol: cache and main memory are accessed in
        // parallel and the right side forwards the data, costing only
        // the one-to-two-cycle tag comparison. The tags (6 bits per
        // row at 32 banks/rank) are mirrored in the controller, so the
        // losing side's access is squashed before it occupies an
        // array; we therefore route the read to the owning side only.
        let d = core.decoder().decode(addr);
        // womlint::allow(hotpath/transitive, reason = "WomCache::read is a tag lookup, not io::Read: it allocates nothing")
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

    pub(super) fn on_write(
        &mut self,
        core: &mut EngineCore,
        addr: u64,
    ) -> Result<WriteAction, WomPcmError> {
        let d = core.decoder().decode(addr);
        let cache_key = (u64::from(d.rank) << 32) | u64::from(d.row);
        // Coalescing requires the pending cache-row write to hold
        // the same bank's data (a tag conflict must evict instead).
        let tag_matches = self.cache.peek_tag(d.rank, d.row) == Some(d.bank);
        if tag_matches && core.try_coalesce(cache_key) {
            return Ok(WriteAction::Coalesced);
        }
        let budget_col = super::budget_column(core.config(), &d);
        let outcome = self.cache.write(d.rank, d.bank, d.row, budget_col);
        core.emit(Event::CacheWrite {
            cycle: core.now(),
            hit: matches!(outcome, CacheWriteOutcome::Hit { .. }),
        });
        if self.cache.row_at_limit(d.rank, d.row) {
            self.refresh.record_exhausted(d.rank, 0, d.row);
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

    /// One staggered refresh opportunity on the cache arrays.
    pub(super) fn tick(&mut self, core: &mut EngineCore) -> Result<(), WomPcmError> {
        self.refresh.tick(core)
    }

    /// Settles a cache refresh; a completed one flushes the row.
    pub(super) fn on_completion(
        &mut self,
        core: &mut EngineCore,
        side: ArraySide,
        c: &Completion,
    ) -> Result<(), WomPcmError> {
        let Some((rank, _, row)) = self.refresh.on_refresh_completion(core, side, c)? else {
            return Ok(());
        };
        // The WOM-cache refreshes by flushing: the entry's data is
        // written back to main memory and the row erased to the
        // full-budget state (a write cache may evict; main memory rows
        // must instead preserve data, §3.2).
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
            // first-pattern writes.
            core.emit(Event::CacheFlush {
                cycle: c.finish,
                rank,
                bank: victim_bank,
                row,
            });
        }
        Ok(())
    }

    pub(super) fn save_state(&self, w: &mut SnapWriter) {
        self.cache.save_state(w);
        self.refresh.save_state(w);
    }

    pub(super) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), WomPcmError> {
        self.cache.load_state(r)?;
        self.refresh.load_state(r)?;
        Ok(())
    }
}
