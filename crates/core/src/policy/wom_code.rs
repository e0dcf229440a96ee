//! WOM-code PCM: per-row rewrite budgets decide RESET-only vs α-writes.

use super::refresh::RefreshDriver;
use super::{ArraySide, ReadAction, WriteAction};
use crate::config::SystemConfig;
use crate::engine::EngineCore;
use crate::error::WomPcmError;
use crate::hidden_page::HiddenPageTable;
use crate::observe::Event;
use crate::wom_state::{BudgetGranularity, WomStateTable};
use pcm_sim::{Completion, DecodedAddr, MemOp, ServiceClass, SnapReader, SnapWriter};

/// Main memory is WOM-coded: each write within a row's rewrite budget is
/// a RESET-only write; the α-write past the budget pays the full SET
/// latency. Owns the [`WomStateTable`] tracking budgets, the optional
/// hidden-page companion table, and — under `WomCodeRefresh` — the
/// main-side PCM-refresh driver.
#[derive(Debug)]
pub(crate) struct WomCodePolicy {
    wom: WomStateTable,
    /// Hidden-page table, when companion traffic is charged.
    hidden: Option<HiddenPageTable>,
    /// PCM-refresh machinery, present only under `WomCodeRefresh`.
    refresh: Option<RefreshDriver>,
}

impl WomCodePolicy {
    /// Builds the policy, with the refresh driver of `WomCodeRefresh`
    /// or without one for plain WOM-code PCM.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] for inconsistent parameters.
    pub(super) fn new(
        config: &SystemConfig,
        refresh: Option<RefreshDriver>,
    ) -> Result<Self, WomPcmError> {
        let g = config.mem.geometry;
        let budget_columns = match config.budget_granularity {
            BudgetGranularity::Row => 1,
            BudgetGranularity::Column => g.columns_per_row(),
        };
        let wom = WomStateTable::with_cold_policy(
            config.rewrite_limit,
            budget_columns,
            config.cold_policy,
        );
        let hidden = if config.charge_hidden_page_traffic {
            Some(HiddenPageTable::new(g, config.expansion)?)
        } else {
            None
        };
        Ok(Self {
            wom,
            hidden,
            refresh,
        })
    }

    /// Runs the refresh driver's periodic tick (refresh variant only).
    pub(super) fn tick(&mut self, core: &mut EngineCore) -> Result<(), WomPcmError> {
        self.refresh
            .as_mut()
            .ok_or_else(|| WomPcmError::Internal("tick requires the refresh driver".into()))?
            .tick(core)
    }

    /// Computes the hidden-page companion access for a WOM-coded main-
    /// memory demand access, when that traffic is charged.
    fn hidden_companion(
        &mut self,
        core: &mut EngineCore,
        op: MemOp,
        addr: u64,
    ) -> Result<Option<u64>, WomPcmError> {
        let Some(hidden) = &mut self.hidden else {
            return Ok(None);
        };
        let g = core.config().mem.geometry;
        let d = core.decoder().decode(addr);
        let flat_bank = d.flat_bank(&g);
        let visible = d.row % hidden.visible_rows();
        let hidden_row = match op {
            // Writes recruit a hidden page on first touch...
            MemOp::Write => hidden.recruit(flat_bank, visible)?,
            // ...reads only touch one that already exists.
            MemOp::Read => match hidden.lookup(flat_bank, visible) {
                Some(row) => row,
                None => return Ok(None),
            },
        };
        let companion = core.decoder().encode(DecodedAddr {
            row: hidden_row,
            column: 0,
            ..d
        })?;
        core.emit(Event::HiddenPageAccess { cycle: core.now() });
        Ok(Some(companion))
    }

    pub(super) fn on_read(
        &mut self,
        core: &mut EngineCore,
        addr: u64,
    ) -> Result<ReadAction, WomPcmError> {
        let physical = core.remap_main(addr)?;
        core.check_read(physical)?;
        let companion = self.hidden_companion(core, MemOp::Read, physical)?;
        Ok(ReadAction::Main {
            addr: physical,
            companion,
        })
    }

    pub(super) fn on_write(
        &mut self,
        core: &mut EngineCore,
        addr: u64,
    ) -> Result<WriteAction, WomPcmError> {
        let addr = core.remap_main(addr)?;
        core.check_write(addr)?;
        let d = core.decoder().decode(addr);
        let row_id = d.flat_row(&core.config().mem.geometry);
        if core.try_coalesce(row_id) {
            return Ok(WriteAction::Coalesced);
        }
        let budget_col = super::budget_column(core.config(), &d);
        let kind = self.wom.classify_write(row_id, budget_col);
        if let Some(driver) = &mut self.refresh {
            // A row with any exhausted column is a refresh candidate;
            // refresh re-initializes the whole row.
            if self.wom.row_exhausted(row_id) {
                driver.record_exhausted(d.rank, d.bank, d.row);
                core.emit(Event::BudgetExhausted {
                    cycle: core.now(),
                    side: ArraySide::Main,
                    rank: d.rank,
                    bank: d.bank,
                    row: d.row,
                });
            }
        }
        let class = if kind.is_fast() {
            ServiceClass::ResetOnlyWrite
        } else {
            ServiceClass::Write
        };
        let companion = self.hidden_companion(core, MemOp::Write, addr)?;
        Ok(WriteAction::Main {
            addr,
            class,
            row_key: row_id,
            companion,
        })
    }

    /// Settles a main-memory refresh; a completed one rewrites the row's
    /// data and consumes one generation of its budget.
    pub(super) fn on_completion(
        &mut self,
        core: &mut EngineCore,
        side: ArraySide,
        c: &Completion,
    ) -> Result<(), WomPcmError> {
        let driver = self.refresh.as_mut().ok_or_else(|| {
            WomPcmError::Internal("refresh completion without a refresh driver".into())
        })?;
        if let Some((rank, bank, row)) = driver.on_refresh_completion(core, side, c)? {
            core.check_refresh_row(rank, bank, row)?;
            // §3.2: the refresh writes the data back in the first-write
            // pattern, consuming one generation.
            let d = DecodedAddr {
                rank,
                bank,
                row,
                column: 0,
            };
            self.wom
                .mark_copied(d.flat_row(&core.config().mem.geometry));
        }
        Ok(())
    }

    pub(super) fn on_wear_level_copy(&mut self, core: &mut EngineCore, dest: DecodedAddr) {
        let row_id = dest.flat_row(&core.config().mem.geometry);
        self.wom.mark_copied(row_id);
        if let Some(driver) = &mut self.refresh {
            driver.row_refreshed(dest.rank, dest.bank, dest.row);
        }
    }

    /// Appends the WOM budgets, then the hidden-page table and the
    /// refresh driver when the configuration built them.
    pub(super) fn save_state(&self, w: &mut SnapWriter) {
        self.wom.save_state(w);
        if let Some(hidden) = &self.hidden {
            hidden.save_state(w);
        }
        if let Some(driver) = &self.refresh {
            driver.save_state(w);
        }
    }

    pub(super) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), WomPcmError> {
        self.wom.load_state(r)?;
        if let Some(hidden) = &mut self.hidden {
            hidden.load_state(r)?;
        }
        if let Some(driver) = &mut self.refresh {
            driver.load_state(r)?;
        }
        Ok(())
    }
}
