//! Fluent construction of simulation configurations and
//! [`Session`](crate::session::Session)s for experiments.

use crate::arch::{Architecture, Organization};
use crate::config::SystemConfig;
use crate::error::WomPcmError;
use crate::refresh::RefreshConfig;
use crate::wom_state::{BudgetGranularity, ColdPolicy};
use pcm_sim::{Cycle, SchedulerPolicy, TimingParams};

/// Builder over [`SystemConfig`], starting from the paper's defaults.
///
/// ```
/// use wom_pcm::{Architecture, SystemBuilder};
///
/// # fn main() -> Result<(), wom_pcm::WomPcmError> {
/// // A WCPCM system with 8 banks/rank (one point of Figs. 6-7) and a 50%
/// // refresh threshold:
/// let sys = SystemBuilder::new(Architecture::Wcpcm)
///     .banks_per_rank(8)
///     .refresh_threshold_pct(50)
///     .open()?;
/// assert_eq!(sys.config().mem().geometry.banks_per_rank, 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    config: SystemConfig,
}

impl SystemBuilder {
    /// Starts from [`SystemConfig::paper`] for `arch`.
    #[must_use]
    pub fn new(arch: Architecture) -> Self {
        Self {
            config: SystemConfig::paper(arch),
        }
    }

    /// Starts from the fast test configuration.
    #[must_use]
    pub fn tiny(arch: Architecture) -> Self {
        Self {
            config: SystemConfig::tiny(arch),
        }
    }

    /// Sets the number of ranks on the channel.
    #[must_use]
    pub fn ranks(mut self, ranks: u32) -> Self {
        self.config.mem.geometry.ranks = ranks;
        self
    }

    /// Sets banks per rank (the Figs. 6–7 sweep parameter).
    #[must_use]
    pub fn banks_per_rank(mut self, banks: u32) -> Self {
        self.config.mem.geometry.banks_per_rank = banks;
        self
    }

    /// Sets rows per bank.
    #[must_use]
    pub fn rows_per_bank(mut self, rows: u32) -> Self {
        self.config.mem.geometry.rows_per_bank = rows;
        self
    }

    /// Replaces the timing parameters.
    #[must_use]
    pub fn timing(mut self, timing: TimingParams) -> Self {
        self.config.mem.timing = timing;
        self
    }

    /// Sets the WOM code's rewrite limit `t`.
    #[must_use]
    pub fn rewrite_limit(mut self, t: u32) -> Self {
        self.config.rewrite_limit = t;
        self
    }

    /// Sets the WOM code's expansion ratio (`n / log2 v`).
    #[must_use]
    pub fn expansion(mut self, expansion: f64) -> Self {
        self.config.expansion = expansion;
        self
    }

    /// Sets the §3.1 memory organization.
    #[must_use]
    pub fn organization(mut self, organization: Organization) -> Self {
        self.config.organization = organization;
        self
    }

    /// Sets the PCM-refresh threshold `r_th` in percent.
    #[must_use]
    pub fn refresh_threshold_pct(mut self, pct: u8) -> Self {
        self.config.refresh.threshold_pct = pct;
        self
    }

    /// Sets the row-address-table depth (paper: 5).
    #[must_use]
    pub fn refresh_table_depth(mut self, depth: usize) -> Self {
        self.config.refresh.table_depth = depth;
        self
    }

    /// Replaces the whole refresh configuration.
    #[must_use]
    pub fn refresh(mut self, refresh: RefreshConfig) -> Self {
        self.config.refresh = refresh;
        self
    }

    /// Enables Start-Gap wear leveling on main memory with the given
    /// gap-move interval (demand writes per bank between moves).
    #[must_use]
    pub fn wear_leveling(mut self, gap_move_interval: u64) -> Self {
        self.config.wear_leveling = Some(gap_move_interval);
        self
    }

    /// Sets the WOM rewrite-budget tracking granularity (per column —
    /// the wide-column default — or one counter per row).
    #[must_use]
    pub fn budget_granularity(mut self, granularity: BudgetGranularity) -> Self {
        self.config.budget_granularity = granularity;
        self
    }

    /// Sets the assumed state of untouched main-memory cells.
    #[must_use]
    pub fn cold_policy(mut self, policy: ColdPolicy) -> Self {
        self.config.cold_policy = policy;
        self
    }

    /// Enables or disables functional data verification (decode every
    /// read against the last written data).
    #[must_use]
    pub fn verify_data(mut self, on: bool) -> Self {
        self.config.verify_data = on;
        self
    }

    /// Charges the hidden-page organization's companion traffic (an
    /// ablation of the paper's timing-identical assumption).
    #[must_use]
    pub fn charge_hidden_page_traffic(mut self, on: bool) -> Self {
        self.config.charge_hidden_page_traffic = on;
        self
    }

    /// Enables or disables write pausing (demand writes preempting an
    /// in-flight refresh).
    #[must_use]
    pub fn write_pausing(mut self, on: bool) -> Self {
        self.config.mem.write_pausing = on;
        self
    }

    /// Sets the controller's scheduling policy.
    #[must_use]
    pub fn scheduler(mut self, policy: SchedulerPolicy) -> Self {
        self.config.mem.scheduler = policy;
        self
    }

    /// Enables epoch observation: the opened session folds instrumentation
    /// events into `width`-cycle epochs (see [`crate::observe`]),
    /// streamed with [`Session::poll_epochs`](crate::session::Session::poll_epochs)
    /// or taken with [`Session::into_epochs`](crate::session::Session::into_epochs).
    #[must_use]
    pub fn epoch_cycles(mut self, width: Cycle) -> Self {
        self.config.epoch_cycles = Some(width);
        self
    }

    /// The assembled configuration (for inspection before building).
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Consumes the builder, returning the assembled configuration (for
    /// sweep runners that open sessions themselves).
    #[must_use]
    pub fn into_config(self) -> SystemConfig {
        self.config
    }

    /// Opens a [`Session`](crate::session::Session) over the assembled
    /// configuration (see [`crate::session`]).
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] when the assembled
    /// configuration is inconsistent.
    pub fn open(self) -> Result<crate::session::Session, WomPcmError> {
        crate::session::Session::open(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_configuration() {
        let b = SystemBuilder::new(Architecture::Baseline);
        assert_eq!(b.config().mem.geometry.ranks, 16);
        assert_eq!(b.config().mem.geometry.banks_per_rank, 32);
        assert_eq!(b.config().rewrite_limit, 2);
        assert!((b.config().expansion - 1.5).abs() < 1e-12);
    }

    #[test]
    fn setters_compose() {
        let b = SystemBuilder::tiny(Architecture::Wcpcm)
            .ranks(4)
            .banks_per_rank(8)
            .rows_per_bank(128)
            .rewrite_limit(3)
            .expansion(2.0)
            .organization(Organization::HiddenPage)
            .refresh_threshold_pct(25)
            .refresh_table_depth(7)
            .wear_leveling(100);
        let c = b.config();
        assert_eq!(c.mem.geometry.ranks, 4);
        assert_eq!(c.mem.geometry.banks_per_rank, 8);
        assert_eq!(c.mem.geometry.rows_per_bank, 128);
        assert_eq!(c.rewrite_limit, 3);
        assert_eq!(c.organization, Organization::HiddenPage);
        assert_eq!(c.refresh.threshold_pct, 25);
        assert_eq!(c.refresh.table_depth, 7);
        assert_eq!(c.wear_leveling, Some(100));
        b.open().unwrap();
    }

    #[test]
    fn every_config_field_is_reachable() {
        let b = SystemBuilder::tiny(Architecture::WomCode)
            .budget_granularity(BudgetGranularity::Row)
            .cold_policy(ColdPolicy::Erased)
            .verify_data(true)
            .organization(Organization::HiddenPage)
            .charge_hidden_page_traffic(true)
            .write_pausing(false)
            .scheduler(SchedulerPolicy::StrictFcfs)
            .epoch_cycles(25_000);
        let c = b.config();
        assert_eq!(c.budget_granularity, BudgetGranularity::Row);
        assert_eq!(c.cold_policy, ColdPolicy::Erased);
        assert!(c.verify_data);
        assert!(c.charge_hidden_page_traffic);
        assert!(!c.mem.write_pausing);
        assert_eq!(c.mem.scheduler, SchedulerPolicy::StrictFcfs);
        assert_eq!(c.epoch_cycles, Some(25_000));
        let cfg = b.into_config();
        cfg.validate().unwrap();
    }

    #[test]
    fn invalid_geometry_is_rejected_at_open() {
        assert!(SystemBuilder::tiny(Architecture::Baseline)
            .banks_per_rank(3)
            .open()
            .is_err());
        assert!(SystemBuilder::tiny(Architecture::WomCode)
            .rewrite_limit(0)
            .open()
            .is_err());
        assert!(SystemBuilder::tiny(Architecture::WomCode)
            .expansion(0.5)
            .open()
            .is_err());
    }
}
