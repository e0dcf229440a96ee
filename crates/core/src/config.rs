//! System-wide configuration shared by the engine, the architecture
//! policies, and the public facade.

use crate::arch::{Architecture, Organization};
use crate::error::WomPcmError;
use crate::refresh::RefreshConfig;
use crate::wom_state::{BudgetGranularity, ColdPolicy};
use pcm_sim::{Cycle, MemConfig};

/// Full configuration of a simulated system (see [`crate::session::Session`]).
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Which of the paper's architectures to run.
    pub(crate) arch: Architecture,
    /// How WOM-coded arrays provision their extra bits (bookkeeping; both
    /// organizations time identically, see `DESIGN.md`).
    pub(crate) organization: Organization,
    /// Main-memory simulator configuration.
    pub(crate) mem: MemConfig,
    /// The WOM code's rewrite limit `t` (2 for the ⟨2²⟩²/3 code).
    pub(crate) rewrite_limit: u32,
    /// The WOM code's expansion ratio (1.5 for the ⟨2²⟩²/3 code).
    pub(crate) expansion: f64,
    /// PCM-refresh engine parameters (used by `WomCodeRefresh` and
    /// `Wcpcm`).
    pub(crate) refresh: RefreshConfig,
    /// Granularity of WOM rewrite-budget tracking. The wide-column
    /// organization encodes "in the unit of a column", so
    /// [`BudgetGranularity::Column`] is the default;
    /// [`BudgetGranularity::Row`] is the conservative single-counter-per-
    /// page ablation (see `DESIGN.md` §8).
    pub(crate) budget_granularity: BudgetGranularity,
    /// What state untouched main-memory cells are assumed to hold. The
    /// default, [`ColdPolicy::SteadyState`], is the boundary condition of
    /// a long-running WOM-coded system and matches the paper's
    /// mid-execution trace captures. The WOM-cache of WCPCM always starts
    /// erased — it is small and managed by the controller.
    pub(crate) cold_policy: ColdPolicy,
    /// Optional Start-Gap wear leveling on main memory (an endurance
    /// extension beyond the paper; see `DESIGN.md` §8): `Some(interval)`
    /// moves each bank's gap every `interval` demand writes to that bank,
    /// at the cost of one internal row copy per move and one reserved row
    /// per bank.
    pub(crate) wear_leveling: Option<u64>,
    /// Charge the hidden-page organization's companion accesses: when the
    /// organization is [`Organization::HiddenPage`], every WOM-coded main-
    /// memory write also writes the recruited hidden row (and reads read
    /// it), occupying the bank twice. The paper treats both organizations
    /// as timing-identical (the row buffer presents the whole encoded
    /// row); this flag quantifies that assumption as an ablation. Default
    /// off.
    pub(crate) charge_hidden_page_traffic: bool,
    /// Functional data verification: carry real WOM-encoded cell contents
    /// alongside the timing simulation and assert that every read decodes
    /// to the last written data. Costs memory proportional to the write
    /// footprint; supported for the non-cached architectures (the WCPCM
    /// protocol is model-checked separately) and incompatible with wear
    /// leveling (relocated rows would invalidate the reference keys).
    pub(crate) verify_data: bool,
    /// Epoch width in cycles for the built-in observability recorder:
    /// `Some(n)` attaches an [`EpochRecorder`](crate::observe::EpochRecorder)
    /// folding instrumentation events into fixed-width per-epoch
    /// time-series (see [`crate::observe`]); `None` (the default) keeps
    /// observation off with zero hot-path cost.
    pub(crate) epoch_cycles: Option<Cycle>,
}

impl SystemConfig {
    /// The paper's configuration for a given architecture: 16 GiB PCM,
    /// ⟨2²⟩²/3 code, 5-entry refresh tables.
    #[must_use]
    pub fn paper(arch: Architecture) -> Self {
        Self {
            arch,
            organization: Organization::WideColumn,
            mem: MemConfig::paper_baseline(),
            rewrite_limit: 2,
            expansion: 1.5,
            refresh: RefreshConfig::paper(),
            budget_granularity: BudgetGranularity::Column,
            cold_policy: ColdPolicy::SteadyState,
            wear_leveling: None,
            charge_hidden_page_traffic: false,
            verify_data: false,
            epoch_cycles: None,
        }
    }

    /// A small configuration for fast tests.
    #[must_use]
    pub fn tiny(arch: Architecture) -> Self {
        Self {
            mem: MemConfig::tiny(),
            ..Self::paper(arch)
        }
    }

    /// Which of the paper's architectures to run.
    #[must_use]
    pub fn arch(&self) -> Architecture {
        self.arch
    }

    /// How WOM-coded arrays provision their extra bits.
    #[must_use]
    pub fn organization(&self) -> Organization {
        self.organization
    }

    /// Main-memory simulator configuration.
    #[must_use]
    pub fn mem(&self) -> &MemConfig {
        &self.mem
    }

    /// The WOM code's rewrite limit `t`.
    #[must_use]
    pub fn rewrite_limit(&self) -> u32 {
        self.rewrite_limit
    }

    /// The WOM code's expansion ratio.
    #[must_use]
    pub fn expansion(&self) -> f64 {
        self.expansion
    }

    /// PCM-refresh engine parameters.
    #[must_use]
    pub fn refresh(&self) -> &RefreshConfig {
        &self.refresh
    }

    /// Granularity of WOM rewrite-budget tracking.
    #[must_use]
    pub fn budget_granularity(&self) -> BudgetGranularity {
        self.budget_granularity
    }

    /// What state untouched main-memory cells are assumed to hold.
    #[must_use]
    pub fn cold_policy(&self) -> ColdPolicy {
        self.cold_policy
    }

    /// Start-Gap wear-leveling gap-move interval, when enabled.
    #[must_use]
    pub fn wear_leveling(&self) -> Option<u64> {
        self.wear_leveling
    }

    /// Whether the hidden-page organization's companion accesses are
    /// charged.
    #[must_use]
    pub fn charge_hidden_page_traffic(&self) -> bool {
        self.charge_hidden_page_traffic
    }

    /// Whether functional data verification is enabled.
    #[must_use]
    pub fn verify_data(&self) -> bool {
        self.verify_data
    }

    /// Epoch width in cycles for the built-in observability recorder,
    /// when observation is enabled.
    #[must_use]
    pub fn epoch_cycles(&self) -> Option<Cycle> {
        self.epoch_cycles
    }

    /// Enables (`Some(width)`) or disables (`None`) epoch observation.
    /// The one run-level toggle that is legitimately flipped on an
    /// otherwise-fixed configuration (sweep runners attach observation
    /// per shard); everything else is set through
    /// [`SystemBuilder`](crate::SystemBuilder).
    pub fn set_epoch_cycles(&mut self, width: Option<Cycle>) {
        self.epoch_cycles = width;
    }

    /// Validates all parameters.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] (or a wrapped simulator
    /// error) on the first inconsistency.
    pub fn validate(&self) -> Result<(), WomPcmError> {
        self.mem.validate()?;
        self.refresh.validate()?;
        if self.rewrite_limit == 0 {
            return Err(WomPcmError::InvalidConfig(
                "rewrite_limit must be at least 1".into(),
            ));
        }
        if self.expansion.is_nan() || self.expansion < 1.0 {
            return Err(WomPcmError::InvalidConfig(format!(
                "expansion must be at least 1, got {}",
                self.expansion
            )));
        }
        if self.wear_leveling == Some(0) {
            return Err(WomPcmError::InvalidConfig(
                "wear-leveling gap-move interval must be positive".into(),
            ));
        }
        if self.wear_leveling.is_some() && self.mem.geometry.rows_per_bank < 2 {
            return Err(WomPcmError::InvalidConfig(
                "wear leveling needs at least 2 rows per bank".into(),
            ));
        }
        if self.epoch_cycles == Some(0) {
            return Err(WomPcmError::InvalidConfig(
                "epoch_cycles must be positive when set".into(),
            ));
        }
        if self.charge_hidden_page_traffic && self.organization != Organization::HiddenPage {
            return Err(WomPcmError::InvalidConfig(
                "charge_hidden_page_traffic requires the hidden-page organization".into(),
            ));
        }
        if self.verify_data && self.wear_leveling.is_some() {
            // The functional checker shadows lines by logical address;
            // Start-Gap remapping would fork the keyspace mid-run.
            return Err(WomPcmError::InvalidConfig(
                "data verification is incompatible with wear leveling".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_and_tiny_configs_validate() {
        for arch in Architecture::all_paper() {
            SystemConfig::paper(arch).validate().unwrap();
            SystemConfig::tiny(arch).validate().unwrap();
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = SystemConfig::tiny(Architecture::WomCode);
        cfg.rewrite_limit = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::tiny(Architecture::WomCode);
        cfg.expansion = 0.5;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::tiny(Architecture::WomCode);
        cfg.refresh.threshold_pct = 101;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::tiny(Architecture::Wcpcm);
        cfg.verify_data = true;
        cfg.validate().unwrap(); // verification covers WCPCM too

        let mut cfg = SystemConfig::tiny(Architecture::Wcpcm);
        cfg.verify_data = true;
        cfg.wear_leveling = Some(64);
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::tiny(Architecture::WomCode);
        cfg.wear_leveling = Some(0);
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::tiny(Architecture::WomCode);
        cfg.epoch_cycles = Some(0);
        assert!(cfg.validate().is_err());
        cfg.epoch_cycles = Some(10_000);
        cfg.validate().unwrap();
    }
}
