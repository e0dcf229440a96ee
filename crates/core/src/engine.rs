//! The architecture-agnostic simulation engine.
//!
//! [`Engine`] owns everything every architecture needs — the simulated
//! clock, trace ingestion and ordering checks, the main-memory and
//! WOM-cache [`MemorySystem`]s, back-pressure stalling, write-coalescing
//! windows, victim-writeback and wear-leveling plumbing, the functional
//! data checker, and [`RunMetrics`], the fold of the events it emits.
//! Everything architecture-*specific* — WOM budget tables, the
//! PCM-refresh engine, the WOM-cache policy — lives in the closed
//! [`Policy`] enum and reaches the shared machinery through
//! [`EngineCore`].
//!
//! The engine never matches on
//! [`Architecture`](crate::arch::Architecture): a record costs one
//! `match` on the policy variant per hook, and the main and WOM-cache
//! arrays share one enqueue, completion and refresh path keyed by
//! [`ArraySide`].

use crate::config::SystemConfig;
use crate::error::WomPcmError;
use crate::functional::FunctionalMemory;
use crate::metrics::RunMetrics;
use crate::observe::{EpochRecorder, EpochSeries, Event, ObserverSink, WriteClass};
use crate::policy::{ArraySide, Policy, ReadAction, WriteAction};
use crate::rowmap::RowMap;
use crate::wcpcm::CacheStats;
use crate::wear_leveling::StartGap;
use pcm_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use pcm_sim::{
    AddressDecoder, Completion, Cycle, DecodedAddr, MemOp, MemorySystem, ServiceClass, SimError,
    TransactionId,
};
use pcm_trace::{TraceOp, TraceRecord};
use std::collections::VecDeque;
use wom_code::{Inverted, Rs23Code};

/// Cycles the system stalls before retrying when a controller queue is
/// full (models CPU-side back-pressure).
const STALL_QUANTUM: Cycle = 32;

/// Line size of the functional data checker.
const CHECK_LINE_BYTES: usize = 64;

/// [`DataCheck::payload`]'s line multiplier (the 64-bit golden ratio).
const PAYLOAD_LINE_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// [`DataCheck::payload`]'s mixing multiplier.
const PAYLOAD_MIX_MUL: u64 = 0xBF58_476D_1CE4_E5B9;

/// Functional shadow of main memory: real WOM-encoded cells per 64-byte
/// line, plus a reference for the last data written to each line.
///
/// The reference is that write's sequence number, 8 bytes per line in
/// memory and in a checkpoint: the data is
/// [`payload`](Self::payload)`(line, seq)`, rebuilt whenever a read check
/// or a refresh rewrite needs it.
#[derive(Debug)]
struct DataCheck {
    mem: FunctionalMemory<Inverted<Rs23Code>>,
    /// Sequence number of the last write per line, in the page-grained
    /// store (line ids are dense and clustered).
    expected: RowMap<u64>,
    /// Writes so far: the sequence number of the latest one.
    seq: u64,
    reads_verified: u64,
    /// Reused decode target so verified reads don't allocate.
    line_buf: [u8; CHECK_LINE_BYTES],
}

impl DataCheck {
    fn new() -> Self {
        Self {
            mem: FunctionalMemory::new(Inverted::new(Rs23Code::new()), CHECK_LINE_BYTES)
                .expect("64-byte lines tile the RS code"),
            expected: RowMap::new(),
            seq: 0,
            reads_verified: 0,
            line_buf: [0u8; CHECK_LINE_BYTES],
        }
    }

    fn line_of(addr: u64) -> u64 {
        addr / CHECK_LINE_BYTES as u64
    }

    /// Deterministic per-write payload: unique per (line, sequence).
    fn payload(line: u64, seq: u64) -> [u8; CHECK_LINE_BYTES] {
        let mut data = [0u8; CHECK_LINE_BYTES];
        let mut z = line.wrapping_mul(PAYLOAD_LINE_MUL).wrapping_add(seq);
        for chunk in data.chunks_mut(8) {
            z = (z ^ (z >> 30)).wrapping_mul(PAYLOAD_MIX_MUL);
            chunk.copy_from_slice(&z.to_le_bytes()[..chunk.len()]);
        }
        data
    }

    /// Writes fresh data through the real codec.
    fn on_write(&mut self, addr: u64) -> Result<(), WomPcmError> {
        let line = Self::line_of(addr);
        self.seq += 1;
        self.mem.write(line, &Self::payload(line, self.seq))?;
        self.expected.insert(line, self.seq);
        Ok(())
    }

    /// Refreshes one line (§3.2): its data is read out (from the
    /// reference) and rewritten as the first write of freshly erased
    /// cells. Never-written lines have no data to preserve and are
    /// skipped. So are lines written once since their last erase: their
    /// cells already hold the first-write encode of the reference, which
    /// is exactly what the rewrite would leave.
    fn refresh_line(&mut self, line: u64) -> Result<(), WomPcmError> {
        if let Some(&seq) = self.expected.get(line) {
            if self.mem.writes_done(line) != 1 {
                self.mem.rewrite(line, &Self::payload(line, seq))?;
            }
        }
        Ok(())
    }

    /// Decodes the cells and checks them against the reference.
    fn on_read(&mut self, addr: u64) -> Result<(), WomPcmError> {
        let line = Self::line_of(addr);
        if let Some(&seq) = self.expected.get(line) {
            if !self.mem.read_into(line, &mut self.line_buf) {
                return Err(WomPcmError::Internal("written line vanished".into()));
            }
            if self.line_buf != Self::payload(line, seq) {
                // womlint::allow(hotpath/transitive, reason = "corruption error path: allocates once, then the run aborts")
                return Err(WomPcmError::Internal(format!(
                    "data corruption at line {line:#x}: cells decode differently from the last write"
                )));
            }
            self.reads_verified += 1;
        }
        Ok(())
    }

    /// Serializes the cells, then each line's reference sequence number
    /// in ascending line order, then the write and read counters.
    fn save_state(&self, w: &mut SnapWriter) {
        self.mem.save_state(w);
        w.put(&self.expected);
        w.put(&self.seq);
        w.put(&self.reads_verified);
    }

    /// Restores state written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Propagates payload truncation; [`SnapError::Corrupt`] when a
    /// reference is no write's: sequence number 0 (writes count from 1)
    /// or one newer than the saved write counter.
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.mem.load_state(r)?;
        self.expected = r.take()?;
        self.seq = r.take()?;
        let written = 1..=self.seq;
        if !self.expected.values().all(|seq| written.contains(seq)) {
            return Err(SnapError::Corrupt(
                "data-check reference is no write's sequence number",
            ));
        }
        self.reads_verified = r.take()?;
        Ok(())
    }
}

/// The architecture-agnostic engine state, shared with policies.
///
/// Policy hooks receive `&mut EngineCore` and reach the clock, the memory
/// arrays, the coalescing windows, the victim-writeback queue, and the
/// metrics through the methods below. Policies never enqueue demand
/// traffic themselves — they return
/// [`ReadAction`] /
/// [`WriteAction`] values and the engine
/// performs the (possibly stalling) enqueues.
///
/// It holds only live run state: what is in flight is the memory
/// systems' to track, and a coalescing window is dropped once it closes.
#[derive(Debug)]
pub(crate) struct EngineCore {
    config: SystemConfig,
    main: MemorySystem,
    cache_mem: Option<MemorySystem>,
    /// The next staggered refresh tick: the first point
    /// `period + k·stagger` after the clock (see [`Engine::advance`]).
    next_refresh_at: Cycle,
    /// Ids of internal main-memory traffic still in flight (wear-leveling
    /// row copies and hidden-page companions), whose completions are not
    /// demand. Ascending: main memory hands ids out in increasing order,
    /// so each new one is pushed at the end.
    internal_ids: Vec<TransactionId>,
    /// Per-flat-main-bank Start-Gap remappers, when wear leveling is on.
    start_gaps: Option<Vec<StartGap>>,
    /// Functional data checker, when `verify_data` is on.
    /// Boxed so the (large, rarely enabled) checker does not bloat
    /// `EngineCore` for the common verify-free runs.
    data_check: Option<Box<DataCheck>>,
    pending_victims: VecDeque<u64>,
    /// Open write-coalescing windows, ascending by row key: rows with an
    /// array write still pending, each with the cycle its window closes.
    /// A system's windows are all on one side (the WOM-cache arrays under
    /// WCPCM, main memory otherwise), and time advancing drops the closed
    /// ones, so this holds a handful of entries.
    merge_windows: Vec<(u64, Cycle)>,
    metrics: RunMetrics,
    /// Instrumentation sink (see [`crate::observe`]); `Off` by default,
    /// so the demand hot path pays one predicted branch per event.
    observer: ObserverSink,
    last_record_cycle: Cycle,
    /// Completions of the current advance, moved out of the memory
    /// systems so their handlers can borrow the engine; reused so
    /// advancing allocates nothing.
    completions: Vec<Completion>,
}

impl EngineCore {
    fn new(config: SystemConfig) -> Result<Self, WomPcmError> {
        let main = MemorySystem::new(config.mem.clone())?;
        let g = config.mem.geometry;

        let cache_mem = if config.arch.uses_cache() {
            let mut cache_cfg = config.mem.clone();
            cache_cfg.geometry.banks_per_rank = 1; // one WOM-cache array per rank
            Some(MemorySystem::new(cache_cfg)?)
        } else {
            None
        };
        let start_gaps = match config.wear_leveling {
            Some(interval) => {
                let logical_rows = u64::from(g.rows_per_bank) - 1;
                let sg = StartGap::new(logical_rows, interval)?;
                Some(vec![sg; g.total_banks() as usize])
            }
            None => None,
        };
        let period = config.mem.timing.refresh_period_cycles();
        Ok(Self {
            main,
            cache_mem,
            next_refresh_at: period,
            internal_ids: Vec::new(),
            start_gaps,
            data_check: config.verify_data.then(|| Box::new(DataCheck::new())),
            pending_victims: VecDeque::new(),
            merge_windows: Vec::new(),
            metrics: RunMetrics {
                clock_ns: config.mem.timing.clock_ns,
                cache: config.arch.uses_cache().then(CacheStats::default),
                ..RunMetrics::default()
            },
            observer: match config.epoch_cycles {
                Some(width) => ObserverSink::Epochs(EpochRecorder::new(width)),
                None => ObserverSink::Off,
            },
            last_record_cycle: 0,
            completions: Vec::new(),
            config,
        })
    }

    /// The system's configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Current simulated time in cycles.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.main.now()
    }

    /// The main-memory address decoder.
    #[must_use]
    pub fn decoder(&self) -> AddressDecoder {
        *self.main.decoder()
    }

    /// Results accumulated so far.
    #[must_use]
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Reports one event: folds it into [`RunMetrics`], the only way a
    /// run count changes, then hands it to the attached observer, so the
    /// run totals and any epoch series are folds of the same stream. The
    /// observer costs a single predicted branch and no work when
    /// observation is off; events are `Copy`, so emitting never
    /// allocates.
    #[inline]
    pub fn emit(&mut self, event: Event) {
        self.metrics.record(&event);
        self.observer.on_event(&event);
    }

    /// The memory arrays of `side`.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::Internal`] for the cache side of an
    /// architecture without a WOM-cache.
    pub fn side_arrays(&mut self, side: ArraySide) -> Result<&mut MemorySystem, WomPcmError> {
        match side {
            ArraySide::Main => Ok(&mut self.main),
            ArraySide::Cache => self
                .cache_mem
                .as_mut()
                .ok_or_else(|| WomPcmError::Internal("architecture has no cache array".into())),
        }
    }

    /// Whether every array is idle and no victim writeback waits for
    /// queue room: the end of a drain.
    fn is_drained(&self) -> bool {
        self.pending_victims.is_empty()
            && self.main.is_idle()
            && self.cache_mem.as_ref().is_none_or(MemorySystem::is_idle)
    }

    /// Enqueues a burst-mode rank refresh on the `side` arrays (does not
    /// stall: refresh is planned only for idle ranks).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors for out-of-range rows.
    pub fn enqueue_refresh_burst(
        &mut self,
        side: ArraySide,
        rank: u32,
        rows: &[(u32, u32)],
    ) -> Result<(), WomPcmError> {
        self.side_arrays(side)?.enqueue_rank_refresh(rank, rows)?;
        self.emit(Event::RefreshBurst {
            cycle: self.now(),
            side,
            rank,
            rows: rows.len() as u32,
        });
        Ok(())
    }

    /// Remaps a main-memory address through the bank's Start-Gap layer
    /// (identity when wear leveling is off).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors for malformed addresses.
    pub fn remap_main(&self, addr: u64) -> Result<u64, WomPcmError> {
        let Some(sgs) = &self.start_gaps else {
            return Ok(addr);
        };
        let g = self.config.mem.geometry;
        let d = self.main.decoder().decode(addr);
        // One row per bank is the gap spare: logical rows = rows - 1.
        let logical = u64::from(d.row) % (u64::from(g.rows_per_bank) - 1);
        let physical = sgs[d.flat_bank(&g) as usize].physical_of(logical) as u32;
        Ok(self
            .main
            .decoder()
            .encode(DecodedAddr { row: physical, ..d })?)
    }

    /// Runs the functional data checker's write hook (no-op when
    /// verification is off).
    ///
    /// # Errors
    ///
    /// Propagates codec errors.
    pub fn check_write(&mut self, addr: u64) -> Result<(), WomPcmError> {
        if let Some(check) = &mut self.data_check {
            check.on_write(addr)?;
        }
        Ok(())
    }

    /// Runs the functional data checker's read hook (no-op when
    /// verification is off).
    ///
    /// # Errors
    ///
    /// Returns a data-corruption error when the cells decode differently
    /// from the last write.
    pub fn check_read(&mut self, addr: u64) -> Result<(), WomPcmError> {
        if let Some(check) = &mut self.data_check {
            check.on_read(addr)?;
        }
        Ok(())
    }

    /// Re-initializes every line of a refreshed main-memory row in the
    /// functional checker: one [`FunctionalMemory::rewrite`] per written
    /// line that is not already in its first-write pattern (no-op when
    /// verification is off).
    ///
    /// # Errors
    ///
    /// Returns an error when the functional refresh itself fails — that
    /// is a simulator bug, not a configuration error.
    pub fn check_refresh_row(&mut self, rank: u32, bank: u32, row: u32) -> Result<(), WomPcmError> {
        let g = self.config.mem.geometry;
        let decoder = *self.main.decoder();
        if let Some(check) = &mut self.data_check {
            for column in 0..g.columns_per_row() {
                let d = DecodedAddr {
                    rank,
                    bank,
                    row,
                    column,
                };
                let addr = decoder.encode(d)?;
                check.refresh_line(DataCheck::line_of(addr))?;
            }
        }
        Ok(())
    }

    /// Queues a victim writeback to main memory (issued as soon as the
    /// write queue has room; never stalls the caller).
    pub fn push_victim(&mut self, physical_addr: u64) {
        self.pending_victims.push_back(physical_addr);
        self.flush_victims();
    }

    /// Absorbs a write into an already-pending array write of the same
    /// row, if its coalescing window is open. Coalesced writes cost one
    /// data burst (the row buffer merges them) and consume no WOM budget
    /// — the row is written back to the array once.
    pub fn try_coalesce(&mut self, row_key: u64) -> bool {
        // Every window left after the last advance is open.
        if self.window_of(row_key).is_err() {
            return false;
        }
        self.emit(Event::WriteCompleted {
            cycle: self.now(),
            latency: self.config.mem.timing.burst_cycles(),
            class: WriteClass::Coalesced,
        });
        true
    }

    /// Where the window of `row_key` is, or would be inserted.
    fn window_of(&self, row_key: u64) -> Result<usize, usize> {
        self.merge_windows
            .binary_search_by_key(&row_key, |&(key, _)| key)
    }

    /// Opens (or extends) the coalescing window of a row after issuing an
    /// array write for it.
    fn open_merge_window(&mut self, row_key: u64, class: ServiceClass) {
        let t = &self.config.mem.timing;
        let service = match class {
            ServiceClass::ResetOnlyWrite => t.reset_cycles(),
            _ => t.write_cycles(),
        };
        let until = self.now() + service;
        match self.window_of(row_key) {
            Ok(at) => {
                if let Some(window) = self.merge_windows.get_mut(at) {
                    window.1 = until;
                }
            }
            Err(at) => self.merge_windows.insert(at, (row_key, until)),
        }
    }

    /// Retries queued victim writebacks while the main write queue has
    /// room.
    fn flush_victims(&mut self) {
        while let Some(&addr) = self.pending_victims.front() {
            if self
                .main
                .enqueue(MemOp::Write, addr, ServiceClass::Write)
                .is_err()
            {
                break; // the write queue is full
            }
            self.pending_victims.pop_front();
        }
    }

    /// Serializes the complete mid-run engine state (everything that
    /// varies between two `submit` calls). Parts the configuration builds
    /// (the WOM-cache arrays, the Start-Gap remappers, the data checker
    /// and the epoch recorder) are written only when it builds them, with
    /// no presence flag. The next refresh tick is not written: restore
    /// derives it from the clock. Collections iterate in their
    /// deterministic (key) order, so the same state always produces the
    /// same bytes.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        self.main.save_state(w);
        if let Some(cache) = &self.cache_mem {
            cache.save_state(w);
        }
        w.put(&self.internal_ids);
        for sg in self.start_gaps.iter().flatten() {
            sg.save_state(w);
        }
        if let Some(check) = &self.data_check {
            check.save_state(w);
        }
        w.put(&self.pending_victims);
        w.put(&self.merge_windows);
        self.metrics.save_state(w);
        self.observer.save_state(w);
        w.put(&self.last_record_cycle);
    }

    /// Restores state written by [`save_state`](Self::save_state) into
    /// this core, which must have been freshly built from the same
    /// configuration (the snapshot container's fingerprint enforces
    /// this before any payload byte is decoded).
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::Snapshot`] for truncated or corrupt
    /// payloads, including a clock with no refresh tick after it.
    pub(crate) fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), WomPcmError> {
        self.main.restore_state(r)?;
        if let Some(cache) = &mut self.cache_mem {
            cache.restore_state(r)?;
        }
        if self.config.arch.uses_refresh() {
            self.next_refresh_at = self
                .refresh_tick_after(self.now())
                .ok_or(SnapError::Corrupt("no refresh tick after the clock"))?;
        }
        self.internal_ids = r.take_sorted(TransactionId::MIN_BYTES, |id| id, SnapReader::take)?;
        for sg in self.start_gaps.iter_mut().flatten() {
            sg.load_state(r)?;
        }
        if let Some(check) = &mut self.data_check {
            check.load_state(r)?;
        }
        self.pending_victims = r.take()?;
        self.merge_windows =
            r.take_sorted(<(u64, Cycle)>::MIN_BYTES, |(key, _)| key, SnapReader::take)?;
        self.metrics.load_state(r)?;
        self.observer.load_state(r)?;
        self.last_record_cycle = r.take()?;
        Ok(())
    }

    /// The refresh schedule: the per-rank period, and the stagger
    /// between ticks (one tick per rank per period).
    fn refresh_schedule(&self) -> (Cycle, Cycle) {
        let period = self.config.mem.timing.refresh_period_cycles();
        let stagger = (period / Cycle::from(self.config.mem.geometry.ranks)).max(1);
        (period, stagger)
    }

    /// The first staggered refresh tick after `cycle`: the least
    /// `period + k·stagger` (`k ≥ 0`) past it. `None` when that tick
    /// overflows a [`Cycle`].
    fn refresh_tick_after(&self, cycle: Cycle) -> Option<Cycle> {
        let (period, stagger) = self.refresh_schedule();
        match cycle.checked_sub(period) {
            None => Some(period),
            Some(past) => (past / stagger + 1)
                .checked_mul(stagger)
                .and_then(|k| k.checked_add(period)),
        }
    }

    fn record_demand(&mut self, c: &Completion) {
        let latency = c.latency();
        self.emit(match c.op {
            MemOp::Read => Event::ReadCompleted {
                cycle: c.finish,
                latency,
            },
            MemOp::Write => Event::WriteCompleted {
                cycle: c.finish,
                latency,
                class: if c.class == ServiceClass::ResetOnlyWrite {
                    WriteClass::Fast
                } else {
                    WriteClass::Slow
                },
            },
        });
    }
}

/// A trace-driven simulation engine running one [`Policy`]; a
/// [`Session`](crate::session::Session) drives it.
#[derive(Debug)]
pub(crate) struct Engine {
    core: EngineCore,
    policy: Policy,
}

impl Engine {
    /// Builds an engine with the policy matching `config.arch`.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] for inconsistent parameters.
    pub fn new(config: SystemConfig) -> Result<Self, WomPcmError> {
        config.validate()?;
        let policy = Policy::new(&config)?;
        Ok(Self {
            core: EngineCore::new(config)?,
            policy,
        })
    }

    /// The system's configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        self.core.config()
    }

    /// Current simulated time in cycles.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.core.now()
    }

    /// Results accumulated so far (finalized copies come from
    /// [`finish`](Self::finish)).
    #[must_use]
    pub fn metrics(&self) -> &RunMetrics {
        self.core.metrics()
    }

    /// The epoch series recorded so far, when epoch observation is
    /// enabled (`SystemConfig::epoch_cycles`).
    #[must_use]
    pub fn epochs(&self) -> Option<&EpochSeries> {
        self.core.observer.epochs()
    }

    /// Detaches and returns the recorded epoch series; observation is
    /// off afterwards. `None` when epoch observation was not enabled.
    pub fn take_epochs(&mut self) -> Option<EpochSeries> {
        self.core.observer.take_epochs()
    }

    /// Appends the engine's complete mid-run state — memory systems,
    /// in-flight bookkeeping, metrics, epoch series, and the policy's
    /// architecture state — to a snapshot payload. Call between
    /// [`submit`](Self::submit)s; [`Session::checkpoint`] writes it
    /// straight into a `WOMSNAP` container.
    ///
    /// [`Session::checkpoint`]: crate::session::Session::checkpoint
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.core.save_state(w);
        self.policy.save_state(w);
    }

    /// Restores state written by [`save_state`](Self::save_state) into
    /// this engine, which must have been freshly built from the same
    /// configuration. After a successful restore the engine is
    /// byte-for-byte in the saved run's mid-flight state: submitting the
    /// remaining trace records produces metrics `{:#?}`-identical to the
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::Snapshot`] for truncated or corrupt
    /// payloads (including payloads whose structure disagrees with this
    /// engine's configuration).
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), WomPcmError> {
        self.core.restore_state(r)?;
        self.policy.load_state(r)
    }

    /// Feeds one trace record to the engine, advancing simulated time to
    /// its arrival cycle first.
    ///
    /// # Errors
    ///
    /// * [`WomPcmError::TraceOrder`] when record cycles decrease.
    /// * Simulator errors for malformed addresses.
    /// * [`WomPcmError::InvalidConfig`] once the run outgrows its epoch
    ///   series ([`EpochSeries::MAX_EPOCHS`]).
    pub fn submit(&mut self, record: TraceRecord) -> Result<(), WomPcmError> {
        if record.cycle < self.core.last_record_cycle {
            return Err(WomPcmError::TraceOrder {
                now: self.core.last_record_cycle,
                record: record.cycle,
            });
        }
        self.core.last_record_cycle = record.cycle;
        let target = record.cycle.max(self.now());
        self.advance(target)?;
        match record.op {
            TraceOp::Read => self.submit_read(record.addr),
            TraceOp::Write => self.submit_write(record.addr),
        }?;
        self.core.observer.check_ceiling()
    }

    /// Completes all outstanding work and returns the final metrics.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (none are expected during a drain),
    /// returns [`WomPcmError::Internal`] if outstanding work never drains,
    /// and [`WomPcmError::InvalidConfig`] when the run outgrows its epoch
    /// series.
    pub fn finish(&mut self) -> Result<RunMetrics, WomPcmError> {
        let mut guard = 0u64;
        while !self.core.is_drained() {
            let next = self.now() + 1_000;
            self.advance_all_to(next)?;
            guard += 1;
            if guard >= 10_000_000 {
                return Err(WomPcmError::Internal(
                    "drain failed to make progress".into(),
                ));
            }
        }
        let now = self.now();
        self.core.observer.on_finish(now);
        self.core.observer.check_ceiling()?;
        // Copy in the totals counted elsewhere: energy and wear by the
        // memory systems, verified reads by the data checker.
        let core = &mut self.core;
        let result = &mut core.metrics;
        result.energy = core.main.stats().energy;
        result.wear_main = core.main.wear().summary();
        if let Some(check) = &core.data_check {
            result.data_reads_verified = check.reads_verified;
        }
        if let Some(cm) = &core.cache_mem {
            result.energy.merge(&cm.stats().energy);
            result.wear_cache = Some(cm.wear().summary());
        }
        Ok(result.clone())
    }

    // ------------------------------------------------------------------
    // Time advancement
    // ------------------------------------------------------------------

    /// Advances to `cycle`, running the policy's periodic tick on the way
    /// when the architecture refreshes.
    ///
    /// As in DRAMSim2, the refresh period is per rank and checks are
    /// staggered: with a 4000 ns period and 16 ranks, a check fires every
    /// 250 ns, each visiting the next rank in round-robin order, so every
    /// rank is considered once per period.
    ///
    /// When another tick is due before `cycle` but this one left the
    /// system drained, this tick enqueued nothing, and every later tick
    /// before `cycle` would find the same idle arrays and plan the same
    /// nothing, so the schedule jumps to the first tick after `cycle`: a
    /// far-future record costs one tick, not one per stagger.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] when `cycle` has no refresh
    /// tick after it within the range of a [`Cycle`].
    fn advance(&mut self, cycle: Cycle) -> Result<(), WomPcmError> {
        if self.core.config.arch.uses_refresh() {
            let (_, stagger) = self.core.refresh_schedule();
            while self.core.next_refresh_at <= cycle {
                let at = self.core.next_refresh_at;
                self.advance_all_to(at)?;
                self.policy.on_tick(&mut self.core)?;
                let mut next = at.checked_add(stagger);
                if next.is_some_and(|next| next <= cycle) && self.core.is_drained() {
                    next = self.core.refresh_tick_after(cycle);
                }
                self.core.next_refresh_at = next.ok_or_else(|| {
                    WomPcmError::InvalidConfig("the clock runs past the last refresh tick".into())
                })?;
            }
        }
        self.advance_all_to(cycle)
    }

    /// Advances both memory systems in lockstep, handling completions.
    fn advance_all_to(&mut self, cycle: Cycle) -> Result<(), WomPcmError> {
        let mut done = std::mem::take(&mut self.core.completions);
        for side in [ArraySide::Main, ArraySide::Cache] {
            if side == ArraySide::Cache && self.core.cache_mem.is_none() {
                break;
            }
            let arrays = self.core.side_arrays(side)?;
            if cycle > arrays.now() {
                done.extend(arrays.advance_to(cycle)?);
                for c in done.drain(..) {
                    self.handle_completion(side, &c)?;
                }
            }
        }
        self.core.completions = done;
        let now = self.core.now();
        self.core.merge_windows.retain(|&(_, until)| until > now);
        self.core.flush_victims();
        Ok(())
    }

    /// Settles one completion from the `side` arrays. Victim writebacks
    /// and internal traffic only ever go to main memory.
    fn handle_completion(&mut self, side: ArraySide, c: &Completion) -> Result<(), WomPcmError> {
        if c.class == ServiceClass::RankRefresh {
            return self.policy.on_completion(&mut self.core, side, c);
        }
        if side == ArraySide::Main {
            // With a WOM-cache every demand write goes to the cache, so a
            // write that completes on main memory is a victim writeback.
            if c.op == MemOp::Write && self.core.cache_mem.is_some() {
                self.core.emit(Event::VictimWriteback { cycle: c.finish });
                return Ok(());
            }
            if let Ok(at) = self.core.internal_ids.binary_search(&c.id) {
                self.core.internal_ids.remove(at);
                return Ok(()); // a row copy or a hidden-page companion
            }
        }
        self.core.record_demand(c);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Demand paths
    // ------------------------------------------------------------------

    fn submit_read(&mut self, addr: u64) -> Result<(), WomPcmError> {
        let cycle = self.core.main.now();
        self.core.emit(Event::ReadIssued { cycle, addr });
        match self.policy.on_read(&mut self.core, addr)? {
            ReadAction::Main { addr, companion } => {
                self.enqueue_stalling(ArraySide::Main, MemOp::Read, addr, ServiceClass::Read)?;
                if let Some(companion) = companion {
                    self.enqueue_internal(MemOp::Read, companion, ServiceClass::Read)?;
                }
                Ok(())
            }
            ReadAction::Cache { rank, row } => {
                let cache_addr = self.core.cache_addr(rank, row)?;
                self.enqueue_stalling(
                    ArraySide::Cache,
                    MemOp::Read,
                    cache_addr,
                    ServiceClass::Read,
                )?;
                Ok(())
            }
        }
    }

    fn submit_write(&mut self, addr: u64) -> Result<(), WomPcmError> {
        let cycle = self.core.main.now();
        self.core.emit(Event::WriteIssued { cycle, addr });
        match self.policy.on_write(&mut self.core, addr)? {
            WriteAction::Coalesced => Ok(()),
            WriteAction::Main {
                addr,
                class,
                row_key,
                companion,
            } => {
                self.enqueue_stalling(ArraySide::Main, MemOp::Write, addr, class)?;
                self.core.open_merge_window(row_key, class);
                self.account_leveling_write(addr)?;
                if let Some(companion) = companion {
                    self.enqueue_internal(MemOp::Write, companion, class)?;
                }
                Ok(())
            }
            WriteAction::Cache {
                rank,
                row,
                class,
                merge_key,
            } => {
                let cache_addr = self.core.cache_addr(rank, row)?;
                self.enqueue_stalling(ArraySide::Cache, MemOp::Write, cache_addr, class)?;
                self.core.open_merge_window(merge_key, class);
                Ok(())
            }
        }
    }

    /// Accounts a demand write for wear leveling; if the bank's gap moves,
    /// issues the internal row copy and lets the policy update its state
    /// for the freshly rewritten destination row.
    fn account_leveling_write(&mut self, physical_addr: u64) -> Result<(), WomPcmError> {
        let Some(sgs) = &mut self.core.start_gaps else {
            return Ok(());
        };
        let g = self.core.config.mem.geometry;
        let d = self.core.main.decoder().decode(physical_addr);
        let flat = d.flat_bank(&g) as usize;
        let Some((from_row, to_row)) = sgs[flat].record_write() else {
            return Ok(());
        };
        self.core.emit(Event::GapMove {
            cycle: self.core.main.now(),
            rank: d.rank,
            bank: d.bank,
        });
        let from_addr = self.core.main.decoder().encode(DecodedAddr {
            row: from_row as u32,
            column: 0,
            ..d
        })?;
        let to_addr = self.core.main.decoder().encode(DecodedAddr {
            row: to_row as u32,
            column: 0,
            ..d
        })?;
        // The copy is one row read plus one full row write.
        self.enqueue_internal(MemOp::Read, from_addr, ServiceClass::Read)?;
        self.enqueue_internal(MemOp::Write, to_addr, ServiceClass::Write)?;
        // The destination physical row was erased and rewritten once.
        let to_d = self.core.main.decoder().decode(to_addr);
        self.policy.on_wear_level_copy(&mut self.core, to_d);
        Ok(())
    }

    /// Enqueues on the `side` arrays, stalling (advancing time) on
    /// back-pressure.
    fn enqueue_stalling(
        &mut self,
        side: ArraySide,
        op: MemOp,
        addr: u64,
        class: ServiceClass,
    ) -> Result<TransactionId, WomPcmError> {
        loop {
            match self.core.side_arrays(side)?.enqueue(op, addr, class) {
                Ok(id) => return Ok(id),
                Err(SimError::QueueFull { .. }) => {
                    let next = self.now() + STALL_QUANTUM;
                    self.advance(next)?;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Enqueues internal (non-demand) main-memory traffic, stalling on
    /// back-pressure; its completion is not recorded as demand.
    fn enqueue_internal(
        &mut self,
        op: MemOp,
        addr: u64,
        class: ServiceClass,
    ) -> Result<(), WomPcmError> {
        let id = self.enqueue_stalling(ArraySide::Main, op, addr, class)?;
        self.core.internal_ids.push(id);
        Ok(())
    }
}

impl EngineCore {
    fn cache_addr(&mut self, rank: u32, row: u32) -> Result<u64, WomPcmError> {
        let cache = self.side_arrays(ArraySide::Cache)?;
        Ok(cache.decoder().encode(DecodedAddr {
            rank,
            bank: 0,
            row,
            column: 0,
        })?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotError;

    #[test]
    fn data_check_failures_are_internal_errors() {
        let mut check = DataCheck::new();
        check.on_write(0x40).expect("writes through the codec");
        check.on_read(0x40).expect("cells decode to the last write");

        let line = DataCheck::line_of(0x40);
        let seq = *check.expected.get(line).expect("line was written");
        check.expected.insert(line, seq + 1);
        let err = check
            .on_read(0x40)
            .expect_err("reference no longer matches");
        assert!(matches!(err, WomPcmError::Internal(_)), "{err:?}");
        assert_eq!(
            err.to_string(),
            "internal invariant violated: data corruption at line 0x1: \
             cells decode differently from the last write"
        );

        // A reference for a line whose cells were never written.
        check.expected.insert(7, 1);
        let err = check.on_read(7 * 64).expect_err("no cells to decode");
        assert!(matches!(err, WomPcmError::Internal(_)), "{err:?}");
        assert_eq!(
            err.to_string(),
            "internal invariant violated: written line vanished"
        );
    }

    fn cell_bytes(mem: &FunctionalMemory<Inverted<Rs23Code>>) -> Vec<u8> {
        let mut w = SnapWriter::new();
        mem.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn refresh_skips_exactly_the_lines_a_rewrite_would_leave_unchanged() {
        let mut check = DataCheck::new();
        check.on_write(0x40).expect("line 1 at generation 1");
        check.on_write(0x80).expect("line 2 at generation 1");
        check.on_write(0x80).expect("line 2 at generation 2");
        for _ in 0..3 {
            check
                .on_write(0xC0)
                .expect("line 3 at generation 1 after an alpha-write");
        }
        let untouched = cell_bytes(&check.mem);
        let mut forced = check.mem.clone();
        for line in [1, 2, 3] {
            let seq = *check.expected.get(line).expect("line was written");
            forced
                .rewrite(line, &DataCheck::payload(line, seq))
                .expect("rewrites");
        }

        for line in [1, 3] {
            check.refresh_line(line).expect("refreshes");
            assert_eq!(check.mem.writes_done(line), 1);
        }
        assert_eq!(
            cell_bytes(&check.mem),
            untouched,
            "a generation-1 line already holds its first-write cells"
        );
        assert_eq!(check.mem.writes_done(2), 2);
        check.refresh_line(2).expect("refreshes");
        assert_eq!(check.mem.writes_done(2), 1, "rewritten to generation 1");
        assert_eq!(
            cell_bytes(&check.mem),
            cell_bytes(&forced),
            "same cells and generations as rewriting both lines"
        );
        for addr in [0x40, 0x80, 0xC0] {
            check.on_read(addr).expect("the line verifies");
        }
        assert_eq!(check.reads_verified, 3);
    }

    /// A checker with three written lines, saved.
    fn saved_check() -> Vec<u8> {
        let mut check = DataCheck::new();
        for addr in [0x40, 0x80, 0x40, 0x1000] {
            check.on_write(addr).expect("writes through the codec");
        }
        let mut w = SnapWriter::new();
        check.save_state(&mut w);
        w.into_bytes()
    }

    fn restore(bytes: &[u8]) -> Result<DataCheck, WomPcmError> {
        let mut check = DataCheck::new();
        let mut r = SnapReader::new(bytes);
        check.load_state(&mut r)?;
        r.finish()?;
        Ok(check)
    }

    #[test]
    fn data_check_restore_validates_reference_sequence_numbers() {
        let bytes = saved_check();
        let restored = restore(&bytes).expect("restores");
        let references: Vec<(u64, u64)> = restored
            .expected
            .iter()
            .map(|(line, &seq)| (line, seq))
            .collect();
        assert_eq!(references, vec![(1, 3), (2, 2), (64, 4)]);
        assert_eq!(restored.seq, 4);

        // The payload ends with the references (a count, then each line
        // and its sequence number) and the write and read counters.
        let tail: Vec<u8> = [3u64, 1, 3, 2, 2, 64, 4, 4, 0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        assert!(bytes.ends_with(&tail), "8 bytes per reference");
        // Line 2's reference as write 0, which no write has, or as one
        // the saved counter has not reached.
        let at = bytes.len() - 5 * 8;
        for seq in [0u64, 5] {
            let mut tampered = bytes.clone();
            tampered[at..at + 8].copy_from_slice(&seq.to_le_bytes());
            let err = restore(&tampered).expect_err("reference out of range");
            assert!(
                matches!(err, WomPcmError::Snapshot(SnapshotError::Corrupt(_))),
                "seq {seq}: {err:?}"
            );
        }
    }
}
