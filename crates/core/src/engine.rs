//! The architecture-agnostic simulation engine.
//!
//! [`Engine`] owns everything every architecture needs — the simulated
//! clock, trace ingestion and ordering checks, the main-memory and
//! WOM-cache [`MemorySystem`]s, back-pressure stalling, write-coalescing
//! windows, victim-writeback and wear-leveling plumbing, the functional
//! data checker, and [`RunMetrics`] accumulation. Everything
//! architecture-*specific* — WOM budget tables, the PCM-refresh engine,
//! the WOM-cache policy — lives behind the
//! [`ArchPolicy`] trait and reaches the shared
//! machinery through [`EngineCore`].
//!
//! The split keeps the per-record hot path free of architecture
//! dispatch: the engine never matches on
//! [`Architecture`](crate::arch::Architecture); it only calls the policy
//! hooks it was built with.

use crate::config::SystemConfig;
use crate::error::WomPcmError;
use crate::functional::FunctionalMemory;
use crate::metrics::RunMetrics;
use crate::observe::{EpochRecorder, EpochSeries, Event, Observer, ObserverSink, WriteClass};
use crate::policy::{self, ArchPolicy, ArraySide, ReadAction, WriteAction};
use crate::rowmap::RowMap;
use crate::snapshot::SnapshotError;
use crate::wear_leveling::StartGap;
use pcm_sim::{
    AddressDecoder, Completion, Cycle, DecodedAddr, MemOp, MemorySystem, ServiceClass, SimError,
    SnapReader, SnapWriter, TransactionId,
};
use pcm_trace::{TraceOp, TraceRecord};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use wom_code::{Inverted, Rs23Code};

/// Cycles the system stalls before retrying when a controller queue is
/// full (models CPU-side back-pressure).
const STALL_QUANTUM: Cycle = 32;

/// Line size of the functional data checker.
const CHECK_LINE_BYTES: usize = 64;

/// Functional shadow of main memory: real WOM-encoded cells per 64-byte
/// line, plus the reference of the last data written to each line.
#[derive(Debug)]
struct DataCheck {
    mem: FunctionalMemory<Inverted<Rs23Code>>,
    /// Reference of the last data written per line, in the page-grained
    /// store (line ids are dense and clustered).
    expected: RowMap<[u8; CHECK_LINE_BYTES]>,
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
        let mut z = line.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seq);
        for chunk in data.chunks_mut(8) {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            chunk.copy_from_slice(&z.to_le_bytes()[..chunk.len()]);
        }
        data
    }

    /// Writes fresh data through the real codec.
    fn on_write(&mut self, addr: u64) -> Result<(), WomPcmError> {
        let line = Self::line_of(addr);
        self.seq += 1;
        let data = Self::payload(line, self.seq);
        self.mem.write(line, &data)?;
        self.expected.insert(line, data);
        Ok(())
    }

    /// Starts a batched §3.2 refresh: the burst's lines are staged with
    /// [`stage_refresh_line`](Self::stage_refresh_line) and rewritten in
    /// one batch encode by [`commit_refresh`](Self::commit_refresh).
    fn begin_refresh(&mut self) {
        self.mem.rewrite_begin();
    }

    /// Stages one refreshed line: its data is read out (from the
    /// reference) and queued for the erase-and-first-write rewrite.
    /// Never-written lines have no data to preserve and are skipped.
    fn stage_refresh_line(&mut self, line: u64) {
        let Self { mem, expected, .. } = self;
        if let Some(data) = expected.get(line) {
            mem.rewrite_stage(line, data);
        }
    }

    /// Commits the staged refresh burst through the batch codec path.
    fn commit_refresh(&mut self) -> Result<(), WomPcmError> {
        self.mem.rewrite_commit()
    }

    /// Decodes the cells and checks them against the reference.
    fn on_read(&mut self, addr: u64) -> Result<(), WomPcmError> {
        let line = Self::line_of(addr);
        if let Some(expected) = self.expected.get(line) {
            if !self.mem.read_into(line, &mut self.line_buf) {
                return Err(WomPcmError::InvalidConfig("written line vanished".into()));
            }
            if &self.line_buf != expected {
                // womlint::allow(hotpath/transitive, reason = "corruption error path: allocates once, then the run aborts")
                return Err(WomPcmError::InvalidConfig(format!(
                    "data corruption at line {line:#x}: cells decode differently from the                      last write"
                )));
            }
            self.reads_verified += 1;
        }
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
#[derive(Debug)]
pub struct EngineCore {
    config: SystemConfig,
    main: MemorySystem,
    cache_mem: Option<MemorySystem>,
    next_refresh_at: Cycle,
    // Ordered collections, not hash-based ones, for every structure whose
    // iteration (or retain) order can influence simulated behaviour:
    // bit-identical metrics across runs are a repo invariant (see the
    // golden_metrics test).
    victim_ids: BTreeSet<TransactionId>,
    leveling_ids: BTreeSet<TransactionId>,
    /// Per-flat-main-bank Start-Gap remappers, when wear leveling is on.
    start_gaps: Option<Vec<StartGap>>,
    /// Functional data checker, when `verify_data` is on.
    /// Boxed so the (large, rarely enabled) checker does not bloat
    /// `EngineCore` for the common verify-free runs.
    data_check: Option<Box<DataCheck>>,
    pending_victims: VecDeque<u64>,
    /// Open write-coalescing windows: rows with an array write still
    /// pending, keyed by (is_cache, row id), valued with the cycle the
    /// window closes.
    merge_windows: BTreeMap<(bool, u64), Cycle>,
    outstanding_main: u64,
    outstanding_cache: u64,
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
        config.validate()?;
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
        let clock_ns = config.mem.timing.clock_ns;
        Ok(Self {
            main,
            cache_mem,
            next_refresh_at: period,
            victim_ids: BTreeSet::new(),
            leveling_ids: BTreeSet::new(),
            start_gaps,
            data_check: config.verify_data.then(|| Box::new(DataCheck::new())),
            pending_victims: VecDeque::new(),
            merge_windows: BTreeMap::new(),
            outstanding_main: 0,
            outstanding_cache: 0,
            metrics: RunMetrics {
                clock_ns,
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

    /// Mutable access to the accumulating metrics (for policy counters).
    pub fn metrics_mut(&mut self) -> &mut RunMetrics {
        &mut self.metrics
    }

    /// Reports one instrumentation event to the attached observer. A
    /// single predicted branch and no work when observation is off;
    /// events are `Copy`, so emitting never allocates.
    #[inline]
    pub fn emit(&mut self, event: Event) {
        self.observer.on_event(&event);
    }

    /// Records the outcome of one planned row refresh: updates the
    /// refresh counters *and* emits the [`Event::RefreshRow`] event in
    /// one step, so per-epoch series always reconcile with
    /// [`RunMetrics`]. Policies call this from their refresh-completion
    /// handlers instead of poking `metrics_mut()`.
    pub fn note_refresh_row(
        &mut self,
        side: ArraySide,
        rank: u32,
        bank: u32,
        row: u32,
        c: &Completion,
    ) {
        if c.preempted {
            self.metrics.refreshes_preempted += 1;
        } else {
            self.metrics.refreshes_completed += 1;
        }
        self.observer.on_event(&Event::RefreshRow {
            cycle: c.finish,
            side,
            rank,
            bank,
            row,
            preempted: c.preempted,
        });
    }

    /// Records one hidden-page companion access (counter plus
    /// [`Event::HiddenPageAccess`]).
    pub fn note_hidden_page_access(&mut self) {
        self.metrics.hidden_page_accesses += 1;
        let cycle = self.main.now();
        self.observer.on_event(&Event::HiddenPageAccess { cycle });
    }

    /// Whether `rank` of main memory has no demand access queued.
    #[must_use]
    pub fn main_rank_idle(&self, rank: u32) -> bool {
        self.main.rank_queue_empty(rank)
    }

    /// Whether `(rank, bank)` of main memory has no in-flight operation.
    #[must_use]
    pub fn main_bank_free(&self, rank: u32, bank: u32) -> bool {
        self.main.is_bank_free(rank, bank)
    }

    /// Whether `rank` of the WOM-cache arrays has no demand access queued.
    ///
    /// # Panics
    ///
    /// Panics when the architecture has no cache array.
    #[must_use]
    pub fn cache_rank_idle(&self, rank: u32) -> bool {
        self.cache_mem
            .as_ref()
            .expect("architecture has a cache array")
            .rank_queue_empty(rank)
    }

    /// Whether the WOM-cache array of `rank` is free (its single bank).
    ///
    /// # Panics
    ///
    /// Panics when the architecture has no cache array.
    #[must_use]
    pub fn cache_bank_free(&self, rank: u32, bank: u32) -> bool {
        self.cache_mem
            .as_ref()
            .expect("architecture has a cache array")
            .is_bank_free(rank, bank)
    }

    /// Enqueues a burst-mode rank refresh on main memory (does not stall:
    /// refresh is planned only for idle ranks).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors for out-of-range rows.
    pub fn enqueue_main_rank_refresh(
        &mut self,
        rank: u32,
        rows: &[(u32, u32)],
    ) -> Result<TransactionId, WomPcmError> {
        let first = self.main.enqueue_rank_refresh(rank, rows)?;
        self.outstanding_main += rows.len() as u64;
        let cycle = self.main.now();
        self.observer.on_event(&Event::RefreshBurst {
            cycle,
            side: ArraySide::Main,
            rank,
            rows: rows.len() as u32,
        });
        Ok(first)
    }

    /// Enqueues a burst-mode rank refresh on the WOM-cache arrays.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors for out-of-range rows.
    ///
    /// # Panics
    ///
    /// Panics when the architecture has no cache array.
    pub fn enqueue_cache_rank_refresh(
        &mut self,
        rank: u32,
        rows: &[(u32, u32)],
    ) -> Result<TransactionId, WomPcmError> {
        let first = self
            .cache_mem
            .as_mut()
            .expect("architecture has a cache array")
            .enqueue_rank_refresh(rank, rows)?;
        self.outstanding_cache += rows.len() as u64;
        let cycle = self.main.now();
        self.observer.on_event(&Event::RefreshBurst {
            cycle,
            side: ArraySide::Cache,
            rank,
            rows: rows.len() as u32,
        });
        Ok(first)
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
    /// functional checker (no-op when verification is off).
    ///
    /// # Errors
    ///
    /// Returns an error when the functional refresh itself fails — that
    /// is a simulator bug, not a configuration error.
    pub fn check_refresh_row(&mut self, rank: u32, bank: u32, row: u32) -> Result<(), WomPcmError> {
        let g = self.config.mem.geometry;
        let decoder = *self.main.decoder();
        if let Some(check) = &mut self.data_check {
            // The whole row's lines are staged and rewritten as one
            // batch: `BlockCodec::encode_rows_into` amortizes kernel
            // dispatch and LUT loads across the refresh burst.
            check.begin_refresh();
            for column in 0..g.columns_per_row() {
                let d = DecodedAddr {
                    rank,
                    bank,
                    row,
                    column,
                };
                let addr = decoder.encode(d)?;
                check.stage_refresh_line(DataCheck::line_of(addr));
            }
            check.commit_refresh()?;
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
    /// row, if its coalescing window is still open. Coalesced writes cost
    /// one data burst (the row buffer merges them) and consume no WOM
    /// budget — the row is written back to the array once.
    pub fn try_coalesce(&mut self, is_cache: bool, row_key: u64) -> bool {
        let now = self.now();
        if self.merge_windows.len() > 8192 {
            self.merge_windows.retain(|_, &mut until| until > now);
        }
        match self.merge_windows.get(&(is_cache, row_key)) {
            Some(&until) if now < until => {
                self.metrics.coalesced_writes += 1;
                let burst = self.config.mem.timing.burst_cycles();
                self.metrics.writes.record(burst);
                self.metrics.write_hist.record(burst);
                self.observer.on_event(&Event::WriteCompleted {
                    cycle: now,
                    latency: burst,
                    class: WriteClass::Coalesced,
                });
                true
            }
            _ => false,
        }
    }

    /// Opens (or extends) the coalescing window of a row after issuing an
    /// array write for it.
    fn open_merge_window(&mut self, is_cache: bool, row_key: u64, class: ServiceClass) {
        let t = &self.config.mem.timing;
        let service = match class {
            ServiceClass::ResetOnlyWrite => t.reset_cycles(),
            _ => t.write_cycles(),
        };
        let until = self.now() + service;
        self.merge_windows.insert((is_cache, row_key), until);
    }

    /// Retries queued victim writebacks while the main write queue has
    /// room.
    fn flush_victims(&mut self) {
        while let Some(&addr) = self.pending_victims.front() {
            if !self.main.can_accept_write() {
                break;
            }
            let id = self
                .main
                .enqueue(MemOp::Write, addr, ServiceClass::Write)
                .expect("capacity checked");
            self.victim_ids.insert(id);
            self.outstanding_main += 1;
            self.pending_victims.pop_front();
        }
    }

    /// Serializes the complete mid-run engine state (everything that
    /// varies between two `submit` calls). Collections iterate in their
    /// deterministic (key) order, so the same state always produces the
    /// same bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] when a caller-supplied
    /// observer is attached (see [`ObserverSink::save_state`]).
    pub(crate) fn save_state(&self, w: &mut SnapWriter) -> Result<(), WomPcmError> {
        self.main.save_state(w);
        match &self.cache_mem {
            None => w.put_bool(false),
            Some(cm) => {
                w.put_bool(true);
                cm.save_state(w);
            }
        }
        w.put_u64(self.next_refresh_at);
        w.put_usize(self.victim_ids.len());
        for &id in &self.victim_ids {
            w.put_u64(id);
        }
        w.put_usize(self.leveling_ids.len());
        for &id in &self.leveling_ids {
            w.put_u64(id);
        }
        match &self.start_gaps {
            None => w.put_bool(false),
            Some(sgs) => {
                w.put_bool(true);
                w.put_usize(sgs.len());
                for sg in sgs {
                    sg.save_state(w);
                }
            }
        }
        match &self.data_check {
            None => w.put_bool(false),
            Some(check) => {
                w.put_bool(true);
                check.mem.save_state(w);
                w.put_usize(check.expected.len());
                for (line, data) in check.expected.iter() {
                    w.put_u64(line);
                    w.put_bytes(data);
                }
                w.put_u64(check.seq);
                w.put_u64(check.reads_verified);
            }
        }
        w.put_usize(self.pending_victims.len());
        for &addr in &self.pending_victims {
            w.put_u64(addr);
        }
        w.put_usize(self.merge_windows.len());
        for (&(is_cache, key), &until) in &self.merge_windows {
            w.put_bool(is_cache);
            w.put_u64(key);
            w.put_u64(until);
        }
        w.put_u64(self.outstanding_main);
        w.put_u64(self.outstanding_cache);
        self.metrics.save_state(w);
        self.observer.save_state(w)?;
        w.put_u64(self.last_record_cycle);
        Ok(())
    }

    /// Restores state written by [`save_state`](Self::save_state) into
    /// this core, which must have been freshly built from the same
    /// configuration (the snapshot container's fingerprint enforces
    /// this before any payload byte is decoded).
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::Snapshot`] for truncated or corrupt
    /// payloads, including structure that disagrees with the
    /// configuration.
    pub(crate) fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), WomPcmError> {
        self.main.restore_state(r)?;
        let has_cache = r.take_bool()?;
        match (&mut self.cache_mem, has_cache) {
            (Some(cm), true) => cm.restore_state(r)?,
            (None, false) => {}
            _ => {
                return Err(SnapshotError::Corrupt(
                    "cache-array presence disagrees with the configuration",
                )
                .into())
            }
        }
        self.next_refresh_at = r.take_u64()?;
        self.victim_ids = r.take_sorted(8, |&id| id, SnapReader::take_u64)?;
        self.leveling_ids = r.take_sorted(8, |&id| id, SnapReader::take_u64)?;
        let has_gaps = r.take_bool()?;
        match (&mut self.start_gaps, has_gaps) {
            (Some(sgs), true) => {
                let n = r.take_len(8)?;
                if n != sgs.len() {
                    return Err(SnapshotError::Corrupt(
                        "Start-Gap bank count disagrees with the geometry",
                    )
                    .into());
                }
                for sg in sgs.iter_mut() {
                    *sg = StartGap::load_state(r)?;
                }
            }
            (None, false) => {}
            _ => {
                return Err(SnapshotError::Corrupt(
                    "wear-leveling presence disagrees with the configuration",
                )
                .into())
            }
        }
        let has_check = r.take_bool()?;
        match (&mut self.data_check, has_check) {
            (Some(check), true) => {
                check.mem.load_state(r)?;
                let lines = r.take_len(8 + CHECK_LINE_BYTES)?;
                check.expected = RowMap::new();
                for _ in 0..lines {
                    let line = r.take_u64()?;
                    let bytes = r.take_bytes(CHECK_LINE_BYTES)?;
                    let mut data = [0u8; CHECK_LINE_BYTES];
                    data.copy_from_slice(bytes);
                    check.expected.insert(line, data);
                }
                check.seq = r.take_u64()?;
                check.reads_verified = r.take_u64()?;
                check.line_buf = [0u8; CHECK_LINE_BYTES];
            }
            (None, false) => {}
            _ => {
                return Err(SnapshotError::Corrupt(
                    "data-check presence disagrees with the configuration",
                )
                .into())
            }
        }
        let victims = r.take_len(8)?;
        self.pending_victims = VecDeque::new();
        for _ in 0..victims {
            self.pending_victims.push_back(r.take_u64()?);
        }
        self.merge_windows = r.take_sorted(
            17,
            |&(window, _)| window,
            |r| Ok(((r.take_bool()?, r.take_u64()?), r.take_u64()?)),
        )?;
        self.outstanding_main = r.take_u64()?;
        self.outstanding_cache = r.take_u64()?;
        self.metrics = RunMetrics::load_state(r)?;
        self.observer = ObserverSink::load_state(r)?;
        self.last_record_cycle = r.take_u64()?;
        Ok(())
    }

    fn record_demand(&mut self, c: &Completion) {
        match c.op {
            MemOp::Read => {
                self.metrics.reads.record(c.latency());
                self.metrics.read_hist.record(c.latency());
                self.observer.on_event(&Event::ReadCompleted {
                    cycle: c.finish,
                    latency: c.latency(),
                });
            }
            MemOp::Write => {
                self.metrics.writes.record(c.latency());
                self.metrics.write_hist.record(c.latency());
                let class = if c.class == ServiceClass::ResetOnlyWrite {
                    self.metrics.fast_writes += 1;
                    WriteClass::Fast
                } else {
                    self.metrics.slow_writes += 1;
                    WriteClass::Slow
                };
                self.observer.on_event(&Event::WriteCompleted {
                    cycle: c.finish,
                    latency: c.latency(),
                    class,
                });
            }
        }
    }
}

/// A trace-driven simulation engine running one [`ArchPolicy`].
///
/// The engine is generic over the policy so monomorphized policies pay no
/// dispatch cost; a [`Session`](crate::session::Session) drives an
/// `Engine<Box<dyn ArchPolicy>>` built from a [`SystemConfig`].
#[derive(Debug)]
pub struct Engine<P> {
    core: EngineCore,
    policy: P,
    /// Cached `policy.wants_ticks()`: checked on every time advance.
    ticks: bool,
}

impl Engine<Box<dyn ArchPolicy>> {
    /// Builds an engine with the policy matching `config.arch`.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] for inconsistent parameters.
    pub fn from_config(config: SystemConfig) -> Result<Self, WomPcmError> {
        config.validate()?;
        let policy = policy::build(&config)?;
        Self::with_policy(config, policy)
    }
}

impl<P: ArchPolicy> Engine<P> {
    /// Builds an engine running a caller-supplied policy (the extension
    /// point for architectures beyond the paper's four; see `DESIGN.md`).
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] for inconsistent parameters.
    pub fn with_policy(config: SystemConfig, policy: P) -> Result<Self, WomPcmError> {
        let core = EngineCore::new(config)?;
        let ticks = policy.wants_ticks();
        Ok(Self {
            core,
            policy,
            ticks,
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

    /// Attaches a custom [`Observer`], replacing any epoch recorder
    /// configured via `SystemConfig::epoch_cycles`.
    pub fn set_observer(&mut self, observer: Box<dyn Observer>) {
        self.core.observer = ObserverSink::Custom(observer);
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
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] when a caller-supplied
    /// observer is attached — arbitrary observers cannot be serialized;
    /// detach the observer first.
    pub fn save_state(&self, w: &mut SnapWriter) -> Result<(), WomPcmError> {
        self.core.save_state(w)?;
        self.policy.save_state(w);
        Ok(())
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
        }
    }

    /// Completes all outstanding work and returns the final metrics.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (none are expected during a drain), and
    /// returns [`WomPcmError::Internal`] if outstanding work never drains.
    pub fn finish(&mut self) -> Result<RunMetrics, WomPcmError> {
        let mut guard = 0u64;
        while self.core.outstanding_main + self.core.outstanding_cache > 0
            || !self.core.pending_victims.is_empty()
        {
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
        // Take the accumulated metrics, finalize in place, and store one
        // clone back — no policy's `finish` reads `core.metrics`.
        let mut result = std::mem::take(&mut self.core.metrics);
        self.policy.finish(&self.core, &mut result);
        result.energy = self.core.main.stats().energy;
        result.wear_main = self.core.main.wear().summary();
        if let Some(check) = &self.core.data_check {
            result.data_reads_verified = check.reads_verified;
        }
        if let Some(cm) = &self.core.cache_mem {
            result.energy.merge(&cm.stats().energy);
            result.wear_cache = Some(cm.wear().summary());
        }
        self.core.metrics = result.clone();
        Ok(result)
    }

    // ------------------------------------------------------------------
    // Time advancement
    // ------------------------------------------------------------------

    /// Advances to `cycle`, running the policy's periodic tick on the way
    /// when it wants one.
    ///
    /// As in DRAMSim2, the refresh period is per rank and checks are
    /// staggered: with a 4000 ns period and 16 ranks, a check fires every
    /// 250 ns, each visiting the next rank in round-robin order, so every
    /// rank is considered once per period.
    fn advance(&mut self, cycle: Cycle) -> Result<(), WomPcmError> {
        if self.ticks {
            let period = self.core.config.mem.timing.refresh_period_cycles();
            let stagger = (period / Cycle::from(self.core.config.mem.geometry.ranks)).max(1);
            while self.core.next_refresh_at <= cycle {
                let at = self.core.next_refresh_at;
                self.advance_all_to(at)?;
                self.policy.on_tick(&mut self.core)?;
                self.core.next_refresh_at += stagger;
            }
        }
        self.advance_all_to(cycle)
    }

    /// Advances both memory systems in lockstep, handling completions.
    fn advance_all_to(&mut self, cycle: Cycle) -> Result<(), WomPcmError> {
        let mut done = std::mem::take(&mut self.core.completions);
        if cycle > self.core.main.now() {
            done.extend(self.core.main.advance_to(cycle)?);
            for c in done.drain(..) {
                self.handle_main_completion(&c)?;
            }
        }
        if let Some(cm) = &mut self.core.cache_mem {
            if cycle > cm.now() {
                done.extend(cm.advance_to(cycle)?);
                for c in done.drain(..) {
                    self.handle_cache_completion(&c)?;
                }
            }
        }
        self.core.completions = done;
        self.core.flush_victims();
        Ok(())
    }

    fn handle_main_completion(&mut self, c: &Completion) -> Result<(), WomPcmError> {
        self.core.outstanding_main -= 1;
        if c.class == ServiceClass::RankRefresh {
            return self
                .policy
                .on_completion(&mut self.core, ArraySide::Main, c);
        }
        if self.core.victim_ids.remove(&c.id) {
            self.core.metrics.victim_writebacks += 1;
            self.core.emit(Event::VictimWriteback { cycle: c.finish });
            return Ok(());
        }
        if self.core.leveling_ids.remove(&c.id) {
            return Ok(()); // internal wear-leveling row copy
        }
        self.core.record_demand(c);
        Ok(())
    }

    fn handle_cache_completion(&mut self, c: &Completion) -> Result<(), WomPcmError> {
        self.core.outstanding_cache -= 1;
        if c.class == ServiceClass::RankRefresh {
            return self
                .policy
                .on_completion(&mut self.core, ArraySide::Cache, c);
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
                self.enqueue_main(MemOp::Read, addr, ServiceClass::Read)?;
                if let Some(companion) = companion {
                    self.enqueue_main_internal(MemOp::Read, companion, ServiceClass::Read)?;
                }
                Ok(())
            }
            ReadAction::Cache { rank, row } => {
                let cache_addr = self.core.cache_addr(rank, row)?;
                self.enqueue_cache(MemOp::Read, cache_addr, ServiceClass::Read)
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
                self.enqueue_main(MemOp::Write, addr, class)?;
                self.core.open_merge_window(false, row_key, class);
                self.account_leveling_write(addr)?;
                if let Some(companion) = companion {
                    self.enqueue_main_internal(MemOp::Write, companion, class)?;
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
                self.enqueue_cache(MemOp::Write, cache_addr, class)?;
                self.core.open_merge_window(true, merge_key, class);
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
        self.core.metrics.leveling_copies += 1;
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
        self.enqueue_main_internal(MemOp::Read, from_addr, ServiceClass::Read)?;
        self.enqueue_main_internal(MemOp::Write, to_addr, ServiceClass::Write)?;
        // The destination physical row was erased and rewritten once.
        let to_d = self.core.main.decoder().decode(to_addr);
        self.policy.on_wear_level_copy(&mut self.core, to_d);
        Ok(())
    }

    /// Enqueues on main memory, stalling (advancing time) on back-pressure.
    fn enqueue_main(
        &mut self,
        op: MemOp,
        addr: u64,
        class: ServiceClass,
    ) -> Result<(), WomPcmError> {
        loop {
            match self.core.main.enqueue(op, addr, class) {
                Ok(_) => {
                    self.core.outstanding_main += 1;
                    return Ok(());
                }
                Err(SimError::QueueFull { .. }) => {
                    let next = self.now() + STALL_QUANTUM;
                    self.advance(next)?;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Enqueues internal (non-demand) main-memory traffic, stalling on
    /// back-pressure.
    fn enqueue_main_internal(
        &mut self,
        op: MemOp,
        addr: u64,
        class: ServiceClass,
    ) -> Result<(), WomPcmError> {
        loop {
            match self.core.main.enqueue(op, addr, class) {
                Ok(id) => {
                    self.core.leveling_ids.insert(id);
                    self.core.outstanding_main += 1;
                    return Ok(());
                }
                Err(SimError::QueueFull { .. }) => {
                    let next = self.now() + STALL_QUANTUM;
                    self.advance(next)?;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Enqueues on the WOM-cache arrays, stalling on back-pressure.
    fn enqueue_cache(
        &mut self,
        op: MemOp,
        addr: u64,
        class: ServiceClass,
    ) -> Result<(), WomPcmError> {
        loop {
            let result = self
                .core
                .cache_mem
                .as_mut()
                .expect("architecture has a cache array")
                .enqueue(op, addr, class);
            match result {
                Ok(_) => {
                    self.core.outstanding_cache += 1;
                    return Ok(());
                }
                Err(SimError::QueueFull { .. }) => {
                    let next = self.now() + STALL_QUANTUM;
                    self.advance(next)?;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

impl EngineCore {
    fn cache_addr(&self, rank: u32, row: u32) -> Result<u64, WomPcmError> {
        let cm = self
            .cache_mem
            .as_ref()
            .expect("architecture has a cache array");
        Ok(cm.decoder().encode(DecodedAddr {
            rank,
            bank: 0,
            row,
            column: 0,
        })?)
    }
}
