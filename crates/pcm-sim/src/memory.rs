//! The event-driven memory system: queues, scheduler, banks, and bus.
//!
//! This is the DRAMSim2-equivalent substrate the paper extends: a
//! transaction-level, cycle-resolution simulator of one memory channel.
//! Demand reads and writes flow through bounded read/write queues into
//! per-bank timing state machines; a shared data bus models channel
//! contention; rank-refresh batches model the paper's burst-mode
//! PCM-refresh command, preemptible under write pausing.
//!
//! The simulator is *event-driven*: time advances directly to the next
//! bank/bus event rather than ticking every cycle, which keeps multi-
//! billion-cycle runs tractable while preserving cycle-accurate ordering.
//! The events need no queue of their own: every one is a pending
//! completion's finish or the single registered bus wake-up.

use crate::address::{AddressDecoder, DecodedAddr};
use crate::bank::BankState;
use crate::config::{MemConfig, RowPolicy, SchedulerPolicy};
use crate::error::SimError;
use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};
use crate::stats::MemStats;
use crate::timing::Cycle;
use crate::transaction::{Completion, MemOp, ServiceClass, Transaction, TransactionId};
use crate::wear::WearTracker;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A queued burst-mode rank refresh (one row per listed bank).
#[derive(Debug, Clone)]
struct RefreshBatch {
    rank: u32,
    /// Id of the first row: the `k`-th row is `first + k`.
    first: TransactionId,
    /// `(bank, row)` pairs to refresh, at most one per bank.
    rows: Vec<(u32, u32)>,
}

crate::snap_fields!(RefreshBatch {
    rank: u32,
    first: TransactionId,
    rows: Vec<(u32, u32)>,
});

/// A queued demand access with its address decoded once, at enqueue:
/// the issue scan visits each entry many times while it waits.
#[derive(Debug, Clone, Copy)]
struct Queued {
    txn: Transaction,
    at: DecodedAddr,
}

/// Pending completion ordered by finish cycle (then id for determinism).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending(Completion);

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0.finish, self.0.id).cmp(&(other.0.finish, other.0.id))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A single-channel memory system under test.
///
/// Drive it by alternating [`advance_to`](MemorySystem::advance_to) (moving
/// simulated time forward, collecting [`Completion`]s) with
/// [`enqueue`](MemorySystem::enqueue) calls at the current time.
///
/// ```
/// use pcm_sim::{MemConfig, MemOp, MemorySystem, ServiceClass};
///
/// # fn main() -> Result<(), pcm_sim::SimError> {
/// let mut mem = MemorySystem::new(MemConfig::tiny())?;
/// mem.enqueue(MemOp::Write, 0x40, ServiceClass::Write)?;
/// mem.enqueue(MemOp::Read, 0x1000, ServiceClass::Read)?;
/// let done = mem.drain();
/// assert_eq!(done.len(), 2);
/// assert_eq!(mem.stats().write_latency.count, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    config: MemConfig,
    decoder: AddressDecoder,
    now: Cycle,
    next_id: TransactionId,
    banks: Vec<BankState>,
    /// The data bus carries its current burst until this cycle.
    bus_free_at: Cycle,
    /// Whether the controller must wake at `bus_free_at`: a busy-bus scan
    /// found an access that can issue once the bus frees. Set only while
    /// `bus_free_at` is in the future, and cleared when time reaches it.
    bus_wake: bool,
    read_q: VecDeque<Queued>,
    write_q: VecDeque<Queued>,
    refresh_q: VecDeque<RefreshBatch>,
    /// Emptied row buffers recycled from issued batches; `enqueue_rank_refresh`
    /// reuses them so steady-state refresh traffic stops allocating.
    spare_rows: Vec<Vec<(u32, u32)>>,
    /// Every issued operation's completion, earliest finish on top,
    /// preempted refresh rows included until their finish passes (their
    /// bank no longer serves them, so the entry is then dropped). With
    /// `bus_wake` it is the whole event schedule (see `next_event`).
    pending: BinaryHeap<Reverse<Pending>>,
    /// Refresh rows issued and neither completed nor preempted.
    refreshing: usize,
    out: Vec<Completion>,
    stats: MemStats,
    wear: WearTracker,
    draining_writes: bool,
    queued_per_rank: Vec<usize>,
}

impl MemorySystem {
    /// Builds a memory system from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `config.validate()` fails.
    pub fn new(config: MemConfig) -> Result<Self, SimError> {
        config.validate()?;
        let decoder = AddressDecoder::new(config.geometry, config.mapping)?;
        let total_banks = config.geometry.total_banks() as usize;
        Ok(Self {
            decoder,
            now: 0,
            next_id: 0,
            banks: vec![BankState::new(); total_banks],
            bus_free_at: 0,
            bus_wake: false,
            read_q: VecDeque::with_capacity(config.read_queue_capacity),
            write_q: VecDeque::with_capacity(config.write_queue_capacity),
            refresh_q: VecDeque::new(),
            spare_rows: Vec::new(),
            pending: BinaryHeap::new(),
            refreshing: 0,
            out: Vec::new(),
            stats: MemStats::new(),
            wear: WearTracker::new(),
            draining_writes: false,
            queued_per_rank: vec![0; config.geometry.ranks as usize],
            config,
        })
    }

    /// Current simulated time in cycles.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// The address decoder (geometry + mapping).
    #[must_use]
    pub fn decoder(&self) -> &AddressDecoder {
        &self.decoder
    }

    /// Aggregate statistics so far.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Per-row wear counters accumulated so far.
    #[must_use]
    pub fn wear(&self) -> &WearTracker {
        &self.wear
    }

    /// Occupancy of the read queue.
    #[must_use]
    pub fn read_queue_len(&self) -> usize {
        self.read_q.len()
    }

    /// Occupancy of the write queue.
    #[must_use]
    pub fn write_queue_len(&self) -> usize {
        self.write_q.len()
    }

    /// True when every bank of `rank` is idle and no demand access for the
    /// rank is queued — the paper's criterion for a PCM-refresh target.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[must_use]
    pub fn is_rank_idle(&self, rank: u32) -> bool {
        assert!(
            rank < self.config.geometry.ranks,
            "rank {rank} out of range"
        );
        if self.queued_per_rank[rank as usize] > 0 {
            return false;
        }
        let banks = self.config.geometry.banks_per_rank as usize;
        let base = rank as usize * banks;
        self.banks[base..base + banks]
            .iter()
            .all(|b| b.is_free(self.now))
    }

    /// True when no demand access for `rank` is queued (its banks may
    /// still be finishing in-flight work). Under write pausing this is
    /// enough for a refresh to start: any later demand access preempts it.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[must_use]
    pub fn rank_queue_empty(&self, rank: u32) -> bool {
        assert!(
            rank < self.config.geometry.ranks,
            "rank {rank} out of range"
        );
        self.queued_per_rank[rank as usize] == 0
    }

    /// True when the controller has nothing left to do: no access or
    /// refresh batch is queued, no bank is running an operation, and
    /// every completion has been drained. A preempted refresh row's stale
    /// pending entry does not count: its bank no longer serves it.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.read_q.is_empty()
            && self.write_q.is_empty()
            && self.refresh_q.is_empty()
            && self.out.is_empty()
            && self.banks.iter().all(|b| b.in_flight(self.now).is_none())
    }

    /// Whether `(rank, bank)` is free at the current cycle.
    ///
    /// # Panics
    ///
    /// Panics if `rank` or `bank` are out of range.
    #[must_use]
    pub fn is_bank_free(&self, rank: u32, bank: u32) -> bool {
        assert!(
            rank < self.config.geometry.ranks,
            "rank {rank} out of range"
        );
        assert!(
            bank < self.config.geometry.banks_per_rank,
            "bank {bank} out of range"
        );
        self.banks[self.flat_bank(rank, bank)].is_free(self.now)
    }

    /// Submits a demand access at the current time.
    ///
    /// # Errors
    ///
    /// * [`SimError::QueueFull`] when the respective queue is at capacity —
    ///   advance time and retry.
    /// * [`SimError::InvalidConfig`] when `op` and `class` are inconsistent
    ///   (reads must use [`ServiceClass::Read`]; writes must use
    ///   [`ServiceClass::Write`] or [`ServiceClass::ResetOnlyWrite`]).
    pub fn enqueue(
        &mut self,
        op: MemOp,
        addr: u64,
        class: ServiceClass,
    ) -> Result<TransactionId, SimError> {
        if !class_fits(op, class) {
            // womlint::allow(hotpath/transitive, reason = "invalid-request error path: allocates once, then the run aborts")
            return Err(SimError::InvalidConfig(format!(
                "service class {class:?} is not valid for {op:?}"
            )));
        }
        let (queue, cap) = match op {
            MemOp::Read => (&self.read_q, self.config.read_queue_capacity),
            MemOp::Write => (&self.write_q, self.config.write_queue_capacity),
        };
        if queue.len() >= cap {
            return Err(SimError::QueueFull { capacity: cap });
        }
        let id = self.next_id;
        self.next_id += 1;
        let txn = Transaction {
            id,
            addr,
            op,
            class,
            arrival: self.now,
        };
        let at = self.decoder.decode(addr);
        self.queued_per_rank[at.rank as usize] += 1;
        self.queue_mut(op).push_back(Queued { txn, at });
        self.try_issue();
        Ok(id)
    }

    /// Queues a burst-mode PCM-refresh of one row in each listed bank of
    /// `rank` (§3.2). The batch issues once every listed bank is free and
    /// occupies them for `t_WR + N_bank · L_burst / 2` cycles; individual
    /// banks may be preempted by demand accesses (write pausing), in which
    /// case their row reports a `preempted` completion and is *not*
    /// refreshed.
    ///
    /// Returns the first transaction id of the batch; the `k`-th
    /// `(bank, row)` pair is assigned id `first + k`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::IndexOutOfRange`] for a bad rank/bank/row, or
    /// [`SimError::InvalidConfig`] for an empty batch or duplicate banks.
    pub fn enqueue_rank_refresh(
        &mut self,
        rank: u32,
        rows: &[(u32, u32)],
    ) -> Result<TransactionId, SimError> {
        self.check_batch(rank, rows)?;
        // The row buffer is recycled from a previously issued batch, so
        // steady-state refresh traffic allocates nothing.
        let mut owned = self.spare_rows.pop().unwrap_or_default();
        owned.clear();
        owned.extend_from_slice(rows);
        let (rows, first) = (owned, self.next_id);
        self.next_id += rows.len() as u64;
        self.refresh_q.push_back(RefreshBatch { rank, first, rows });
        self.try_issue();
        Ok(first)
    }

    /// The checks [`enqueue_rank_refresh`](Self::enqueue_rank_refresh)
    /// makes of a batch (restore makes them of every queued one).
    fn check_batch(&self, rank: u32, rows: &[(u32, u32)]) -> Result<(), SimError> {
        let g = &self.config.geometry;
        if rank >= g.ranks {
            return Err(SimError::IndexOutOfRange {
                what: "rank",
                index: u64::from(rank),
                limit: u64::from(g.ranks),
            });
        }
        if rows.is_empty() {
            return Err(SimError::InvalidConfig(
                "refresh batch must list at least one row".into(),
            ));
        }
        for (k, &(bank, row)) in rows.iter().enumerate() {
            if bank >= g.banks_per_rank {
                return Err(SimError::IndexOutOfRange {
                    what: "bank",
                    index: u64::from(bank),
                    limit: u64::from(g.banks_per_rank),
                });
            }
            if row >= g.rows_per_bank {
                return Err(SimError::IndexOutOfRange {
                    what: "row",
                    index: u64::from(row),
                    limit: u64::from(g.rows_per_bank),
                });
            }
            // Pairwise, so the check allocates nothing: a batch that
            // passes lists at most `banks_per_rank` rows.
            if rows.iter().take(k).any(|&(seen, _)| seen == bank) {
                // womlint::allow(hotpath/transitive, reason = "invalid-batch error path: allocates once, then the run aborts")
                return Err(SimError::InvalidConfig(format!(
                    "refresh batch lists bank {bank} twice"
                )));
            }
        }
        Ok(())
    }

    /// Advances simulated time to `cycle`, returning every completion that
    /// finished in the interval (in finish order).
    ///
    /// The completions are drained from a buffer the system keeps, so a
    /// steady stream of calls allocates nothing; completions left in the
    /// iterator when it is dropped are discarded.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TimeRegression`] if `cycle` is in the past.
    pub fn advance_to(
        &mut self,
        cycle: Cycle,
    ) -> Result<std::vec::Drain<'_, Completion>, SimError> {
        if cycle < self.now {
            return Err(SimError::TimeRegression {
                now: self.now,
                requested: cycle,
            });
        }
        while let Some(e) = self.next_event().filter(|&e| e <= cycle) {
            self.handle_event(e);
        }
        self.now = cycle;
        self.flush_completions();
        self.try_issue();
        Ok(self.out.drain(..))
    }

    /// Runs until all queues are empty and all in-flight work completes,
    /// returning the completions.
    pub fn drain(&mut self) -> Vec<Completion> {
        while !(self.read_q.is_empty()
            && self.write_q.is_empty()
            && self.refresh_q.is_empty()
            && self.pending.is_empty())
        {
            // With no future event nothing can unblock the remaining work;
            // only possible if a refresh batch waits on banks that a demand
            // stream keeps occupied (impossible once queues are empty), so
            // treat it as quiesced.
            let Some(e) = self.next_event() else {
                break;
            };
            self.handle_event(e);
        }
        std::mem::take(&mut self.out)
    }

    /// The next cycle at which the controller has work: the earliest
    /// pending finish, or the registered bus wake-up if that comes first.
    ///
    /// Every event is one of these. A finish gets its `pending` entry when
    /// its operation starts, and `bus_free_at` moves only once its old
    /// value has passed, so at most one wake-up is ever outstanding.
    fn next_event(&self) -> Option<Cycle> {
        let finish = self.pending.peek().map(|Reverse(Pending(c))| c.finish);
        let wake = self.bus_wake.then_some(self.bus_free_at);
        match (finish, wake) {
            (Some(f), Some(w)) => Some(f.min(w)),
            (f, w) => f.or(w),
        }
    }

    /// Moves time to event cycle `e` and does what it enables: completes
    /// what finished, drops a wake-up that is due, and issues.
    fn handle_event(&mut self, e: Cycle) {
        if e > self.now {
            self.now = e;
        }
        if self.bus_free_at <= self.now {
            self.bus_wake = false;
        }
        self.flush_completions();
        self.try_issue();
    }

    fn flat_bank(&self, rank: u32, bank: u32) -> usize {
        (rank * self.config.geometry.banks_per_rank + bank) as usize
    }

    fn flush_completions(&mut self) {
        while let Some(Reverse(Pending(c))) = self.pending.peek().copied() {
            if c.finish > self.now {
                break;
            }
            self.pending.pop();
            if c.class == ServiceClass::RankRefresh {
                // A preempted row was reported when it was preempted.
                let at = self.decoder.decode(c.addr);
                let flat = self.flat_bank(at.rank, at.bank);
                if !self.banks.get(flat).is_some_and(|b| b.serving(&c)) {
                    continue;
                }
                self.refreshing -= 1;
            }
            self.account_energy_and_wear(&c);
            self.stats.record(&c);
            self.out.push(c);
        }
    }

    /// Charges a finished operation's energy and wear.
    fn account_energy_and_wear(&mut self, c: &Completion) {
        let e = &self.config.energy;
        let access_bits = u64::from(self.config.geometry.access_bytes) * 8;
        let row_bits = u64::from(self.config.geometry.row_bytes) * 8;
        match c.class {
            ServiceClass::Read => {
                self.stats.energy.read_pj += e.read_pj(access_bits);
                return;
            }
            ServiceClass::Write => {
                self.stats.energy.full_write_pj += e.full_write_pj(access_bits);
            }
            ServiceClass::ResetOnlyWrite => {
                self.stats.energy.reset_write_pj += e.reset_only_write_pj(access_bits);
            }
            ServiceClass::RankRefresh if c.preempted => return,
            ServiceClass::RankRefresh => self.stats.energy.refresh_pj += e.refresh_pj(row_bits),
        }
        // Every array write, whatever its kind, wears its row once.
        let row = self.decoder.decode(c.addr).flat_row(&self.config.geometry);
        self.wear.record_write(row);
    }

    fn service_cycles(&self, class: ServiceClass, flat_bank: usize, row: u32) -> Cycle {
        let t = &self.config.timing;
        match class {
            ServiceClass::Read => {
                let hit = self.config.row_policy == RowPolicy::OpenPage
                    && self.banks[flat_bank].open_row() == Some(row);
                if hit {
                    t.row_hit_read_cycles() + t.burst_cycles()
                } else {
                    t.read_cycles() + t.burst_cycles()
                }
            }
            ServiceClass::Write => t.write_cycles(),
            ServiceClass::ResetOnlyWrite => t.reset_cycles(),
            ServiceClass::RankRefresh => t.rank_refresh_cycles(self.config.geometry.banks_per_rank),
        }
        .max(1)
    }

    /// Issues every transaction that can start at the current cycle.
    ///
    /// Demand accesses are scanned FR-FCFS: the read queue first (the
    /// write queue first while draining), oldest first within each, and
    /// the first one whose bank is free (or freed by write pausing)
    /// issues. The shared data bus admits one burst at a time, so while
    /// it is busy nothing can issue and the scan only does what still has
    /// an effect (see [`wait_for_bus`](Self::wait_for_bus)).
    fn try_issue(&mut self) {
        // Hysteretic write draining (disabled under read-always-first).
        if self.config.scheduler == SchedulerPolicy::ReadAlwaysFirst {
            self.draining_writes = false;
        } else if self.write_q.len() >= self.config.write_high_watermark {
            self.draining_writes = true;
        } else if self.write_q.len() <= self.config.write_low_watermark {
            self.draining_writes = false;
        }
        loop {
            let progressed = if self.bus_free_at > self.now {
                self.wait_for_bus();
                false
            } else {
                self.issue_first_ready()
            };
            // Refresh batches issue only behind demand traffic.
            if !progressed && !self.try_issue_refresh() {
                break;
            }
        }
    }

    /// The queues in scan order, each with how many of its oldest
    /// entries the scheduler may consider.
    fn scan_order(&self) -> [(MemOp, usize); 2] {
        // Strict FCFS only ever considers the queue head.
        let window = |len: usize| match self.config.scheduler {
            SchedulerPolicy::StrictFcfs => len.min(1),
            _ => len,
        };
        let reads = (MemOp::Read, window(self.read_q.len()));
        let writes = (MemOp::Write, window(self.write_q.len()));
        if self.draining_writes {
            [writes, reads]
        } else {
            [reads, writes]
        }
    }

    fn queue_mut(&mut self, op: MemOp) -> &mut VecDeque<Queued> {
        match op {
            MemOp::Read => &mut self.read_q,
            MemOp::Write => &mut self.write_q,
        }
    }

    /// Bus free: issues the first access in scan order whose bank can
    /// take it; true if one issued.
    fn issue_first_ready(&mut self) -> bool {
        for (op, window) in self.scan_order() {
            for idx in 0..window {
                let Some(&queued) = self.queue_mut(op).get(idx) else {
                    break;
                };
                if self.claim_bank(queued.at) {
                    self.queue_mut(op).remove(idx);
                    self.start_demand(queued);
                    return true;
                }
            }
        }
        false
    }

    /// Bus busy: no demand access can issue before `bus_free_at`, so a
    /// scan has only two effects. Every access whose bank runs a
    /// preemptible refresh row preempts it, in scan order; and if any
    /// access found its bank free, or freed it, the controller must wake
    /// at `bus_free_at` (`bus_wake`). Once that wake-up is due and no
    /// refresh row is left to preempt, the rest of the queue cannot change
    /// anything, so a scan that finds the wake-up already registered by an
    /// earlier one and nothing to preempt ends at once.
    fn wait_for_bus(&mut self) {
        let mut wake = self.bus_wake;
        'scan: for (op, window) in self.scan_order() {
            for idx in 0..window {
                // Completions are flushed before every scan, so
                // `refreshing` counts exactly the rows still running.
                if wake && (self.refreshing == 0 || !self.config.write_pausing) {
                    break 'scan;
                }
                let Some(&Queued { at, .. }) = self.queue_mut(op).get(idx) else {
                    break;
                };
                wake |= self.claim_bank(at);
            }
        }
        self.bus_wake = wake;
    }

    /// Whether the bank of `at` can take a demand access now: it is free,
    /// or write pausing preempts the refresh row running on it. A
    /// preempted row is reported at once as a `preempted` completion.
    fn claim_bank(&mut self, at: DecodedAddr) -> bool {
        let flat = self.flat_bank(at.rank, at.bank);
        if self.banks[flat].is_free(self.now) {
            return true;
        }
        if !self.config.write_pausing {
            return false;
        }
        // `preempt` refuses idle banks and non-preemptible classes, so
        // it doubles as the write-pausing eligibility check.
        let bank = &mut self.banks[flat];
        let Some(aborted) = bank.preempt(self.now) else {
            return false;
        };
        // The bank's open row is the refresh row it was running.
        let mut row = at;
        (row.row, row.column) = (bank.open_row().unwrap_or_default(), 0);
        let addr = self.decoder.encode(row).unwrap_or_default();
        self.refreshing -= 1;
        let c = Completion {
            id: aborted.id,
            addr,
            op: MemOp::Write,
            class: ServiceClass::RankRefresh,
            arrival: aborted.start,
            start: aborted.start,
            finish: self.now,
            preempted: true,
        };
        self.stats.record(&c);
        self.out.push(c);
        true
    }

    /// Starts a dequeued access on its (free) bank and occupies the data
    /// bus.
    fn start_demand(&mut self, Queued { txn, at }: Queued) {
        let flat = self.flat_bank(at.rank, at.bank);
        let service = self.service_cycles(txn.class, flat, at.row);
        let start = self.now;
        let finish = start + service;
        self.banks[flat].begin(txn.id, txn.class, start, finish, at.row);
        // The old `bus_free_at` has passed, so its wake-up was handled.
        self.bus_free_at = self.now + self.config.timing.burst_cycles();
        self.bus_wake = false;
        self.queued_per_rank[at.rank as usize] -= 1;
        self.pending.push(Reverse(Pending(Completion {
            id: txn.id,
            addr: txn.addr,
            op: txn.op,
            class: txn.class,
            arrival: txn.arrival,
            start,
            finish,
            preempted: false,
        })));
    }

    /// Attempts to start the oldest refresh batch whose banks are all free;
    /// true if one issued.
    fn try_issue_refresh(&mut self) -> bool {
        let Some(batch) = self.refresh_q.front() else {
            return false;
        };
        let all_free = batch
            .rows
            .iter()
            .all(|&(bank, _)| self.banks[self.flat_bank(batch.rank, bank)].is_free(self.now));
        if !all_free {
            return false;
        }
        let Some(batch) = self.refresh_q.pop_front() else {
            return false;
        };
        let dur = self
            .config
            .timing
            .rank_refresh_cycles(self.config.geometry.banks_per_rank);
        let finish = self.now + dur;
        for (&(bank, row), id) in batch.rows.iter().zip(batch.first..) {
            // Encode before `begin` so a failure (impossible: coordinates
            // are validated at enqueue) cannot leave a bank busy with no
            // pending completion.
            let Ok(addr) = self.decoder.encode(DecodedAddr {
                rank: batch.rank,
                bank,
                row,
                column: 0,
            }) else {
                continue;
            };
            let flat = self.flat_bank(batch.rank, bank);
            self.banks[flat].begin(id, ServiceClass::RankRefresh, self.now, finish, row);
            self.refreshing += 1;
            self.pending.push(Reverse(Pending(Completion {
                id,
                addr,
                op: MemOp::Write,
                class: ServiceClass::RankRefresh,
                arrival: self.now,
                start: self.now,
                finish,
                preempted: false,
            })));
        }
        // Recycle the emptied row buffer for the next enqueue.
        let mut rows = batch.rows;
        rows.clear();
        self.spare_rows.push(rows);
        true
    }

    // ------------------------------------------------------------------
    // Snapshot/restore
    // ------------------------------------------------------------------

    /// Serializes the mid-flight controller state that restore cannot
    /// derive (not the configuration, which the restorer must hold, so
    /// the banks are written one per configured bank with no count). The
    /// pending heap is written in `(finish, id)` order, so identical
    /// states produce identical bytes whatever the heap's array layout.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.now);
        w.put(&self.next_id);
        for bank in &self.banks {
            w.put(bank);
        }
        w.put(&self.bus_free_at);
        w.put(&self.bus_wake);
        save_txn_queue(&self.read_q, w);
        save_txn_queue(&self.write_q, w);
        w.put(&self.refresh_q);
        let mut pending: Vec<Completion> =
            self.pending.iter().map(|Reverse(Pending(c))| *c).collect();
        pending.sort_by_key(|c| (c.finish, c.id));
        w.put(&pending);
        w.put(&self.out);
        w.put(&self.stats);
        w.put(&self.wear);
        w.put(&self.draining_writes);
    }

    /// Restores state written by [`save_state`](Self::save_state) into a
    /// freshly built system of the *same configuration*. The read and
    /// write queues are refilled in place, so they keep the capacities
    /// [`new`](Self::new) gave them.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncation, bad enum tags, or a state the
    /// controller never reaches (such as a bank running an operation not
    /// pending).
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.now = r.take()?;
        self.next_id = r.take()?;
        for bank in &mut self.banks {
            *bank = r.take()?;
        }
        self.bus_free_at = r.take()?;
        self.bus_wake = r.take()?;
        load_txn_queue(r, &self.decoder, &mut self.read_q)?;
        load_txn_queue(r, &self.decoder, &mut self.write_q)?;
        self.refresh_q = r.take()?;
        let mut pending: Vec<Completion> = r.take()?;
        self.out = r.take()?;
        self.stats = r.take()?;
        self.wear = r.take()?;
        self.draining_writes = r.take()?;
        self.check_restored(&mut pending)?;
        self.pending = pending.into_iter().map(|c| Reverse(Pending(c))).collect();
        Ok(())
    }

    /// Rejects a restored state the controller never reaches, so nothing
    /// in a hostile payload can index out of range or underflow later, and
    /// derives the per-rank queue counts and running refresh rows.
    fn check_restored(&mut self, pending: &mut [Completion]) -> Result<(), SnapError> {
        let (now, corrupt) = (self.now, |what| Err(SnapError::Corrupt(what)));
        if self.bus_wake && self.bus_free_at <= now {
            return corrupt("bus wake-up is not in the future");
        }
        // Every id was handed out once, below `next_id`.
        let mut ids: Vec<TransactionId> = pending.iter().map(|c| c.id).collect();
        self.queued_per_rank.fill(0);
        for &Queued { txn, at } in self.read_q.iter().chain(&self.write_q) {
            if txn.arrival > now || !class_fits(txn.op, txn.class) {
                return corrupt("queued access that enqueue refuses or that arrives after now");
            }
            ids.push(txn.id);
            if let Some(n) = self.queued_per_rank.get_mut(at.rank as usize) {
                *n += 1;
            }
        }
        let mut handed_out = 0; // queued batches hold ascending id runs
        for batch in &self.refresh_q {
            let end = (batch.first.checked_add(batch.rows.len() as u64))
                .filter(|_| batch.first >= handed_out);
            let (Ok(()), Some(end)) = (self.check_batch(batch.rank, &batch.rows), end) else {
                return corrupt("queued refresh batch that enqueue refuses or out of order");
            };
            ids.extend(batch.first..end);
            handed_out = end;
        }
        ids.sort_unstable();
        let repeated = ids.windows(2).any(|w| matches!(w, [a, b] if a == b));
        if repeated || ids.last().is_some_and(|&id| id >= self.next_id) {
            return corrupt("transaction id repeated or never handed out");
        }
        let ordered = |c: &Completion| c.arrival <= c.start && c.start <= c.finish;
        if !self.out.iter().chain(pending.iter()).all(ordered) {
            return corrupt("completion arrives after it starts or starts after it finishes");
        }
        if !pending.iter().all(|c| c.start <= now && now < c.finish) {
            return corrupt("pending operation not running at now");
        }
        // Each operation a bank runs is pending as exactly that operation.
        pending.sort_unstable_by_key(|c| c.id);
        self.refreshing = 0;
        for (bank, op) in self
            .banks
            .iter()
            .filter_map(|b| b.in_flight(now).map(|op| (b, op)))
        {
            let entry = pending.binary_search_by_key(&op.id, |c| c.id);
            if !entry.is_ok_and(|k| pending.get(k).is_some_and(|c| bank.serving(c))) {
                return corrupt("bank runs an operation that is not pending");
            }
            self.refreshing += usize::from(op.class == ServiceClass::RankRefresh);
        }
        Ok(())
    }
}

/// Whether [`MemorySystem::enqueue`] accepts `class` for `op`.
fn class_fits(op: MemOp, class: ServiceClass) -> bool {
    matches!(
        (op, class),
        (MemOp::Read, ServiceClass::Read)
            | (
                MemOp::Write,
                ServiceClass::Write | ServiceClass::ResetOnlyWrite
            )
    )
}

/// Only the transactions: their decoded addresses are recomputed.
fn save_txn_queue(q: &VecDeque<Queued>, w: &mut SnapWriter) {
    w.put(&q.len());
    for queued in q {
        w.put(&queued.txn);
    }
}

/// Refills `q` in place; decoded addresses are not in the payload, they
/// are recomputed.
fn load_txn_queue(
    r: &mut SnapReader<'_>,
    decoder: &AddressDecoder,
    q: &mut VecDeque<Queued>,
) -> Result<(), SnapError> {
    let len = r.take_len(Transaction::MIN_BYTES)?;
    q.clear();
    for _ in 0..len {
        let txn: Transaction = r.take()?;
        let at = decoder.decode(txn.addr);
        q.push_back(Queued { txn, at });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingParams;

    fn tiny_system() -> MemorySystem {
        MemorySystem::new(MemConfig::tiny()).unwrap()
    }

    /// Address of (rank, bank, row, col) under the tiny geometry's default
    /// mapping.
    fn addr_of(mem: &MemorySystem, rank: u32, bank: u32, row: u32, column: u32) -> u64 {
        mem.decoder()
            .encode(crate::address::DecodedAddr {
                rank,
                bank,
                row,
                column,
            })
            .unwrap()
    }

    #[test]
    fn single_read_latency_is_service_time() {
        let mut mem = tiny_system();
        let t = TimingParams::paper_pcm();
        mem.enqueue(MemOp::Read, 0, ServiceClass::Read).unwrap();
        let done = mem.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].latency(), t.read_cycles() + t.burst_cycles());
        assert_eq!(done[0].queue_delay(), 0);
    }

    #[test]
    fn write_classes_have_distinct_latencies() {
        let t = TimingParams::paper_pcm();
        let mut mem = tiny_system();
        mem.enqueue(MemOp::Write, 0, ServiceClass::Write).unwrap();
        let full = mem.drain()[0].latency();
        assert_eq!(full, t.write_cycles());

        let mut mem = tiny_system();
        mem.enqueue(MemOp::Write, 0, ServiceClass::ResetOnlyWrite)
            .unwrap();
        let fast = mem.drain()[0].latency();
        assert_eq!(fast, t.reset_cycles());
        assert!(fast < full);
    }

    #[test]
    fn same_bank_accesses_serialize() {
        let mut mem = tiny_system();
        let a = addr_of(&mem, 0, 0, 0, 0);
        let b = addr_of(&mem, 0, 0, 1, 0); // same bank, different row
        mem.enqueue(MemOp::Write, a, ServiceClass::Write).unwrap();
        mem.enqueue(MemOp::Read, b, ServiceClass::Read).unwrap();
        let done = mem.drain();
        let write = done.iter().find(|c| c.op == MemOp::Write).unwrap();
        let read = done.iter().find(|c| c.op == MemOp::Read).unwrap();
        // The read arrived while the long write occupied the bank, so its
        // latency includes the wait (write blocking - the paper's read
        // latency effect).
        assert!(read.start >= write.finish);
        assert!(read.queue_delay() > 0);
    }

    #[test]
    fn different_banks_overlap() {
        let mut mem = tiny_system();
        let a = addr_of(&mem, 0, 0, 0, 0);
        let b = addr_of(&mem, 0, 1, 0, 0);
        mem.enqueue(MemOp::Write, a, ServiceClass::Write).unwrap();
        mem.enqueue(MemOp::Write, b, ServiceClass::Write).unwrap();
        let done = mem.drain();
        let starts: Vec<_> = done.iter().map(|c| c.start).collect();
        // Second write starts after only the burst-bus gap, not the full
        // write service time.
        let burst = TimingParams::paper_pcm().burst_cycles();
        assert_eq!(starts[1].saturating_sub(starts[0]), burst);
    }

    #[test]
    fn reads_prioritized_over_writes() {
        let mut mem = tiny_system();
        let w = addr_of(&mem, 0, 0, 0, 0);
        let r = addr_of(&mem, 0, 0, 1, 0);
        // Enqueue a write then a read to the same bank at the same cycle:
        // the write issues first (it was tried first while the queue was
        // otherwise empty), but with several writes queued behind, a read
        // arriving later still jumps ahead of them.
        mem.enqueue(MemOp::Write, w, ServiceClass::Write).unwrap();
        mem.enqueue(MemOp::Write, w, ServiceClass::Write).unwrap();
        mem.enqueue(MemOp::Write, w, ServiceClass::Write).unwrap();
        mem.enqueue(MemOp::Read, r, ServiceClass::Read).unwrap();
        let done = mem.drain();
        let read_finish = done.iter().find(|c| c.op == MemOp::Read).unwrap().finish;
        let last_write_finish = done
            .iter()
            .filter(|c| c.op == MemOp::Write)
            .map(|c| c.finish)
            .max()
            .unwrap();
        assert!(
            read_finish < last_write_finish,
            "read must overtake queued writes"
        );
    }

    #[test]
    fn queue_full_is_reported() {
        let mut mem = tiny_system();
        let cap = mem.config().write_queue_capacity;
        // Saturate one bank so nothing drains.
        let a = addr_of(&mem, 0, 0, 0, 0);
        let mut rejected = false;
        for _ in 0..=cap + 2 {
            match mem.enqueue(MemOp::Write, a, ServiceClass::Write) {
                Ok(_) => {}
                Err(SimError::QueueFull { capacity }) => {
                    assert_eq!(capacity, cap);
                    rejected = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(rejected);
        // Draining clears the backlog and subsequent enqueues succeed.
        mem.drain();
        mem.enqueue(MemOp::Write, a, ServiceClass::Write).unwrap();
    }

    #[test]
    fn mismatched_class_is_rejected() {
        let mut mem = tiny_system();
        assert!(mem.enqueue(MemOp::Read, 0, ServiceClass::Write).is_err());
        assert!(mem.enqueue(MemOp::Write, 0, ServiceClass::Read).is_err());
        assert!(mem
            .enqueue(MemOp::Read, 0, ServiceClass::RankRefresh)
            .is_err());
    }

    #[test]
    fn time_regression_is_rejected() {
        let mut mem = tiny_system();
        mem.advance_to(100).unwrap();
        assert!(matches!(
            mem.advance_to(50),
            Err(SimError::TimeRegression {
                now: 100,
                requested: 50
            })
        ));
    }

    #[test]
    fn rank_idleness_tracks_queues_and_banks() {
        let mut mem = tiny_system();
        assert!(mem.is_rank_idle(0));
        assert!(mem.is_rank_idle(1));
        let a = addr_of(&mem, 0, 0, 0, 0);
        mem.enqueue(MemOp::Write, a, ServiceClass::Write).unwrap();
        assert!(!mem.is_rank_idle(0), "bank busy");
        assert!(mem.is_rank_idle(1), "other rank unaffected");
        mem.drain();
        assert!(mem.is_rank_idle(0));
    }

    #[test]
    fn rank_refresh_occupies_all_listed_banks() {
        let mut mem = tiny_system();
        let t = TimingParams::paper_pcm();
        let banks = mem.config().geometry.banks_per_rank;
        let rows: Vec<(u32, u32)> = (0..banks).map(|b| (b, 7)).collect();
        let first = mem.enqueue_rank_refresh(0, &rows).unwrap();
        assert_eq!(first, 0, "fresh system assigns ids from zero");
        assert!(!mem.is_rank_idle(0));
        let done = mem.drain();
        assert_eq!(done.len(), banks as usize);
        let dur = t.rank_refresh_cycles(banks);
        for c in &done {
            assert_eq!(c.class, ServiceClass::RankRefresh);
            assert!(!c.preempted);
            assert_eq!(c.finish - c.start, dur);
        }
        assert_eq!(mem.stats().refreshes_completed, u64::from(banks));
    }

    #[test]
    fn write_pausing_preempts_refresh() {
        let mut mem = tiny_system();
        let rows: Vec<(u32, u32)> = vec![(0, 5), (1, 5)];
        mem.enqueue_rank_refresh(0, &rows).unwrap();
        // Refresh is now in flight on banks 0 and 1 of rank 0. A demand
        // write to bank 0 preempts that bank's refresh.
        let a = addr_of(&mem, 0, 0, 3, 0);
        mem.advance_to(2).unwrap();
        mem.enqueue(MemOp::Write, a, ServiceClass::Write).unwrap();
        let done = mem.drain();
        let preempted: Vec<_> = done.iter().filter(|c| c.preempted).collect();
        assert_eq!(preempted.len(), 1, "exactly bank 0's refresh row aborted");
        let write = done
            .iter()
            .find(|c| c.op == MemOp::Write && c.class == ServiceClass::Write)
            .unwrap();
        // The write started immediately at its arrival cycle - it did not
        // wait out the refresh.
        assert_eq!(write.queue_delay(), 0);
        // Bank 1's refresh still completed.
        assert_eq!(mem.stats().refreshes_completed, 1);
        assert_eq!(mem.stats().refreshes_preempted, 1);
    }

    #[test]
    fn busy_bus_scan_preempts_every_refresh_row_in_queue_order() {
        let mut mem = tiny_system();
        let read = addr_of(&mem, 0, 2, 0, 0);
        let to_bank1 = addr_of(&mem, 0, 1, 3, 0);
        let to_bank0 = addr_of(&mem, 0, 0, 3, 0);
        // The read takes the data bus for one burst, so both writes
        // queue with their banks free: bank 1's first, then bank 0's.
        mem.enqueue(MemOp::Read, read, ServiceClass::Read).unwrap();
        mem.enqueue(MemOp::Write, to_bank1, ServiceClass::Write)
            .unwrap();
        mem.enqueue(MemOp::Write, to_bank0, ServiceClass::Write)
            .unwrap();
        assert_eq!(mem.write_queue_len(), 2);
        // The refresh batch issues on the two free banks. The rescan that
        // follows still finds the bus busy, and must preempt both rows in
        // queue order, not stop once the wake-up event is due.
        let first = mem.enqueue_rank_refresh(0, &[(0, 5), (1, 5)]).unwrap();
        let done: Vec<_> = mem.advance_to(mem.now()).unwrap().collect();
        let preempted: Vec<_> = done.iter().filter(|c| c.preempted).map(|c| c.id).collect();
        assert_eq!(preempted, [first + 1, first], "bank 1's row, then bank 0's");
        assert_eq!(mem.stats().refreshes_preempted, 2);
        assert_eq!(mem.write_queue_len(), 2, "neither write can issue yet");
    }

    #[test]
    fn refresh_waits_for_busy_banks() {
        let mut mem = tiny_system();
        let a = addr_of(&mem, 0, 0, 0, 0);
        mem.enqueue(MemOp::Write, a, ServiceClass::Write).unwrap();
        mem.enqueue_rank_refresh(0, &[(0, 9)]).unwrap();
        let done = mem.drain();
        let write = done
            .iter()
            .find(|c| c.class == ServiceClass::Write)
            .unwrap();
        let refresh = done
            .iter()
            .find(|c| c.class == ServiceClass::RankRefresh)
            .unwrap();
        assert!(
            refresh.start >= write.finish,
            "refresh must wait for the demand write"
        );
        assert!(!refresh.preempted);
    }

    #[test]
    fn refresh_batch_validation() {
        let mut mem = tiny_system();
        assert!(mem.enqueue_rank_refresh(99, &[(0, 0)]).is_err());
        assert!(mem.enqueue_rank_refresh(0, &[]).is_err());
        assert!(mem.enqueue_rank_refresh(0, &[(99, 0)]).is_err());
        assert!(mem.enqueue_rank_refresh(0, &[(0, 9999)]).is_err());
        assert!(
            mem.enqueue_rank_refresh(0, &[(0, 1), (0, 2)]).is_err(),
            "duplicate bank"
        );
    }

    #[test]
    fn advance_to_returns_completions_in_finish_order() {
        let mut mem = tiny_system();
        let a = addr_of(&mem, 0, 0, 0, 0);
        let b = addr_of(&mem, 0, 1, 0, 0);
        mem.enqueue(MemOp::Write, a, ServiceClass::Write).unwrap();
        mem.enqueue(MemOp::Write, b, ServiceClass::ResetOnlyWrite)
            .unwrap();
        let done = mem.advance_to(10_000).unwrap().collect::<Vec<_>>();
        assert_eq!(done.len(), 2);
        assert!(done[0].finish <= done[1].finish);
        // The fast write finished first even though enqueued second.
        assert_eq!(done[0].class, ServiceClass::ResetOnlyWrite);
    }

    #[test]
    fn write_drain_mode_prioritizes_writes_when_queue_fills() {
        let mut mem = tiny_system();
        let high = mem.config().write_high_watermark;
        // Fill the write queue to the high watermark against one bank. The
        // first write issues immediately, so one extra enqueue is needed for
        // the *queued* occupancy to reach the watermark.
        let a = addr_of(&mem, 1, 2, 0, 0);
        for _ in 0..=high {
            mem.enqueue(MemOp::Write, a, ServiceClass::Write).unwrap();
        }
        // Now a read to the same bank: in drain mode, writes keep priority.
        let r = addr_of(&mem, 1, 2, 1, 0);
        mem.enqueue(MemOp::Read, r, ServiceClass::Read).unwrap();
        let done = mem.drain();
        let read = done.iter().find(|c| c.op == MemOp::Read).unwrap();
        let writes_before_read = done
            .iter()
            .filter(|c| c.op == MemOp::Write && c.finish <= read.start)
            .count();
        // The read could not bypass all queued writes: drain mode forced at
        // least (high - low) writes ahead of it.
        let min_ahead = mem.config().write_high_watermark - mem.config().write_low_watermark;
        assert!(
            writes_before_read >= min_ahead,
            "expected >= {min_ahead} writes to finish before the read, got {writes_before_read}"
        );
    }

    #[test]
    fn snapshot_mid_flight_resumes_bit_identically() {
        // Phase 1: mixed demand + refresh traffic, stopped mid-flight so
        // queues, banks, the pending heap, and refresh plumbing are all
        // populated at snapshot time.
        let mut a = tiny_system();
        for i in 0..20u64 {
            let (op, class) = if i % 3 == 0 {
                (MemOp::Read, ServiceClass::Read)
            } else {
                (MemOp::Write, ServiceClass::Write)
            };
            let _ = a.enqueue(op, i * 64, class);
            a.advance_to(a.now() + 13).unwrap();
        }
        a.enqueue_rank_refresh(1, &[(0, 5), (1, 6)]).unwrap();

        let bytes = saved(&a);
        let mut b = restored(&bytes).unwrap();
        // Restored state re-serializes to the identical payload, and what
        // restore derives matches the saved system.
        assert_eq!(saved(&b), bytes);
        assert_eq!(
            (b.refreshing, &b.queued_per_rank),
            (a.refreshing, &a.queued_per_rank)
        );

        // Phase 2: identical traffic into both; final state must match
        // byte-for-byte in its Debug rendering.
        for mem in [&mut a, &mut b] {
            for i in 20..40u64 {
                let _ = mem.enqueue(MemOp::Write, i * 64, ServiceClass::ResetOnlyWrite);
                mem.advance_to(mem.now() + 9).unwrap();
            }
            mem.drain();
        }
        assert_eq!(format!("{:#?}", a.stats()), format!("{:#?}", b.stats()));
        assert_eq!(a.wear().summary(), b.wear().summary());
        assert_eq!(a.now(), b.now());
    }

    fn saved(mem: &MemorySystem) -> Vec<u8> {
        let mut w = SnapWriter::new();
        mem.save_state(&mut w);
        w.into_bytes()
    }

    fn restored(bytes: &[u8]) -> Result<MemorySystem, SnapError> {
        let mut mem = tiny_system();
        let mut r = SnapReader::new(bytes);
        mem.restore_state(&mut r)?;
        r.finish().map(|()| mem)
    }

    /// A demand write running on bank 0 of rank 0, another queued behind
    /// it, and a refresh batch over banks 0 and 1 waiting for bank 0.
    fn busy_system() -> MemorySystem {
        let mut mem = tiny_system();
        let a = addr_of(&mem, 0, 0, 3, 0);
        mem.enqueue(MemOp::Write, a, ServiceClass::Write).unwrap();
        mem.enqueue(MemOp::Write, a, ServiceClass::Write).unwrap();
        let first = mem.enqueue_rank_refresh(0, &[(0, 5), (1, 6)]).unwrap();
        assert_eq!(first, 2, "two demand ids handed out before the batch");
        mem
    }

    /// Edits the earliest pending completion (the running write).
    fn edit_pending(mem: &mut MemorySystem, edit: impl FnOnce(&mut Completion)) {
        let Reverse(Pending(mut c)) = mem.pending.pop().unwrap();
        edit(&mut c);
        mem.pending.push(Reverse(Pending(c)));
    }

    const NEVER: &str = "transaction id repeated or never handed out";
    type Tamper = fn(&mut MemorySystem);

    /// Restores `busy_system()` saved after each `(error, tamper)` case
    /// edits its state (the payload of a CRC-valid but hostile
    /// checkpoint), expecting the error.
    fn assert_rejected(cases: &[(&'static str, Tamper)]) {
        assert!(restored(&saved(&busy_system())).is_ok(), "untampered");
        for (k, &(what, tamper)) in cases.iter().enumerate() {
            let mut mem = busy_system();
            tamper(&mut mem);
            let err = restored(&saved(&mem)).err();
            assert_eq!(err, Some(SnapError::Corrupt(what)), "case {k}");
        }
    }

    #[test]
    fn queued_refresh_batches_round_trip_with_their_ids() {
        let bytes = saved(&busy_system());
        let mut b = restored(&bytes).unwrap();
        assert_eq!(saved(&b), bytes, "queued batches re-serialize identically");
        let refresh = |c: &Completion| (c.class == ServiceClass::RankRefresh).then_some(c.id);
        let ids: Vec<_> = b.drain().iter().filter_map(refresh).collect();
        assert_eq!(ids, [2, 3], "restored batch issues with its original ids");
    }

    #[test]
    fn restore_rejects_a_refresh_batch_enqueue_would_refuse() {
        const REFUSED: &str = "queued refresh batch that enqueue refuses or out of order";
        assert_rejected(&[
            (REFUSED, |m| m.refresh_q[0].rows[1].0 = 9),
            (REFUSED, |m| m.refresh_q[0].rank = 2),
            (REFUSED, |m| m.refresh_q[0].rows[0].1 = 64),
            (REFUSED, |m| m.refresh_q[0].rows[1].0 = 0),
            (REFUSED, |m| m.refresh_q[0].rows.clear()),
            (REFUSED, |m| m.refresh_q[0].first = u64::MAX),
            (NEVER, |m| m.refresh_q[0].first = 3),
            (NEVER, |m| m.refresh_q[0].first = 1),
        ]);
    }

    #[test]
    fn restored_rank_idleness_follows_the_restored_queues() {
        let mut mem = busy_system();
        mem.queued_per_rank = vec![0, 7]; // disagrees with the queues, unsaved
        let mut b = restored(&saved(&mem)).unwrap();
        assert!(!b.rank_queue_empty(0), "rank 0 has a queued write");
        assert!(b.is_rank_idle(1));
        b.drain();
        assert!(b.is_rank_idle(0) && b.is_rank_idle(1));
    }

    #[test]
    fn restore_rejects_accesses_and_completions_out_of_order() {
        const QUEUED: &str = "queued access that enqueue refuses or that arrives after now";
        const ORDER: &str = "completion arrives after it starts or starts after it finishes";
        assert_rejected(&[
            (QUEUED, |m| m.write_q[0].txn.arrival = m.now + 1),
            (QUEUED, |m| m.write_q[0].txn.op = MemOp::Read),
            (ORDER, |m| edit_pending(m, |c| c.arrival = c.finish + 1)),
            (ORDER, |m| {
                m.out.extend(m.pending.iter().map(|p| p.0 .0));
                m.out[0].start = m.out[0].finish + 1;
            }),
        ]);
    }

    #[test]
    fn restore_rejects_a_past_wake_up_and_banks_that_disagree_with_pending() {
        const WAKE: &str = "bus wake-up is not in the future";
        const NOT_PENDING: &str = "bank runs an operation that is not pending";
        const RUNNING: &str = "pending operation not running at now";
        assert_rejected(&[
            (WAKE, |m| (m.bus_wake, m.bus_free_at) = (true, m.now)),
            (NOT_PENDING, |m| m.pending.clear()),
            (NOT_PENDING, |m| edit_pending(m, |c| c.finish += 1)),
            (RUNNING, |m| edit_pending(m, |c| c.finish = 0)),
            (NEVER, |m| m.pending.push(*m.pending.peek().unwrap())),
        ]);
    }

    #[test]
    fn restore_keeps_the_configured_queue_capacities() {
        let b = restored(&saved(&busy_system())).unwrap();
        assert_eq!((b.read_q.len(), b.write_q.len()), (0, 1));
        assert!(b.read_q.capacity() >= b.config.read_queue_capacity);
        assert!(b.write_q.capacity() >= b.config.write_queue_capacity);
    }

    #[test]
    fn idle_once_nothing_runs_and_every_completion_is_drained() {
        let mut mem = tiny_system();
        assert!(mem.is_idle());
        mem.enqueue_rank_refresh(0, &[(0, 5)]).unwrap();
        mem.advance_to(2).unwrap();
        assert!(!mem.is_idle(), "the refresh row runs");
        // A write to bank 0 preempts the row; its stale pending entry
        // outlives the write.
        let a = addr_of(&mem, 0, 0, 3, 0);
        mem.enqueue(MemOp::Write, a, ServiceClass::Write).unwrap();
        let write_done = mem.now() + TimingParams::paper_pcm().write_cycles();
        assert!(!mem.is_idle(), "the preempted row is not drained yet");
        assert_eq!(mem.advance_to(write_done - 1).unwrap().count(), 1);
        assert!(!mem.is_idle(), "the write runs");
        let done = mem.advance_to(write_done).unwrap();
        assert!(!done.as_slice().is_empty());
        drop(done);
        assert_eq!(mem.pending.len(), 1, "the preempted row's stale entry");
        assert!(mem.is_idle());
    }

    #[test]
    fn stats_accumulate_across_advances() {
        let mut mem = tiny_system();
        for i in 0..10u64 {
            let _ = mem.enqueue(MemOp::Read, i * 64, ServiceClass::Read);
            mem.advance_to(mem.now() + 50).unwrap();
        }
        mem.drain();
        assert_eq!(mem.stats().read_latency.count, 10);
        assert!(mem.stats().read_latency.mean() > 0.0);
    }
}

#[cfg(test)]
mod row_policy_tests {
    use super::*;
    use crate::config::RowPolicy;
    use crate::timing::TimingParams;

    fn open_page_system() -> MemorySystem {
        let mut cfg = MemConfig::tiny();
        cfg.row_policy = RowPolicy::OpenPage;
        MemorySystem::new(cfg).unwrap()
    }

    #[test]
    fn open_page_read_hits_are_faster() {
        let t = TimingParams::paper_pcm();
        let mut mem = open_page_system();
        // First read opens the row (full latency)...
        mem.enqueue(MemOp::Read, 0, ServiceClass::Read).unwrap();
        let first = mem.drain()[0].latency();
        assert_eq!(first, t.read_cycles() + t.burst_cycles());
        // ...the second read of the same row hits the row buffer.
        mem.enqueue(MemOp::Read, 64, ServiceClass::Read).unwrap();
        let second = mem.drain()[0].latency();
        assert_eq!(second, t.row_hit_read_cycles() + t.burst_cycles());
        assert!(second < first);
    }

    #[test]
    fn open_page_misses_pay_full_latency() {
        let t = TimingParams::paper_pcm();
        let mut mem = open_page_system();
        mem.enqueue(MemOp::Read, 0, ServiceClass::Read).unwrap();
        mem.drain();
        // A different row of the same bank: conflict, full latency again.
        let g = mem.config().geometry;
        let other_row = mem
            .decoder()
            .encode(crate::address::DecodedAddr {
                rank: 0,
                bank: 0,
                row: 1,
                column: 0,
            })
            .unwrap();
        assert_eq!(mem.decoder().decode(other_row).bank, 0);
        assert_eq!(mem.decoder().decode(other_row).row, 1);
        mem.enqueue(MemOp::Read, other_row, ServiceClass::Read)
            .unwrap();
        let miss = mem.drain()[0].latency();
        assert_eq!(miss, t.read_cycles() + t.burst_cycles());
        let _ = g;
    }

    #[test]
    fn closed_page_never_hits() {
        let t = TimingParams::paper_pcm();
        let mut mem = MemorySystem::new(MemConfig::tiny()).unwrap();
        for _ in 0..3 {
            mem.enqueue(MemOp::Read, 0, ServiceClass::Read).unwrap();
            let l = mem.drain()[0].latency();
            assert_eq!(l, t.read_cycles() + t.burst_cycles());
        }
    }

    #[test]
    fn write_pausing_off_makes_demand_wait() {
        let mut cfg = MemConfig::tiny();
        cfg.write_pausing = false;
        let mut mem = MemorySystem::new(cfg).unwrap();
        mem.enqueue_rank_refresh(0, &[(0, 5)]).unwrap();
        mem.advance_to(2).unwrap();
        // A demand write to the refreshing bank cannot preempt it.
        let addr = mem
            .decoder()
            .encode(crate::address::DecodedAddr {
                rank: 0,
                bank: 0,
                row: 3,
                column: 0,
            })
            .unwrap();
        mem.enqueue(MemOp::Write, addr, ServiceClass::Write)
            .unwrap();
        let done = mem.drain();
        let refresh = done
            .iter()
            .find(|c| c.class == ServiceClass::RankRefresh)
            .unwrap();
        let write = done
            .iter()
            .find(|c| c.class == ServiceClass::Write)
            .unwrap();
        assert!(!refresh.preempted, "pausing disabled: refresh completes");
        assert!(
            write.start >= refresh.finish,
            "demand write waited out the refresh"
        );
    }
}

#[cfg(test)]
mod scheduler_tests {
    use super::*;
    use crate::config::SchedulerPolicy;

    fn system_with(policy: SchedulerPolicy) -> MemorySystem {
        let mut cfg = MemConfig::tiny();
        cfg.scheduler = policy;
        MemorySystem::new(cfg).unwrap()
    }

    fn addr_of(mem: &MemorySystem, rank: u32, bank: u32, row: u32) -> u64 {
        mem.decoder()
            .encode(crate::address::DecodedAddr {
                rank,
                bank,
                row,
                column: 0,
            })
            .unwrap()
    }

    #[test]
    fn strict_fcfs_head_blocks_younger_ready_work() {
        // Two writes to bank A back-to-back, then one to free bank B. Under
        // FR-FCFS the bank-B write bypasses the blocked head; under strict
        // FCFS it must wait its turn.
        let run = |policy| {
            let mut mem = system_with(policy);
            let a = addr_of(&mem, 0, 0, 0);
            let b = addr_of(&mem, 0, 1, 0);
            mem.enqueue(MemOp::Write, a, ServiceClass::Write).unwrap();
            mem.enqueue(MemOp::Write, a, ServiceClass::Write).unwrap();
            mem.enqueue(MemOp::Write, b, ServiceClass::Write).unwrap();
            let done = mem.drain();
            done.iter().find(|c| c.addr == b).unwrap().start
        };
        let frfcfs_start = run(SchedulerPolicy::FrFcfs);
        let fcfs_start = run(SchedulerPolicy::StrictFcfs);
        assert!(
            fcfs_start > frfcfs_start,
            "strict FCFS must delay the bank-B write ({fcfs_start} vs {frfcfs_start})"
        );
    }

    #[test]
    fn read_always_first_never_drains_writes() {
        let mut mem = system_with(SchedulerPolicy::ReadAlwaysFirst);
        let cap = mem.config().write_queue_capacity;
        let w = addr_of(&mem, 1, 2, 0);
        // Saturate the write queue past the (ignored) high watermark.
        for _ in 0..cap {
            let _ = mem.enqueue(MemOp::Write, w, ServiceClass::Write);
        }
        let r = addr_of(&mem, 1, 2, 1);
        mem.enqueue(MemOp::Read, r, ServiceClass::Read).unwrap();
        let done = mem.drain();
        let read = done.iter().find(|c| c.op == MemOp::Read).unwrap();
        let writes_before_read = done
            .iter()
            .filter(|c| c.op == MemOp::Write && c.finish <= read.start)
            .count();
        // Only the in-flight write can precede the read; drain mode never
        // forces more ahead of it.
        assert!(
            writes_before_read <= 1,
            "read must bypass the whole write queue, {writes_before_read} writes got ahead"
        );
    }

    #[test]
    fn policies_conserve_work() {
        for policy in [
            SchedulerPolicy::FrFcfs,
            SchedulerPolicy::StrictFcfs,
            SchedulerPolicy::ReadAlwaysFirst,
        ] {
            let mut mem = system_with(policy);
            let mut submitted = 0;
            for i in 0..40u64 {
                mem.advance_to(i * 10).unwrap();
                let op = if i % 2 == 0 {
                    MemOp::Read
                } else {
                    MemOp::Write
                };
                let class = if i % 2 == 0 {
                    ServiceClass::Read
                } else {
                    ServiceClass::Write
                };
                if mem.enqueue(op, i * 64, class).is_ok() {
                    submitted += 1;
                }
            }
            mem.drain();
            let s = mem.stats();
            assert_eq!(
                s.read_latency.count + s.write_latency.count,
                submitted,
                "{policy:?}"
            );
        }
    }

    #[test]
    fn refresh_batch_min_bytes_bounds_its_smallest_encoding() {
        crate::snap::assert_min_bytes::<RefreshBatch>();
    }
}
