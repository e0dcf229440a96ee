//! PCM-refresh: opportunistic re-initialization of exhausted rows (§3.2).
//!
//! Once a row reaches the WOM rewrite limit, its next write (the α-write)
//! pays full SET latency. PCM-refresh hides that cost by using idle rank
//! cycles: every refresh period the controller picks a target rank from
//! the pool of idle ranks in round-robin fashion and issues a burst-mode
//! refresh of one exhausted row per bank, guided by a small per-bank *row
//! address table* (the paper uses 5 entries/bank). A *refresh threshold*
//! `r_th` skips ranks where too few banks have refreshable work, and write
//! pausing (implemented in the simulator) lets demand accesses preempt an
//! ongoing refresh.

use crate::error::WomPcmError;
use pcm_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;

/// Tuning parameters of the PCM-refresh engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshConfig {
    /// Entries in each bank's row address table. Paper: 5.
    pub table_depth: usize,
    /// Refresh threshold `r_th` in percent (§3.2): an idle rank is only
    /// refreshed when strictly more than `r_th`% of its banks have at
    /// least one exhausted row recorded. 0 refreshes any idle rank with
    /// work; 100 effectively disables refresh.
    pub threshold_pct: u8,
}

impl RefreshConfig {
    /// The paper's configuration: 5-entry tables, threshold 0 (any idle
    /// rank with at least one refreshable row qualifies).
    #[must_use]
    pub fn paper() -> Self {
        Self {
            table_depth: 5,
            threshold_pct: 0,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] if `table_depth` is zero or
    /// `threshold_pct > 100`.
    pub fn validate(&self) -> Result<(), WomPcmError> {
        if self.table_depth == 0 {
            return Err(WomPcmError::InvalidConfig(
                "refresh table_depth must be positive".into(),
            ));
        }
        if self.threshold_pct > 100 {
            return Err(WomPcmError::InvalidConfig(format!(
                "refresh threshold must be at most 100%, got {}",
                self.threshold_pct
            )));
        }
        Ok(())
    }
}

impl Default for RefreshConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// One bank's row address table: the most recent rows that reached the
/// rewrite limit, FIFO-evicted at the configured depth. Its buffer is
/// sized to that depth when the engine is built, and restore refills it
/// in place, so recording a row never allocates.
#[derive(Debug, Clone)]
struct RowAddressTable {
    rows: VecDeque<u32>,
}

impl RowAddressTable {
    fn record(&mut self, row: u32, depth: usize) {
        // Hot case: a row being hammered past its budget re-records
        // itself every write; already-newest needs no scan at all.
        if self.rows.back() == Some(&row) {
            return;
        }
        if let Some(pos) = self.rows.iter().position(|&r| r == row) {
            self.rows.remove(pos);
        }
        if self.rows.len() == depth {
            self.rows.pop_front();
        }
        self.rows.push_back(row);
    }

    fn remove(&mut self, row: u32) {
        if let Some(pos) = self.rows.iter().position(|&r| r == row) {
            self.rows.remove(pos);
        }
    }

    fn oldest(&self) -> Option<u32> {
        self.rows.front().copied()
    }

    fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// The PCM-refresh engine: per-bank row address tables plus the
/// round-robin idle-rank selection policy.
///
/// ```
/// use wom_pcm::refresh::{RefreshConfig, RefreshEngine};
///
/// # fn main() -> Result<(), wom_pcm::WomPcmError> {
/// let mut engine = RefreshEngine::new(RefreshConfig::paper(), 2, 4)?;
/// // A demand alpha-write tells the engine row 7 of (rank 0, bank 1) is
/// // exhausted; the next idle period plans its refresh.
/// engine.record_exhausted(0, 1, 7);
/// let mut rows = Vec::new();
/// let rank = engine.plan_into(&[0, 1], &mut rows);
/// assert_eq!(rank, Some(0), "rank 0 has refreshable work");
/// assert_eq!(rows, [(1, 7)]);
/// # Ok(())
/// # }
/// ```
///
/// The engine is driven by its owner (the WOM-PCM system): the owner
/// reports exhausted rows via [`record_exhausted`](RefreshEngine::record_exhausted),
/// asks for a refresh plan each period via [`plan_into`](RefreshEngine::plan_into)
/// (passing the currently idle ranks), and reports each completed
/// refresh via [`row_refreshed`](RefreshEngine::row_refreshed); a
/// preempted row stays in its table.
#[derive(Debug, Clone)]
pub struct RefreshEngine {
    config: RefreshConfig,
    ranks: u32,
    banks_per_rank: u32,
    /// Row address tables, indexed by flat bank.
    tables: Vec<RowAddressTable>,
    /// Round-robin cursor over ranks.
    cursor: u32,
    /// Non-empty tables per rank, maintained incrementally so both the
    /// per-tick no-work test and the threshold check
    /// ([`refreshable_banks`](Self::refreshable_banks)) are integer
    /// reads instead of bank scans.
    pending_banks: Vec<u32>,
    /// Non-empty tables across the channel (the sum of `pending_banks`).
    pending_total: u32,
}

impl RefreshEngine {
    /// Creates an engine for a channel of `ranks × banks_per_rank` banks.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] on a zero-sized channel or an
    /// invalid [`RefreshConfig`].
    pub fn new(
        config: RefreshConfig,
        ranks: u32,
        banks_per_rank: u32,
    ) -> Result<Self, WomPcmError> {
        config.validate()?;
        if ranks == 0 || banks_per_rank == 0 {
            return Err(WomPcmError::InvalidConfig(
                "channel must have ranks and banks".into(),
            ));
        }
        Ok(Self {
            config,
            ranks,
            banks_per_rank,
            tables: (0..ranks * banks_per_rank)
                .map(|_| RowAddressTable {
                    rows: VecDeque::with_capacity(config.table_depth),
                })
                .collect(),
            cursor: 0,
            pending_banks: vec![0; ranks as usize],
            pending_total: 0,
        })
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &RefreshConfig {
        &self.config
    }

    fn flat(&self, rank: u32, bank: u32) -> usize {
        (rank * self.banks_per_rank + bank) as usize
    }

    /// Records that `(rank, bank, row)` has reached the rewrite limit. The
    /// newest entries displace the oldest once the table depth is reached
    /// ("the most recent 5 pages that have reached the rewrite limit").
    ///
    /// # Panics
    ///
    /// Panics if `rank`/`bank` are out of range.
    pub fn record_exhausted(&mut self, rank: u32, bank: u32, row: u32) {
        assert!(
            rank < self.ranks && bank < self.banks_per_rank,
            "rank/bank out of range"
        );
        let depth = self.config.table_depth;
        let idx = self.flat(rank, bank);
        let table = &mut self.tables[idx];
        if table.is_empty() {
            self.pending_banks[rank as usize] += 1;
            self.pending_total += 1;
        }
        table.record(row, depth);
    }

    /// Removes a row from its table: it was refreshed, or a demand α-write
    /// re-initialized it anyway.
    ///
    /// # Panics
    ///
    /// Panics if `rank`/`bank` are out of range.
    pub fn row_refreshed(&mut self, rank: u32, bank: u32, row: u32) {
        assert!(
            rank < self.ranks && bank < self.banks_per_rank,
            "rank/bank out of range"
        );
        let idx = self.flat(rank, bank);
        let table = &mut self.tables[idx];
        let was_empty = table.is_empty();
        table.remove(row);
        if !was_empty && table.is_empty() {
            self.pending_banks[rank as usize] -= 1;
            self.pending_total -= 1;
        }
    }

    /// True when any bank has a refreshable row recorded. O(1): periodic
    /// tick paths use this to skip idle-rank qualification entirely in
    /// the (common) steady state where nothing is exhausted.
    #[must_use]
    pub fn has_work(&self) -> bool {
        self.pending_total > 0
    }

    /// Number of banks of `rank` with at least one exhausted row
    /// recorded. O(1): read off the incrementally maintained counters.
    #[must_use]
    pub fn refreshable_banks(&self, rank: u32) -> u32 {
        self.pending_banks[rank as usize]
    }

    /// Picks the refresh target for this period from `idle_ranks`
    /// (round-robin, threshold-filtered): fills `rows` with the target
    /// rank's `(bank, row)` pairs (clearing it first) and returns the
    /// rank, or `None` (with `rows` cleared) when no idle rank qualifies.
    /// Periodic callers pass a reused buffer, so planning allocates
    /// nothing.
    ///
    /// The plan lists the *oldest* recorded row of every non-empty bank
    /// table in the target rank. Rows stay recorded until
    /// [`row_refreshed`](Self::row_refreshed) confirms them, so a
    /// preempted refresh is retried on a later period.
    pub fn plan_into(&mut self, idle_ranks: &[u32], rows: &mut Vec<(u32, u32)>) -> Option<u32> {
        rows.clear();
        if self.pending_total == 0 || idle_ranks.is_empty() {
            return None;
        }
        // Round-robin: try ranks starting at the cursor.
        for offset in 0..self.ranks {
            let rank = (self.cursor + offset) % self.ranks;
            if !idle_ranks.contains(&rank) {
                continue;
            }
            let refreshable = self.refreshable_banks(rank);
            if refreshable == 0 {
                continue;
            }
            // r_th: strictly more than threshold% of banks must have work.
            let needed = (u64::from(self.banks_per_rank) * u64::from(self.config.threshold_pct))
                .div_ceil(100);
            if u64::from(refreshable) < needed.max(1) {
                continue;
            }
            rows.extend(
                (0..self.banks_per_rank)
                    .filter_map(|b| self.tables[self.flat(rank, b)].oldest().map(|row| (b, row))),
            );
            self.cursor = (rank + 1) % self.ranks;
            return Some(rank);
        }
        None
    }

    /// Appends the round-robin cursor, then each bank's row address table
    /// (one per bank, with no count). The configuration and the
    /// dimensions are not written, and neither are the derived
    /// `pending_banks` / `pending_total` counters: `load_state`
    /// recomputes them from the tables.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.cursor);
        for table in &self.tables {
            w.put(&table.rows);
        }
    }

    /// Restores state written by [`save_state`](Self::save_state) into
    /// this engine, built from the same configuration. Each table is
    /// refilled in place, so it keeps the depth-sized buffer
    /// [`new`](Self::new) gave it.
    ///
    /// # Errors
    ///
    /// Propagates payload truncation; [`SnapError::Corrupt`] for a
    /// cursor past the ranks or a table deeper than `table_depth`.
    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.cursor = r.take()?;
        if self.cursor >= self.ranks {
            return Err(SnapError::Corrupt("refresh engine parameters"));
        }
        self.pending_banks.fill(0);
        self.pending_total = 0;
        let banks_per_rank = self.banks_per_rank as usize;
        for (flat, table) in self.tables.iter_mut().enumerate() {
            let len = r.take_len(u32::MIN_BYTES)?;
            if len > self.config.table_depth {
                return Err(SnapError::Corrupt("row address table overflows depth"));
            }
            table.rows.clear();
            for _ in 0..len {
                table.rows.push_back(r.take()?);
            }
            if len > 0 {
                if let Some(pending) = self.pending_banks.get_mut(flat / banks_per_rank) {
                    *pending += 1;
                }
                self.pending_total += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> RefreshEngine {
        RefreshEngine::new(RefreshConfig::paper(), 2, 4).unwrap()
    }

    /// The plan [`RefreshEngine::plan_into`] makes, as `(rank, rows)`.
    fn plan(e: &mut RefreshEngine, idle_ranks: &[u32]) -> Option<(u32, Vec<(u32, u32)>)> {
        let mut rows = Vec::new();
        e.plan_into(idle_ranks, &mut rows).map(|rank| (rank, rows))
    }

    fn saved(e: &RefreshEngine) -> Vec<u8> {
        let mut w = SnapWriter::new();
        e.save_state(&mut w);
        w.into_bytes()
    }

    fn restored(bytes: &[u8]) -> Result<RefreshEngine, SnapError> {
        let mut e = engine();
        let mut r = SnapReader::new(bytes);
        e.load_state(&mut r)?;
        r.finish().map(|()| e)
    }

    #[test]
    fn restore_rebuilds_the_counters_and_checks_the_run_state() {
        let mut e = engine(); // 2 ranks × 4 banks, depth 5
        e.record_exhausted(0, 1, 5);
        e.record_exhausted(1, 3, 6);
        e.record_exhausted(1, 3, 7);
        assert_eq!(plan(&mut e, &[0]).map(|(rank, _)| rank), Some(0));
        let bytes = saved(&e);
        let mut back = restored(&bytes).expect("restores");
        assert_eq!((back.cursor, back.pending_total), (1, 2));
        assert_eq!(back.pending_banks, [1, 1]);
        assert!(back.tables.iter().all(|t| t.rows.capacity() >= 5));
        assert_eq!(plan(&mut back, &[0, 1]), Some((1, vec![(3, 6)])));

        let mut tampered = bytes.clone();
        tampered[..4].copy_from_slice(&2u32.to_le_bytes()); // cursor = ranks
        assert_eq!(
            restored(&tampered).err(),
            Some(SnapError::Corrupt("refresh engine parameters"))
        );
        // A sixth row in the last bank's table.
        let mut deep = bytes[..bytes.len() - 2 * 4 - 8].to_vec();
        deep.extend(6u64.to_le_bytes());
        (1..=6u32).for_each(|row| deep.extend(row.to_le_bytes()));
        assert_eq!(
            restored(&deep).err(),
            Some(SnapError::Corrupt("row address table overflows depth"))
        );
    }

    #[test]
    fn empty_engine_plans_nothing() {
        let mut e = engine();
        assert_eq!(plan(&mut e, &[0, 1]), None);
        assert_eq!(plan(&mut e, &[]), None);
    }

    #[test]
    fn plan_lists_oldest_row_per_bank() {
        let mut e = engine();
        e.record_exhausted(0, 0, 10);
        e.record_exhausted(0, 0, 11);
        e.record_exhausted(0, 2, 20);
        assert_eq!(plan(&mut e, &[0]), Some((0, vec![(0, 10), (2, 20)])));
    }

    #[test]
    fn busy_ranks_are_skipped() {
        let mut e = engine();
        e.record_exhausted(0, 0, 1);
        assert_eq!(plan(&mut e, &[1]), None, "rank 0 has work but is not idle");
        assert!(plan(&mut e, &[0]).is_some());
    }

    #[test]
    fn round_robin_rotates_between_ranks() {
        let mut e = engine();
        e.record_exhausted(0, 0, 1);
        e.record_exhausted(1, 0, 2);
        let mut rank = || plan(&mut e, &[0, 1]).map(|(rank, _)| rank);
        assert_eq!(rank(), Some(0));
        // Rank 0's row was NOT yet confirmed refreshed, but the cursor
        // advanced, so rank 1 goes next.
        assert_eq!(rank(), Some(1));
        assert_eq!(rank(), Some(0), "wraps back");
    }

    #[test]
    fn table_depth_evicts_oldest() {
        let mut e = RefreshEngine::new(
            RefreshConfig {
                table_depth: 2,
                threshold_pct: 0,
            },
            1,
            1,
        )
        .unwrap();
        e.record_exhausted(0, 0, 1);
        e.record_exhausted(0, 0, 2);
        e.record_exhausted(0, 0, 3); // evicts row 1
        assert_eq!(plan(&mut e, &[0]), Some((0, vec![(0, 2)])));
    }

    #[test]
    fn re_recording_a_row_moves_it_to_newest() {
        let mut e = RefreshEngine::new(
            RefreshConfig {
                table_depth: 2,
                threshold_pct: 0,
            },
            1,
            1,
        )
        .unwrap();
        e.record_exhausted(0, 0, 1);
        e.record_exhausted(0, 0, 2);
        e.record_exhausted(0, 0, 1); // refreshes recency of row 1
        e.record_exhausted(0, 0, 3); // evicts row 2, not row 1
        assert_eq!(plan(&mut e, &[0]), Some((0, vec![(0, 1)])));
    }

    #[test]
    fn refreshed_rows_leave_the_table() {
        let mut e = engine();
        e.record_exhausted(0, 1, 5);
        e.row_refreshed(0, 1, 5);
        assert_eq!(plan(&mut e, &[0]), None);
    }

    #[test]
    fn threshold_filters_sparse_ranks() {
        // 4 banks/rank, threshold 50% -> at least 2 banks must have work.
        let mut e = RefreshEngine::new(
            RefreshConfig {
                table_depth: 5,
                threshold_pct: 50,
            },
            1,
            4,
        )
        .unwrap();
        e.record_exhausted(0, 0, 1);
        assert_eq!(
            plan(&mut e, &[0]),
            None,
            "1 of 4 banks is below the 50% threshold"
        );
        e.record_exhausted(0, 1, 2);
        assert_eq!(plan(&mut e, &[0]), Some((0, vec![(0, 1), (1, 2)])));
    }

    #[test]
    fn threshold_100_requires_all_banks() {
        let mut e = RefreshEngine::new(
            RefreshConfig {
                table_depth: 5,
                threshold_pct: 100,
            },
            1,
            2,
        )
        .unwrap();
        e.record_exhausted(0, 0, 1);
        assert_eq!(plan(&mut e, &[0]), None);
        e.record_exhausted(0, 1, 1);
        assert!(plan(&mut e, &[0]).is_some());
    }

    #[test]
    fn config_validation() {
        assert!(RefreshConfig {
            table_depth: 0,
            threshold_pct: 0
        }
        .validate()
        .is_err());
        assert!(RefreshConfig {
            table_depth: 5,
            threshold_pct: 101
        }
        .validate()
        .is_err());
        assert!(RefreshConfig::paper().validate().is_ok());
        assert!(RefreshEngine::new(RefreshConfig::paper(), 0, 4).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_bank_panics() {
        let mut e = engine();
        e.record_exhausted(0, 99, 0);
    }

    #[test]
    fn pending_counters_track_table_occupancy() {
        let mut e = engine(); // 2 ranks × 4 banks
        assert!(!e.has_work());
        e.record_exhausted(0, 1, 5);
        e.record_exhausted(0, 1, 6); // same bank: still one refreshable bank
        e.record_exhausted(1, 0, 7);
        assert!(e.has_work());
        assert_eq!(e.refreshable_banks(0), 1);
        assert_eq!(e.refreshable_banks(1), 1);
        e.row_refreshed(0, 1, 5);
        assert_eq!(e.refreshable_banks(0), 1, "row 6 is still recorded");
        e.row_refreshed(0, 1, 6);
        assert_eq!(e.refreshable_banks(0), 0);
        e.row_refreshed(1, 0, 99); // absent row: no change
        assert_eq!(e.refreshable_banks(1), 1);
        e.row_refreshed(1, 0, 7);
        assert!(!e.has_work());
    }

    #[test]
    fn plan_into_clears_and_reuses_the_buffer() {
        let mut e = engine();
        e.record_exhausted(0, 0, 10);
        e.record_exhausted(0, 2, 20);
        e.record_exhausted(1, 1, 30);
        let mut scratch = vec![(9, 9); 8]; // stale content must not leak
        let buffer = scratch.as_ptr();
        assert_eq!(e.plan_into(&[0, 1], &mut scratch), Some(0));
        assert_eq!(scratch, [(0, 10), (2, 20)]);
        assert_eq!(scratch.as_ptr(), buffer, "the buffer is reused");
        // A no-plan call clears the buffer instead of leaving stale rows.
        assert_eq!(e.plan_into(&[], &mut scratch), None);
        assert!(scratch.is_empty());
    }

    /// Pins the paper-depth (5) row-address-table semantics so a future
    /// reimplementation of the O(depth) scans cannot drift: re-recording
    /// dedups and moves the row to most-recent, and the sixth distinct
    /// row displaces the oldest.
    mod table_semantics_at_depth_5 {
        use super::*;

        fn paper_engine() -> RefreshEngine {
            let e = RefreshEngine::new(RefreshConfig::paper(), 1, 1).unwrap();
            assert_eq!(e.config().table_depth, 5);
            e
        }

        /// The full table content, oldest first, via repeated
        /// plan/confirm rounds (each plan reports the oldest row).
        fn drain(e: &mut RefreshEngine) -> Vec<u32> {
            let mut rows = Vec::new();
            while let Some((_, planned)) = plan(e, &[0]) {
                let &(bank, row) = &planned[0];
                rows.push(row);
                e.row_refreshed(0, bank, row);
            }
            rows
        }

        #[test]
        fn sixth_distinct_row_evicts_the_oldest() {
            let mut e = paper_engine();
            for row in 1..=6 {
                e.record_exhausted(0, 0, row);
            }
            assert_eq!(drain(&mut e), vec![2, 3, 4, 5, 6], "row 1 displaced");
        }

        #[test]
        fn re_recording_dedups_and_renews_recency() {
            let mut e = paper_engine();
            for row in 1..=5 {
                e.record_exhausted(0, 0, row);
            }
            e.record_exhausted(0, 0, 1); // full table: renew, don't evict
            e.record_exhausted(0, 0, 6); // displaces row 2, not row 1
            assert_eq!(drain(&mut e), vec![3, 4, 5, 1, 6]);
        }

        #[test]
        fn repeated_hammering_of_one_row_keeps_one_entry() {
            let mut e = paper_engine();
            e.record_exhausted(0, 0, 1);
            e.record_exhausted(0, 0, 2);
            for _ in 0..100 {
                e.record_exhausted(0, 0, 2); // already newest: no-op
            }
            assert_eq!(drain(&mut e), vec![1, 2]);
        }
    }
}
