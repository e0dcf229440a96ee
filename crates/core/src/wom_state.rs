//! Per-column WOM write-generation tracking.
//!
//! The memory controller must know, for every encoded storage unit, how
//! many writes the WOM code has absorbed since the unit was last in the
//! erased state. Writes within the rewrite limit are RESET-only (fast);
//! the write *after* the limit — the paper's **α-write** — must first
//! re-initialize the wits (SET) and therefore pays the full PCM write
//! latency.
//!
//! Budgets are tracked at *column* granularity: in the wide-column
//! organization "memory data is encoded in the unit of a column" (§3.1),
//! so a 64-byte write consumes only its own column's budget, not the
//! whole row's. PCM-refresh, however, re-initializes whole rows, so the
//! table exposes row-level refresh and row-level exhaustion (any column
//! at the limit makes the row a refresh candidate).
//!
//! State is kept lazily per touched row, so simulating a 16 GiB device
//! costs memory proportional to the trace footprint only.

use crate::rowmap::RowMap;
use pcm_sim::snap::{SnapError, SnapReader, SnapWriter};

/// What state untouched (cold) cells are assumed to hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ColdPolicy {
    /// Cold cells are erased: a fresh or freshly formatted device. The
    /// most optimistic assumption — every first touch is RESET-only.
    Erased,
    /// Cold cells hold arbitrary stale data, i.e. they are at the rewrite
    /// limit: the most pessimistic assumption — every first touch is an
    /// α-write.
    Dirty,
    /// Cold cells are uniformly distributed over `{1, …, t}` — the states
    /// a cell can be left in after any write in a system *without*
    /// refresh (a refreshless long run never leaves a written cell at 0).
    /// This is the steady-state boundary condition when a short trace
    /// sample stands in for a long execution (the paper's traces are
    /// mid-execution captures). Deterministic per cell, so runs are
    /// reproducible.
    #[default]
    SteadyState,
}

/// Granularity at which WOM rewrite budgets are tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BudgetGranularity {
    /// One budget per row: every write counts against the whole row, the
    /// conservative choice for a controller that tracks one counter per
    /// page ("once wits of a given page reach the rewrite limit", §3.2).
    /// Pessimistic for 64-byte write streams, since unrelated columns
    /// share one budget. Offered as an ablation.
    Row,
    /// One budget per column: a 64-byte write touches only its own
    /// column's wits ("memory data is encoded in the unit of a column",
    /// §3.1 wide-column organization). The default.
    #[default]
    Column,
}

/// Deterministic per-cell hash for the steady-state cold policy
/// (SplitMix64 over the row/column pair).
fn cell_hash(row: u64, column: u32) -> u64 {
    let mut z = row
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(column))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Latency class of one write, as decided by the WOM rewrite budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteKind {
    /// Within the rewrite budget: only RESET pulses are needed.
    InBudget {
        /// The 0-based write generation this write used.
        generation: u32,
    },
    /// The rewrite budget was exhausted: the unit is erased (SET) and
    /// rewritten with the first-write pattern — full write latency.
    Alpha,
}

impl WriteKind {
    /// True for RESET-only writes.
    #[must_use]
    pub fn is_fast(self) -> bool {
        matches!(self, Self::InBudget { .. })
    }
}

/// Tracks, for every touched row, each column's absorbed WOM writes.
///
/// `rewrite_limit` is the code's `t` (2 for the ⟨2²⟩²/3 code). A freshly
/// erased (or refreshed) column has absorbed 0 writes.
///
/// ```
/// use wom_pcm::wom_state::{WomStateTable, WriteKind};
///
/// // 16 columns per row, the <2^2>^2/3 code (t = 2):
/// let mut table = WomStateTable::new(2, 16);
/// assert_eq!(table.classify_write(7, 0), WriteKind::InBudget { generation: 0 });
/// assert_eq!(table.classify_write(7, 0), WriteKind::InBudget { generation: 1 });
/// // Column 0's budget is exhausted: its third write is the slow alpha-write,
/// assert_eq!(table.classify_write(7, 0), WriteKind::Alpha);
/// // but column 1 still has its full budget:
/// assert_eq!(table.classify_write(7, 1), WriteKind::InBudget { generation: 0 });
/// ```
#[derive(Debug, Clone)]
pub struct WomStateTable {
    rewrite_limit: u32,
    columns: u32,
    cold: ColdPolicy,
    /// Per-row boxed slice of per-column write counters, in the
    /// page-grained store (row ids are dense and clustered).
    rows: RowMap<Box<[u8]>>,
}

impl WomStateTable {
    /// Creates a table for a code with rewrite limit `t ≥ 1` over rows of
    /// `columns` columns, assuming untouched cells are in the erased WOM
    /// state (fresh device, or a device formatted at boot).
    ///
    /// # Panics
    ///
    /// Panics if `rewrite_limit` is 0 or above 254, or `columns` is 0.
    #[must_use]
    pub fn new(rewrite_limit: u32, columns: u32) -> Self {
        Self::with_cold_policy(rewrite_limit, columns, ColdPolicy::Erased)
    }

    /// Creates a table assuming untouched cells hold arbitrary old data —
    /// i.e. they are at the rewrite limit, and their first write is an
    /// α-write. This models a long-running system (the paper's traces are
    /// mid-execution captures) and is the default for main-memory WOM
    /// state in a simulation [`Session`](crate::session::Session).
    ///
    /// # Panics
    ///
    /// Panics if `rewrite_limit` is 0 or above 254, or `columns` is 0.
    #[must_use]
    pub fn new_assuming_dirty(rewrite_limit: u32, columns: u32) -> Self {
        Self::with_cold_policy(rewrite_limit, columns, ColdPolicy::Dirty)
    }

    /// Creates a table with an explicit [`ColdPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `rewrite_limit` is 0 or above 254, or `columns` is 0.
    #[must_use]
    pub fn with_cold_policy(rewrite_limit: u32, columns: u32, cold: ColdPolicy) -> Self {
        assert!(rewrite_limit >= 1, "rewrite limit must be at least 1");
        assert!(
            rewrite_limit <= 254,
            "rewrite limit must fit a byte counter"
        );
        assert!(columns >= 1, "rows must have at least one column");
        Self {
            rewrite_limit,
            columns,
            cold,
            rows: RowMap::new(),
        }
    }

    /// The cold-cell assumption in effect.
    #[must_use]
    pub fn cold_policy(&self) -> ColdPolicy {
        self.cold
    }

    fn cold_count(&self, row: u64, column: u32) -> u8 {
        match self.cold {
            ColdPolicy::Erased => 0,
            ColdPolicy::Dirty => self.rewrite_limit as u8,
            ColdPolicy::SteadyState => {
                1 + (cell_hash(row, column) % u64::from(self.rewrite_limit)) as u8
            }
        }
    }

    fn materialize(&mut self, row: u64) -> &mut Box<[u8]> {
        let (cold, limit, columns) = (self.cold, self.rewrite_limit, self.columns);
        self.rows.get_or_insert_with(row, || {
            // One zero-filled allocation, written in place — no
            // intermediate collect, and a single map probe.
            // womlint::allow(hotpath/transitive, reason = "lazy row materialization: one allocation per row lifetime, not per write")
            let mut counts = vec![0u8; columns as usize].into_boxed_slice();
            match cold {
                ColdPolicy::Erased => {}
                ColdPolicy::Dirty => counts.fill(limit as u8),
                ColdPolicy::SteadyState => {
                    for (c, slot) in counts.iter_mut().enumerate() {
                        *slot = 1 + (cell_hash(row, c as u32) % u64::from(limit)) as u8;
                    }
                }
            }
            counts
        })
    }

    /// The code's rewrite limit `t`.
    #[must_use]
    pub fn rewrite_limit(&self) -> u32 {
        self.rewrite_limit
    }

    /// Columns per row.
    #[must_use]
    pub fn columns(&self) -> u32 {
        self.columns
    }

    /// Classifies a write to `(row, column)` and updates that column's
    /// state.
    ///
    /// Returns [`WriteKind::InBudget`] while the column's budget lasts;
    /// once `rewrite_limit` writes have been absorbed the next write is
    /// [`WriteKind::Alpha`], after which the column holds one (first-
    /// generation) write again.
    ///
    /// # Panics
    ///
    /// Panics if `column >= columns()`.
    pub fn classify_write(&mut self, row: u64, column: u32) -> WriteKind {
        assert!(column < self.columns, "column {column} out of range");
        let rewrite_limit = self.rewrite_limit;
        let counts = self.materialize(row);
        let done = &mut counts[column as usize];
        if u32::from(*done) < rewrite_limit {
            let generation = u32::from(*done);
            *done += 1;
            WriteKind::InBudget { generation }
        } else {
            // Erase + first write: the column now holds one write.
            *done = 1;
            WriteKind::Alpha
        }
    }

    /// Whether `(row, column)` has exhausted its rewrite budget.
    ///
    /// # Panics
    ///
    /// Panics if `column >= columns()`.
    #[must_use]
    pub fn column_at_limit(&self, row: u64, column: u32) -> bool {
        assert!(column < self.columns, "column {column} out of range");
        let done = self
            .rows
            .get(row)
            .map_or_else(|| self.cold_count(row, column), |c| c[column as usize]);
        u32::from(done) >= self.rewrite_limit
    }

    /// Whether any column of `row` is at the rewrite limit — the §3.2
    /// criterion for entering a bank's row address table.
    #[must_use]
    pub fn row_exhausted(&self, row: u64) -> bool {
        match self.rows.get(row) {
            Some(counts) => counts.iter().any(|&c| u32::from(c) >= self.rewrite_limit),
            None => {
                (0..self.columns).any(|c| u32::from(self.cold_count(row, c)) >= self.rewrite_limit)
            }
        }
    }

    /// Writes absorbed by `(row, column)` since its last erase (for
    /// untouched cells, the cold-state assumption).
    ///
    /// # Panics
    ///
    /// Panics if `column >= columns()`.
    #[must_use]
    pub fn writes_done(&self, row: u64, column: u32) -> u32 {
        assert!(column < self.columns, "column {column} out of range");
        u32::from(
            self.rows
                .get(row)
                .map_or_else(|| self.cold_count(row, column), |c| c[column as usize]),
        )
    }

    /// Marks a whole `row` as refreshed: every column is erased back to
    /// the initial WOM state, so the next `rewrite_limit` writes per
    /// column are fast again. A tracked row is reset to zeros in place,
    /// so a WOM-cache row that is flushed and rewritten keeps its
    /// allocation. An untracked row stays untracked under
    /// [`ColdPolicy::Erased`], where absent already means erased; under
    /// the other cold policies the erased state is stored explicitly.
    pub fn mark_refreshed(&mut self, row: u64) {
        if let Some(counts) = self.rows.get_mut(row) {
            counts.fill(0);
        } else if self.cold != ColdPolicy::Erased {
            let cols = self.columns as usize;
            self.rows.insert(row, vec![0; cols].into_boxed_slice());
        }
    }

    /// Marks a whole `row` as freshly copied: a full-row write after an
    /// erase (a PCM-refresh rewrite or a wear-leveling row relocation),
    /// leaving every column with one absorbed write. A tracked row is
    /// reset in place.
    pub fn mark_copied(&mut self, row: u64) {
        let cols = self.columns as usize;
        self.rows
            // womlint::allow(hotpath/transitive, reason = "first copy of an untracked row only: one allocation per row lifetime, then every later copy resets it in place")
            .get_or_insert_with(row, || vec![1; cols].into_boxed_slice())
            .fill(1);
    }

    /// Rows currently tracked: touched since construction, or refreshed
    /// under a cold policy other than [`ColdPolicy::Erased`]. A tracked
    /// row stays tracked when it is refreshed, with all-zero counts.
    #[must_use]
    pub fn tracked_rows(&self) -> usize {
        self.rows.len()
    }

    /// Appends the tracked rows in ascending key order, each as its key
    /// and one count byte per column, so identical states produce
    /// identical bytes. The rewrite limit, the column count and the cold
    /// policy come from the configuration, so they are not written.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        self.rows.save_with(w, |w, _, counts| w.put_bytes(counts));
    }

    /// Restores rows written by [`save_state`](Self::save_state) into
    /// this table, built from the same configuration.
    ///
    /// # Errors
    ///
    /// Propagates payload truncation, and [`RowMap`]'s check that row
    /// keys strictly ascend.
    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let cols = self.columns as usize;
        self.rows = RowMap::load_with(r, cols, |r, _| r.take_bytes(cols).map(Box::from))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_cycle_for_t2() {
        let mut t = WomStateTable::new(2, 4);
        assert_eq!(
            t.classify_write(0, 0),
            WriteKind::InBudget { generation: 0 }
        );
        assert!(!t.column_at_limit(0, 0));
        assert_eq!(
            t.classify_write(0, 0),
            WriteKind::InBudget { generation: 1 }
        );
        assert!(t.column_at_limit(0, 0));
        assert!(t.row_exhausted(0));
        assert_eq!(t.classify_write(0, 0), WriteKind::Alpha);
        assert!(
            !t.column_at_limit(0, 0),
            "alpha-write leaves one write absorbed"
        );
        assert_eq!(t.writes_done(0, 0), 1);
        assert_eq!(
            t.classify_write(0, 0),
            WriteKind::InBudget { generation: 1 }
        );
        assert_eq!(t.classify_write(0, 0), WriteKind::Alpha);
    }

    #[test]
    fn columns_have_independent_budgets() {
        let mut t = WomStateTable::new(2, 16);
        t.classify_write(0, 3);
        t.classify_write(0, 3);
        assert!(t.column_at_limit(0, 3));
        assert!(!t.column_at_limit(0, 4));
        assert_eq!(
            t.classify_write(0, 4),
            WriteKind::InBudget { generation: 0 }
        );
        // One exhausted column is enough to flag the row for refresh.
        assert!(t.row_exhausted(0));
    }

    #[test]
    fn refresh_restores_every_column() {
        let mut t = WomStateTable::new(2, 4);
        for col in 0..4 {
            t.classify_write(5, col);
            t.classify_write(5, col);
        }
        assert!(t.row_exhausted(5));
        t.mark_refreshed(5);
        assert!(!t.row_exhausted(5));
        for col in 0..4 {
            assert_eq!(
                t.classify_write(5, col),
                WriteKind::InBudget { generation: 0 }
            );
        }
    }

    #[test]
    fn rows_are_independent() {
        let mut t = WomStateTable::new(2, 2);
        t.classify_write(1, 0);
        t.classify_write(1, 0);
        assert!(t.row_exhausted(1));
        assert!(!t.row_exhausted(2));
        assert_eq!(
            t.classify_write(2, 0),
            WriteKind::InBudget { generation: 0 }
        );
        assert_eq!(t.tracked_rows(), 2);
    }

    #[test]
    fn t1_code_is_always_alpha_after_first() {
        let mut t = WomStateTable::new(1, 1);
        assert_eq!(
            t.classify_write(0, 0),
            WriteKind::InBudget { generation: 0 }
        );
        assert_eq!(t.classify_write(0, 0), WriteKind::Alpha);
        assert_eq!(t.classify_write(0, 0), WriteKind::Alpha);
    }

    #[test]
    fn large_rewrite_limits() {
        let mut t = WomStateTable::new(4, 1);
        for g in 0..4 {
            assert_eq!(
                t.classify_write(0, 0),
                WriteKind::InBudget { generation: g }
            );
        }
        assert_eq!(t.classify_write(0, 0), WriteKind::Alpha);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_limit_panics() {
        let _ = WomStateTable::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_column_panics() {
        let mut t = WomStateTable::new(2, 4);
        t.classify_write(0, 4);
    }

    #[test]
    fn write_kind_predicates() {
        assert!(WriteKind::InBudget { generation: 0 }.is_fast());
        assert!(!WriteKind::Alpha.is_fast());
    }

    mod dirty_cold {
        use super::*;

        #[test]
        fn dirty_cold_cells_start_at_limit() {
            let mut t = WomStateTable::new_assuming_dirty(2, 4);
            assert!(t.column_at_limit(0, 0));
            assert!(t.row_exhausted(0));
            assert_eq!(t.writes_done(0, 2), 2);
            assert_eq!(
                t.classify_write(0, 0),
                WriteKind::Alpha,
                "first touch is an alpha-write"
            );
            assert_eq!(
                t.classify_write(0, 0),
                WriteKind::InBudget { generation: 1 }
            );
            assert_eq!(t.classify_write(0, 0), WriteKind::Alpha);
        }

        #[test]
        fn refresh_of_a_cold_dirty_row_grants_full_budget() {
            let mut t = WomStateTable::new_assuming_dirty(2, 4);
            t.mark_refreshed(7);
            assert!(!t.row_exhausted(7));
            assert_eq!(
                t.classify_write(7, 1),
                WriteKind::InBudget { generation: 0 }
            );
            assert_eq!(
                t.classify_write(7, 1),
                WriteKind::InBudget { generation: 1 }
            );
            assert_eq!(t.classify_write(7, 1), WriteKind::Alpha);
        }

        #[test]
        fn erased_cold_default_is_unchanged() {
            let mut t = WomStateTable::new(2, 4);
            assert!(!t.row_exhausted(0));
            assert_eq!(
                t.classify_write(0, 0),
                WriteKind::InBudget { generation: 0 }
            );
        }
    }
}

#[cfg(test)]
mod copy_tests {
    use super::*;

    #[test]
    fn copying_a_tracked_row_resets_it_in_place() {
        let mut t = WomStateTable::new(2, 4);
        t.mark_copied(9);
        for col in [0, 2, 2] {
            t.classify_write(9, col);
        }
        let counts = t.rows.get(9).expect("tracked").as_ptr();
        t.mark_copied(9);
        let row = t.rows.get(9).expect("tracked");
        assert_eq!(row.as_ptr(), counts, "the row keeps its allocation");
        assert_eq!(&row[..], &[1, 1, 1, 1]);
    }

    #[test]
    fn copied_rows_hold_one_write_per_column() {
        let mut t = WomStateTable::new_assuming_dirty(2, 4);
        t.mark_copied(9);
        assert!(!t.row_exhausted(9));
        for col in 0..4 {
            assert_eq!(t.writes_done(9, col), 1);
            assert_eq!(
                t.classify_write(9, col),
                WriteKind::InBudget { generation: 1 }
            );
        }
    }

    #[test]
    fn refreshing_a_tracked_row_resets_it_in_place() {
        let mut t = WomStateTable::new(2, 4);
        t.classify_write(3, 1);
        t.classify_write(9, 2);
        let counts = t.rows.get(9).expect("tracked").as_ptr();
        t.mark_refreshed(9);
        let row = t.rows.get(9).expect("a refreshed row stays tracked");
        assert_eq!(row.as_ptr(), counts, "the row keeps its allocation");
        assert_eq!(&row[..], &[0; 4]);
        t.mark_refreshed(12);
        assert!(
            t.rows.get(12).is_none(),
            "an untracked erased row stays untracked"
        );
        let mut w = SnapWriter::new();
        t.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut back = WomStateTable::new(2, 4);
        back.load_state(&mut SnapReader::new(&bytes))
            .expect("decodes");
        assert_eq!(
            back.rows.get(9).map(|row| &row[..]),
            Some(&[0; 4][..]),
            "a refreshed row stays tracked after a round trip"
        );
        assert_eq!(back.tracked_rows(), 2);

        let mut dirty = WomStateTable::new_assuming_dirty(2, 4);
        dirty.mark_refreshed(5);
        let counts = dirty.rows.get(5).expect("stored explicitly").as_ptr();
        dirty.classify_write(5, 0);
        dirty.mark_refreshed(5);
        assert_eq!(dirty.rows.get(5).map(|row| row.as_ptr()), Some(counts));
    }
}
