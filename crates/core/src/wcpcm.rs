//! WCPCM: the per-rank WOM-code PCM write cache (§4, Fig. 4).
//!
//! Each rank carries a WOM-cache array with the same number of rows as one
//! bank. A cache row `r` can hold row `r` of any one of the rank's banks:
//! the selector field stores the bank address as tag `T` (log₂ N_bank
//! bits) plus one valid bit `V` — 6 bits/row at 32 banks/rank. The cache
//! is built as a wide-column WOM-code array with PCM-refresh, so cached
//! writes complete at RESET speed, while the memory overhead is only
//! `expansion / N_bank` (≈ 4.7% for the ⟨2²⟩²/3 code at 32 banks/rank)
//! because only one bank's worth of rows per rank is duplicated.

use crate::wom_state::{WomStateTable, WriteKind};
use pcm_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// What happened on a WOM-cache write lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheWriteOutcome {
    /// Hit: the entry was invalid or its tag matched — the data is
    /// programmed into the cache row in place.
    Hit {
        /// Latency class of the in-cache WOM write.
        kind: WriteKind,
    },
    /// Miss: a valid entry for another bank occupies the row. The victim
    /// row must be written back to PCM main memory, then the new data is
    /// programmed and the tag updated.
    Miss {
        /// Bank whose data is evicted (written back to main memory).
        victim_bank: u32,
        /// Latency class of the in-cache WOM write for the *new* data.
        kind: WriteKind,
    },
}

impl CacheWriteOutcome {
    /// True for [`CacheWriteOutcome::Hit`].
    #[must_use]
    pub fn is_hit(self) -> bool {
        matches!(self, Self::Hit { .. })
    }

    /// The latency class of the in-cache write.
    #[must_use]
    pub fn kind(self) -> WriteKind {
        match self {
            Self::Hit { kind } | Self::Miss { kind, .. } => kind,
        }
    }
}

/// Hit/miss counters of a [`WomCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Write lookups that hit (invalid entry or tag match).
    pub write_hits: u64,
    /// Write lookups that evicted a victim.
    pub write_misses: u64,
    /// Read probes that hit.
    pub read_hits: u64,
    /// Read probes that missed (served by main memory).
    pub read_misses: u64,
}

impl CacheStats {
    /// Write hit rate in `[0, 1]` (1.0 when no writes were seen).
    #[must_use]
    pub fn write_hit_rate(&self) -> f64 {
        let total = self.write_hits + self.write_misses;
        if total == 0 {
            1.0
        } else {
            self.write_hits as f64 / total as f64
        }
    }

    /// Read hit rate in `[0, 1]` (0.0 when no reads were seen).
    #[must_use]
    pub fn read_hit_rate(&self) -> f64 {
        let total = self.read_hits + self.read_misses;
        if total == 0 {
            0.0
        } else {
            self.read_hits as f64 / total as f64
        }
    }

    /// Combined demand hit rate over all lookups.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let hits = self.write_hits + self.read_hits;
        let total = hits + self.write_misses + self.read_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Merges another cache's counters into this one (commutative and
    /// associative — used for shard reduction).
    pub fn merge(&mut self, other: &Self) {
        self.write_hits += other.write_hits;
        self.write_misses += other.write_misses;
        self.read_hits += other.read_hits;
        self.read_misses += other.read_misses;
    }
}

pcm_sim::snap_fields!(CacheStats {
    write_hits: u64,
    write_misses: u64,
    read_hits: u64,
    read_misses: u64,
});

/// Tag/valid/WOM-state bookkeeping for every rank's WOM-cache.
///
/// ```
/// use wom_pcm::wcpcm::WomCache;
///
/// let mut cache = WomCache::new(/*ranks*/ 2, /*banks_per_rank*/ 4,
///                               /*rows*/ 64, /*columns*/ 16,
///                               /*rewrite_limit*/ 2);
/// // First write to row 3, column 0 of bank 1: entry invalid -> hit.
/// let w = cache.write(0, 1, 3, 0);
/// assert!(w.is_hit());
/// // A read of what we just cached hits; another bank's row 3 misses.
/// assert!(cache.read(0, 1, 3));
/// assert!(!cache.read(0, 2, 3));
/// ```
#[derive(Debug, Clone)]
pub struct WomCache {
    ranks: u32,
    banks_per_rank: u32,
    rows: u32,
    /// `Some(bank)` when the entry is valid; indexed `rank * rows + row`.
    tags: Vec<Option<u32>>,
    /// WOM write budget of each cache row (flat id `rank * rows + row`).
    wom: WomStateTable,
    stats: CacheStats,
}

impl WomCache {
    /// Creates an empty cache: one array per rank, `rows` rows of
    /// `columns` columns each, caching among `banks_per_rank` banks, with
    /// WOM rewrite limit `rewrite_limit`.
    ///
    /// The cache starts in the erased WOM state: it is a small,
    /// controller-managed array kept fresh by PCM-refresh.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the rewrite limit is zero.
    #[must_use]
    pub fn new(
        ranks: u32,
        banks_per_rank: u32,
        rows: u32,
        columns: u32,
        rewrite_limit: u32,
    ) -> Self {
        assert!(
            ranks > 0 && banks_per_rank > 0 && rows > 0,
            "cache dimensions must be positive"
        );
        Self {
            ranks,
            banks_per_rank,
            rows,
            tags: vec![None; (ranks * rows) as usize],
            wom: WomStateTable::new(rewrite_limit, columns),
            stats: CacheStats::default(),
        }
    }

    /// Tag width in bits (`log2(banks_per_rank)`), plus one valid bit, is
    /// the selector overhead per row — 6 bits at 32 banks/rank.
    #[must_use]
    pub fn selector_bits(&self) -> u32 {
        self.banks_per_rank.next_power_of_two().trailing_zeros() + 1
    }

    /// Hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn index(&self, rank: u32, row: u32) -> usize {
        assert!(rank < self.ranks, "rank {rank} out of range");
        assert!(row < self.rows, "row {row} out of range");
        (rank * self.rows + row) as usize
    }

    /// Flat WOM-state id of a cache row.
    fn wom_id(&self, rank: u32, row: u32) -> u64 {
        (u64::from(rank) << 32) | u64::from(row)
    }

    /// Performs the §4 write protocol for a demand write to column
    /// `column` of `(rank, bank, row)` and returns what the controller
    /// must do.
    ///
    /// # Panics
    ///
    /// Panics if `rank`, `bank`, `row`, or `column` are out of range.
    pub fn write(&mut self, rank: u32, bank: u32, row: u32, column: u32) -> CacheWriteOutcome {
        assert!(bank < self.banks_per_rank, "bank {bank} out of range");
        let idx = self.index(rank, row);
        let kind = self.wom.classify_write(self.wom_id(rank, row), column);
        match self.tags[idx] {
            Some(victim_bank) if victim_bank != bank => {
                self.tags[idx] = Some(bank);
                self.stats.write_misses += 1;
                CacheWriteOutcome::Miss { victim_bank, kind }
            }
            _ => {
                self.tags[idx] = Some(bank);
                self.stats.write_hits += 1;
                CacheWriteOutcome::Hit { kind }
            }
        }
    }

    /// The bank whose data currently occupies a cache row, if the entry
    /// is valid — without touching hit/miss statistics.
    ///
    /// # Panics
    ///
    /// Panics if `rank` or `row` are out of range.
    #[must_use]
    pub fn peek_tag(&self, rank: u32, row: u32) -> Option<u32> {
        self.tags[self.index(rank, row)]
    }

    /// Read probe: true when `(rank, bank, row)` is cached. Content and
    /// tags are never modified by reads (§4's read protocol).
    ///
    /// # Panics
    ///
    /// Panics if `rank`, `bank`, or `row` are out of range.
    pub fn read(&mut self, rank: u32, bank: u32, row: u32) -> bool {
        assert!(bank < self.banks_per_rank, "bank {bank} out of range");
        let idx = self.index(rank, row);
        let hit = self.tags[idx] == Some(bank);
        if hit {
            self.stats.read_hits += 1;
        } else {
            self.stats.read_misses += 1;
        }
        hit
    }

    /// Whether any column of a cache row has exhausted its WOM budget
    /// (PCM-refresh candidate).
    #[must_use]
    pub fn row_at_limit(&self, rank: u32, row: u32) -> bool {
        self.wom.row_exhausted(self.wom_id(rank, row))
    }

    /// Marks a cache row as refreshed back to the erased WOM state
    /// (discarding its data, e.g. after an invalidation).
    pub fn mark_refreshed(&mut self, rank: u32, row: u32) {
        let id = self.wom_id(rank, row);
        self.wom.mark_refreshed(id);
    }

    /// Marks a cache row as PCM-refreshed: erased and immediately
    /// rewritten with its data in the first-write pattern, so exactly one
    /// write generation is consumed ("the 'refreshed' PCM row can be
    /// immediately written by the pattern of the second write", §3.2).
    pub fn mark_pcm_refreshed(&mut self, rank: u32, row: u32) {
        let id = self.wom_id(rank, row);
        self.wom.mark_copied(id);
    }

    /// Flushes a cache row: invalidates the entry (returning the bank
    /// whose data must be written back to main memory, if any) and erases
    /// the wits to the full-budget state. Unlike main-memory rows, a write
    /// cache may refresh by eviction — its data always has a home in PCM
    /// main memory.
    pub fn flush(&mut self, rank: u32, row: u32) -> Option<u32> {
        let idx = self.index(rank, row);
        let victim = self.tags[idx].take();
        self.wom.mark_refreshed(self.wom_id(rank, row));
        victim
    }

    /// Number of valid entries across all ranks.
    #[must_use]
    pub fn valid_entries(&self) -> usize {
        self.tags.iter().filter(|t| t.is_some()).count()
    }
}

/// The dimensions, one `Option` tag per cache row, the WOM state, then
/// the counters.
impl Snap for WomCache {
    const MIN_BYTES: usize = 3 * u32::MIN_BYTES + WomStateTable::MIN_BYTES + CacheStats::MIN_BYTES;

    fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.ranks);
        w.put(&self.banks_per_rank);
        w.put(&self.rows);
        for tag in &self.tags {
            w.put(tag);
        }
        w.put(&self.wom);
        w.put(&self.stats);
    }

    /// Rejects zero-sized dimensions, more tags than the payload can
    /// hold, and out-of-range tags.
    fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let ranks: u32 = r.take()?;
        let banks_per_rank: u32 = r.take()?;
        let rows: u32 = r.take()?;
        if ranks == 0 || banks_per_rank == 0 || rows == 0 {
            return Err(SnapError::Corrupt("cache dimensions"));
        }
        // Each tag costs at least its one-byte valid flag, so the
        // dimensions are bounded by the payload before anything is sized
        // from them.
        let entries = (ranks as usize)
            .checked_mul(rows as usize)
            .filter(|&n| n <= r.remaining() / <Option<u32>>::MIN_BYTES)
            .ok_or(SnapError::Corrupt("cache tags exceed the payload"))?;
        let mut tags = Vec::with_capacity(entries);
        for _ in 0..entries {
            let tag: Option<u32> = r.take()?;
            if tag.is_some_and(|bank| bank >= banks_per_rank) {
                return Err(SnapError::Corrupt("cache tag out of range"));
            }
            tags.push(tag);
        }
        Ok(Self {
            ranks,
            banks_per_rank,
            rows,
            tags,
            wom: r.take()?,
            stats: r.take()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> WomCache {
        WomCache::new(2, 4, 16, 8, 2)
    }

    #[test]
    fn load_state_bounds_the_tag_count_by_the_payload() {
        let mut w = SnapWriter::new();
        w.put(&u32::MAX); // ranks
        w.put(&4u32); // banks_per_rank
        w.put(&u32::MAX); // rows
        w.put(&false);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 13);
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            WomCache::load_state(&mut r),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn invalid_entries_hit_without_victims() {
        let mut c = cache();
        match c.write(0, 3, 7, 0) {
            CacheWriteOutcome::Hit { kind } => assert!(kind.is_fast()),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.valid_entries(), 1);
        assert_eq!(c.stats().write_hits, 1);
    }

    #[test]
    fn same_bank_rewrites_hit_until_budget_exhausts() {
        let mut c = cache();
        assert!(c.write(0, 1, 0, 0).kind().is_fast()); // gen 0
        assert!(c.write(0, 1, 0, 0).kind().is_fast()); // gen 1
        assert!(
            !c.write(0, 1, 0, 0).kind().is_fast(),
            "third write is the alpha-write"
        );
        assert!(
            c.write(0, 1, 0, 0).kind().is_fast(),
            "after alpha the budget restarts"
        );
        // A different column of the same cache row has its own budget.
        assert!(c.write(0, 1, 0, 5).kind().is_fast());
    }

    #[test]
    fn conflicting_bank_evicts_victim() {
        let mut c = cache();
        c.write(0, 1, 5, 0);
        match c.write(0, 2, 5, 0) {
            CacheWriteOutcome::Miss { victim_bank, .. } => assert_eq!(victim_bank, 1),
            other => panic!("expected miss, got {other:?}"),
        }
        // The new owner now hits on read.
        assert!(c.read(0, 2, 5));
        assert!(!c.read(0, 1, 5));
        assert_eq!(c.stats().write_misses, 1);
    }

    #[test]
    fn ranks_are_independent() {
        let mut c = cache();
        c.write(0, 1, 5, 0);
        match c.write(1, 2, 5, 0) {
            CacheWriteOutcome::Hit { .. } => {}
            other => panic!("different rank must not conflict, got {other:?}"),
        }
    }

    #[test]
    fn reads_never_allocate() {
        let mut c = cache();
        assert!(!c.read(0, 0, 0));
        assert_eq!(c.valid_entries(), 0);
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn hit_rates() {
        let mut c = cache();
        c.write(0, 0, 0, 0); // hit (invalid)
        c.write(0, 1, 0, 0); // miss (evicts bank 0)
        c.read(0, 1, 0); // hit
        c.read(0, 0, 0); // miss
        assert!((c.stats().write_hit_rate() - 0.5).abs() < 1e-12);
        assert!((c.stats().read_hit_rate() - 0.5).abs() < 1e-12);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        assert_eq!(CacheStats::default().write_hit_rate(), 1.0);
    }

    #[test]
    fn selector_width_matches_paper() {
        // 32 banks/rank -> 5 tag bits + 1 valid bit = 6 bits/row (§4).
        let c = WomCache::new(1, 32, 8, 16, 2);
        assert_eq!(c.selector_bits(), 6);
    }

    #[test]
    fn refresh_restores_cache_row_budget() {
        let mut c = cache();
        c.write(0, 0, 3, 2);
        c.write(0, 0, 3, 2);
        assert!(c.row_at_limit(0, 3));
        c.mark_refreshed(0, 3);
        assert!(!c.row_at_limit(0, 3));
        assert!(c.write(0, 0, 3, 2).kind().is_fast());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_is_rejected() {
        let mut c = cache();
        c.write(0, 99, 0, 0);
    }
}
