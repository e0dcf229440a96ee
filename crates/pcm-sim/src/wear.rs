//! Row-level wear tracking — the paper's stated future work.
//!
//! §6: "the proposed WOM-code PCM architectures focus on reducing PCM
//! write latency; their impact on the endurance of PCM is not explicitly
//! addressed in this paper, and the problem remains open for future
//! research." This module closes that gap at the simulator level: every
//! array write (full, RESET-only, or refresh) is charged to its row, and
//! the tracker reports the wear distribution — maximum, mean, and the
//! coefficient of variation that wear-leveling work cares about.

use std::collections::BTreeMap;

/// Per-row write-pulse counters, kept lazily for touched rows.
///
/// ```
/// use pcm_sim::WearTracker;
///
/// let mut wear = WearTracker::new();
/// wear.record_full_write(3);
/// wear.record_reset_write(3);
/// wear.record_reset_write(9);
/// let s = wear.summary();
/// assert_eq!((s.rows, s.writes, s.max), (2, 3, 2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct WearTracker {
    // Ordered maps, not hash maps: summaries reduce these counters with
    // floating-point sums, and f64 rounding depends on iteration order.
    // Deterministic order keeps run metrics bit-identical across runs.
    /// Full (SET-bearing) writes per flat row id.
    full: BTreeMap<u64, u64>,
    /// RESET-only writes per flat row id.
    reset_only: BTreeMap<u64, u64>,
}

/// Summary of a wear distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WearSummary {
    /// Rows with at least one write.
    pub rows: u64,
    /// Total array writes.
    pub writes: u64,
    /// Writes to the most-written row.
    pub max: u64,
    /// Mean writes per touched row.
    pub mean: f64,
    /// Coefficient of variation (stddev / mean) of writes per touched
    /// row: 0 = perfectly level wear.
    pub cv: f64,
}

impl WearTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a full (SET-bearing) write to `row`.
    pub fn record_full_write(&mut self, row: u64) {
        *self.full.entry(row).or_insert(0) += 1;
    }

    /// Records a RESET-only write to `row`.
    pub fn record_reset_write(&mut self, row: u64) {
        *self.reset_only.entry(row).or_insert(0) += 1;
    }

    /// Full writes recorded for `row`.
    #[must_use]
    pub fn full_writes(&self, row: u64) -> u64 {
        self.full.get(&row).copied().unwrap_or(0)
    }

    /// RESET-only writes recorded for `row`.
    #[must_use]
    pub fn reset_writes(&self, row: u64) -> u64 {
        self.reset_only.get(&row).copied().unwrap_or(0)
    }

    /// Summarizes total writes (both kinds) per row.
    #[must_use]
    pub fn summary(&self) -> WearSummary {
        let mut totals: BTreeMap<u64, u64> = self.full.clone();
        for (&row, &n) in &self.reset_only {
            *totals.entry(row).or_insert(0) += n;
        }
        summarize(totals.values().copied())
    }

    /// Summarizes only the SET-bearing writes — the pulses most relevant
    /// to melt-cycle endurance.
    #[must_use]
    pub fn full_write_summary(&self) -> WearSummary {
        summarize(self.full.values().copied())
    }
}

// Both counter maps in key order, so identical states produce identical
// bytes; a repeated or out-of-order row is corrupt.
crate::snap_fields!(WearTracker {
    full: BTreeMap<u64, u64>,
    reset_only: BTreeMap<u64, u64>,
});

impl WearSummary {
    /// Merges the summary of a *disjoint* row population into this one.
    ///
    /// The pooled mean, max, and coefficient of variation are exact for
    /// populations with no rows in common (shards partition the row
    /// space, so this always holds for shard merges): each side's
    /// second moment is recovered as `var + mean²` with
    /// `var = (cv·mean)²`, weighted by its row count, and the combined
    /// cv is recomputed from the pooled moments.
    pub fn merge_disjoint(&mut self, other: &Self) {
        if other.rows == 0 {
            return;
        }
        if self.rows == 0 {
            *self = *other;
            return;
        }
        let second_moment_sum = |s: &Self| {
            let var = (s.cv * s.mean) * (s.cv * s.mean);
            (var + s.mean * s.mean) * s.rows as f64
        };
        let rows = self.rows + other.rows;
        let writes = self.writes + other.writes;
        let e2 = (second_moment_sum(self) + second_moment_sum(other)) / rows as f64;
        let mean = writes as f64 / rows as f64;
        let var = (e2 - mean * mean).max(0.0);
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        *self = Self {
            rows,
            writes,
            max: self.max.max(other.max),
            mean,
            cv,
        };
    }
}

crate::snap_fields!(WearSummary {
    rows: u64,
    writes: u64,
    max: u64,
    mean: f64,
    cv: f64,
});

fn summarize<I: IntoIterator<Item = u64>>(counts: I) -> WearSummary {
    let counts: Vec<u64> = counts.into_iter().collect();
    if counts.is_empty() {
        return WearSummary::default();
    }
    let rows = counts.len() as u64;
    let writes: u64 = counts.iter().sum();
    let max = counts.iter().copied().max().unwrap_or(0);
    let mean = writes as f64 / rows as f64;
    let var = counts
        .iter()
        .map(|&c| (c as f64 - mean).powi(2))
        .sum::<f64>()
        / rows as f64;
    let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
    WearSummary {
        rows,
        writes,
        max,
        mean,
        cv,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker_is_all_zero() {
        let t = WearTracker::new();
        assert_eq!(t.summary(), WearSummary::default());
        assert_eq!(t.full_writes(0), 0);
    }

    #[test]
    fn counts_accumulate_per_row() {
        let mut t = WearTracker::new();
        t.record_full_write(1);
        t.record_full_write(1);
        t.record_reset_write(1);
        t.record_reset_write(2);
        assert_eq!(t.full_writes(1), 2);
        assert_eq!(t.reset_writes(1), 1);
        let s = t.summary();
        assert_eq!(s.rows, 2);
        assert_eq!(s.writes, 4);
        assert_eq!(s.max, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cv_detects_skew() {
        let mut level = WearTracker::new();
        let mut skewed = WearTracker::new();
        for row in 0..10 {
            for _ in 0..5 {
                level.record_full_write(row);
            }
        }
        for _ in 0..41 {
            skewed.record_full_write(0);
        }
        for row in 1..10 {
            skewed.record_full_write(row);
        }
        assert!(level.summary().cv < 1e-12, "uniform wear has zero cv");
        assert!(skewed.summary().cv > 1.0, "hot-row wear must show high cv");
    }

    #[test]
    fn merge_disjoint_matches_the_combined_population() {
        // Shard A wears rows 0..4, shard B rows 100..110 — disjoint.
        let mut a = WearTracker::new();
        let mut b = WearTracker::new();
        let mut combined = WearTracker::new();
        for row in 0..4u64 {
            for _ in 0..=(row * 3) {
                a.record_full_write(row);
                combined.record_full_write(row);
            }
        }
        for row in 100..110u64 {
            for _ in 0..(row % 7 + 1) {
                b.record_reset_write(row);
                combined.record_reset_write(row);
            }
        }
        let mut merged = a.summary();
        merged.merge_disjoint(&b.summary());
        let direct = combined.summary();
        assert_eq!(merged.rows, direct.rows);
        assert_eq!(merged.writes, direct.writes);
        assert_eq!(merged.max, direct.max);
        assert!((merged.mean - direct.mean).abs() < 1e-9, "mean");
        assert!((merged.cv - direct.cv).abs() < 1e-9, "cv");
    }

    #[test]
    fn merge_disjoint_handles_empty_sides() {
        let mut t = WearTracker::new();
        t.record_full_write(5);
        t.record_full_write(5);
        let s = t.summary();
        let mut from_empty = WearSummary::default();
        from_empty.merge_disjoint(&s);
        assert_eq!(from_empty, s);
        let mut into_empty = s;
        into_empty.merge_disjoint(&WearSummary::default());
        assert_eq!(into_empty, s);
    }

    #[test]
    fn tracker_snapshot_round_trip() {
        use crate::snap::{SnapReader, SnapWriter};
        let mut t = WearTracker::new();
        t.record_full_write(3);
        t.record_full_write(u64::MAX);
        t.record_reset_write(3);
        let mut w = SnapWriter::new();
        w.put(&t);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back: WearTracker = r.take().unwrap();
        r.finish().unwrap();
        assert_eq!(back.full_writes(3), 1);
        assert_eq!(back.full_writes(u64::MAX), 1);
        assert_eq!(back.reset_writes(3), 1);
        let mut w2 = SnapWriter::new();
        w2.put(&back);
        assert_eq!(w2.into_bytes(), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn repeated_or_descending_rows_are_corrupt() {
        use crate::snap::{SnapError, SnapReader, SnapWriter};
        for rows in [[5u64, 5], [9, 2]] {
            let mut w = SnapWriter::new();
            w.put(&rows.map(|row| (row, 1u64)).to_vec());
            w.put(&0usize);
            let bytes = w.into_bytes();
            assert!(
                matches!(
                    SnapReader::new(&bytes).take::<WearTracker>(),
                    Err(SnapError::Corrupt(_))
                ),
                "rows {rows:?}"
            );
        }
    }

    #[test]
    fn full_write_summary_excludes_reset_writes() {
        let mut t = WearTracker::new();
        t.record_full_write(0);
        t.record_reset_write(0);
        t.record_reset_write(1);
        let full = t.full_write_summary();
        assert_eq!(full.writes, 1);
        assert_eq!(full.rows, 1);
        let all = t.summary();
        assert_eq!(all.writes, 3);
        assert_eq!(all.rows, 2);
    }
}
