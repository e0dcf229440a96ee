//! Start-Gap wear leveling — closing the paper's endurance future work.
//!
//! §6 leaves WOM-code PCM's endurance impact "open for future research".
//! The standard low-overhead answer in the PCM literature is Start-Gap
//! (Qureshi et al., MICRO 2009): keep one spare (gap) row per region and,
//! every `gap_move_interval` writes, copy the row before the gap into the
//! gap, moving the gap one slot and slowly rotating the logical-to-
//! physical row mapping. Hot logical rows then spread their wear over all
//! physical rows of the region. The mapping needs just two registers per
//! region (`start`, `gap`) — no table.
//!
//! [`StartGap`] implements the remapping layer; its `#[cfg(test)]` suite
//! proves the mapping stays a bijection and actually levels wear.

use crate::error::WomPcmError;
use pcm_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// Start-Gap remapping over a region of `rows` logical rows backed by
/// `rows + 1` physical rows.
///
/// ```
/// use wom_pcm::wear_leveling::StartGap;
///
/// # fn main() -> Result<(), wom_pcm::WomPcmError> {
/// let mut sg = StartGap::new(8, 4)?; // 8 rows, rotate every 4 writes
/// let before = sg.physical_of(3);
/// // After enough writes the mapping of row 3 moves.
/// for _ in 0..sg.writes_per_full_rotation() {
///     sg.record_write();
/// }
/// // A full rotation shifts every logical row by exactly one slot.
/// assert_ne!(sg.physical_of(3), before);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartGap {
    rows: u64,
    gap_move_interval: u64,
    /// Physical slot of logical row 0.
    start: u64,
    /// Physical slot currently unused (the gap).
    gap: u64,
    /// Demand writes since the last gap move.
    since_move: u64,
    /// Total gap moves performed (each is one row copy of overhead).
    moves: u64,
}

impl StartGap {
    /// Creates a region of `rows` logical rows that moves its gap every
    /// `gap_move_interval` writes (Qureshi et al. use 100).
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] if `rows < 2` or
    /// `gap_move_interval == 0`.
    pub fn new(rows: u64, gap_move_interval: u64) -> Result<Self, WomPcmError> {
        if rows < 2 {
            return Err(WomPcmError::InvalidConfig(format!(
                "start-gap needs at least 2 rows, got {rows}"
            )));
        }
        if gap_move_interval == 0 {
            return Err(WomPcmError::InvalidConfig(
                "gap_move_interval must be positive".into(),
            ));
        }
        Ok(Self {
            rows,
            gap_move_interval,
            start: 0,
            gap: rows,
            since_move: 0,
            moves: 0,
        })
    }

    /// Logical rows in the region.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Physical rows backing the region (`rows + 1`, one gap).
    #[must_use]
    pub fn physical_rows(&self) -> u64 {
        self.rows + 1
    }

    /// Gap moves performed so far (each cost one row copy).
    #[must_use]
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Writes needed to rotate every logical row by one physical slot
    /// (`(rows + 1) · interval`).
    #[must_use]
    pub fn writes_per_full_rotation(&self) -> u64 {
        self.physical_rows() * self.gap_move_interval
    }

    /// The physical slot currently holding `logical` (Qureshi et al.'s
    /// mapping: `PA = (LA + start) mod N`, bumped past the gap).
    ///
    /// # Panics
    ///
    /// Panics if `logical >= rows()`.
    #[must_use]
    pub fn physical_of(&self, logical: u64) -> u64 {
        assert!(logical < self.rows, "logical row {logical} out of range");
        let slot = (logical + self.start) % self.rows;
        if slot >= self.gap {
            slot + 1
        } else {
            slot
        }
    }

    /// Accounts one demand write; every `gap_move_interval` writes the gap
    /// moves one slot (returns `Some((from, to))` physical rows whose
    /// contents the controller must copy).
    pub fn record_write(&mut self) -> Option<(u64, u64)> {
        self.since_move += 1;
        if self.since_move < self.gap_move_interval {
            return None;
        }
        self.since_move = 0;
        self.moves += 1;
        if self.gap == 0 {
            // Wrap: the gap jumps back to the top slot and the whole
            // mapping rotates by one (Start-Gap's slow full rotation).
            let from = self.rows; // top slot's content slides into slot 0
            self.gap = self.rows;
            self.start = (self.start + 1) % self.rows;
            Some((from, 0))
        } else {
            let from = self.gap - 1;
            let to = self.gap;
            self.gap -= 1;
            Some((from, to))
        }
    }
}

impl Snap for StartGap {
    const MIN_BYTES: usize = 6 * u64::MIN_BYTES;

    fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.rows);
        w.put(&self.gap_move_interval);
        w.put(&self.start);
        w.put(&self.gap);
        w.put(&self.since_move);
        w.put(&self.moves);
    }

    /// Rejects a state that breaks the mapping invariants.
    fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let sg = Self {
            rows: r.take()?,
            gap_move_interval: r.take()?,
            start: r.take()?,
            gap: r.take()?,
            since_move: r.take()?,
            moves: r.take()?,
        };
        if sg.rows < 2
            || sg.gap_move_interval == 0
            || sg.start >= sg.rows
            || sg.gap > sg.rows
            || sg.since_move >= sg.gap_move_interval
        {
            return Err(SnapError::Corrupt("start-gap state"));
        }
        Ok(sg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn construction_validates() {
        assert!(StartGap::new(1, 4).is_err());
        assert!(StartGap::new(8, 0).is_err());
        let sg = StartGap::new(8, 4).unwrap();
        assert_eq!(sg.physical_rows(), 9);
        assert_eq!(sg.writes_per_full_rotation(), 36);
    }

    #[test]
    fn mapping_is_always_a_bijection() {
        let mut sg = StartGap::new(16, 3).unwrap();
        for step in 0..500 {
            let mapped: BTreeSet<u64> = (0..16).map(|l| sg.physical_of(l)).collect();
            assert_eq!(mapped.len(), 16, "collision after {step} writes");
            for p in &mapped {
                assert!(*p < sg.physical_rows());
                assert_ne!(*p, sg.gap, "no logical row may map to the gap");
            }
            sg.record_write();
        }
    }

    #[test]
    fn gap_moves_at_the_configured_interval() {
        let mut sg = StartGap::new(8, 5).unwrap();
        let mut copies = 0;
        for _ in 0..50 {
            if sg.record_write().is_some() {
                copies += 1;
            }
        }
        assert_eq!(copies, 10, "50 writes / interval 5");
        assert_eq!(sg.moves(), 10);
    }

    #[test]
    fn copy_instructions_reference_adjacent_slots() {
        let mut sg = StartGap::new(8, 1).unwrap();
        for _ in 0..40 {
            if let Some((from, to)) = sg.record_write() {
                assert_eq!((from + 1) % sg.physical_rows(), to, "gap slides by one");
            }
        }
    }

    #[test]
    fn rotation_levels_a_hot_row() {
        // Hammer logical row 0 and observe its physical location visiting
        // every slot within one full rotation's worth of writes.
        let mut sg = StartGap::new(8, 1).unwrap();
        let mut visited = BTreeSet::new();
        for _ in 0..(sg.writes_per_full_rotation() * 9) {
            visited.insert(sg.physical_of(0));
            sg.record_write();
        }
        assert_eq!(
            visited.len() as u64,
            sg.physical_rows(),
            "a hot logical row must visit every physical slot"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_logical_row_panics() {
        let sg = StartGap::new(4, 1).unwrap();
        let _ = sg.physical_of(4);
    }
}
