//! The hidden-page WOM-code PCM organization (§3.1, Fig. 3).
//!
//! Instead of widening columns, the memory controller reserves a range of
//! ordinary pages — *hidden pages*, invisible to the operating system — and
//! pairs each visible row with hidden capacity for the code's extra bits
//! (the upper `0.5·YZ` bits for the ⟨2²⟩²/3 code). The controller must
//! maintain a page table, recruit unused pages, and release them when a
//! code is switched, but in exchange the organization supports *dynamic*
//! code selection: any code whose expansion fits the reserved fraction.

use crate::error::WomPcmError;
use crate::rowmap::RowMap;
use pcm_sim::snap::{SnapError, SnapReader, SnapWriter};
use pcm_sim::MemoryGeometry;
use wom_code::WomCode;

/// Packs a `(bank, row)` pair into one [`RowMap`] key. Rows of one bank
/// occupy one contiguous key range, so consecutive accesses to nearby
/// rows of a bank land on the same leaf page.
fn pack(bank: u32, row: u32) -> u64 {
    (u64::from(bank) << 32) | u64::from(row)
}

/// Dynamic hidden-page manager: page table + per-bank free lists.
///
/// Rows `[visible_rows, rows_per_bank)` of every bank are reserved as the
/// hidden pool. A visible row recruits a hidden row from its own bank the
/// first time it is written (so the pair shares a row buffer locality
/// domain), and releases it when the mapping is dropped.
///
/// ```
/// use wom_pcm::hidden_page::HiddenPageTable;
/// use pcm_sim::MemoryGeometry;
///
/// # fn main() -> Result<(), wom_pcm::WomPcmError> {
/// // Reserve enough of each bank for the <2^2>^2/3 code (expansion 1.5):
/// let mut table = HiddenPageTable::new(MemoryGeometry::tiny(), 1.5)?;
/// let hidden = table.recruit(/*bank*/ 0, /*visible row*/ 3)?;
/// assert!(hidden >= table.visible_rows());
/// // The mapping is stable:
/// assert_eq!(table.recruit(0, 3)?, hidden);
/// table.release(0, 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HiddenPageTable {
    geometry: MemoryGeometry,
    expansion: f64,
    visible_rows: u32,
    /// How many visible rows share one hidden row
    /// (`⌊1 / (expansion − 1)⌋`, e.g. 2 for the ⟨2²⟩²/3 code).
    slots_per_hidden: u32,
    /// visible packed (bank, row) → hidden row index in the same bank.
    page_table: RowMap<u32>,
    /// Occupied slots per packed (bank, hidden row).
    slot_usage: RowMap<u32>,
    /// Per-bank free lists of completely unused hidden rows.
    free: Vec<Vec<u32>>,
    /// Per-bank partially filled hidden row, if any.
    partial: Vec<Option<u32>>,
}

impl HiddenPageTable {
    /// Creates a manager reserving enough rows per bank for codes up to
    /// `expansion` (1.5 reserves one hidden row per two visible rows).
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] if `expansion < 1` or the
    /// geometry has too few rows to reserve any hidden pool (when
    /// `expansion > 1`).
    pub fn new(geometry: MemoryGeometry, expansion: f64) -> Result<Self, WomPcmError> {
        if expansion.is_nan() || expansion < 1.0 {
            return Err(WomPcmError::InvalidConfig(format!(
                "expansion must be at least 1, got {expansion}"
            )));
        }
        // visible / total = 1 / expansion.
        let visible_rows = (f64::from(geometry.rows_per_bank) / expansion).floor() as u32;
        if visible_rows == 0 || (expansion > 1.0 && visible_rows == geometry.rows_per_bank) {
            return Err(WomPcmError::InvalidConfig(format!(
                "geometry with {} rows/bank cannot host expansion {expansion}",
                geometry.rows_per_bank
            )));
        }
        let banks = geometry.total_banks() as usize;
        let free = vec![(visible_rows..geometry.rows_per_bank).rev().collect(); banks];
        // A hidden row stores (expansion - 1) rows' worth of extra bits
        // for that many visible rows; at expansion 1.5 two visible rows
        // share one hidden row.
        let slots_per_hidden = if expansion > 1.0 {
            ((1.0 / (expansion - 1.0)).floor() as u32).max(1)
        } else {
            u32::MAX // expansion 1.0 never recruits
        };
        Ok(Self {
            geometry,
            expansion,
            visible_rows,
            slots_per_hidden,
            page_table: RowMap::new(),
            slot_usage: RowMap::new(),
            free,
            partial: vec![None; banks],
        })
    }

    /// Visible rows sharing one hidden row (2 for the ⟨2²⟩²/3 code).
    #[must_use]
    pub fn slots_per_hidden(&self) -> u32 {
        self.slots_per_hidden
    }

    /// Rows per bank visible to the operating system.
    #[must_use]
    pub fn visible_rows(&self) -> u32 {
        self.visible_rows
    }

    /// Rows per bank reserved for the hidden pool.
    #[must_use]
    pub fn hidden_rows(&self) -> u32 {
        self.geometry.rows_per_bank - self.visible_rows
    }

    /// The reserved expansion budget.
    #[must_use]
    pub fn expansion(&self) -> f64 {
        self.expansion
    }

    /// Capacity visible to the OS, in bytes.
    #[must_use]
    pub fn visible_capacity_bytes(&self) -> u64 {
        u64::from(self.visible_rows)
            * u64::from(self.geometry.row_bytes)
            * u64::from(self.geometry.total_banks())
    }

    /// Whether `code` can be configured dynamically on this reservation —
    /// the flexibility advantage over [`crate::wide_column::WideColumn`].
    #[must_use]
    pub fn supports<C: WomCode + ?Sized>(&self, code: &C) -> bool {
        code.expansion() <= self.expansion + 1e-12
    }

    /// The hidden row currently paired with a visible `(bank, row)`, if
    /// one has been recruited.
    #[must_use]
    pub fn lookup(&self, bank: u32, row: u32) -> Option<u32> {
        self.page_table.get(pack(bank, row)).copied()
    }

    /// Recruits (or returns the existing) hidden row for a visible row.
    ///
    /// `bank` is the flat bank index across the channel.
    ///
    /// # Errors
    ///
    /// * [`WomPcmError::InvalidConfig`] if `bank`/`row` are out of range or
    ///   `row` is itself a hidden row.
    /// * [`WomPcmError::InvalidConfig`] if the bank's hidden pool is
    ///   exhausted (cannot happen while the reservation matches the code's
    ///   expansion, but dynamic reconfiguration can over-commit).
    pub fn recruit(&mut self, bank: u32, row: u32) -> Result<u32, WomPcmError> {
        if bank >= self.geometry.total_banks() {
            // womlint::allow(hotpath/transitive, reason = "out-of-range error path: allocates once, then the run aborts")
            return Err(WomPcmError::InvalidConfig(format!(
                "bank {bank} out of range"
            )));
        }
        if row >= self.visible_rows {
            // womlint::allow(hotpath/transitive, reason = "out-of-range error path: allocates once, then the run aborts")
            return Err(WomPcmError::InvalidConfig(format!(
                "row {row} is not a visible row (visible rows: {})",
                self.visible_rows
            )));
        }
        if let Some(&hidden) = self.page_table.get(pack(bank, row)) {
            return Ok(hidden);
        }
        // Fill the bank's partial hidden row first; otherwise take a fresh
        // one from the pool.
        let hidden = match self.partial[bank as usize] {
            Some(h) => h,
            None => {
                let fresh = self.free[bank as usize].pop().ok_or_else(|| {
                    // womlint::allow(hotpath/transitive, reason = "exhausted-pool error path: allocates once, then the run aborts")
                    WomPcmError::InvalidConfig(format!("hidden pool of bank {bank} exhausted"))
                })?;
                self.partial[bank as usize] = Some(fresh);
                fresh
            }
        };
        let used = self.slot_usage.get_or_insert_with(pack(bank, hidden), || 0);
        *used += 1;
        if *used >= self.slots_per_hidden {
            self.partial[bank as usize] = None; // row is full
        }
        self.page_table.insert(pack(bank, row), hidden);
        Ok(hidden)
    }

    /// Releases the hidden row paired with `(bank, row)` back to the free
    /// pool. Releasing an unmapped row is a no-op.
    pub fn release(&mut self, bank: u32, row: u32) {
        let Some(hidden) = self.page_table.remove(pack(bank, row)) else {
            return;
        };
        let used = self
            .slot_usage
            .get_mut(pack(bank, hidden))
            .expect("mapped rows have slot usage");
        *used -= 1;
        if *used == 0 {
            self.slot_usage.remove(pack(bank, hidden));
            if self.partial[bank as usize] == Some(hidden) {
                self.partial[bank as usize] = None;
            }
            self.free[bank as usize].push(hidden);
        } else if self.partial[bank as usize].is_none() {
            // The row has a free slot again; reuse it before fresh rows.
            self.partial[bank as usize] = Some(hidden);
        }
    }

    /// Currently recruited mappings.
    #[must_use]
    pub fn mapped_count(&self) -> usize {
        self.page_table.len()
    }

    /// Serializes the manager for snapshot/restore: the page table, the
    /// slot usage, then one free list and one partial row per bank, with
    /// no count. The geometry and the expansion come from the
    /// configuration, so they are not written.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.page_table);
        w.put(&self.slot_usage);
        for bank_free in &self.free {
            w.put(bank_free);
        }
        for p in &self.partial {
            w.put(p);
        }
    }

    /// Restores state written by [`save_state`](Self::save_state) into
    /// this manager, built from the same configuration.
    ///
    /// # Errors
    ///
    /// Propagates payload truncation; [`SnapError::Corrupt`] when a
    /// mapped or free hidden row is past the bank's rows, or keys repeat
    /// or descend.
    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let rows_per_bank = self.geometry.rows_per_bank;
        self.page_table = r.take()?;
        if self.page_table.values().any(|&h| h >= rows_per_bank) {
            return Err(SnapError::Corrupt("hidden row out of range"));
        }
        self.slot_usage = r.take()?;
        for bank_free in &mut self.free {
            *bank_free = r.take()?;
            if bank_free.iter().any(|&row| row >= rows_per_bank) {
                return Err(SnapError::Corrupt("free hidden row out of range"));
            }
        }
        for p in &mut self.partial {
            *p = r.take()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wom_code::{Inverted, Rs23Code};

    fn table() -> HiddenPageTable {
        HiddenPageTable::new(MemoryGeometry::tiny(), 1.5).unwrap()
    }

    #[test]
    fn reservation_split_matches_expansion() {
        let t = table();
        // tiny: 64 rows/bank, expansion 1.5 -> 42 visible, 22 hidden.
        assert_eq!(t.visible_rows(), 42);
        assert_eq!(t.hidden_rows(), 22);
        assert!(t.supports(&Inverted::new(Rs23Code::new())));
        assert_eq!(
            t.visible_capacity_bytes(),
            42 * 256 * u64::from(MemoryGeometry::tiny().total_banks())
        );
    }

    #[test]
    fn recruit_is_stable_and_release_recycles() {
        let mut t = table();
        let h1 = t.recruit(0, 0).unwrap();
        let h2 = t.recruit(0, 0).unwrap();
        assert_eq!(h1, h2, "mapping must be stable");
        assert!(h1 >= t.visible_rows());
        assert_eq!(t.mapped_count(), 1);
        t.release(0, 0);
        assert_eq!(t.mapped_count(), 0);
        assert_eq!(t.lookup(0, 0), None);
        // The freed row is recyclable.
        let h3 = t.recruit(0, 1).unwrap();
        assert_eq!(h3, h1);
    }

    #[test]
    fn pools_are_per_bank() {
        let mut t = table();
        let a = t.recruit(0, 0).unwrap();
        let b = t.recruit(1, 0).unwrap();
        assert_eq!(a, b, "independent pools start from the same row index");
    }

    #[test]
    fn reservation_is_exactly_sufficient() {
        // Two visible rows share each hidden row at expansion 1.5, so the
        // reserved pool fits every visible row with nothing to spare.
        let mut t = table();
        assert_eq!(t.slots_per_hidden(), 2);
        for row in 0..t.visible_rows() {
            t.recruit(0, row)
                .unwrap_or_else(|e| panic!("row {row}: {e}"));
        }
        // 42 visible rows packed 2-per-hidden-row use 21 of the 22
        // reserved rows.
        let used: std::collections::BTreeSet<u32> = (0..t.visible_rows())
            .map(|r| t.lookup(0, r).unwrap())
            .collect();
        assert_eq!(used.len() as u32, t.visible_rows().div_ceil(2));
    }

    #[test]
    fn visible_rows_share_hidden_rows_pairwise() {
        let mut t = table();
        let a = t.recruit(0, 0).unwrap();
        let b = t.recruit(0, 1).unwrap();
        let c = t.recruit(0, 2).unwrap();
        assert_eq!(a, b, "two visible rows share one hidden row");
        assert_ne!(a, c, "the third starts a new hidden row");
    }

    #[test]
    fn release_frees_slots_before_rows() {
        let mut t = table();
        let a = t.recruit(0, 0).unwrap();
        let _b = t.recruit(0, 1).unwrap();
        t.release(0, 0);
        // The freed slot is reused before a fresh hidden row.
        let c = t.recruit(0, 5).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn rejects_hidden_row_as_visible() {
        let mut t = table();
        let hidden_row = t.visible_rows(); // first hidden row index
        assert!(t.recruit(0, hidden_row).is_err());
        assert!(t.recruit(9999, 0).is_err());
    }

    #[test]
    fn rejects_impossible_geometry() {
        assert!(HiddenPageTable::new(MemoryGeometry::tiny(), 0.5).is_err());
        // Expansion so large nothing stays visible.
        assert!(HiddenPageTable::new(MemoryGeometry::tiny(), 1e9).is_err());
    }

    #[test]
    fn restore_rejects_hidden_rows_past_the_bank() {
        let mut t = table();
        let hidden = t.recruit(3, 7).unwrap();
        let mut w = SnapWriter::new();
        t.save_state(&mut w);
        let bytes = w.into_bytes();
        let restore = |bytes: &[u8]| {
            let mut fresh = table();
            let mut r = SnapReader::new(bytes);
            fresh
                .load_state(&mut r)
                .and_then(|()| r.finish())
                .map(|()| fresh)
        };
        let back = restore(&bytes).expect("restores");
        assert_eq!(back.lookup(3, 7), Some(hidden));
        assert_eq!(back.free, t.free);
        // The page table is a count, then (key, row) pairs: its one row
        // sits at byte 16. The slot usage has the same layout, and bank
        // 0's free list follows it, a count and then rows 63 down to 42.
        let first_free = 8 + 12 + 8 + 12 + 8;
        assert_eq!(bytes[16..20], hidden.to_le_bytes());
        assert_eq!(bytes[first_free..first_free + 4], 63u32.to_le_bytes());
        for (at, what) in [
            (16, "hidden row out of range"),
            (first_free, "free hidden row out of range"),
        ] {
            let mut tampered = bytes.clone();
            tampered[at..at + 4].copy_from_slice(&64u32.to_le_bytes());
            assert_eq!(restore(&tampered).err(), Some(SnapError::Corrupt(what)));
        }
    }

    #[test]
    fn identity_expansion_reserves_nothing() {
        let t = HiddenPageTable::new(MemoryGeometry::tiny(), 1.0).unwrap();
        assert_eq!(t.hidden_rows(), 0);
        assert_eq!(t.visible_rows(), MemoryGeometry::tiny().rows_per_bank);
    }
}
