//! Memory geometry and physical-address decoding.
//!
//! The paper's main-memory organization (§5, after Lee et al. \[37\]): a
//! single channel of 16 ranks with 32 banks/rank; each bank has 32768 rows
//! of 1 KiB (2048 columns × 4 bits per device), giving exactly 16 GiB.

use crate::error::SimError;

/// Geometry of the simulated memory: ranks, banks, rows, and row size.
///
/// ```
/// use pcm_sim::MemoryGeometry;
///
/// let g = MemoryGeometry::paper_16gib();
/// assert_eq!(g.capacity_bytes(), 16 << 30);
/// assert_eq!(g.total_banks(), 16 * 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryGeometry {
    /// Ranks on the channel. Paper: 16.
    pub ranks: u32,
    /// Banks per rank. Paper: 32 (swept over {4, 8, 16, 32} in Figs. 6–7).
    pub banks_per_rank: u32,
    /// Rows per bank. Paper: 32768.
    pub rows_per_bank: u32,
    /// Bytes per row (the row-buffer size). Paper: 2048 columns × 4 bits =
    /// 1 KiB per device row.
    pub row_bytes: u32,
    /// Access granularity in bytes (one cache line / column burst). 64 B.
    pub access_bytes: u32,
}

impl MemoryGeometry {
    /// The paper's 16 GiB single-channel organization.
    #[must_use]
    pub fn paper_16gib() -> Self {
        Self {
            ranks: 16,
            banks_per_rank: 32,
            rows_per_bank: 32768,
            row_bytes: 1024,
            access_bytes: 64,
        }
    }

    /// A small geometry for fast tests: 2 ranks × 4 banks × 64 rows of
    /// 256 B (128 KiB total).
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            ranks: 2,
            banks_per_rank: 4,
            rows_per_bank: 64,
            row_bytes: 256,
            access_bytes: 64,
        }
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when any dimension is zero, when
    /// `access_bytes` does not divide `row_bytes`, or when either size is
    /// not a power of two (required for bit-sliced address decoding).
    pub fn validate(&self) -> Result<(), SimError> {
        for (name, v) in [
            ("ranks", self.ranks),
            ("banks_per_rank", self.banks_per_rank),
            ("rows_per_bank", self.rows_per_bank),
            ("row_bytes", self.row_bytes),
            ("access_bytes", self.access_bytes),
        ] {
            if v == 0 {
                return Err(SimError::InvalidConfig(format!("{name} must be positive")));
            }
            if !v.is_power_of_two() {
                return Err(SimError::InvalidConfig(format!(
                    "{name} must be a power of two"
                )));
            }
        }
        if self.access_bytes > self.row_bytes {
            return Err(SimError::InvalidConfig(
                "access_bytes must not exceed row_bytes".into(),
            ));
        }
        Ok(())
    }

    /// Total banks across all ranks.
    #[must_use]
    pub fn total_banks(&self) -> u32 {
        self.ranks * self.banks_per_rank
    }

    /// Columns (access-granularity units) per row.
    #[must_use]
    pub fn columns_per_row(&self) -> u32 {
        self.row_bytes / self.access_bytes
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.ranks)
            * u64::from(self.banks_per_rank)
            * u64::from(self.rows_per_bank)
            * u64::from(self.row_bytes)
    }
}

impl Default for MemoryGeometry {
    fn default() -> Self {
        Self::paper_16gib()
    }
}

/// How physical address bits map onto (rank, bank, row, column).
///
/// Listed low-order field first (after the intra-line offset bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddressMapping {
    /// offset : column : bank : rank : row — consecutive lines fill a row
    /// (row-buffer locality), pages stripe across banks then ranks. This is
    /// the scheme used for all paper experiments.
    #[default]
    RowRankBankCol,
    /// offset : bank : rank : column : row — consecutive lines stripe
    /// across banks first (maximum bank parallelism, minimum row locality).
    RowColRankBank,
    /// offset : column : rank : bank : row — like the default but ranks
    /// rotate before banks.
    RowBankRankCol,
    /// offset : column : row : bank : rank — bank-major: a contiguous
    /// region fills one bank's rows before spilling into the next bank.
    /// This is the layout under which the paper's Figs. 6–7 banks/rank
    /// trends arise: with few banks per rank a contiguous working set
    /// lives in very few (large) banks, so adding banks per rank directly
    /// adds parallelism.
    RankBankRowCol,
}

/// A physical byte address's decomposition into the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddr {
    /// Rank index on the channel.
    pub rank: u32,
    /// Bank index within the rank.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u32,
    /// Column (access-granularity unit) within the row.
    pub column: u32,
}

impl DecodedAddr {
    /// Flat bank index across the whole channel (`rank * banks + bank`).
    #[must_use]
    pub fn flat_bank(&self, geometry: &MemoryGeometry) -> u32 {
        self.rank * geometry.banks_per_rank + self.bank
    }

    /// Flat row index across the whole channel, unique per (rank, bank,
    /// row) triple.
    #[must_use]
    pub fn flat_row(&self, geometry: &MemoryGeometry) -> u64 {
        (u64::from(self.flat_bank(geometry)) << 32) | u64::from(self.row)
    }
}

/// Decodes byte addresses into [`DecodedAddr`]s for a geometry + mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressDecoder {
    geometry: MemoryGeometry,
    mapping: AddressMapping,
}

impl AddressDecoder {
    /// Creates a decoder.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the geometry is invalid.
    pub fn new(geometry: MemoryGeometry, mapping: AddressMapping) -> Result<Self, SimError> {
        geometry.validate()?;
        Ok(Self { geometry, mapping })
    }

    /// The decoder's geometry.
    #[must_use]
    pub fn geometry(&self) -> &MemoryGeometry {
        &self.geometry
    }

    /// Decodes a physical byte address. Addresses beyond the configured
    /// capacity wrap (traces captured on real machines span more DRAM than
    /// the simulated device; DRAMSim2 masks the same way).
    ///
    /// [`MemoryGeometry::validate`] makes every dimension a power of two,
    /// so each field is a bit slice of the line index, taken with a mask
    /// and a shift. The fields use exactly the index bits below capacity;
    /// ignoring the bits above is what wraps an address.
    #[must_use]
    pub fn decode(&self, addr: u64) -> DecodedAddr {
        let g = &self.geometry;
        let line_bits = g.access_bytes.trailing_zeros();
        let columns = g.row_bytes >> line_bits;
        let mut a = addr >> line_bits;
        let mut take = |n: u32| -> u32 {
            let v = (a & (u64::from(n) - 1)) as u32;
            a >>= n.trailing_zeros();
            v
        };
        let (column, rank, bank, row);
        match self.mapping {
            AddressMapping::RowRankBankCol => {
                column = take(columns);
                bank = take(g.banks_per_rank);
                rank = take(g.ranks);
                row = take(g.rows_per_bank);
            }
            AddressMapping::RowColRankBank => {
                bank = take(g.banks_per_rank);
                rank = take(g.ranks);
                column = take(columns);
                row = take(g.rows_per_bank);
            }
            AddressMapping::RowBankRankCol => {
                column = take(columns);
                rank = take(g.ranks);
                bank = take(g.banks_per_rank);
                row = take(g.rows_per_bank);
            }
            AddressMapping::RankBankRowCol => {
                column = take(columns);
                row = take(g.rows_per_bank);
                bank = take(g.banks_per_rank);
                rank = take(g.ranks);
            }
        }
        DecodedAddr {
            rank,
            bank,
            row,
            column,
        }
    }

    /// Re-encodes a decoded address back to the canonical byte address.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::IndexOutOfRange`] if any field exceeds the
    /// geometry.
    pub fn encode(&self, d: DecodedAddr) -> Result<u64, SimError> {
        let g = &self.geometry;
        for (what, index, limit) in [
            ("rank", d.rank, g.ranks),
            ("bank", d.bank, g.banks_per_rank),
            ("row", d.row, g.rows_per_bank),
            ("column", d.column, g.columns_per_row()),
        ] {
            if index >= limit {
                return Err(SimError::IndexOutOfRange {
                    what,
                    index: u64::from(index),
                    limit: u64::from(limit),
                });
            }
        }
        let mut a: u64 = 0;
        let mut place = 1u64;
        let mut put = |v: u32, n: u32| {
            a += u64::from(v) * place;
            place *= u64::from(n);
        };
        match self.mapping {
            AddressMapping::RowRankBankCol => {
                put(d.column, g.columns_per_row());
                put(d.bank, g.banks_per_rank);
                put(d.rank, g.ranks);
                put(d.row, g.rows_per_bank);
            }
            AddressMapping::RowColRankBank => {
                put(d.bank, g.banks_per_rank);
                put(d.rank, g.ranks);
                put(d.column, g.columns_per_row());
                put(d.row, g.rows_per_bank);
            }
            AddressMapping::RowBankRankCol => {
                put(d.column, g.columns_per_row());
                put(d.rank, g.ranks);
                put(d.bank, g.banks_per_rank);
                put(d.row, g.rows_per_bank);
            }
            AddressMapping::RankBankRowCol => {
                put(d.column, g.columns_per_row());
                put(d.row, g.rows_per_bank);
                put(d.bank, g.banks_per_rank);
                put(d.rank, g.ranks);
            }
        }
        Ok(a * u64::from(g.access_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_is_16gib() {
        let g = MemoryGeometry::paper_16gib();
        g.validate().unwrap();
        assert_eq!(g.capacity_bytes(), 16 * 1024 * 1024 * 1024);
        assert_eq!(g.columns_per_row(), 16);
        assert_eq!(g.total_banks(), 512);
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut g = MemoryGeometry::tiny();
        g.banks_per_rank = 3;
        assert!(g.validate().is_err());
        let mut g = MemoryGeometry::tiny();
        g.ranks = 0;
        assert!(g.validate().is_err());
        let mut g = MemoryGeometry::tiny();
        g.access_bytes = 512; // > row_bytes
        assert!(g.validate().is_err());
    }

    #[test]
    fn decode_encode_round_trip_all_mappings() {
        let g = MemoryGeometry::tiny();
        let capacity = g.capacity_bytes();
        // Wrapped copies of every line, the last one as high as a u64
        // reaches.
        let wraps = [1, 2, 7, 1 << 40, u64::MAX / capacity];
        for mapping in [
            AddressMapping::RowRankBankCol,
            AddressMapping::RowColRankBank,
            AddressMapping::RowBankRankCol,
            AddressMapping::RankBankRowCol,
        ] {
            let dec = AddressDecoder::new(g, mapping).unwrap();
            for addr in (0..capacity).step_by(g.access_bytes as usize) {
                let d = dec.decode(addr);
                assert_eq!(
                    dec.encode(d).unwrap(),
                    addr,
                    "mapping {mapping:?} addr {addr:#x}"
                );
                for offset in 1..u64::from(g.access_bytes) {
                    assert_eq!(
                        dec.decode(addr + offset),
                        d,
                        "mapping {mapping:?} addr {addr:#x} + {offset}"
                    );
                }
                for k in wraps {
                    let wrapped = addr + k * capacity + u64::from(g.access_bytes - 1);
                    assert_eq!(
                        dec.decode(wrapped),
                        d,
                        "mapping {mapping:?} addr {wrapped:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn default_mapping_keeps_row_locality() {
        let dec = AddressDecoder::new(MemoryGeometry::tiny(), AddressMapping::default()).unwrap();
        // Consecutive cache lines land in the same row until the row wraps.
        let a = dec.decode(0);
        let b = dec.decode(64);
        assert_eq!(a.rank, b.rank);
        assert_eq!(a.bank, b.bank);
        assert_eq!(a.row, b.row);
        assert_eq!(b.column, a.column + 1);
    }

    #[test]
    fn bank_interleaved_mapping_spreads_lines() {
        let dec =
            AddressDecoder::new(MemoryGeometry::tiny(), AddressMapping::RowColRankBank).unwrap();
        let a = dec.decode(0);
        let b = dec.decode(64);
        assert_ne!(a.bank, b.bank, "consecutive lines must hit different banks");
    }

    #[test]
    fn addresses_wrap_at_capacity() {
        let g = MemoryGeometry::tiny();
        let dec = AddressDecoder::new(g, AddressMapping::default()).unwrap();
        assert_eq!(dec.decode(0), dec.decode(g.capacity_bytes()));
    }

    #[test]
    fn encode_rejects_out_of_range_fields() {
        let g = MemoryGeometry::tiny();
        let dec = AddressDecoder::new(g, AddressMapping::default()).unwrap();
        let bad = DecodedAddr {
            rank: 99,
            bank: 0,
            row: 0,
            column: 0,
        };
        assert!(matches!(
            dec.encode(bad),
            Err(SimError::IndexOutOfRange { what: "rank", .. })
        ));
    }

    #[test]
    fn flat_indices_are_unique() {
        let g = MemoryGeometry::tiny();
        let dec = AddressDecoder::new(g, AddressMapping::default()).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for addr in (0..g.capacity_bytes()).step_by(g.row_bytes as usize) {
            let d = dec.decode(addr);
            seen.insert(d.flat_row(&g));
        }
        // One distinct (rank, bank, row) triple per row-sized stride.
        assert_eq!(seen.len(), (g.total_banks() * g.rows_per_bank) as usize);
    }
}
