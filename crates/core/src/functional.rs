//! A data-bearing WOM-code PCM model: real encode/decode, not just timing.
//!
//! A simulation [`Session`](crate::session::Session) tracks only
//! *latency-relevant* state (write generations) so that 16 GiB devices
//! simulate fast. This module complements it with a functional model
//! that stores actual wit patterns through [`wom_code::BlockCodec`],
//! proving end-to-end that the architecture's bookkeeping agrees with
//! what real cells would do: every in-budget write really is RESET-only,
//! every α-write really needs SET, and data always decodes back intact.

use crate::error::WomPcmError;
use crate::rowmap::RowMap;
use crate::wom_state::WriteKind;
use pcm_sim::snap::{SnapError, SnapReader, SnapWriter};
use wom_code::{BlockCodec, RowScratch, Transitions, WitBuffer, WomCode, WomCodeError};

/// Outcome of one functional row write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionalWrite {
    /// Whether the write was in budget or an α-write.
    pub kind: WriteKind,
    /// The wit transitions the cells actually underwent (for an α-write,
    /// including the erase back to the initial state).
    pub transitions: Transitions,
}

/// A sparse, data-bearing WOM-coded memory: rows materialize on first
/// write.
///
/// ```
/// use wom_pcm::functional::FunctionalMemory;
/// use wom_code::{Inverted, Rs23Code};
///
/// # fn main() -> Result<(), wom_pcm::WomPcmError> {
/// // 64-byte rows under the paper's inverted <2^2>^2/3 code.
/// let mut mem = FunctionalMemory::new(Inverted::new(Rs23Code::new()), 64)?;
/// let w1 = mem.write(0, &[0xAA; 64])?;
/// let w2 = mem.write(0, &[0x55; 64])?;
/// assert!(w1.kind.is_fast() && w2.kind.is_fast());
/// assert_eq!(w1.transitions.sets + w2.transitions.sets, 0); // RESET-only
/// let w3 = mem.write(0, &[0x0F; 64])?; // budget exhausted
/// assert!(!w3.kind.is_fast());
/// assert!(w3.transitions.sets > 0); // the alpha-write pays SET pulses
/// let mut line = [0u8; 64];
/// assert!(mem.read_into(0, &mut line));
/// assert_eq!(line, [0x0F; 64]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FunctionalMemory<C> {
    codec: BlockCodec<C>,
    /// Wits and consumed generations per touched row, in the
    /// page-grained store (line ids are dense and clustered).
    rows: RowMap<(WitBuffer, u32)>,
    row_bytes: usize,
    /// Reused across writes so the steady-state path never allocates.
    scratch: RowScratch,
    /// Template erased row that [`rewrite`](Self::rewrite) resets rows
    /// from in place.
    erased: WitBuffer,
}

impl<C: WomCode> FunctionalMemory<C> {
    /// Creates a memory of `row_bytes`-sized rows encoded with `code`.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::Code`] if `row_bytes` is incompatible with
    /// the code's symbol size.
    pub fn new(code: C, row_bytes: usize) -> Result<Self, WomPcmError> {
        let codec = BlockCodec::new(code, row_bytes * 8)?;
        let erased = codec.erased_buffer();
        Ok(Self {
            codec,
            rows: RowMap::new(),
            row_bytes,
            scratch: RowScratch::new(),
            erased,
        })
    }

    /// Bytes per row.
    #[must_use]
    pub fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// The row-level codec in use.
    #[must_use]
    pub fn codec(&self) -> &BlockCodec<C> {
        &self.codec
    }

    /// Rows materialized so far.
    #[must_use]
    pub fn materialized_rows(&self) -> usize {
        self.rows.len()
    }

    /// Writes `data` to `row`, WOM-encoding it into the row's wits.
    ///
    /// In-budget writes rewrite the wits in place; once the code's budget
    /// is exhausted the row is erased and rewritten (α-write), with the
    /// erase's SET transitions included in the reported [`Transitions`].
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::Code`] if `data` is not exactly
    /// [`row_bytes`](Self::row_bytes) long.
    pub fn write(&mut self, row: u64, data: &[u8]) -> Result<FunctionalWrite, WomPcmError> {
        let limit = self.codec.rewrite_limit();
        let entry = self
            .rows
            .get_or_insert_with(row, || (self.codec.erased_buffer(), 0));
        if entry.1 < limit {
            let gen = entry.1;
            let transitions =
                self.codec
                    .encode_row_into(gen, data, &mut entry.0, &mut self.scratch)?;
            entry.1 += 1;
            Ok(FunctionalWrite {
                kind: WriteKind::InBudget { generation: gen },
                transitions,
            })
        } else {
            // α-write: erase back to the initial pattern, then first write.
            let erase_t = entry.0.transitions_to(&self.erased)?;
            let write_t = self.rewrite(row, data)?;
            Ok(FunctionalWrite {
                kind: WriteKind::Alpha,
                transitions: Transitions {
                    sets: erase_t.sets + write_t.sets,
                    resets: erase_t.resets + write_t.resets,
                },
            })
        }
    }

    /// Reads and decodes `row`, or `None` if it was never written.
    ///
    /// Allocates the result, so it is compiled only for unit tests —
    /// every engine path reads through the allocation-free
    /// [`read_into`](Self::read_into).
    #[cfg(test)]
    #[must_use]
    fn read(&self, row: u64) -> Option<Vec<u8>> {
        self.rows
            .get(row)
            .map(|(cells, _)| self.codec.decode_row(cells).expect("stored rows decode"))
    }

    /// Reads and decodes `row` into `out` without allocating. Returns
    /// `false` (leaving `out` untouched) if the row was never written.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly [`row_bytes`](Self::row_bytes) long.
    pub fn read_into(&mut self, row: u64, out: &mut [u8]) -> bool {
        let Self {
            codec,
            rows,
            scratch,
            ..
        } = self;
        match rows.get(row) {
            Some((cells, _)) => {
                codec
                    .decode_row_into(cells, out, scratch)
                    .expect("stored rows decode");
                true
            }
            None => false,
        }
    }

    /// Refreshes `row` back to the erased WOM state (as PCM-refresh does),
    /// discarding its data. No-op for unmaterialized rows.
    pub fn refresh(&mut self, row: u64) {
        self.rows.remove(row);
    }

    /// Erases `row` back to the initial WOM state and writes `data` as
    /// its first generation: the data-preserving §3.2 refresh of one
    /// line, and the erase-and-write half of an α-write. Returns the
    /// first write's transitions; the row ends at one generation used.
    ///
    /// A row that was never written materializes. Once the row exists
    /// the rewrite allocates nothing: it resets the cells in place from
    /// the erased template.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::Code`] if `data` is not exactly
    /// [`row_bytes`](Self::row_bytes) long. The length is checked before
    /// anything is erased, so the row is left untouched; the
    /// generation-0 encode of an erased row cannot fail otherwise.
    pub fn rewrite(&mut self, row: u64, data: &[u8]) -> Result<Transitions, WomPcmError> {
        if data.len() != self.row_bytes {
            return Err(WomCodeError::LengthMismatch {
                expected: self.row_bytes * 8,
                actual: data.len() * 8,
            }
            .into());
        }
        let Self {
            codec,
            rows,
            scratch,
            erased,
            ..
        } = self;
        let entry = rows.get_or_insert_with(row, || (codec.erased_buffer(), 0));
        entry.0.copy_from(erased);
        let t = codec.encode_row_into(0, data, &mut entry.0, scratch)?;
        entry.1 = 1;
        Ok(t)
    }

    /// Write generations consumed by `row` since its last erase.
    #[must_use]
    pub fn writes_done(&self, row: u64) -> u32 {
        self.rows.get(row).map_or(0, |&(_, gen)| gen)
    }

    /// Serializes the materialized rows for snapshot/restore. The codec,
    /// scratch, and erased template are reconstructed state and are not
    /// written; rows go out in ascending key order as their generation
    /// and then 64-bit wit chunks.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.rows.save_with(w, |w, _, (cells, gen)| {
            w.put(gen);
            let bits = cells.len();
            for offset in (0..bits).step_by(64) {
                w.put(&cells.chunk(offset, 64.min(bits - offset)));
            }
        });
    }

    /// Loads rows written by [`save_state`](Self::save_state) into this
    /// (identically configured) memory, replacing any existing rows.
    ///
    /// # Errors
    ///
    /// Propagates payload truncation; [`SnapError::Corrupt`] when a wit
    /// chunk has bits beyond the row's cell count or keys repeat or
    /// descend.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let bits = self.erased.len();
        self.rows = RowMap::load_with(r, 4 + bits.div_ceil(64) * 8, |r, _| {
            let gen: u32 = r.take()?;
            let mut cells = WitBuffer::zeros(bits);
            for offset in (0..bits).step_by(64) {
                let width = 64.min(bits - offset);
                let value: u64 = r.take()?;
                if width < 64 && value >= (1u64 << width) {
                    return Err(SnapError::Corrupt("wit chunk overflows the row"));
                }
                cells.set_chunk(offset, width, value);
            }
            Ok((cells, gen))
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wom_code::{Inverted, Rs23Code};

    fn mem() -> FunctionalMemory<Inverted<Rs23Code>> {
        FunctionalMemory::new(Inverted::new(Rs23Code::new()), 32).unwrap()
    }

    #[test]
    fn unwritten_rows_read_none() {
        assert!(mem().read(0).is_none());
        assert_eq!(mem().writes_done(0), 0);
    }

    #[test]
    fn data_round_trips_across_generations() {
        let mut m = mem();
        let patterns: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i.wrapping_mul(37); 32]).collect();
        for (i, p) in patterns.iter().enumerate() {
            m.write(3, p).unwrap();
            assert_eq!(m.read(3).unwrap(), *p, "write #{i}");
        }
    }

    #[test]
    fn budget_matches_the_code() {
        let mut m = mem();
        assert!(m.write(0, &[1u8; 32]).unwrap().kind.is_fast());
        assert!(m.write(0, &[2u8; 32]).unwrap().kind.is_fast());
        let alpha = m.write(0, &[3u8; 32]).unwrap();
        assert_eq!(alpha.kind, WriteKind::Alpha);
        assert_eq!(
            m.writes_done(0),
            1,
            "alpha-write leaves one generation used"
        );
        assert!(m.write(0, &[4u8; 32]).unwrap().kind.is_fast());
    }

    #[test]
    fn in_budget_writes_never_set() {
        let mut m = mem();
        let t1 = m.write(9, &[0xC3u8; 32]).unwrap().transitions;
        let t2 = m.write(9, &[0x3Cu8; 32]).unwrap().transitions;
        assert_eq!(t1.sets, 0);
        assert_eq!(t2.sets, 0);
        assert!(t1.resets > 0, "real data changes real wits");
    }

    #[test]
    fn alpha_write_pays_sets() {
        let mut m = mem();
        m.write(0, &[0xFFu8; 32]).unwrap();
        m.write(0, &[0x00u8; 32]).unwrap();
        let alpha = m.write(0, &[0xA5u8; 32]).unwrap();
        assert!(alpha.transitions.sets > 0, "erase must SET wits back to 1");
        assert_eq!(m.read(0).unwrap(), vec![0xA5u8; 32]);
    }

    #[test]
    fn refresh_erases_and_restores_budget() {
        let mut m = mem();
        m.write(0, &[1u8; 32]).unwrap();
        m.write(0, &[2u8; 32]).unwrap();
        m.refresh(0);
        assert!(m.read(0).is_none());
        assert!(m.write(0, &[3u8; 32]).unwrap().kind.is_fast());
        assert_eq!(m.writes_done(0), 1);
    }

    #[test]
    fn wrong_sized_data_is_rejected() {
        let mut m = mem();
        assert!(m.write(0, &[0u8; 31]).is_err());
        assert!(m.write(0, &[0u8; 33]).is_err());
    }

    #[test]
    fn read_into_matches_read_without_allocating_results() {
        let mut m = mem();
        let mut out = [0u8; 32];
        assert!(!m.read_into(7, &mut out), "unwritten rows report false");
        m.write(7, &[0x42u8; 32]).unwrap();
        assert!(m.read_into(7, &mut out));
        assert_eq!(out.to_vec(), m.read(7).unwrap());
    }

    #[test]
    fn rewrite_re_encodes_lines_at_gen_zero() {
        let mut m = mem();
        // Line 0 exhausted, line 1 mid-budget, line 2 never written.
        m.write(0, &[1u8; 32]).unwrap();
        m.write(0, &[2u8; 32]).unwrap();
        m.write(1, &[3u8; 32]).unwrap();
        for (line, val) in [(0u64, 2u8), (1, 3), (2, 9)] {
            let t = m.rewrite(line, &[val; 32]).unwrap();
            assert_eq!(t.sets, 0, "the first write from erased is RESET-only");
        }
        for (line, val) in [(0u64, 2u8), (1, 3), (2, 9)] {
            assert_eq!(m.read(line).unwrap(), vec![val; 32]);
            assert_eq!(m.writes_done(line), 1, "rewrite resets the budget");
        }
        // Same cells as an erase followed by a first write.
        let mut fresh = m.codec().erased_buffer();
        m.codec().encode_row(0, &[2u8; 32], &mut fresh).unwrap();
        assert_eq!(m.rows.get(0).map(|(cells, _)| cells), Some(&fresh));
        assert!(m.write(0, &[4u8; 32]).unwrap().kind.is_fast());
        // A failed rewrite leaves the row untouched and materializes
        // nothing.
        let before = m.rows.get(1).cloned();
        assert!(m.rewrite(1, &[0u8; 31]).is_err());
        assert_eq!(m.rows.get(1).cloned(), before, "cells and generation kept");
        assert!(m.rewrite(5, &[0u8; 33]).is_err());
        assert!(m.read(5).is_none());
        assert_eq!(m.materialized_rows(), 3);
    }

    #[test]
    fn rows_materialize_lazily() {
        let mut m = mem();
        assert_eq!(m.materialized_rows(), 0);
        m.write(1_000_000_000, &[1u8; 32]).unwrap();
        assert_eq!(m.materialized_rows(), 1);
    }
}
