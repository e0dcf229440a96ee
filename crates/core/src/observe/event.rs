//! The instrumentation event taxonomy.
//!
//! Every event is a small `Copy` value stamped with the simulated cycle
//! it happened at, so emitting one costs a couple of register moves and
//! never allocates — the engine hot path stays womlint-clean whether or
//! not an observer is attached.

use crate::policy::ArraySide;
use pcm_sim::Cycle;

/// How a completed demand write was serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteClass {
    /// RESET-only (fast) array write: within the row's WOM rewrite budget.
    Fast,
    /// Full SET-gated (slow) array write: the α-write past the budget, or
    /// any baseline write.
    Slow,
    /// Absorbed by the row buffer of an already-pending array write — no
    /// array operation at all, only a data burst.
    Coalesced,
}

/// One instrumentation event, reported by the engine and the
/// architecture policies as simulation progresses.
///
/// The taxonomy covers the temporal mechanisms behind the paper's
/// aggregate results: demand traffic with its latency class (Fig. 5),
/// refresh bursts on idle ranks (§3.2), WOM-cache churn and victim
/// writebacks (§4), wear-leveling gap moves, and per-row rewrite-budget
/// exhaustion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A demand read entered the system.
    ReadIssued {
        /// Cycle the read was submitted.
        cycle: Cycle,
        /// Logical address as seen by the controller (pre-policy).
        addr: u64,
    },
    /// A demand write entered the system.
    WriteIssued {
        /// Cycle the write was submitted.
        cycle: Cycle,
        /// Logical address as seen by the controller.
        addr: u64,
    },
    /// A demand read finished.
    ReadCompleted {
        /// Cycle the data was returned.
        cycle: Cycle,
        /// End-to-end latency in cycles (arrival → data).
        latency: Cycle,
    },
    /// A demand write finished (or coalesced into a pending one).
    WriteCompleted {
        /// Cycle the cells were programmed (for coalesced writes, the
        /// cycle the burst was absorbed).
        cycle: Cycle,
        /// End-to-end latency in cycles.
        latency: Cycle,
        /// How the write was serviced.
        class: WriteClass,
    },
    /// A burst of rank refreshes was enqueued on an idle rank.
    RefreshBurst {
        /// Cycle the burst was planned.
        cycle: Cycle,
        /// Which array the burst targets.
        side: ArraySide,
        /// The idle rank being refreshed.
        rank: u32,
        /// Rows in the burst.
        rows: u32,
    },
    /// One row refresh finished (completed or preempted by a demand
    /// write under write pausing).
    RefreshRow {
        /// Cycle the refresh transaction retired.
        cycle: Cycle,
        /// Which array the row lives in.
        side: ArraySide,
        /// Rank of the refreshed row.
        rank: u32,
        /// Bank of the refreshed row.
        bank: u32,
        /// Row index within the bank.
        row: u32,
        /// Whether write pausing aborted the refresh.
        preempted: bool,
    },
    /// A demand read consulted the WOM-cache tags (WCPCM only).
    CacheRead {
        /// Cycle of the tag lookup.
        cycle: Cycle,
        /// Whether the cache owned the line.
        hit: bool,
    },
    /// A demand write was steered through the WOM-cache (WCPCM only).
    CacheWrite {
        /// Cycle of the cache write.
        cycle: Cycle,
        /// Whether the write hit an existing entry (a miss evicts).
        hit: bool,
    },
    /// A WOM-cache victim row finished writing back to main memory.
    VictimWriteback {
        /// Cycle the writeback retired.
        cycle: Cycle,
    },
    /// A Start-Gap wear-leveling gap move: one internal row copy.
    GapMove {
        /// Cycle the copy was issued.
        cycle: Cycle,
        /// Rank of the moving gap.
        rank: u32,
        /// Bank of the moving gap.
        bank: u32,
    },
    /// A row's WOM rewrite budget ran out, making it a refresh candidate.
    BudgetExhausted {
        /// Cycle the exhausting write was classified.
        cycle: Cycle,
        /// Which array the row lives in.
        side: ArraySide,
        /// Rank of the exhausted row.
        rank: u32,
        /// Bank of the exhausted row.
        bank: u32,
        /// Row index within the bank.
        row: u32,
    },
    /// A hidden-page companion access was issued (hidden-page
    /// organization with charged traffic only).
    HiddenPageAccess {
        /// Cycle of the companion access.
        cycle: Cycle,
    },
}

impl Event {
    /// The simulated cycle the event is stamped with.
    #[must_use]
    pub fn cycle(&self) -> Cycle {
        match *self {
            Event::ReadIssued { cycle, .. }
            | Event::WriteIssued { cycle, .. }
            | Event::ReadCompleted { cycle, .. }
            | Event::WriteCompleted { cycle, .. }
            | Event::RefreshBurst { cycle, .. }
            | Event::RefreshRow { cycle, .. }
            | Event::CacheRead { cycle, .. }
            | Event::CacheWrite { cycle, .. }
            | Event::VictimWriteback { cycle }
            | Event::GapMove { cycle, .. }
            | Event::BudgetExhausted { cycle, .. }
            | Event::HiddenPageAccess { cycle } => cycle,
        }
    }
}

/// One event of every variant, with every [`WriteClass`] and both values
/// of each flag, stamped with cycles 1, 2, 3, … in list order.
#[cfg(test)]
pub(super) fn one_of_each() -> Vec<Event> {
    let mut events = vec![
        Event::ReadIssued { cycle: 1, addr: 0 },
        Event::WriteIssued { cycle: 2, addr: 0 },
        Event::ReadCompleted {
            cycle: 3,
            latency: 22,
        },
        Event::RefreshBurst {
            cycle: 4,
            side: ArraySide::Main,
            rank: 0,
            rows: 3,
        },
        Event::VictimWriteback { cycle: 5 },
        Event::GapMove {
            cycle: 6,
            rank: 0,
            bank: 0,
        },
        Event::BudgetExhausted {
            cycle: 7,
            side: ArraySide::Cache,
            rank: 0,
            bank: 0,
            row: 9,
        },
        Event::HiddenPageAccess { cycle: 8 },
    ];
    let classes = [
        (120, WriteClass::Slow),
        (40, WriteClass::Fast),
        (4, WriteClass::Coalesced),
    ];
    for (latency, class) in classes {
        let cycle = events.len() as Cycle + 1;
        events.push(Event::WriteCompleted {
            cycle,
            latency,
            class,
        });
    }
    for flag in [false, true] {
        let cycle = events.len() as Cycle + 1;
        events.push(Event::RefreshRow {
            cycle,
            side: ArraySide::Main,
            rank: 0,
            bank: 1,
            row: 2,
            preempted: flag,
        });
        events.push(Event::CacheRead {
            cycle: cycle + 1,
            hit: flag,
        });
        events.push(Event::CacheWrite {
            cycle: cycle + 2,
            hit: flag,
        });
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_accessor_covers_every_variant() {
        for (i, e) in one_of_each().iter().enumerate() {
            assert_eq!(e.cycle(), i as u64 + 1);
        }
    }
}
