//! Per-bank timing state: busy tracking, open row, and the in-flight
//! operation (for write-pausing preemption).

use crate::timing::Cycle;
use crate::transaction::{Completion, ServiceClass, TransactionId};

/// The operation currently occupying a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight {
    /// Transaction being serviced.
    pub id: TransactionId,
    /// Its service class.
    pub class: ServiceClass,
    /// Cycle service started.
    pub start: Cycle,
    /// Cycle the bank frees.
    pub finish: Cycle,
}

/// Timing state machine of one PCM bank.
///
/// A bank is either idle or busy until a known cycle; the open row is
/// tracked for the open-page policy, and the in-flight descriptor allows
/// the controller to preempt preemptible operations (PCM-refresh under
/// write pausing).
#[derive(Debug, Clone, Default)]
pub struct BankState {
    in_flight: Option<InFlight>,
    open_row: Option<u32>,
}

impl BankState {
    /// A fresh, idle bank with no open row.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the bank can accept a new operation at `now`.
    #[must_use]
    pub fn is_free(&self, now: Cycle) -> bool {
        match &self.in_flight {
            None => true,
            Some(op) => op.finish <= now,
        }
    }

    /// The cycle at which the bank frees (now if idle).
    #[must_use]
    pub fn free_at(&self, now: Cycle) -> Cycle {
        match &self.in_flight {
            None => now,
            Some(op) => op.finish.max(now),
        }
    }

    /// The in-flight operation, if the bank is busy at `now`.
    #[must_use]
    pub fn in_flight(&self, now: Cycle) -> Option<&InFlight> {
        self.in_flight.as_ref().filter(|op| op.finish > now)
    }

    /// Whether the operation `c` reports is the last one begun on the
    /// bank and was not preempted: it is in flight, or finished with
    /// nothing begun since.
    pub(crate) fn serving(&self, c: &Completion) -> bool {
        self.in_flight.is_some_and(|op| {
            (op.id, op.class, op.start, op.finish) == (c.id, c.class, c.start, c.finish)
        })
    }

    /// The currently open row, if any.
    #[must_use]
    pub fn open_row(&self) -> Option<u32> {
        self.open_row
    }

    /// Begins servicing an operation, occupying the bank for
    /// `[start, finish)` and opening `row`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the bank is still busy at `start`.
    pub fn begin(
        &mut self,
        id: TransactionId,
        class: ServiceClass,
        start: Cycle,
        finish: Cycle,
        row: u32,
    ) {
        debug_assert!(self.is_free(start), "bank must be free before begin");
        debug_assert!(finish > start, "service must take time");
        self.in_flight = Some(InFlight {
            id,
            class,
            start,
            finish,
        });
        self.open_row = Some(row);
    }

    /// Preempts the in-flight operation (write pausing), freeing the bank
    /// immediately and returning the aborted descriptor.
    ///
    /// Returns `None` if the bank is idle at `now` or the operation is not
    /// preemptible.
    pub fn preempt(&mut self, now: Cycle) -> Option<InFlight> {
        match self.in_flight {
            Some(op) if op.finish > now && op.class.is_preemptible() => {
                self.in_flight = None;
                Some(op)
            }
            _ => None,
        }
    }

    /// Closes the open row (precharge), used by the closed-page policy.
    pub fn close_row(&mut self) {
        self.open_row = None;
    }
}

crate::snap_fields!(InFlight {
    id: TransactionId,
    class: ServiceClass,
    start: Cycle,
    finish: Cycle,
});

crate::snap_fields!(BankState {
    in_flight: Option<InFlight>,
    open_row: Option<u32>,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_bank_is_free() {
        let b = BankState::new();
        assert!(b.is_free(0));
        assert_eq!(b.free_at(7), 7);
        assert!(b.open_row().is_none());
    }

    #[test]
    fn begin_occupies_until_finish() {
        let mut b = BankState::new();
        b.begin(1, ServiceClass::Write, 10, 130, 42);
        assert!(!b.is_free(10));
        assert!(!b.is_free(129));
        assert!(b.is_free(130));
        assert_eq!(b.free_at(50), 130);
        assert_eq!(b.open_row(), Some(42));
        assert_eq!(b.in_flight(50).unwrap().id, 1);
        assert!(b.in_flight(130).is_none());
    }

    #[test]
    fn refresh_can_be_preempted() {
        let mut b = BankState::new();
        b.begin(9, ServiceClass::RankRefresh, 0, 200, 3);
        let aborted = b.preempt(50).expect("refresh is preemptible");
        assert_eq!(aborted.id, 9);
        assert!(b.is_free(50), "preemption frees the bank immediately");
    }

    #[test]
    fn demand_ops_cannot_be_preempted() {
        let mut b = BankState::new();
        b.begin(3, ServiceClass::Write, 0, 120, 1);
        assert!(b.preempt(50).is_none());
        assert!(!b.is_free(50));
    }

    #[test]
    fn preempting_an_idle_bank_is_none() {
        let mut b = BankState::new();
        assert!(b.preempt(0).is_none());
        b.begin(1, ServiceClass::RankRefresh, 0, 10, 0);
        assert!(b.preempt(10).is_none(), "finished ops cannot be preempted");
    }

    #[test]
    fn close_row_precharges() {
        let mut b = BankState::new();
        b.begin(1, ServiceClass::Read, 0, 22, 7);
        b.close_row();
        assert!(b.open_row().is_none());
    }
}
