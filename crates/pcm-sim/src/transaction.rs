//! Memory transactions: the unit of work entering the controller.

use crate::timing::Cycle;

/// Unique identifier of a transaction within one simulation.
pub type TransactionId = u64;

/// Read or write, as seen by the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// A demand read (loads a row / column into the output buffer).
    Read,
    /// A demand write.
    Write,
}

impl MemOp {
    /// True for [`MemOp::Read`].
    #[must_use]
    pub fn is_read(self) -> bool {
        matches!(self, Self::Read)
    }
}

crate::snap_tags!(MemOp { Read = 0, Write = 1 });

/// The physical service class of an operation — what the PCM cells must do.
///
/// The WOM-code architecture layers above the simulator choose the class
/// per write: an in-budget WOM rewrite is [`ServiceClass::ResetOnlyWrite`]
/// (40 ns), while the α-write after the rewrite limit is a full
/// [`ServiceClass::Write`] (150 ns, gated by SET).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceClass {
    /// Row read: 27 ns in the paper's configuration.
    Read,
    /// Full row write including SET pulses: 150 ns.
    Write,
    /// RESET-only row write (all transitions `1 → 0`): 40 ns.
    ResetOnlyWrite,
    /// A burst-mode PCM-refresh occupying every listed bank of a rank:
    /// `t_WR + N_bank · L_burst / 2`. Preemptible by demand accesses
    /// (write pausing, §3.2).
    RankRefresh,
}

impl ServiceClass {
    /// Whether a demand access may preempt an in-flight operation of this
    /// class (the paper's write-pausing applies to PCM-refresh).
    #[must_use]
    pub fn is_preemptible(self) -> bool {
        matches!(self, Self::RankRefresh)
    }
}

crate::snap_tags!(ServiceClass {
    Read = 0,
    Write = 1,
    ResetOnlyWrite = 2,
    RankRefresh = 3,
});

/// A memory request submitted to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// Identifier assigned by the memory system at enqueue time.
    pub id: TransactionId,
    /// Physical byte address.
    pub addr: u64,
    /// Read or write.
    pub op: MemOp,
    /// Physical service class (decides occupancy/latency).
    pub class: ServiceClass,
    /// Cycle at which the request entered the controller.
    pub arrival: Cycle,
}

/// A finished (or preempted) operation, reported by the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The transaction's identifier.
    pub id: TransactionId,
    /// Physical byte address.
    pub addr: u64,
    /// Read or write (refreshes report as writes).
    pub op: MemOp,
    /// The service class that executed.
    pub class: ServiceClass,
    /// Cycle the request entered the controller.
    pub arrival: Cycle,
    /// Cycle service began at the bank.
    pub start: Cycle,
    /// Cycle the operation finished (or was aborted).
    pub finish: Cycle,
    /// True when the operation was preempted by a demand access (only
    /// possible for preemptible classes) and did not complete its work.
    pub preempted: bool,
}

crate::snap_fields!(Transaction {
    id: TransactionId,
    addr: u64,
    op: MemOp,
    class: ServiceClass,
    arrival: Cycle,
});

impl Completion {
    /// End-to-end latency in cycles (queueing + service).
    #[must_use]
    pub fn latency(&self) -> Cycle {
        self.finish - self.arrival
    }

    /// Queueing delay before service started, in cycles.
    #[must_use]
    pub fn queue_delay(&self) -> Cycle {
        self.start - self.arrival
    }
}

crate::snap_fields!(Completion {
    id: TransactionId,
    addr: u64,
    op: MemOp,
    class: ServiceClass,
    arrival: Cycle,
    start: Cycle,
    finish: Cycle,
    preempted: bool,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_decomposes() {
        let c = Completion {
            id: 1,
            addr: 0,
            op: MemOp::Read,
            class: ServiceClass::Read,
            arrival: 10,
            start: 15,
            finish: 37,
            preempted: false,
        };
        assert_eq!(c.latency(), 27);
        assert_eq!(c.queue_delay(), 5);
    }

    #[test]
    fn only_refresh_is_preemptible() {
        assert!(ServiceClass::RankRefresh.is_preemptible());
        assert!(!ServiceClass::Read.is_preemptible());
        assert!(!ServiceClass::Write.is_preemptible());
        assert!(!ServiceClass::ResetOnlyWrite.is_preemptible());
    }
}
