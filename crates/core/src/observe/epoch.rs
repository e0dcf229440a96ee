//! Folding the event stream into fixed-width epoch time-series.

use super::event::{Event, WriteClass};
use crate::error::WomPcmError;
use pcm_sim::snap::{SnapError, SnapReader, SnapWriter};
use pcm_sim::{Cycle, Histogram};

/// Everything counted within one epoch.
///
/// The fields mirror the run-level [`RunMetrics`](crate::RunMetrics)
/// fold over the same event stream, so summing a series' epochs
/// reconciles exactly with the end-of-run aggregates (pinned by the
/// `epoch_reconciliation` integration test).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochCounters {
    /// Demand reads submitted.
    pub reads_issued: u64,
    /// Demand writes submitted.
    pub writes_issued: u64,
    /// Demand reads completed.
    pub reads_completed: u64,
    /// Demand writes completed (including coalesced ones).
    pub writes_completed: u64,
    /// Sum of completed-read latencies, in cycles.
    pub read_cycles: u128,
    /// Sum of completed-write latencies, in cycles.
    pub write_cycles: u128,
    /// Completed writes serviced at RESET-only speed.
    pub fast_writes: u64,
    /// Completed writes that paid the full SET-gated latency.
    pub slow_writes: u64,
    /// Writes absorbed into a pending row write (no array operation).
    pub coalesced_writes: u64,
    /// Refresh bursts planned on idle ranks.
    pub refresh_bursts: u64,
    /// Rows enqueued across those bursts.
    pub refresh_rows_planned: u64,
    /// Row refreshes that ran to completion.
    pub refreshes_completed: u64,
    /// Row refreshes aborted by write pausing.
    pub refreshes_preempted: u64,
    /// WOM-cache read-tag hits (WCPCM only).
    pub cache_read_hits: u64,
    /// WOM-cache read-tag misses.
    pub cache_read_misses: u64,
    /// WOM-cache write hits.
    pub cache_write_hits: u64,
    /// WOM-cache write misses (each evicts a victim).
    pub cache_write_misses: u64,
    /// Victim rows that finished writing back to main memory.
    pub victim_writebacks: u64,
    /// Start-Gap wear-leveling row copies.
    pub gap_moves: u64,
    /// Rows whose WOM rewrite budget ran out.
    pub budgets_exhausted: u64,
    /// Hidden-page companion accesses issued.
    pub hidden_page_accesses: u64,
    /// Completed-read latency histogram for this epoch.
    pub read_hist: Histogram,
    /// Completed-write latency histogram for this epoch.
    pub write_hist: Histogram,
}

impl EpochCounters {
    /// Folds one event into the counters.
    pub fn fold(&mut self, event: &Event) {
        match *event {
            Event::ReadIssued { .. } => self.reads_issued += 1,
            Event::WriteIssued { .. } => self.writes_issued += 1,
            Event::ReadCompleted { latency, .. } => {
                self.reads_completed += 1;
                self.read_cycles += u128::from(latency);
                self.read_hist.record(latency);
            }
            Event::WriteCompleted { latency, class, .. } => {
                self.writes_completed += 1;
                self.write_cycles += u128::from(latency);
                self.write_hist.record(latency);
                match class {
                    WriteClass::Fast => self.fast_writes += 1,
                    WriteClass::Slow => self.slow_writes += 1,
                    WriteClass::Coalesced => self.coalesced_writes += 1,
                }
            }
            Event::RefreshBurst { rows, .. } => {
                self.refresh_bursts += 1;
                self.refresh_rows_planned += u64::from(rows);
            }
            Event::RefreshRow { preempted, .. } => {
                if preempted {
                    self.refreshes_preempted += 1;
                } else {
                    self.refreshes_completed += 1;
                }
            }
            Event::CacheRead { hit, .. } => {
                if hit {
                    self.cache_read_hits += 1;
                } else {
                    self.cache_read_misses += 1;
                }
            }
            Event::CacheWrite { hit, .. } => {
                if hit {
                    self.cache_write_hits += 1;
                } else {
                    self.cache_write_misses += 1;
                }
            }
            Event::VictimWriteback { .. } => self.victim_writebacks += 1,
            Event::GapMove { .. } => self.gap_moves += 1,
            Event::BudgetExhausted { .. } => self.budgets_exhausted += 1,
            Event::HiddenPageAccess { .. } => self.hidden_page_accesses += 1,
            Event::CacheFlush { .. } => {}
        }
    }

    /// Merges another epoch's counters into this one. Merging is
    /// associative and commutative — the basis of reconciling epoch sums
    /// against run-level aggregates.
    pub fn merge(&mut self, other: &Self) {
        self.reads_issued += other.reads_issued;
        self.writes_issued += other.writes_issued;
        self.reads_completed += other.reads_completed;
        self.writes_completed += other.writes_completed;
        self.read_cycles += other.read_cycles;
        self.write_cycles += other.write_cycles;
        self.fast_writes += other.fast_writes;
        self.slow_writes += other.slow_writes;
        self.coalesced_writes += other.coalesced_writes;
        self.refresh_bursts += other.refresh_bursts;
        self.refresh_rows_planned += other.refresh_rows_planned;
        self.refreshes_completed += other.refreshes_completed;
        self.refreshes_preempted += other.refreshes_preempted;
        self.cache_read_hits += other.cache_read_hits;
        self.cache_read_misses += other.cache_read_misses;
        self.cache_write_hits += other.cache_write_hits;
        self.cache_write_misses += other.cache_write_misses;
        self.victim_writebacks += other.victim_writebacks;
        self.gap_moves += other.gap_moves;
        self.budgets_exhausted += other.budgets_exhausted;
        self.hidden_page_accesses += other.hidden_page_accesses;
        self.read_hist.merge(&other.read_hist);
        self.write_hist.merge(&other.write_hist);
    }
}

pcm_sim::snap_fields!(EpochCounters {
    reads_issued: u64,
    writes_issued: u64,
    reads_completed: u64,
    writes_completed: u64,
    read_cycles: u128,
    write_cycles: u128,
    fast_writes: u64,
    slow_writes: u64,
    coalesced_writes: u64,
    refresh_bursts: u64,
    refresh_rows_planned: u64,
    refreshes_completed: u64,
    refreshes_preempted: u64,
    cache_read_hits: u64,
    cache_read_misses: u64,
    cache_write_hits: u64,
    cache_write_misses: u64,
    victim_writebacks: u64,
    gap_moves: u64,
    budgets_exhausted: u64,
    hidden_page_accesses: u64,
    read_hist: Histogram,
    write_hist: Histogram,
});

/// A completed fixed-width epoch time-series: one [`EpochCounters`] per
/// `epoch_cycles`-wide window, indexed from cycle 0.
///
/// Epoch `i` covers cycles `[i * epoch_cycles, (i + 1) * epoch_cycles)`;
/// an event stamped exactly on an edge belongs to the epoch it starts.
/// A run ending exactly on an edge does *not* materialize the zero-length
/// epoch after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochSeries {
    epoch_cycles: Cycle,
    end_cycle: Cycle,
    epochs: Vec<EpochCounters>,
}

impl EpochSeries {
    /// The most epochs a series holds: 65,536. An epoch's counters take
    /// 848 bytes (two 41-bucket histograms and 21 counters), so a full
    /// series is about 53 MiB, a bound per observed session. At the
    /// 50,000-cycle default width of the bench harness and womd it spans
    /// 3.3·10⁹ controller cycles (4.1 simulated seconds at 1.25 ns),
    /// while the longest of the repository's observed runs (the tests,
    /// CI's observed run, `fig5` and `endurance` at their default sizes)
    /// records 125 epochs. Without the ceiling, one far-future
    /// cycle (two legal records 2^50 cycles apart, or a damaged
    /// checkpoint's clock) sized the series to the whole gap at once and
    /// the failed allocation aborted the process.
    pub const MAX_EPOCHS: usize = 1 << 16;

    /// The configured epoch width in cycles.
    #[must_use]
    pub fn epoch_cycles(&self) -> Cycle {
        self.epoch_cycles
    }

    /// The cycle the run ended at (the last epoch may be truncated).
    #[must_use]
    pub fn end_cycle(&self) -> Cycle {
        self.end_cycle
    }

    /// Number of materialized epochs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// Whether the series holds no epochs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// The epochs, in time order.
    #[must_use]
    pub fn epochs(&self) -> &[EpochCounters] {
        &self.epochs
    }

    /// First cycle of epoch `i`.
    #[must_use]
    pub fn epoch_start(&self, i: usize) -> Cycle {
        i as Cycle * self.epoch_cycles
    }

    /// One-past-last cycle of epoch `i` (the final epoch is truncated to
    /// the run's end cycle).
    #[must_use]
    pub fn epoch_end(&self, i: usize) -> Cycle {
        let full = (i as Cycle + 1).saturating_mul(self.epoch_cycles);
        if i + 1 == self.epochs.len() && self.end_cycle > self.epoch_start(i) {
            full.min(self.end_cycle)
        } else {
            full
        }
    }

    /// All epochs merged back into run-level totals.
    #[must_use]
    pub fn totals(&self) -> EpochCounters {
        let mut t = EpochCounters::default();
        for e in &self.epochs {
            t.merge(e);
        }
        t
    }

    /// Merges another series of the *same epoch width* into this one,
    /// epoch by epoch (shorter sides pad with empty epochs). The merge is
    /// commutative and associative, so shard reductions are
    /// order-independent.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] when the epoch widths
    /// differ — those series bucket time incompatibly.
    pub fn merge(&mut self, other: &Self) -> Result<(), WomPcmError> {
        if self.epoch_cycles != other.epoch_cycles {
            // womlint::allow(hotpath/alloc, reason = "width-mismatch error path: allocates once, then the merge aborts")
            return Err(WomPcmError::InvalidConfig(format!(
                "cannot merge epoch series of widths {} and {}",
                self.epoch_cycles, other.epoch_cycles
            )));
        }
        self.end_cycle = self.end_cycle.max(other.end_cycle);
        if self.epochs.len() < other.epochs.len() {
            self.epochs
                .resize_with(other.epochs.len(), EpochCounters::default);
        }
        for (mine, theirs) in self.epochs.iter_mut().zip(&other.epochs) {
            mine.merge(theirs);
        }
        Ok(())
    }
}

/// The epoch observer: folds events into an [`EpochSeries`] as they
/// arrive.
///
/// Events need not arrive in cycle order (the main-memory and WOM-cache
/// completion drains interleave): the recorder indexes epochs by
/// `cycle / epoch_cycles` rather than assuming a monotone cursor.
#[derive(Debug, Clone)]
pub struct EpochRecorder {
    series: EpochSeries,
}

impl EpochRecorder {
    /// Creates a recorder with the given epoch width in cycles (clamped
    /// to at least 1; [`SystemConfig`](crate::SystemConfig) validation
    /// rejects 0 before a recorder is ever built).
    #[must_use]
    pub fn new(epoch_cycles: Cycle) -> Self {
        Self {
            series: EpochSeries {
                epoch_cycles: epoch_cycles.max(1),
                end_cycle: 0,
                epochs: Vec::new(),
            },
        }
    }

    /// Ensures the epoch containing `cycle` is materialized and returns
    /// its index, or `None` past [`EpochSeries::MAX_EPOCHS`].
    fn materialize(&mut self, cycle: Cycle) -> Option<usize> {
        let idx = usize::try_from(cycle / self.series.epoch_cycles)
            .ok()
            .filter(|&idx| idx < EpochSeries::MAX_EPOCHS)?;
        if idx >= self.series.epochs.len() {
            self.series
                .epochs
                .resize_with(idx + 1, EpochCounters::default);
        }
        Some(idx)
    }

    /// Folds one event into its epoch. An event past
    /// [`EpochSeries::MAX_EPOCHS`] only moves the end cycle, which
    /// [`check_ceiling`](Self::check_ceiling) then reports.
    pub fn on_event(&mut self, event: &Event) {
        let cycle = event.cycle();
        self.series.end_cycle = self.series.end_cycle.max(cycle.saturating_add(1));
        let idx = self.materialize(cycle);
        if let Some(slot) = idx.and_then(|idx| self.series.epochs.get_mut(idx)) {
            slot.fold(event);
        }
    }

    /// Fails once the run has reached a cycle the series cannot hold: one
    /// in an epoch at or past [`EpochSeries::MAX_EPOCHS`]. The end cycle
    /// covers every event and the finish, so this one check catches a
    /// far-future record, a restored clock and a restored completion.
    ///
    /// # Errors
    ///
    /// [`WomPcmError::InvalidConfig`]: the configured epoch width is too
    /// narrow for the run.
    pub fn check_ceiling(&self) -> Result<(), WomPcmError> {
        let width = self.series.epoch_cycles;
        let end = self.series.end_cycle;
        if end <= (EpochSeries::MAX_EPOCHS as Cycle).saturating_mul(width) {
            return Ok(());
        }
        // womlint::allow(hotpath/transitive, reason = "ceiling error path: allocates once, then the run aborts")
        Err(WomPcmError::InvalidConfig(format!(
            "the run reached cycle {}, past the {} epochs of {width} cycles an epoch series \
             holds; widen epoch_cycles",
            end - 1,
            EpochSeries::MAX_EPOCHS
        )))
    }

    /// Marks the run's end: records the final cycle and materializes any
    /// trailing event-free epochs so the timeline is contiguous. A run
    /// ending exactly on an epoch edge leaves no zero-length epoch.
    pub fn on_finish(&mut self, now: Cycle) {
        self.series.end_cycle = self.series.end_cycle.max(now);
        if self.series.end_cycle > 0 {
            let _ = self.materialize(self.series.end_cycle - 1);
        }
    }

    /// The series recorded so far.
    #[must_use]
    pub fn series(&self) -> &EpochSeries {
        &self.series
    }

    /// Consumes the recorder, returning the series.
    #[must_use]
    pub fn into_series(self) -> EpochSeries {
        self.series
    }

    /// Appends the series' end cycle and epochs. The epoch width comes
    /// from the configuration, so it is not written.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.series.end_cycle);
        w.put(&self.series.epochs);
    }

    /// Restores state written by [`save_state`](Self::save_state) into
    /// this recorder, built with the same width.
    ///
    /// # Errors
    ///
    /// Propagates payload truncation and corruption.
    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.series.end_cycle = r.take()?;
        self.series.epochs = r.take()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_done(cycle: Cycle, latency: Cycle) -> Event {
        Event::ReadCompleted { cycle, latency }
    }

    /// Every variant, every write class and both values of each flag,
    /// folded by this fold and by the run-level one: they agree on every
    /// field they share.
    #[test]
    fn run_and_epoch_folds_agree() {
        use crate::metrics::RunMetrics;
        use crate::wcpcm::CacheStats;

        let mut run = RunMetrics {
            cache: Some(CacheStats::default()),
            ..RunMetrics::default()
        };
        let mut e = EpochCounters::default();
        for event in &crate::observe::event::one_of_each() {
            run.record(event);
            e.fold(event);
        }
        assert_eq!(
            (run.reads.count, run.reads.total, &run.read_hist),
            (e.reads_completed, e.read_cycles, &e.read_hist)
        );
        assert_eq!(
            (run.writes.count, run.writes.total, &run.write_hist),
            (e.writes_completed, e.write_cycles, &e.write_hist)
        );
        let run_counts = [
            run.fast_writes,
            run.slow_writes,
            run.coalesced_writes,
            run.refreshes_completed,
            run.refreshes_preempted,
            run.victim_writebacks,
            run.leveling_copies,
            run.hidden_page_accesses,
        ];
        let epoch_counts = [
            e.fast_writes,
            e.slow_writes,
            e.coalesced_writes,
            e.refreshes_completed,
            e.refreshes_preempted,
            e.victim_writebacks,
            e.gap_moves,
            e.hidden_page_accesses,
        ];
        assert_eq!(run_counts, epoch_counts);
        assert_eq!(run_counts, [1; 8], "one of each");
        let cache = run.cache.expect("the cache counts");
        assert_eq!(
            [
                cache.read_hits,
                cache.read_misses,
                cache.write_hits,
                cache.write_misses
            ],
            [
                e.cache_read_hits,
                e.cache_read_misses,
                e.cache_write_hits,
                e.cache_write_misses
            ]
        );
        assert_eq!(cache.hit_rate(), 0.5, "one hit and one miss of each");
        assert_eq!((run.reads.count, run.writes.count), (1, 3));
    }

    #[test]
    fn events_on_an_epoch_edge_open_the_next_epoch() {
        let mut r = EpochRecorder::new(100);
        r.on_event(&read_done(99, 10));
        r.on_event(&read_done(100, 10)); // exactly on the edge
        let s = r.into_series();
        assert_eq!(s.len(), 2);
        assert_eq!(s.epochs()[0].reads_completed, 1);
        assert_eq!(s.epochs()[1].reads_completed, 1);
        assert_eq!(s.epoch_start(1), 100);
    }

    #[test]
    fn finish_on_an_edge_leaves_no_zero_length_epoch() {
        let mut r = EpochRecorder::new(100);
        r.on_event(&read_done(42, 10));
        r.on_finish(200); // exactly two full epochs
        let s = r.into_series();
        assert_eq!(s.len(), 2);
        assert_eq!(s.end_cycle(), 200);
        assert_eq!(s.epoch_end(1), 200);
        assert_eq!(s.epochs()[1], EpochCounters::default());
    }

    #[test]
    fn final_epoch_is_truncated_to_the_end_cycle() {
        let mut r = EpochRecorder::new(100);
        r.on_event(&read_done(150, 10));
        r.on_finish(151);
        let s = r.into_series();
        assert_eq!(s.len(), 2);
        assert_eq!(s.epoch_end(0), 100);
        assert_eq!(s.epoch_end(1), 151);
    }

    #[test]
    fn out_of_order_events_land_in_their_epochs() {
        let mut r = EpochRecorder::new(10);
        r.on_event(&read_done(35, 1));
        r.on_event(&read_done(5, 1)); // earlier epoch, after a later one
        let s = r.into_series();
        assert_eq!(s.len(), 4);
        assert_eq!(s.epochs()[0].reads_completed, 1);
        assert_eq!(s.epochs()[3].reads_completed, 1);
        assert_eq!(s.epochs()[1].reads_completed, 0);
    }

    #[test]
    fn merge_is_associative() {
        let mut parts = Vec::new();
        for k in 0..3u64 {
            let mut c = EpochCounters::default();
            for i in 0..5 {
                c.fold(&read_done(i, 10 * (k + 1) + i));
                c.fold(&Event::WriteCompleted {
                    cycle: i,
                    latency: 100 + k,
                    class: if i % 2 == 0 {
                        WriteClass::Fast
                    } else {
                        WriteClass::Slow
                    },
                });
            }
            parts.push(c);
        }
        // (a ⊕ b) ⊕ c
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        // a ⊕ (b ⊕ c)
        let mut bc = parts[1].clone();
        bc.merge(&parts[2]);
        let mut right = parts[0].clone();
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.reads_completed, 15);
        assert_eq!(left.read_hist.count(), 15);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = EpochCounters::default();
        let mut b = EpochCounters::default();
        for i in 0..7 {
            a.fold(&read_done(i, 10 + i));
            a.fold(&Event::CacheWrite {
                cycle: i,
                hit: i % 2 == 0,
            });
            b.fold(&Event::WriteCompleted {
                cycle: i,
                latency: 200 + i,
                class: WriteClass::Slow,
            });
            b.fold(&Event::GapMove {
                cycle: i,
                rank: 0,
                bank: 0,
            });
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.reads_completed, 7);
        assert_eq!(ab.slow_writes, 7);
    }

    #[test]
    fn series_merge_pads_and_rejects_mismatched_widths() {
        let mut short = EpochRecorder::new(100);
        short.on_event(&read_done(5, 10));
        short.on_finish(100);
        let mut long = EpochRecorder::new(100);
        long.on_event(&read_done(250, 20));
        long.on_finish(300);
        let mut ab = short.series().clone();
        ab.merge(long.series()).unwrap();
        let mut ba = long.series().clone();
        ba.merge(short.series()).unwrap();
        assert_eq!(ab, ba, "series merge must be commutative");
        assert_eq!(ab.len(), 3);
        assert_eq!(ab.end_cycle(), 300);
        assert_eq!(ab.epochs()[0].reads_completed, 1);
        assert_eq!(ab.epochs()[2].reads_completed, 1);
        let other_width = EpochRecorder::new(50);
        assert!(ab.merge(other_width.series()).is_err());
    }

    #[test]
    fn series_snapshot_round_trip() {
        use pcm_sim::{SnapReader, SnapWriter};
        let mut r = EpochRecorder::new(100);
        r.on_event(&read_done(5, 10));
        r.on_event(&read_done(205, 30));
        r.on_finish(250);
        let mut w = SnapWriter::new();
        r.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut reader = SnapReader::new(&bytes);
        let mut back = EpochRecorder::new(100);
        back.load_state(&mut reader).unwrap();
        reader.finish().unwrap();
        assert_eq!(back.series(), r.series());
    }

    #[test]
    fn totals_equal_a_single_epoch_fold() {
        let events = [
            read_done(1, 20),
            read_done(205, 30),
            Event::VictimWriteback { cycle: 120 },
            Event::GapMove {
                cycle: 150,
                rank: 0,
                bank: 1,
            },
        ];
        let mut wide = EpochRecorder::new(1_000_000);
        let mut narrow = EpochRecorder::new(100);
        for e in &events {
            wide.on_event(e);
            narrow.on_event(e);
        }
        assert_eq!(wide.into_series().totals(), narrow.into_series().totals());
    }

    #[test]
    fn the_series_stops_growing_at_its_ceiling() {
        let mut r = EpochRecorder::new(10);
        let last = (EpochSeries::MAX_EPOCHS as Cycle) * 10 - 1;
        r.on_event(&read_done(last, 1));
        r.on_finish(last + 1);
        assert_eq!(r.series().len(), EpochSeries::MAX_EPOCHS);
        assert!(r.check_ceiling().is_ok(), "the last epoch still fits");
        r.on_event(&read_done(1 << 50, 1));
        assert_eq!(r.series().len(), EpochSeries::MAX_EPOCHS);
        assert_eq!(r.series().totals().reads_completed, 1, "dropped");
        assert!(matches!(
            r.check_ceiling(),
            Err(WomPcmError::InvalidConfig(_))
        ));
        let mut finished_late = EpochRecorder::new(10);
        finished_late.on_finish(last + 2);
        assert!(finished_late.series().is_empty());
        assert!(finished_late.check_ceiling().is_err());
    }

    #[test]
    fn zero_epoch_width_is_clamped() {
        let mut r = EpochRecorder::new(0);
        r.on_event(&read_done(3, 1));
        assert_eq!(r.series().epoch_cycles(), 1);
        assert_eq!(r.series().len(), 4);
    }
}
