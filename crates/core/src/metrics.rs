//! Per-run results: the quantities Fig. 5–7 of the paper report.

use crate::observe::{Event, WriteClass};
use crate::wcpcm::CacheStats;
use core::fmt;
use pcm_sim::snap::{SnapError, SnapReader, SnapWriter};
use pcm_sim::{EnergyTally, Histogram, LatencyHistogram, LatencySummary, MemOp, WearSummary};

/// Results of driving one trace through one architecture.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// End-to-end demand read latency, in controller cycles.
    pub reads: LatencySummary,
    /// End-to-end demand write latency, in controller cycles.
    pub writes: LatencySummary,
    /// Read-latency histogram (for percentile/tail queries).
    pub read_hist: LatencyHistogram,
    /// Write-latency histogram (for percentile/tail queries).
    pub write_hist: LatencyHistogram,
    /// Demand writes serviced at RESET-only speed.
    pub fast_writes: u64,
    /// Demand writes that paid full (SET-gated) latency — every write in
    /// the baseline, only α-writes in WOM-coded architectures.
    pub slow_writes: u64,
    /// Demand writes absorbed by the row buffer of an already-pending row
    /// write (write coalescing): no extra array operation.
    pub coalesced_writes: u64,
    /// WCPCM victim rows written back to main memory (internal traffic,
    /// excluded from demand latency).
    pub victim_writebacks: u64,
    /// PCM-refresh operations that completed.
    pub refreshes_completed: u64,
    /// PCM-refresh operations aborted by write pausing.
    pub refreshes_preempted: u64,
    /// Internal Start-Gap row copies performed (wear-leveling overhead).
    pub leveling_copies: u64,
    /// Companion hidden-page accesses issued (only when the hidden-page
    /// organization's extra traffic is charged; see `SystemConfig`).
    pub hidden_page_accesses: u64,
    /// Reads checked against the functional data model (when
    /// `verify_data` is enabled); every one decoded correctly.
    pub data_reads_verified: u64,
    /// WOM-cache hit/miss counters (`Some` exactly on a system with a
    /// WOM-cache).
    pub cache: Option<CacheStats>,
    /// Array energy across main memory and (for WCPCM) the cache arrays.
    pub energy: EnergyTally,
    /// Wear distribution of main-memory rows.
    pub wear_main: WearSummary,
    /// Wear distribution of the WOM-cache rows (WCPCM only).
    pub wear_cache: Option<WearSummary>,
    /// Controller clock period, for cycle → ns conversion.
    pub clock_ns: f64,
}

impl RunMetrics {
    /// Mean demand write latency in nanoseconds.
    #[must_use]
    pub fn mean_write_ns(&self) -> f64 {
        self.writes.mean() * self.clock_ns
    }

    /// Mean demand read latency in nanoseconds.
    #[must_use]
    pub fn mean_read_ns(&self) -> f64 {
        self.reads.mean() * self.clock_ns
    }

    /// Fraction of demand *array* writes that ran at RESET speed
    /// (coalesced writes never reach the array and are excluded).
    #[must_use]
    pub fn fast_write_fraction(&self) -> f64 {
        let total = self.fast_writes + self.slow_writes;
        if total == 0 {
            0.0
        } else {
            self.fast_writes as f64 / total as f64
        }
    }

    /// The latency histogram for one operation kind (the shared
    /// [`Histogram`] every latency population in the stack records
    /// into).
    #[must_use]
    pub fn histogram(&self, op: MemOp) -> &Histogram {
        match op {
            MemOp::Read => &self.read_hist,
            MemOp::Write => &self.write_hist,
        }
    }

    /// A demand-latency percentile in nanoseconds for one operation
    /// kind (bucketed; see [`Histogram::percentile`]).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile_ns(&self, op: MemOp, q: f64) -> f64 {
        self.histogram(op).percentile(q) as f64 * self.clock_ns
    }

    /// Mean array energy per demand access, in picojoules.
    #[must_use]
    pub fn energy_per_access_pj(&self) -> f64 {
        let accesses = self.reads.count + self.writes.count;
        if accesses == 0 {
            0.0
        } else {
            self.energy.total_pj() / accesses as f64
        }
    }

    /// This run's mean write latency normalized to a baseline run
    /// (the y-axis of Fig. 5(a); 1.0 = no change, lower is better).
    ///
    /// Returns `None` when either run recorded no writes.
    #[must_use]
    pub fn normalized_write_latency(&self, baseline: &Self) -> Option<f64> {
        if self.writes.count == 0 || baseline.writes.count == 0 {
            return None;
        }
        Some(self.writes.mean() / baseline.writes.mean())
    }

    /// This run's mean read latency normalized to a baseline run
    /// (the y-axis of Fig. 5(b)).
    ///
    /// Returns `None` when either run recorded no reads.
    #[must_use]
    pub fn normalized_read_latency(&self, baseline: &Self) -> Option<f64> {
        if self.reads.count == 0 || baseline.reads.count == 0 {
            return None;
        }
        Some(self.reads.mean() / baseline.reads.mean())
    }

    /// Merges another shard's metrics into this one.
    ///
    /// Counters and energies add, latency summaries and histograms merge,
    /// and the wear distributions pool exactly because shards partition
    /// the row space ([`WearSummary::merge_disjoint`]). Every piece of
    /// the reduction is commutative and associative, so any merge order
    /// over a shard set yields `{:#?}`-byte-identical results (pinned by
    /// the `shard_determinism` bench test). `clock_ns` is shared
    /// configuration and keeps this side's value (an empty identity
    /// element adopts the other side's clock).
    pub fn merge(&mut self, other: &Self) {
        self.reads.merge(&other.reads);
        self.writes.merge(&other.writes);
        self.read_hist.merge(&other.read_hist);
        self.write_hist.merge(&other.write_hist);
        self.fast_writes += other.fast_writes;
        self.slow_writes += other.slow_writes;
        self.coalesced_writes += other.coalesced_writes;
        self.victim_writebacks += other.victim_writebacks;
        self.refreshes_completed += other.refreshes_completed;
        self.refreshes_preempted += other.refreshes_preempted;
        self.leveling_copies += other.leveling_copies;
        self.hidden_page_accesses += other.hidden_page_accesses;
        self.data_reads_verified += other.data_reads_verified;
        match (&mut self.cache, &other.cache) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (None, Some(theirs)) => self.cache = Some(*theirs),
            _ => {}
        }
        self.energy.merge(&other.energy);
        self.wear_main.merge_disjoint(&other.wear_main);
        match (&mut self.wear_cache, &other.wear_cache) {
            (Some(mine), Some(theirs)) => mine.merge_disjoint(theirs),
            (None, Some(theirs)) => self.wear_cache = Some(*theirs),
            _ => {}
        }
        if self.clock_ns == 0.0 {
            self.clock_ns = other.clock_ns;
        }
    }

    /// Folds one engine event into the running counters: the run-level
    /// twin of [`EpochCounters::fold`](crate::observe::EpochCounters::fold).
    /// The engine's `emit` calls it for every event, before the epoch
    /// recorder and the data checker fold it, so it is the only way a run
    /// count changes.
    pub(crate) fn record(&mut self, event: &Event) {
        match *event {
            Event::ReadCompleted { latency, .. } => {
                self.reads.record(latency);
                self.read_hist.record(latency);
            }
            Event::WriteCompleted { latency, class, .. } => {
                self.writes.record(latency);
                self.write_hist.record(latency);
                match class {
                    WriteClass::Fast => self.fast_writes += 1,
                    WriteClass::Slow => self.slow_writes += 1,
                    WriteClass::Coalesced => self.coalesced_writes += 1,
                }
            }
            Event::RefreshRow { preempted, .. } => {
                if preempted {
                    self.refreshes_preempted += 1;
                } else {
                    self.refreshes_completed += 1;
                }
            }
            Event::CacheRead { hit, .. } => {
                if let Some(cache) = &mut self.cache {
                    if hit {
                        cache.read_hits += 1;
                    } else {
                        cache.read_misses += 1;
                    }
                }
            }
            Event::CacheWrite { hit, .. } => {
                if let Some(cache) = &mut self.cache {
                    if hit {
                        cache.write_hits += 1;
                    } else {
                        cache.write_misses += 1;
                    }
                }
            }
            Event::VictimWriteback { .. } => self.victim_writebacks += 1,
            Event::GapMove { .. } => self.leveling_copies += 1,
            Event::HiddenPageAccess { .. } => self.hidden_page_accesses += 1,
            Event::ReadIssued { .. }
            | Event::WriteIssued { .. }
            | Event::RefreshBurst { .. }
            | Event::BudgetExhausted { .. }
            | Event::CacheFlush { .. } => {}
        }
    }

    /// Appends the running counters, each once: the latency summaries
    /// and histograms, the write classes, victims, refreshes, leveling
    /// copies and hidden-page accesses, then the cache counters on a
    /// system with a WOM-cache. The clock and the cache's presence are
    /// configuration, and the energy, wear and verified-read totals are
    /// set only by `finish`, so none of them is written.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.reads);
        w.put(&self.writes);
        w.put(&self.read_hist);
        w.put(&self.write_hist);
        w.put(&self.fast_writes);
        w.put(&self.slow_writes);
        w.put(&self.coalesced_writes);
        w.put(&self.victim_writebacks);
        w.put(&self.refreshes_completed);
        w.put(&self.refreshes_preempted);
        w.put(&self.leveling_copies);
        w.put(&self.hidden_page_accesses);
        if let Some(cache) = &self.cache {
            w.put(cache);
        }
    }

    /// Restores the counters written by [`save_state`](Self::save_state)
    /// into these metrics, which the same configuration built (it fixes
    /// the clock and whether the cache counters are present).
    ///
    /// # Errors
    ///
    /// Propagates payload truncation.
    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.reads = r.take()?;
        self.writes = r.take()?;
        self.read_hist = r.take()?;
        self.write_hist = r.take()?;
        self.fast_writes = r.take()?;
        self.slow_writes = r.take()?;
        self.coalesced_writes = r.take()?;
        self.victim_writebacks = r.take()?;
        self.refreshes_completed = r.take()?;
        self.refreshes_preempted = r.take()?;
        self.leveling_copies = r.take()?;
        self.hidden_page_accesses = r.take()?;
        if let Some(cache) = &mut self.cache {
            *cache = r.take()?;
        }
        Ok(())
    }
}

impl fmt::Display for RunMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "writes: {} (mean {:.1} ns, {:.1}% fast)",
            self.writes,
            self.mean_write_ns(),
            self.fast_write_fraction() * 100.0
        )?;
        writeln!(
            f,
            "reads : {} (mean {:.1} ns)",
            self.reads,
            self.mean_read_ns()
        )?;
        write!(
            f,
            "refresh: {} done / {} preempted; victims: {}",
            self.refreshes_completed, self.refreshes_preempted, self.victim_writebacks
        )?;
        if let Some(cache) = &self.cache {
            write!(f, "; wom-cache hit rate {:.1}%", cache.hit_rate() * 100.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_latency(write_mean: u64, read_mean: u64) -> RunMetrics {
        let mut m = RunMetrics {
            clock_ns: 1.25,
            ..RunMetrics::default()
        };
        m.writes.record(write_mean);
        m.reads.record(read_mean);
        m
    }

    #[test]
    fn normalization_is_a_ratio() {
        let base = with_latency(120, 26);
        let faster = with_latency(60, 13);
        assert!((faster.normalized_write_latency(&base).unwrap() - 0.5).abs() < 1e-12);
        assert!((faster.normalized_read_latency(&base).unwrap() - 0.5).abs() < 1e-12);
        assert!((base.normalized_write_latency(&base).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_of_empty_runs_is_none() {
        let base = with_latency(120, 26);
        let empty = RunMetrics::default();
        assert!(empty.normalized_write_latency(&base).is_none());
        assert!(base.normalized_read_latency(&empty).is_none());
    }

    #[test]
    fn ns_conversion_uses_clock() {
        let m = with_latency(100, 20);
        assert!((m.mean_write_ns() - 125.0).abs() < 1e-9);
        assert!((m.mean_read_ns() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn fast_fraction() {
        let mut m = RunMetrics::default();
        assert_eq!(m.fast_write_fraction(), 0.0);
        m.fast_writes = 3;
        m.slow_writes = 1;
        assert!((m.fast_write_fraction() - 0.75).abs() < 1e-12);
    }

    /// The checkpoint section holds the running counters only: restoring
    /// it keeps the clock and the cache's presence of the metrics the
    /// configuration built.
    #[test]
    fn restore_keeps_the_configured_clock_and_cache() {
        let mut saved = with_latency(100, 20);
        saved.cache = Some(CacheStats {
            read_hits: 3,
            ..CacheStats::default()
        });
        saved.fast_writes = 7;
        let mut w = SnapWriter::new();
        saved.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = RunMetrics {
            clock_ns: 2.5,
            cache: Some(CacheStats::default()),
            ..RunMetrics::default()
        };
        let mut r = SnapReader::new(&bytes);
        restored.load_state(&mut r).expect("restores");
        r.finish().expect("consumes the section");
        assert_eq!(restored.clock_ns, 2.5, "the clock is configuration");
        assert_eq!(
            (restored.fast_writes, restored.cache, restored.writes),
            (7, saved.cache, saved.writes)
        );

        // Without a WOM-cache the section carries no cache counters.
        let mut uncached = RunMetrics::default();
        let mut r = SnapReader::new(&bytes);
        uncached.load_state(&mut r).expect("restores");
        assert_eq!(r.remaining(), 4 * 8, "the four cache counters are left");
        assert_eq!(uncached.cache, None);
    }

    #[test]
    fn display_is_informative() {
        let mut m = with_latency(100, 20);
        m.cache = Some(CacheStats {
            write_hits: 1,
            ..CacheStats::default()
        });
        let s = m.to_string();
        assert!(s.contains("wom-cache hit rate"));
        assert!(s.contains("writes:"));
    }
}

#[cfg(test)]
mod percentile_tests {
    use super::*;

    #[test]
    fn percentiles_convert_to_ns() {
        let mut m = RunMetrics {
            clock_ns: 1.25,
            ..RunMetrics::default()
        };
        for l in [20u64, 24, 28, 32, 200] {
            m.write_hist.record(l);
            m.read_hist.record(l / 2);
        }
        // p50 of the writes lies in the 32-bucket: upper edge 63 cycles.
        assert!(m.percentile_ns(MemOp::Write, 0.5) <= 63.0 * 1.25 + 1e-9);
        assert!(m.percentile_ns(MemOp::Write, 1.0) >= 200.0 * 1.25 - 1e-9);
        assert!(m.percentile_ns(MemOp::Read, 1.0) < m.percentile_ns(MemOp::Write, 1.0));
    }

    #[test]
    fn empty_histograms_report_zero() {
        let m = RunMetrics {
            clock_ns: 1.25,
            ..RunMetrics::default()
        };
        assert_eq!(m.percentile_ns(MemOp::Write, 0.99), 0.0);
        assert_eq!(m.percentile_ns(MemOp::Read, 0.5), 0.0);
    }

    #[test]
    fn energy_per_access_handles_empty_runs() {
        let m = RunMetrics::default();
        assert_eq!(m.energy_per_access_pj(), 0.0);
    }
}
