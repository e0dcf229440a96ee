//! Latency and throughput statistics collected by the memory system.

use crate::energy::EnergyTally;
use crate::timing::Cycle;
use crate::transaction::{Completion, MemOp, ServiceClass};
use core::fmt;

/// Running summary of a latency population, in cycles.
///
/// ```
/// use pcm_sim::LatencySummary;
///
/// let mut s = LatencySummary::default();
/// s.record(22);
/// s.record(120);
/// assert_eq!(s.count, 2);
/// assert_eq!((s.min, s.max), (22, 120));
/// assert!((s.mean() - 71.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all latencies in cycles.
    pub total: u128,
    /// Minimum observed latency (0 when empty).
    pub min: Cycle,
    /// Maximum observed latency.
    pub max: Cycle,
}

impl LatencySummary {
    /// Records one latency sample.
    pub fn record(&mut self, latency: Cycle) {
        if self.count == 0 || latency < self.min {
            self.min = latency;
        }
        if latency > self.max {
            self.max = latency;
        }
        self.count += 1;
        self.total += u128::from(latency);
    }

    /// Arithmetic mean in cycles, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.total += other.total;
    }
}

crate::snap_fields!(LatencySummary {
    count: u64,
    total: u128,
    min: Cycle,
    max: Cycle,
});

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} min={} max={}",
            self.count,
            self.mean(),
            self.min,
            self.max
        )
    }
}

/// Aggregate statistics for one simulation run.
#[derive(Debug, Clone, Default)]
pub struct MemStats {
    /// End-to-end read latency (arrival → data).
    pub read_latency: LatencySummary,
    /// End-to-end write latency (arrival → cells programmed).
    pub write_latency: LatencySummary,
    /// Read-latency histogram (percentiles via the shared [`Histogram`]).
    pub read_hist: Histogram,
    /// Write-latency histogram (percentiles via the shared [`Histogram`]).
    pub write_hist: Histogram,
    /// Queueing delay for reads.
    pub read_queue_delay: LatencySummary,
    /// Queueing delay for writes.
    pub write_queue_delay: LatencySummary,
    /// Completed RESET-only (fast) writes.
    pub reset_only_writes: u64,
    /// Completed full (SET-bearing) writes.
    pub full_writes: u64,
    /// Rank-refresh operations that ran to completion.
    pub refreshes_completed: u64,
    /// Rank-refresh operations aborted by write pausing.
    pub refreshes_preempted: u64,
    /// Array energy consumed, split by operation class.
    pub energy: EnergyTally,
}

impl MemStats {
    /// Creates empty statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one completion into the statistics.
    pub fn record(&mut self, c: &Completion) {
        match c.class {
            ServiceClass::RankRefresh => {
                if c.preempted {
                    self.refreshes_preempted += 1;
                } else {
                    self.refreshes_completed += 1;
                }
                return;
            }
            ServiceClass::Write => self.full_writes += 1,
            ServiceClass::ResetOnlyWrite => self.reset_only_writes += 1,
            ServiceClass::Read => {}
        }
        match c.op {
            MemOp::Read => {
                self.read_latency.record(c.latency());
                self.read_hist.record(c.latency());
                self.read_queue_delay.record(c.queue_delay());
            }
            MemOp::Write => {
                self.write_latency.record(c.latency());
                self.write_hist.record(c.latency());
                self.write_queue_delay.record(c.queue_delay());
            }
        }
    }

    /// A read-latency percentile in cycles, delegated to the shared
    /// [`Histogram`] (bucketed; see [`Histogram::percentile`]).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn read_percentile(&self, q: f64) -> Cycle {
        self.read_hist.percentile(q)
    }

    /// A write-latency percentile in cycles, delegated to the shared
    /// [`Histogram`].
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn write_percentile(&self, q: f64) -> Cycle {
        self.write_hist.percentile(q)
    }

    /// Total demand accesses recorded.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.read_latency.count + self.write_latency.count
    }

    /// Fraction of completed writes that were RESET-only (fast).
    #[must_use]
    pub fn fast_write_fraction(&self) -> f64 {
        let total = self.reset_only_writes + self.full_writes;
        if total == 0 {
            0.0
        } else {
            self.reset_only_writes as f64 / total as f64
        }
    }
}

crate::snap_fields!(MemStats {
    read_latency: LatencySummary,
    write_latency: LatencySummary,
    read_hist: Histogram,
    write_hist: Histogram,
    read_queue_delay: LatencySummary,
    write_queue_delay: LatencySummary,
    reset_only_writes: u64,
    full_writes: u64,
    refreshes_completed: u64,
    refreshes_preempted: u64,
    energy: EnergyTally,
});

impl fmt::Display for MemStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "reads : {}", self.read_latency)?;
        writeln!(f, "writes: {}", self.write_latency)?;
        write!(
            f,
            "fast-write fraction: {:.1}% refreshes: {} completed / {} preempted",
            self.fast_write_fraction() * 100.0,
            self.refreshes_completed,
            self.refreshes_preempted
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completion(
        op: MemOp,
        class: ServiceClass,
        arrival: Cycle,
        start: Cycle,
        finish: Cycle,
    ) -> Completion {
        Completion {
            id: 0,
            addr: 0,
            op,
            class,
            arrival,
            start,
            finish,
            preempted: false,
        }
    }

    #[test]
    fn summary_tracks_extremes_and_mean() {
        let mut s = LatencySummary::default();
        for l in [10, 20, 30] {
            s.record(l);
        }
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 30);
        assert!((s.mean() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_mean_is_zero() {
        assert_eq!(LatencySummary::default().mean(), 0.0);
    }

    #[test]
    fn merge_combines_populations() {
        let mut a = LatencySummary::default();
        a.record(5);
        let mut b = LatencySummary::default();
        b.record(15);
        b.record(25);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.min, 5);
        assert_eq!(a.max, 25);
        let mut empty = LatencySummary::default();
        empty.merge(&a);
        assert_eq!(empty, a);
        a.merge(&LatencySummary::default());
        assert_eq!(a.count, 3);
    }

    #[test]
    fn stats_split_by_op_and_class() {
        let mut m = MemStats::new();
        m.record(&completion(MemOp::Read, ServiceClass::Read, 0, 0, 22));
        m.record(&completion(MemOp::Write, ServiceClass::Write, 0, 0, 120));
        m.record(&completion(
            MemOp::Write,
            ServiceClass::ResetOnlyWrite,
            0,
            0,
            32,
        ));
        assert_eq!(m.read_latency.count, 1);
        assert_eq!(m.write_latency.count, 2);
        assert_eq!(m.full_writes, 1);
        assert_eq!(m.reset_only_writes, 1);
        assert!((m.fast_write_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(m.accesses(), 3);
    }

    #[test]
    fn refreshes_do_not_pollute_demand_latency() {
        let mut m = MemStats::new();
        m.record(&completion(
            MemOp::Write,
            ServiceClass::RankRefresh,
            0,
            0,
            248,
        ));
        let mut pre = completion(MemOp::Write, ServiceClass::RankRefresh, 0, 0, 50);
        pre.preempted = true;
        m.record(&pre);
        assert_eq!(m.write_latency.count, 0);
        assert_eq!(m.refreshes_completed, 1);
        assert_eq!(m.refreshes_preempted, 1);
    }
}

/// A log₂-bucketed latency histogram supporting percentile queries.
///
/// Buckets hold latencies in `[2^i, 2^(i+1))` cycles (bucket 0 holds 0 and
/// 1). Percentiles are resolved to the upper edge of the containing
/// bucket, i.e. within 2× of the true value — plenty for tail-latency
/// trends at simulation scale, in constant memory.
///
/// ```
/// use pcm_sim::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for l in [20, 25, 30, 200] {
///     h.record(l);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(0.50) <= 64);
/// assert!(h.percentile(0.99) >= 200);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 40],
    count: u64,
}

/// The canonical name for the workspace's one shared latency histogram.
///
/// Every latency population in the stack — `MemStats` read/write
/// latencies here, `RunMetrics` demand histograms and the per-epoch
/// observability snapshots in `wom-pcm` — records into this type, so
/// percentile queries are bucketed identically everywhere. (The struct
/// keeps its historical `LatencyHistogram` name because golden-metrics
/// fixtures pin the `Debug` rendering of metrics containing it.)
pub type Histogram = LatencyHistogram;

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [0; 40],
            count: 0,
        }
    }

    fn bucket_of(latency: Cycle) -> usize {
        (64 - latency.max(1).leading_zeros() as usize - 1).min(39)
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Cycle) {
        self.buckets[Self::bucket_of(latency)] += 1;
        self.count += 1;
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The inclusive upper edge of bucket `i` in cycles (bucket `i` holds
    /// latencies in `[2^i, 2^(i+1))`; bucket 0 also holds 0).
    #[must_use]
    pub fn bucket_upper_bound(i: usize) -> Cycle {
        (1u64 << (i + 1).min(63)).saturating_sub(1)
    }

    /// Iterates the non-empty buckets as `(bucket index, sample count)`,
    /// in ascending latency order. Allocation-free; the basis of the
    /// observability exporters' sparse histogram encoding.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
    }

    /// The latency below which a `q` fraction of samples fall, resolved to
    /// the upper edge of its bucket (0 for an empty histogram).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Cycle {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return (1u64 << (i + 1)).saturating_sub(1);
            }
        }
        Cycle::MAX
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }
}

// The fixed 40-bucket schema, then the sample count.
crate::snap_fields!(LatencyHistogram {
    buckets: [u64; 40],
    count: u64,
});

#[cfg(test)]
mod histogram_tests {
    use super::*;

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn percentiles_bracket_true_values() {
        let mut h = LatencyHistogram::new();
        for l in 1..=1000u64 {
            h.record(l);
        }
        let p50 = h.percentile(0.5);
        // True median 500; bucketed answer is the 512-bucket edge (1023).
        assert!((500..=1023).contains(&p50), "p50 = {p50}");
        let p99 = h.percentile(0.99);
        assert!(p99 >= 990, "p99 = {p99}");
        assert!(h.percentile(1.0) >= 1000);
        assert!(h.percentile(0.0) >= 1);
    }

    #[test]
    fn tail_is_visible() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(30);
        }
        h.record(5_000); // one straggler
        assert!(h.percentile(0.50) < 64);
        assert!(h.percentile(0.995) >= 4096);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        a.record(10);
        let mut b = LatencyHistogram::new();
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.percentile(1.0) >= 1000);
    }

    #[test]
    fn huge_latencies_saturate_the_top_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(Cycle::MAX);
        assert_eq!(h.count(), 1);
        assert!(h.percentile(1.0) > 1 << 39);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn out_of_range_quantile_panics() {
        let _ = LatencyHistogram::new().percentile(1.5);
    }

    fn hist_of(samples: &[Cycle]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for &s in samples {
            h.record(s);
        }
        h
    }

    #[test]
    fn merge_is_commutative() {
        let a = hist_of(&[1, 30, 30, 5_000]);
        let b = hist_of(&[2, 64, 1 << 20]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative() {
        let a = hist_of(&[1, 30]);
        let b = hist_of(&[64, 64, 900]);
        let c = hist_of(&[Cycle::MAX, 7]);
        // (a ∪ b) ∪ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ∪ (b ∪ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn merge_identity_is_the_empty_histogram() {
        let a = hist_of(&[3, 99, 4096]);
        let mut merged = a.clone();
        merged.merge(&LatencyHistogram::new());
        assert_eq!(merged, a);
        let mut from_empty = LatencyHistogram::new();
        from_empty.merge(&a);
        assert_eq!(from_empty, a);
    }

    #[test]
    fn histogram_snapshot_round_trip() {
        use crate::snap::{SnapReader, SnapWriter};
        let h = hist_of(&[0, 1, 30, 5_000, Cycle::MAX]);
        let mut w = SnapWriter::new();
        w.put(&h);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back: LatencyHistogram = r.take().unwrap();
        r.finish().unwrap();
        assert_eq!(back, h);
    }
}
