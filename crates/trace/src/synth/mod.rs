//! Synthetic memory-trace generation.
//!
//! The paper drives its simulator with Pin-captured traces of SPEC
//! CPU2006, MiBench, and SPLASH-2 runs. Those captures are not
//! redistributable, so this module synthesizes address streams with the
//! properties the paper's mechanisms actually react to:
//!
//! * **read/write mix** — decides how much writes can matter at all;
//! * **row rewrite recurrence** — how soon a written row is written again,
//!   which drives WOM rewrite-budget consumption and α-write frequency;
//! * **spatial locality** (sequential runs, hot sets) — drives row-buffer
//!   and WOM-cache behaviour;
//! * **memory intensity** (inter-arrival gaps, burstiness) — drives
//!   rank idleness and therefore PCM-refresh opportunity.
//!
//! Each of the paper's 20 benchmarks has a [`WorkloadProfile`] in
//! [`benchmarks`] whose knobs are set from the suites' published
//! characterizations (embedded MiBench codes are low-intensity with small
//! footprints; SPLASH-2 kernels are high-intensity with little idleness;
//! SPEC is in between, with `464.h264ref` notably write-recurrent).

pub mod adversarial;
pub mod benchmarks;
pub mod datacenter;

use crate::record::{TraceOp, TraceRecord};
use pcm_rng::Rng;
use std::collections::VecDeque;

/// Cache-line granularity of generated addresses.
pub const LINE_BYTES: u64 = 64;

/// Page granularity of the address scatter (one OS page).
pub const PAGE_BYTES: u64 = 4096;

/// Physical address space pages are scattered into (the paper's 16 GiB
/// device).
pub const ADDRESS_SPACE_BYTES: u64 = 16 << 30;

/// Deterministic page scatter: maps a virtual page number to a pseudo-
/// random physical page, modelling the OS's virtual-to-physical mapping.
/// Without it a workload's pages would pack into contiguous low physical
/// addresses — an unrealistic layout that aliases every hot page onto the
/// same few row indices of every bank.
fn scatter_page(page: u64) -> u64 {
    let mut z = page.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z % (ADDRESS_SPACE_BYTES / PAGE_BYTES)
}

/// Knobs describing one workload's memory behaviour.
///
/// Probabilities are in `[0, 1]`; see the module docs for what each knob
/// exercises in the WOM-code PCM architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Workload name (e.g. `"464.h264ref"`).
    pub name: String,
    /// Benchmark suite the profile models.
    pub suite: Suite,
    /// Probability an access is a read.
    pub read_fraction: f64,
    /// Memory footprint in bytes; generated addresses stay within it.
    pub working_set_bytes: u64,
    /// Probability a non-sequential access targets the hot subset.
    pub hot_fraction: f64,
    /// Size of the hot subset as a fraction of the working set.
    pub hot_set_fraction: f64,
    /// Probability of continuing a sequential run (next cache line).
    pub sequential_run: f64,
    /// Probability a write revisits a recently written row.
    pub row_rewrite_prob: f64,
    /// Probability a read targets a recently written row (read-after-write
    /// locality: the accesses that queue behind long PCM writes).
    pub read_reuse_prob: f64,
    /// Mean idle gap between access bursts, in memory-controller cycles.
    pub mean_gap_cycles: f64,
    /// Number of back-to-back accesses per burst.
    pub burst_len: u32,
    /// How many recently written rows stay reusable. Larger windows spread
    /// row rewrites over longer intervals, giving PCM-refresh time to act
    /// between a row reaching its limit and its next rewrite.
    pub reuse_window: usize,
    /// Scatter pages across the physical address space (modelling an OS
    /// with a fragmented page pool). The paper's Pin traces carry
    /// contiguous (virtual) addresses, so the default is `false`; see
    /// `DESIGN.md` for the ablation this knob supports.
    pub scatter_pages: bool,
}

/// The benchmark suite a profile belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU2006 (general-purpose).
    SpecCpu2006,
    /// MiBench (embedded).
    MiBench,
    /// SPLASH-2 (high-performance / parallel).
    Splash2,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::SpecCpu2006 => f.write_str("SPEC CPU2006"),
            Self::MiBench => f.write_str("MiBench"),
            Self::Splash2 => f.write_str("SPLASH-2"),
        }
    }
}

impl WorkloadProfile {
    /// Validates every knob's range.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("read_fraction", self.read_fraction),
            ("hot_fraction", self.hot_fraction),
            ("hot_set_fraction", self.hot_set_fraction),
            ("sequential_run", self.sequential_run),
            ("row_rewrite_prob", self.row_rewrite_prob),
            ("read_reuse_prob", self.read_reuse_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be within [0, 1], got {p}"));
            }
        }
        if self.working_set_bytes < LINE_BYTES {
            return Err(format!(
                "working_set_bytes must be at least one line ({LINE_BYTES} B)"
            ));
        }
        if self.mean_gap_cycles < 0.0 {
            return Err(format!(
                "mean_gap_cycles must be non-negative, got {}",
                self.mean_gap_cycles
            ));
        }
        if self.burst_len == 0 {
            return Err("burst_len must be positive".into());
        }
        if self.reuse_window == 0 {
            return Err("reuse_window must be positive".into());
        }
        Ok(())
    }

    /// Creates a deterministic generator for this profile.
    ///
    /// The same `(profile, seed)` pair always produces the identical
    /// stream, so experiments are reproducible.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`validate`](Self::validate).
    #[must_use]
    pub fn generator(&self, seed: u64) -> SyntheticTrace {
        self.validate()
            .unwrap_or_else(|e| panic!("invalid profile {}: {e}", self.name));
        SyntheticTrace::new(self.clone(), seed)
    }

    /// Convenience: materializes `n` records.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`validate`](Self::validate).
    #[must_use]
    pub fn generate(&self, seed: u64, n: usize) -> Vec<TraceRecord> {
        self.generator(seed).take(n).collect()
    }

    /// Lazy counterpart of [`generate`](Self::generate): a chunked
    /// [`crate::stream::TraceSource`] yielding the identical
    /// `records` records without materializing them.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`validate`](Self::validate).
    #[must_use]
    pub fn generate_stream(
        &self,
        seed: u64,
        records: u64,
    ) -> crate::stream::IterSource<SyntheticTrace> {
        crate::stream::IterSource::new(self.generator(seed), records)
    }
}

/// How many of the newest writes a read-after-write access may target.
const READ_REUSE_DEPTH: usize = 16;

/// Infinite iterator of [`TraceRecord`]s following a [`WorkloadProfile`].
///
/// ```
/// use pcm_trace::synth::benchmarks;
///
/// let profile = benchmarks::by_name("qsort").unwrap();
/// let records: Vec<_> = profile.generator(42).take(1000).collect();
/// assert_eq!(records.len(), 1000);
/// // Deterministic for a fixed seed:
/// assert_eq!(records, profile.generator(42).take(1000).collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticTrace {
    profile: WorkloadProfile,
    rng: Rng,
    cycle: u64,
    last_line: u64,
    burst_left: u32,
    recent_lines: VecDeque<u64>,
}

impl SyntheticTrace {
    fn new(profile: WorkloadProfile, seed: u64) -> Self {
        // Mix the workload name into the seed so different benchmarks with
        // the same user seed do not correlate.
        let mut mixed = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in profile.name.bytes() {
            mixed = mixed.rotate_left(8) ^ u64::from(b).wrapping_mul(0x100_0000_01B3);
        }
        let burst_left = profile.burst_len;
        let window = profile.reuse_window;
        Self {
            rng: Rng::seed_from_u64(mixed),
            cycle: 0,
            last_line: 0,
            burst_left,
            recent_lines: VecDeque::with_capacity(window),
            profile,
        }
    }

    /// The profile driving this generator.
    #[must_use]
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    fn lines(&self) -> u64 {
        (self.profile.working_set_bytes / LINE_BYTES).max(1)
    }

    /// Geometric inter-burst gap with the configured mean.
    fn sample_gap(&mut self) -> u64 {
        let mean = self.profile.mean_gap_cycles;
        if mean <= 0.0 {
            return 0;
        }
        // Inverse-CDF exponential, rounded; deterministic via the seeded
        // generator.
        let u: f64 = self.rng.gen_f64_range(f64::EPSILON, 1.0);
        (-mean * u.ln()).round() as u64
    }

    fn pick_line(&mut self, op: TraceOp) -> u64 {
        let lines = self.lines();
        let p = &self.profile;
        // Sequential run continuation.
        if self.rng.gen_bool(p.sequential_run) {
            self.last_line = (self.last_line + 1) % lines;
            return self.last_line;
        }
        // Recently-written-line recurrence: in-place rewrites (consuming
        // the WOM budget of exactly the columns written before, as frame
        // buffers and in-place data structures do) and read-after-write
        // locality (reads that contend with in-flight writes for the same
        // bank).
        let reuse_prob = if op == TraceOp::Write {
            p.row_rewrite_prob
        } else {
            p.read_reuse_prob
        };
        if !self.recent_lines.is_empty() && self.rng.gen_bool(reuse_prob) {
            // Writes rewrite lines from anywhere in the window (in-place
            // data structures revisited over a long period); reads reuse
            // the *newest* writes (read-after-write dependences), which is
            // what makes them queue behind still-in-flight slow writes.
            let span = if op == TraceOp::Write {
                self.recent_lines.len()
            } else {
                self.recent_lines.len().min(READ_REUSE_DEPTH)
            };
            // `span <= len` and the window is non-empty, so `idx` is in
            // range; `get` keeps the site out of the panic inventory.
            let idx = self.recent_lines.len() - 1 - self.rng.gen_range_usize(0, span);
            self.last_line = self.recent_lines.get(idx).copied().unwrap_or(0) % lines;
            return self.last_line;
        }
        // Hot-set or cold uniform access.
        let hot_lines = ((lines as f64 * p.hot_set_fraction) as u64).max(1);
        self.last_line = if self.rng.gen_bool(p.hot_fraction) {
            self.rng.gen_below(hot_lines)
        } else {
            self.rng.gen_below(lines)
        };
        self.last_line
    }
}

impl Iterator for SyntheticTrace {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<Self::Item> {
        // Advance time: dense within a burst, exponential gap between.
        if self.burst_left == 0 {
            self.cycle += self.sample_gap();
            self.burst_left = self.profile.burst_len;
        } else {
            self.cycle += u64::from(self.rng.gen_range_u32(1, 5));
        }
        self.burst_left -= 1;

        let op = if self.rng.gen_bool(self.profile.read_fraction) {
            TraceOp::Read
        } else {
            TraceOp::Write
        };
        let line = self.pick_line(op);
        if op == TraceOp::Write {
            if self.recent_lines.len() == self.profile.reuse_window {
                self.recent_lines.pop_front();
            }
            self.recent_lines.push_back(line);
        }
        let addr = if self.profile.scatter_pages {
            // Scatter at page granularity, preserving line order within a
            // page (so sequential runs keep row locality).
            let lines_per_page = PAGE_BYTES / LINE_BYTES;
            let page = scatter_page(line / lines_per_page);
            (page * lines_per_page + line % lines_per_page) * LINE_BYTES
        } else {
            // Contiguous layout, as in the paper's Pin-captured virtual
            // address streams.
            line * LINE_BYTES
        };
        Some(TraceRecord {
            cycle: self.cycle,
            addr,
            op,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row granularity used when checking recurrence at row level.
    const ROW_BYTES: u64 = 1024;

    fn test_profile() -> WorkloadProfile {
        WorkloadProfile {
            name: "test".into(),
            suite: Suite::SpecCpu2006,
            read_fraction: 0.6,
            working_set_bytes: 1 << 20,
            hot_fraction: 0.7,
            hot_set_fraction: 0.1,
            sequential_run: 0.5,
            row_rewrite_prob: 0.5,
            read_reuse_prob: 0.3,
            mean_gap_cycles: 20.0,
            burst_len: 4,
            reuse_window: 64,
            scatter_pages: false,
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = test_profile();
        assert_eq!(p.generate(7, 500), p.generate(7, 500));
    }

    #[test]
    fn different_seeds_diverge() {
        let p = test_profile();
        assert_ne!(p.generate(1, 500), p.generate(2, 500));
    }

    #[test]
    fn cycles_are_monotonic_and_addresses_in_range() {
        let p = test_profile();
        let mut last = 0;
        for r in p.generate(3, 2000) {
            assert!(r.cycle >= last, "cycles must not go backwards");
            last = r.cycle;
            assert!(r.addr < p.working_set_bytes);
            assert_eq!(r.addr % LINE_BYTES, 0, "line-aligned addresses");
        }
    }

    #[test]
    fn read_fraction_is_respected() {
        let p = test_profile();
        let n = 20_000;
        let reads = p.generate(11, n).iter().filter(|r| r.op.is_read()).count();
        let frac = reads as f64 / n as f64;
        assert!(
            (frac - p.read_fraction).abs() < 0.02,
            "observed read fraction {frac}"
        );
    }

    #[test]
    fn rewrite_recurrence_revisits_rows() {
        let mut p = test_profile();
        p.row_rewrite_prob = 0.9;
        p.sequential_run = 0.0;
        let records = p.generate(5, 10_000);
        let writes: Vec<u64> = records
            .iter()
            .filter(|r| !r.op.is_read())
            .map(|r| r.addr / ROW_BYTES)
            .collect();
        let unique: std::collections::BTreeSet<_> = writes.iter().collect();
        // Strong recurrence means far fewer unique rows than writes.
        assert!(
            unique.len() * 3 < writes.len(),
            "{} unique / {} writes",
            unique.len(),
            writes.len()
        );
    }

    #[test]
    fn mean_gap_scales_intensity() {
        let mut fast = test_profile();
        fast.mean_gap_cycles = 2.0;
        let mut slow = test_profile();
        slow.mean_gap_cycles = 200.0;
        let n = 5000;
        let end_fast = fast.generate(9, n).last().unwrap().cycle;
        let end_slow = slow.generate(9, n).last().unwrap().cycle;
        assert!(
            end_slow > end_fast * 2,
            "slower profile must spread over more cycles"
        );
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        let mut p = test_profile();
        p.read_fraction = 1.5;
        assert!(p.validate().is_err());
        let mut p = test_profile();
        p.working_set_bytes = 1;
        assert!(p.validate().is_err());
        let mut p = test_profile();
        p.burst_len = 0;
        assert!(p.validate().is_err());
        let mut p = test_profile();
        p.mean_gap_cycles = -1.0;
        assert!(p.validate().is_err());
        assert!(test_profile().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid profile")]
    fn generator_panics_on_invalid_profile() {
        let mut p = test_profile();
        p.hot_fraction = 2.0;
        let _ = p.generator(0);
    }
}
