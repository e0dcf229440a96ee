//! Datacenter workload generators.
//!
//! The paper's SPEC / MiBench / SPLASH-2 profiles model single-program
//! behaviour; modern PCM proposals are evaluated against server-side
//! patterns whose *write structure* is very different. This module adds
//! five production-shaped generators, each a deterministic, infinite,
//! `Clone` iterator that [`crate::stream::IterSource`] bounds into a
//! trace source:
//!
//! * [`kv_zipf`] — a key-value store under a YCSB-style scrambled-zipfian
//!   key distribution: a few keys absorb most updates, concentrating WOM
//!   rewrite-budget drain on a handful of rows.
//! * [`wal_writer`] — a log-structured store: strictly sequential appends
//!   that sweep rows once (WOM-friendly), punctuated by commit records
//!   that rewrite a tiny metadata region over and over (WOM-hostile).
//! * [`gc_sweep`] — foreground traffic interrupted by garbage-collection
//!   sweeps: long sequential read scans with a fraction of lines copied
//!   forward, the bulk-move pattern that defeats row-buffer locality.
//! * [`diurnal_web`] — a web-serving working set whose arrival rate
//!   follows a diurnal cycle (integer triangle wave, so the stream is
//!   bit-identical across platforms): refresh opportunity exists only in
//!   the trough.
//! * [`multi_tenant`] — several tenants time-sliced onto one device, each
//!   with its own skewed working set; interleaving destroys per-tenant
//!   locality at the memory controller.
//!
//! Determinism mirrors [`super::SyntheticTrace`]: the profile name is
//! mixed into the user seed, and all sampling flows through the in-tree
//! [`pcm_rng::Rng`].

use crate::record::{TraceOp, TraceRecord};
use crate::synth::LINE_BYTES;
use pcm_rng::Rng;

/// A named datacenter workload: knobs plus the generator kind.
#[derive(Debug, Clone, PartialEq)]
pub struct DcProfile {
    /// Workload name (e.g. `"kv_zipf"`), unique across the catalog.
    pub name: String,
    /// Generator kind and its knobs.
    pub kind: DcKind,
}

/// The generator family a [`DcProfile`] instantiates.
#[derive(Debug, Clone, PartialEq)]
pub enum DcKind {
    /// Zipfian key-value store.
    ZipfKv(ZipfKvConfig),
    /// Log-structured / write-ahead-log writer.
    WalWriter(WalConfig),
    /// Foreground traffic plus garbage-collection sweeps.
    GcSweep(GcConfig),
    /// Diurnal arrival-rate web serving.
    Diurnal(DiurnalConfig),
    /// Interleaved multi-tenant traffic.
    MixedTenant(TenantMixConfig),
}

/// Knobs for the zipfian key-value store.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfKvConfig {
    /// Distinct keys in the store.
    pub keys: u64,
    /// Zipfian skew θ in `[0, 1)` (YCSB default: 0.99).
    pub theta: f64,
    /// Cache lines per value (object size / 64 B).
    pub value_lines: u64,
    /// Probability an operation is a GET (read).
    pub read_fraction: f64,
    /// Mean idle gap between access bursts, in cycles.
    pub mean_gap_cycles: f64,
    /// Back-to-back accesses per burst.
    pub burst_len: u32,
}

/// Knobs for the log-structured writer.
#[derive(Debug, Clone, PartialEq)]
pub struct WalConfig {
    /// Circular log capacity in cache lines.
    pub log_lines: u64,
    /// Lines appended per log record.
    pub append_lines: u32,
    /// Probability an operation is a tail read instead of an append.
    pub read_fraction: f64,
    /// How far behind the head tail reads may look, in lines.
    pub tail_window: u64,
    /// Appends between metadata commits.
    pub commit_every: u32,
    /// Metadata lines rewritten per commit (the hot region).
    pub commit_lines: u32,
    /// Mean idle gap between access bursts, in cycles.
    pub mean_gap_cycles: f64,
    /// Back-to-back accesses per burst.
    pub burst_len: u32,
}

/// Knobs for the GC-sweep workload.
#[derive(Debug, Clone, PartialEq)]
pub struct GcConfig {
    /// Heap segments.
    pub segments: u64,
    /// Cache lines per segment.
    pub segment_lines: u64,
    /// Fraction of scanned lines copied forward as live data.
    pub live_fraction: f64,
    /// Foreground accesses between sweeps.
    pub sweep_every: u32,
    /// Distinct foreground objects.
    pub keys: u64,
    /// Foreground zipfian skew θ in `[0, 1)`.
    pub theta: f64,
    /// Probability a foreground access is a read.
    pub read_fraction: f64,
    /// Mean idle gap between foreground bursts, in cycles.
    pub mean_gap_cycles: f64,
    /// Back-to-back foreground accesses per burst.
    pub burst_len: u32,
}

/// Knobs for the diurnal web-serving workload.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalConfig {
    /// Working set in cache lines.
    pub working_set_lines: u64,
    /// Hot subset in cache lines.
    pub hot_lines: u64,
    /// Probability an access targets the hot subset.
    pub hot_fraction: f64,
    /// Probability an access is a read.
    pub read_fraction: f64,
    /// Cycles per diurnal period (one "day").
    pub period_cycles: u64,
    /// Gap multiplier at the trough relative to the peak (≥ 1).
    pub peak_to_trough: f64,
    /// Mean idle gap between bursts at peak load, in cycles.
    pub mean_gap_cycles: f64,
    /// Back-to-back accesses per burst.
    pub burst_len: u32,
}

/// Knobs for the multi-tenant workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMixConfig {
    /// Tenants sharing the device.
    pub tenants: u64,
    /// Cache lines in each tenant's slice.
    pub lines_per_tenant: u64,
    /// Per-tenant zipfian skew θ in `[0, 1)`.
    pub theta: f64,
    /// Tenant-selection skew θ in `[0, 1)` (noisy neighbours).
    pub tenant_skew: f64,
    /// Probability an access is a read.
    pub read_fraction: f64,
    /// Mean idle gap between scheduling quanta, in cycles.
    pub mean_gap_cycles: f64,
    /// Accesses per tenant scheduling quantum.
    pub burst_len: u32,
}

fn check_prob(name: &str, p: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(format!("{name} must be within [0, 1], got {p}"))
    }
}

fn check_theta(name: &str, theta: f64) -> Result<(), String> {
    if (0.0..1.0).contains(&theta) {
        Ok(())
    } else {
        Err(format!("{name} must be within [0, 1), got {theta}"))
    }
}

fn check_positive_u64(name: &str, v: u64) -> Result<(), String> {
    if v > 0 {
        Ok(())
    } else {
        Err(format!("{name} must be positive"))
    }
}

fn check_gap(name: &str, gap: f64) -> Result<(), String> {
    if gap >= 0.0 {
        Ok(())
    } else {
        Err(format!("{name} must be non-negative, got {gap}"))
    }
}

impl DcProfile {
    /// The workload's catalog name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Validates every knob's range.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        match &self.kind {
            DcKind::ZipfKv(c) => {
                check_positive_u64("keys", c.keys)?;
                check_positive_u64("value_lines", c.value_lines)?;
                check_theta("theta", c.theta)?;
                check_prob("read_fraction", c.read_fraction)?;
                check_gap("mean_gap_cycles", c.mean_gap_cycles)?;
                check_positive_u64("burst_len", u64::from(c.burst_len))
            }
            DcKind::WalWriter(c) => {
                check_positive_u64("log_lines", c.log_lines)?;
                check_positive_u64("append_lines", u64::from(c.append_lines))?;
                check_positive_u64("tail_window", c.tail_window)?;
                check_positive_u64("commit_every", u64::from(c.commit_every))?;
                check_positive_u64("commit_lines", u64::from(c.commit_lines))?;
                check_prob("read_fraction", c.read_fraction)?;
                check_gap("mean_gap_cycles", c.mean_gap_cycles)?;
                check_positive_u64("burst_len", u64::from(c.burst_len))
            }
            DcKind::GcSweep(c) => {
                check_positive_u64("segments", c.segments)?;
                check_positive_u64("segment_lines", c.segment_lines)?;
                check_positive_u64("sweep_every", u64::from(c.sweep_every))?;
                check_positive_u64("keys", c.keys)?;
                check_prob("live_fraction", c.live_fraction)?;
                check_theta("theta", c.theta)?;
                check_prob("read_fraction", c.read_fraction)?;
                check_gap("mean_gap_cycles", c.mean_gap_cycles)?;
                check_positive_u64("burst_len", u64::from(c.burst_len))
            }
            DcKind::Diurnal(c) => {
                check_positive_u64("working_set_lines", c.working_set_lines)?;
                check_positive_u64("hot_lines", c.hot_lines)?;
                check_positive_u64("period_cycles", c.period_cycles)?;
                check_prob("hot_fraction", c.hot_fraction)?;
                check_prob("read_fraction", c.read_fraction)?;
                if c.peak_to_trough < 1.0 {
                    return Err(format!(
                        "peak_to_trough must be at least 1, got {}",
                        c.peak_to_trough
                    ));
                }
                check_gap("mean_gap_cycles", c.mean_gap_cycles)?;
                check_positive_u64("burst_len", u64::from(c.burst_len))
            }
            DcKind::MixedTenant(c) => {
                check_positive_u64("tenants", c.tenants)?;
                check_positive_u64("lines_per_tenant", c.lines_per_tenant)?;
                check_theta("theta", c.theta)?;
                check_theta("tenant_skew", c.tenant_skew)?;
                check_prob("read_fraction", c.read_fraction)?;
                check_gap("mean_gap_cycles", c.mean_gap_cycles)?;
                check_positive_u64("burst_len", u64::from(c.burst_len))
            }
        }
    }

    /// Creates the deterministic generator for this profile. The same
    /// `(profile, seed)` pair always produces the identical stream.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first invalid knob.
    pub fn generator(&self, seed: u64) -> Result<DcTrace, String> {
        self.validate()?;
        // Mix the workload name into the seed, as SyntheticTrace does, so
        // different workloads with the same user seed do not correlate.
        let mut mixed = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in self.name.bytes() {
            mixed = mixed.rotate_left(8) ^ u64::from(b).wrapping_mul(0x100_0000_01B3);
        }
        let rng = Rng::seed_from_u64(mixed);
        Ok(match &self.kind {
            DcKind::ZipfKv(c) => DcTrace::ZipfKv(ZipfKvTrace::new(c.clone(), rng)),
            DcKind::WalWriter(c) => DcTrace::Wal(WalTrace::new(c.clone(), rng)),
            DcKind::GcSweep(c) => DcTrace::Gc(GcTrace::new(c.clone(), rng)),
            DcKind::Diurnal(c) => DcTrace::Diurnal(DiurnalTrace::new(c.clone(), rng)),
            DcKind::MixedTenant(c) => DcTrace::Tenant(TenantTrace::new(c.clone(), rng)),
        })
    }
}

/// Splitmix64 finalizer: scrambles zipf ranks onto lines so the hottest
/// keys are scattered across the address space rather than packed at 0.
fn mix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Gray's bounded-zipfian sampler (the YCSB formulation): `sample`
/// returns a 0-based rank in `[0, n)` where rank r has probability
/// ∝ 1/(r+1)^θ. The harmonic sum is precomputed at construction so
/// cloning never recomputes it.
#[derive(Debug, Clone)]
struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    fn new(n: u64, theta: f64) -> Self {
        let n = n.max(1);
        let mut zetan = 0.0;
        for i in 1..=n {
            zetan += 1.0 / (i as f64).powf(theta);
        }
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let eta = if n > 1 {
            (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan)
        } else {
            0.0
        };
        Self {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1.min(self.n - 1);
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// Burst/gap arrival clock shared by the generators: dense 1–4 cycle
/// strides within a burst, exponential idle gaps between bursts (the same
/// timing model as [`super::SyntheticTrace`]). `gap_scale` modulates the
/// mean gap, which is how the diurnal generator shapes its day.
#[derive(Debug, Clone)]
struct Clock {
    cycle: u64,
    burst_left: u32,
    burst_len: u32,
    mean_gap_cycles: f64,
}

impl Clock {
    fn new(burst_len: u32, mean_gap_cycles: f64) -> Self {
        Self {
            cycle: 0,
            burst_left: burst_len.max(1),
            burst_len: burst_len.max(1),
            mean_gap_cycles,
        }
    }

    fn tick(&mut self, rng: &mut Rng, gap_scale: f64) -> u64 {
        if self.burst_left == 0 {
            let mean = self.mean_gap_cycles * gap_scale;
            if mean > 0.0 {
                let u: f64 = rng.gen_f64_range(f64::EPSILON, 1.0);
                self.cycle += (-mean * u.ln()).round() as u64;
            }
            self.burst_left = self.burst_len;
        } else {
            self.cycle += u64::from(rng.gen_range_u32(1, 5));
        }
        self.burst_left -= 1;
        self.cycle
    }

    /// Dense stride for bulk phases (GC sweeps): no idle gaps.
    fn dense(&mut self, rng: &mut Rng) -> u64 {
        self.cycle += u64::from(rng.gen_range_u32(1, 3));
        self.cycle
    }
}

/// Infinite iterator over one datacenter workload. Construct via
/// [`DcProfile::generator`].
#[derive(Debug, Clone)]
pub enum DcTrace {
    /// See [`kv_zipf`].
    ZipfKv(ZipfKvTrace),
    /// See [`wal_writer`].
    Wal(WalTrace),
    /// See [`gc_sweep`].
    Gc(GcTrace),
    /// See [`diurnal_web`].
    Diurnal(DiurnalTrace),
    /// See [`multi_tenant`].
    Tenant(TenantTrace),
}

impl Iterator for DcTrace {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Self::ZipfKv(t) => t.next(),
            Self::Wal(t) => t.next(),
            Self::Gc(t) => t.next(),
            Self::Diurnal(t) => t.next(),
            Self::Tenant(t) => t.next(),
        }
    }
}

/// Key-value store under a scrambled-zipfian key distribution.
#[derive(Debug, Clone)]
pub struct ZipfKvTrace {
    cfg: ZipfKvConfig,
    zipf: Zipf,
    rng: Rng,
    clock: Clock,
}

impl ZipfKvTrace {
    fn new(cfg: ZipfKvConfig, rng: Rng) -> Self {
        let zipf = Zipf::new(cfg.keys, cfg.theta);
        let clock = Clock::new(cfg.burst_len, cfg.mean_gap_cycles);
        Self {
            cfg,
            zipf,
            rng,
            clock,
        }
    }
}

impl Iterator for ZipfKvTrace {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<Self::Item> {
        let cycle = self.clock.tick(&mut self.rng, 1.0);
        let op = if self.rng.gen_bool(self.cfg.read_fraction) {
            TraceOp::Read
        } else {
            TraceOp::Write
        };
        let rank = self.zipf.sample(&mut self.rng);
        let key = mix64(rank) % self.cfg.keys;
        let line = key * self.cfg.value_lines + self.rng.gen_below(self.cfg.value_lines);
        Some(TraceRecord {
            cycle,
            addr: line * LINE_BYTES,
            op,
        })
    }
}

/// Log-structured writer: sequential appends plus a hot metadata region.
#[derive(Debug, Clone)]
pub struct WalTrace {
    cfg: WalConfig,
    rng: Rng,
    clock: Clock,
    head: u64,
    append_left: u32,
    commit_left: u32,
    appends_since_commit: u32,
}

impl WalTrace {
    fn new(cfg: WalConfig, rng: Rng) -> Self {
        let clock = Clock::new(cfg.burst_len, cfg.mean_gap_cycles);
        Self {
            cfg,
            rng,
            clock,
            head: 0,
            append_left: 0,
            commit_left: 0,
            appends_since_commit: 0,
        }
    }

    /// First line of the circular log (metadata occupies lines below it).
    fn log_base(&self) -> u64 {
        u64::from(self.cfg.commit_lines)
    }
}

impl Iterator for WalTrace {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<Self::Item> {
        let cycle = self.clock.tick(&mut self.rng, 1.0);
        // Commit in progress: rewrite one metadata line.
        if self.commit_left > 0 {
            self.commit_left -= 1;
            let line = self.rng.gen_below(u64::from(self.cfg.commit_lines));
            return Some(TraceRecord {
                cycle,
                addr: line * LINE_BYTES,
                op: TraceOp::Write,
            });
        }
        // Append in progress: next sequential log line.
        if self.append_left > 0 {
            self.append_left -= 1;
            let line = self.log_base() + self.head;
            self.head = (self.head + 1) % self.cfg.log_lines;
            if self.append_left == 0 {
                self.appends_since_commit += 1;
                if self.appends_since_commit >= self.cfg.commit_every {
                    self.appends_since_commit = 0;
                    self.commit_left = self.cfg.commit_lines;
                }
            }
            return Some(TraceRecord {
                cycle,
                addr: line * LINE_BYTES,
                op: TraceOp::Write,
            });
        }
        // Between records: tail read or the start of a new append.
        if self.rng.gen_bool(self.cfg.read_fraction) {
            let window = self.cfg.tail_window.min(self.cfg.log_lines);
            let back = self.rng.gen_below(window);
            let line =
                self.log_base() + (self.head + self.cfg.log_lines - 1 - back) % self.cfg.log_lines;
            return Some(TraceRecord {
                cycle,
                addr: line * LINE_BYTES,
                op: TraceOp::Read,
            });
        }
        self.append_left = self.cfg.append_lines - 1;
        let line = self.log_base() + self.head;
        self.head = (self.head + 1) % self.cfg.log_lines;
        if self.append_left == 0 {
            self.appends_since_commit += 1;
            if self.appends_since_commit >= self.cfg.commit_every {
                self.appends_since_commit = 0;
                self.commit_left = self.cfg.commit_lines;
            }
        }
        Some(TraceRecord {
            cycle,
            addr: line * LINE_BYTES,
            op: TraceOp::Write,
        })
    }
}

/// Foreground traffic with periodic garbage-collection sweeps.
#[derive(Debug, Clone)]
pub struct GcTrace {
    cfg: GcConfig,
    zipf: Zipf,
    rng: Rng,
    clock: Clock,
    fg_left: u32,
    sweep: Option<Sweep>,
    next_victim: u64,
    dest_off: u64,
}

#[derive(Debug, Clone)]
struct Sweep {
    victim: u64,
    scan_idx: u64,
    pending_copy: bool,
}

impl GcTrace {
    fn new(cfg: GcConfig, rng: Rng) -> Self {
        let zipf = Zipf::new(cfg.keys, cfg.theta);
        let clock = Clock::new(cfg.burst_len, cfg.mean_gap_cycles);
        let fg_left = cfg.sweep_every;
        Self {
            cfg,
            zipf,
            rng,
            clock,
            fg_left,
            sweep: None,
            next_victim: 0,
            dest_off: 0,
        }
    }

    fn heap_lines(&self) -> u64 {
        self.cfg.segments * self.cfg.segment_lines
    }
}

impl Iterator for GcTrace {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let mut finished_victim = None;
            if let Some(sweep) = &mut self.sweep {
                // Copy-forward write for the previously scanned live line.
                if sweep.pending_copy {
                    sweep.pending_copy = false;
                    let cycle = self.clock.dense(&mut self.rng);
                    let dest_seg = (sweep.victim + self.cfg.segments / 2 + 1) % self.cfg.segments;
                    let line = dest_seg * self.cfg.segment_lines + self.dest_off;
                    self.dest_off = (self.dest_off + 1) % self.cfg.segment_lines;
                    return Some(TraceRecord {
                        cycle,
                        addr: line * LINE_BYTES,
                        op: TraceOp::Write,
                    });
                }
                // Scan read of the next victim line.
                if sweep.scan_idx < self.cfg.segment_lines {
                    let cycle = self.clock.dense(&mut self.rng);
                    let line = sweep.victim * self.cfg.segment_lines + sweep.scan_idx;
                    sweep.scan_idx += 1;
                    sweep.pending_copy = self.rng.gen_bool(self.cfg.live_fraction);
                    return Some(TraceRecord {
                        cycle,
                        addr: line * LINE_BYTES,
                        op: TraceOp::Read,
                    });
                }
                finished_victim = Some(sweep.victim);
            }
            // Sweep complete: the next sweep targets the following segment.
            if let Some(victim) = finished_victim {
                self.sweep = None;
                self.next_victim = (victim + 1) % self.cfg.segments;
                self.fg_left = self.cfg.sweep_every;
                self.dest_off = 0;
                continue;
            }
            if self.fg_left == 0 {
                self.sweep = Some(Sweep {
                    victim: self.next_victim,
                    scan_idx: 0,
                    pending_copy: false,
                });
                continue;
            }
            self.fg_left -= 1;
            let cycle = self.clock.tick(&mut self.rng, 1.0);
            let op = if self.rng.gen_bool(self.cfg.read_fraction) {
                TraceOp::Read
            } else {
                TraceOp::Write
            };
            let rank = self.zipf.sample(&mut self.rng);
            let line = mix64(rank) % self.heap_lines();
            return Some(TraceRecord {
                cycle,
                addr: line * LINE_BYTES,
                op,
            });
        }
    }
}

/// Web serving with a diurnal arrival rate.
#[derive(Debug, Clone)]
pub struct DiurnalTrace {
    cfg: DiurnalConfig,
    rng: Rng,
    clock: Clock,
}

impl DiurnalTrace {
    fn new(cfg: DiurnalConfig, rng: Rng) -> Self {
        let clock = Clock::new(cfg.burst_len, cfg.mean_gap_cycles);
        Self { cfg, rng, clock }
    }

    /// Integer triangle wave in `[0, 1]`: 0 at the daily peak (phase 0),
    /// 1 at the trough (half period). Integer arithmetic keeps the stream
    /// bit-identical across platforms (no `sin`).
    fn trough_weight(&self) -> f64 {
        let period = self.cfg.period_cycles.max(2);
        let phase = self.clock.cycle % period;
        let half = period / 2;
        let dist = phase.min(period - phase).min(half);
        dist as f64 / half as f64
    }
}

impl Iterator for DiurnalTrace {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<Self::Item> {
        let scale = 1.0 + (self.cfg.peak_to_trough - 1.0) * self.trough_weight();
        let cycle = self.clock.tick(&mut self.rng, scale);
        let op = if self.rng.gen_bool(self.cfg.read_fraction) {
            TraceOp::Read
        } else {
            TraceOp::Write
        };
        let line = if self.rng.gen_bool(self.cfg.hot_fraction) {
            let hot = self.cfg.hot_lines.min(self.cfg.working_set_lines);
            mix64(self.rng.gen_below(hot)) % self.cfg.working_set_lines
        } else {
            self.rng.gen_below(self.cfg.working_set_lines)
        };
        Some(TraceRecord {
            cycle,
            addr: line * LINE_BYTES,
            op,
        })
    }
}

/// Interleaved multi-tenant traffic with skewed tenant selection.
#[derive(Debug, Clone)]
pub struct TenantTrace {
    cfg: TenantMixConfig,
    tenant_zipf: Zipf,
    line_zipf: Zipf,
    rng: Rng,
    clock: Clock,
    tenant: u64,
    quantum_left: u32,
}

impl TenantTrace {
    fn new(cfg: TenantMixConfig, rng: Rng) -> Self {
        let tenant_zipf = Zipf::new(cfg.tenants, cfg.tenant_skew);
        let line_zipf = Zipf::new(cfg.lines_per_tenant, cfg.theta);
        let clock = Clock::new(cfg.burst_len, cfg.mean_gap_cycles);
        Self {
            cfg,
            tenant_zipf,
            line_zipf,
            rng,
            clock,
            tenant: 0,
            quantum_left: 0,
        }
    }
}

impl Iterator for TenantTrace {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<Self::Item> {
        if self.quantum_left == 0 {
            self.tenant = self.tenant_zipf.sample(&mut self.rng);
            self.quantum_left = self.cfg.burst_len;
        }
        self.quantum_left -= 1;
        let cycle = self.clock.tick(&mut self.rng, 1.0);
        let op = if self.rng.gen_bool(self.cfg.read_fraction) {
            TraceOp::Read
        } else {
            TraceOp::Write
        };
        let rank = self.line_zipf.sample(&mut self.rng);
        // Salt the scramble per tenant so tenants' hot lines differ.
        let salted = rank.wrapping_add(self.tenant.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let line =
            self.tenant * self.cfg.lines_per_tenant + mix64(salted) % self.cfg.lines_per_tenant;
        Some(TraceRecord {
            cycle,
            addr: line * LINE_BYTES,
            op,
        })
    }
}

/// The zipfian key-value store profile (YCSB-A-like update-heavy mix).
#[must_use]
pub fn kv_zipf() -> DcProfile {
    DcProfile {
        name: "kv_zipf".into(),
        kind: DcKind::ZipfKv(ZipfKvConfig {
            keys: 1 << 16,
            theta: 0.99,
            value_lines: 4,
            read_fraction: 0.5,
            mean_gap_cycles: 30.0,
            burst_len: 8,
        }),
    }
}

/// The log-structured / write-ahead-log writer profile.
#[must_use]
pub fn wal_writer() -> DcProfile {
    DcProfile {
        name: "wal_writer".into(),
        kind: DcKind::WalWriter(WalConfig {
            log_lines: 1 << 18,
            append_lines: 8,
            read_fraction: 0.1,
            tail_window: 4096,
            commit_every: 16,
            commit_lines: 4,
            mean_gap_cycles: 40.0,
            burst_len: 8,
        }),
    }
}

/// The garbage-collection sweep profile.
#[must_use]
pub fn gc_sweep() -> DcProfile {
    DcProfile {
        name: "gc_sweep".into(),
        kind: DcKind::GcSweep(GcConfig {
            segments: 64,
            segment_lines: 2048,
            live_fraction: 0.25,
            sweep_every: 8192,
            keys: 1 << 15,
            theta: 0.9,
            read_fraction: 0.6,
            mean_gap_cycles: 25.0,
            burst_len: 8,
        }),
    }
}

/// The diurnal web-serving profile.
#[must_use]
pub fn diurnal_web() -> DcProfile {
    DcProfile {
        name: "diurnal_web".into(),
        kind: DcKind::Diurnal(DiurnalConfig {
            working_set_lines: 1 << 18,
            hot_lines: 1 << 12,
            hot_fraction: 0.8,
            read_fraction: 0.8,
            period_cycles: 2_000_000,
            peak_to_trough: 20.0,
            mean_gap_cycles: 15.0,
            burst_len: 16,
        }),
    }
}

/// The mixed multi-tenant profile.
#[must_use]
pub fn multi_tenant() -> DcProfile {
    DcProfile {
        name: "multi_tenant".into(),
        kind: DcKind::MixedTenant(TenantMixConfig {
            tenants: 8,
            lines_per_tenant: 1 << 15,
            theta: 0.9,
            tenant_skew: 0.6,
            read_fraction: 0.65,
            mean_gap_cycles: 20.0,
            burst_len: 32,
        }),
    }
}

/// Every datacenter profile, in catalog order.
#[must_use]
pub fn all() -> Vec<DcProfile> {
    vec![
        kv_zipf(),
        wal_writer(),
        gc_sweep(),
        diurnal_web(),
        multi_tenant(),
    ]
}

/// Case-insensitive catalog lookup.
#[must_use]
pub fn by_name(name: &str) -> Option<DcProfile> {
    all()
        .into_iter()
        .find(|p| p.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(profile: &DcProfile, seed: u64, n: usize) -> Vec<TraceRecord> {
        profile
            .generator(seed)
            .expect("catalog profile is valid")
            .take(n)
            .collect()
    }

    #[test]
    fn catalog_profiles_validate_and_generate() {
        for p in all() {
            assert!(p.validate().is_ok(), "{} must validate", p.name);
            let records = take(&p, 1, 5_000);
            assert_eq!(records.len(), 5_000, "{} is infinite", p.name);
            let mut last = 0;
            for r in &records {
                assert!(r.cycle >= last, "{}: cycles must not go backwards", p.name);
                last = r.cycle;
                assert_eq!(r.addr % LINE_BYTES, 0, "{}: line-aligned", p.name);
            }
        }
    }

    #[test]
    fn deterministic_per_seed_and_divergent_across_seeds() {
        for p in all() {
            assert_eq!(take(&p, 7, 2_000), take(&p, 7, 2_000), "{}", p.name);
            assert_ne!(take(&p, 1, 2_000), take(&p, 2, 2_000), "{}", p.name);
        }
    }

    #[test]
    fn profiles_with_same_seed_do_not_correlate() {
        let a = take(&kv_zipf(), 5, 1_000);
        let b = take(&multi_tenant(), 5, 1_000);
        assert_ne!(a, b);
    }

    #[test]
    fn zipf_concentrates_writes() {
        // With θ = 0.99 a small set of keys must absorb a large share of
        // accesses: far fewer unique lines than accesses.
        let records = take(&kv_zipf(), 3, 20_000);
        let unique: std::collections::BTreeSet<u64> = records.iter().map(|r| r.addr).collect();
        assert!(
            unique.len() * 2 < records.len(),
            "{} unique / {} accesses",
            unique.len(),
            records.len()
        );
    }

    #[test]
    fn wal_hammers_metadata_region() {
        let p = wal_writer();
        let records = take(&p, 9, 50_000);
        let DcKind::WalWriter(cfg) = &p.kind else {
            panic!("kind");
        };
        let meta_limit = u64::from(cfg.commit_lines) * LINE_BYTES;
        let meta_writes = records
            .iter()
            .filter(|r| !r.op.is_read() && r.addr < meta_limit)
            .count();
        assert!(meta_writes > 100, "commits rewrite metadata: {meta_writes}");
    }

    #[test]
    fn gc_emits_sequential_scan_phases() {
        let p = gc_sweep();
        let DcKind::GcSweep(cfg) = &p.kind else {
            panic!("kind");
        };
        let n = cfg.sweep_every as usize + 3 * cfg.segment_lines as usize;
        let records = take(&p, 4, n);
        // Count adjacent-line read pairs: a sweep produces long runs.
        let mut sequential_reads = 0usize;
        for pair in records.windows(2) {
            if let [a, b] = pair {
                if a.op.is_read() && b.addr == a.addr + LINE_BYTES {
                    sequential_reads += 1;
                }
            }
        }
        assert!(
            sequential_reads > cfg.segment_lines as usize / 4,
            "sweeps scan sequentially: {sequential_reads}"
        );
    }

    #[test]
    fn diurnal_rate_varies_across_the_period() {
        let p = diurnal_web();
        let DcKind::Diurnal(cfg) = &p.kind else {
            panic!("kind");
        };
        let records = take(&p, 8, 200_000);
        // Bucket arrivals by day phase: peak half must see more records
        // than trough half.
        let period = cfg.period_cycles;
        let (mut peak, mut trough) = (0u64, 0u64);
        for r in &records {
            let phase = r.cycle % period;
            let dist = phase.min(period - phase);
            if dist < period / 4 {
                peak += 1;
            } else {
                trough += 1;
            }
        }
        assert!(peak > trough * 2, "peak {peak} vs trough {trough} arrivals");
    }

    #[test]
    fn tenants_stay_in_their_slices() {
        let p = multi_tenant();
        let DcKind::MixedTenant(cfg) = &p.kind else {
            panic!("kind");
        };
        let limit = cfg.tenants * cfg.lines_per_tenant * LINE_BYTES;
        for r in take(&p, 2, 10_000) {
            assert!(r.addr < limit);
        }
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        let mut p = kv_zipf();
        if let DcKind::ZipfKv(c) = &mut p.kind {
            c.theta = 1.0;
        }
        assert!(p.validate().is_err());
        assert!(p.generator(0).is_err());
        let mut p = diurnal_web();
        if let DcKind::Diurnal(c) = &mut p.kind {
            c.peak_to_trough = 0.5;
        }
        assert!(p.validate().is_err());
    }
}
