//! Metric catalogs, the result line, percentiles, golden digests and the
//! provenance block.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("records_per_s", "records/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("batch_latency_p50_ms", "ms"),
    ("batch_latency_p99_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order. A layer
/// the workload does not exercise reports 0 (e.g. `womd.*` outside
/// `service_churn`, `codec.share_of_feed` on unverified runs).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.generate_s", "s"),
    ("trace.next_chunk_ns_per_record", "ns/record"),
    ("trace.span_coverage", "ratio"),
    ("trace.overhead_fraction", "ratio"),
    ("session.open_us", "us"),
    ("session.feed_ns_per_record", "ns/record"),
    ("session.finish_ms", "ms"),
    ("session.checkpoint_ms", "ms"),
    ("session.resume_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("pcm_sim.ns_per_record", "ns/record"),
    ("pcm_sim.share_of_feed", "ratio"),
    ("pcm_sim.queue_depth_mean", "count"),
    ("pcm_sim.queue_full_retries_per_record", "count/record"),
    ("pcm_sim.read_queue_wait_cycles_mean", "cycles"),
    ("pcm_sim.write_queue_wait_cycles_mean", "cycles"),
    ("codec.encode_ns_per_row", "ns/row"),
    ("codec.decode_ns_per_row", "ns/row"),
    ("codec.share_of_feed", "ratio"),
    ("codec.in_place_write_ratio", "ratio"),
    ("rowmap.ns_per_op", "ns/op"),
    ("rowmap.keys_per_page", "keys/page"),
    ("womd.feed_call_us_p50", "us"),
    ("womd.feed_call_us_p99", "us"),
    ("womd.busy_fraction", "ratio"),
    ("womd.finish_ms_p50", "ms"),
    ("client.lag_p99_ms", "ms"),
    ("sim.read_latency_mean_cycles", "cycles"),
    ("sim.write_latency_mean_cycles", "cycles"),
    ("sim.write_p99_cycles", "cycles"),
    ("sim.fast_write_fraction", "ratio"),
    ("sim.refresh_useful_ratio", "ratio"),
    ("sim.wom_cache_hit_rate", "ratio"),
    ("sim.victim_writebacks", "count"),
    ("sim.coalesced_writes", "count"),
    ("sim.data_reads_verified", "count"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Records the workload tried to simulate (every pass counted).
    pub attempted: u64,
    /// Records in runs that errored or failed an output check.
    pub failed: u64,
    /// Every failed check, one line each.
    pub problems: Vec<String>,
    /// Measured metrics.
    pub values: Values,
}

impl Outcome {
    /// Records a failed check covering `records` records.
    pub fn fail(&mut self, records: u64, problem: String) {
        self.failed += records;
        self.problems.push(problem);
    }

    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// The catalog a run reports: per-layer when traced, else end-to-end.
pub fn catalog(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Renders the JSON result line (`correct`, `attempted`, `failed`,
/// `metrics`) over exactly `catalog`'s metrics. A missing or non-finite
/// metric is itself a failed check.
pub fn result_line(outcome: &mut Outcome, catalog: &[(&'static str, &'static str)]) -> String {
    let mut metrics = String::new();
    for &(name, unit) in catalog {
        match outcome.values.get(name).copied() {
            Some(v) if v.is_finite() => {
                if !metrics.is_empty() {
                    metrics.push_str(", ");
                }
                write!(
                    metrics,
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                )
                .expect("writing to a String cannot fail");
            }
            Some(v) => outcome
                .problems
                .push(format!("metric {name} is not finite ({v})")),
            None => outcome
                .problems
                .push(format!("metric {name} was not measured")),
        }
    }
    let attempted = outcome.attempted.max(1);
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.problems.is_empty(),
        outcome.failed.min(attempted),
    )
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least a `p` share of all samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&p) {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).max(1);
    sorted.get(rank - 1).copied()
}

/// Samples that lie strictly beyond the nearest-rank `p` percentile
/// position; the benchmark states it beside each tail percentile.
pub fn beyond(samples: usize, p: f64) -> usize {
    samples - ((p * samples as f64).ceil() as usize).min(samples)
}

/// Median of unsorted samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 0.5).unwrap_or(0.0)
}

/// Index-wise minimum of equally indexed sample lists (the same step in
/// every repetition), truncated to the shortest list. Interference from
/// the rest of the host only ever adds time, so a step's fastest
/// repetition is the steady estimate of what the code costs.
pub fn fastest<'a>(lists: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut lists = lists.into_iter();
    let mut out = lists.next().map(<[f64]>::to_vec).unwrap_or_default();
    for list in lists {
        out.truncate(list.len());
        for (best, &v) in out.iter_mut().zip(list) {
            *best = best.min(v);
        }
    }
    out
}

/// Human-readable p50/p99 line with the sample counts.
pub fn describe_latency(name: &str, sorted_ms: &[f64]) -> String {
    format!(
        "{name}: p50 {:.3} ms, p99 {:.3} ms over {} samples ({} beyond p99, nearest rank)",
        nearest_rank(sorted_ms, 0.5).unwrap_or(0.0),
        nearest_rank(sorted_ms, 0.99).unwrap_or(0.0),
        sorted_ms.len(),
        beyond(sorted_ms.len(), 0.99)
    )
}

/// Committed FNV-1a digests of `{:#?}` `RunMetrics`, for seed 2014.
pub const GOLDEN_TEXT: &str = include_str!("../golden.txt");

/// Golden digests keyed by `workload trace arch records`.
#[derive(Debug)]
pub struct Golden(BTreeMap<String, u64>);

/// The golden-file key of one run.
pub fn golden_key(workload: &str, trace: &str, arch: &str, records: u64) -> String {
    format!("{workload} {trace} {arch} {records}")
}

impl Golden {
    /// Parses `workload trace arch records digest` lines; `#` starts a
    /// comment.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or_default().trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [workload, trace, arch, records, digest] = fields[..] else {
                return Err(format!("golden line {}: expected 5 fields: {raw}", i + 1));
            };
            let records: u64 = records
                .parse()
                .map_err(|_| format!("golden line {}: bad record count {records}", i + 1))?;
            let digest = u64::from_str_radix(digest, 16)
                .map_err(|_| format!("golden line {}: bad digest {digest}", i + 1))?;
            if map
                .insert(golden_key(workload, trace, arch, records), digest)
                .is_some()
            {
                return Err(format!("golden line {}: duplicate entry", i + 1));
            }
        }
        Ok(Self(map))
    }

    /// Checks one digest. A missing entry is an error naming the line
    /// to add, never a silent pass.
    pub fn check(&self, key: &str, digest: u64) -> Result<(), String> {
        match self.0.get(key) {
            Some(&want) if want == digest => Ok(()),
            Some(&want) => Err(format!(
                "golden mismatch for {key}: got {digest:016x}, want {want:016x}"
            )),
            None => Err(format!("missing golden entry: {key} {digest:016x}")),
        }
    }
}

/// `{commit, profile, kernel, cpu, nproc, seed}` as a JSON object.
pub fn provenance(seed: u64) -> String {
    let codec = wom_code::BlockCodec::new(wom_code::Inverted::new(wom_code::Rs23Code::new()), 512)
        .expect("the 64-byte line codec tiles");
    let kernel = if codec.is_accelerated() {
        format!("{:?}", codec.kernel())
    } else {
        "reference".to_string()
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = String::from("{\"commit\": ");
    womd::json::push_string(&mut out, &git_commit().unwrap_or_else(|| "unknown".into()));
    out.push_str(", \"profile\": ");
    womd::json::push_string(&mut out, profile);
    out.push_str(", \"kernel\": ");
    womd::json::push_string(&mut out, &kernel);
    out.push_str(", \"cpu\": ");
    womd::json::push_string(&mut out, &cpu_model().unwrap_or_else(|| "unknown".into()));
    write!(out, ", \"nproc\": {nproc}, \"seed\": {seed}}}").expect("writing to a String");
    out
}

/// The checked-out commit, resolved from `.git` in the working
/// directory without running git (which would search parent
/// directories); `None` outside a git checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
