//! The repository benchmark (`BENCHMARK.json`): one workload per
//! invocation, end-to-end metrics by default, per-layer metrics with
//! `--trace 1`. The last line of standard output is the JSON result.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--json PATH] [--spans-out PATH] [--smoke]
//! ```
//!
//! See README.md beside this crate for the workloads, metrics, bounds
//! and the run recipe.

#![forbid(unsafe_code)]

mod batch;
mod churn;
mod layers;
mod passes;
mod report;

use std::path::PathBuf;

use passes::{Pass, Run, Tracer};
use report::{catalog, golden_key, result_line, Golden, Outcome};

const USAGE: &str = "perfbench --workload paper_mix|verified_kv|dc_saturated|service_churn \
                     [--seed N] [--seconds S] [--trace 0|1] [--json PATH] [--spans-out PATH] [--smoke]";

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["paper_mix", "verified_kv", "dc_saturated", "service_churn"];

/// The seed the committed golden digests were taken at.
const GOLDEN_SEED: u64 = 2014;

/// Where trace files live while a run lasts, relative to the working
/// directory.
const TEMP_ROOT: &str = ".bench_tmp";

/// Settings of one invocation.
#[derive(Debug)]
pub struct Ctx {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed: every trace and the service schedule derive from it.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Per-layer run (`--trace 1`).
    pub traced: bool,
    /// 1% sizes, one set-up and one pass or window.
    pub smoke: bool,
    /// This run's trace-file directory.
    pub dir: PathBuf,
    golden: Golden,
}

impl Ctx {
    /// A workload size as run: 1% of it under `--smoke`.
    pub fn scale(&self, records: u64) -> u64 {
        if self.smoke {
            (records / 100).max(1)
        } else {
            records
        }
    }
}

/// Checks every pass's results: no run errored, every pass reproduced
/// the first pass's digests, and at the golden seed each digest matches
/// the committed one. Counts every run's records as attempted and
/// returns the first pass's digests.
pub fn check_passes<'a>(
    ctx: &Ctx,
    runs: &[Run],
    passes: impl IntoIterator<Item = &'a Pass>,
    outcome: &mut Outcome,
) -> Vec<Option<u64>> {
    let mut reference: Vec<Option<u64>> = Vec::new();
    for (k, pass) in passes.into_iter().enumerate() {
        for (i, (run, result)) in runs.iter().zip(&pass.results).enumerate() {
            outcome.attempted += run.records;
            let what = format!("{} on {}", run.trace, run.arch.slug());
            let digest = match &result.metrics {
                Err(e) => {
                    outcome.fail(run.records, format!("{what}: {e}"));
                    None
                }
                Ok(_) => result.digest(),
            };
            if k == 0 {
                reference.push(digest);
                let Some(d) = digest else { continue };
                println!(
                    "run {what}: {} records, metrics digest {d:016x}",
                    run.records
                );
                if ctx.seed == GOLDEN_SEED {
                    let key = golden_key(ctx.workload, &run.trace, run.arch.slug(), run.records);
                    if let Err(e) = ctx.golden.check(&key, d) {
                        outcome.fail(run.records, e);
                    }
                }
            } else if digest.is_some() && digest != reference.get(i).copied().flatten() {
                outcome.fail(
                    run.records,
                    format!("{what}: pass {} digest differs from pass 1", k + 1),
                );
            }
        }
    }
    reference
}

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
    json: Option<String>,
    spans_out: Option<String>,
    smoke: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: "",
        seed: GOLDEN_SEED,
        seconds: 20.0,
        traced: false,
        json: None,
        spans_out: None,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                out.workload = WORKLOADS
                    .iter()
                    .find(|w| **w == value)
                    .ok_or(format!("unknown workload {value}"))?;
            }
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("bad --seconds {value} (0 < S <= 600)"))?;
            }
            "--trace" => {
                out.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            "--json" => out.json = Some(value),
            "--spans-out" => out.spans_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(out)
}

/// This run's trace directory, removed (with its parent when empty) on
/// drop.
struct TempDir(PathBuf);

impl TempDir {
    fn create(workload: &str) -> Result<Self, String> {
        let dir = PathBuf::from(TEMP_ROOT).join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(TEMP_ROOT);
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let golden = Golden::parse(report::GOLDEN_TEXT)?;
    let temp = TempDir::create(args.workload)?;
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
        dir: temp.0.clone(),
        golden,
    };
    let provenance = report::provenance(ctx.seed);
    println!(
        "perfbench {}: seed {}, {} s, trace {}{}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced),
        if ctx.smoke { ", smoke" } else { "" }
    );
    println!("provenance {provenance}");
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new();
    match ctx.workload {
        "paper_mix" => batch::run(&ctx, &batch::PAPER_MIX, &mut outcome, &mut tracer)?,
        "verified_kv" => batch::run(&ctx, &batch::VERIFIED_KV, &mut outcome, &mut tracer)?,
        "dc_saturated" => batch::run(&ctx, &batch::DC_SATURATED, &mut outcome, &mut tracer)?,
        _ => churn::run(&ctx, &mut outcome, &mut tracer)?,
    }
    drop(temp);
    match report::peak_rss_mib() {
        Some(mib) => outcome.set("peak_rss_mib", mib),
        None => outcome.problems.push("VmHWM unavailable".into()),
    }
    if let Some(path) = &args.spans_out {
        tracer
            .write_jsonl(path, ctx.workload)
            .map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {} spans to {path}", tracer.spans.len());
    }
    let line = result_line(&mut outcome, catalog(ctx.traced));
    for &(name, unit) in catalog(ctx.traced) {
        let value = outcome.values.get(name).copied().unwrap_or(f64::NAN);
        println!("  {name:<40} {value:>16.4} {unit}");
    }
    for p in &outcome.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    if let Some(path) = &args.json {
        let mut problems = String::new();
        for (i, p) in outcome.problems.iter().enumerate() {
            if i > 0 {
                problems.push_str(", ");
            }
            womd::json::push_string(&mut problems, p);
        }
        let body = format!(
            "{{\"workload\": \"{}\", \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
             \"provenance\": {provenance}, \"problems\": [{problems}], \"result\": {line}}}\n",
            ctx.workload,
            ctx.seconds,
            u8::from(ctx.traced),
            ctx.smoke
        );
        std::fs::write(path, body).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{line}");
    Ok(outcome.problems.is_empty())
}

fn main() {
    let code = match parse_args(std::env::args().skip(1)) {
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: {USAGE}");
            2
        }
        Ok(args) => match run(&args) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("perfbench: {e}");
                2
            }
        },
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{beyond, nearest_rank, END_TO_END, PER_LAYER};
    use std::time::Duration;

    #[test]
    fn nearest_rank_percentiles_and_sample_counts() {
        let v: Vec<f64> = (1..=1600).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(800.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(1584.0));
        assert_eq!(beyond(v.len(), 0.99), 16);
        assert_eq!(nearest_rank(&[3.0], 0.99), Some(3.0));
        assert_eq!(nearest_rank(&[1.0, 2.0], 0.5), Some(1.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&v, 1.5), None);
        assert!(report::describe_latency("x", &v).contains("1600 samples (16 beyond p99"));
    }

    #[test]
    fn fastest_takes_the_index_wise_minimum() {
        let a = [3.0, 1.0, 5.0];
        let b = [2.0, 4.0];
        assert_eq!(report::fastest([&a[..], &b[..]]), vec![2.0, 1.0]);
        assert_eq!(report::fastest([&a[..]]), a.to_vec());
        assert!(report::fastest(std::iter::empty::<&[f64]>()).is_empty());
    }

    #[test]
    fn schedule_is_seeded_and_staggered() {
        let period = Duration::from_millis(100);
        let a = churn::schedule(7, 16, 5, period);
        assert_eq!(a, churn::schedule(7, 16, 5, period));
        assert_ne!(a, churn::schedule(8, 16, 5, period));
        assert_eq!(a.len(), 80);
        assert!(a.windows(2).all(|p| p[0].at <= p[1].at));
        // The first period holds one send per tenant, in tenant order
        // and at distinct times inside its own slot.
        let first: Vec<_> = a.iter().take(16).collect();
        for (i, d) in first.iter().enumerate() {
            assert_eq!((d.tenant, d.batch), (i, 0));
            let slot = period / 16;
            assert!(d.at >= slot * i as u32 && d.at < slot * (i as u32 + 1));
        }
        // Each tenant then sends exactly every period.
        for d in &a {
            assert_eq!(d.at, first[d.tenant].at + period * d.batch as u32);
        }
    }

    #[test]
    fn golden_file_parses_and_missing_entries_fail() {
        let golden = Golden::parse(report::GOLDEN_TEXT).expect("committed golden file parses");
        let key = golden_key("paper_mix", "qsort", "wcpcm", 100_000);
        assert!(golden.check(&key, 0).is_err(), "a wrong digest must fail");
        let missing = golden.check(&golden_key("paper_mix", "nope", "wcpcm", 1), 0);
        assert!(missing.unwrap_err().starts_with("missing golden entry"));
        assert!(Golden::parse("paper_mix qsort wcpcm 10").is_err());
        assert!(Golden::parse("a b c 1 ff\na b c 1 ff").is_err());
        let one = Golden::parse("# comment\na b c 1 ff # trailing\n").expect("parses");
        assert!(one.check("a b c 1", 0xff).is_ok());
    }

    /// Metric names listed under `section` in BENCHMARK.json, in order.
    fn benchmark_names(section: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let rest = &text[start..];
        let end = rest.find(']').expect("section closes");
        rest[..end]
            .split("\"name\":")
            .skip(1)
            .filter_map(|s| s.split('"').nth(1))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn catalogs_match_benchmark_json() {
        let names = |c: &[(&str, &str)]| c.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(benchmark_names("end_to_end"), names(END_TO_END));
        assert_eq!(benchmark_names("per_layer"), names(PER_LAYER));
        assert_eq!(benchmark_names("workloads"), WORKLOADS.map(str::to_string));
    }

    #[test]
    fn report_contains_every_catalog_metric() {
        for traced in [false, true] {
            let mut outcome = Outcome::default();
            for &(name, _) in catalog(traced) {
                outcome.set(name, 1.5);
            }
            outcome.attempted = 10;
            let line = result_line(&mut outcome, catalog(traced));
            assert!(outcome.problems.is_empty(), "{:?}", outcome.problems);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
            for &(name, unit) in catalog(traced) {
                let entry = format!("\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}");
                assert!(line.contains(&entry), "{name} missing from {line}");
            }
        }
        let mut partial = Outcome::default();
        let line = result_line(&mut partial, END_TO_END);
        assert!(line.starts_with("{\"correct\": false"));
        assert_eq!(partial.problems.len(), END_TO_END.len());
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let a = parse("--workload dc_saturated --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.traced),
            ("dc_saturated", 7, 12.0, true)
        );
        assert!(parse("--seed 7").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload paper_mix --trace 2").is_err());
        assert!(parse("--workload paper_mix --seconds 0").is_err());
        assert!(parse("--workload paper_mix --bogus 1").is_err());
    }
}
