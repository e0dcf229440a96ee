//! Shard-scaling harness: how much wall-clock an N-way rank-sharded
//! decomposition saves over running the same work on one thread.
//!
//! For each architecture the harness times three executions of the same
//! workload: the plain unsharded run, the N shards run one after another
//! (each timed individually), and the N shards on a worker pool. From
//! the serial pass it reports the **critical-path speedup** — total
//! serial time over the slowest single shard — which is the parallel
//! speedup an N-core machine achieves, measured independently of how
//! many cores *this* machine has (CI runners and laptops differ; the
//! critical path does not). The merged metrics of the serial and pooled
//! passes are asserted `{:#?}`-byte-identical, so every row in the
//! report doubles as a determinism check.
//!
//! With `--json PATH` the results are written machine-readably;
//! `BENCH_shard.json` at the repo root is the committed baseline (see
//! EXPERIMENTS.md and `scripts/bench_compare.sh`).
//!
//! Usage: `shard_scaling [--records N] [--seed N] [--shards N]
//! [--workload NAME] [--json PATH]` (defaults: 40000, 2014, 8, 470.lbm).
//!
//! The default workload matters: the critical path is the *busiest*
//! shard, so a rank-skewed access pattern caps the speedup below the
//! shard count no matter how many cores run it. `470.lbm`'s large
//! streaming working set spreads demand across all 16 ranks; pointedly
//! rank-hot workloads (tight hot sets) are still measurable via
//! `--workload`.

use pcm_trace::stream::TraceSpec;
use pcm_trace::synth::benchmarks;
use std::fmt::Write as _;
use std::time::Instant;
use wom_pcm::{Architecture, RunMetrics, Session, ShardPlan, ShardSource, SystemBuilder};
use wom_pcm_bench::{cli, run, Job, RunOptions};

const USAGE: &str =
    "shard_scaling [--records N] [--seed N] [--shards N] [--workload NAME] [--json PATH]";

struct Outcome {
    case: &'static str,
    unsharded_ns: f64,
    serial_shards_ns: f64,
    critical_path_ns: f64,
    critical_path_speedup: f64,
}

// Wall-clock is the quantity measured here; the `Instant::now` ban
// targets simulation code, not the benchmark harness.
#[allow(clippy::disallowed_methods)]
fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64() * 1e9)
}

fn run_arch(arch: Architecture, spec: &TraceSpec, shards: u32) -> Outcome {
    let cfg = SystemBuilder::new(arch)
        .rows_per_bank(wom_pcm_bench::EXPERIMENT_ROWS_PER_BANK)
        .into_config();

    let (_, unsharded_ns) = time(|| {
        let mut source = spec.open().expect("benchmark trace sources open");
        let mut session = Session::open(cfg.clone()).expect("benchmark configs validate");
        session
            .feed_source(&mut source)
            .expect("benchmark traces run clean");
        session.finish().expect("benchmark traces finish clean")
    });

    // Serial pass: every shard timed individually on this thread. The
    // sum is the one-core cost of the decomposition; the max is its
    // parallel critical path.
    let plan = ShardPlan::new(&cfg, shards).expect("shards divide the configured ranks");
    let mut serial_merged: Option<RunMetrics> = None;
    let mut serial_shards_ns = 0.0;
    let mut critical_path_ns = 0.0f64;
    for index in 0..shards {
        let (metrics, ns) = time(|| {
            let shard_cfg = plan.shard_config(index).expect("index in range");
            let source = spec.open().expect("benchmark trace sources open");
            let mut source = ShardSource::new(source, &plan, index).expect("index in range");
            let mut session = Session::open(shard_cfg).expect("benchmark configs validate");
            session
                .feed_source(&mut source)
                .expect("benchmark traces run clean");
            session.finish().expect("benchmark traces finish clean")
        });
        serial_shards_ns += ns;
        critical_path_ns = critical_path_ns.max(ns);
        match &mut serial_merged {
            None => serial_merged = Some(metrics),
            Some(all) => all.merge(&metrics),
        }
    }
    let serial_merged = serial_merged.expect("at least one shard ran");

    // Pooled pass: same decomposition on a worker per shard. Asserting
    // byte-identity here is the harness's determinism check.
    let job = Job {
        config: cfg,
        trace: spec.clone(),
        label: arch.slug().to_string(),
    };
    let opts = RunOptions {
        shards,
        threads: shards as usize,
        ..RunOptions::default()
    };
    let (pooled, _) = run(&[job], &opts)
        .expect("benchmark traces run clean")
        .remove(0);
    assert_eq!(
        format!("{serial_merged:#?}"),
        format!("{pooled:#?}"),
        "{}: pooled shard merge diverged from the serial merge",
        arch.slug()
    );

    Outcome {
        case: arch.slug(),
        unsharded_ns,
        serial_shards_ns,
        critical_path_ns,
        critical_path_speedup: serial_shards_ns / critical_path_ns,
    }
}

fn to_json(outcomes: &[Outcome], workload: &str, seed: u64, records: u64, shards: u32) -> String {
    let mut body = String::new();
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        write!(
            body,
            "\n  {{\"case\":\"{}\",\"unsharded_ns\":{:.0},\"serial_shards_ns\":{:.0},\
             \"critical_path_ns\":{:.0},\"critical_path_speedup\":{:.2}}}",
            o.case, o.unsharded_ns, o.serial_shards_ns, o.critical_path_ns, o.critical_path_speedup,
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"bench\":\"shard_scaling\",\"workload\":\"{workload}\",\"seed\":{seed},\
         \"records\":{records},\"shards\":{shards},\"cases\":[{body}\n]}}\n"
    )
}

fn main() {
    let mut cli = cli::Parser::from_env(USAGE);
    let records: u64 = cli.parsed("--records").unwrap_or(40_000);
    let seed: u64 = cli.parsed("--seed").unwrap_or(wom_pcm_bench::DEFAULT_SEED);
    let shards: u32 = cli.parsed("--shards").unwrap_or(8);
    if shards == 0 {
        eprintln!("error: --shards wants a positive integer");
        eprintln!("usage: {USAGE}");
        std::process::exit(2);
    }
    let workload = cli.value("--workload").unwrap_or_else(|| "470.lbm".into());
    let json_path = cli.value("--json");
    cli.finish();

    let workload = workload.as_str();
    let Some(profile) = benchmarks::by_name(workload) else {
        eprintln!("error: unknown workload '{workload}' (see `womsim list`)");
        std::process::exit(2);
    };
    let spec = TraceSpec::synth(profile.clone(), seed, records);
    println!(
        "shard scaling: {records} '{workload}' records, {shards} rank shards\n\
         (critical-path speedup = serial shard time / slowest shard; the\n\
         merged metrics of the serial and pooled passes are asserted equal)\n"
    );
    println!(
        "{:20}{:>14}{:>16}{:>15}{:>11}",
        "architecture", "unsharded ms", "serial shards", "slowest shard", "speedup"
    );

    let mut outcomes = Vec::new();
    for arch in Architecture::all_paper() {
        let o = run_arch(arch, &spec, shards);
        println!(
            "{:20}{:>14.1}{:>16.1}{:>15.1}{:>10.2}x",
            o.case,
            o.unsharded_ns / 1e6,
            o.serial_shards_ns / 1e6,
            o.critical_path_ns / 1e6,
            o.critical_path_speedup,
        );
        outcomes.push(o);
    }
    println!("\nmerge determinism: OK (all architectures)");

    if let Some(path) = json_path {
        std::fs::write(&path, to_json(&outcomes, workload, seed, records, shards))
            .expect("writing the JSON report");
        println!("wrote {path}");
    }
}
