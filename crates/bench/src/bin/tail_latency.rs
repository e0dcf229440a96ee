//! Tail-latency extension: the paper reports *mean* latencies, but the
//! mechanism — occasional SET-gated α-writes stalling a bank — is
//! precisely a tail phenomenon. This experiment reports p50/p95/p99
//! write and read latencies per architecture, showing that PCM-refresh
//! and WCPCM compress the tail even more than the mean.
//!
//! Percentiles are log₂-bucketed (within 2× of exact; see
//! `pcm_sim::Histogram`).
//!
//! Usage: `tail_latency [records] [seed] [--workload NAME]... [--threads N]
//! [--shards N] [--resume PATH [--snapshot-every N]]
//! [--observe PATH [--epoch-cycles N]]`
//! (defaults: 30000, 2014, the three paper workloads below, available
//! parallelism). `--workload` replaces the default set and may name any
//! paper-suite or datacenter profile (`womsim list`); datacenter tails —
//! zipfian KV, WAL, GC sweeps — are exactly where p99 diverges from the
//! mean. `--shards N` rank-shards each cell across the worker pool;
//! `--resume PATH --snapshot-every N` makes long runs restartable
//! (per-cell `WOMSNAP` files are derived from PATH).

use pcm_sim::MemOp;
use pcm_trace::stream::{TraceProfile, TraceSpec};
use wom_pcm::Architecture;
use wom_pcm_bench::{cell_builder, cli, run, write_observed_jsonl, Job, RunOptions};

const USAGE: &str = "tail_latency [records] [seed] [--workload NAME]... [--threads N] \
                     [--shards N] [--resume PATH [--snapshot-every N]] \
                     [--observe PATH [--epoch-cycles N]]";

fn main() {
    let mut cli = cli::Parser::from_env(USAGE);
    let threads = cli.threads();
    let shards = cli.shards();
    let snapshot = cli.snapshot();
    let observe = cli.observe();
    let mut workloads = cli.values("--workload");
    let records: usize = cli.positional("records", 30_000);
    let seed: u64 = cli.positional("seed", 2014);
    cli.finish();

    if workloads.is_empty() {
        workloads = ["464.h264ref", "qsort", "water-ns"]
            .map(String::from)
            .into();
    }
    let mut jobs: Vec<Job> = Vec::new();
    for name in &workloads {
        let Some(profile) = TraceProfile::by_name(name) else {
            eprintln!("error: unknown workload '{name}' (see `womsim list`)");
            std::process::exit(2);
        };
        for arch in Architecture::all_paper() {
            jobs.push(Job {
                config: cell_builder(arch, 32).into_config(),
                trace: TraceSpec::synth(profile.clone(), seed, records as u64),
                label: format!("{name}-{}", arch.slug()),
            });
        }
    }
    let opts = RunOptions {
        shards,
        threads,
        snapshot,
        epoch_cycles: observe.as_ref().map(|o| o.epoch_cycles),
    };
    let runs = run(&jobs, &opts).expect("tail cells run");
    if let Some(obs) = &observe {
        write_observed_jsonl(&obs.path, &jobs, &runs).expect("writing the epoch JSONL");
        eprintln!("wrote {} epoch series to {}", runs.len(), obs.path);
    }
    let metrics: Vec<_> = runs.into_iter().map(|(m, _)| m).collect();

    for (bench, cells) in workloads.iter().zip(metrics.chunks_exact(4)) {
        println!("\n{bench} ({records} records) - latencies in ns");
        println!(
            "{:22}{:>9}{:>9}{:>9}{:>4}{:>9}{:>9}{:>9}",
            "architecture", "w p50", "w p95", "w p99", "|", "r p50", "r p95", "r p99"
        );
        for (arch, m) in Architecture::all_paper().iter().zip(cells) {
            println!(
                "{:22}{:>9.0}{:>9.0}{:>9.0}{:>4}{:>9.0}{:>9.0}{:>9.0}",
                arch.label(),
                m.percentile_ns(MemOp::Write, 0.50),
                m.percentile_ns(MemOp::Write, 0.95),
                m.percentile_ns(MemOp::Write, 0.99),
                "|",
                m.percentile_ns(MemOp::Read, 0.50),
                m.percentile_ns(MemOp::Read, 0.95),
                m.percentile_ns(MemOp::Read, 0.99),
            );
        }
    }
    println!(
        "\nthe alpha-write is a tail event: architectures that eliminate it\n\
         (pcm-refresh, wcpcm) compress p99 far more than the mean."
    );
}
