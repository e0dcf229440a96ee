//! Endurance analysis — the paper's stated future work (§6: "their
//! impact on the endurance of PCM is not explicitly addressed ... and
//! the problem remains open for future research").
//!
//! Reports, per architecture: total SET-bearing writes (the melt cycles
//! that age PCM cells), total RESET-only writes, the most-written row,
//! and the wear skew (coefficient of variation). Two opposing effects
//! appear: WOM coding removes SET pulses from most writes, but
//! PCM-refresh adds whole-row rewrites of its own, and WCPCM
//! concentrates all write traffic on the small per-rank cache arrays.
//!
//! Usage: `endurance [records] [seed] [--workload NAME] [--threads N]
//! [--shards N] [--resume PATH [--snapshot-every N]]
//! [--observe PATH [--epoch-cycles N]]`
//! (defaults: 30000, 2014, 464.h264ref, available parallelism). The
//! workload may be any paper-suite or datacenter profile (`womsim list`
//! names them); the trace is streamed, never materialized, so record
//! counts far beyond memory are fine. `--shards N` splits each case's
//! rank space across the worker pool; `--resume PATH --snapshot-every N`
//! makes the run restartable (per-case, per-shard `WOMSNAP` files are
//! derived from PATH) — re-running the same command line after an
//! interruption picks up from the last snapshot and finishes with
//! byte-identical metrics.

use pcm_trace::stream::{TraceProfile, TraceSpec};
use wom_pcm::{Architecture, SystemBuilder};
use wom_pcm_bench::{cli, run, write_observed_jsonl, Job, RunOptions};

const USAGE: &str = "endurance [records] [seed] [--workload NAME] [--threads N] [--shards N] \
                     [--resume PATH [--snapshot-every N]] [--observe PATH [--epoch-cycles N]]";

fn main() {
    let mut cli = cli::Parser::from_env(USAGE);
    let threads = cli.threads();
    let shards = cli.shards();
    let snapshot = cli.snapshot();
    let observe = cli.observe();
    let workload = cli
        .value("--workload")
        .unwrap_or_else(|| "464.h264ref".into());
    let records: usize = cli.positional("records", 30_000);
    let seed: u64 = cli.positional("seed", 2014);
    cli.finish();

    let Some(profile) = TraceProfile::by_name(&workload) else {
        eprintln!("error: unknown workload '{workload}' (see `womsim list`)");
        std::process::exit(2);
    };
    let spec = TraceSpec::synth(profile.clone(), seed, records as u64);
    println!("workload: {} ({records} records)\n", profile.name());
    println!(
        "{:23}{:>12}{:>13}{:>11}{:>10}{:>14}",
        "architecture", "SET writes", "RESET-only", "max/row", "wear CV", "cache max/row"
    );
    // (report name, job-label slug, architecture, start-gap interval).
    // The label `{workload}-{slug}` tags the epoch lines and keys the
    // derived snapshot file names.
    const CASES: [(&str, &str, Architecture, Option<u64>); 5] = [
        ("PCM w/o WOM-code", "baseline", Architecture::Baseline, None),
        ("WOM-code PCM", "wom", Architecture::WomCode, None),
        ("PCM-refresh", "refresh", Architecture::WomCodeRefresh, None),
        ("WCPCM", "wcpcm", Architecture::Wcpcm, None),
        (
            "PCM-refresh + start-gap",
            "refresh-sg",
            Architecture::WomCodeRefresh,
            Some(64),
        ),
    ];
    let jobs: Vec<_> = CASES
        .iter()
        .map(|&(_, slug, arch, leveling)| {
            let mut b = SystemBuilder::new(arch).rows_per_bank(4096);
            if let Some(interval) = leveling {
                b = b.wear_leveling(interval);
            }
            Job {
                config: b.into_config(),
                trace: spec.clone(),
                label: format!("{workload}-{slug}"),
            }
        })
        .collect();
    let opts = RunOptions {
        shards,
        threads,
        snapshot,
        epoch_cycles: observe.as_ref().map(|o| o.epoch_cycles),
    };
    let runs = run(&jobs, &opts).expect("endurance cells run");
    if let Some(obs) = &observe {
        write_observed_jsonl(&obs.path, &jobs, &runs).expect("writing the epoch JSONL");
        eprintln!("wrote {} epoch series to {}", runs.len(), obs.path);
    }
    let metrics: Vec<_> = runs.into_iter().map(|(m, _)| m).collect();
    for ((label, _, _, _), m) in CASES.iter().zip(&metrics) {
        let w = m.wear_main;
        let cache_max = m.wear_cache.map_or("-".to_string(), |c| c.max.to_string());
        println!(
            "{:23}{:>12}{:>13}{:>11}{:>10.2}{:>14}",
            label,
            m.slow_writes + m.refreshes_completed + m.victim_writebacks + m.leveling_copies,
            m.fast_writes,
            w.max,
            w.cv,
            cache_max
        );
    }
    println!(
        "\nSET writes age cells fastest; WOM architectures trade them for RESET-only\n\
         writes. WCPCM shifts wear onto the cache arrays (last column) - a wear-\n\
         leveling target the paper leaves to future work. At trace scale each\n\
         bank sees too few writes for start-gap to rotate; the hot-row\n\
         microbenchmark below shows its effect over a longer horizon."
    );

    // Hot-row microbenchmark: hammer one line so gap moves actually occur.
    use pcm_trace::{TraceOp, TraceRecord};
    let hot: TraceSpec = (0..30_000u64)
        .map(|i| TraceRecord::new(i * 300, 0, TraceOp::Write))
        .collect::<Vec<TraceRecord>>()
        .into();
    println!(
        "\nhot-row microbenchmark (30k writes to one line, 64-row banks so the\n\
         gap completes rotations), WOM-code PCM:"
    );
    println!(
        "{:>22}{:>11}{:>10}{:>14}",
        "start-gap interval", "max/row", "wear CV", "copy overhead"
    );
    const INTERVALS: [Option<u64>; 4] = [None, Some(256), Some(64), Some(16)];
    let hot_jobs: Vec<_> = INTERVALS
        .iter()
        .map(|&leveling| {
            let mut b = SystemBuilder::new(Architecture::WomCode).rows_per_bank(64);
            if let Some(interval) = leveling {
                b = b.wear_leveling(interval);
            }
            Job {
                config: b.into_config(),
                trace: hot.clone(),
                label: String::new(),
            }
        })
        .collect();
    let hot_opts = RunOptions {
        threads,
        ..RunOptions::default()
    };
    let hot_runs = run(&hot_jobs, &hot_opts).expect("hot-row cells run");
    for (leveling, (m, _)) in INTERVALS.iter().zip(&hot_runs) {
        println!(
            "{:>22}{:>11}{:>10.2}{:>13.1}%",
            leveling.map_or("off".to_string(), |i| i.to_string()),
            m.wear_main.max,
            m.wear_main.cv,
            m.leveling_copies as f64 / 30_000.0 * 100.0,
        );
    }
    println!("smaller intervals rotate faster: lower peak wear, more copy traffic.");
}
