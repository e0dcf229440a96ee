//! Regenerates Fig. 6 of the paper: WOM-cache hit rate in WCPCM for 4, 8,
//! 16, and 32 banks/rank across the 20 workloads. The paper's trend: the
//! more banks per rank, the lower the hit rate (more banks conflict on
//! each per-row tag).
//!
//! Usage: `fig6 [records] [seed] [--json] [--threads N]
//! [--observe PATH [--epoch-cycles N]]`
//! (defaults: 120000, 2014, available parallelism).

use wom_pcm_bench::{
    bank_sweep_fold, bank_sweep_jobs, cli, json, run, write_observed_jsonl, RunOptions,
    DEFAULT_RECORDS, DEFAULT_SEED,
};

const USAGE: &str =
    "fig6 [records] [seed] [--json] [--threads N] [--observe PATH [--epoch-cycles N]]";

fn main() {
    let mut cli = cli::Parser::from_env(USAGE);
    let threads = cli.threads();
    let json_out = cli.flag("--json");
    let observe = cli.observe();
    let records: usize = cli.positional("records", DEFAULT_RECORDS);
    let seed: u64 = cli.positional("seed", DEFAULT_SEED);
    cli.finish();

    eprintln!(
        "running fig6: 20 workloads x 4 bank counts, {records} records each, {threads} threads ..."
    );
    let jobs = bank_sweep_jobs(records, seed);
    let opts = RunOptions {
        threads,
        epoch_cycles: observe.as_ref().map(|o| o.epoch_cycles),
        ..RunOptions::default()
    };
    let runs = run(&jobs, &opts).expect("sweep runs");
    if let Some(obs) = &observe {
        write_observed_jsonl(&obs.path, &jobs, &runs).expect("writing the epoch JSONL");
        eprintln!("wrote {} epoch series to {}", runs.len(), obs.path);
    }
    let metrics: Vec<_> = runs.into_iter().map(|(m, _)| m).collect();
    let sweeps = bank_sweep_fold(&metrics).expect("every WCPCM cell reports cache statistics");

    if json_out {
        let docs: Vec<String> = sweeps
            .iter()
            .map(|(name, points)| json::bank_sweep(name, points))
            .collect();
        println!("[{}]", docs.join(","));
        return;
    }

    println!("\nFigure 6: WOM-cache hit rate in WCPCM");
    println!(
        "{:16}{:>14}{:>14}{:>14}{:>14}",
        "benchmark", "4 banks/rank", "8 banks/rank", "16 banks/rank", "32 banks/rank"
    );
    let mut sums = [0.0f64; 4];
    let mut count = 0usize;
    for (name, points) in &sweeps {
        print!("{name:16}");
        for (i, p) in points.iter().enumerate() {
            print!("{:>14.3}", p.hit_rate);
            sums[i] += p.hit_rate;
        }
        println!();
        count += 1;
    }
    print!("{:16}", "AVERAGE");
    for s in sums {
        print!("{:>14.3}", s / count as f64);
    }
    println!();
    println!("paper's trend: hit rate decreases monotonically with banks/rank");
}
