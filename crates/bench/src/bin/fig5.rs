//! Regenerates Fig. 5 of the paper: normalized average write latency
//! (panel a) and read latency (panel b) of the four PCM architectures
//! across the 20 SPEC CPU2006 / MiBench / SPLASH-2 workloads.
//!
//! Usage: `fig5 [records] [seed] [--json] [--threads N]
//! [--observe PATH [--epoch-cycles N]]`
//! (defaults: 120000, 2014, available parallelism).

use wom_pcm_bench::{
    average, cli, fig5_jobs, fig5_rows, json, reduction_pct, run, write_observed_jsonl, RunOptions,
    DEFAULT_RECORDS, DEFAULT_SEED,
};

const USAGE: &str =
    "fig5 [records] [seed] [--json] [--threads N] [--observe PATH [--epoch-cycles N]]";

fn main() {
    let mut cli = cli::Parser::from_env(USAGE);
    let threads = cli.threads();
    let json_out = cli.flag("--json");
    let observe = cli.observe();
    let records: usize = cli.positional("records", DEFAULT_RECORDS);
    let seed: u64 = cli.positional("seed", DEFAULT_SEED);
    cli.finish();

    eprintln!(
        "running fig5: 20 workloads x 4 architectures, {records} records each, {threads} threads ..."
    );
    let jobs = fig5_jobs(records, seed);
    let opts = RunOptions {
        threads,
        epoch_cycles: observe.as_ref().map(|o| o.epoch_cycles),
        ..RunOptions::default()
    };
    let runs = run(&jobs, &opts).expect("figure runs");
    if let Some(obs) = &observe {
        write_observed_jsonl(&obs.path, &jobs, &runs).expect("writing the epoch JSONL");
        eprintln!("wrote {} epoch series to {}", runs.len(), obs.path);
    }
    let metrics: Vec<_> = runs.into_iter().map(|(m, _)| m).collect();
    let rows = fig5_rows(&metrics).expect("every cell records reads and writes");
    if json_out {
        println!("{}", json::fig5(&rows));
        return;
    }

    let arch_names = ["baseline", "wom-code", "pcm-refresh", "wcpcm"];

    for (panel, writes) in [
        ("Figure 5(a): normalized WRITE latency", true),
        ("Figure 5(b): normalized READ latency", false),
    ] {
        println!("\n{panel}");
        print!("{:16}", "benchmark");
        for a in arch_names {
            print!("{a:>13}");
        }
        println!();
        for row in &rows {
            print!("{:16}", row.benchmark);
            let vals = if writes { &row.write } else { &row.read };
            for v in vals {
                print!("{v:>13.3}");
            }
            println!();
        }
        print!("{:16}", "AVERAGE");
        for i in 0..4 {
            print!("{:>13.3}", average(&rows, i, writes));
        }
        println!();
        println!(
            "paper reports   : wom-code -{:.1}%  pcm-refresh -{:.1}%  wcpcm -{:.1}%",
            if writes { 20.1 } else { 10.2 },
            if writes { 54.9 } else { 47.9 },
            if writes { 47.2 } else { 44.0 },
        );
        println!(
            "this run        : wom-code -{:.1}%  pcm-refresh -{:.1}%  wcpcm -{:.1}%",
            reduction_pct(average(&rows, 1, writes)),
            reduction_pct(average(&rows, 2, writes)),
            reduction_pct(average(&rows, 3, writes)),
        );
    }
}
