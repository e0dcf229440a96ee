//! Seed sensitivity: the synthetic-trace substitution introduces RNG
//! where the paper had fixed captures, so the architecture conclusions
//! must be shown robust to the seed. Runs the Fig. 5 averages over
//! several seeds and reports the spread.
//!
//! Usage: `seeds [records] [n_seeds] [--threads N]`
//! (defaults: 40000, 5, available parallelism).

use wom_pcm_bench::{average, cli, fig5_jobs, fig5_rows, run, RunOptions};

const USAGE: &str = "seeds [records] [n_seeds] [--threads N]";

fn main() {
    let mut cli = cli::Parser::from_env(USAGE);
    let threads = cli.threads();
    let records: usize = cli.positional("records", 40_000);
    let n_seeds: u64 = cli.positional("n_seeds", 5);
    cli.finish();

    let opts = RunOptions {
        threads,
        ..RunOptions::default()
    };
    let mut per_seed: Vec<[f64; 3]> = Vec::new();
    for seed in 0..n_seeds {
        eprintln!("seed {seed} ({records} records x 80 cells, {threads} threads) ...");
        let runs = run(&fig5_jobs(records, seed), &opts).expect("figure runs");
        let metrics: Vec<_> = runs.into_iter().map(|(m, _)| m).collect();
        let rows = fig5_rows(&metrics).expect("every cell records reads and writes");
        per_seed.push([
            average(&rows, 1, true),
            average(&rows, 2, true),
            average(&rows, 3, true),
        ]);
    }

    println!("\nFig. 5(a) averages across {n_seeds} seeds ({records} records/run)\n");
    println!(
        "{:>6}{:>12}{:>14}{:>10}",
        "seed", "wom-code", "pcm-refresh", "wcpcm"
    );
    for (seed, row) in per_seed.iter().enumerate() {
        println!(
            "{:>6}{:>12.3}{:>14.3}{:>10.3}",
            seed, row[0], row[1], row[2]
        );
    }
    for (label, idx) in [("wom-code", 0usize), ("pcm-refresh", 1), ("wcpcm", 2)] {
        let vals: Vec<f64> = per_seed.iter().map(|r| r[idx]).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{label:>13}: mean {mean:.3}, stddev {:.4}, range [{min:.3}, {max:.3}]",
            var.sqrt()
        );
    }
    println!(
        "\nthe architecture ordering must hold for every seed for the\n\
         reproduction's conclusions to stand."
    );
}
