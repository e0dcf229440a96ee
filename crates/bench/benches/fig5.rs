//! Timing of the Fig. 5 experiment cells: one (architecture x workload)
//! simulation at reduced scale. Regenerating the actual figure is
//! `cargo run -p wom-pcm-bench --bin fig5 --release`.

use pcm_trace::synth::benchmarks;
use wom_pcm::Architecture;
use wom_pcm_bench::timing::bench;
use wom_pcm_bench::{cell_job, run, RunOptions};

const RECORDS: usize = 5_000;

fn main() {
    let profile = benchmarks::by_name("qsort").expect("paper workload");
    for arch in Architecture::all_paper() {
        let job = [cell_job(arch, profile.clone(), RECORDS, 1, 32)];
        bench(&format!("fig5_write/{}", arch.label()), || {
            run(&job, &RunOptions::default()).expect("cell runs")
        });
    }
}
