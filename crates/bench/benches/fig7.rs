//! Timing of the Fig. 7 experiment: the WCPCM write-latency measurement
//! per banks/rank point. Regenerating the figure itself is
//! `cargo run -p wom-pcm-bench --bin fig7 --release`.

use pcm_trace::synth::benchmarks;
use wom_pcm::Architecture;
use wom_pcm_bench::timing::bench;
use wom_pcm_bench::{cell_job, run, RunOptions};

const RECORDS: usize = 5_000;

fn main() {
    let profile = benchmarks::by_name("typeset").expect("paper workload");
    for banks in [4u32, 8, 16, 32] {
        let job = [cell_job(
            Architecture::Wcpcm,
            profile.clone(),
            RECORDS,
            1,
            banks,
        )];
        bench(&format!("fig7_write_latency/{banks}"), || {
            let (m, _) = run(&job, &RunOptions::default())
                .expect("cell runs")
                .remove(0);
            m.mean_write_ns()
        });
    }
}
