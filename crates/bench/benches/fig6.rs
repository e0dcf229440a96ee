//! Timing of the Fig. 6 experiment: the WCPCM hit-rate measurement per
//! banks/rank point. Regenerating the figure itself is
//! `cargo run -p wom-pcm-bench --bin fig6 --release`.

use pcm_trace::synth::benchmarks;
use wom_pcm::Architecture;
use wom_pcm_bench::timing::bench;
use wom_pcm_bench::{cell_job, run, RunOptions};

const RECORDS: usize = 5_000;

fn main() {
    let profile = benchmarks::by_name("water-ns").expect("paper workload");
    for banks in [4u32, 8, 16, 32] {
        let job = [cell_job(
            Architecture::Wcpcm,
            profile.clone(),
            RECORDS,
            1,
            banks,
        )];
        bench(&format!("fig6_hit_rate/{banks}"), || {
            let (m, _) = run(&job, &RunOptions::default())
                .expect("cell runs")
                .remove(0);
            m.cache.expect("wcpcm has cache stats").hit_rate()
        });
    }
}
