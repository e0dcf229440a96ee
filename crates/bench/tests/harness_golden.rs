//! The figure numbers the harness prints, pinned byte for byte.
//!
//! `fixtures/fig5_2000_7.json` is `fig5 2000 7 --json` and
//! `fixtures/bank_sweep_2000_7.json` is `fig6 2000 7 --json` (the same
//! sweep feeds Fig. 7). Both are rebuilt here through [`run`] and the
//! figure folds, so any change to the runner, the job builders or the
//! folds that moves a printed digit fails this test.

use wom_pcm::RunMetrics;
use wom_pcm_bench::{
    bank_sweep_fold, bank_sweep_jobs, fig5_jobs, fig5_rows, json, parallel, run, Job, RunOptions,
};

const RECORDS: usize = 2_000;
const SEED: u64 = 7;

fn metrics(jobs: &[Job]) -> Vec<RunMetrics> {
    let opts = RunOptions {
        threads: parallel::default_threads(),
        ..RunOptions::default()
    };
    let runs = run(jobs, &opts).expect("figure cells run");
    runs.into_iter().map(|(m, _)| m).collect()
}

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

#[test]
fn fig5_json_matches_the_fixture() {
    let rows = fig5_rows(&metrics(&fig5_jobs(RECORDS, SEED))).expect("rows fold");
    assert_eq!(
        format!("{}\n", json::fig5(&rows)),
        fixture("fig5_2000_7.json")
    );
}

#[test]
fn bank_sweep_json_matches_the_fixture() {
    let sweeps = bank_sweep_fold(&metrics(&bank_sweep_jobs(RECORDS, SEED))).expect("sweep folds");
    let docs: Vec<String> = sweeps
        .iter()
        .map(|(name, points)| json::bank_sweep(name, points))
        .collect();
    assert_eq!(
        format!("[{}]\n", docs.join(",")),
        fixture("bank_sweep_2000_7.json")
    );
}
