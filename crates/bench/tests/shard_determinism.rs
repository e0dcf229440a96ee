//! Cross-thread determinism and resumability of the sharded runner.
//!
//! Two contracts from DESIGN.md §12 are pinned here, in both CI kernel
//! legs (lanes and scalar):
//!
//! 1. The same shard decomposition merged on one worker thread and on a
//!    full pool is `{:#?}`-byte identical — thread scheduling must never
//!    leak into results (merge order is fixed shard order, not
//!    completion order).
//! 2. A run interrupted after a snapshot and resumed from it finishes
//!    byte-identical to the uninterrupted run.

use pcm_trace::stream::TraceSpec;
use pcm_trace::synth::benchmarks;
use std::path::PathBuf;
use wom_pcm::{Architecture, EpochSeries, RunMetrics};
use wom_pcm_bench::cli::SnapshotSpec;
use wom_pcm_bench::{cell_builder, run, Job, RunOptions};

const SHARDS: u32 = 8;
const RECORDS: u64 = 6_000;
const SEED: u64 = 7;

fn job(arch: Architecture, records: u64) -> Job {
    let profile = benchmarks::by_name("qsort").expect("bundled workload");
    Job {
        config: cell_builder(arch, 32).into_config(),
        trace: TraceSpec::synth(profile, SEED, records),
        label: String::new(),
    }
}

/// Runs one job under `opts`, returning its metrics and epoch series.
fn run_one(job: Job, opts: &RunOptions) -> (RunMetrics, Option<EpochSeries>) {
    run(&[job], opts).expect("job runs").remove(0)
}

fn sharded(threads: usize) -> RunOptions {
    RunOptions {
        shards: SHARDS,
        threads,
        ..RunOptions::default()
    }
}

/// A per-test scratch path under the cargo-managed tmp dir, cleared of
/// any leftover from a previous run.
fn scratch(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    match std::fs::remove_file(&path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => panic!("clearing scratch snapshot {}: {e}", path.display()),
    }
    path
}

#[test]
fn pooled_merge_matches_serial_merge_for_all_architectures() {
    for arch in Architecture::all_paper() {
        let serial = run_one(job(arch, RECORDS), &sharded(1)).0;
        let pooled = run_one(job(arch, RECORDS), &sharded(SHARDS as usize)).0;
        assert_eq!(
            format!("{serial:#?}"),
            format!("{pooled:#?}"),
            "{}: pooled merge diverged from one-thread merge",
            arch.slug()
        );
    }
}

#[test]
fn observed_epoch_series_merge_is_thread_count_independent() {
    let observed = |threads| RunOptions {
        epoch_cycles: Some(10_000),
        ..sharded(threads)
    };
    let (m1, s1) = run_one(job(Architecture::WomCodeRefresh, RECORDS), &observed(1));
    let (m8, s8) = run_one(
        job(Architecture::WomCodeRefresh, RECORDS),
        &observed(SHARDS as usize),
    );
    assert!(s1.is_some(), "observation was requested");
    assert_eq!(format!("{m1:#?}"), format!("{m8:#?}"));
    assert_eq!(format!("{s1:#?}"), format!("{s8:#?}"));
}

#[test]
fn interrupted_resume_matches_uninterrupted_run() {
    for arch in Architecture::all_paper() {
        let uninterrupted = run_one(job(arch, RECORDS), &RunOptions::default()).0;

        // "Interrupt" by running a truncated spec — the synth generator
        // is a prefix-stable stream, so the first 3000 records of the
        // 6000-record spec are the same trace.
        let snap = SnapshotSpec {
            every: Some(1_000),
            path: scratch(&format!("resume-{}.womsnap", arch.slug()))
                .display()
                .to_string(),
        };
        let resumable = RunOptions {
            snapshot: Some(snap.clone()),
            ..RunOptions::default()
        };
        let _ = run_one(job(arch, RECORDS / 2), &resumable);
        assert!(
            std::path::Path::new(&snap.path).exists(),
            "the interrupted run wrote its snapshot"
        );

        // Same command line, full spec: restores from the snapshot, skips
        // the consumed prefix, and finishes.
        let resumed = run_one(job(arch, RECORDS), &resumable).0;
        assert_eq!(
            format!("{uninterrupted:#?}"),
            format!("{resumed:#?}"),
            "{}: resumed run diverged from the uninterrupted run",
            arch.slug()
        );
    }
}

#[test]
fn sharded_interrupted_resume_matches_uninterrupted_sharded_run() {
    let uninterrupted = run_one(job(Architecture::Wcpcm, RECORDS), &sharded(1)).0;

    let base = scratch("resume-sharded.womsnap");
    for i in 0..SHARDS {
        // Clear the derived per-shard paths too.
        let _ = std::fs::remove_file(
            SnapshotSpec {
                every: None,
                path: base.display().to_string(),
            }
            .for_shard(i)
            .path,
        );
    }
    let snap = SnapshotSpec {
        every: Some(500),
        path: base.display().to_string(),
    };
    let opts = RunOptions {
        snapshot: Some(snap),
        ..sharded(SHARDS as usize)
    };
    let _ = run_one(job(Architecture::Wcpcm, RECORDS / 2), &opts);
    let resumed = run_one(job(Architecture::Wcpcm, RECORDS), &opts).0;
    assert_eq!(
        format!("{uninterrupted:#?}"),
        format!("{resumed:#?}"),
        "resumed sharded run diverged from the uninterrupted sharded run"
    );
}
