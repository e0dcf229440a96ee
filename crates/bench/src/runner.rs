//! The experiment runner: [`run`] executes a batch of [`Job`]s under
//! one [`RunOptions`].
//!
//! Every figure, extension binary and `womsim` goes through [`run`],
//! which covers the `--threads`, `--shards`, `--snapshot-every`,
//! `--resume` and `--observe` flags. Each job runs either whole or as an
//! N-way rank-sharded decomposition ([`wom_pcm::ShardPlan`]),
//! periodically writing `WOMSNAP` snapshot containers and resuming from
//! one when present. Jobs and shards are dispatched on
//! [`crate::parallel::map`], and merged metrics are reduced in fixed
//! shard order — so results are `{:#?}`-byte identical at any thread
//! count (pinned by the `shard_determinism` test; see `DESIGN.md` §12).
//!
//! Resume semantics: a snapshot file records how many trace records the
//! interrupted run had consumed; the runner restores the session,
//! re-opens the trace, skips exactly that many records (chunk by chunk,
//! submitting only the tail of the boundary chunk), and continues — the
//! finished metrics are byte-identical to the uninterrupted run. A
//! missing snapshot file simply starts from the beginning, so the same
//! command line works for the first run and every restart.

use crate::cli::SnapshotSpec;
use crate::parallel;
use pcm_sim::Cycle;
use pcm_trace::stream::{TraceSource, TraceSpec};
use wom_pcm::{
    EpochSeries, RunMetrics, Session, SessionSpec, ShardPlan, ShardSource, SnapshotError,
    SystemConfig, WomPcmError,
};

/// One simulation: a system configuration over a trace.
#[derive(Debug, Clone)]
pub struct Job {
    /// The simulated system.
    pub config: SystemConfig,
    /// The trace; every run opens its own source from it.
    pub trace: TraceSpec,
    /// The job's name: the `workload` tag of its exported epoch lines
    /// ([`crate::write_observed_jsonl`]) and the key of its snapshot path
    /// ([`SnapshotSpec::for_case`]; an empty label keeps the path as
    /// given).
    pub label: String,
}

/// How jobs are executed: worker threads, shard fan-out, snapshot
/// cadence, observation.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Rank shards to split each job into (`0`/`1` = unsharded). Must
    /// evenly divide the configured rank count.
    pub shards: u32,
    /// Worker threads for the job fan-out (or the shard fan-out).
    pub threads: usize,
    /// Snapshot cadence and path (`--snapshot-every` / `--resume`). Each
    /// job derives its path with [`SnapshotSpec::for_case`], and each
    /// shard of a sharded job with [`SnapshotSpec::for_shard`].
    pub snapshot: Option<SnapshotSpec>,
    /// Epoch width when the runs should record a time series.
    pub epoch_cycles: Option<Cycle>,
}

/// Runs `jobs` under `opts` and returns each job's final (merged)
/// metrics, plus its (merged) epoch series when `opts.epoch_cycles` is
/// set, in job order.
///
/// Without shards or snapshots the jobs fan out across `opts.threads`
/// workers. Sharded or resumable jobs run one after another, with the
/// shard fan-out inside each job.
///
/// # Errors
///
/// Propagates the first (by job order) [`WomPcmError`] of any job:
/// configuration validation, shard planning (a shard count that does
/// not divide the ranks), trace streaming, snapshot I/O, or the
/// simulation itself.
pub fn run(
    jobs: &[Job],
    opts: &RunOptions,
) -> Result<Vec<(RunMetrics, Option<EpochSeries>)>, WomPcmError> {
    if opts.shards <= 1 && opts.snapshot.is_none() {
        return parallel::map(jobs, opts.threads, |job| run_job(job, opts))
            .into_iter()
            .collect();
    }
    jobs.iter()
        .map(|job| {
            let job_opts = RunOptions {
                snapshot: opts.snapshot.as_ref().map(|s| s.for_case(&job.label)),
                ..opts.clone()
            };
            run_job(job, &job_opts)
        })
        .collect()
}

/// Runs one job whole or sharded, with `opts.snapshot` as its own path.
fn run_job(job: &Job, opts: &RunOptions) -> Result<(RunMetrics, Option<EpochSeries>), WomPcmError> {
    if opts.shards <= 1 {
        let mut cfg = job.config.clone();
        if let Some(width) = opts.epoch_cycles {
            cfg.set_epoch_cycles(Some(width));
        }
        let source = job.trace.open()?;
        return run_system(cfg, source, opts.snapshot.as_ref());
    }
    let plan = ShardPlan::new(&job.config, opts.shards)?;
    let indices: Vec<u32> = (0..opts.shards).collect();
    let results = parallel::map(&indices, opts.threads, |&index| {
        let mut cfg = plan.shard_config(index)?;
        if let Some(width) = opts.epoch_cycles {
            cfg.set_epoch_cycles(Some(width));
        }
        let source = ShardSource::new(job.trace.open()?, &plan, index)?;
        let snapshot = opts.snapshot.as_ref().map(|s| s.for_shard(index));
        run_system(cfg, source, snapshot.as_ref())
    });
    merge_shards(results)
}

/// Reduces per-shard results in fixed shard order; any shard's error
/// (first by shard index) wins.
fn merge_shards(
    results: Vec<Result<(RunMetrics, Option<EpochSeries>), WomPcmError>>,
) -> Result<(RunMetrics, Option<EpochSeries>), WomPcmError> {
    let mut merged: Option<(RunMetrics, Option<EpochSeries>)> = None;
    for result in results {
        let (metrics, series) = result?;
        match &mut merged {
            None => merged = Some((metrics, series)),
            Some((all_metrics, all_series)) => {
                all_metrics.merge(&metrics);
                match (all_series, series) {
                    (Some(all), Some(s)) => all.merge(&s)?,
                    (None, None) => {}
                    _ => {
                        return Err(WomPcmError::Internal(
                            "shards disagree on epoch observation".into(),
                        ))
                    }
                }
            }
        }
    }
    merged.ok_or_else(|| WomPcmError::Internal("no shards were run".into()))
}

/// Drives one session over one source with optional restore-and-snapshot,
/// returning the finished metrics (and epoch series when observed).
fn run_system<S: TraceSource>(
    config: SystemConfig,
    mut source: S,
    snapshot: Option<&SnapshotSpec>,
) -> Result<(RunMetrics, Option<EpochSeries>), WomPcmError> {
    let observed = config.epoch_cycles().is_some();
    let session_spec = SessionSpec::new(config);
    let mut session = match snapshot.map(|spec| std::fs::read(&spec.path)) {
        Some(Ok(bytes)) => Session::resume(session_spec, &bytes)?,
        Some(Err(e)) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(SnapshotError::from(e).into())
        }
        _ => Session::open(session_spec)?,
    };
    let mut skip = session.records_fed();
    let mut since_snapshot: u64 = 0;
    while let Some(chunk) = source.next_chunk()? {
        let len = chunk.len() as u64;
        if skip >= len {
            skip -= len;
            continue;
        }
        // Boundary chunk on resume: submit only the unconsumed tail.
        let tail = chunk.get(skip as usize..).unwrap_or_default();
        skip = 0;
        session.feed(tail)?;
        since_snapshot += tail.len() as u64;
        if let Some(spec) = snapshot {
            if let Some(every) = spec.every {
                if since_snapshot >= every {
                    let bytes = session.checkpoint()?;
                    std::fs::write(&spec.path, bytes).map_err(SnapshotError::from)?;
                    since_snapshot = 0;
                }
            }
        }
    }
    let metrics = session.finish()?;
    let series = if observed {
        session.into_epochs()
    } else {
        None
    };
    Ok((metrics, series))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_trace::synth::benchmarks;
    use wom_pcm::{Architecture, SystemBuilder};

    fn job() -> Job {
        let config = SystemBuilder::new(Architecture::WomCodeRefresh)
            .rows_per_bank(4096)
            .into_config();
        let profile = benchmarks::by_name("qsort").expect("bundled workload");
        Job {
            config,
            trace: TraceSpec::synth(profile, 7, 4_000),
            label: "qsort".into(),
        }
    }

    fn sharded(shards: u32) -> RunOptions {
        RunOptions {
            shards,
            threads: 1,
            ..RunOptions::default()
        }
    }

    #[test]
    fn unsharded_run_matches_plain_session() {
        let job = job();
        let mut source = job.trace.open().unwrap();
        let mut plain_session = Session::open(job.config.clone()).unwrap();
        plain_session.feed_source(&mut source).unwrap();
        let plain = plain_session.finish().unwrap();
        let (m, series) = run(&[job], &RunOptions::default()).unwrap().remove(0);
        assert!(series.is_none());
        assert_eq!(format!("{m:#?}"), format!("{plain:#?}"));
    }

    #[test]
    fn shard_count_must_divide_the_ranks() {
        let jobs = [job()];
        assert!(run(&jobs, &sharded(5)).is_err(), "16 % 5 != 0");
        assert!(run(&jobs, &sharded(8)).is_ok());
    }

    #[test]
    fn sharded_shards_account_for_every_record() {
        let jobs = [job()];
        let whole = run(&jobs, &RunOptions::default()).unwrap().remove(0).0;
        let sharded = run(&jobs, &sharded(8)).unwrap().remove(0).0;
        // Different decomposition, same demand stream: every submitted
        // access lands in exactly one shard.
        assert_eq!(
            sharded.reads.count + sharded.writes.count,
            whole.reads.count + whole.writes.count
        );
    }
}
