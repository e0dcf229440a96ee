//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each figure has a binary (`fig5`, `fig6`, `fig7`, `table1`, `bounds`)
//! that prints the same rows/series the paper reports, plus timing
//! benches over the same code paths. The functions here are the shared
//! machinery: build the paper's sweeps as [`Job`]s, execute them with
//! [`run`] (the one runner; see [`RunOptions`]), fold the metrics into
//! figure rows, and format results. Every job is an independent
//! deterministic simulation, so sweeps parallelize perfectly and results
//! are identical at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pcm_trace::stream::{TraceProfile, TraceSpec};
use pcm_trace::synth::benchmarks;
use wom_pcm::{Architecture, EpochSeries, RunMetrics, SystemBuilder, WomPcmError};

pub mod cli;
mod runner;

pub use runner::{run, Job, RunOptions};

/// Default records per run for figure regeneration. Large enough for
/// steady-state behaviour, small enough that all 80 Fig. 5 cells run in
/// minutes.
pub const DEFAULT_RECORDS: usize = 120_000;

/// Default RNG seed, so published numbers are reproducible.
pub const DEFAULT_SEED: u64 = 2014; // the paper's year

/// Scaled-down rows per bank for experiment runs. The address space
/// behaves identically (traces wrap inside their working sets); fewer
/// rows only bound the simulator's lazily-allocated state.
pub const EXPERIMENT_ROWS_PER_BANK: u32 = 4096;

/// The experiment-cell configuration as a [`SystemBuilder`]: the paper's
/// defaults at `banks_per_rank`. The Figs. 6-7 sweep reorganizes a
/// fixed-capacity device: fewer banks per rank means proportionally more
/// rows per bank (and a larger WOM-cache array, which has "the same
/// number of rows ... as a conventional PCM array in a bank").
#[must_use]
pub fn cell_builder(arch: Architecture, banks_per_rank: u32) -> SystemBuilder {
    SystemBuilder::new(arch)
        .banks_per_rank(banks_per_rank)
        .rows_per_bank(EXPERIMENT_ROWS_PER_BANK * 32 / banks_per_rank)
}

/// One experiment cell as a [`Job`]: [`cell_builder`]'s configuration
/// over `records` records of `profile` (streamed from its lazy
/// generator, never materialized), labelled with the profile's name.
#[must_use]
pub fn cell_job(
    arch: Architecture,
    profile: impl Into<TraceProfile>,
    records: usize,
    seed: u64,
    banks_per_rank: u32,
) -> Job {
    let profile = profile.into();
    Job {
        config: cell_builder(arch, banks_per_rank).into_config(),
        label: profile.name().to_string(),
        trace: TraceSpec::synth(profile, seed, records as u64),
    }
}

/// Work distribution for experiment sweeps: a dependency-free parallel
/// map over scoped threads ([`std::thread::scope`]).
pub mod parallel {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// The default worker count: the machine's available parallelism
    /// (1 when it cannot be determined).
    #[must_use]
    pub fn default_threads() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Applies `f` to every item on up to `threads` worker threads and
    /// returns the results in input order.
    ///
    /// Scheduling order is nondeterministic, but each item's result
    /// depends only on that item, so the output is identical to the
    /// serial `items.iter().map(f)` at any thread count. `threads` is
    /// clamped to `[1, items.len()]`; with one thread (or one item) no
    /// threads are spawned at all.
    pub fn map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let threads = threads.clamp(1, items.len().max(1));
        if threads <= 1 {
            return items.iter().map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<R>>> = Mutex::new(items.iter().map(|_| None).collect());
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let r = f(item);
                    slots.lock().expect("no worker panicked")[i] = Some(r);
                });
            }
        });
        slots
            .into_inner()
            .expect("no worker panicked")
            .into_iter()
            .map(|r| r.expect("every index was computed"))
            .collect()
    }
}

/// Writes the epoch series of observed runs to `path` as one JSON-Lines
/// file (see [`wom_pcm::observe::write_jsonl`]). Each line carries its
/// job's tags: `arch` and `banks_per_rank` from the job's configuration,
/// and the job's label as `workload`.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file, and returns
/// [`std::io::ErrorKind::InvalidInput`] for a run that recorded no
/// epoch series (run without [`RunOptions::epoch_cycles`]).
pub fn write_observed_jsonl(
    path: &str,
    jobs: &[Job],
    runs: &[(RunMetrics, Option<EpochSeries>)],
) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (job, (_, series)) in jobs.iter().zip(runs) {
        let series = series.as_ref().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("job '{}' recorded no epoch series", job.label),
            )
        })?;
        let banks = job.config.mem().geometry.banks_per_rank.to_string();
        let tags = [
            ("arch", job.config.arch().label()),
            ("workload", job.label.as_str()),
            ("banks_per_rank", banks.as_str()),
        ];
        wom_pcm::observe::write_jsonl(&mut w, series, &tags)?;
    }
    w.flush()
}

/// One benchmark's row of Fig. 5: normalized write and read latency for
/// each of the paper's four architectures (baseline first, always 1.0).
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Workload name.
    pub benchmark: String,
    /// Normalized mean write latency per architecture, Fig. 5 legend
    /// order.
    pub write: [f64; 4],
    /// Normalized mean read latency per architecture.
    pub read: [f64; 4],
}

/// The 80 (workload × architecture) cells of Fig. 5, in row order: the
/// paper's 20 workloads, each under its four architectures.
#[must_use]
pub fn fig5_jobs(records: usize, seed: u64) -> Vec<Job> {
    benchmarks::all()
        .into_iter()
        .flat_map(|profile| {
            Architecture::all_paper().map(|arch| cell_job(arch, profile.clone(), records, seed, 32))
        })
        .collect()
}

/// Folds [`fig5_jobs`]-ordered metrics into normalized Fig. 5 rows.
///
/// # Errors
///
/// Returns [`WomPcmError::Internal`] when a run recorded no reads or no
/// writes, so there is no latency to normalize.
pub fn fig5_rows(metrics: &[RunMetrics]) -> Result<Vec<Fig5Row>, WomPcmError> {
    let missing = |benchmark: &str, ops: &str| {
        WomPcmError::Internal(format!("{benchmark}: a run recorded no {ops}"))
    };
    benchmarks::all()
        .into_iter()
        .zip(metrics.chunks_exact(4))
        .map(|(profile, cells)| {
            let mut write = [1.0; 4];
            let mut read = [1.0; 4];
            if let Some((base, others)) = cells.split_first() {
                let columns = write.iter_mut().zip(read.iter_mut()).skip(1);
                for ((w, r), m) in columns.zip(others) {
                    *w = m
                        .normalized_write_latency(base)
                        .ok_or_else(|| missing(&profile.name, "writes"))?;
                    *r = m
                        .normalized_read_latency(base)
                        .ok_or_else(|| missing(&profile.name, "reads"))?;
                }
            }
            Ok(Fig5Row {
                benchmark: profile.name,
                write,
                read,
            })
        })
        .collect()
}

/// The paper's "on average across the benchmarks": arithmetic mean of
/// per-benchmark normalized values for one architecture column.
#[must_use]
pub fn average(rows: &[Fig5Row], arch_index: usize, writes: bool) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let sum: f64 = rows
        .iter()
        .map(|r| {
            if writes {
                r.write[arch_index]
            } else {
                r.read[arch_index]
            }
        })
        .sum();
    sum / rows.len() as f64
}

/// One point of Figs. 6–7: WCPCM at a given banks/rank.
#[derive(Debug, Clone)]
pub struct BankSweepPoint {
    /// Banks per rank (4, 8, 16, or 32 in the paper).
    pub banks_per_rank: u32,
    /// WOM-cache demand hit rate (Fig. 6).
    pub hit_rate: f64,
    /// WOM-cache write hit rate.
    pub write_hit_rate: f64,
    /// Mean demand write latency in ns (normalized externally for Fig. 7).
    pub mean_write_ns: f64,
}

/// One `(workload name, points)` pair per bundled workload, in catalog
/// order — the shape [`bank_sweep_fold`] returns.
pub type BankSweep = Vec<(String, Vec<BankSweepPoint>)>;

/// The Figs. 6–7 bank counts, in sweep order.
const SWEEP_BANKS: [u32; 4] = [4, 8, 16, 32];

/// The 80 (workload × banks/rank) WCPCM cells of Figs. 6–7, in catalog
/// order with the bank counts 4, 8, 16 and 32 inside each workload.
#[must_use]
pub fn bank_sweep_jobs(records: usize, seed: u64) -> Vec<Job> {
    benchmarks::all()
        .into_iter()
        .flat_map(|profile| {
            SWEEP_BANKS
                .map(|banks| cell_job(Architecture::Wcpcm, profile.clone(), records, seed, banks))
        })
        .collect()
}

/// Folds [`bank_sweep_jobs`]-ordered metrics into per-workload points.
///
/// # Errors
///
/// Returns [`WomPcmError::Internal`] when a run reports no WOM-cache
/// statistics (every sweep job runs WCPCM, which always does).
pub fn bank_sweep_fold(metrics: &[RunMetrics]) -> Result<BankSweep, WomPcmError> {
    benchmarks::all()
        .into_iter()
        .zip(metrics.chunks_exact(4))
        .map(|(profile, cells)| {
            let points = SWEEP_BANKS
                .iter()
                .zip(cells)
                .map(|(&banks, m)| {
                    let cache = m.cache.ok_or_else(|| {
                        WomPcmError::Internal(format!(
                            "{}: a WCPCM run reported no cache statistics",
                            profile.name
                        ))
                    })?;
                    Ok(BankSweepPoint {
                        banks_per_rank: banks,
                        hit_rate: cache.hit_rate(),
                        write_hit_rate: cache.write_hit_rate(),
                        mean_write_ns: m.mean_write_ns(),
                    })
                })
                .collect::<Result<_, WomPcmError>>()?;
            Ok((profile.name, points))
        })
        .collect()
}

/// Formats a ratio as the paper's percentages ("reduced by 20.1%").
#[must_use]
pub fn reduction_pct(normalized: f64) -> f64 {
    (1.0 - normalized) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(runs: Vec<(RunMetrics, Option<EpochSeries>)>) -> Vec<RunMetrics> {
        runs.into_iter().map(|(m, _)| m).collect()
    }

    fn threads(threads: usize) -> RunOptions {
        RunOptions {
            threads,
            ..RunOptions::default()
        }
    }

    #[test]
    fn cell_job_produces_metrics() {
        let profile = benchmarks::by_name("stringsearch").unwrap();
        let job = cell_job(Architecture::Baseline, profile, 2_000, 1, 32);
        assert_eq!(job.label, "stringsearch");
        let m = metrics(run(&[job], &RunOptions::default()).unwrap());
        assert!(m[0].writes.count > 0);
        assert!(m[0].reads.count > 0);
    }

    #[test]
    fn averages_and_reductions() {
        let rows = vec![
            Fig5Row {
                benchmark: "a".into(),
                write: [1.0, 0.8, 0.4, 0.5],
                read: [1.0, 0.9, 0.5, 0.6],
            },
            Fig5Row {
                benchmark: "b".into(),
                write: [1.0, 0.6, 0.6, 0.5],
                read: [1.0, 0.9, 0.5, 0.6],
            },
        ];
        assert!((average(&rows, 1, true) - 0.7).abs() < 1e-12);
        assert!((average(&rows, 2, false) - 0.5).abs() < 1e-12);
        assert!((reduction_pct(0.799) - 20.1).abs() < 0.11);
        assert_eq!(average(&[], 0, true), 0.0);
    }

    #[test]
    fn bank_sweep_runs_all_four_points() {
        let jobs = bank_sweep_jobs(2_000, 1);
        assert_eq!(jobs.len(), 80);
        let sweep = bank_sweep_fold(&metrics(run(&jobs[..4], &threads(2)).unwrap())).unwrap();
        assert_eq!(sweep.len(), 1);
        let points = &sweep[0].1;
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].banks_per_rank, 4);
        assert_eq!(points[3].banks_per_rank, 32);
    }

    #[test]
    fn folds_return_typed_errors_for_empty_runs() {
        let empty = vec![RunMetrics::default(); 4];
        assert!(matches!(fig5_rows(&empty), Err(WomPcmError::Internal(_))));
        assert!(matches!(
            bank_sweep_fold(&empty),
            Err(WomPcmError::Internal(_))
        ));
    }

    #[test]
    fn parallel_map_preserves_order_and_covers_all_items() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 3, 8, 200] {
            let out = parallel::map(&items, threads, |&x| x * x);
            assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        }
        assert!(parallel::map(&Vec::<u64>::new(), 4, |&x| x).is_empty());
    }

    /// The acceptance bar for the sweep runner: a multi-threaded sweep is
    /// bit-identical to the serial one (each job is an independent
    /// deterministic simulation; threading only changes scheduling).
    #[test]
    fn parallel_cells_match_serial_exactly() {
        let jobs: Vec<Job> = ["qsort", "mad", "typeset"]
            .iter()
            .flat_map(|name| {
                let profile = benchmarks::by_name(name).unwrap();
                Architecture::all_paper().map(|arch| cell_job(arch, profile.clone(), 2_000, 7, 32))
            })
            .collect();
        let serial = metrics(run(&jobs, &threads(1)).unwrap());
        let parallel = metrics(run(&jobs, &threads(4)).unwrap());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(format!("{s:#?}"), format!("{p:#?}"));
        }
    }
}

/// Plain-`std` micro-benchmark timing for the `benches/` targets: warm
/// up, calibrate an iteration count, measure, and print one line per
/// case. Keeps the workspace free of a benchmark-harness dependency.
// Wall-clock time is what a micro-benchmark measures; the determinism
// ban on `Instant::now` targets simulation code, not the harness.
#[allow(clippy::disallowed_methods)]
pub mod timing {
    use std::time::{Duration, Instant};

    /// Target measurement window per case.
    const MEASURE: Duration = Duration::from_millis(200);
    /// Calibration window used to pick the iteration count.
    const CALIBRATE: Duration = Duration::from_millis(30);

    /// Times `f` after a calibration warm-up and prints mean ns/iter.
    /// Returns the mean so callers can derive throughput lines.
    pub fn bench<R>(label: &str, mut f: impl FnMut() -> R) -> f64 {
        let t0 = Instant::now();
        let mut calib_iters: u64 = 0;
        while t0.elapsed() < CALIBRATE {
            std::hint::black_box(f());
            calib_iters += 1;
        }
        let per_iter = t0.elapsed().as_nanos() / u128::from(calib_iters.max(1));
        let iters = (MEASURE.as_nanos() / per_iter.max(1)).clamp(1, 10_000_000) as u64;
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let ns = start.elapsed().as_nanos() as f64 / iters as f64;
        println!("{label:<48} {ns:>14.1} ns/iter  ({iters} iters)");
        ns
    }

    /// Times `f` and reports element throughput for `elems` items/call.
    pub fn bench_throughput<R>(label: &str, elems: u64, f: impl FnMut() -> R) {
        let ns = bench(label, f);
        let rate = elems as f64 / (ns * 1e-9);
        println!("{label:<48} {:>14.0} elems/s", rate);
    }
}

/// Minimal JSON emission for figure results — enough structure for
/// plotting scripts without pulling a serialization dependency into the
/// workspace.
pub mod json {
    use super::{BankSweepPoint, Fig5Row};

    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }

    /// Formats Fig. 5 rows as a JSON array of objects.
    #[must_use]
    pub fn fig5(rows: &[Fig5Row]) -> String {
        let body: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"benchmark\":\"{}\",\"write\":[{},{},{},{}],\"read\":[{},{},{},{}]}}",
                    esc(&r.benchmark),
                    r.write[0],
                    r.write[1],
                    r.write[2],
                    r.write[3],
                    r.read[0],
                    r.read[1],
                    r.read[2],
                    r.read[3],
                )
            })
            .collect();
        format!("[{}]", body.join(","))
    }

    /// Formats one workload's bank sweep as a JSON array of objects.
    #[must_use]
    pub fn bank_sweep(benchmark: &str, points: &[BankSweepPoint]) -> String {
        let body: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    "{{\"banks_per_rank\":{},\"hit_rate\":{},\"write_hit_rate\":{},\"mean_write_ns\":{}}}",
                    p.banks_per_rank, p.hit_rate, p.write_hit_rate, p.mean_write_ns
                )
            })
            .collect();
        format!(
            "{{\"benchmark\":\"{}\",\"points\":[{}]}}",
            esc(benchmark),
            body.join(",")
        )
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fig5_json_shape() {
            let rows = vec![Fig5Row {
                benchmark: "a\"b".into(),
                write: [1.0, 0.8, 0.5, 0.6],
                read: [1.0, 0.9, 0.8, 0.8],
            }];
            let j = fig5(&rows);
            assert!(j.starts_with('[') && j.ends_with(']'));
            assert!(j.contains("\\\"b"), "quotes must be escaped: {j}");
            assert!(j.contains("\"write\":[1,0.8,0.5,0.6]"));
        }

        #[test]
        fn sweep_json_shape() {
            let points = vec![BankSweepPoint {
                banks_per_rank: 4,
                hit_rate: 0.5,
                write_hit_rate: 0.75,
                mean_write_ns: 100.0,
            }];
            let j = bank_sweep("qsort", &points);
            assert!(j.contains("\"banks_per_rank\":4"));
            assert!(j.contains("\"benchmark\":\"qsort\""));
        }
    }
}
