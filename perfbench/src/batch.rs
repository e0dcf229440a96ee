//! The batch workloads: each timed pass streams every (trace,
//! architecture) run of the workload through a fresh `Session`, closed
//! loop, one process thread.

use std::path::PathBuf;

use wom_pcm::Architecture;

use crate::layers;
use crate::passes::{self, now, run_pass, Pass, Run, Tracer};
use crate::report::{describe_latency, fastest, median, nearest_rank, Outcome};
use crate::Ctx;

/// Records per trace-stream chunk, i.e. per `Session::feed` call: one
/// batch. Small enough that every run yields hundreds of batches for
/// the latency percentiles, large enough that the per-call clock reads
/// are noise.
const CHUNK: usize = 512;

const PAPER: &[Architecture] = &[
    Architecture::Baseline,
    Architecture::WomCode,
    Architecture::WomCodeRefresh,
    Architecture::Wcpcm,
];

/// One batch workload: traces × architectures at a fixed length.
#[derive(Debug)]
pub struct Batch {
    /// Trace profiles and the architectures each runs on.
    pub traces: &'static [(&'static str, &'static [Architecture])],
    /// Records per trace (full size; `--smoke` runs 1%).
    pub records: u64,
    /// Whether sessions run the functional data checker (WOM codec).
    pub verify: bool,
}

/// The Fig. 5 grid in small: engine, policies and pcm-sim at moderate
/// queue occupancy; no codec work, no snapshots.
pub const PAPER_MIX: Batch = Batch {
    traces: &[
        ("qsort", PAPER),
        ("470.lbm", PAPER),
        ("462.libq", PAPER),
        ("ocean", PAPER),
    ],
    records: 100_000,
    verify: false,
};

/// Every write WOM-encodes a 64-byte line and every read decodes one:
/// the codec and the line-keyed row stores dominate host time.
pub const VERIFIED_KV: Batch = Batch {
    traces: &[(
        "kv_zipf",
        &[
            Architecture::WomCode,
            Architecture::WomCodeRefresh,
            Architecture::Wcpcm,
        ],
    )],
    records: 250_000,
    verify: true,
};

/// Bursty interleaved arrivals keep the controller queues full: the
/// pcm-sim scheduler and event queue dominate host time.
pub const DC_SATURATED: Batch = Batch {
    traces: &[
        (
            "multi_tenant",
            &[Architecture::WomCode, Architecture::Wcpcm],
        ),
        ("gc_sweep", &[Architecture::WomCode]),
    ],
    records: 100_000,
    verify: false,
};

struct Setup {
    runs: Vec<Run>,
    generate_s: f64,
    total_s: f64,
}

/// Generates every trace into a WOMTRC file and builds the run list.
fn setup(ctx: &Ctx, w: &Batch) -> Result<Setup, String> {
    let records = ctx.scale(w.records);
    let t0 = now();
    let mut files = Vec::new();
    for (j, &(profile, _)) in w.traces.iter().enumerate() {
        let path: PathBuf = ctx.dir.join(format!("{j}-{profile}.womtrc"));
        passes::write_trace(profile, ctx.seed.wrapping_add(j as u64), records, &path)?;
        files.push(path);
    }
    let generate_s = t0.elapsed().as_secs_f64();
    let mut runs = Vec::new();
    for (&(profile, archs), path) in w.traces.iter().zip(&files) {
        passes::open_trace(path, CHUNK)?;
        for &arch in archs {
            let config = passes::config(arch, w.verify);
            config.validate().map_err(|e| e.to_string())?;
            runs.push(Run {
                trace: profile.to_string(),
                path: path.clone(),
                arch,
                spec: config.into(),
                chunk: CHUNK,
                tags: Vec::new(),
                records,
            });
        }
    }
    Ok(Setup {
        runs,
        generate_s,
        total_s: t0.elapsed().as_secs_f64(),
    })
}

/// Runs one batch workload: a set-up then a timed pass, repeated for
/// `ctx.seconds`; output checks; and with tracing the per-layer runs.
/// Every pass runs the same steps (each run's batches and its open and
/// finish), so each step is timed at its fastest over the passes: the
/// host's bursts of interference last from milliseconds to seconds and
/// seldom hit one step in every pass.
pub fn run(ctx: &Ctx, w: &Batch, outcome: &mut Outcome, tracer: &mut Tracer) -> Result<(), String> {
    let (mut setups, mut generates) = (Vec::new(), Vec::new());
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut runs: Vec<Run>;
    let start = now();
    loop {
        let s = setup(ctx, w)?;
        setups.push(s.total_s);
        generates.push(s.generate_s);
        runs = s.runs;
        untraced.push(run_pass(&runs, None));
        if ctx.traced {
            traced.push(run_pass(&runs, Some(tracer)));
        }
        if ctx.smoke || start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    outcome.set("setup_s", median(&setups));
    outcome.set("trace.generate_s", median(&generates));
    for (i, p) in untraced.iter().enumerate() {
        println!(
            "pass {}: {} records in {:.4} s = {:.0} records/s; set-up {:.4} s",
            i + 1,
            p.records,
            p.wall_s,
            p.records_per_s(),
            setups[i],
        );
    }
    let reference = crate::check_passes(ctx, &runs, untraced.iter().chain(&traced), outcome);

    let mut batches: Vec<f64> = fastest(untraced.iter().map(|p| p.chunk_s.as_slice()));
    let fixed = fastest(untraced.iter().map(|p| p.fixed_s.as_slice()));
    let pass_s = batches.iter().chain(&fixed).sum::<f64>();
    let records = untraced.first().map_or(0, |p| p.records);
    outcome.set("records_per_s", records as f64 / pass_s);
    batches.iter_mut().for_each(|s| *s *= 1e3);
    batches.sort_by(f64::total_cmp);
    outcome.set(
        "batch_latency_p50_ms",
        nearest_rank(&batches, 0.5).unwrap_or(0.0),
    );
    outcome.set(
        "batch_latency_p99_ms",
        nearest_rank(&batches, 0.99).unwrap_or(0.0),
    );
    let rates: Vec<f64> = untraced.iter().map(Pass::records_per_s).collect();
    println!(
        "{} runs of {} records, {} passes (median pass {:.0} records/s); every step at its \
         fastest over the passes: {pass_s:.4} s per pass; {}",
        runs.len(),
        runs.first().map_or(0, |r| r.records),
        untraced.len(),
        median(&rates),
        describe_latency(
            &format!("batch latency ({CHUNK}-record chunk read + fed)"),
            &batches
        )
    );

    if ctx.traced {
        layers::session_metrics(tracer, &traced, &untraced, outcome);
        layers::deep_metrics(&runs, &reference, w.verify, outcome);
        if let Some(first) = untraced.first() {
            layers::sim_metrics(
                first.results.iter().filter_map(|r| r.metrics.as_ref().ok()),
                outcome,
            );
        }
        crate::churn::no_service(outcome);
    }
    Ok(())
}
