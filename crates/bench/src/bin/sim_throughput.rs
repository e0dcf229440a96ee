//! End-to-end simulator throughput: trace records per second through
//! each architecture, plus the data-verified WOM-code mode where every
//! record exercises the real row codec.
//!
//! With `--json PATH` the results are also written as a machine-readable
//! file — `BENCH_throughput.json` at the repo root is the committed
//! baseline; see EXPERIMENTS.md for how to regenerate it and
//! `scripts/bench_compare.sh` for diffing two baselines.
//!
//! With `--observe PATH [--epoch-cycles N]` an extra *untimed* observed
//! pass per architecture writes its epoch series as JSON-Lines — the CI
//! bench-smoke job diffs this against the committed fixture
//! (`crates/bench/fixtures/sim_throughput_observed.jsonl`). The timed
//! runs themselves always use the disabled (no-op) observer.

use pcm_trace::stream::TraceSpec;
use pcm_trace::synth::benchmarks;
use std::fmt::Write as _;
use std::time::Instant;
use wom_pcm::{Architecture, Session, SystemBuilder, SystemConfig};
use wom_pcm_bench::{cell_job, cli, run, write_observed_jsonl, Job, RunOptions};

const USAGE: &str = "sim_throughput [--records N] [--shards N] [--json PATH] \
                     [--observe PATH [--epoch-cycles N]]";

/// Measurement repetitions per case; the best (fastest) run is reported,
/// minimizing scheduler noise — every run simulates identically.
const REPS: usize = 3;

struct Outcome {
    name: String,
    records: usize,
    records_per_sec: f64,
    ns_per_record: f64,
}

fn build_config(arch: Architecture, verify_data: bool) -> SystemConfig {
    SystemBuilder::new(arch)
        .rows_per_bank(wom_pcm_bench::EXPERIMENT_ROWS_PER_BANK)
        .verify_data(verify_data)
        .into_config()
}

fn run_case(
    name: &str,
    cfg: &SystemConfig,
    spec: &TraceSpec,
    records: usize,
    shards: u32,
) -> Outcome {
    // One streaming source per rep, opened before its timer starts: the
    // timed loop measures the simulator fed at O(chunk) trace-side
    // memory, the same shape every production run now uses. Sharded reps
    // open their per-shard sources inside `run` instead.
    let sharded = [Job {
        config: cfg.clone(),
        trace: spec.clone(),
        label: name.to_string(),
    }];
    let opts = RunOptions {
        shards,
        threads: wom_pcm_bench::parallel::default_threads(),
        ..RunOptions::default()
    };
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let mut source = spec.open().expect("benchmark trace sources open");
        // Wall-clock is the quantity measured here; the `Instant::now`
        // ban targets simulation code, not the benchmark harness.
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();
        if shards > 1 {
            run(&sharded, &opts).expect("benchmark traces run clean");
        } else {
            let mut session = Session::open(cfg.clone()).expect("benchmark configs validate");
            session
                .feed_source(&mut source)
                .expect("benchmark traces run clean");
            session.finish().expect("benchmark traces finish clean");
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    let records_per_sec = records as f64 / best;
    println!(
        "{name:<28} {records_per_sec:>14.0} records/s  ({:.3} s best of {REPS})",
        best
    );
    Outcome {
        name: name.to_string(),
        records,
        records_per_sec,
        ns_per_record: best * 1e9 / records as f64,
    }
}

fn to_json(outcomes: &[Outcome], workload: &str, seed: u64) -> String {
    let mut body = String::new();
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        write!(
            body,
            "\n  {{\"case\":\"{}\",\"records\":{},\"records_per_sec\":{:.0},\
             \"ns_per_record\":{:.1}}}",
            o.name, o.records, o.records_per_sec, o.ns_per_record,
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"bench\":\"sim_throughput\",\"workload\":\"{workload}\",\"seed\":{seed},\
         \"cases\":[{body}\n]}}\n"
    )
}

fn main() {
    let mut cli = cli::Parser::from_env(USAGE);
    let records: usize = cli.parsed("--records").unwrap_or(200_000);
    let shards = cli.shards();
    let json_path = cli.value("--json");
    let observe = cli.observe();
    cli.finish();

    let workload = "qsort";
    let seed = wom_pcm_bench::DEFAULT_SEED;
    let profile = benchmarks::by_name(workload).expect("bundled workload");
    let spec = TraceSpec::synth(profile.clone(), seed, records as u64);
    let sharded_note = if shards > 1 {
        format!(" ({shards}-way rank-sharded)")
    } else {
        String::new()
    };
    println!(
        "simulator throughput: {records} '{workload}' records per run, best of {REPS}\
         {sharded_note}\n"
    );

    let mut outcomes = Vec::new();
    for arch in Architecture::all_paper() {
        let cfg = build_config(arch, false);
        outcomes.push(run_case(arch.label(), &cfg, &spec, records, shards));
    }
    // Data-verified mode: every write WOM-encodes a real 64-byte line and
    // every read decodes and checks it — the row codec is the hot path.
    // Surface a silent reference-path fallback before timing it (the same
    // line codec the functional checker builds internally).
    let codec =
        wom_code::BlockCodec::new(wom_code::Inverted::new(wom_code::Rs23Code::new()), 64 * 8)
            .expect("the 64-byte line codec tiles");
    if !codec.is_accelerated() {
        eprintln!(
            "debug: womcode_pcm_verified: codec is NOT accelerated (table too large); \
             the verified path takes the per-symbol reference path"
        );
    }
    let cfg = build_config(Architecture::WomCode, true);
    outcomes.push(run_case(
        "womcode_pcm_verified",
        &cfg,
        &spec,
        records,
        shards,
    ));

    if let Some(path) = json_path {
        std::fs::write(&path, to_json(&outcomes, workload, seed)).expect("writing the JSON report");
        println!("\nwrote {path}");
    }

    // Observed passes are untimed and separate from the throughput runs
    // above, whose observer stays the zero-overhead disabled sink.
    if let Some(obs) = observe {
        let jobs = Architecture::all_paper()
            .map(|arch| cell_job(arch, profile.clone(), records, seed, 32));
        let opts = RunOptions {
            epoch_cycles: Some(obs.epoch_cycles),
            ..RunOptions::default()
        };
        let runs = run(&jobs, &opts).expect("observed passes run");
        write_observed_jsonl(&obs.path, &jobs, &runs).expect("writing the epoch JSONL");
        println!(
            "\nwrote epoch series for {} architectures to {}",
            runs.len(),
            obs.path
        );
    }
}
