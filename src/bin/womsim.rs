//! `womsim` — command-line driver for the WOM-code PCM stack.
//!
//! ```console
//! $ womsim list                          # bundled workload profiles
//! $ womsim gen qsort 100000 7 > q.trace  # emit a DRAMSim2-format trace
//! $ womsim stats q.trace                 # trace characteristics
//! $ womsim convert q.trace q.womtrc      # text <-> binary container
//! $ womsim run wcpcm q.trace             # simulate a trace file
//! $ womsim run refresh qsort:50000       # or a bundled workload directly
//! $ womsim run wom kv_zipf:50000         # datacenter profiles work too
//! $ womsim compare qsort:50000           # all four architectures, one table
//! ```
//!
//! Traces are streamed everywhere: workload specs open lazy generators,
//! `.womtrc` files are read chunk by chunk, and `convert` never holds
//! more than one chunk — so record counts far beyond memory are fine.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::process::ExitCode;

use wom_pcm_bench::cli::{ObserveSpec, Parser, SnapshotSpec};
use wom_pcm_bench::{run, Job, RunOptions};
use womcode_pcm::arch::{Architecture, SystemBuilder};
use womcode_pcm::sim::MemOp;
use womcode_pcm::trace::binary::BinaryWriter;
use womcode_pcm::trace::format::{write_trace, TraceReader};
use womcode_pcm::trace::stream::{BinaryStreamSource, TraceProfile, TraceSource, TraceSpec};
use womcode_pcm::trace::synth::{benchmarks, datacenter};
use womcode_pcm::trace::{StatsAccumulator, TraceStats};

const USAGE: &str = "\n  womsim list\n  womsim gen <workload> <records> [seed] [--binary]\n  \
     womsim stats <trace-file | workload:records[:seed]>\n  \
     womsim convert <in> <out> [--stats]   (.womtrc = binary, else text)\n  \
     womsim run <baseline|wom|refresh|wcpcm> \
     <trace-file | workload:records[:seed]> [--verify] [--shards N] \
     [--resume PATH [--snapshot-every N]] \
     [--observe PATH [--epoch-cycles N]]\n  \
     womsim compare <trace-file | workload:records[:seed]> [--threads N]\n  \
     womsim serve [--listen ADDR] [--workers N] [--max-resident N] \
     [--max-sessions N] [--queue-batches N]\n  \
     womsim --help";

const HELP: &str = "womsim — command-line driver for the WOM-code PCM stack

subcommands:
  list       print the bundled workload profiles (paper suite + datacenter)
  gen        emit a trace to stdout: DRAMSim2 text, or a .womtrc binary
             container with --binary
  stats      trace characteristics (access mix, footprint, rewrite rate)
  convert    translate between text and binary trace containers; the
             output extension picks the format (--stats for a summary)
  run        simulate one architecture over a trace file or workload
             spec; --shards N for intra-run sharding, --resume for
             checkpointed runs, --observe for epoch JSONL export
  compare    run all four paper architectures and print one table
  serve      multi-tenant simulation service speaking the womd wire
             protocol (newline-JSON control frames + raw WOMTRC record
             payloads) on stdio, or on TCP with --listen ADDR; see
             DESIGN.md §13 for the frame format

workload specs are `name:records[:seed]`, e.g. `qsort:50000` — `womsim
list` prints the names. Trace files are picked by extension: .womtrc
(binary container), .lackey (Valgrind capture), anything else DRAMSim2
text.";

/// Row granularity for `stats` and `convert --stats` footprints.
const STATS_ROW_BYTES: u64 = 1024;

fn usage() -> ExitCode {
    eprintln!("usage:{USAGE}");
    ExitCode::from(2)
}

fn parse_arch(name: &str) -> Option<Architecture> {
    match name {
        "baseline" => Some(Architecture::Baseline),
        "wom" | "wom-code" => Some(Architecture::WomCode),
        "refresh" | "pcm-refresh" => Some(Architecture::WomCodeRefresh),
        "wcpcm" => Some(Architecture::Wcpcm),
        _ => None,
    }
}

/// Resolves a `workload:records[:seed]` spec or trace-file path to a
/// re-openable [`TraceSpec`]. Workload specs and `.womtrc` files stay
/// lazy; text formats have no record count up front and are materialized.
fn load_spec(spec: &str) -> Result<TraceSpec, String> {
    // `workload:records[:seed]` selects a bundled generator (paper suite
    // or datacenter)...
    if let Some((name, rest)) = spec.split_once(':') {
        if let Some(profile) = TraceProfile::by_name(name) {
            let mut parts = rest.split(':');
            let records: u64 = parts
                .next()
                .ok_or("missing record count")?
                .parse()
                .map_err(|e| format!("bad record count: {e}"))?;
            let seed: u64 = match parts.next() {
                Some(s) => s.parse().map_err(|e| format!("bad seed: {e}"))?,
                None => 2014,
            };
            return Ok(TraceSpec::synth(profile, seed, records));
        }
    }
    // ...anything else is a trace file path; the container is picked by
    // extension (.womtrc = binary, .lackey = Valgrind capture, else text).
    if spec.ends_with(".womtrc") {
        // Validate the header and footer now for an early error message;
        // the returned spec re-opens the file per run.
        BinaryStreamSource::open(spec).map_err(|e| format!("cannot open {spec}: {e}"))?;
        return Ok(TraceSpec::BinaryFile(spec.into()));
    }
    let file = File::open(spec).map_err(|e| format!("cannot open {spec}: {e}"))?;
    if spec.ends_with(".lackey") {
        // A Valgrind capture: `valgrind --tool=lackey --trace-mem=yes ...`.
        return womcode_pcm::trace::lackey::read_lackey(BufReader::new(file), 20)
            .map(TraceSpec::from)
            .map_err(|e| e.to_string());
    }
    TraceReader::new(BufReader::new(file))
        .collect::<Result<Vec<_>, _>>()
        .map(TraceSpec::from)
        .map_err(|e| e.to_string())
}

fn cmd_list() -> ExitCode {
    // Write through a fallible handle so `womsim list | head` exits
    // quietly on a closed pipe instead of panicking.
    let mut out = io::stdout().lock();
    let _ = writeln!(
        out,
        "{:16}{:>14}{:>8}{:>10}{:>10}",
        "workload", "suite", "reads%", "wss MiB", "gap cyc"
    );
    for p in benchmarks::all() {
        if writeln!(
            out,
            "{:16}{:>14}{:>8.0}{:>10}{:>10.0}",
            p.name,
            p.suite.to_string(),
            p.read_fraction * 100.0,
            p.working_set_bytes >> 20,
            p.mean_gap_cycles
        )
        .is_err()
        {
            break;
        }
    }
    for p in datacenter::all() {
        let shape = match &p.kind {
            datacenter::DcKind::ZipfKv(_) => "zipfian kv reads/writes",
            datacenter::DcKind::WalWriter(_) => "log append + commit metadata",
            datacenter::DcKind::GcSweep(_) => "gc scans + copy-forward",
            datacenter::DcKind::Diurnal(_) => "diurnal arrival rate",
            datacenter::DcKind::MixedTenant(_) => "interleaved tenants",
        };
        if writeln!(out, "{:16}{:>14}  {shape}", p.name(), "datacenter").is_err() {
            break;
        }
    }
    ExitCode::SUCCESS
}

fn cmd_gen(args: &[String], binary: bool) -> ExitCode {
    let (Some(name), Some(records)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let Some(profile) = TraceProfile::by_name(name) else {
        eprintln!("unknown workload {name:?}; try `womsim list`");
        return ExitCode::FAILURE;
    };
    let Ok(records) = records.parse::<u64>() else {
        eprintln!("bad record count {records:?}");
        return ExitCode::FAILURE;
    };
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2014);
    let mut source = match profile.source(seed, records) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot generate {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = io::stdout().lock();
    let result: Result<(), String> = if binary {
        stream_to_binary(&mut source, out, &mut None)
            .map(|_| ())
            .map_err(|e| e.to_string())
    } else {
        stream_to_text(&mut source, out, &mut None)
            .map(|_| ())
            .map_err(|e| e.to_string())
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("write failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Drains `source` into a v2 binary container, folding records into the
/// accumulator when present. Never holds more than one chunk.
fn stream_to_binary<S: TraceSource, W: Write>(
    source: &mut S,
    writer: W,
    acc: &mut Option<StatsAccumulator>,
) -> Result<u64, String> {
    let mut w = BinaryWriter::new(writer).map_err(|e| e.to_string())?;
    while let Some(chunk) = source.next_chunk().map_err(|e| e.to_string())? {
        for r in chunk {
            if let Some(a) = acc.as_mut() {
                a.record(r);
            }
            w.write(r).map_err(|e| e.to_string())?;
        }
    }
    w.finish().map_err(|e| e.to_string())
}

/// Drains `source` into DRAMSim2 text lines; the text sibling of
/// [`stream_to_binary`].
fn stream_to_text<S: TraceSource, W: Write>(
    source: &mut S,
    mut writer: W,
    acc: &mut Option<StatsAccumulator>,
) -> Result<u64, String> {
    let mut n = 0u64;
    while let Some(chunk) = source.next_chunk().map_err(|e| e.to_string())? {
        if let Some(a) = acc.as_mut() {
            for r in chunk {
                a.record(r);
            }
        }
        n += chunk.len() as u64;
        write_trace(&mut writer, chunk.iter().copied()).map_err(|e| e.to_string())?;
    }
    writer.flush().map_err(|e| e.to_string())?;
    Ok(n)
}

fn print_stats(out: &mut impl Write, stats: &TraceStats) {
    let _ = writeln!(out, "accesses      : {}", stats.accesses);
    let _ = writeln!(out, "reads / writes: {} / {}", stats.reads, stats.writes);
    let _ = writeln!(out, "read fraction : {:.1}%", stats.read_fraction() * 100.0);
    let _ = writeln!(out, "unique rows   : {}", stats.unique_rows);
    let _ = writeln!(out, "rewritten rows: {}", stats.rewritten_rows);
    let _ = writeln!(
        out,
        "rewrite frac  : {:.1}%",
        stats.rewrite_fraction() * 100.0
    );
    let _ = writeln!(
        out,
        "span (cycles) : {}..{}",
        stats.first_cycle, stats.last_cycle
    );
    let _ = writeln!(
        out,
        "intensity     : {:.4} accesses/cycle",
        stats.intensity()
    );
}

fn cmd_stats(args: &[String]) -> ExitCode {
    let Some(spec) = args.first() else {
        return usage();
    };
    let stats = match load_spec(spec).and_then(|spec| {
        let mut source = spec.open().map_err(|e| e.to_string())?;
        let mut acc = StatsAccumulator::new(STATS_ROW_BYTES);
        while let Some(chunk) = source.next_chunk().map_err(|e| e.to_string())? {
            for r in chunk {
                acc.record(r);
            }
        }
        Ok(acc.finish())
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    print_stats(&mut io::stdout().lock(), &stats);
    ExitCode::SUCCESS
}

/// `womsim convert <in> <out> [--stats]` — translates between the
/// DRAMSim2 text format and the binary container, both directions,
/// streaming record by record. The direction is picked by the *output*
/// extension (`.womtrc` = binary container, anything else = text); the
/// input is recognized the same way `stats`/`run` do it.
fn cmd_convert(args: &[String], want_stats: bool) -> ExitCode {
    let (Some(input), Some(output)) = (args.first(), args.get(1)) else {
        return usage();
    };
    match convert(input, output, want_stats) {
        Ok((n, stats)) => {
            eprintln!("converted {n} records: {input} -> {output}");
            if let Some(stats) = stats {
                print_stats(&mut io::stdout().lock(), &stats);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn convert(
    input: &str,
    output: &str,
    want_stats: bool,
) -> Result<(u64, Option<TraceStats>), String> {
    let mut acc = want_stats.then(|| StatsAccumulator::new(STATS_ROW_BYTES));
    // `.womtrc` inputs stream chunk by chunk; text inputs parse line by
    // line through `TraceSpec` (which materializes — text carries no
    // record count). Either way the writer side streams.
    let spec = load_spec(input)?;
    let mut source = spec
        .open()
        .map_err(|e| format!("cannot open {input}: {e}"))?;
    let out = File::create(output).map_err(|e| format!("cannot create {output}: {e}"))?;
    let n = if output.ends_with(".womtrc") {
        stream_to_binary(&mut source, BufWriter::new(out), &mut acc)
    } else {
        stream_to_text(&mut source, BufWriter::new(out), &mut acc)
    }
    .map_err(|e| format!("cannot write {output}: {e}"))?;
    Ok((n, acc.map(StatsAccumulator::finish)))
}

fn cmd_run(
    args: &[String],
    verify: bool,
    shards: u32,
    snapshot: Option<&SnapshotSpec>,
    observe: Option<&ObserveSpec>,
) -> ExitCode {
    let (Some(arch_name), Some(spec)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let Some(arch) = parse_arch(arch_name) else {
        eprintln!("unknown architecture {arch_name:?}; use baseline|wom|refresh|wcpcm");
        return ExitCode::FAILURE;
    };
    let trace_spec = match load_spec(spec) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Bound lazily-allocated simulator state for interactive use. The
    // empty label keeps the `--resume` path exactly as given.
    let job = Job {
        config: SystemBuilder::new(arch)
            .rows_per_bank(4096)
            .verify_data(verify)
            .into_config(),
        trace: trace_spec,
        label: String::new(),
    };
    let opts = RunOptions {
        shards,
        threads: wom_pcm_bench::parallel::default_threads(),
        snapshot: snapshot.cloned(),
        epoch_cycles: observe.map(|o| o.epoch_cycles),
    };
    let (metrics, series) = match run(&[job], &opts) {
        Ok(mut runs) => runs.remove(0),
        Err(e) => {
            eprintln!("simulation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(obs) = observe {
        match series {
            Some(series) => {
                let tags = [("arch", arch.label()), ("workload", spec.as_str())];
                let write = std::fs::File::create(&obs.path).and_then(|f| {
                    womcode_pcm::arch::observe::write_jsonl(
                        &mut io::BufWriter::new(f),
                        &series,
                        &tags,
                    )
                });
                match write {
                    Ok(()) => eprintln!(
                        "wrote {} epochs ({} cycles each) to {}",
                        series.len(),
                        series.epoch_cycles(),
                        obs.path
                    ),
                    Err(e) => {
                        eprintln!("cannot write {}: {e}", obs.path);
                        return ExitCode::FAILURE;
                    }
                }
            }
            None => {
                eprintln!("internal error: epoch observation recorded no series");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut out = io::stdout().lock();
    let _ = writeln!(out, "architecture : {}", arch.label());
    let _ = writeln!(out, "{metrics}");
    let _ = writeln!(
        out,
        "tail latency : read p95 {:.0} ns, write p95 {:.0} ns",
        metrics.percentile_ns(MemOp::Read, 0.95),
        metrics.percentile_ns(MemOp::Write, 0.95)
    );
    let _ = writeln!(
        out,
        "energy       : {:.1} uJ ({:.0} pJ/access)",
        metrics.energy.total_uj(),
        metrics.energy_per_access_pj()
    );
    let _ = writeln!(
        out,
        "wear (main)  : {} rows, max {} writes/row, cv {:.2}",
        metrics.wear_main.rows, metrics.wear_main.max, metrics.wear_main.cv
    );
    if verify {
        let _ = writeln!(
            out,
            "data check   : {} reads decoded correctly",
            metrics.data_reads_verified
        );
    }
    ExitCode::SUCCESS
}

fn cmd_compare(args: &[String], threads: usize) -> ExitCode {
    let Some(spec) = args.first() else {
        return usage();
    };
    let spec = match load_spec(spec) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // The four architectures are independent deterministic runs — dispatch
    // them to the bench crate's runner; every worker opens its own source
    // from the shared spec.
    let jobs = Architecture::all_paper().map(|arch| Job {
        config: SystemBuilder::new(arch).rows_per_bank(4096).into_config(),
        trace: spec.clone(),
        label: arch.slug().to_string(),
    });
    let opts = RunOptions {
        threads,
        ..RunOptions::default()
    };
    let runs = match run(&jobs, &opts) {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("simulation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut out = io::stdout().lock();
    let _ = writeln!(
        out,
        "{:22}{:>11}{:>11}{:>11}{:>11}{:>10}{:>12}",
        "architecture", "write ns", "read ns", "w p95 ns", "r p95 ns", "fast %", "energy uJ"
    );
    let mut base_write = 0.0;
    for (arch, (m, _)) in Architecture::all_paper().iter().zip(&runs) {
        if *arch == Architecture::Baseline {
            base_write = m.mean_write_ns();
        }
        let _ = writeln!(
            out,
            "{:22}{:>11.1}{:>11.1}{:>11.0}{:>11.0}{:>9.1}%{:>12.1}",
            arch.label(),
            m.mean_write_ns(),
            m.mean_read_ns(),
            m.percentile_ns(MemOp::Write, 0.95),
            m.percentile_ns(MemOp::Read, 0.95),
            m.fast_write_fraction() * 100.0,
            m.energy.total_uj(),
        );
    }
    let _ = writeln!(
        out,
        "(baseline mean write: {base_write:.1} ns; lower is better everywhere)"
    );
    ExitCode::SUCCESS
}

/// `womsim serve`: the womd service over stdio or TCP.
fn cmd_serve(listen: Option<String>, config: womd::ServiceConfig) -> ExitCode {
    match womd::wire::serve("womsim serve", config, listen.as_deref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("womsim serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut cli = Parser::from_env(USAGE);
    if cli.flag("--help") || cli.flag("-h") {
        // Fallible writes so `womsim --help | head` exits quietly on a
        // closed pipe (same contract as `womsim list`).
        let mut out = io::stdout().lock();
        let _ = writeln!(out, "{HELP}");
        let _ = writeln!(out, "\nusage:{USAGE}");
        return ExitCode::SUCCESS;
    }
    let threads = cli.threads();
    let shards = cli.shards();
    let snapshot = cli.snapshot();
    let observe = cli.observe();
    let binary = cli.flag("--binary");
    let verify = cli.flag("--verify");
    let stats = cli.flag("--stats");
    let listen = cli.value("--listen");
    let mut service_cfg = womd::ServiceConfig::default();
    let mut served = listen.is_some();
    let mut serve_opt =
        |name: &str, cli: &mut Parser, slot: &mut usize| match cli.parsed::<usize>(name) {
            Some(0) => {
                eprintln!("error: {name} wants a positive integer");
                Some(ExitCode::from(2))
            }
            Some(n) => {
                *slot = n;
                served = true;
                None
            }
            None => None,
        };
    let mut queue = service_cfg.queue_batches as usize;
    for (name, slot) in [
        ("--workers", &mut service_cfg.workers),
        ("--max-resident", &mut service_cfg.max_resident),
        ("--max-sessions", &mut service_cfg.max_sessions),
        ("--queue-batches", &mut queue),
    ] {
        if let Some(exit) = serve_opt(name, &mut cli, slot) {
            return exit;
        }
    }
    service_cfg.queue_batches = u32::try_from(queue).unwrap_or(u32::MAX);
    let Some(command) = cli.next_arg() else {
        return usage();
    };
    let mut rest = Vec::new();
    while let Some(arg) = cli.next_arg() {
        rest.push(arg);
    }
    cli.finish();
    if observe.is_some() && command != "run" {
        eprintln!("error: --observe only applies to `womsim run`");
        return ExitCode::from(2);
    }
    if (shards > 1 || snapshot.is_some()) && command != "run" {
        eprintln!("error: --shards and --resume only apply to `womsim run`");
        return ExitCode::from(2);
    }
    if stats && command != "convert" {
        eprintln!("error: --stats only applies to `womsim convert`");
        return ExitCode::from(2);
    }
    if served && command != "serve" {
        eprintln!("error: --listen and the worker-pool flags only apply to `womsim serve`");
        return ExitCode::from(2);
    }
    match command.as_str() {
        "list" => cmd_list(),
        "gen" => cmd_gen(&rest, binary),
        "stats" => cmd_stats(&rest),
        "convert" => cmd_convert(&rest, stats),
        "run" => cmd_run(&rest, verify, shards, snapshot.as_ref(), observe.as_ref()),
        "compare" => cmd_compare(&rest, threads),
        "serve" => cmd_serve(listen, service_cfg),
        _ => usage(),
    }
}
