//! Per-layer replays: a workload's own trace driven straight into one
//! layer's public API, timed per 4096-call chunk so clock reads stay
//! negligible against the work.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;

use pcm_sim::{AddressDecoder, MemOp, MemorySystem, ServiceClass, SimError};
use pcm_trace::{TraceOp, TraceRecord};
use wom_code::{Inverted, Rs23Code};
use wom_pcm::{Architecture, FunctionalMemory, RowMap, RunMetrics, Session, SystemConfig};

use crate::passes::{checkpoint_resume, now, read_trace, Pass, Run, Tracer};
use crate::report::{median, Outcome};

/// Calls per timed chunk.
const CHUNK: usize = 4096;

/// Line size of the engine's functional data checker.
const LINE_BYTES: usize = 64;

/// Cycles the engine stalls before retrying a full controller queue.
const STALL_CYCLES: u64 = 32;

/// `MemorySystem` replay of the traffic the baseline architecture sends
/// the controller: every read a `Read`, every write a full `Write`, minus
/// the writes the engine coalesces into a row whose array write is still
/// pending.
#[derive(Debug, Default, Clone, Copy)]
pub struct PcmSim {
    /// Host nanoseconds in `advance_to` / `enqueue` / `drain`.
    pub ns: f64,
    /// Records replayed.
    pub records: u64,
    /// Enqueues made (records left after coalescing).
    pub enqueued: u64,
    /// Enqueues refused with `QueueFull` (each costs a stall + retry).
    pub queue_full_retries: u64,
    /// Sum of read + write queue occupancy sampled after each enqueue.
    pub depth_sum: u64,
    /// Mean simulated queue wait of reads, in cycles (`MemStats`).
    pub read_wait_cycles: f64,
    /// Mean simulated queue wait of writes, in cycles (`MemStats`).
    pub write_wait_cycles: f64,
}

/// The records that reach the controller: the engine's coalescing rule
/// (a write to a row written less than a full write time ago is absorbed
/// by the pending row write) applied at record arrival times.
fn uncoalesced(config: &SystemConfig, trace: &[TraceRecord]) -> Result<Vec<TraceRecord>, SimError> {
    let geometry = config.mem().geometry;
    let decoder = AddressDecoder::new(geometry, config.mem().mapping)?;
    let write_cycles = config.mem().timing.write_cycles();
    let mut open_until: BTreeMap<u64, u64> = BTreeMap::new();
    Ok(trace
        .iter()
        .filter(|r| {
            if r.op == TraceOp::Read {
                return true;
            }
            let row = decoder.decode(r.addr).flat_row(&geometry);
            if open_until.get(&row).is_some_and(|&until| r.cycle < until) {
                return false;
            }
            open_until.insert(row, r.cycle + write_cycles);
            true
        })
        .copied()
        .collect())
}

/// Replays `trace` into a bare `MemorySystem` built from `config`.
pub fn pcm_sim(config: &SystemConfig, trace: &[TraceRecord]) -> Result<PcmSim, SimError> {
    let sent = uncoalesced(config, trace)?;
    let mut mem = MemorySystem::new(config.mem().clone())?;
    let mut out = PcmSim {
        records: trace.len() as u64,
        enqueued: sent.len() as u64,
        ..PcmSim::default()
    };
    let mut completed = 0usize;
    for chunk in sent.chunks(CHUNK) {
        let t0 = now();
        for r in chunk {
            if r.cycle > mem.now() {
                completed += mem.advance_to(r.cycle)?.len();
            }
            let (op, class) = match r.op {
                TraceOp::Read => (MemOp::Read, ServiceClass::Read),
                TraceOp::Write => (MemOp::Write, ServiceClass::Write),
            };
            loop {
                match mem.enqueue(op, r.addr, class) {
                    Ok(_) => break,
                    Err(SimError::QueueFull { .. }) => {
                        out.queue_full_retries += 1;
                        let next = mem.now() + STALL_CYCLES;
                        completed += mem.advance_to(next)?.len();
                    }
                    Err(e) => return Err(e),
                }
            }
            out.depth_sum += (mem.read_queue_len() + mem.write_queue_len()) as u64;
        }
        out.ns += t0.elapsed().as_nanos() as f64;
    }
    let t0 = now();
    completed += mem.drain().len();
    out.ns += t0.elapsed().as_nanos() as f64;
    black_box(completed);
    let stats = mem.stats();
    out.read_wait_cycles = stats.read_queue_delay.mean();
    out.write_wait_cycles = stats.write_queue_delay.mean();
    Ok(out)
}

/// WOM codec + functional memory replay: every write WOM-encodes a
/// 64-byte line, every read of a written line decodes one.
#[derive(Debug, Default, Clone, Copy)]
pub struct Codec {
    /// Host nanoseconds in `FunctionalMemory::write`.
    pub encode_ns: f64,
    /// Writes replayed.
    pub writes: u64,
    /// Writes that rewrote the cells in place (in WOM budget).
    pub in_place: u64,
    /// Host nanoseconds in `FunctionalMemory::read_into`.
    pub decode_ns: f64,
    /// Reads that decoded a written line.
    pub decoded: u64,
}

/// Deterministic per-write payload, unique per (line, sequence).
fn payload(line: u64, seq: u64, out: &mut [u8]) {
    let mut z = line.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seq);
    for word in out.chunks_mut(8) {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        word.copy_from_slice(&z.to_le_bytes()[..word.len()]);
    }
}

/// Replays the trace's writes, then its reads of written lines, through
/// the line codec the engine's data checker uses.
pub fn codec(trace: &[TraceRecord]) -> Result<Codec, wom_pcm::WomPcmError> {
    let mut mem = FunctionalMemory::new(Inverted::new(Rs23Code::new()), LINE_BYTES)?;
    let mut out = Codec::default();
    let line = |r: &TraceRecord| r.addr / LINE_BYTES as u64;
    let writes: Vec<u64> = trace
        .iter()
        .filter(|r| r.op == TraceOp::Write)
        .map(line)
        .collect();
    let mut data = vec![0u8; CHUNK * LINE_BYTES];
    for (c, lines) in writes.chunks(CHUNK).enumerate() {
        for (k, (&l, buf)) in lines.iter().zip(data.chunks_mut(LINE_BYTES)).enumerate() {
            payload(l, (c * CHUNK + k) as u64, buf);
        }
        let t0 = now();
        for (&l, buf) in lines.iter().zip(data.chunks(LINE_BYTES)) {
            if mem.write(l, buf)?.kind.is_fast() {
                out.in_place += 1;
            }
        }
        out.encode_ns += t0.elapsed().as_nanos() as f64;
    }
    out.writes = writes.len() as u64;
    let reads: Vec<u64> = trace
        .iter()
        .filter(|r| r.op == TraceOp::Read)
        .map(line)
        .filter(|&l| mem.writes_done(l) > 0)
        .collect();
    let mut buf = [0u8; LINE_BYTES];
    for lines in reads.chunks(CHUNK) {
        let t0 = now();
        for &l in lines {
            black_box(mem.read_into(l, &mut buf));
        }
        out.decode_ns += t0.elapsed().as_nanos() as f64;
    }
    out.decoded = reads.len() as u64;
    Ok(out)
}

/// Row-state store replay: one `get_or_insert_with` per record, keyed by
/// the record's flat row as the policies key their `RowMap`s.
#[derive(Debug, Default, Clone, Copy)]
pub struct Rows {
    /// Host nanoseconds in `get_or_insert_with`.
    pub ns: f64,
    /// Operations replayed.
    pub ops: u64,
    /// Distinct keys.
    pub keys: usize,
    /// Directory pages the keys occupy.
    pub pages: usize,
}

/// Replays `trace`'s flat rows into a `RowMap`.
pub fn rowmap(config: &SystemConfig, trace: &[TraceRecord]) -> Result<Rows, SimError> {
    let geometry = config.mem().geometry;
    let decoder = AddressDecoder::new(geometry, config.mem().mapping)?;
    let keys: Vec<u64> = trace
        .iter()
        .map(|r| decoder.decode(r.addr).flat_row(&geometry))
        .collect();
    let mut map: RowMap<u64> = RowMap::new();
    let mut ns = 0.0;
    for chunk in keys.chunks(CHUNK) {
        let t0 = now();
        for &k in chunk {
            *map.get_or_insert_with(k, || 0) += 1;
        }
        ns += t0.elapsed().as_nanos() as f64;
    }
    Ok(Rows {
        ns,
        ops: keys.len() as u64,
        keys: map.len(),
        pages: map.pages_allocated(),
    })
}

/// Leaf spans of a traced pass: together they must tile its wall time.
const LEAVES: [&str; 4] = ["open", "next_chunk", "feed", "finish"];

/// Largest share of a traced pass's wall time its leaf spans may miss.
const RECONCILE_TOLERANCE: f64 = 0.03;

/// Trace- and session-layer metrics from the traced passes' spans, plus
/// the span reconciliation.
pub fn session_metrics(tracer: &Tracer, traced: &[Pass], untraced: &[Pass], outcome: &mut Outcome) {
    let sum = |p: &Pass, name: &str| tracer.durations(p.spans.clone(), name).sum::<u64>() as f64;
    let count = |p: &Pass, name: &str| tracer.durations(p.spans.clone(), name).count() as f64;
    let mut coverage = Vec::new();
    for p in traced {
        let pass_ns = tracer.spans.get(p.spans.start).map_or(0, |s| s.ns()) as f64;
        let covered: f64 = LEAVES.iter().map(|n| sum(p, n)).sum();
        let share = covered / pass_ns;
        if (1.0 - share).abs() > RECONCILE_TOLERANCE {
            outcome.problems.push(format!(
                "traced pass spans cover {:.2}% of its wall time (tolerance {:.0}%)",
                share * 100.0,
                RECONCILE_TOLERANCE * 100.0
            ));
        }
        coverage.push(share);
    }
    let total = |name: &str| traced.iter().map(|p| sum(p, name)).sum::<f64>();
    let calls = |name: &str| traced.iter().map(|p| count(p, name)).sum::<f64>();
    let records = traced.iter().map(|p| p.records).sum::<u64>() as f64;
    // Traced and untraced passes alternate; comparing each pair cancels
    // the host's slow drift.
    let slowdowns: Vec<f64> = traced
        .iter()
        .zip(untraced)
        .map(|(t, u)| 1.0 - t.records_per_s() / u.records_per_s())
        .collect();
    outcome.set(
        "trace.next_chunk_ns_per_record",
        total("next_chunk") / records,
    );
    outcome.set("trace.span_coverage", median(&coverage));
    outcome.set("trace.overhead_fraction", median(&slowdowns));
    outcome.set("session.open_us", total("open") / calls("open") / 1e3);
    outcome.set("session.feed_ns_per_record", total("feed") / records);
    outcome.set("session.finish_ms", total("finish") / calls("finish") / 1e6);
}

/// Snapshot, pcm-sim, codec and row-store metrics for `runs`, each
/// distinct trace replayed once. `reference` holds each run's straight
/// digest; a resumed run must reproduce it. `verified` says whether the
/// workload's sessions run the data checker (the codec) at all; if so,
/// each run is fed once with and once without it, back to back, and the
/// codec's share of feed time is the part that disappears without it
/// (demand encodes/decodes and the refresh / WCPCM rewrite bursts).
pub fn deep_metrics(
    runs: &[Run],
    reference: &[Option<u64>],
    verified: bool,
    outcome: &mut Outcome,
) {
    let (mut checkpoint, mut resume, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for (run, want) in runs.iter().zip(reference) {
        match checkpoint_resume(run) {
            Ok(r) => {
                checkpoint.push(r.checkpoint_s * 1e3);
                resume.push(r.resume_s * 1e3);
                bytes.push(r.bytes as f64);
                if Some(r.digest) != *want {
                    outcome.fail(
                        run.records,
                        format!(
                            "{} on {}: resumed run differs from the straight run",
                            run.trace,
                            run.arch.slug()
                        ),
                    );
                }
            }
            Err(e) => outcome.fail(run.records, format!("{} checkpoint/resume: {e}", run.trace)),
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    outcome.set("session.checkpoint_ms", mean(&checkpoint));
    outcome.set("session.resume_ms", mean(&resume));
    outcome.set("snapshot.bytes", mean(&bytes));

    let baseline = crate::passes::config(Architecture::Baseline, false);
    let (mut sim, mut code, mut rows) = (PcmSim::default(), Codec::default(), Rows::default());
    let mut baseline_feed_ns = 0.0;
    let (mut checked_ns, mut unchecked_ns) = (0.0, 0.0);
    let mut paths = BTreeSet::new();
    for run in runs.iter().filter(|r| paths.insert(r.path.clone())) {
        let replayed = read_trace(&run.path).and_then(|trace| {
            baseline_feed_ns += feed_ns(&baseline, &trace)?;
            if verified {
                for same in runs.iter().filter(|r| r.path == run.path) {
                    checked_ns += feed_ns(&crate::passes::config(same.arch, true), &trace)?;
                    unchecked_ns += feed_ns(&crate::passes::config(same.arch, false), &trace)?;
                }
            }
            let s = pcm_sim(&baseline, &trace).map_err(|e| e.to_string())?;
            let c = codec(&trace).map_err(|e| e.to_string())?;
            let r = rowmap(&baseline, &trace).map_err(|e| e.to_string())?;
            Ok((s, c, r))
        });
        match replayed {
            Ok((s, c, r)) => {
                sim.ns += s.ns;
                sim.records += s.records;
                sim.enqueued += s.enqueued;
                sim.queue_full_retries += s.queue_full_retries;
                sim.depth_sum += s.depth_sum;
                sim.read_wait_cycles += s.read_wait_cycles * s.records as f64;
                sim.write_wait_cycles += s.write_wait_cycles * s.records as f64;
                code.encode_ns += c.encode_ns;
                code.writes += c.writes;
                code.in_place += c.in_place;
                code.decode_ns += c.decode_ns;
                code.decoded += c.decoded;
                rows.ns += r.ns;
                rows.ops += r.ops;
                rows.keys += r.keys;
                rows.pages += r.pages;
            }
            Err(e) => outcome.fail(run.records, format!("{} layer replay: {e}", run.trace)),
        }
    }
    let records = sim.records.max(1) as f64;
    let pcm_ns_per_record = sim.ns / records;
    outcome.set("pcm_sim.ns_per_record", pcm_ns_per_record);
    outcome.set(
        "pcm_sim.share_of_feed",
        pcm_ns_per_record / (baseline_feed_ns / records),
    );
    outcome.set(
        "pcm_sim.queue_depth_mean",
        sim.depth_sum as f64 / sim.enqueued.max(1) as f64,
    );
    outcome.set(
        "pcm_sim.queue_full_retries_per_record",
        sim.queue_full_retries as f64 / records,
    );
    outcome.set(
        "pcm_sim.read_queue_wait_cycles_mean",
        sim.read_wait_cycles / records,
    );
    outcome.set(
        "pcm_sim.write_queue_wait_cycles_mean",
        sim.write_wait_cycles / records,
    );
    outcome.set(
        "codec.encode_ns_per_row",
        code.encode_ns / code.writes.max(1) as f64,
    );
    outcome.set(
        "codec.decode_ns_per_row",
        code.decode_ns / code.decoded.max(1) as f64,
    );
    outcome.set(
        "codec.share_of_feed",
        if verified {
            1.0 - unchecked_ns / checked_ns
        } else {
            0.0
        },
    );
    outcome.set(
        "codec.in_place_write_ratio",
        code.in_place as f64 / code.writes.max(1) as f64,
    );
    outcome.set("rowmap.ns_per_op", rows.ns / rows.ops.max(1) as f64);
    outcome.set(
        "rowmap.keys_per_page",
        rows.keys as f64 / rows.pages.max(1) as f64,
    );
}

/// Host nanoseconds `Session::feed` takes for `trace` under `config`.
fn feed_ns(config: &SystemConfig, trace: &[TraceRecord]) -> Result<f64, String> {
    let mut session = Session::open(config.clone()).map_err(|e| e.to_string())?;
    let mut ns = 0.0;
    for chunk in trace.chunks(CHUNK) {
        let t0 = now();
        session.feed(chunk).map_err(|e| e.to_string())?;
        ns += t0.elapsed().as_nanos() as f64;
    }
    session.finish().map_err(|e| e.to_string())?;
    Ok(ns)
}

/// Simulated-clock metrics over every run's final `RunMetrics`, merged.
/// Exact: a change that only speeds the simulator must leave them equal.
pub fn sim_metrics<'a>(runs: impl IntoIterator<Item = &'a RunMetrics>, outcome: &mut Outcome) {
    let mut m = RunMetrics::default();
    for r in runs {
        m.merge(r);
    }
    let refreshes = m.refreshes_completed + m.refreshes_preempted;
    outcome.set("sim.read_latency_mean_cycles", m.reads.mean());
    outcome.set("sim.write_latency_mean_cycles", m.writes.mean());
    outcome.set("sim.write_p99_cycles", m.write_hist.percentile(0.99) as f64);
    outcome.set("sim.fast_write_fraction", m.fast_write_fraction());
    outcome.set(
        "sim.refresh_useful_ratio",
        if refreshes == 0 {
            0.0
        } else {
            m.refreshes_completed as f64 / refreshes as f64
        },
    );
    outcome.set(
        "sim.wom_cache_hit_rate",
        m.cache.map_or(0.0, |c| c.hit_rate()),
    );
    outcome.set("sim.victim_writebacks", m.victim_writebacks as f64);
    outcome.set("sim.coalesced_writes", m.coalesced_writes as f64);
    outcome.set("sim.data_reads_verified", m.data_reads_verified as f64);
}
