//! Trace files and timed session passes: the production run path
//! (`BinaryStreamSource` → `Session::feed` → `Session::finish`) with
//! optional spans around each call.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pcm_trace::binary::BinaryWriter;
use pcm_trace::stream::{BinaryStreamSource, TraceSource};
use pcm_trace::{TraceProfile, TraceRecord};
use wom_pcm::observe::push_epoch_jsonl;
use wom_pcm::session::{Session, SessionSpec};
use wom_pcm::{Architecture, RunMetrics};

/// Wall-clock reads are the quantity this benchmark measures; the
/// `Instant::now` ban targets simulation code, not the harness.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    Instant::now()
}

/// Generates `records` records of `profile` for `seed` into a WOMTRC
/// file at `path`, streaming chunk by chunk.
pub fn write_trace(profile: &str, seed: u64, records: u64, path: &Path) -> Result<(), String> {
    let profile = TraceProfile::by_name(profile).ok_or(format!("unknown profile {profile}"))?;
    let mut source = profile.source(seed, records).map_err(|e| e.to_string())?;
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BinaryWriter::new(BufWriter::new(file)).map_err(|e| e.to_string())?;
    while let Some(chunk) = source.next_chunk().map_err(|e| e.to_string())? {
        for r in chunk {
            out.write(r).map_err(|e| e.to_string())?;
        }
    }
    let written = out.finish().map_err(|e| e.to_string())?;
    if written != records {
        return Err(format!(
            "{}: wrote {written} of {records} records",
            path.display()
        ));
    }
    Ok(())
}

/// Opens a WOMTRC file yielding `chunk` records per call.
pub fn open_trace(
    path: &Path,
    chunk: usize,
) -> Result<BinaryStreamSource<BufReader<File>>, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    BinaryStreamSource::with_chunk_records(BufReader::new(file), chunk)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads a whole WOMTRC file into memory (untimed replay inputs).
pub fn read_trace(path: &Path) -> Result<Vec<TraceRecord>, String> {
    let mut source = open_trace(path, pcm_trace::stream::DEFAULT_CHUNK_RECORDS)?;
    let mut out = Vec::new();
    while let Some(chunk) = source.next_chunk().map_err(|e| e.to_string())? {
        out.extend_from_slice(chunk);
    }
    Ok(out)
}

/// One (trace, architecture) session run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Trace label (profile name, or `tenant:profile`).
    pub trace: String,
    /// The WOMTRC file.
    pub path: PathBuf,
    /// Architecture simulated.
    pub arch: Architecture,
    /// Session configuration.
    pub spec: SessionSpec,
    /// Records per `feed` call.
    pub chunk: usize,
    /// Epoch-line tags; epoch lines are rendered only when non-empty.
    pub tags: Vec<(String, String)>,
    /// Records in the trace.
    pub records: u64,
}

/// The session configuration every workload uses: the paper
/// configuration at 4096 rows per bank (as `womsim run`).
pub fn config(arch: Architecture, verify: bool) -> wom_pcm::SystemConfig {
    wom_pcm::SystemBuilder::new(arch)
        .rows_per_bank(4096)
        .verify_data(verify)
        .into_config()
}

/// What one run produced.
#[derive(Debug)]
pub struct RunResult {
    /// Final metrics, or the error that ended the run.
    pub metrics: Result<RunMetrics, String>,
    /// Rendered epoch lines (empty without tags).
    pub epoch_lines: Vec<String>,
}

impl RunResult {
    /// FNV-1a of the `{:#?}` metrics (the golden digest).
    pub fn digest(&self) -> Option<u64> {
        self.metrics
            .as_ref()
            .ok()
            .map(|m| womd::service::fnv1a(format!("{m:#?}").as_bytes()))
    }
}

/// One timed pass over a list of runs.
#[derive(Debug)]
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall_s: f64,
    /// Records in the pass.
    pub records: u64,
    /// Per-run results, in run order.
    pub results: Vec<RunResult>,
    /// Seconds to read and feed each chunk (one batch), in run order.
    pub chunk_s: Vec<f64>,
    /// Seconds of each run outside its batches: opening the trace and the
    /// session, the end-of-stream read, finishing and freeing.
    pub fixed_s: Vec<f64>,
    /// The pass's spans in the tracer (`pass` span first); empty when
    /// untraced.
    pub spans: Range<usize>,
}

impl Pass {
    /// Records per second of wall time.
    pub fn records_per_s(&self) -> f64 {
        self.records as f64 / self.wall_s
    }
}

/// A span: one timed call at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call (`pass`, `run`, `open`, `next_chunk`, `feed`, `finish`,
    /// `batch`, `feed_call`, ...).
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index into the tracer's `(trace, arch)` labels.
    pub label: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store, written out once at exit.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
    labels: Vec<(String, &'static str)>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: now(),
            spans: Vec::new(),
            labels: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Registers a `(trace, arch)` label for spans.
    pub fn label(&mut self, trace: &str, arch: &'static str) -> usize {
        self.labels.push((trace.to_string(), arch));
        self.labels.len() - 1
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        label: Option<usize>,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            label,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Sets the end of an open span (recorded with `start == end`).
    pub fn close(&mut self, index: usize, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(span) = self.spans.get_mut(index) {
            span.end_ns = end_ns;
        }
    }

    /// Durations of the spans named `name` within `range`.
    pub fn durations<'a>(
        &'a self,
        range: Range<usize>,
        name: &'a str,
    ) -> impl Iterator<Item = u64> + 'a {
        self.spans
            .get(range)
            .unwrap_or_default()
            .iter()
            .filter(move |s| s.name == name)
            .map(Span::ns)
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &str, workload: &str) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let (trace, arch) = s
                .label
                .and_then(|l| self.labels.get(l))
                .map_or(("", ""), |(t, a)| (t.as_str(), *a));
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"workload\":\"{workload}\",\"trace\":\"{trace}\",\"arch\":\"{arch}\"}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs every run once, back to back. Each chunk's read + feed is timed;
/// with a tracer, `open`, `next_chunk`, `feed` and `finish` spans are
/// recorded under one `pass` span.
pub fn run_pass(runs: &[Run], mut tracer: Option<&mut Tracer>) -> Pass {
    let (mut chunk_s, mut fixed_s) = (Vec::new(), Vec::new());
    let mut results = Vec::with_capacity(runs.len());
    let start = now();
    let pass_span = tracer
        .as_deref_mut()
        .map(|t| t.record("pass", start, start, None, None));
    for run in runs {
        results.push(run_one(
            run,
            tracer.as_deref_mut(),
            pass_span,
            &mut chunk_s,
            &mut fixed_s,
        ));
    }
    let end = now();
    let spans = match (tracer, pass_span) {
        (Some(t), Some(span)) => {
            t.close(span, end);
            span..t.spans.len()
        }
        _ => 0..0,
    };
    Pass {
        wall_s: end.duration_since(start).as_secs_f64(),
        records: runs.iter().map(|r| r.records).sum(),
        results,
        chunk_s,
        fixed_s,
        spans,
    }
}

fn run_one(
    run: &Run,
    mut tracer: Option<&mut Tracer>,
    pass_span: Option<usize>,
    chunk_s: &mut Vec<f64>,
    fixed_s: &mut Vec<f64>,
) -> RunResult {
    let t_open = now();
    let (run_span, label) = match tracer.as_deref_mut() {
        Some(t) => {
            let label = t.label(&run.trace, run.arch.slug());
            (
                Some(t.record("run", t_open, t_open, pass_span, Some(label))),
                Some(label),
            )
        }
        None => (None, None),
    };
    let opened = open_trace(&run.path, run.chunk).and_then(|src| {
        Ok((
            src,
            Session::open(run.spec.clone()).map_err(|e| e.to_string())?,
        ))
    });
    let mut t_prev = now();
    if let Some(t) = tracer.as_deref_mut() {
        t.record("open", t_open, t_prev, run_span, label);
    }
    let opened_s = t_prev.duration_since(t_open).as_secs_f64();
    let (mut source, mut session) = match opened {
        Ok(pair) => pair,
        Err(e) => {
            fixed_s.push(opened_s);
            return RunResult {
                metrics: Err(e),
                epoch_lines: Vec::new(),
            };
        }
    };
    let mut failure = None;
    loop {
        let chunk = match source.next_chunk() {
            Ok(Some(chunk)) => chunk,
            Ok(None) => break,
            Err(e) => {
                failure = Some(e.to_string());
                break;
            }
        };
        let t_read = if tracer.is_some() { now() } else { t_prev };
        let fed = session.feed(chunk);
        let t_fed = now();
        chunk_s.push(t_fed.duration_since(t_prev).as_secs_f64());
        if let Some(t) = tracer.as_deref_mut() {
            t.record("next_chunk", t_prev, t_read, run_span, label);
            t.record("feed", t_read, t_fed, run_span, label);
        }
        t_prev = t_fed;
        if let Err(e) = fed {
            failure = Some(e.to_string());
            break;
        }
    }
    // The end-of-stream read (or the failed one) belongs to the trace
    // layer too, so the spans tile the run.
    let t_finish = now();
    if let Some(t) = tracer.as_deref_mut() {
        t.record("next_chunk", t_prev, t_finish, run_span, label);
    }
    let metrics = match failure {
        Some(e) => Err(e),
        None => session.finish().map_err(|e| e.to_string()),
    };
    let epoch_lines = if run.tags.is_empty() || metrics.is_err() {
        Vec::new()
    } else {
        render_epochs(&mut session, &run.tags)
    };
    // Freeing a large session (verified row stores) is part of finishing.
    drop(session);
    drop(source);
    let t_done = now();
    fixed_s.push(opened_s + t_done.duration_since(t_prev).as_secs_f64());
    if let Some(t) = tracer {
        t.record("finish", t_finish, t_done, run_span, label);
        if let Some(span) = run_span {
            t.close(span, t_done);
        }
    }
    RunResult {
        metrics,
        epoch_lines,
    }
}

/// Renders every not-yet-polled epoch as the exact line womd publishes.
pub fn render_epochs(session: &mut Session, tags: &[(String, String)]) -> Vec<String> {
    let tag_refs: Vec<(&str, &str)> = tags.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    session
        .poll_epochs()
        .iter()
        .map(|(index, start, end, counters)| {
            let mut line = String::new();
            push_epoch_jsonl(&mut line, &tag_refs, index, start, end, counters);
            line
        })
        .collect()
}

/// A mid-trace checkpoint and resume of one run.
#[derive(Debug)]
pub struct Resumed {
    /// `Session::checkpoint` wall time.
    pub checkpoint_s: f64,
    /// `Session::resume` wall time.
    pub resume_s: f64,
    /// WOMSNAP container size.
    pub bytes: usize,
    /// Digest of the resumed run's final metrics.
    pub digest: u64,
}

/// Feeds half the trace, checkpoints, resumes from the container, feeds
/// the rest and finishes.
pub fn checkpoint_resume(run: &Run) -> Result<Resumed, String> {
    let err = |e: wom_pcm::WomPcmError| e.to_string();
    let mut source = open_trace(&run.path, run.chunk)?;
    let mut session = Session::open(run.spec.clone()).map_err(err)?;
    let half = run.records / 2;
    while session.records_fed() < half {
        match source.next_chunk().map_err(|e| e.to_string())? {
            Some(chunk) => session.feed(chunk).map_err(err)?,
            None => break,
        }
    }
    let t0 = now();
    let container = session.checkpoint().map_err(err)?;
    let t1 = now();
    drop(session);
    let t2 = now();
    let mut resumed = Session::resume(run.spec.clone(), &container).map_err(err)?;
    let t3 = now();
    while let Some(chunk) = source.next_chunk().map_err(|e| e.to_string())? {
        resumed.feed(chunk).map_err(err)?;
    }
    let metrics = resumed.finish().map_err(err)?;
    Ok(Resumed {
        checkpoint_s: t1.duration_since(t0).as_secs_f64(),
        resume_s: t3.duration_since(t2).as_secs_f64(),
        bytes: container.len(),
        digest: womd::service::fnv1a(format!("{metrics:#?}").as_bytes()),
    })
}
