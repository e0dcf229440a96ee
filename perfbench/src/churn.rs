//! `service_churn`: an in-process womd `Service` with one worker and
//! fewer resident slots than live tenants, fed open loop. Nearly every
//! batch resumes a parked WOMSNAP and parks another, so the snapshot
//! codec and the worker loop sit on the latency the client sees.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use pcm_rng::Rng;
use pcm_trace::stream::TraceSource;
use pcm_trace::TraceRecord;
use wom_pcm::session::SessionSpec;
use wom_pcm::Architecture;
use womd::{Service, ServiceConfig, ServiceError, SessionEvent};

use crate::layers;
use crate::passes::{self, now, run_pass, Pass, Run, Tracer};
use crate::report::{describe_latency, fastest, median, nearest_rank, Outcome};
use crate::Ctx;

/// Tenant traces: every profile runs on every paper architecture.
const PROFILES: [&str; 4] = ["qsort", "kv_zipf", "470.lbm", "ocean"];
const ARCHS: [Architecture; 4] = [
    Architecture::Baseline,
    Architecture::WomCode,
    Architecture::WomCodeRefresh,
    Architecture::Wcpcm,
];
const TENANTS: usize = PROFILES.len() * ARCHS.len();

/// Per-worker resident sessions: a quarter of the tenants, so the LRU
/// parks and resumes on almost every batch.
const MAX_RESIDENT: usize = 4;
const EPOCH_CYCLES: u64 = 50_000;
/// Longest the client sleeps between consumption checks.
const MAX_NAP: Duration = Duration::from_micros(100);
/// Delay from the end of setup to the first due time.
const LEAD: Duration = Duration::from_millis(20);
/// How long after the last due time a window may wait for the service
/// before it counts as stalled (also the wait for each tenant's finish).
const FINISH_TIMEOUT: Duration = Duration::from_secs(60);

/// Batches per tenant, records per batch, and each tenant's send period.
#[derive(Debug, Clone, Copy)]
struct Size {
    batches: usize,
    batch_records: usize,
    period: Duration,
}

impl Size {
    /// Full size: a 5 s window of 16 tenants × 50 batches of 500 records,
    /// one every 100 ms per tenant, which keeps the worker about 55% busy
    /// on a 2-vCPU x86-64 host: loaded enough to queue, not so loaded
    /// that a slower moment of the host snowballs into the tail.
    /// Smoke: a few batches, compressed in time.
    fn of(ctx: &Ctx) -> Self {
        if ctx.smoke {
            Self {
                batches: 4,
                batch_records: 125,
                period: Duration::from_millis(10),
            }
        } else {
            Self {
                batches: 50,
                batch_records: 500,
                period: Duration::from_millis(100),
            }
        }
    }
}

/// When one batch is due, relative to the start of the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Due {
    /// Offset from the window start.
    pub at: Duration,
    /// Tenant index.
    pub tenant: usize,
    /// Batch index within the tenant's trace.
    pub batch: usize,
}

/// The open-loop send schedule, ordered by due time. Tenant `i` sends
/// every `period` from its own phase in slot `i` of the period (plus a
/// seeded jitter under half a slot), so arrivals are staggered and the
/// schedule depends only on the seed.
pub fn schedule(seed: u64, tenants: usize, batches: usize, period: Duration) -> Vec<Due> {
    let mut rng = Rng::seed_from_u64(seed);
    let slot = period.as_nanos() as u64 / tenants.max(1) as u64;
    let phases: Vec<u64> = (0..tenants)
        .map(|i| i as u64 * slot + rng.gen_below((slot / 2).max(1)))
        .collect();
    let mut out: Vec<Due> = (0..batches)
        .flat_map(|batch| {
            phases.iter().enumerate().map(move |(tenant, &phase)| Due {
                at: Duration::from_nanos(phase) + period * batch as u32,
                tenant,
                batch,
            })
        })
        .collect();
    out.sort_by_key(|d| (d.at, d.tenant));
    out
}

struct Tenant {
    name: String,
    run: Run,
    batches: Vec<Vec<TraceRecord>>,
}

/// Writes every tenant's trace and reads it back as send batches;
/// returns the tenants and the trace-generation seconds.
fn setup_tenants(ctx: &Ctx, size: Size) -> Result<(Vec<Tenant>, f64), String> {
    let records = (size.batches * size.batch_records) as u64;
    let t0 = now();
    let mut tenants = Vec::with_capacity(TENANTS);
    for i in 0..TENANTS {
        let (profile, arch) = (PROFILES[i / ARCHS.len()], ARCHS[i % ARCHS.len()]);
        let name = format!("t{i:02}");
        let path = ctx.dir.join(format!("{name}-{profile}.womtrc"));
        passes::write_trace(profile, ctx.seed.wrapping_add(i as u64), records, &path)?;
        tenants.push(Tenant {
            run: Run {
                trace: format!("{name}:{profile}"),
                path,
                arch,
                spec: SessionSpec::from(passes::config(arch, false)).epoch_cycles(EPOCH_CYCLES),
                chunk: size.batch_records,
                tags: vec![
                    ("tenant".to_string(), name.clone()),
                    ("workload".to_string(), profile.to_string()),
                ],
                records,
            },
            name,
            batches: Vec::new(),
        });
    }
    let generate_s = t0.elapsed().as_secs_f64();
    for t in &mut tenants {
        let mut source = passes::open_trace(&t.run.path, size.batch_records)?;
        while let Some(chunk) = source.next_chunk().map_err(|e| e.to_string())? {
            t.batches.push(chunk.to_vec());
        }
    }
    Ok((tenants, generate_s))
}

/// What the service published for one tenant.
#[derive(Debug, Default)]
struct Observed {
    epoch_lines: Vec<String>,
    /// `(records, metrics_fnv)` from the `Finished` event.
    finished: Option<(u64, u64)>,
    error: Option<String>,
}

impl Observed {
    fn absorb(&mut self, events: Vec<SessionEvent>) {
        for event in events {
            match event {
                SessionEvent::Epoch { line, .. } => self.epoch_lines.push(line),
                SessionEvent::Finished {
                    records,
                    metrics_fnv,
                    ..
                } => self.finished = Some((records, metrics_fnv)),
                SessionEvent::Error { kind, message } => {
                    self.error = Some(format!("{kind}: {message}"));
                }
            }
        }
    }
}

/// Client-side measurements of one open-loop window.
#[derive(Debug, Default)]
struct Window {
    /// Due → consumed ms per batch, in schedule order.
    latency_ms: Vec<f64>,
    /// `Service::feed` call durations.
    feed_call_us: Vec<f64>,
    /// How late each send left against its due time.
    lag_ms: Vec<f64>,
    /// `Service::finish_wait` per tenant, after the window.
    finish_ms: Vec<f64>,
    busy_fraction: f64,
    records_per_s: f64,
    busy_refusals: u64,
    observed: Vec<Observed>,
}

/// Opens every tenant, sends each batch when due (retrying `Busy`
/// refusals, the clock still running from the due time), and times each
/// batch until `Service::pending` shows it consumed.
fn window(
    tenants: &[Tenant],
    service: &Service,
    sched: &[Due],
    mut tracer: Option<&mut Tracer>,
) -> Result<Window, String> {
    let mut w = Window {
        latency_ms: vec![f64::NAN; sched.len()],
        observed: tenants.iter().map(|_| Observed::default()).collect(),
        ..Window::default()
    };
    for t in tenants {
        service
            .open(&t.name, t.run.spec.clone(), &t.run.tags)
            .map_err(|e| format!("open {}: {e}", t.name))?;
    }
    let labels: Vec<Option<usize>> = tenants
        .iter()
        .map(|t| {
            tracer
                .as_deref_mut()
                .map(|tr| tr.label(&t.run.trace, t.run.arch.slug()))
        })
        .collect();
    let t0 = now() + LEAD;
    // (due, sent, schedule index) per batch not yet seen consumed.
    let mut inflight: Vec<VecDeque<(Instant, Instant, usize)>> =
        vec![VecDeque::new(); tenants.len()];
    // (sent, seen consumed) per batch, for the worker's busy time.
    let mut served: Vec<(Instant, Instant)> = Vec::with_capacity(sched.len());
    let (mut next, mut consumed, mut checks) = (0usize, 0usize, 0u64);
    let mut last_seen = t0;
    let deadline = t0 + sched.last().map_or(Duration::ZERO, |d| d.at) + FINISH_TIMEOUT;
    while consumed < sched.len() {
        if now() > deadline {
            return Err(format!(
                "service stalled: {consumed} of {} batches consumed",
                sched.len()
            ));
        }
        while let Some(d) = sched.get(next) {
            let due = t0 + d.at;
            if now() < due {
                break;
            }
            let t = &tenants[d.tenant];
            let records = t.batches[d.batch].clone();
            let call = now();
            match service.feed(&t.name, records) {
                Ok(()) => {
                    let back = now();
                    w.feed_call_us
                        .push(back.duration_since(call).as_secs_f64() * 1e6);
                    w.lag_ms
                        .push(call.saturating_duration_since(due).as_secs_f64() * 1e3);
                    inflight[d.tenant].push_back((due, call, next));
                    if let Some(tr) = tracer.as_deref_mut() {
                        tr.record("feed_call", call, back, None, labels[d.tenant]);
                    }
                    next += 1;
                }
                Err(ServiceError::Busy { .. }) => {
                    w.busy_refusals += 1;
                    break;
                }
                Err(e) => return Err(format!("feed {}: {e}", t.name)),
            }
        }
        let seen = now();
        for (i, queue) in inflight.iter_mut().enumerate() {
            if queue.is_empty() {
                continue;
            }
            let pending = service
                .pending(&tenants[i].name)
                .map_err(|e| e.to_string())? as usize;
            while queue.len() > pending {
                let Some((due, sent, k)) = queue.pop_front() else {
                    break;
                };
                w.latency_ms[k] = seen.duration_since(due).as_secs_f64() * 1e3;
                served.push((sent, seen));
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.record("batch", due, seen, None, labels[i]);
                }
                consumed += 1;
                last_seen = seen;
            }
        }
        checks += 1;
        if checks % 64 == 0 {
            for (t, o) in tenants.iter().zip(&mut w.observed) {
                o.absorb(service.poll(&t.name).map_err(|e| e.to_string())?);
            }
        }
        let wake = sched.get(next).map_or(seen + MAX_NAP, |d| t0 + d.at);
        let nap = wake.saturating_duration_since(now()).min(MAX_NAP);
        if !nap.is_zero() {
            std::thread::sleep(nap);
        }
    }
    let first_due = t0 + sched.first().map_or(Duration::ZERO, |d| d.at);
    let span_s = last_seen.saturating_duration_since(first_due).as_secs_f64();
    let records: usize = sched
        .iter()
        .map(|d| tenants[d.tenant].batches[d.batch].len())
        .sum();
    w.records_per_s = records as f64 / span_s;
    // One worker serves batches in send order: each is busy from
    // max(sent, previous consumed) to its own consumption.
    served.sort_by_key(|&(sent, _)| sent);
    let mut busy = Duration::ZERO;
    let mut free_at = first_due;
    for (sent, seen) in served {
        busy += seen.saturating_duration_since(sent.max(free_at));
        free_at = free_at.max(seen);
    }
    w.busy_fraction = busy.as_secs_f64() / span_s;

    for (t, o) in tenants.iter().zip(&mut w.observed) {
        let f0 = now();
        let events = service
            .finish_wait(&t.name, FINISH_TIMEOUT)
            .map_err(|e| format!("finish {}: {e}", t.name))?;
        w.finish_ms.push(f0.elapsed().as_secs_f64() * 1e3);
        o.absorb(events);
        service.close(&t.name);
    }
    Ok(w)
}

/// One timed set-up: tenant traces written and loaded, service started.
fn timed_setup(ctx: &Ctx, size: Size) -> Result<(Vec<Tenant>, Service, f64, f64), String> {
    let t0 = now();
    let (tenants, generate_s) = setup_tenants(ctx, size)?;
    let service = Service::start(ServiceConfig {
        workers: 1,
        max_resident: MAX_RESIDENT,
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("service start: {e}"))?;
    Ok((tenants, service, t0.elapsed().as_secs_f64(), generate_s))
}

/// Runs `service_churn`: a set-up then an open-loop window, repeated
/// for `ctx.seconds`; then untimed solo `Session` runs of every tenant
/// trace that each window's service results must match. Every window
/// sends the same schedule, so each batch's latency is taken at its
/// fastest over the windows (interference only ever adds time).
pub fn run(ctx: &Ctx, outcome: &mut Outcome, tracer: &mut Tracer) -> Result<(), String> {
    let size = Size::of(ctx);
    let sched = schedule(ctx.seed, TENANTS, size.batches, size.period);
    let (mut setups, mut generates, mut windows) = (Vec::new(), Vec::new(), Vec::new());
    let mut tenants;
    let start = now();
    loop {
        let (set_up, service, setup_s, generate_s) = timed_setup(ctx, size)?;
        tenants = set_up;
        setups.push(setup_s);
        generates.push(generate_s);
        outcome.attempted += tenants.iter().map(|t| t.run.records).sum::<u64>();
        let w = window(
            &tenants,
            &service,
            &sched,
            ctx.traced.then_some(&mut *tracer),
        )?;
        println!(
            "window {}: {:.0} records/s, worker {:.1}% busy, {} busy refusals; set-up {setup_s:.4} s",
            windows.len() + 1,
            w.records_per_s,
            w.busy_fraction * 100.0,
            w.busy_refusals,
        );
        windows.push(w);
        if ctx.smoke || start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    outcome.set("setup_s", median(&setups));
    outcome.set("trace.generate_s", median(&generates));

    let mut latency = fastest(windows.iter().map(|w| w.latency_ms.as_slice()));
    latency.sort_by(f64::total_cmp);
    println!(
        "{TENANTS} tenants × {} batches of {} records every {:?}, 1 worker, {MAX_RESIDENT} \
         resident, {} windows; {}",
        size.batches,
        size.batch_records,
        size.period,
        windows.len(),
        describe_latency(
            "batch latency (due → consumed, fastest over windows)",
            &latency
        )
    );
    let per_window = |f: fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    let pooled = |f: fn(&Window) -> &[f64], p: f64| {
        let mut v: Vec<f64> = windows.iter().flat_map(f).copied().collect();
        v.sort_by(f64::total_cmp);
        nearest_rank(&v, p).unwrap_or(0.0)
    };
    outcome.set("records_per_s", per_window(|w| w.records_per_s));
    outcome.set(
        "batch_latency_p50_ms",
        nearest_rank(&latency, 0.5).unwrap_or(0.0),
    );
    outcome.set(
        "batch_latency_p99_ms",
        nearest_rank(&latency, 0.99).unwrap_or(0.0),
    );
    outcome.set("womd.feed_call_us_p50", pooled(|w| &w.feed_call_us, 0.5));
    outcome.set("womd.feed_call_us_p99", pooled(|w| &w.feed_call_us, 0.99));
    outcome.set("womd.busy_fraction", per_window(|w| w.busy_fraction));
    outcome.set("womd.finish_ms_p50", pooled(|w| &w.finish_ms, 0.5));
    outcome.set("client.lag_p99_ms", pooled(|w| &w.lag_ms, 0.99));

    // The determinism contract: each tenant's service results equal a
    // solo run of its trace, fed in the same batches.
    let runs: Vec<Run> = tenants.iter().map(|t| t.run.clone()).collect();
    let solo: Pass = run_pass(&runs, None);
    let traced: Vec<Pass> = if ctx.traced {
        vec![run_pass(&runs, Some(tracer))]
    } else {
        Vec::new()
    };
    let reference = crate::check_passes(ctx, &runs, std::iter::once(&solo).chain(&traced), outcome);
    let observed = windows.iter().flat_map(|w| {
        tenants
            .iter()
            .zip(&w.observed)
            .zip(&reference)
            .zip(&solo.results)
    });
    for (((t, o), want), straight) in observed {
        let problem = if let Some(e) = &o.error {
            Some(format!("service error: {e}"))
        } else if o.finished.map(|(n, _)| n) != Some(t.run.records) {
            Some(format!(
                "service consumed {:?} of {} records",
                o.finished, t.run.records
            ))
        } else if o.finished.map(|(_, d)| d) != *want {
            Some("service metrics digest differs from the solo run".to_string())
        } else if o.epoch_lines != straight.epoch_lines {
            Some(format!(
                "service epoch lines differ from the solo run ({} vs {})",
                o.epoch_lines.len(),
                straight.epoch_lines.len()
            ))
        } else {
            None
        };
        if let Some(p) = problem {
            outcome.fail(
                t.run.records,
                format!("tenant {} ({}): {p}", t.name, t.run.trace),
            );
        }
    }

    if ctx.traced {
        layers::session_metrics(tracer, &traced, std::slice::from_ref(&solo), outcome);
        layers::deep_metrics(&runs, &reference, false, outcome);
        layers::sim_metrics(
            solo.results.iter().filter_map(|r| r.metrics.as_ref().ok()),
            outcome,
        );
    }
    Ok(())
}

/// The service-layer metrics of a workload that runs no service.
pub fn no_service(outcome: &mut Outcome) {
    for name in [
        "womd.feed_call_us_p50",
        "womd.feed_call_us_p99",
        "womd.busy_fraction",
        "womd.finish_ms_p50",
        "client.lag_p99_ms",
    ] {
        outcome.set(name, 0.0);
    }
}
