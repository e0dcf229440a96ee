//! Service-level guarantees: interleaving-independence, eviction
//! round-trips, typed back-pressure, and wire-frame isolation.

use std::io::Cursor;
use std::time::Duration;

use pcm_trace::binary::encode_records_into;
use pcm_trace::synth::benchmarks;
use pcm_trace::{TraceOp, TraceRecord};
use wom_pcm::observe::write_jsonl;
use wom_pcm::session::{Session, SessionSpec};
use wom_pcm::Architecture;
use womd::service::{fnv1a, Service, ServiceConfig, ServiceError, SessionEvent};
use womd::wire::serve_connection;

const WAIT: Duration = Duration::from_secs(60);

fn trace(workload: &str, seed: u64, records: usize) -> Vec<TraceRecord> {
    benchmarks::by_name(workload)
        .expect("paper workload")
        .generate(seed, records)
}

/// Runs `trace` through a solo [`Session`], returning the final metrics
/// debug rendering and the full epoch JSONL export under `tags`.
fn solo_run(spec: &SessionSpec, trace: &[TraceRecord], tags: &[(&str, &str)]) -> (String, String) {
    let mut session = Session::open(spec.clone()).unwrap();
    session.feed(trace).unwrap();
    let metrics = session.finish().unwrap();
    let metrics_debug = format!("{metrics:#?}");
    let jsonl = match session.into_epochs() {
        Some(series) => {
            let mut out = Vec::new();
            write_jsonl(&mut out, &series, tags).unwrap();
            String::from_utf8(out).unwrap()
        }
        None => String::new(),
    };
    (metrics_debug, jsonl)
}

/// Collects a finished tenant's events into (epoch JSONL, metrics debug,
/// records).
fn collect(events: Vec<SessionEvent>) -> (String, String, u64) {
    let mut jsonl = String::new();
    let mut debug = String::new();
    let mut total = 0;
    for event in events {
        match event {
            SessionEvent::Epoch { line, .. } => {
                jsonl.push_str(&line);
                jsonl.push('\n');
            }
            SessionEvent::Finished {
                records,
                metrics_debug,
                ..
            } => {
                debug = metrics_debug;
                total = records;
            }
            SessionEvent::Error { kind, message } => panic!("tenant failed: {kind}: {message}"),
        }
    }
    (debug, jsonl, total)
}

#[test]
fn interleaved_tenants_match_solo_runs() {
    let tenants: Vec<(String, SessionSpec, Vec<TraceRecord>)> = [
        ("t0", Architecture::Baseline, "qsort", 11),
        ("t1", Architecture::WomCode, "mad", 22),
        ("t2", Architecture::WomCodeRefresh, "qsort", 33),
        ("t3", Architecture::Wcpcm, "mad", 44),
    ]
    .into_iter()
    .map(|(name, arch, workload, seed)| {
        (
            name.to_string(),
            SessionSpec::tiny(arch).epoch_cycles(20_000),
            trace(workload, seed, 4_000),
        )
    })
    .collect();

    let service = Service::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    for (name, spec, _) in &tenants {
        let tags = vec![("tenant".to_string(), name.clone())];
        service.open(name, spec.clone(), &tags).unwrap();
    }
    // Interleave: chunk 0 of every tenant, then chunk 1 of every tenant...
    let chunks: Vec<Vec<&[TraceRecord]>> = tenants
        .iter()
        .map(|(_, _, t)| t.chunks(97).collect())
        .collect();
    let rounds = chunks.iter().map(Vec::len).max().unwrap();
    for round in 0..rounds {
        for ((name, _, _), tenant_chunks) in tenants.iter().zip(&chunks) {
            if let Some(chunk) = tenant_chunks.get(round) {
                loop {
                    match service.feed(name, chunk.to_vec()) {
                        Ok(()) => break,
                        Err(ServiceError::Busy { .. }) => {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(e) => panic!("feed({name}): {e}"),
                    }
                }
            }
        }
    }
    for (name, spec, records) in &tenants {
        let events = service.finish_wait(name, WAIT).unwrap();
        let (debug, jsonl, total) = collect(events);
        assert_eq!(total, records.len() as u64, "{name} record count");
        let tags = [("tenant", name.as_str())];
        let (solo_debug, solo_jsonl) = solo_run(spec, records, &tags);
        assert_eq!(debug, solo_debug, "{name} metrics diverged from solo run");
        assert_eq!(
            jsonl, solo_jsonl,
            "{name} epoch stream diverged from solo run"
        );
    }
}

#[test]
fn eviction_and_restore_mid_trace_matches_uninterrupted_run() {
    // One worker with a single residency slot: every alternation between
    // the two tenants forces a checkpoint-park of one and a resume of
    // the other.
    let service = Service::start(ServiceConfig {
        workers: 1,
        max_resident: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let spec = SessionSpec::tiny(Architecture::WomCodeRefresh).epoch_cycles(15_000);
    let a = trace("qsort", 5, 3_000);
    let b = trace("mad", 6, 3_000);
    service.open("a", spec.clone(), &[]).unwrap();
    service.open("b", spec.clone(), &[]).unwrap();
    for (ca, cb) in a.chunks(250).zip(b.chunks(250)) {
        for (name, chunk) in [("a", ca), ("b", cb)] {
            loop {
                match service.feed(name, chunk.to_vec()) {
                    Ok(()) => break,
                    Err(ServiceError::Busy { .. }) => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("feed({name}): {e}"),
                }
            }
        }
    }
    for (name, records) in [("a", &a), ("b", &b)] {
        let (debug, jsonl, _) = collect(service.finish_wait(name, WAIT).unwrap());
        let (solo_debug, solo_jsonl) = solo_run(&spec, records, &[]);
        assert_eq!(debug, solo_debug, "{name} diverged across park/resume");
        assert_eq!(
            jsonl, solo_jsonl,
            "{name} epochs diverged across park/resume"
        );
    }
}

#[test]
fn overflow_evicts_lru_with_typed_error_and_reopen_recovers() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        max_resident: 1,
        max_sessions: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let spec = SessionSpec::tiny(Architecture::WomCode);
    let records = trace("qsort", 9, 500);
    service.open("old", spec.clone(), &[]).unwrap();
    service.feed("old", records.clone()).unwrap();
    // Opening a second session overflows max_sessions: "old" is parked
    // (residency cap) and then dropped (existence cap) before the open
    // acknowledgement returns, so the tombstone is already visible.
    service.open("new", spec.clone(), &[]).unwrap();
    assert!(matches!(
        service.feed("old", records.clone()),
        Err(ServiceError::Evicted { session }) if session == "old"
    ));
    assert!(matches!(
        service.finish("old"),
        Err(ServiceError::Evicted { .. })
    ));
    // The eviction was also announced as an event.
    let events = service.poll("old").unwrap();
    assert!(
        events.iter().any(|e| matches!(
            e,
            SessionEvent::Error {
                kind: "evicted",
                ..
            }
        )),
        "missing eviction event: {events:?}"
    );
    // The survivor is untouched, and the evicted name can start fresh.
    service.feed("new", records.clone()).unwrap();
    let (debug, _, _) = collect(service.finish_wait("new", WAIT).unwrap());
    service.close("old");
    service.open("old", spec.clone(), &[]).unwrap();
    service.feed("old", records.clone()).unwrap();
    let (redebug, _, _) = collect(service.finish_wait("old", WAIT).unwrap());
    assert_eq!(debug, redebug, "fresh reopen must equal a clean run");
}

#[test]
fn full_queue_returns_busy_without_blocking_or_dropping() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_batches: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let spec = SessionSpec::tiny(Architecture::Wcpcm);
    let records = trace("qsort", 3, 120_000);
    service.open("t", spec.clone(), &[]).unwrap();
    // The first big batch parks the worker for a while; with a one-batch
    // queue the immediate second feed must be rejected, not blocked.
    let (head, rest) = records.split_at(100_000);
    service.feed("t", head.to_vec()).unwrap();
    let mut saw_busy = false;
    for chunk in rest.chunks(1_000) {
        loop {
            match service.feed("t", chunk.to_vec()) {
                Ok(()) => break,
                Err(ServiceError::Busy { session, pending }) => {
                    assert_eq!(session, "t");
                    assert_eq!(pending, 1);
                    saw_busy = true;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("feed: {e}"),
            }
        }
    }
    assert!(saw_busy, "the one-slot queue never reported Busy");
    // Retried batches were all accepted eventually: the result is the
    // uninterrupted solo run, so back-pressure dropped nothing.
    let (debug, _, total) = collect(service.finish_wait("t", WAIT).unwrap());
    assert_eq!(total, records.len() as u64);
    let (solo_debug, _) = solo_run(&spec, &records, &[]);
    assert_eq!(debug, solo_debug);
}

#[test]
fn a_far_future_record_fails_its_tenant_alone() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let spec = SessionSpec::tiny(Architecture::Baseline).epoch_cycles(10_000);
    let records = trace("qsort", 4, 2_000);
    service.open("gap", spec.clone(), &[]).unwrap();
    service.open("ok", spec.clone(), &[]).unwrap();
    // Two legal records 2^50 cycles apart: the epoch series cannot span
    // the gap, and the session fails typed instead of sizing the series
    // to it (which aborted the process, and every tenant with it).
    let gap = vec![
        TraceRecord::new(0, 0, TraceOp::Read),
        TraceRecord::new(1 << 50, 0x40, TraceOp::Read),
    ];
    service.feed("gap", gap).unwrap();
    service.feed("ok", records.clone()).unwrap();
    loop {
        match service.next_event("gap", WAIT).unwrap() {
            Some(SessionEvent::Epoch { .. }) => {}
            Some(SessionEvent::Error { kind, message }) => {
                assert_eq!(kind, "sim");
                assert!(message.contains("epoch"), "{message}");
                break;
            }
            other => panic!("expected the gap tenant to fail, got {other:?}"),
        }
    }
    let (debug, _, total) = collect(service.finish_wait("ok", WAIT).unwrap());
    assert_eq!(total, records.len() as u64);
    let (solo_debug, _) = solo_run(&spec, &records, &[]);
    assert_eq!(
        debug, solo_debug,
        "the other tenant finishes as it would solo"
    );
}

#[test]
fn zero_capacity_queue_is_always_busy() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_batches: 0,
        ..ServiceConfig::default()
    })
    .unwrap();
    service
        .open("t", SessionSpec::tiny(Architecture::Baseline), &[])
        .unwrap();
    assert!(matches!(
        service.feed("t", trace("qsort", 1, 10)),
        Err(ServiceError::Busy { pending: 0, .. })
    ));
}

#[test]
fn lifecycle_errors_are_typed() {
    let service = Service::start(ServiceConfig::default()).unwrap();
    let spec = SessionSpec::tiny(Architecture::WomCode);
    assert!(matches!(
        service.feed("ghost", trace("qsort", 1, 10)),
        Err(ServiceError::UnknownSession { .. })
    ));
    service.open("t", spec.clone(), &[]).unwrap();
    assert!(matches!(
        service.open("t", spec.clone(), &[]),
        Err(ServiceError::AlreadyOpen { .. })
    ));
    service.finish_wait("t", WAIT).unwrap();
    assert!(matches!(
        service.feed("t", trace("qsort", 1, 10)),
        Err(ServiceError::Finished { .. })
    ));
    // A finished name can be reopened once closed (or directly: open
    // replaces the finished entry).
    service.open("t", spec, &[]).unwrap();
}

#[test]
fn malformed_frames_earn_bad_frame_without_poisoning_other_sessions() {
    let records = trace("mad", 8, 2_000);
    let spec = SessionSpec::tiny(Architecture::WomCode);
    let (solo_debug, _) = solo_run(&spec, &records, &[]);
    let expected_fnv = fnv1a(solo_debug.as_bytes());

    let mut payload = Vec::new();
    encode_records_into(&records, &mut payload);
    let mut input: Vec<u8> = Vec::new();
    input.extend_from_slice(
        b"{\"op\":\"open\",\"session\":\"good\",\"arch\":\"wom-code\",\"preset\":\"tiny\"}\n",
    );
    input.extend_from_slice(b"this is not json\n");
    input.extend_from_slice(b"{\"op\":\"warp\",\"session\":\"good\"}\n");
    input.extend_from_slice(b"{\"op\":\"open\",\"session\":\"bad\",\"arch\":\"flux-capacitor\"}\n");
    input.extend_from_slice(b"{\"op\":\"feed\",\"session\":\"good\"}\n"); // no bytes count
    input.extend_from_slice(
        format!(
            "{{\"op\":\"feed\",\"session\":\"good\",\"bytes\":{}}}\n",
            payload.len()
        )
        .as_bytes(),
    );
    input.extend_from_slice(&payload);
    input.push(b'\n');
    input.extend_from_slice(b"{\"op\":\"finish\",\"session\":\"good\"}\n");
    input.extend_from_slice(b"{\"op\":\"shutdown\"}\n");

    let service = Service::start(ServiceConfig::default()).unwrap();
    let mut reader = Cursor::new(input);
    let mut output: Vec<u8> = Vec::new();
    serve_connection(&service, &mut reader, &mut output).unwrap();
    let output = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = output.lines().collect();

    let bad_frames = lines
        .iter()
        .filter(|l| l.contains("\"event\":\"error\",\"kind\":\"bad_frame\""))
        .count();
    assert_eq!(
        bad_frames, 4,
        "four malformed frames, four typed errors:\n{output}"
    );
    assert!(
        lines.iter().any(|l| l
            .contains("\"event\":\"ok\",\"op\":\"feed\",\"session\":\"good\",\"records\":2000")),
        "good session's feed survived the garbage:\n{output}"
    );
    let finished = lines
        .iter()
        .find(|l| l.contains("\"event\":\"finished\",\"session\":\"good\""))
        .unwrap_or_else(|| panic!("good session never finished:\n{output}"));
    assert!(
        finished.contains(&format!("\"metrics_fnv\":\"{expected_fnv:016x}\"")),
        "wire digest differs from solo run: {finished}"
    );
}
