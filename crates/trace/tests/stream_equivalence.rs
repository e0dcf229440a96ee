//! Lockstep equivalence of the streaming trace pipeline against the
//! materialized paths it replaced: every bundled profile — paper suite
//! and datacenter — must stream record-identical to its eager
//! generation, across seeds, through resets, and through the binary
//! container in both versions.

use pcm_trace::binary::{write_binary, BinaryTraceError};
use pcm_trace::stream::{
    BinaryStreamSource, TraceProfile, TraceSource, TraceSpec, DEFAULT_CHUNK_RECORDS,
};
use pcm_trace::synth::{benchmarks, datacenter};
use pcm_trace::{TraceOp, TraceRecord};
use std::io::Cursor;

const SEEDS: [u64; 3] = [1, 2014, 0xDEAD_BEEF];
const RECORDS: u64 = 10_000;

/// Drains a source to a vector through its chunked interface.
fn drain<S: TraceSource>(source: &mut S) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    while let Some(chunk) = source.next_chunk().expect("test sources stream") {
        out.extend_from_slice(chunk);
    }
    out
}

#[test]
fn every_suite_profile_streams_identical_to_materialized() {
    for profile in benchmarks::all() {
        for seed in SEEDS {
            let eager = profile.generate(seed, RECORDS as usize);
            let streamed = drain(&mut profile.generate_stream(seed, RECORDS));
            assert_eq!(eager, streamed, "{} seed {seed}", profile.name);
        }
    }
}

#[test]
fn every_datacenter_profile_streams_identical_to_materialized() {
    for profile in datacenter::all() {
        for seed in SEEDS {
            let eager: Vec<TraceRecord> = profile
                .generator(seed)
                .expect("bundled profiles validate")
                .take(RECORDS as usize)
                .collect();
            let tp = TraceProfile::from(profile.clone());
            let streamed = drain(&mut tp.source(seed, RECORDS).expect("bundled profiles validate"));
            assert_eq!(eager, streamed, "{} seed {seed}", profile.name());
        }
    }
}

#[test]
fn reopening_replays_every_profile_exactly() {
    // One representative per family plus every datacenter shape: a
    // reopened source restarts the stream from record zero, bit-for-bit.
    for name in [
        "qsort",
        "464.h264ref",
        "kv_zipf",
        "wal_writer",
        "gc_sweep",
        "diurnal_web",
        "multi_tenant",
    ] {
        let profile = TraceProfile::by_name(name).expect("bundled profile");
        let open = || profile.source(9, 4_321).expect("bundled profiles validate");
        let first = drain(&mut open());
        let second = drain(&mut open());
        assert_eq!(first, second, "{name} replay after reopening");
        assert_eq!(first.len(), 4_321, "{name} record count");
    }
}

#[test]
fn binary_container_streams_identical_to_eager_generation() {
    let records = benchmarks::by_name("mad")
        .expect("bundled profile")
        .generate(3, 7_777);
    let mut bytes = Vec::new();
    write_binary(&mut bytes, records.iter().copied()).expect("vec write");

    let open = || BinaryStreamSource::new(Cursor::new(&bytes[..])).expect("container opens");
    let mut source = open();
    assert_eq!(source.total_records(), 7_777);
    let streamed = drain(&mut source);
    assert_eq!(records, streamed);

    // Reopening replays the file from the first record.
    assert_eq!(drain(&mut open()), records);
}

#[test]
fn version_1_containers_stream_without_a_footer() {
    // Hand-build a v1 container: old magic, no footer, no up-front count.
    let records: Vec<TraceRecord> = (0..100)
        .map(|i| {
            TraceRecord::new(
                i * 5,
                i * 64,
                if i % 3 == 0 {
                    TraceOp::Read
                } else {
                    TraceOp::Write
                },
            )
        })
        .collect();
    let mut v2 = Vec::new();
    write_binary(&mut v2, records.iter().copied()).expect("vec write");
    let mut v1 = v2[..v2.len() - 16].to_vec();
    v1[7] = 1; // version byte

    let mut source = BinaryStreamSource::new(Cursor::new(&v1[..])).expect("v1 containers open");
    // v1 has no footer; a seekable reader still derives the count from
    // the file length.
    assert_eq!(source.total_records(), 100);
    assert_eq!(drain(&mut source), records);
}

#[test]
fn truncated_v2_container_reports_the_byte_offset() {
    let records = benchmarks::by_name("qsort")
        .expect("bundled profile")
        .generate(1, 500);
    let mut bytes = Vec::new();
    write_binary(&mut bytes, records.iter().copied()).expect("vec write");

    // Chop mid-payload: the footer check at open must reject it.
    let cut = 8 + 123 * 17 + 9;
    let err = BinaryStreamSource::new(Cursor::new(&bytes[..cut])).expect_err("truncation detected");
    let msg = err.to_string();
    assert!(msg.contains("truncated"), "unexpected error: {msg}");
}

#[test]
fn bad_op_mid_chunk_is_an_error_not_a_panic() {
    let records = benchmarks::by_name("qsort")
        .expect("bundled profile")
        .generate(1, DEFAULT_CHUNK_RECORDS + 100);
    let mut bytes = Vec::new();
    write_binary(&mut bytes, records.iter().copied()).expect("vec write");

    // Corrupt the op byte of a record inside the *second* chunk.
    let victim = DEFAULT_CHUNK_RECORDS + 37;
    bytes[8 + victim * 17 + 16] = 7;

    let mut source = BinaryStreamSource::new(Cursor::new(&bytes[..])).expect("container opens");
    let first = source
        .next_chunk()
        .expect("first chunk is clean")
        .expect("first chunk is non-empty")
        .len();
    assert_eq!(first, DEFAULT_CHUNK_RECORDS);
    let err = source.next_chunk().expect_err("bad op byte surfaces");
    let msg = err.to_string();
    assert!(
        msg.contains("bad op byte") && msg.contains((victim as u64).to_string().as_str()),
        "unexpected error: {msg}"
    );
}

#[test]
fn spec_round_trips_records_profiles_and_files() {
    let records = benchmarks::by_name("typeset")
        .expect("bundled profile")
        .generate(11, 2_048);

    // Records and profile specs agree with the eager path.
    let spec = TraceSpec::from(records.clone());
    assert_eq!(drain(&mut spec.open().expect("slice opens")), records);
    let spec = TraceSpec::synth(
        benchmarks::by_name("typeset").expect("bundled profile"),
        11,
        2_048,
    );
    assert_eq!(drain(&mut spec.open().expect("profile opens")), records);

    // A file spec opens a fresh chunked reader per open() call.
    let dir = std::env::temp_dir().join(format!("womtrc-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("t.womtrc");
    let mut bytes = Vec::new();
    write_binary(&mut bytes, records.iter().copied()).expect("vec write");
    std::fs::write(&path, &bytes).expect("temp file");
    let spec = TraceSpec::BinaryFile(path.clone());
    assert_eq!(drain(&mut spec.open().expect("file opens")), records);
    assert_eq!(drain(&mut spec.open().expect("file reopens")), records);
    std::fs::remove_dir_all(&dir).expect("temp cleanup");
}

#[test]
fn writer_error_type_carries_offsets() {
    // The typed truncation error exposes both coordinates.
    let e = BinaryTraceError::Truncated {
        records_read: 3,
        byte_offset: 8 + 3 * 17 + 5,
    };
    let msg = e.to_string();
    assert!(msg.contains('3') && msg.contains("64"), "message: {msg}");
}
