//! End-to-end behaviour of the four architectures through a
//! [`Session`]: coalescing, refresh scheduling, cache routing.

use pcm_sim::{Cycle, DecodedAddr};
use pcm_trace::{TraceOp, TraceRecord};
use wom_pcm::{Architecture, Session, SessionSpec};

fn record(cycle: Cycle, addr: u64, op: TraceOp) -> TraceRecord {
    TraceRecord::new(cycle, addr, op)
}

#[test]
fn write_coalescing_merges_back_to_back_row_writes() {
    let mut sys = Session::open(SessionSpec::tiny(Architecture::Baseline)).unwrap();
    // Two writes to the same row, 4 cycles apart: the second lands
    // while the first row write is still in flight.
    sys.feed(&[record(0, 0x00, TraceOp::Write)]).unwrap();
    sys.feed(&[record(4, 0x40, TraceOp::Write)]).unwrap();
    let m = sys.finish().unwrap();
    assert_eq!(m.coalesced_writes, 1);
    assert_eq!(m.slow_writes, 1, "one array write for the merged pair");
}

#[test]
fn distant_writes_do_not_coalesce() {
    let mut sys = Session::open(SessionSpec::tiny(Architecture::Baseline)).unwrap();
    sys.feed(&[record(0, 0x00, TraceOp::Write)]).unwrap();
    sys.feed(&[record(10_000, 0x40, TraceOp::Write)]).unwrap();
    let m = sys.finish().unwrap();
    assert_eq!(m.coalesced_writes, 0);
    assert_eq!(m.slow_writes, 2);
}

#[test]
fn wcpcm_tag_conflict_blocks_coalescing() {
    let mut sys = Session::open(SessionSpec::tiny(Architecture::Wcpcm)).unwrap();
    let g = sys.config().mem().geometry;
    let dec = pcm_sim::AddressDecoder::new(g, sys.config().mem().mapping).unwrap();
    // Same (rank, row) but different banks: must not merge - the
    // second write evicts the first bank's data instead.
    let a = dec
        .encode(DecodedAddr {
            rank: 0,
            bank: 0,
            row: 0,
            column: 0,
        })
        .unwrap();
    let b = dec
        .encode(DecodedAddr {
            rank: 0,
            bank: 1,
            row: 0,
            column: 0,
        })
        .unwrap();
    sys.feed(&[record(0, a, TraceOp::Write)]).unwrap();
    sys.feed(&[record(2, b, TraceOp::Write)]).unwrap();
    let m = sys.finish().unwrap();
    assert_eq!(m.coalesced_writes, 0);
    assert_eq!(m.victim_writebacks, 1);
    assert_eq!(m.cache.unwrap().write_misses, 1);
}

#[test]
fn refresh_engine_runs_during_idle_gaps() {
    let mut sys = Session::open(SessionSpec::tiny(Architecture::WomCodeRefresh)).unwrap();
    // Exhaust a row's budget (steady-state cold may need 1-2 writes),
    // then idle long enough for several refresh periods.
    for i in 0..4u64 {
        sys.feed(&[record(i * 2_000, 0x00, TraceOp::Write)])
            .unwrap();
    }
    sys.feed(&[record(200_000, 0x1000, TraceOp::Read)]).unwrap();
    let m = sys.finish().unwrap();
    assert!(
        m.refreshes_completed > 0,
        "an idle stretch after exhausting writes must trigger refresh"
    );
}

#[test]
fn wcpcm_read_hits_are_served_without_touching_main_wear() {
    let mut sys = Session::open(SessionSpec::tiny(Architecture::Wcpcm)).unwrap();
    sys.feed(&[record(0, 0x80, TraceOp::Write)]).unwrap();
    sys.feed(&[record(5_000, 0x80, TraceOp::Read)]).unwrap();
    let m = sys.finish().unwrap();
    let cache = m.cache.unwrap();
    assert_eq!(cache.read_hits, 1);
    assert_eq!(cache.read_misses, 0);
    assert_eq!(
        m.wear_main.writes, 0,
        "no victim, so main memory was never written"
    );
}
