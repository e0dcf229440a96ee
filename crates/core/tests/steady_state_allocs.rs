//! Pins that a warm [`Session::feed`] allocates nothing, for every
//! architecture.
//!
//! womlint bans allocating calls on the per-record path by name, so it
//! cannot see a collection that allocates inside an allowed call. This
//! test counts instead: a counting global allocator tallies the
//! allocations of every thread but the main one, so a verified session's
//! data checker thread counts along with the test's own, and the cases
//! run one at a time. Each case feeds one trace lap after lap, with the
//! cycles of every lap shifted past the previous one, in 512-record
//! feeds from a buffer allocated before counting starts. Once the warm
//! laps have grown every queue, table and map to its working size, the
//! next lap must not allocate once, with data verification off and on.
//!
//! With epochs on, the series grows by design as simulated time passes;
//! those laps are printed (`cargo test -- --nocapture`), not asserted.

use pcm_trace::stream::TraceProfile;
use pcm_trace::TraceRecord;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use wom_pcm::{Architecture, SystemBuilder};

/// Allocations on every thread but the main one. A statistic, so
/// `Relaxed`: a feed returns only after its data checker has caught up
/// (a channel hand-off), which orders the checker thread's increments
/// before the test thread reads the count.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Set by the process's first allocation. That is the main thread's: it
/// allocates before it starts any thread. The test harness runs there,
/// reporting finished tests and slow ones while a case runs, so its
/// allocations are not counted.
static MAIN_SEEN: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Whether this thread is the main one; `None` until it allocates.
    static IS_MAIN: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Holds one case at a time: the count is process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

/// Forwards to [`System`], counting each allocation off the main thread.
struct Counting;

fn count_one() {
    // A const-initialized `Cell` has no destructor, so this neither
    // allocates nor fails while the thread runs; `try_with` covers exit.
    let _ = IS_MAIN.try_with(|is_main| {
        let main = is_main.get().unwrap_or_else(|| {
            let first = !MAIN_SEEN.swap(true, Ordering::Relaxed);
            is_main.set(Some(first));
            first
        });
        if !main {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// thread-local flag and two atomics and never re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller's guarantees for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller's guarantees for `dealloc` pass through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const SEED: u64 = 2014;
const RECORDS: usize = 10_000;
const CHUNK: usize = 512;
/// Seven warm laps, then the lap that must not allocate.
const LAPS: usize = 8;

/// The allocations made by each of [`LAPS`] laps of `trace` through a
/// fresh session of `builder`.
fn laps(builder: SystemBuilder, trace: &[TraceRecord]) -> Vec<u64> {
    let mut session = builder.open().expect("valid config");
    let span = trace.last().map_or(0, |r| r.cycle) + 1;
    let mut chunk = Vec::with_capacity(CHUNK);
    let mut counts = Vec::with_capacity(LAPS);
    for lap in 0..LAPS as u64 {
        let before = allocations();
        for records in trace.chunks(CHUNK) {
            chunk.clear();
            chunk.extend(records.iter().map(|r| TraceRecord {
                cycle: r.cycle + lap * span,
                ..*r
            }));
            session.feed(&chunk).expect("feeds");
        }
        counts.push(allocations() - before);
    }
    counts
}

/// Runs `arch` over qsort and kv_zipf, with verification off and on;
/// every case's last lap must allocate nothing.
fn warm_feed_allocates_nothing(arch: Architecture) {
    // A case that failed poisons the lock; the others still run.
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    for workload in ["qsort", "kv_zipf"] {
        let profile = TraceProfile::by_name(workload).expect("bundled workload");
        let trace = profile.generate(SEED, RECORDS).expect("valid profile");
        for verify in [false, true] {
            let builder = || {
                SystemBuilder::new(arch)
                    .rows_per_bank(4096)
                    .verify_data(verify)
            };
            let counts = laps(builder(), &trace);
            let observed = laps(builder().epoch_cycles(50_000), &trace);
            let case = format!("{} {workload} verify={verify}", arch.slug());
            println!("{case}: laps {counts:?}; with epochs {observed:?}");
            assert_eq!(counts.last(), Some(&0), "{case}: laps {counts:?}");
        }
    }
}

#[test]
fn baseline_warm_feed_allocates_nothing() {
    warm_feed_allocates_nothing(Architecture::Baseline);
}

#[test]
fn wom_code_warm_feed_allocates_nothing() {
    warm_feed_allocates_nothing(Architecture::WomCode);
}

#[test]
fn wom_code_refresh_warm_feed_allocates_nothing() {
    warm_feed_allocates_nothing(Architecture::WomCodeRefresh);
}

#[test]
fn wcpcm_warm_feed_allocates_nothing() {
    warm_feed_allocates_nothing(Architecture::Wcpcm);
}
