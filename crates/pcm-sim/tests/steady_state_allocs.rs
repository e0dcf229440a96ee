//! Pins that the controller's steady state allocates nothing.
//!
//! womlint bans allocating calls on the hot path by name, so it cannot
//! see a collection that allocates inside an allowed call. This test
//! counts instead: a counting global allocator tallies the allocations
//! made by the test's own thread. After a warm-up has grown every queue,
//! heap and wear map to its working size, a further window of demand
//! traffic with a two-row refresh batch every 64 records must not
//! allocate once. So must the paper geometry under full-rank refresh
//! bursts, whose rows write pausing keeps preempting.

use pcm_rng::Rng;
use pcm_sim::{DecodedAddr, MemConfig, MemOp, MemorySystem, ServiceClass, SimError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting each allocation on the calling thread.
struct Counting;

fn count_one() {
    // A const-initialized `Cell` has no destructor, so this neither
    // allocates nor fails while the thread runs; `try_with` covers exit.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// thread-local integer and never re-enters the allocator.
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
    ALLOCATIONS.with(Cell::get)
}

/// Enqueues one random demand access to `addr` after a random gap,
/// advancing past a full queue; returns the completions seen.
fn submit(mem: &mut MemorySystem, rng: &mut Rng, addr: u64) -> u64 {
    let (op, class) = match rng.gen_range_u32(0, 4) {
        0 | 1 => (MemOp::Read, ServiceClass::Read),
        2 => (MemOp::Write, ServiceClass::Write),
        _ => (MemOp::Write, ServiceClass::ResetOnlyWrite),
    };
    let (mut gap, mut completed) = (rng.gen_range_u64(0, 40), 0);
    loop {
        let now = mem.now() + gap;
        completed += mem.advance_to(now).unwrap().count() as u64;
        match mem.enqueue(op, addr, class) {
            Ok(_) => return completed,
            Err(SimError::QueueFull { .. }) => gap = 50,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}

/// Feeds `records` demand accesses spread over the whole device, with a
/// two-row rank refresh every 64 of them; returns the completions seen.
fn feed(mem: &mut MemorySystem, rng: &mut Rng, records: u64) -> u64 {
    let g = mem.config().geometry;
    let lines = g.capacity_bytes() / u64::from(g.access_bytes);
    let mut completed = 0;
    for i in 0..records {
        if i % 64 == 0 {
            let bank = rng.gen_range_u32(0, g.banks_per_rank);
            let other = (bank + rng.gen_range_u32(1, g.banks_per_rank)) % g.banks_per_rank;
            let rows = [
                (bank, rng.gen_range_u32(0, g.rows_per_bank)),
                (other, rng.gen_range_u32(0, g.rows_per_bank)),
            ];
            mem.enqueue_rank_refresh(rng.gen_range_u32(0, g.ranks), &rows)
                .unwrap();
        }
        let addr = rng.gen_below(lines) * u64::from(g.access_bytes);
        completed += submit(mem, rng, addr);
    }
    completed
}

/// Rows per bank the paper-geometry traffic touches, so the wear maps
/// stop growing during the warm-up.
const HOT_ROWS: u32 = 8;

/// Feeds `records` demand accesses to the hot rows of the paper
/// geometry, with a refresh of one hot row in every bank of a random
/// rank every 48 of them, built in a fixed array.
fn feed_paper(mem: &mut MemorySystem, rng: &mut Rng, records: u64) -> u64 {
    let g = mem.config().geometry;
    let mut batch = [(0, 0); 32];
    let mut completed = 0;
    for i in 0..records {
        if i % 48 == 0 {
            for (bank, slot) in (0..).zip(&mut batch) {
                *slot = (bank, rng.gen_range_u32(0, HOT_ROWS));
            }
            mem.enqueue_rank_refresh(rng.gen_range_u32(0, g.ranks), &batch)
                .unwrap();
        }
        let at = DecodedAddr {
            rank: rng.gen_range_u32(0, g.ranks),
            bank: rng.gen_range_u32(0, g.banks_per_rank),
            row: rng.gen_range_u32(0, HOT_ROWS),
            column: rng.gen_range_u32(0, g.columns_per_row()),
        };
        let addr = mem.decoder().encode(at).unwrap();
        completed += submit(mem, rng, addr);
    }
    completed
}

#[test]
fn demand_and_refresh_traffic_allocate_nothing_after_warm_up() {
    let mut mem = MemorySystem::new(MemConfig::tiny()).unwrap();
    let mut rng = Rng::seed_from_u64(0xA110C);
    feed(&mut mem, &mut rng, 40_000);
    let refreshes = mem.stats().refreshes_completed + mem.stats().refreshes_preempted;

    let before = allocations();
    let completed = feed(&mut mem, &mut rng, 20_000);
    let allocated = allocations() - before;

    let refreshed = mem.stats().refreshes_completed + mem.stats().refreshes_preempted - refreshes;
    assert!(completed >= 20_000, "the window did work: {completed}");
    assert!(refreshed > 0, "refresh batches issued in the window");
    assert_eq!(allocated, 0, "allocations after warm-up");
}

#[test]
fn paper_geometry_full_rank_refresh_allocates_nothing_after_warm_up() {
    let config = MemConfig::paper_baseline();
    assert!(config.write_pausing && config.geometry.banks_per_rank == 32);
    let mut mem = MemorySystem::new(config).unwrap();
    let mut rng = Rng::seed_from_u64(2014);
    feed_paper(&mut mem, &mut rng, 200_000);
    let preempted = mem.stats().refreshes_preempted;

    let before = allocations();
    let completed = feed_paper(&mut mem, &mut rng, 20_000);
    let allocated = allocations() - before;

    assert!(completed >= 20_000, "the window did work: {completed}");
    let preempted = mem.stats().refreshes_preempted - preempted;
    assert!(preempted > 0, "write pausing preempted refresh rows");
    assert_eq!(allocated, 0, "allocations after warm-up");
}
