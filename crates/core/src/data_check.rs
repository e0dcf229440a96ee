//! The functional data checker of verified sessions, run on a thread of
//! its own.
//!
//! [`DataCheck`] is a functional shadow of main memory: real WOM-encoded
//! cells per 64-byte line, plus a reference for the last data written to
//! each line. It is a pure sink, and a fold of the engine's event
//! stream: of every event the engine emits, it takes three kinds, in
//! engine order (a line written, a line read, a main-memory row
//! refreshed or filled by a WOM-cache flush), and it answers only with
//! an error, or at the end of the run with the number of reads it
//! verified. So it runs beside the timing simulation, one thread per
//! verified session, behind a [`Checker`]:
//!
//! * [`Checker::on_event`] maps each such event to a `Copy` [`CheckOp`]
//!   and appends it to a block of
//!   [`BLOCK_OPS`] ops, and a full block travels to the thread over a
//!   bounded channel. The thread applies the block's ops in order, under
//!   the lock of the state it shares with the engine, and hands the
//!   emptied block back for reuse: at most [`BLOCKS_IN_FLIGHT`] blocks
//!   are out, and the steady state allocates nothing;
//! * [`Checker::sync`] sends the partial block and waits until every
//!   block is back. The session syncs before each `feed` and
//!   `feed_source` returns, and the engine before `finish` reads the
//!   count, so a checkpoint, a restore and the final metrics see exactly
//!   the state an inline checker would hold, and a failed check is
//!   returned by the feed whose records caused it;
//! * the thread keeps the first failure in op order and goes on applying
//!   the later ops, so its state keeps following the engine's; the next
//!   sync returns the failure. A thread that stopped, or panicked while
//!   holding the lock, makes every later sync a
//!   [`WomPcmError::Internal`] error, never a hang: emitting an event
//!   cannot fail, so a full block that finds the thread gone is dropped
//!   and the sync reports it.

use crate::error::WomPcmError;
use crate::functional::FunctionalMemory;
use crate::observe::Event;
use crate::policy::ArraySide;
use crate::rowmap::RowMap;
use pcm_sim::snap::{SnapError, SnapReader, SnapWriter};
use pcm_sim::{AddressDecoder, DecodedAddr};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use wom_code::{Inverted, Rs23Code};

/// Line size of the functional data checker.
const CHECK_LINE_BYTES: usize = 64;

/// [`DataCheck::payload`]'s line multiplier (the 64-bit golden ratio).
const PAYLOAD_LINE_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// [`DataCheck::payload`]'s mixing multiplier.
const PAYLOAD_MIX_MUL: u64 = 0xBF58_476D_1CE4_E5B9;

/// Ops per block handed to the checker thread.
const BLOCK_OPS: usize = 128;
/// Blocks out with the checker thread (queued or being applied) at most.
const BLOCKS_IN_FLIGHT: usize = 4;

/// The line holding byte address `addr`.
fn line_of(addr: u64) -> u64 {
    addr / CHECK_LINE_BYTES as u64
}

/// One checked event, as the checker thread applies it.
#[derive(Debug, Clone, Copy)]
enum CheckOp {
    /// Fresh data written to a line.
    Write(u64),
    /// A line read: its cells must decode to its last write.
    Read(u64),
    /// A main-memory row refreshed (or a WCPCM row flushed into it).
    RefreshRow { rank: u32, bank: u32, row: u32 },
}

/// A batch of ops in engine order.
type Block = Vec<CheckOp>;

/// Functional shadow of main memory: real WOM-encoded cells per 64-byte
/// line, plus a reference for the last data written to each line.
///
/// The reference is that write's sequence number, 8 bytes per line in
/// memory and in a checkpoint: the data is
/// [`payload`](Self::payload)`(line, seq)`, rebuilt whenever a read check
/// or a refresh rewrite needs it.
#[derive(Debug)]
struct DataCheck {
    mem: FunctionalMemory<Inverted<Rs23Code>>,
    /// Sequence number of the last write per line, in the page-grained
    /// store (line ids are dense and clustered).
    expected: RowMap<u64>,
    /// Writes so far: the sequence number of the latest one.
    seq: u64,
    reads_verified: u64,
    /// Reused decode target so verified reads don't allocate.
    line_buf: [u8; CHECK_LINE_BYTES],
    /// Main memory's decoder, which names the lines of a refreshed row.
    decoder: AddressDecoder,
}

impl DataCheck {
    fn new(decoder: AddressDecoder) -> Self {
        Self {
            mem: FunctionalMemory::new(Inverted::new(Rs23Code::new()), CHECK_LINE_BYTES)
                .expect("64-byte lines tile the RS code"),
            expected: RowMap::new(),
            seq: 0,
            reads_verified: 0,
            line_buf: [0u8; CHECK_LINE_BYTES],
            decoder,
        }
    }

    /// Deterministic per-write payload: unique per (line, sequence).
    fn payload(line: u64, seq: u64) -> [u8; CHECK_LINE_BYTES] {
        let mut data = [0u8; CHECK_LINE_BYTES];
        let mut z = line.wrapping_mul(PAYLOAD_LINE_MUL).wrapping_add(seq);
        for chunk in data.chunks_mut(8) {
            z = (z ^ (z >> 30)).wrapping_mul(PAYLOAD_MIX_MUL);
            chunk.copy_from_slice(&z.to_le_bytes()[..chunk.len()]);
        }
        data
    }

    fn apply(&mut self, op: CheckOp) -> Result<(), WomPcmError> {
        match op {
            CheckOp::Write(line) => self.write_line(line),
            CheckOp::Read(line) => self.read_line(line),
            CheckOp::RefreshRow { rank, bank, row } => self.refresh_row(rank, bank, row),
        }
    }

    /// Writes fresh data through the real codec.
    fn write_line(&mut self, line: u64) -> Result<(), WomPcmError> {
        self.seq += 1;
        self.mem.write(line, &Self::payload(line, self.seq))?;
        self.expected.insert(line, self.seq);
        Ok(())
    }

    /// Refreshes every line of a main-memory row, one
    /// [`refresh_line`](Self::refresh_line) each.
    fn refresh_row(&mut self, rank: u32, bank: u32, row: u32) -> Result<(), WomPcmError> {
        for column in 0..self.decoder.geometry().columns_per_row() {
            let addr = self.decoder.encode(DecodedAddr {
                rank,
                bank,
                row,
                column,
            })?;
            self.refresh_line(line_of(addr))?;
        }
        Ok(())
    }

    /// Refreshes one line (§3.2): its data is read out (from the
    /// reference) and rewritten as the first write of freshly erased
    /// cells. Never-written lines have no data to preserve and are
    /// skipped. So are lines written once since their last erase: their
    /// cells already hold the first-write encode of the reference, which
    /// is exactly what the rewrite would leave.
    fn refresh_line(&mut self, line: u64) -> Result<(), WomPcmError> {
        if let Some(&seq) = self.expected.get(line) {
            if self.mem.writes_done(line) != 1 {
                self.mem.rewrite(line, &Self::payload(line, seq))?;
            }
        }
        Ok(())
    }

    /// Decodes the cells and checks them against the reference.
    fn read_line(&mut self, line: u64) -> Result<(), WomPcmError> {
        if let Some(&seq) = self.expected.get(line) {
            if !self.mem.read_into(line, &mut self.line_buf) {
                return Err(WomPcmError::Internal("written line vanished".into()));
            }
            if self.line_buf != Self::payload(line, seq) {
                // womlint::allow(hotpath/transitive, reason = "corruption error path: allocates once, then the run aborts")
                return Err(WomPcmError::Internal(format!(
                    "data corruption at line {line:#x}: cells decode differently from the last write"
                )));
            }
            self.reads_verified += 1;
        }
        Ok(())
    }

    /// Serializes the cells, then each line's reference sequence number
    /// in ascending line order, then the write and read counters.
    fn save_state(&self, w: &mut SnapWriter) {
        self.mem.save_state(w);
        w.put(&self.expected);
        w.put(&self.seq);
        w.put(&self.reads_verified);
    }

    /// Restores state written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Propagates payload truncation; [`SnapError::Corrupt`] when a
    /// reference is no write's: sequence number 0 (writes count from 1)
    /// or one newer than the saved write counter.
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.mem.load_state(r)?;
        self.expected = r.take()?;
        self.seq = r.take()?;
        let written = 1..=self.seq;
        if !self.expected.values().all(|seq| written.contains(seq)) {
            return Err(SnapError::Corrupt(
                "data-check reference is no write's sequence number",
            ));
        }
        self.reads_verified = r.take()?;
        Ok(())
    }
}

/// What the engine and the checker thread share, under one lock.
#[derive(Debug)]
struct Shared {
    check: DataCheck,
    /// The first failure since the last sync, in op order.
    failure: Option<WomPcmError>,
}

impl Shared {
    /// Applies `ops` in order, keeping the first failure.
    fn apply_block(&mut self, ops: &[CheckOp]) {
        for &op in ops {
            if let Err(e) = self.check.apply(op) {
                self.failure.get_or_insert(e);
            }
        }
    }
}

/// The checker thread: applies each block the engine sends, in order,
/// and hands it back emptied. It returns once the engine drops its
/// sender, or on a poisoned lock; the engine then finds the channels
/// closed.
fn run(shared: &Mutex<Shared>, blocks: &Receiver<Block>, done: &SyncSender<Block>) {
    for mut block in blocks {
        let Ok(mut state) = shared.lock() else {
            return;
        };
        state.apply_block(&block);
        drop(state);
        block.clear();
        if done.send(block).is_err() {
            return;
        }
    }
}

fn stopped() -> WomPcmError {
    WomPcmError::Internal("the data checker stopped".into())
}

/// Locks the shared state; a poisoned lock means the checker panicked.
fn lock(shared: &Mutex<Shared>) -> Result<MutexGuard<'_, Shared>, WomPcmError> {
    shared
        .lock()
        .map_err(|_| WomPcmError::Internal("the data checker panicked".into()))
}

/// The engine's end of a verified session's checker thread (see the
/// module docs). Dropping it ends and joins the thread.
#[derive(Debug)]
pub(crate) struct Checker {
    /// The block being filled.
    block: Block,
    /// Empty blocks to swap in for a full one. The blocks not here or in
    /// `block` are out with the thread.
    spare: Vec<Block>,
    /// Full blocks to the thread; taken on drop, which ends its loop.
    to_thread: Option<SyncSender<Block>>,
    /// Emptied blocks back from the thread.
    from_thread: Receiver<Block>,
    shared: Arc<Mutex<Shared>>,
    thread: Option<JoinHandle<()>>,
}

impl Checker {
    /// Starts the checker thread for main memory addressed by `decoder`.
    ///
    /// # Errors
    ///
    /// [`WomPcmError::Spawn`] when the thread cannot be started.
    pub fn spawn(decoder: AddressDecoder) -> Result<Self, WomPcmError> {
        let shared = Arc::new(Mutex::new(Shared {
            check: DataCheck::new(decoder),
            failure: None,
        }));
        let (to_thread, blocks) = sync_channel(BLOCKS_IN_FLIGHT);
        let (done, from_thread) = sync_channel(BLOCKS_IN_FLIGHT);
        let state = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("data-check".into())
            .spawn(move || run(&state, &blocks, &done))
            .map_err(WomPcmError::Spawn)?;
        Ok(Self {
            block: Vec::with_capacity(BLOCK_OPS),
            spare: (0..BLOCKS_IN_FLIGHT)
                .map(|_| Vec::with_capacity(BLOCK_OPS))
                .collect(),
            to_thread: Some(to_thread),
            from_thread,
            shared,
            thread: Some(thread),
        })
    }

    /// Folds one engine event into the op stream, queuing:
    ///
    /// * for a demand write or read, the write or the read check of the
    ///   line holding its logical address (verification rejects wear
    ///   leveling, so that is the line the arrays store);
    /// * for a completed main-memory row refresh, and for a WOM-cache
    ///   flush into a main-memory row, the refresh of that row: one
    ///   [`FunctionalMemory::rewrite`] per written line of it that is not
    ///   already in its first-write pattern.
    ///
    /// Every other event is ignored. A failed check is returned by the
    /// next [`sync`](Self::sync), and so is a checker thread that has
    /// stopped.
    #[inline]
    pub fn on_event(&mut self, event: &Event) {
        let op = match *event {
            Event::WriteIssued { addr, .. } => CheckOp::Write(line_of(addr)),
            Event::ReadIssued { addr, .. } => CheckOp::Read(line_of(addr)),
            Event::RefreshRow {
                side: ArraySide::Main,
                rank,
                bank,
                row,
                preempted: false,
                ..
            }
            | Event::CacheFlush {
                rank, bank, row, ..
            } => CheckOp::RefreshRow { rank, bank, row },
            Event::RefreshRow { .. }
            | Event::ReadCompleted { .. }
            | Event::WriteCompleted { .. }
            | Event::RefreshBurst { .. }
            | Event::CacheRead { .. }
            | Event::CacheWrite { .. }
            | Event::VictimWriteback { .. }
            | Event::GapMove { .. }
            | Event::BudgetExhausted { .. }
            | Event::HiddenPageAccess { .. } => return,
        };
        self.block.push(op);
        if self.block.len() >= BLOCK_OPS && self.send_block().is_err() {
            // The thread is gone: drop the block; the next sync reports it.
            self.block.clear();
        }
    }

    /// Sends the current block to the thread and swaps in an empty one: a
    /// spare, or else the next block the thread hands back.
    fn send_block(&mut self) -> Result<(), WomPcmError> {
        let next = match self.spare.pop() {
            Some(block) => block,
            None => self.from_thread.recv().map_err(|_| stopped())?,
        };
        let full = std::mem::replace(&mut self.block, next);
        self.to_thread
            .as_ref()
            .ok_or_else(stopped)?
            .send(full)
            .map_err(|_| stopped())
    }

    /// Sends the partial block and waits until the thread has applied
    /// every op so far, so the shared state is what an inline checker
    /// would hold.
    ///
    /// # Errors
    ///
    /// The first check that failed since the last sync (a
    /// data-corruption or codec error); [`WomPcmError::Internal`] when
    /// the thread has stopped or panicked.
    pub fn sync(&mut self) -> Result<(), WomPcmError> {
        if !self.block.is_empty() {
            self.send_block()?;
        }
        while self.spare.len() < BLOCKS_IN_FLIGHT {
            let block = self.from_thread.recv().map_err(|_| stopped())?;
            self.spare.push(block);
        }
        lock(&self.shared)?.failure.take().map_or(Ok(()), Err)
    }

    /// Reads verified so far, as of the last [`sync`](Self::sync).
    ///
    /// # Errors
    ///
    /// [`WomPcmError::Internal`] when the checker panicked.
    pub fn reads_verified(&self) -> Result<u64, WomPcmError> {
        Ok(lock(&self.shared)?.check.reads_verified)
    }

    /// Appends the checker state as of the last [`sync`](Self::sync).
    ///
    /// # Errors
    ///
    /// [`WomPcmError::Internal`] when the checker panicked.
    pub fn save_state(&self, w: &mut SnapWriter) -> Result<(), WomPcmError> {
        lock(&self.shared)?.check.save_state(w);
        Ok(())
    }

    /// Restores checker state written by [`save_state`](Self::save_state)
    /// into this freshly spawned (idle) checker.
    ///
    /// # Errors
    ///
    /// [`WomPcmError::Snapshot`] for a truncated or corrupt payload (see
    /// [`DataCheck::load_state`]); [`WomPcmError::Internal`] when the
    /// checker panicked.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), WomPcmError> {
        Ok(lock(&self.shared)?.check.load_state(r)?)
    }
}

impl Drop for Checker {
    /// Closes the block channel, which ends the thread's loop once it has
    /// applied what it holds, then joins the thread. A panic there
    /// poisoned the lock, which every later call reports as
    /// [`WomPcmError::Internal`], so the join result adds nothing.
    fn drop(&mut self) {
        drop(self.to_thread.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
impl Checker {
    /// Points the reference of the line holding `addr` at the next
    /// write's data, as a corrupted shadow would.
    pub(crate) fn corrupt_reference(&self, addr: u64) {
        let check = &mut self.shared.lock().expect("checker lock").check;
        let line = line_of(addr);
        let seq = *check.expected.get(line).expect("line was written");
        check.expected.insert(line, seq + 1);
    }

    /// Writes the shared state has applied.
    pub(crate) fn writes_applied(&self) -> u64 {
        self.shared.lock().expect("checker lock").check.seq
    }

    /// Poisons the lock, as a panic on the checker thread would.
    pub(crate) fn poison(&self) {
        let shared = &self.shared;
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shared.lock();
            panic!("a panic while holding the checker lock");
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotError;
    use pcm_sim::{AddressMapping, MemoryGeometry};

    fn data_check() -> DataCheck {
        let decoder = AddressDecoder::new(MemoryGeometry::tiny(), AddressMapping::default())
            .expect("valid geometry");
        DataCheck::new(decoder)
    }

    #[test]
    fn data_check_failures_are_internal_errors() {
        let mut check = data_check();
        check.write_line(1).expect("writes through the codec");
        check.read_line(1).expect("cells decode to the last write");

        let seq = *check.expected.get(1).expect("line was written");
        check.expected.insert(1, seq + 1);
        let err = check.read_line(1).expect_err("reference no longer matches");
        assert!(matches!(err, WomPcmError::Internal(_)), "{err:?}");
        assert_eq!(
            err.to_string(),
            "internal invariant violated: data corruption at line 0x1: \
             cells decode differently from the last write"
        );

        // A reference for a line whose cells were never written.
        check.expected.insert(7, 1);
        let err = check.read_line(7).expect_err("no cells to decode");
        assert!(matches!(err, WomPcmError::Internal(_)), "{err:?}");
        assert_eq!(
            err.to_string(),
            "internal invariant violated: written line vanished"
        );
    }

    fn cell_bytes(mem: &FunctionalMemory<Inverted<Rs23Code>>) -> Vec<u8> {
        let mut w = SnapWriter::new();
        mem.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn refresh_skips_exactly_the_lines_a_rewrite_would_leave_unchanged() {
        let mut check = data_check();
        check.write_line(1).expect("line 1 at generation 1");
        check.write_line(2).expect("line 2 at generation 1");
        check.write_line(2).expect("line 2 at generation 2");
        for _ in 0..3 {
            check
                .write_line(3)
                .expect("line 3 at generation 1 after an alpha-write");
        }
        let untouched = cell_bytes(&check.mem);
        let mut forced = check.mem.clone();
        for line in [1, 2, 3] {
            let seq = *check.expected.get(line).expect("line was written");
            forced
                .rewrite(line, &DataCheck::payload(line, seq))
                .expect("rewrites");
        }

        for line in [1, 3] {
            check.refresh_line(line).expect("refreshes");
            assert_eq!(check.mem.writes_done(line), 1);
        }
        assert_eq!(
            cell_bytes(&check.mem),
            untouched,
            "a generation-1 line already holds its first-write cells"
        );
        assert_eq!(check.mem.writes_done(2), 2);
        check.refresh_line(2).expect("refreshes");
        assert_eq!(check.mem.writes_done(2), 1, "rewritten to generation 1");
        assert_eq!(
            cell_bytes(&check.mem),
            cell_bytes(&forced),
            "same cells and generations as rewriting both lines"
        );
        for line in [1, 2, 3] {
            check.read_line(line).expect("the line verifies");
        }
        assert_eq!(check.reads_verified, 3);
    }

    /// A checker with three written lines, saved.
    fn saved_check() -> Vec<u8> {
        let mut check = data_check();
        for line in [1, 2, 1, 64] {
            check.write_line(line).expect("writes through the codec");
        }
        let mut w = SnapWriter::new();
        check.save_state(&mut w);
        w.into_bytes()
    }

    fn restore(bytes: &[u8]) -> Result<DataCheck, WomPcmError> {
        let mut check = data_check();
        let mut r = SnapReader::new(bytes);
        check.load_state(&mut r)?;
        r.finish()?;
        Ok(check)
    }

    #[test]
    fn data_check_restore_validates_reference_sequence_numbers() {
        let bytes = saved_check();
        let restored = restore(&bytes).expect("restores");
        let references: Vec<(u64, u64)> = restored
            .expected
            .iter()
            .map(|(line, &seq)| (line, seq))
            .collect();
        assert_eq!(references, vec![(1, 3), (2, 2), (64, 4)]);
        assert_eq!(restored.seq, 4);

        // The payload ends with the references (a count, then each line
        // and its sequence number) and the write and read counters.
        let tail: Vec<u8> = [3u64, 1, 3, 2, 2, 64, 4, 4, 0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        assert!(bytes.ends_with(&tail), "8 bytes per reference");
        // Line 2's reference as write 0, which no write has, or as one
        // the saved counter has not reached.
        let at = bytes.len() - 5 * 8;
        for seq in [0u64, 5] {
            let mut tampered = bytes.clone();
            tampered[at..at + 8].copy_from_slice(&seq.to_le_bytes());
            let err = restore(&tampered).expect_err("reference out of range");
            assert!(
                matches!(err, WomPcmError::Snapshot(SnapshotError::Corrupt(_))),
                "seq {seq}: {err:?}"
            );
        }
    }
}
