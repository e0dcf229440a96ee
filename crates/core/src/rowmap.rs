//! Page-grained row-state store: the shared map behind every hot-path
//! row-keyed structure.
//!
//! Trace-driven PCM simulation touches per-row metadata once (or more)
//! per record: WOM rewrite budgets, functional wit buffers, data-check
//! references, hidden-page mappings. A `std::HashMap` serves each of
//! those lookups with a SipHash over the key and a probe into a
//! cache-unfriendly table — per record, that hash dominates once the
//! row codec is fast. Real traces, however, have dense spatial
//! locality: consecutive records hit the same row or its neighbours,
//! and row ids are clustered (per bank, per rank). [`RowMap`] exploits
//! that with a two-level radix layout, the same reason DRAMSim2-style
//! substrates keep per-bank state in dense arrays.
//!
//! Layout: a key is split into a *page id* (`key >> 9`) and a *slot*
//! (`key & 511`). Leaf pages are dense 512-slot arrays living in an
//! arena; a sparse, ordered directory maps page ids to arena indexes.
//! A small direct-mapped cache remembers recently touched pages, so
//! the common cases — the next record lands on the same 512-row
//! neighbourhood, or the trace round-robins a few dozen banks whose
//! rows live on different pages — cost a multiply, a compare, and two
//! array indexes: no hashing of the full key, no tree walk. Iteration
//! follows the ordered directory and then each page's occupancy bitmap,
//! so it visits only stored entries (a snapshot of a few rows per page
//! does not scan 512 slots per page) and is deterministic in ascending
//! key order (a repo invariant: anything that influences simulated
//! behaviour must iterate deterministically; see `EngineCore`).
//!
//! When *not* to use it: keys with no spatial clustering (uniformly
//! random u64s) still work but allocate a 512-slot page per key in the
//! worst case — a plain map is the better fit for such cold-path,
//! structureless key sets.

use pcm_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::cell::Cell;
use std::collections::BTreeMap;

/// log2 of the leaf-page size: 512 slots per page.
const PAGE_BITS: u32 = 9;
/// Slots per leaf page.
const PAGE_SLOTS: usize = 1 << PAGE_BITS;
/// Cache sentinel: no page id can equal `u64::MAX` because page ids are
/// keys shifted right by [`PAGE_BITS`].
const NO_PAGE: u64 = u64::MAX;
/// log2 of the page-cache ways. `flat_row` keys put the bank in the
/// high bits, so a bank-interleaved trace cycles through one active
/// page per bank and a single-entry cache would thrash on every access.
/// 1024 ways (16 KiB) covers the paper's 16-rank × 32-bank channel —
/// 512 concurrently active pages — with headroom for hash collisions.
const CACHE_BITS: u32 = 10;
/// Direct-mapped page-cache entries.
const CACHE_WAYS: usize = 1 << CACHE_BITS;

/// 64-bit words in a leaf page's occupancy bitmap.
const OCCUPANCY_WORDS: usize = PAGE_SLOTS / 64;

/// One leaf page's occupancy bitmap: bit `slot % 64` of word `slot / 64`
/// is set iff the slot holds a value.
type Occupancy = [u64; OCCUPANCY_WORDS];

/// Sets or clears `slot`'s bit in the bitmap of arena page `idx`.
#[inline]
fn set_occupied(bitmaps: &mut [Occupancy], idx: usize, slot: usize, occupied: bool) {
    if let Some(word) = bitmaps.get_mut(idx).and_then(|b| b.get_mut(slot / 64)) {
        let bit = 1 << (slot % 64);
        if occupied {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }
}

/// Positions of the set bits of `word`, lowest first.
#[inline]
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = word.trailing_zeros() as usize;
        word &= word.wrapping_sub(1);
        (bit < 64).then_some(bit)
    })
}

/// Occupied slots of one page, ascending.
fn occupied_slots(bitmap: &Occupancy) -> impl Iterator<Item = usize> + '_ {
    bitmap
        .iter()
        .enumerate()
        .flat_map(|(w, &word)| set_bits(word).map(move |bit| w * 64 + bit))
}

/// A map from `u64` row ids to `T`, tuned for the dense, clustered key
/// distributions of trace-driven simulation.
///
/// Two-level radix structure: a sparse ordered directory of dense
/// 512-slot leaf pages, with a direct-mapped cache of recently touched
/// pages. Lookups on a cached page cost a multiply, a compare, and two
/// indexes; cache misses fall back to an ordered-map walk. Iteration is
/// always in ascending key order.
///
/// ```
/// use wom_pcm::rowmap::RowMap;
///
/// let mut map: RowMap<u32> = RowMap::new();
/// *map.get_or_insert_with(7, || 0) += 1;
/// map.insert(520, 9); // a different leaf page
/// assert_eq!(map.get(7), Some(&1));
/// assert_eq!(map.len(), 2);
/// let keys: Vec<u64> = map.iter().map(|(k, _)| k).collect();
/// assert_eq!(keys, vec![7, 520], "iteration is key-ordered");
/// ```
#[derive(Debug, Clone)]
pub struct RowMap<T> {
    /// page id → arena index, ordered so iteration is deterministic.
    directory: BTreeMap<u64, u32>,
    /// Leaf-page arena of dense 512-slot pages. Pages are never freed
    /// individually (an emptied page is almost always re-touched —
    /// refresh erases a row and the workload rewrites it), only by
    /// [`clear`](Self::clear).
    pages: Vec<Box<[Option<T>]>>,
    /// The occupancy bitmap of each arena page, at the page's index.
    /// Iteration walks its set bits instead of all 512 slots; lookups
    /// never read it, so it lives apart from `pages`.
    occupied: Vec<Occupancy>,
    /// Direct-mapped cache of recently touched pages, each entry a
    /// `(page id, arena index)` pair. `Cell`s so read paths can refresh
    /// entries without `&mut self`; boxed so the map itself stays small
    /// to move.
    cache: Box<[Cell<(u64, u32)>]>,
    len: usize,
}

impl<T> Default for RowMap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RowMap<T> {
    /// Creates an empty map (no pages allocated).
    #[must_use]
    pub fn new() -> Self {
        Self {
            directory: BTreeMap::new(),
            pages: Vec::new(),
            occupied: Vec::new(),
            cache: (0..CACHE_WAYS).map(|_| Cell::new((NO_PAGE, 0))).collect(),
            len: 0,
        }
    }

    /// Entries stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Leaf pages allocated (diagnostic; includes emptied pages that are
    /// kept for reuse).
    #[must_use]
    pub fn pages_allocated(&self) -> usize {
        self.pages.len()
    }

    #[inline]
    fn split(key: u64) -> (u64, usize) {
        (key >> PAGE_BITS, (key & (PAGE_SLOTS as u64 - 1)) as usize)
    }

    /// Page-cache way for `page`: a multiplicative (Fibonacci) hash, so
    /// page ids differing only in high bits — distinct banks under the
    /// `flat_row` packing — spread across the ways.
    #[inline]
    fn cache_way(page: u64) -> usize {
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - CACHE_BITS)) as usize
    }

    /// Arena index of `page`, consulting the page cache first.
    #[inline]
    fn find_page(&self, page: u64) -> Option<u32> {
        let way = &self.cache[Self::cache_way(page)];
        let (cached_page, cached_idx) = way.get();
        if cached_page == page {
            return Some(cached_idx);
        }
        let idx = *self.directory.get(&page)?;
        way.set((page, idx));
        Some(idx)
    }

    /// Arena index of `page`, allocating a fresh leaf if absent.
    #[inline]
    fn find_or_alloc_page(&mut self, page: u64) -> u32 {
        if let Some(idx) = self.find_page(page) {
            return idx;
        }
        let idx = u32::try_from(self.pages.len()).expect("fewer than 2^32 leaf pages");
        // womlint::allow(hotpath/transitive, reason = "one allocation per 512-row page, amortized across every row it hosts")
        self.pages.push((0..PAGE_SLOTS).map(|_| None).collect());
        self.occupied.push([0; OCCUPANCY_WORDS]);
        self.directory.insert(page, idx);
        self.cache[Self::cache_way(page)].set((page, idx));
        idx
    }

    /// Returns a reference to the value at `key`.
    #[inline]
    #[must_use]
    pub fn get(&self, key: u64) -> Option<&T> {
        let (page, slot) = Self::split(key);
        let idx = self.find_page(page)?;
        self.pages[idx as usize][slot].as_ref()
    }

    /// Returns a mutable reference to the value at `key`.
    #[inline]
    #[must_use]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        let (page, slot) = Self::split(key);
        let idx = self.find_page(page)?;
        self.pages[idx as usize][slot].as_mut()
    }

    /// True when `key` has a value.
    #[must_use]
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Returns the value at `key`, inserting `default()` first when the
    /// slot is vacant — the `entry`-style hook for materialize-on-first-
    /// touch state tables.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: u64, default: impl FnOnce() -> T) -> &mut T {
        let (page, slot) = Self::split(key);
        let idx = self.find_or_alloc_page(page) as usize;
        match &mut self.pages[idx][slot] {
            Some(value) => value,
            entry @ None => {
                let value = entry.insert(default());
                set_occupied(&mut self.occupied, idx, slot, true);
                self.len += 1;
                value
            }
        }
    }

    /// Inserts `value` at `key`, returning the previous value if any.
    #[inline]
    pub fn insert(&mut self, key: u64, value: T) -> Option<T> {
        let (page, slot) = Self::split(key);
        let idx = self.find_or_alloc_page(page) as usize;
        let old = self.pages[idx][slot].replace(value);
        if old.is_none() {
            set_occupied(&mut self.occupied, idx, slot, true);
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value at `key`. The leaf page stays
    /// allocated for reuse.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let (page, slot) = Self::split(key);
        let idx = self.find_page(page)? as usize;
        let old = self.pages[idx][slot].take();
        if old.is_some() {
            set_occupied(&mut self.occupied, idx, slot, false);
            self.len -= 1;
        }
        old
    }

    /// Drops every entry and every page.
    pub fn clear(&mut self) {
        self.directory.clear();
        self.pages.clear();
        self.occupied.clear();
        for way in self.cache.iter() {
            way.set((NO_PAGE, 0));
        }
        self.len = 0;
    }

    /// Keeps only the entries for which `f` returns true, visiting them
    /// in ascending key order.
    pub fn retain(&mut self, mut f: impl FnMut(u64, &mut T) -> bool) {
        let mut removed = 0usize;
        for (&page, &idx) in &self.directory {
            let idx = idx as usize;
            let (Some(slots), Some(bitmap)) = (self.pages.get_mut(idx), self.occupied.get_mut(idx))
            else {
                continue;
            };
            for (w, word) in bitmap.iter_mut().enumerate() {
                for bit in set_bits(*word) {
                    let slot = w * 64 + bit;
                    let Some(value) = slots.get_mut(slot) else {
                        continue;
                    };
                    let keep = match value {
                        Some(v) => f((page << PAGE_BITS) | slot as u64, v),
                        None => continue,
                    };
                    if !keep {
                        *value = None;
                        *word &= !(1 << bit);
                        removed += 1;
                    }
                }
            }
        }
        self.len -= removed;
    }

    /// Iterates `(key, &value)` in ascending key order, visiting only
    /// occupied slots.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.directory.iter().flat_map(move |(&page, &idx)| {
            let leaf = self.pages.get(idx as usize);
            let bitmap = self.occupied.get(idx as usize);
            leaf.zip(bitmap)
                .into_iter()
                .flat_map(move |(slots, bitmap)| {
                    occupied_slots(bitmap).filter_map(move |slot| {
                        let value = slots.get(slot)?.as_ref()?;
                        Some(((page << PAGE_BITS) | slot as u64, value))
                    })
                })
        })
    }

    /// Iterates stored values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// Writes the entry count, then each key in ascending order followed
    /// by what `value` writes for its value.
    pub fn save_with(&self, w: &mut SnapWriter, mut value: impl FnMut(&mut SnapWriter, u64, &T)) {
        w.put(&self.len);
        for (key, v) in self.iter() {
            w.put(&key);
            value(w, key, v);
        }
    }

    /// Decodes a map written by [`save_with`](Self::save_with), with
    /// `value` decoding each key's value; the count is bounded by
    /// `min_value_bytes` plus the key before any page is built.
    ///
    /// # Errors
    ///
    /// Whatever the reader or `value` returns, and [`SnapError::Corrupt`]
    /// for a key not above the one before it (a saved map is ascending).
    pub fn load_with(
        r: &mut SnapReader<'_>,
        min_value_bytes: usize,
        mut value: impl FnMut(&mut SnapReader<'_>, u64) -> Result<T, SnapError>,
    ) -> Result<Self, SnapError> {
        let len = r.take_len(u64::MIN_BYTES + min_value_bytes)?;
        let mut map = Self::new();
        let mut prev = None;
        for _ in 0..len {
            let key: u64 = r.take()?;
            if prev.is_some_and(|p| p >= key) {
                return Err(SnapError::Corrupt("row keys not strictly ascending"));
            }
            prev = Some(key);
            let v = value(r, key)?;
            map.insert(key, v);
        }
        Ok(map)
    }
}

/// Entries in ascending key order (see [`RowMap::save_with`]).
impl<T: Snap> Snap for RowMap<T> {
    const MIN_BYTES: usize = usize::MIN_BYTES;

    fn save_state(&self, w: &mut SnapWriter) {
        self.save_with(w, |w, _, v| w.put(v));
    }

    fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Self::load_with(r, T::MIN_BYTES, |r, _| r.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map() {
        let map: RowMap<u8> = RowMap::new();
        assert_eq!(map.len(), 0);
        assert!(map.is_empty());
        assert_eq!(map.get(0), None);
        assert_eq!(map.iter().count(), 0);
        assert_eq!(map.pages_allocated(), 0);
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut map = RowMap::new();
        assert_eq!(map.insert(3, "a"), None);
        assert_eq!(map.insert(3, "b"), Some("a"));
        assert_eq!(map.len(), 1);
        assert_eq!(map.get(3), Some(&"b"));
        assert_eq!(map.remove(3), Some("b"));
        assert_eq!(map.remove(3), None);
        assert!(map.is_empty());
    }

    #[test]
    fn keys_sharing_a_page_share_its_allocation() {
        let mut map = RowMap::new();
        for k in 0..512u64 {
            map.insert(k, k);
        }
        assert_eq!(map.pages_allocated(), 1);
        map.insert(512, 512);
        assert_eq!(map.pages_allocated(), 2);
        assert_eq!(map.len(), 513);
    }

    #[test]
    fn get_or_insert_with_materializes_once() {
        let mut map = RowMap::new();
        let mut calls = 0;
        *map.get_or_insert_with(9, || {
            calls += 1;
            10u32
        }) += 1;
        *map.get_or_insert_with(9, || {
            calls += 1;
            10u32
        }) += 1;
        assert_eq!(calls, 1);
        assert_eq!(map.get(9), Some(&12));
    }

    #[test]
    fn iteration_is_key_ordered_across_pages() {
        let mut map = RowMap::new();
        for &k in &[5000u64, 3, 511, 512, 1024, 4] {
            map.insert(k, ());
        }
        let keys: Vec<u64> = map.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![3, 4, 511, 512, 1024, 5000]);
    }

    #[test]
    fn retain_drops_by_key_and_value() {
        let mut map = RowMap::new();
        for k in 0..1000u64 {
            map.insert(k, k as u32);
        }
        map.retain(|k, v| k % 2 == 0 && *v < 500);
        assert_eq!(map.len(), 250);
        assert!(map.iter().all(|(k, &v)| k % 2 == 0 && v < 500));
    }

    #[test]
    fn clear_releases_pages() {
        let mut map = RowMap::new();
        map.insert(1, 1u8);
        map.insert(100_000, 2u8);
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.pages_allocated(), 0);
        assert_eq!(map.get(1), None);
        // The map is fully reusable after a clear.
        map.insert(1, 3u8);
        assert_eq!(map.get(1), Some(&3));
    }

    #[test]
    fn extreme_keys() {
        let mut map = RowMap::new();
        map.insert(u64::MAX, 1u8);
        map.insert(0, 2u8);
        assert_eq!(map.get(u64::MAX), Some(&1));
        assert_eq!(map.get(u64::MAX - 1), None);
        let keys: Vec<u64> = map.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![0, u64::MAX]);
    }

    #[test]
    fn removed_slots_leave_the_page_for_reuse() {
        let mut map = RowMap::new();
        map.insert(7, 1u8);
        map.remove(7);
        assert_eq!(map.pages_allocated(), 1);
        map.insert(8, 2u8);
        assert_eq!(map.pages_allocated(), 1, "page 0 is reused");
    }

    #[test]
    fn occupancy_bitmaps_track_every_slot() {
        let mut rng = pcm_rng::Rng::seed_from_u64(16);
        let mut map = RowMap::new();
        for op in 0..4000u64 {
            let key = rng.gen_below(3 * PAGE_SLOTS as u64);
            match rng.gen_below(16) {
                0..=5 => {
                    map.insert(key, op);
                }
                6..=9 => {
                    map.get_or_insert_with(key, || op);
                }
                10..=14 => {
                    map.remove(key);
                }
                _ => map.retain(|k, v| (k ^ *v) % 5 != 0),
            }
            for (slots, bitmap) in map.pages.iter().zip(&map.occupied) {
                for (slot, value) in slots.iter().enumerate() {
                    let bit = bitmap[slot / 64] >> (slot % 64) & 1;
                    assert_eq!(bit == 1, value.is_some(), "op {op}, slot {slot}");
                }
            }
        }
        assert!(!map.is_empty(), "the sequence leaves entries to check");
    }

    #[test]
    fn snapshots_round_trip_in_key_order() {
        let mut map = RowMap::new();
        for k in [5000u64, 3, 511, 512] {
            map.insert(k, k as u32);
        }
        let mut w = SnapWriter::new();
        w.put(&map);
        let bytes = w.into_bytes();
        let mut expected = SnapWriter::new();
        expected.put(&vec![(3u64, 3u32), (511, 511), (512, 512), (5000, 5000)]);
        assert_eq!(
            bytes,
            expected.into_bytes(),
            "count, then (key, value) pairs"
        );
        let back: RowMap<u32> = SnapReader::new(&bytes).take().unwrap();
        assert_eq!(
            back.iter().collect::<Vec<_>>(),
            map.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn repeated_or_descending_snapshot_keys_are_corrupt() {
        for keys in [&[4u64, 4][..], &[9, 2], &[1, 600, 600], &[1, 1024, 513]] {
            let mut w = SnapWriter::new();
            w.put(&keys.iter().map(|&k| (k, 7u32)).collect::<Vec<_>>());
            let bytes = w.into_bytes();
            assert_eq!(
                SnapReader::new(&bytes).take::<RowMap<u32>>().err(),
                Some(SnapError::Corrupt("row keys not strictly ascending")),
                "keys {keys:?}"
            );
        }
    }

    #[test]
    fn clone_is_independent() {
        let mut a = RowMap::new();
        a.insert(1, 1u8);
        let mut b = a.clone();
        b.insert(2, 2u8);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
    }
}
