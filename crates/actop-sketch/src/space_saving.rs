//! The Space-Saving heavy-hitter sketch with weighted updates.
//!
//! The sketch monitors at most `capacity` items. An update to a monitored
//! item increments its counter; an update to an unmonitored item evicts the
//! item with the smallest counter and inherits that counter as the new
//! item's overestimation error. Two classic guarantees follow (and are
//! enforced by this module's property tests):
//!
//! 1. `estimate >= true_count >= estimate - error` for every monitored item;
//! 2. every item with true count greater than `total_weight / capacity` is
//!    monitored.
//!
//! A [`SpaceSaving::scale`] operation ages all counters multiplicatively so
//! the partitioner tracks the *recent* communication graph rather than its
//! full history — the property that matters for rapidly changing graphs.
//!
//! # Hot-path design
//!
//! `offer` runs twice per actor-to-actor message in the runtime, so its
//! common cases must be allocation-free and O(1):
//!
//! * **Monitored hit** (the overwhelming majority once the sketch warms
//!   up): one index probe and a counter increment. Nothing else —
//!   min-tracking is *lazy*, so increments never touch it.
//! * **Eviction**: the minimum is tracked by a cached lower bound
//!   `min_count` plus a queue of candidate slots collected in slot order.
//!   Candidates whose counter has grown past `min_count` are skipped at
//!   pop time; when the queue runs dry the true minimum has risen and one
//!   O(capacity) rescan refills it. Each rescan collects *every* slot at
//!   the new minimum, so heavy-tailed streams (many slots at the minimum)
//!   amortize the scan across many evictions. The queue buffer is reused
//!   across rescans — steady-state eviction allocates nothing.
//!
//! The eviction *choice* — smallest count, then smallest slot index —
//! is identical to the previous `BTreeSet<(count, slot)>` implementation,
//! so replay output is bit-for-bit unchanged; the differential property
//! test in `tests/space_saving_props.rs` holds the two implementations
//! together.
//!
//! # Dead slots
//!
//! A migration drops every edge of one actor, a few slots out of
//! thousands. [`SpaceSaving::retain`] therefore marks a dropped slot dead
//! in place (`count == 0`; a live counter is always at least 1) and
//! removes only its key from the index, instead of rebuilding the whole
//! index. Every accessor skips dead slots. They are reclaimed by one
//! order-preserving compaction, which runs when a fresh insert finds the
//! slot vector at capacity, or when a `retain` leaves more dead slots than
//! a quarter of the live ones; it rewrites the index only for slots that
//! moved.
//!
//! Exactness: survivors keep their relative slot order and fresh inserts
//! still append, so the live slots always read exactly as the slots of an
//! implementation that compacts on every `retain`. Eviction happens only
//! when every slot is live (`len() == capacity`), so it picks the same
//! item (smallest count, then smallest slot). The cached minimum stays
//! valid across `retain`: removal cannot lower the minimum, and a dead
//! slot never equals the cached `min_count`, which is at least 1 whenever
//! candidates are queued.
//!
//! # The index
//!
//! Items map to slots through a private open-addressing table of 8-byte
//! buckets, each a `u32` slot number and a `u32` hash tag (the
//! `slot_index` module): the key itself lives only in `slots`. Linear
//! probing at load at most 3/4, deletion by backward shift (no
//! tombstones), and a tag compare before any slot read. At the halo-actop
//! edge-sketch shape (~4.3K live `(ActorId, ActorId)` keys) it allocates
//! 64 KiB, ~15 bytes per live key, where an `FxHashMap<T, usize>` took
//! ~200 KiB. Every index update names the slot it concerns, so eviction,
//! `remove`, `retain` and compaction find a bucket by tag and slot
//! number without comparing keys. `scale` still clears and refills the
//! index after its order-preserving pass: aging in place would leave the
//! zeroed slots dead, lengthening the slot vector until the quarter-rule
//! compaction, and a prototype of that raised halo-actop's peak RSS.
//! Nothing observes the index's order, so it changes no output.

use std::hash::Hash;

use crate::slot_index::{tag_of, SlotIndex};

/// A monitored item with its estimated weight and overestimation bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchEntry<T> {
    /// The monitored item.
    pub item: T,
    /// Estimated total weight (an overestimate).
    pub count: u64,
    /// Maximum overestimation: the true weight is at least `count - error`.
    pub error: u64,
}

/// Weighted Space-Saving sketch over items of type `T`.
///
/// # Examples
///
/// ```
/// use actop_sketch::SpaceSaving;
///
/// let mut sketch = SpaceSaving::new(2);
/// sketch.offer("a", 10);
/// sketch.offer("b", 5);
/// sketch.offer("c", 1); // evicts "b" (smallest), inherits its count
/// assert!(sketch.estimate(&"a").is_some());
/// assert_eq!(sketch.top_k(1)[0].item, "a");
/// ```
#[derive(Debug, Clone)]
pub struct SpaceSaving<T> {
    capacity: usize,
    slots: Vec<SketchEntry<T>>,
    /// Item → slot, for live slots only; keys live only in `slots`.
    index: SlotIndex,
    /// Lower bound on the minimum counter; exact whenever `min_queue`
    /// holds a slot whose counter still equals it.
    min_count: u64,
    /// Slot indices that had `count == min_count` at the last rescan, in
    /// ascending slot order. Consumed front-to-back via `min_cursor`;
    /// stale entries (counter since grown) are skipped at pop time.
    min_queue: Vec<usize>,
    /// Read position in `min_queue`.
    min_cursor: usize,
    /// Number of live slots (`count > 0`); `slots.len() - live` are dead.
    live: usize,
    total_weight: u64,
}

impl<T: Eq + Hash + Clone> SpaceSaving<T> {
    /// Creates a sketch monitoring at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `capacity >= u32::MAX` (the index
    /// stores slot numbers as `u32`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sketch capacity must be positive");
        assert!(
            capacity < u32::MAX as usize,
            "sketch capacity must be below u32::MAX, got {capacity}"
        );
        SpaceSaving {
            capacity,
            slots: Vec::with_capacity(capacity.min(4096)),
            index: SlotIndex::default(),
            min_count: 0,
            min_queue: Vec::new(),
            min_cursor: 0,
            live: 0,
            total_weight: 0,
        }
    }

    /// Maximum number of monitored items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently monitored items.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no item is monitored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total weight offered so far (after any [`SpaceSaving::scale`]).
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Bytes the item index allocates (its table only, not the slots).
    pub fn index_bytes(&self) -> usize {
        self.index.bytes()
    }

    /// The live slot holding `item`, if monitored.
    #[inline]
    fn find(&self, tag: u32, item: &T) -> Option<usize> {
        let slots = &self.slots;
        self.index.find(tag, |slot| slots[slot].item == *item)
    }

    /// Invalidates the cached minimum; the next eviction rescans.
    #[inline]
    fn invalidate_min(&mut self) {
        self.min_count = 0;
        self.min_queue.clear();
        self.min_cursor = 0;
    }

    /// The slot holding the minimum counter, breaking ties toward the
    /// smallest slot index (the same order the old `BTreeSet<(count,
    /// slot)>` structure produced). Amortized O(1); O(capacity) when the
    /// candidate queue must be rebuilt.
    fn take_min_slot(&mut self) -> (u64, usize) {
        loop {
            while self.min_cursor < self.min_queue.len() {
                let slot = self.min_queue[self.min_cursor];
                self.min_cursor += 1;
                // Counters only grow between rescans, so a candidate is
                // either still exactly at the cached minimum or stale.
                if self.slots[slot].count == self.min_count {
                    return (self.min_count, slot);
                }
            }
            // Queue exhausted: the true minimum rose. Rescan, collecting
            // every slot at the new minimum in ascending slot order.
            let min = self
                .slots
                .iter()
                .map(|e| e.count)
                .filter(|&c| c != 0)
                .min()
                .expect("take_min_slot on empty sketch");
            self.min_count = min;
            self.min_queue.clear();
            self.min_cursor = 0;
            for (slot, entry) in self.slots.iter().enumerate() {
                if entry.count == min {
                    self.min_queue.push(slot);
                }
            }
        }
    }

    /// Offers `weight` units of the item to the stream.
    #[inline]
    pub fn offer(&mut self, item: T, weight: u64) {
        if weight == 0 {
            return;
        }
        self.total_weight += weight;
        let tag = tag_of(&item);
        if let Some(slot) = self.find(tag, &item) {
            // Monitored hit: pure increment. Min-tracking is lazy — if
            // this slot sits in the candidate queue it becomes stale and
            // is skipped at the next eviction.
            self.slots[slot].count += weight;
            return;
        }
        self.offer_slow(item, tag, weight);
    }

    /// The unmonitored-item path: fill a free slot or evict the minimum.
    fn offer_slow(&mut self, item: T, tag: u32, weight: u64) {
        if self.live < self.capacity {
            if self.slots.len() == self.capacity {
                self.compact();
            }
            // A fresh slot may undercut the cached minimum; drop the
            // cache rather than splice the new slot into the queue.
            self.invalidate_min();
            self.live += 1;
            let slot = self.slots.len();
            self.slots.push(SketchEntry {
                item,
                count: weight,
                error: 0,
            });
            self.index.insert(tag, slot);
            return;
        }
        // Evict the minimum-count item; the newcomer inherits its count as
        // overestimation error. Every slot is live here (`live ==
        // capacity >= slots.len()`).
        let (min_count, slot) = self.take_min_slot();
        // The evicted key's bucket is found by its tag, so read the key
        // before the slot is overwritten.
        self.index.remove(tag_of(&self.slots[slot].item), slot);
        self.slots[slot] = SketchEntry {
            item,
            count: min_count + weight,
            error: min_count,
        };
        self.index.insert(tag, slot);
    }

    /// Estimated weight and error bound for an item, if monitored.
    pub fn estimate(&self, item: &T) -> Option<(u64, u64)> {
        self.find(tag_of(item), item)
            .map(|slot| (self.slots[slot].count, self.slots[slot].error))
    }

    /// Guaranteed lower bound on the item's true weight (0 if unmonitored).
    pub fn lower_bound(&self, item: &T) -> u64 {
        self.estimate(item).map(|(c, e)| c - e).unwrap_or(0)
    }

    /// Iterates over the monitored entries without cloning or sorting, in
    /// slot order (deterministic; *not* sorted by count). This is the
    /// hot-path accessor: the partition view builder
    /// (`actop_partition::PartitionView::fill`) consumes it and sorts the
    /// entries it keeps by `(local, peer)`.
    pub fn iter_entries(&self) -> impl Iterator<Item = &SketchEntry<T>> {
        self.slots.iter().filter(|e| e.count != 0)
    }

    /// All monitored entries, sorted by descending estimated count (ties by
    /// slot order, deterministically). Allocates; prefer
    /// [`SpaceSaving::iter_entries`] on hot paths.
    pub fn entries(&self) -> Vec<SketchEntry<T>> {
        let mut out: Vec<SketchEntry<T>> = self.iter_entries().cloned().collect();
        out.sort_by_key(|e| std::cmp::Reverse(e.count));
        out
    }

    /// The `k` heaviest monitored entries.
    pub fn top_k(&self, k: usize) -> Vec<SketchEntry<T>> {
        let mut out = self.entries();
        out.truncate(k);
        out
    }

    /// Monitored entries whose *guaranteed* weight (`count - error`)
    /// reaches `min_count`, in slot order (deterministic). Using the lower
    /// bound instead of the estimate means an item only qualifies once its
    /// own observed mass — not inherited eviction error — clears the bar,
    /// which is the right test for irreversible decisions like splitting a
    /// hot actor.
    pub fn sustained_heavy_hitters(&self, min_count: u64) -> impl Iterator<Item = &SketchEntry<T>> {
        self.iter_entries()
            .filter(move |e| e.count - e.error >= min_count)
    }

    /// Multiplies every counter (and error) by `factor` in `[0, 1]`,
    /// dropping entries that reach zero. Periodic scaling makes the sketch
    /// track the recent stream — essential for rapidly changing
    /// communication graphs.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `[0, 1]`.
    pub fn scale(&mut self, factor: f64) {
        assert!(
            (0.0..=1.0).contains(&factor),
            "scale factor must be in [0,1], got {factor}"
        );
        self.invalidate_min();
        self.total_weight = (self.total_weight as f64 * factor) as u64;
        // One order-preserving pass scales the live slots in place and
        // drops the zeroed and the dead ones, keeping the vector's
        // allocation. Aging zeroes many slots, so one index rebuild over
        // the survivors beats a removal per dropped key.
        self.slots.retain_mut(|entry| {
            if entry.count == 0 {
                return false; // Dead.
            }
            entry.count = (entry.count as f64 * factor) as u64;
            entry.error = (entry.error as f64 * factor) as u64;
            entry.count != 0
        });
        self.live = self.slots.len();
        self.index.clear();
        for (slot, entry) in self.slots.iter().enumerate() {
            self.index.insert(tag_of(&entry.item), slot);
        }
    }

    /// Removes an item from the sketch (e.g. after the corresponding actor
    /// migrated away). No-op if the item is not monitored.
    pub fn remove(&mut self, item: &T) {
        let slots = &self.slots;
        let Some(slot) = self
            .index
            .take(tag_of(item), |slot| slots[slot].item == *item)
        else {
            return;
        };
        // Trailing dead slots go first, so `last` is the last live slot
        // (at or after `slot`, which is live).
        while self.slots.last().is_some_and(|e| e.count == 0) {
            self.slots.pop();
        }
        let last = self.slots.len() - 1;
        // Move the last live entry into the vacated slot and fix the index.
        self.move_slot(last, slot);
        self.slots.pop();
        self.live -= 1;
        // Queued candidates now point at moved/removed slots.
        self.invalidate_min();
    }

    /// Keeps only the entries whose item satisfies the predicate (e.g.
    /// drop every edge of an actor that migrated away). Dropped slots die
    /// in place and only their keys leave the index: one predicate call
    /// per slot plus O(dropped) hashing. Compacts once dead slots outnumber
    /// a quarter of the live ones.
    pub fn retain(&mut self, mut pred: impl FnMut(&T) -> bool) {
        let mut dropped = 0;
        for (slot, entry) in self.slots.iter_mut().enumerate() {
            if entry.count != 0 && !pred(&entry.item) {
                entry.count = 0;
                self.index.remove(tag_of(&entry.item), slot);
                dropped += 1;
            }
        }
        self.live -= dropped;
        // Compacting at a quarter keeps the next scans short: every
        // `retain` reads every slot, dead ones included.
        if 4 * (self.slots.len() - self.live) > self.live {
            self.compact();
        }
    }

    /// Moves the live entry at slot `from` to slot `to` (swapping whatever
    /// was there to `from`) and repoints its index entry. No-op when the
    /// two coincide.
    #[inline]
    fn move_slot(&mut self, from: usize, to: usize) {
        if from != to {
            self.slots.swap(from, to);
            self.index.repoint(tag_of(&self.slots[to].item), from, to);
        }
    }

    /// Drops every dead slot, keeping the live ones in order. Only slots
    /// that move have their index entry rewritten.
    fn compact(&mut self) {
        let mut write = 0;
        for read in 0..self.slots.len() {
            if self.slots[read].count != 0 {
                self.move_slot(read, write);
                write += 1;
            }
        }
        self.slots.truncate(write);
        // Queued min candidates pointed at pre-compaction slots.
        self.invalidate_min();
    }

    /// Drops all state.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.index.clear();
        self.invalidate_min();
        self.live = 0;
        self.total_weight = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_capacity() {
        let mut s = SpaceSaving::new(10);
        s.offer("a", 3);
        s.offer("b", 5);
        s.offer("a", 2);
        assert_eq!(s.estimate(&"a"), Some((5, 0)));
        assert_eq!(s.estimate(&"b"), Some((5, 0)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_weight(), 10);
    }

    #[test]
    fn eviction_inherits_min_count() {
        let mut s = SpaceSaving::new(2);
        s.offer("a", 10);
        s.offer("b", 4);
        s.offer("c", 1);
        // "b" had the min count 4; "c" inherits it: count 5, error 4.
        assert_eq!(s.estimate(&"b"), None);
        assert_eq!(s.estimate(&"c"), Some((5, 4)));
        assert_eq!(s.lower_bound(&"c"), 1);
        assert_eq!(s.lower_bound(&"a"), 10);
    }

    #[test]
    fn eviction_ties_break_toward_lowest_slot() {
        // Three slots all at count 2: evictions must consume slots 0, 1, 2
        // in that order (the old BTreeSet<(count, slot)> order).
        let mut s = SpaceSaving::new(3);
        s.offer("a", 2);
        s.offer("b", 2);
        s.offer("c", 2);
        s.offer("x", 1); // evicts "a" (slot 0) -> slot 0 now count 3
        assert_eq!(s.estimate(&"a"), None);
        assert_eq!(s.estimate(&"x"), Some((3, 2)));
        s.offer("y", 1); // evicts "b" (slot 1)
        assert_eq!(s.estimate(&"b"), None);
        assert_eq!(s.estimate(&"y"), Some((3, 2)));
        s.offer("z", 1); // evicts "c" (slot 2)
        assert_eq!(s.estimate(&"c"), None);
        assert_eq!(s.estimate(&"z"), Some((3, 2)));
    }

    #[test]
    fn stale_min_candidates_are_skipped() {
        let mut s = SpaceSaving::new(3);
        s.offer("a", 1);
        s.offer("b", 1);
        s.offer("c", 1);
        s.offer("d", 1); // rescan: queue = [0,1,2]; evicts slot 0 ("a")
        assert_eq!(s.estimate(&"a"), None);
        // Grow slot 1 past the cached min; the queued candidate goes stale.
        s.offer("b", 10);
        s.offer("e", 1); // must skip stale slot 1 and evict slot 2 ("c")
        assert_eq!(s.estimate(&"c"), None);
        assert_eq!(s.estimate(&"b"), Some((11, 0)));
        assert_eq!(s.estimate(&"e"), Some((2, 1)));
    }

    #[test]
    fn fresh_insert_after_remove_resets_min() {
        let mut s = SpaceSaving::new(2);
        s.offer("a", 10);
        s.offer("b", 10);
        s.offer("c", 1); // evicts "a"; min cache now thinks min_count=10
        assert_eq!(s.estimate(&"a"), None);
        s.remove(&"b");
        s.offer("d", 1); // fresh slot at count 1 (below stale cache)
        s.offer("e", 5); // must evict "d" (count 1), NOT "c" (count 11)
        assert_eq!(s.estimate(&"d"), None);
        assert_eq!(s.estimate(&"e"), Some((6, 1)));
        assert!(s.estimate(&"c").is_some());
    }

    #[test]
    fn zero_weight_is_noop() {
        let mut s = SpaceSaving::new(2);
        s.offer("a", 0);
        assert!(s.is_empty());
        assert_eq!(s.total_weight(), 0);
    }

    #[test]
    fn top_k_sorted_desc() {
        let mut s = SpaceSaving::new(8);
        for (item, w) in [("a", 5), ("b", 9), ("c", 2), ("d", 7)] {
            s.offer(item, w);
        }
        let top = s.top_k(3);
        assert_eq!(
            top.iter().map(|e| e.item).collect::<Vec<_>>(),
            vec!["b", "d", "a"]
        );
    }

    #[test]
    fn iter_entries_is_slot_ordered_and_complete() {
        let mut s = SpaceSaving::new(8);
        for (item, w) in [("a", 5), ("b", 9), ("c", 2)] {
            s.offer(item, w);
        }
        let items: Vec<&str> = s.iter_entries().map(|e| e.item).collect();
        assert_eq!(items, vec!["a", "b", "c"]);
        let total: u64 = s.iter_entries().map(|e| e.count).sum();
        assert_eq!(total, s.total_weight());
    }

    #[test]
    fn heavy_hitter_survives_noise() {
        // One heavy item plus a stream of distinct light items; the heavy
        // item must remain monitored with a tight estimate.
        let mut s = SpaceSaving::new(50);
        for i in 0..10_000u64 {
            s.offer(format!("light-{i}"), 1);
            if i % 10 == 0 {
                s.offer("heavy".to_string(), 10);
            }
        }
        let (count, error) = s.estimate(&"heavy".to_string()).expect("monitored");
        let true_count = 10_000;
        assert!(count >= true_count, "estimate {count} >= true {true_count}");
        assert!(count - error <= true_count);
    }

    #[test]
    fn count_conservation() {
        // Sum of monitored counts equals total stream weight when every
        // update either increments a counter or inherits one.
        let mut s = SpaceSaving::new(4);
        let stream = [("a", 3), ("b", 1), ("c", 2), ("d", 5), ("e", 1), ("a", 2)];
        let total: u64 = stream.iter().map(|&(_, w)| w).sum();
        for (item, w) in stream {
            s.offer(item, w);
        }
        let sum: u64 = s.entries().iter().map(|e| e.count).sum();
        assert_eq!(sum, total);
        assert_eq!(s.total_weight(), total);
    }

    #[test]
    fn scale_ages_counts() {
        let mut s = SpaceSaving::new(4);
        s.offer("a", 100);
        s.offer("b", 1);
        s.scale(0.5);
        assert_eq!(s.estimate(&"a"), Some((50, 0)));
        // "b" scaled to 0 and was dropped.
        assert_eq!(s.estimate(&"b"), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.total_weight(), 50);
    }

    #[test]
    fn remove_keeps_structure_consistent() {
        let mut s = SpaceSaving::new(4);
        for (item, w) in [("a", 5), ("b", 9), ("c", 2)] {
            s.offer(item, w);
        }
        s.remove(&"b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.estimate(&"b"), None);
        // Remaining items intact and still updatable.
        s.offer("a", 1);
        assert_eq!(s.estimate(&"a"), Some((6, 0)));
        s.remove(&"zzz"); // no-op
        assert_eq!(s.len(), 2);
        // Eviction still works after removal.
        s.offer("d", 1);
        s.offer("e", 1);
        s.offer("f", 100);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn clear_resets() {
        let mut s = SpaceSaving::new(2);
        s.offer("a", 5);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.total_weight(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: SpaceSaving<u32> = SpaceSaving::new(0);
    }

    #[test]
    #[should_panic(expected = "capacity must be below u32::MAX")]
    fn capacity_beyond_u32_slot_numbers_panics() {
        let _: SpaceSaving<u32> = SpaceSaving::new(u32::MAX as usize);
    }

    #[test]
    fn sustained_heavy_hitters_use_lower_bound() {
        let mut s = SpaceSaving::new(2);
        s.offer("a", 100);
        s.offer("b", 5);
        // "c" evicts "b" and inherits its count as error: estimate 6,
        // lower bound 1 — not a sustained hitter at threshold 50.
        s.offer("c", 1);
        let hot: Vec<&str> = s.sustained_heavy_hitters(50).map(|e| e.item).collect();
        assert_eq!(hot, vec!["a"]);
        assert_eq!(s.sustained_heavy_hitters(101).count(), 0);
        // Threshold 0 admits every monitored entry.
        assert_eq!(s.sustained_heavy_hitters(0).count(), 2);
    }
}
