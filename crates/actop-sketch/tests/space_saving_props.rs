//! Property tests for the Space-Saving sketch guarantees, plus differential
//! tests holding the lazy-min, dead-slot implementation bit-for-bit equal
//! to the original `BTreeSet<(count, slot)>` implementation it replaced,
//! which compacts its slots on every `retain`, `remove` and `scale`.

use std::collections::HashMap;

use actop_sketch::SpaceSaving;
use proptest::prelude::*;

/// The pre-optimization Space-Saving implementation, kept verbatim as the
/// reference for the differential test below. Its `BTreeSet<(count, slot)>`
/// min-tracking defines the eviction order (smallest count, then smallest
/// slot index) that the lazy-min fast path must reproduce exactly —
/// eviction choices feed the partitioner and are replay-semantic.
mod reference {
    use std::collections::{BTreeSet, HashMap};
    use std::hash::Hash;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SketchEntry<T> {
        pub item: T,
        pub count: u64,
        pub error: u64,
    }

    #[derive(Debug, Clone)]
    pub struct SpaceSaving<T> {
        capacity: usize,
        slots: Vec<SketchEntry<T>>,
        index: HashMap<T, usize>,
        by_count: BTreeSet<(u64, usize)>,
        total_weight: u64,
    }

    impl<T: Eq + Hash + Clone> SpaceSaving<T> {
        pub fn new(capacity: usize) -> Self {
            assert!(capacity > 0, "sketch capacity must be positive");
            SpaceSaving {
                capacity,
                slots: Vec::new(),
                index: HashMap::new(),
                by_count: BTreeSet::new(),
                total_weight: 0,
            }
        }

        pub fn total_weight(&self) -> u64 {
            self.total_weight
        }

        pub fn offer(&mut self, item: T, weight: u64) {
            if weight == 0 {
                return;
            }
            self.total_weight += weight;
            if let Some(&slot) = self.index.get(&item) {
                let old = self.slots[slot].count;
                self.by_count.remove(&(old, slot));
                self.slots[slot].count = old + weight;
                self.by_count.insert((old + weight, slot));
                return;
            }
            if self.slots.len() < self.capacity {
                let slot = self.slots.len();
                self.slots.push(SketchEntry {
                    item: item.clone(),
                    count: weight,
                    error: 0,
                });
                self.index.insert(item, slot);
                self.by_count.insert((weight, slot));
                return;
            }
            let &(min_count, slot) = self.by_count.iter().next().expect("sketch full");
            self.by_count.remove(&(min_count, slot));
            let evicted = std::mem::replace(
                &mut self.slots[slot],
                SketchEntry {
                    item: item.clone(),
                    count: min_count + weight,
                    error: min_count,
                },
            );
            self.index.remove(&evicted.item);
            self.index.insert(item, slot);
            self.by_count.insert((min_count + weight, slot));
        }

        pub fn scale(&mut self, factor: f64) {
            let old = std::mem::take(&mut self.slots);
            self.index.clear();
            self.by_count.clear();
            self.total_weight = (self.total_weight as f64 * factor) as u64;
            for entry in old {
                let count = (entry.count as f64 * factor) as u64;
                if count == 0 {
                    continue;
                }
                let error = (entry.error as f64 * factor) as u64;
                let slot = self.slots.len();
                self.index.insert(entry.item.clone(), slot);
                self.by_count.insert((count, slot));
                self.slots.push(SketchEntry {
                    item: entry.item,
                    count,
                    error,
                });
            }
        }

        pub fn remove(&mut self, item: &T) {
            let Some(slot) = self.index.remove(item) else {
                return;
            };
            let count = self.slots[slot].count;
            self.by_count.remove(&(count, slot));
            let last = self.slots.len() - 1;
            if slot != last {
                let moved_count = self.slots[last].count;
                self.by_count.remove(&(moved_count, last));
                self.slots.swap(slot, last);
                self.index.insert(self.slots[slot].item.clone(), slot);
                self.by_count.insert((moved_count, slot));
            }
            self.slots.pop();
        }

        pub fn retain(&mut self, mut pred: impl FnMut(&T) -> bool) {
            let old = std::mem::take(&mut self.slots);
            self.index.clear();
            self.by_count.clear();
            for entry in old {
                if !pred(&entry.item) {
                    continue;
                }
                let slot = self.slots.len();
                self.index.insert(entry.item.clone(), slot);
                self.by_count.insert((entry.count, slot));
                self.slots.push(entry);
            }
        }

        pub fn len(&self) -> usize {
            self.slots.len()
        }

        pub fn estimate(&self, item: &T) -> Option<(u64, u64)> {
            self.index
                .get(item)
                .map(|&slot| (self.slots[slot].count, self.slots[slot].error))
        }

        /// Entries in slot order (mirrors `SpaceSaving::iter_entries`).
        pub fn slot_entries(&self) -> Vec<(T, u64, u64)> {
            self.slots
                .iter()
                .map(|e| (e.item.clone(), e.count, e.error))
                .collect()
        }
    }
}

/// One step of a randomized workload applied to both implementations.
#[derive(Debug, Clone)]
enum Op {
    Offer(u8, u8),
    Remove(u8),
    RetainAbove(u8),
    Scale,
}

/// Weighted op mix via a selector (the vendored proptest has no
/// `prop_oneof`): offers dominate, with occasional structural mutations.
fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..11, 0u8..30, 0u8..6).prop_map(|(kind, item, w)| match kind {
        0..=7 => Op::Offer(item, w),
        8 => Op::Remove(item),
        9 => Op::RetainAbove(item),
        _ => Op::Scale,
    })
}

/// One step of a migration-shaped workload over `(local, peer)` edge
/// items, the key type of the runtime's per-server edge sketch.
#[derive(Debug, Clone)]
enum PairOp {
    Offer((u8, u8), u8),
    Remove((u8, u8)),
    /// Drop every `(a, _)` edge: actor `a` migrated away.
    RetainLocal(u8),
    Scale,
}

/// Offers dominate; migrations (`RetainLocal`) are frequent enough that
/// evictions regularly follow retains and compactions at small capacities.
fn arb_pair_op() -> impl Strategy<Value = PairOp> {
    (0u8..16, 0u8..6, 0u8..6, 0u8..5).prop_map(|(kind, a, b, w)| match kind {
        0..=10 => PairOp::Offer((a, b), w),
        11 => PairOp::Remove((a, b)),
        12..=14 => PairOp::RetainLocal(a),
        _ => PairOp::Scale,
    })
}

/// One step of an index-growth workload over `(u16, u16)` pair keys:
/// enough distinct keys that a capacity-64+ sketch grows its index
/// several times, with every structural operation interleaved.
#[derive(Debug, Clone)]
enum GrowOp {
    Offer((u16, u16), u8),
    Remove((u16, u16)),
    RetainLocal(u16),
    Scale,
    Clear,
}

/// 48 locals × 6 peers, spread over the `u16` range so neighbouring keys
/// do not share hash structure.
fn grow_key(a: u16, b: u16) -> (u16, u16) {
    (a.wrapping_mul(1_361), b.wrapping_mul(7_919))
}

/// Offers dominate (fresh keys insert, then evict once the sketch is
/// full); a clear every ~200 steps restarts the fill over the index's
/// existing table.
fn arb_grow_op() -> impl Strategy<Value = GrowOp> {
    (0u16..200, 0u16..48, 0u16..6, 1u8..5).prop_map(|(kind, a, b, w)| match kind {
        0..=179 => GrowOp::Offer(grow_key(a, b), w),
        180..=189 => GrowOp::Remove(grow_key(a, b)),
        190..=195 => GrowOp::RetainLocal(grow_key(a, 0).0),
        196..=198 => GrowOp::Scale,
        _ => GrowOp::Clear,
    })
}

/// Asserts that every observable of `new` equals the reference's: slot
/// order, size, per-item estimates over `universe`, the sorted entry list,
/// the sustained heavy hitters, and the total weight.
fn assert_same<T>(
    new: &SpaceSaving<T>,
    old: &reference::SpaceSaving<T>,
    universe: &[T],
    step: &dyn std::fmt::Debug,
) where
    T: Eq + std::hash::Hash + Clone + std::fmt::Debug,
{
    let old_slots = old.slot_entries();
    let new_slots: Vec<(T, u64, u64)> = new
        .iter_entries()
        .map(|e| (e.item.clone(), e.count, e.error))
        .collect();
    prop_assert_eq!(&new_slots, &old_slots, "slots after {:?}", step);
    prop_assert_eq!(new.len(), old.len(), "len after {:?}", step);
    prop_assert_eq!(new.is_empty(), old.len() == 0, "is_empty after {:?}", step);
    for item in universe {
        prop_assert_eq!(
            new.estimate(item),
            old.estimate(item),
            "estimate of {:?} after {:?}",
            item,
            step
        );
    }
    let mut old_sorted = old_slots.clone();
    old_sorted.sort_by_key(|e| std::cmp::Reverse(e.1));
    let new_sorted: Vec<(T, u64, u64)> = new
        .entries()
        .into_iter()
        .map(|e| (e.item, e.count, e.error))
        .collect();
    prop_assert_eq!(&new_sorted, &old_sorted, "entries() after {:?}", step);
    let sustained: Vec<(T, u64, u64)> = new
        .sustained_heavy_hitters(0)
        .map(|e| (e.item.clone(), e.count, e.error))
        .collect();
    prop_assert_eq!(&sustained, &old_slots, "sustained(0) after {:?}", step);
    prop_assert_eq!(new.total_weight(), old.total_weight());
}

/// Replays a stream into both the sketch and an exact counter.
fn replay(capacity: usize, stream: &[(u8, u8)]) -> (SpaceSaving<u8>, HashMap<u8, u64>) {
    let mut sketch = SpaceSaving::new(capacity);
    let mut exact: HashMap<u8, u64> = HashMap::new();
    for &(item, w) in stream {
        let w = w as u64;
        sketch.offer(item, w);
        if w > 0 {
            *exact.entry(item).or_default() += w;
        }
    }
    (sketch, exact)
}

proptest! {
    /// Guarantee 1: estimate >= true count >= estimate - error.
    #[test]
    fn estimates_bracket_true_counts(
        capacity in 1usize..20,
        stream in proptest::collection::vec((0u8..40, 0u8..10), 0..300),
    ) {
        let (sketch, exact) = replay(capacity, &stream);
        for entry in sketch.entries() {
            let true_count = exact.get(&entry.item).copied().unwrap_or(0);
            prop_assert!(
                entry.count >= true_count,
                "item {} estimate {} < true {}", entry.item, entry.count, true_count
            );
            prop_assert!(
                entry.count - entry.error <= true_count,
                "item {} lower bound {} > true {}",
                entry.item, entry.count - entry.error, true_count
            );
        }
    }

    /// Guarantee 2: any item heavier than total/capacity is monitored.
    #[test]
    fn heavy_hitters_are_monitored(
        capacity in 1usize..20,
        stream in proptest::collection::vec((0u8..40, 0u8..10), 0..300),
    ) {
        let (sketch, exact) = replay(capacity, &stream);
        let threshold = sketch.total_weight() / capacity as u64;
        for (&item, &count) in &exact {
            if count > threshold {
                prop_assert!(
                    sketch.estimate(&item).is_some(),
                    "heavy item {item} (count {count} > threshold {threshold}) evicted"
                );
            }
        }
    }

    /// Count conservation: monitored counts sum to the total stream weight.
    #[test]
    fn counts_are_conserved(
        capacity in 1usize..20,
        stream in proptest::collection::vec((0u8..40, 0u8..10), 0..300),
    ) {
        let (sketch, _) = replay(capacity, &stream);
        let sum: u64 = sketch.entries().iter().map(|e| e.count).sum();
        prop_assert_eq!(sum, sketch.total_weight());
    }

    /// The sketch never exceeds its capacity.
    #[test]
    fn capacity_is_respected(
        capacity in 1usize..8,
        stream in proptest::collection::vec((0u8..255, 1u8..5), 0..200),
    ) {
        let (sketch, _) = replay(capacity, &stream);
        prop_assert!(sketch.len() <= sketch.capacity());
    }

    /// Differential: the lazy-min implementation tracks the old
    /// `BTreeSet<(count, slot)>` implementation slot-for-slot through an
    /// arbitrary interleaving of offers, removals, retains, and scaling.
    /// Slot-order equality is the strongest possible statement: it pins
    /// every eviction choice (count tie-breaks included), not just the
    /// monitored multiset.
    #[test]
    fn lazy_min_matches_btreeset_reference(
        capacity in 1usize..12,
        ops in proptest::collection::vec(arb_op(), 0..400),
    ) {
        let universe: Vec<u8> = (0..30).collect();
        let mut new = SpaceSaving::new(capacity);
        let mut old = reference::SpaceSaving::new(capacity);
        for op in &ops {
            match *op {
                Op::Offer(item, w) => {
                    new.offer(item, w as u64);
                    old.offer(item, w as u64);
                }
                Op::Remove(item) => {
                    new.remove(&item);
                    old.remove(&item);
                }
                Op::RetainAbove(bound) => {
                    new.retain(|&i| i >= bound);
                    old.retain(|&i| i >= bound);
                }
                Op::Scale => {
                    new.scale(0.5);
                    old.scale(0.5);
                }
            }
            assert_same(&new, &old, &universe, op);
        }
    }

    /// Differential over the migration shape: pair-keyed edges, whole
    /// actors dropped by `retain`, and capacities small enough that
    /// evictions run right after retains, dead-slot compactions, removals
    /// and scaling. Every observable must match the compacting reference
    /// after every step.
    #[test]
    fn dead_slots_match_compacting_reference(
        capacity in 1usize..16,
        ops in proptest::collection::vec(arb_pair_op(), 0..400),
    ) {
        let universe: Vec<(u8, u8)> =
            (0..6).flat_map(|a| (0..6).map(move |b| (a, b))).collect();
        let mut new = SpaceSaving::new(capacity);
        let mut old = reference::SpaceSaving::new(capacity);
        for op in &ops {
            match *op {
                PairOp::Offer(item, w) => {
                    new.offer(item, w as u64);
                    old.offer(item, w as u64);
                }
                PairOp::Remove(item) => {
                    new.remove(&item);
                    old.remove(&item);
                }
                PairOp::RetainLocal(a) => {
                    new.retain(|&(local, _)| local != a);
                    old.retain(|&(local, _)| local != a);
                }
                PairOp::Scale => {
                    new.scale(0.5);
                    old.scale(0.5);
                }
            }
            assert_same(&new, &old, &universe, op);
        }
    }

    /// Removing arbitrary items keeps the index consistent: every remaining
    /// entry is still queryable with the same estimate.
    #[test]
    fn removal_keeps_consistency(
        stream in proptest::collection::vec((0u8..20, 1u8..5), 0..100),
        removals in proptest::collection::vec(0u8..20, 0..10),
    ) {
        let (mut sketch, _) = replay(8, &stream);
        for item in &removals {
            sketch.remove(item);
        }
        for entry in sketch.entries() {
            prop_assert_eq!(
                sketch.estimate(&entry.item),
                Some((entry.count, entry.error))
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential over index growth: pair keys, capacities of 64 and up
    /// (so the index grows through several table sizes), and offers,
    /// evictions, `remove`, `retain`, `scale` and `clear` interleaved.
    /// Slots must match the reference slot for slot after every step,
    /// and every key's estimate at checkpoints and at the end.
    #[test]
    fn index_growth_matches_reference(
        capacity in 64usize..160,
        ops in proptest::collection::vec(arb_grow_op(), 600..1_200),
    ) {
        let universe: Vec<(u16, u16)> =
            (0..48).flat_map(|a| (0..6).map(move |b| grow_key(a, b))).collect();
        let mut new = SpaceSaving::new(capacity);
        let mut old = reference::SpaceSaving::new(capacity);
        let mut growths = 0;
        for (step, op) in ops.iter().enumerate() {
            let bytes = new.index_bytes();
            let touched = match *op {
                GrowOp::Offer(item, w) => {
                    new.offer(item, w as u64);
                    old.offer(item, w as u64);
                    Some(item)
                }
                GrowOp::Remove(item) => {
                    new.remove(&item);
                    old.remove(&item);
                    Some(item)
                }
                GrowOp::RetainLocal(a) => {
                    new.retain(|&(local, _)| local != a);
                    old.retain(|&(local, _)| local != a);
                    None
                }
                GrowOp::Scale => {
                    new.scale(0.5);
                    old.scale(0.5);
                    None
                }
                GrowOp::Clear => {
                    new.clear();
                    old = reference::SpaceSaving::new(capacity);
                    None
                }
            };
            let new_slots: Vec<((u16, u16), u64, u64)> = new
                .iter_entries()
                .map(|e| (e.item, e.count, e.error))
                .collect();
            prop_assert_eq!(&new_slots, &old.slot_entries(), "slots after {:?}", op);
            prop_assert_eq!(new.len(), old.len(), "len after {:?}", op);
            prop_assert_eq!(new.total_weight(), old.total_weight());
            growths += usize::from(new.index_bytes() > bytes);
            if let Some(item) = touched {
                prop_assert_eq!(new.estimate(&item), old.estimate(&item), "after {:?}", op);
            }
            if step % 64 == 63 || step + 1 == ops.len() {
                for item in &universe {
                    prop_assert_eq!(new.estimate(item), old.estimate(item), "{:?}", item);
                }
            }
        }
        prop_assert!(growths >= 3, "the index grew only {} times", growths);
    }
}

/// The index allocates at most 16 bytes per live key at the halo-actop
/// edge-sketch shape: 4,300 live `(local, peer)` keys in a 16,384-slot
/// sketch. (An `FxHashMap<(u64, u64), usize>` index takes ~47.)
#[test]
fn index_footprint_at_4300_live_pair_keys() {
    const LIVE: u64 = 4_300;
    let mut sketch: SpaceSaving<(u64, u64)> = SpaceSaving::new(16_384);
    for i in 0..LIVE {
        sketch.offer((i / 8, 100_000 + i * 7_919), 1 + i % 7);
    }
    assert_eq!(sketch.len(), LIVE as usize);
    let per_key = sketch.index_bytes() as f64 / LIVE as f64;
    assert!(per_key <= 16.0, "{per_key:.1} index bytes per live key");
}
