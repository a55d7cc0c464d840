//! The Space-Saving sketch's item index: a compact, tombstone-free
//! open-addressing table from an item's hash tag to its slot number.
//!
//! The sketch already stores every monitored item in its slot vector, so
//! the index stores no key. A bucket is 8 bytes: a `u32` hash tag and a
//! `u32` slot number. The tag is the low half of the item's [`FxHasher`]
//! hash with its top bit set, so a tag is never 0 and tag 0 marks an
//! empty bucket. The tag's low bits pick the item's home bucket (the
//! bits `std`'s `HashMap` also probes by; FxHash mixes sequential ids
//! into them without collisions), so the table can place, grow and shift
//! buckets from the tags alone, without reading a slot.
//!
//! * **Linear probing**, power-of-two size, load at most 3/4.
//! * **Tag first.** A probe compares the tag before it asks the caller
//!   whether the bucket's slot holds the item, so a tag mismatch never
//!   touches the slot vector.
//! * **Backward-shift deletion.** Removing a bucket pulls every later
//!   bucket of its probe run whose home lies at or before the hole back
//!   into it, wrapping past the table's end. The table never holds a
//!   tombstone, so a lookup stops at the first empty bucket and deletions
//!   never degrade later probes.
//!
//! The index is a pure lookup structure: nothing observes its order, so
//! the sketch's slot order, eviction choices and every output are the
//! same as with any other map. The table only grows; `clear` keeps it.
//!
//! [`FxHasher`]: crate::FxHasher

use std::hash::{BuildHasher, Hash};

use crate::fxmap::FxBuildHasher;

/// The tag of an empty bucket; [`tag_of`] never returns it.
const EMPTY: u32 = 0;

/// Set in every tag, so that no tag is [`EMPTY`].
const TAG_BIT: u32 = 1 << 31;

/// Size of the first table allocated.
const MIN_BUCKETS: usize = 8;

/// One table entry: the item's tag, and which slot holds the item.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    tag: u32,
    slot: u32,
}

const VACANT: Bucket = Bucket {
    tag: EMPTY,
    slot: 0,
};

/// The item's 32-bit hash tag: the low half of its FxHash, top bit set.
#[inline]
pub(crate) fn tag_of<T: Hash>(item: &T) -> u32 {
    FxBuildHasher::default().hash_one(item) as u32 | TAG_BIT
}

/// A slot index as stored in a bucket.
#[inline]
fn slot_number(slot: usize) -> u32 {
    u32::try_from(slot).expect("slot numbers fit in u32: the sketch's capacity is below u32::MAX")
}

/// Open-addressing map from tagged items to slot numbers (see the module
/// docs). The caller owns the items and answers "does slot `s` hold the
/// item?" for lookups by key.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotIndex {
    /// Power-of-two length (or empty before the first insert).
    buckets: Vec<Bucket>,
    /// Occupied buckets.
    len: usize,
}

impl SlotIndex {
    #[inline]
    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    /// The bucket a probe for `tag` starts at.
    #[inline]
    fn home(&self, tag: u32) -> usize {
        tag as usize & self.mask()
    }

    /// Position of the bucket tagged `tag` whose slot satisfies `is_item`.
    #[inline]
    fn find_pos(&self, tag: u32, mut is_item: impl FnMut(usize) -> bool) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mask = self.mask();
        let mut pos = self.home(tag);
        loop {
            let b = self.buckets[pos];
            if b.tag == tag {
                if is_item(b.slot as usize) {
                    return Some(pos);
                }
            } else if b.tag == EMPTY {
                return None;
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Position of the bucket that maps `tag` to `slot`.
    ///
    /// # Panics
    ///
    /// Panics if no bucket does.
    #[inline]
    fn slot_pos(&self, tag: u32, slot: usize) -> usize {
        self.find_pos(tag, |s| s == slot)
            .unwrap_or_else(|| panic!("slot {slot} (tag {tag:#x}) is not indexed"))
    }

    /// The slot of the item tagged `tag` for which `is_item(slot)` holds.
    #[inline]
    pub(crate) fn find(&self, tag: u32, is_item: impl FnMut(usize) -> bool) -> Option<usize> {
        self.find_pos(tag, is_item)
            .map(|pos| self.buckets[pos].slot as usize)
    }

    /// Removes the item tagged `tag` for which `is_item(slot)` holds and
    /// returns its slot.
    pub(crate) fn take(&mut self, tag: u32, is_item: impl FnMut(usize) -> bool) -> Option<usize> {
        let pos = self.find_pos(tag, is_item)?;
        let slot = self.buckets[pos].slot as usize;
        self.erase(pos);
        Some(slot)
    }

    /// Maps `tag` to `slot`. The caller guarantees that no indexed item
    /// equals the new one.
    pub(crate) fn insert(&mut self, tag: u32, slot: usize) {
        debug_assert!(tag != EMPTY);
        if 4 * (self.len + 1) > 3 * self.buckets.len() {
            self.grow();
        }
        self.place(Bucket {
            tag,
            slot: slot_number(slot),
        });
        self.len += 1;
    }

    /// Points the bucket that maps `tag` to `from` at `to` instead.
    #[inline]
    pub(crate) fn repoint(&mut self, tag: u32, from: usize, to: usize) {
        let pos = self.slot_pos(tag, from);
        self.buckets[pos].slot = slot_number(to);
    }

    /// Removes the bucket that maps `tag` to `slot`.
    pub(crate) fn remove(&mut self, tag: u32, slot: usize) {
        let pos = self.slot_pos(tag, slot);
        self.erase(pos);
    }

    /// Empties every bucket, keeping the table.
    pub(crate) fn clear(&mut self) {
        self.buckets.fill(VACANT);
        self.len = 0;
    }

    /// Bytes the table allocates.
    pub(crate) fn bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<Bucket>()
    }

    /// Puts `b` in the first empty bucket from its home on.
    #[inline]
    fn place(&mut self, b: Bucket) {
        let mask = self.mask();
        let mut pos = self.home(b.tag);
        while self.buckets[pos].tag != EMPTY {
            pos = (pos + 1) & mask;
        }
        self.buckets[pos] = b;
    }

    /// Empties the bucket at `hole` by backward shift: each later bucket
    /// of the probe run moves into the hole when the hole lies on its
    /// probe path (from its home, cyclically, up to where it sits).
    fn erase(&mut self, mut hole: usize) {
        let mask = self.mask();
        let mut next = (hole + 1) & mask;
        loop {
            let b = self.buckets[next];
            if b.tag == EMPTY {
                break;
            }
            let from_home = next.wrapping_sub(self.home(b.tag)) & mask;
            if from_home >= (next.wrapping_sub(hole) & mask) {
                self.buckets[hole] = b;
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.buckets[hole] = VACANT;
        self.len -= 1;
    }

    /// Doubles the table and re-places every bucket by its tag.
    fn grow(&mut self) {
        let size = (self.buckets.len() * 2).max(MIN_BUCKETS);
        let old = std::mem::replace(&mut self.buckets, vec![VACANT; size]);
        for b in old {
            if b.tag != EMPTY {
                self.place(b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A tag whose home is bucket `home` of an 8-bucket table.
    fn tag8(home: u32, high: u32) -> u32 {
        TAG_BIT | (high << 3) | home
    }

    /// Every `(slot, tag)` of the model is found, and nothing else is.
    fn assert_finds(index: &SlotIndex, model: &BTreeMap<usize, u32>, universe: usize) {
        assert_eq!(index.len, model.len());
        for slot in 0..universe {
            for &tag in model.values() {
                let found = index.find(tag, |s| s == slot);
                let want = (model.get(&slot) == Some(&tag)).then_some(slot);
                assert_eq!(found, want, "slot {slot} tag {tag:#x}");
            }
        }
    }

    #[test]
    fn removal_from_a_wrapped_cluster_keeps_every_survivor() {
        let mut index = SlotIndex::default();
        let mut model = BTreeMap::new();
        // Homes 6, 6, 7, 6, 0, 7 fill buckets 6, 7, 0, 1, 2, 3: one probe
        // cluster wrapping past the table's end (6 of 8 buckets is the
        // 3/4 load limit, so the table stays at 8).
        for (slot, home) in [6, 6, 7, 6, 0, 7].into_iter().enumerate() {
            let tag = tag8(home, slot as u32);
            index.insert(tag, slot);
            model.insert(slot, tag);
        }
        assert_eq!(index.buckets.len(), 8);
        let occupied: Vec<Option<u32>> = index
            .buckets
            .iter()
            .map(|b| (b.tag != EMPTY).then_some(b.slot))
            .collect();
        let s = Some;
        assert_eq!(occupied, [s(2), s(3), s(4), s(5), None, None, s(0), s(1)]);
        assert_finds(&index, &model, 6);
        // From the middle (bucket 7, just before the wrap) ...
        index.remove(model[&1], 1);
        model.remove(&1);
        assert_finds(&index, &model, 6);
        // ... and from the wrapped tail.
        let tail = *model.keys().last().expect("non-empty");
        index.remove(model[&tail], tail);
        model.remove(&tail);
        assert_finds(&index, &model, 6);
        // No tombstones: every empty bucket reads as empty.
        let empty = index.buckets.iter().filter(|b| b.tag == EMPTY).count();
        assert_eq!(empty, 8 - model.len());
    }

    #[test]
    fn take_repoint_clear_and_growth() {
        let mut index = SlotIndex::default();
        assert_eq!(index.find(7, |_| true), None);
        for slot in 0..100 {
            index.insert(tag_of(&slot), slot);
        }
        // 100 keys at load <= 3/4 need 256 buckets of 8 bytes.
        assert_eq!(index.bytes(), 256 * 8);
        assert_eq!(index.find(tag_of(&42usize), |s| s == 42), Some(42));
        index.repoint(tag_of(&42usize), 42, 500);
        assert_eq!(index.find(tag_of(&42usize), |s| s == 500), Some(500));
        assert_eq!(index.take(tag_of(&42usize), |s| s == 500), Some(500));
        assert_eq!(index.find(tag_of(&42usize), |_| true), None);
        for slot in (0..100).filter(|&s| s != 42) {
            assert_eq!(index.find(tag_of(&slot), |s| s == slot), Some(slot));
        }
        index.clear();
        assert_eq!(index.find(tag_of(&7usize), |_| true), None);
        assert_eq!(index.bytes(), 256 * 8, "clear keeps the table");
    }

    #[test]
    fn churn_matches_a_model_on_crowded_small_tables() {
        // Few distinct homes crowd the keys into long wrapping runs.
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut index = SlotIndex::default();
        let mut model: BTreeMap<usize, u32> = BTreeMap::new();
        for _ in 0..4_000 {
            let slot = (next() % 40) as usize;
            if let Some(tag) = model.remove(&slot) {
                index.remove(tag, slot);
            } else {
                // Homes -1, 0 and 1 (mod the table size), distinct tags.
                let home = ((next() % 3) as u32).wrapping_sub(1);
                let tag = TAG_BIT | (slot as u32) << 12 | (home & 0xfff);
                index.insert(tag, slot);
                model.insert(slot, tag);
            }
            assert_finds(&index, &model, 40);
        }
    }
}
