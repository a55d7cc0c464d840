//! A vendored FxHash-style hasher and map/set aliases for the hot paths.
//!
//! The runtime's per-message path performs several map lookups (actor
//! directory, call tables, location hints). `std`'s default
//! SipHash-1-3 is keyed and DoS-resistant but costs tens of cycles per
//! lookup; none of these maps face attacker-controlled keys, so every
//! *non-semantic* map — one whose hasher can change without changing any
//! observable output — uses this 64-bit multiply-mix hasher instead
//! (the same construction as rustc's `FxHasher`, vendored here because
//! the build environment is fully offline, matching the `vendor/`
//! precedent). The Space-Saving sketch's index is not one of these maps:
//! it is its own compact table (`slot_index`), which hashes with this
//! hasher and keeps the high half of the hash as an 8-byte bucket's tag.
//!
//! A map is non-semantic when its iteration order is never observed:
//! either it is only read through point lookups, or every iteration is
//! sorted before use. Semantic hashes — e.g. the `PlacementPolicy::Hash`
//! placement decision in `actop-runtime` — must keep their original
//! hasher, since changing them changes placement decisions and therefore
//! replay output.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative mixing constant: `2^64 / phi`, the same constant rustc's
/// FxHasher uses. Odd, so multiplication is a bijection on `u64`.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Rotation applied before each mix, spreading low-entropy input bits
/// (sequential ids) across the word.
const ROTATE: u32 = 5;

/// A fast, non-cryptographic, non-keyed hasher: `rotl(h, 5) ^ word`
/// followed by a multiply, per input word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`] (stateless, so `Default` is free).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`]. Drop-in for `std::collections::HashMap`
/// on non-semantic maps (see module docs).
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// An empty [`FxHashMap`] with space for `cap` entries (the `HashMap`
/// inherent constructor cannot be used with a non-default hasher without
/// naming it at every call site).
#[inline]
pub fn fx_map_with_capacity<K, V>(cap: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_hashers() {
        assert_eq!(hash_of(12345u64), hash_of(12345u64));
        assert_eq!(hash_of((1u64, 2u64)), hash_of((1u64, 2u64)));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Sequential ids (the common key shape) must not collide or
        // cluster into the same low bits.
        let hashes: Vec<u64> = (0u64..64).map(hash_of).collect();
        for i in 0..hashes.len() {
            for j in (i + 1)..hashes.len() {
                assert_ne!(hashes[i], hashes[j]);
            }
        }
        let low_bits: std::collections::HashSet<u64> = hashes.iter().map(|h| h & 0x3f).collect();
        assert!(low_bits.len() > 32, "low bits too clustered: {low_bits:?}");
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(7, "seven");
        assert_eq!(m.get(&7), Some(&"seven"));
        let mut s: FxHashSet<(u64, u64)> = FxHashSet::default();
        assert!(s.insert((1, 2)));
        assert!(!s.insert((1, 2)));
        let sized: FxHashMap<u32, u32> = fx_map_with_capacity(100);
        assert!(sized.capacity() >= 100);
    }

    #[test]
    fn byte_stream_tail_handling() {
        // write() must mix trailing bytes (< 8) too.
        let mut a = FxHasher::default();
        a.write(b"abcdefghi");
        let mut b = FxHasher::default();
        b.write(b"abcdefghj");
        assert_ne!(a.finish(), b.finish());
    }
}
