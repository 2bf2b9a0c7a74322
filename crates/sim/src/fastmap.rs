//! A small open-addressed hash map for the simulator's hot paths.
//!
//! `std::collections::HashMap` pays SipHash plus per-lookup hasher
//! state for DoS resistance the simulator does not need: every key is
//! an internal simulation identifier (VPN, translation key), never
//! attacker-controlled. [`FastMap`] instead takes each key's home slot
//! by multiplicative (Fibonacci) hashing of [`FastKey::hash64`] — one
//! multiply and a shift that keeps the product's top bits — with linear
//! probing over a power-of-two slot array and backward-shift deletion
//! (no tombstones), which keeps probe chains short no matter how many
//! insert/remove cycles the translate path performs.
//!
//! Iteration order is unspecified (it follows the slot array), so
//! callers must only iterate for order-independent aggregation.

/// Keys usable in a [`FastMap`]: cheap to copy, comparable, and able
/// to produce a well-distributed 64-bit hash of themselves.
pub trait FastKey: Copy + Eq {
    /// A 64-bit value identifying this key. It does not need to be
    /// avalanched — [`FastMap`] spreads it by a multiplicative hash —
    /// but distinct keys should produce distinct values for the map to
    /// distinguish them cheaply (equality is still checked on probe).
    fn hash64(self) -> u64;
}

impl FastKey for u64 {
    fn hash64(self) -> u64 {
        self
    }
}

impl FastKey for u32 {
    fn hash64(self) -> u64 {
        self as u64
    }
}

impl FastKey for usize {
    fn hash64(self) -> u64 {
        self as u64
    }
}

/// 2^64 / golden ratio, rounded to odd: the Fibonacci-hashing
/// multiplier. The product's top bits, which the home slot takes,
/// depend on every bit of the key.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// An open-addressed hash map with linear probing and backward-shift
/// deletion.
///
/// # Example
///
/// ```
/// use gtr_sim::fastmap::FastMap;
///
/// let mut m: FastMap<u64, u32> = FastMap::with_capacity(16);
/// m.insert(7, 700);
/// *m.get_or_insert(7, 0) += 1;
/// assert_eq!(m.get(7), Some(&701));
/// assert_eq!(m.remove(7), Some(701));
/// assert!(m.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct FastMap<K: FastKey, V> {
    slots: Vec<Option<(K, V)>>,
    len: usize,
    /// `64 - log2(slots.len())`: shifting the hash product right by
    /// this leaves exactly a slot index.
    shift: u32,
}

impl<K: FastKey, V> Default for FastMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: FastKey, V> FastMap<K, V> {
    /// An empty map with the minimum slot array.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty map pre-sized to hold `cap` entries without growing.
    pub fn with_capacity(cap: usize) -> Self {
        // Keep load factor <= 3/4 at `cap` entries.
        let slots = (cap * 4 / 3 + 1).next_power_of_two().max(8);
        Self::with_slots(slots)
    }

    fn with_slots(slots: usize) -> Self {
        let shift = 64 - slots.trailing_zeros();
        Self { slots: (0..slots).map(|_| None).collect(), len: 0, shift }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry, keeping the slot array.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.len = 0;
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// `key`'s home slot: the top `log2(slots)` bits of its hash times
    /// [`FIB`].
    #[inline]
    fn home(&self, key: K) -> usize {
        (key.hash64().wrapping_mul(FIB) >> self.shift) as usize
    }

    /// Finds `key`'s slot: `(index, true)` when present, or the empty
    /// slot where it would be inserted `(index, false)`. The load
    /// factor bound guarantees an empty slot exists.
    #[inline]
    fn probe(&self, key: K) -> (usize, bool) {
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            match &self.slots[i] {
                None => return (i, false),
                Some((k, _)) if *k == key => return (i, true),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow_if_needed(&mut self) {
        if (self.len + 1) * 4 <= self.slots.len() * 3 {
            return;
        }
        let bigger = Self::with_slots(self.slots.len() * 2);
        let old = std::mem::replace(self, bigger);
        for (k, v) in old.slots.into_iter().flatten() {
            self.insert(k, v);
        }
    }

    /// A reference to `key`'s value, if present.
    #[inline]
    pub fn get(&self, key: K) -> Option<&V> {
        let (i, found) = self.probe(key);
        if found { self.slots[i].as_ref().map(|(_, v)| v) } else { None }
    }

    /// A mutable reference to `key`'s value, if present.
    #[inline]
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let (i, found) = self.probe(key);
        if found { self.slots[i].as_mut().map(|(_, v)| v) } else { None }
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: K) -> bool {
        self.probe(key).1
    }

    /// Inserts `key -> value`, returning the previous value if any.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.grow_if_needed();
        let (i, found) = self.probe(key);
        if found {
            let (_, v) = self.slots[i].as_mut().expect("probed occupied slot");
            Some(std::mem::replace(v, value))
        } else {
            self.slots[i] = Some((key, value));
            self.len += 1;
            None
        }
    }

    /// A mutable reference to `key`'s value, inserting `default` first
    /// when absent (the hot-path replacement for `entry().or_insert`).
    #[inline]
    pub fn get_or_insert(&mut self, key: K, default: V) -> &mut V {
        self.grow_if_needed();
        let (i, found) = self.probe(key);
        if !found {
            self.slots[i] = Some((key, default));
            self.len += 1;
        }
        &mut self.slots[i].as_mut().expect("slot just filled").1
    }

    /// Removes `key`, returning its value if it was present.
    ///
    /// Uses backward-shift deletion: subsequent probe-chain entries are
    /// moved up so no tombstones accumulate.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let (mut hole, found) = self.probe(key);
        if !found {
            return None;
        }
        let (_, value) = self.slots[hole].take().expect("probed occupied slot");
        self.len -= 1;
        let mask = self.mask();
        let mut j = (hole + 1) & mask;
        while let Some((k, _)) = &self.slots[j] {
            let ideal = self.home(*k);
            // Shift `j` into the hole iff the hole lies between the
            // entry's ideal slot and its current one (cyclically) —
            // i.e. the entry's probe chain passes over the hole.
            if (j.wrapping_sub(ideal) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j].take();
                hole = j;
            }
            j = (j + 1) & mask;
        }
        Some(value)
    }

    /// Keeps only entries for which `f` returns true.
    pub fn retain(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) {
        // Rebuild in place: drain every entry and re-insert survivors.
        // O(capacity) — fine for the rare purge paths that call this.
        let entries: Vec<(K, V)> = self.slots.iter_mut().filter_map(Option::take).collect();
        self.len = 0;
        for (k, mut v) in entries {
            if f(&k, &mut v) {
                self.insert(k, v);
            }
        }
    }

    /// Iterates over values in unspecified order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(|s| s.as_ref().map(|(_, v)| v))
    }

    /// Iterates over `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots.iter().filter_map(|s| s.as_ref().map(|(k, v)| (k, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m: FastMap<u64, u64> = FastMap::new();
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(1, 11), Some(10));
        assert_eq!(m.get(1), Some(&11));
        assert_eq!(m.get(2), None);
        assert_eq!(m.remove(1), Some(11));
        assert_eq!(m.remove(1), None);
        assert!(m.is_empty());
    }

    #[test]
    fn get_or_insert_matches_entry_semantics() {
        let mut m: FastMap<u64, u8> = FastMap::new();
        *m.get_or_insert(5, 0) |= 0b01;
        *m.get_or_insert(5, 0) |= 0b10;
        assert_eq!(m.get(5), Some(&0b11));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m: FastMap<u64, usize> = FastMap::with_capacity(4);
        for i in 0..1000u64 {
            m.insert(i, i as usize * 3);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(i), Some(&(i as usize * 3)), "key {i}");
        }
    }

    /// A key type whose hash collapses to 4 buckets: every operation
    /// exercises long probe chains and backward-shift deletion.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct Colliding(u64);
    impl FastKey for Colliding {
        fn hash64(self) -> u64 {
            self.0 % 4
        }
    }

    #[test]
    fn backward_shift_keeps_chains_reachable() {
        let mut m: FastMap<Colliding, u64> = FastMap::new();
        for i in 0..32 {
            m.insert(Colliding(i), i * 100);
        }
        // Remove every other entry, then verify the survivors.
        for i in (0..32).step_by(2) {
            assert_eq!(m.remove(Colliding(i)), Some(i * 100));
        }
        for i in 0..32 {
            let expect = if i % 2 == 0 { None } else { Some(&(i * 100)) };
            assert_eq!(m.get(Colliding(i)), expect, "key {i}");
        }
        assert_eq!(m.len(), 16);
    }

    #[test]
    fn randomized_against_std_hashmap() {
        // Small key spaces force reuse. Besides random keys, the spaces
        // the simulator produces: sequential VPNs, 512-page (2 MB)
        // strides, and translation keys that differ only in the VM-ID
        // and VRF-ID bits `TranslationKey::hash64` packs above the VPN.
        let random: Vec<u64> = (0..512).collect();
        let sequential: Vec<u64> = (0..512).map(|i| 0x7_f000 + i).collect();
        let strided: Vec<u64> = (0..512).map(|i| i * 512).collect();
        let ids: Vec<u64> = (0..8u64)
            .flat_map(|vpn| (0..8u64).map(move |vm| (vpn, vm)))
            .flat_map(|(vpn, vm)| {
                (0..4u64).map(move |vrf| vpn ^ ((vm & 0b11) << 56) ^ (vrf << 58) ^ ((vm >> 2) << 61))
            })
            .collect();
        for (space, keys) in [random, sequential, strided, ids].iter().enumerate() {
            let mut rng = SplitMix64::new(0xFA57 + space as u64);
            let mut fast: FastMap<u64, u64> = FastMap::new();
            let mut std_map: HashMap<u64, u64> = HashMap::new();
            for _ in 0..20_000 {
                let key = keys[rng.next_below(keys.len() as u64) as usize];
                match rng.next_below(4) {
                    0 | 1 => {
                        let v = rng.next_u64();
                        assert_eq!(fast.insert(key, v), std_map.insert(key, v));
                    }
                    2 => assert_eq!(fast.remove(key), std_map.remove(&key)),
                    _ => assert_eq!(fast.get(key), std_map.get(&key)),
                }
                assert_eq!(fast.len(), std_map.len(), "key space {space}");
            }
            let mut fast_pairs: Vec<(u64, u64)> = fast.iter().map(|(k, v)| (*k, *v)).collect();
            let mut std_pairs: Vec<(u64, u64)> = std_map.iter().map(|(k, v)| (*k, *v)).collect();
            fast_pairs.sort_unstable();
            std_pairs.sort_unstable();
            assert_eq!(fast_pairs, std_pairs, "key space {space}");
        }
    }

    #[test]
    fn retain_drops_matching_entries() {
        let mut m: FastMap<u64, u64> = FastMap::new();
        for i in 0..100 {
            m.insert(i, i);
        }
        m.retain(|_, v| *v % 3 == 0);
        assert_eq!(m.len(), 34);
        assert_eq!(m.values().copied().max(), Some(99));
        assert!(m.get(1).is_none());
        assert_eq!(m.get(99), Some(&99));
    }

    #[test]
    fn clear_keeps_working() {
        let mut m: FastMap<u64, u64> = FastMap::with_capacity(64);
        for i in 0..50 {
            m.insert(i, i);
        }
        m.clear();
        assert!(m.is_empty());
        m.insert(7, 70);
        assert_eq!(m.get(7), Some(&70));
    }
}
