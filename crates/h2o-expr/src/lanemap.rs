//! The flat raw-lane hash table under the join build and grouped
//! aggregation, and the one key hash every raw-lane structure shares.
//!
//! [`LaneMap`] maps fixed-width key vectors of raw lane words to dense
//! ids `0, 1, 2, …` assigned in first-appearance order. Keys compare as
//! **raw lane bits**: an `f64` key is its bit pattern (so `-0.0` and
//! `+0.0` are distinct keys and every NaN payload is its own key), a
//! `Dict` key its code. Callers keep their per-key data in flat vectors
//! indexed by the id (a join's CSR row list, a grouped table's
//! [`AggState`](crate::agg::AggState)s), so a lookup costs one hash and
//! a short linear probe over one array — no per-key allocation, no
//! pointer chase.
//!
//! The table is open addressing with linear probing at a load factor of
//! at most 50%. Each slot holds its id lane followed by the key lanes,
//! inline in one `Vec<Value>`, so a probe that hits reads one contiguous
//! slot. The slot index is the low bits of [`hash_key`], a fixed-seed
//! splitmix64 chain over the key lanes; the join's bloom filter derives
//! its bits from the same hash, so a key is hashed once for both: a build
//! key for its insert ([`LaneMap::insert_hashed`]) and its filter bits, a
//! probe key for its filter test and its lookup ([`LaneMap::get`]). A
//! one-lane key — most join and group keys — probes through its own find,
//! which compares each `[id, key]` slot inline with no per-lane loop.
//! Nothing about the table depends on the process or the run: the same
//! insert sequence yields the same ids on every strategy and policy.

use h2o_storage::Value;

/// Seed of the [`hash_key`] chain.
const SEED: u64 = 0x517C_C1B7_2722_0A95;

/// Id lane of a vacant slot (ids are `u32`, so never negative).
const VACANT: Value = -1;

/// Slots of a table built with no size hint.
const MIN_SLOTS: usize = 16;

/// One step of the splitmix64 sequence: the mixer behind [`hash_key`].
#[inline(always)]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a key vector's raw lanes: a fixed-seed splitmix64 chain, one
/// step per lane. [`LaneMap`] and the join's bloom filter both use it.
#[inline(always)]
pub fn hash_key(key: &[Value]) -> u64 {
    let mut h = SEED;
    for &k in key {
        h = splitmix64(h ^ k as u64);
    }
    h
}

/// Raw-lane key vectors of one fixed width to dense ids in
/// first-appearance order. See the module docs.
#[derive(Debug, Clone)]
pub struct LaneMap {
    width: usize,
    /// `width + 1` lanes per slot: the id (or [`VACANT`]), then the key.
    /// The slot count is a power of two.
    slots: Vec<Value>,
    /// Slot count minus one, for masking a hash to a slot index.
    mask: usize,
    /// Slot index of each id, in id order (walked when the table grows,
    /// read by [`Self::key`]).
    slot_of: Vec<u32>,
}

impl LaneMap {
    /// Empty table for keys of `width` lanes.
    pub fn new(width: usize) -> LaneMap {
        LaneMap::with_capacity(width, 0)
    }

    /// Empty table for keys of `width` lanes, sized so `keys` distinct
    /// keys fit without growing.
    pub fn with_capacity(width: usize, keys: usize) -> LaneMap {
        assert!(width > 0, "a lane map key has at least one lane");
        let slots = Self::slots_for(keys);
        LaneMap {
            width,
            slots: vec![VACANT; slots * (width + 1)],
            mask: slots - 1,
            slot_of: Vec::with_capacity(keys),
        }
    }

    /// Slot count of a table sized for `keys` keys: at most half full.
    fn slots_for(keys: usize) -> usize {
        (keys * 2).next_power_of_two().max(MIN_SLOTS)
    }

    /// Bytes of the slot array [`Self::with_capacity`] allocates for
    /// `keys` keys of `width` lanes (the join build weighs its dense-key
    /// index against it).
    pub fn slot_bytes(width: usize, keys: usize) -> usize {
        Self::slots_for(keys) * (width + 1) * std::mem::size_of::<Value>()
    }

    /// Number of distinct keys inserted.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Whether no key has been inserted.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// The key of `id`.
    pub fn key(&self, id: u32) -> &[Value] {
        let base = self.slot_of[id as usize] as usize * (self.width + 1);
        &self.slots[base + 1..base + 1 + self.width]
    }

    /// The id of `key`, whose [`hash_key`] is `h`, if it was inserted.
    #[inline]
    pub fn get(&self, key: &[Value], h: u64) -> Option<u32> {
        self.find(key, h).ok()
    }

    /// The id of `key`: its existing id, or the next dense id if it is
    /// new. Grows the table first when a new key would push the load past
    /// one half.
    #[inline]
    pub fn insert(&mut self, key: &[Value]) -> u32 {
        self.insert_hashed(key, hash_key(key))
    }

    /// [`Self::insert`] of `key` whose [`hash_key`] the caller already
    /// computed as `h` (the join build hashes each key once for the table
    /// and its bloom filter).
    #[inline]
    pub fn insert_hashed(&mut self, key: &[Value], h: u64) -> u32 {
        debug_assert_eq!(h, hash_key(key));
        let mut slot = match self.find(key, h) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        if (self.len() + 1) * 2 > self.mask + 1 {
            self.grow();
            slot = self.vacant(h);
        }
        let id = self.len() as u32;
        let base = slot * (self.width + 1);
        self.slots[base] = id as Value;
        self.slots[base + 1..base + 1 + self.width].copy_from_slice(key);
        self.slot_of.push(slot as u32);
        id
    }

    /// `Ok(id)` of `key`, or `Err(slot)` with the vacant slot that ends
    /// its probe sequence.
    #[inline(always)]
    fn find(&self, key: &[Value], h: u64) -> Result<u32, usize> {
        debug_assert_eq!(key.len(), self.width);
        if let [k] = *key {
            return self.find_one_lane(k, h);
        }
        let stride = self.width + 1;
        let mut i = h as usize & self.mask;
        loop {
            let slot = &self.slots[i * stride..(i + 1) * stride];
            if slot[0] == VACANT {
                return Err(i);
            }
            if slot[1..].iter().zip(key).all(|(a, b)| a == b) {
                return Ok(slot[0] as u32);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// [`Self::find`] of a one-lane key: each slot is the pair `[id, key]`,
    /// compared inline.
    #[inline(always)]
    fn find_one_lane(&self, key: Value, h: u64) -> Result<u32, usize> {
        let mut i = h as usize & self.mask;
        loop {
            let &[id, k] = &self.slots[2 * i..2 * i + 2] else {
                unreachable!("one-lane slots are two lanes");
            };
            if id == VACANT {
                return Err(i);
            }
            if k == key {
                return Ok(id as u32);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// First vacant slot of hash `h`'s probe sequence.
    fn vacant(&self, h: u64) -> usize {
        let stride = self.width + 1;
        let mut i = h as usize & self.mask;
        while self.slots[i * stride] != VACANT {
            i = (i + 1) & self.mask;
        }
        i
    }

    /// Doubles the slot count and re-places every key in id order, so ids
    /// are unchanged.
    fn grow(&mut self) {
        let stride = self.width + 1;
        let old = std::mem::replace(&mut self.slots, vec![VACANT; (self.mask + 1) * 2 * stride]);
        self.mask = self.mask * 2 + 1;
        for id in 0..self.slot_of.len() {
            let from = self.slot_of[id] as usize * stride;
            let slot = &old[from..from + stride];
            let to = self.vacant(hash_key(&slot[1..]));
            self.slots[to * stride..(to + 1) * stride].copy_from_slice(slot);
            self.slot_of[id] = to as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The join's bloom bits derive from this hash, so it is pinned.
    #[test]
    fn hash_is_pinned() {
        assert_eq!(hash_key(&[0]), 0x35F5_76A4_E31C_F92B);
        assert_eq!(hash_key(&[1, -1]), 0x6BEC_B7BB_090D_4BA9);
    }

    #[test]
    fn ids_are_dense_in_first_appearance_order() {
        let mut m = LaneMap::new(2);
        assert_eq!(m.insert(&[5, 1]), 0);
        assert_eq!(m.insert(&[1, 5]), 1);
        assert_eq!(m.insert(&[5, 1]), 0);
        assert_eq!(
            m.insert(&[-1, -1]),
            2,
            "the vacant marker is a valid key lane"
        );
        assert_eq!(m.len(), 3);
        assert_eq!(m.key(1), &[1, 5]);
        assert_eq!(m.get(&[1, 5], hash_key(&[1, 5])), Some(1));
        assert_eq!(m.get(&[2, 5], hash_key(&[2, 5])), None);
    }

    #[test]
    fn growth_keeps_ids_and_half_load() {
        let mut m = LaneMap::new(1);
        for k in 0..1000 {
            assert_eq!(m.insert(&[k << 32]), k as u32);
            assert!(m.len() * 2 <= m.mask + 1, "load above one half");
        }
        for k in 0..1000 {
            assert_eq!(m.get(&[k << 32], hash_key(&[k << 32])), Some(k as u32));
            assert_eq!(m.key(k as u32), &[k << 32]);
        }
    }

    #[test]
    fn sized_table_does_not_grow() {
        let mut m = LaneMap::with_capacity(1, 100);
        let slots = m.mask + 1;
        assert_eq!(LaneMap::slot_bytes(1, 100), m.slots.len() * 8);
        assert_eq!(LaneMap::slot_bytes(1, 16_384), 512 << 10);
        for k in 0..100 {
            m.insert(&[k]);
        }
        assert_eq!(m.mask + 1, slots);
    }
}
