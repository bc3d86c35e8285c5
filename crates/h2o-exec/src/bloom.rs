//! The join probe prefilter: a blocked bloom filter over the build keys
//! plus an exact per-key `[min, max]` range.
//!
//! When the build side of a hash join finishes, the engine derives a
//! [`JoinFilter`] from the qualifying build keys. The probe side then
//! tests each qualifying row's key against the filter **before** the hash
//! table: a range miss or bloom miss proves the key has no build match,
//! so the (cache-hostile) random-access lookup is skipped entirely. In
//! low-match-rate regimes — a foreign-key column full of values that
//! never hit the build side — most probe rows never touch the table.
//!
//! The structure is *one-sided*: it can say "definitely absent" but never
//! "present", so testing it cannot change which pairs match — results
//! are bit-identical to an unfiltered probe (the probe loop's fold order
//! is untouched; only dead lookups are elided). Both halves are exact about
//! that contract:
//!
//! * the **range** is the exact comparator-key span
//!   ([`LogicalType::cmp_key`]) of the inserted keys, per key column;
//! * the **bloom** is a blocked filter of register-sized (`u64`) blocks —
//!   one cache-friendly word probe tests two bits derived from a
//!   splitmix-style hash of the raw key lanes (raw-bit hashing, matching
//!   the build table's raw-bit key equality).
//!
//! Filters build morsel-parallel: each morsel's gathered keys fold into a
//! private filter and the partials merge by bitwise OR (and range
//! min/max), which is commutative and associative — the merged filter is
//! identical for every morsel partition and merge order, preserving the
//! engine's determinism convention.

use h2o_storage::{LogicalType, Value};

/// Target bloom bits per inserted key. With two probe bits per key in
/// one block, 12 bits/key keeps the false-positive rate in the low
/// percents — cheap insurance, since a false positive merely falls
/// through to the hash lookup the filter would otherwise skip.
const BITS_PER_KEY: usize = 12;

/// One step of the splitmix64 sequence — the mixer used to derive block
/// and bit positions from raw key lanes.
#[inline(always)]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a key vector's raw lanes (the same bits the build table hashes).
#[inline(always)]
fn hash_key(key: &[Value]) -> u64 {
    let mut h = 0x517C_C1B7_2722_0A95u64;
    for &k in key {
        h = splitmix64(h ^ k as u64);
    }
    h
}

/// The probe prefilter: blocked bloom + exact per-key-column range. See
/// the module docs for the no-false-negative contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinFilter {
    /// Register-sized bloom blocks; length is a power of two.
    blocks: Vec<u64>,
    /// `blocks.len() - 1`, for masking the block index.
    mask: u64,
    /// Exact inclusive `[min, max]` per key column, in comparator-key
    /// space. Starts at the empty interval `(MAX, MIN)`.
    ranges: Vec<(Value, Value)>,
    /// Per key column type (drives the comparator-key map).
    key_types: Vec<LogicalType>,
}

impl JoinFilter {
    /// Fresh filter sized for about `keys` insertions over key columns of
    /// the given types. Sizing from the *observed post-prune* build
    /// cardinality (not the raw relation size) keeps the filter compact
    /// when zone maps or residual filters shrink the build side.
    pub fn with_capacity(keys: usize, key_types: Vec<LogicalType>) -> JoinFilter {
        let blocks = (keys.max(1) * BITS_PER_KEY)
            .div_ceil(u64::BITS as usize)
            .next_power_of_two();
        JoinFilter {
            blocks: vec![0; blocks],
            mask: blocks as u64 - 1,
            ranges: vec![(Value::MAX, Value::MIN); key_types.len()],
            key_types,
        }
    }

    /// Block index and two-bit mask for a key hash. The block comes from
    /// the hash's low bits, the bits within the block from its high bits,
    /// so the two are independent for any power-of-two block count.
    #[inline(always)]
    fn slots(&self, h: u64) -> (usize, u64) {
        let block = (h & self.mask) as usize;
        let bits = (1u64 << ((h >> 32) & 63)) | (1u64 << ((h >> 38) & 63));
        (block, bits)
    }

    /// Inserts one key vector (raw lanes). Duplicates are harmless.
    #[inline]
    pub fn insert(&mut self, key: &[Value]) {
        debug_assert_eq!(key.len(), self.key_types.len());
        for ((r, &k), &ty) in self.ranges.iter_mut().zip(key).zip(&self.key_types) {
            let c = ty.cmp_key(k);
            r.0 = r.0.min(c);
            r.1 = r.1.max(c);
        }
        let (block, bits) = self.slots(hash_key(key));
        self.blocks[block] |= bits;
    }

    /// Merges another partial filter built with the same shape (bitwise OR
    /// of the blocks, min/max of the ranges) — commutative and
    /// associative, so morsel-parallel builds merge deterministically in
    /// any order.
    pub fn merge(&mut self, other: &JoinFilter) {
        debug_assert_eq!(self.blocks.len(), other.blocks.len());
        debug_assert_eq!(self.key_types, other.key_types);
        for (b, &o) in self.blocks.iter_mut().zip(&other.blocks) {
            *b |= o;
        }
        for (r, &(lo, hi)) in self.ranges.iter_mut().zip(&other.ranges) {
            r.0 = r.0.min(lo);
            r.1 = r.1.max(hi);
        }
    }

    /// The exact `[min, max]` of key column `i`, comparator-key space
    /// (the empty interval `(MAX, MIN)` when nothing was inserted).
    pub fn range(&self, i: usize) -> (Value, Value) {
        self.ranges[i]
    }

    /// Whether `key` might have been inserted: `false` proves absence, a
    /// `true` falls through to the hash table. Range check first (two
    /// integer compares per column), then one blocked-bloom word probe.
    #[inline(always)]
    pub fn contains(&self, key: &[Value]) -> bool {
        for ((&k, &(lo, hi)), &ty) in key.iter().zip(&self.ranges).zip(&self.key_types) {
            let c = ty.cmp_key(k);
            if c < lo || c > hi {
                return false;
            }
        }
        self.test_hash(hash_key(key))
    }

    /// The bloom half alone, for callers that have already range-tested
    /// (the vectorized probe prefilter batches the range check with the
    /// SIMD mask machinery and finishes survivors here).
    #[inline(always)]
    pub fn test_hash(&self, h: u64) -> bool {
        let (block, bits) = self.slots(h);
        self.blocks[block] & bits == bits
    }

    /// Bloom test of a single-column key's raw lane.
    #[inline(always)]
    pub fn test_lane(&self, lane: Value) -> bool {
        self.test_hash(splitmix64(0x517C_C1B7_2722_0A95u64 ^ lane as u64))
    }

    /// Size of the bloom block array, in bytes (capacity planning and the
    /// cost model's footprint term).
    pub fn bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_storage::f64_lane;

    #[test]
    fn no_false_negatives_ever() {
        let keys: Vec<Vec<Value>> = (0..500)
            .map(|i| vec![i * 37 % 211 - 50, f64_lane((i % 13) as f64 * 0.25)])
            .collect();
        let mut f = JoinFilter::with_capacity(keys.len(), vec![LogicalType::I64, LogicalType::F64]);
        for k in &keys {
            f.insert(k);
        }
        for k in &keys {
            assert!(f.contains(k), "inserted key {k:?} must test present");
        }
    }

    #[test]
    fn range_is_exact_and_rejects_outside() {
        let mut f = JoinFilter::with_capacity(8, vec![LogicalType::I64]);
        for k in [5, -3, 12] {
            f.insert(&[k]);
        }
        assert_eq!(f.range(0), (-3, 12));
        assert!(!f.contains(&[-4]), "below min is proven absent");
        assert!(!f.contains(&[13]), "above max is proven absent");
    }

    #[test]
    fn f64_ranges_live_in_cmp_key_space() {
        let mut f = JoinFilter::with_capacity(8, vec![LogicalType::F64]);
        f.insert(&[f64_lane(-2.5)]);
        f.insert(&[f64_lane(4.0)]);
        // total_cmp order: anything outside [-2.5, 4.0] is rejected by the
        // range alone, including negative values whose raw lane bits are
        // huge unsigned numbers.
        assert!(!f.contains(&[f64_lane(-3.0)]));
        assert!(!f.contains(&[f64_lane(4.5)]));
        assert!(!f.contains(&[f64_lane(f64::NEG_INFINITY)]));
        assert!(f.contains(&[f64_lane(-2.5)]));
        assert!(f.contains(&[f64_lane(4.0)]));
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = JoinFilter::with_capacity(0, vec![LogicalType::I64]);
        for k in [0, 1, -1, Value::MAX, Value::MIN] {
            assert!(!f.contains(&[k]));
        }
    }

    #[test]
    fn merge_equals_single_build_for_any_split() {
        let keys: Vec<Value> = (0..200).map(|i| i * 13 % 97).collect();
        let mut whole = JoinFilter::with_capacity(keys.len(), vec![LogicalType::I64]);
        for &k in &keys {
            whole.insert(&[k]);
        }
        for chunk in [1usize, 7, 64, 300] {
            let mut merged = JoinFilter::with_capacity(keys.len(), vec![LogicalType::I64]);
            for part in keys.chunks(chunk) {
                let mut p = JoinFilter::with_capacity(keys.len(), vec![LogicalType::I64]);
                for &k in part {
                    p.insert(&[k]);
                }
                merged.merge(&p);
            }
            assert_eq!(merged, whole, "chunk={chunk}");
        }
    }

    #[test]
    fn in_range_misses_are_mostly_filtered() {
        // Sparse keys (even values): odd values are in-range misses that
        // only the bloom half can reject. The FPR should be far below 1.
        let mut f = JoinFilter::with_capacity(1000, vec![LogicalType::I64]);
        for i in 0..1000 {
            f.insert(&[i * 2]);
        }
        let false_pos = (0..1000).filter(|&i| f.contains(&[i * 2 + 1])).count();
        assert!(
            false_pos < 200,
            "blocked bloom FPR too high: {false_pos}/1000"
        );
    }

    #[test]
    fn lane_test_matches_vector_test_for_single_keys() {
        let mut f = JoinFilter::with_capacity(64, vec![LogicalType::I64]);
        for k in 0..64 {
            f.insert(&[k * 3]);
        }
        for k in 0..200 {
            assert_eq!(f.test_lane(k), f.test_hash(hash_key(&[k])), "lane {k}");
        }
        assert!(f.bytes() >= 64 / 8);
    }
}
