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
//!   one cache-friendly word probe tests two bits derived from
//!   [`hash_key`], the fixed-seed splitmix64 chain over the raw key lanes.
//!   The build table ([`h2o_expr::LaneMap`]) hashes the same bits with the
//!   same function, so a probe hashes its key once and uses the hash for
//!   both the bloom test and the table lookup.
//!
//! Filters build morsel-parallel: each morsel's gathered keys fold into a
//! private filter and the partials merge by bitwise OR (and range
//! min/max), which is commutative and associative — the merged filter is
//! identical for every morsel partition and merge order, preserving the
//! engine's determinism convention.

use h2o_expr::lanemap::hash_key;
use h2o_storage::{LogicalType, Value};

/// Target bloom bits per inserted key. With two probe bits per key in
/// one block, 12 bits/key keeps the false-positive rate in the low
/// percents — cheap insurance, since a false positive merely falls
/// through to the hash lookup the filter would otherwise skip.
const BITS_PER_KEY: usize = 12;

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

    /// Inserts one key vector (raw lanes) whose [`hash_key`] is `h` — the
    /// hash the build already computed for its table insert. Duplicates
    /// are harmless.
    #[inline]
    pub fn insert(&mut self, key: &[Value], h: u64) {
        debug_assert_eq!(key.len(), self.key_types.len());
        debug_assert_eq!(h, hash_key(key));
        for ((r, &k), &ty) in self.ranges.iter_mut().zip(key).zip(&self.key_types) {
            let c = ty.cmp_key(k);
            r.0 = r.0.min(c);
            r.1 = r.1.max(c);
        }
        let (block, bits) = self.slots(h);
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

    /// Whether every column of `key` lies in its exact inserted range: a
    /// `false` proves absence. Two integer compares per column, combined
    /// without branches (the probe compacts survivors branch-free).
    #[inline(always)]
    pub fn in_range(&self, key: &[Value]) -> bool {
        key.iter().zip(&self.ranges).zip(&self.key_types).fold(
            true,
            |ok, ((&k, &(lo, hi)), &ty)| {
                let c = ty.cmp_key(k);
                ok & (lo <= c) & (c <= hi)
            },
        )
    }

    /// The bloom half: whether a key whose [`hash_key`] is `h` might have
    /// been inserted. A `false` proves absence; a `true` falls through to
    /// the hash table, which the caller probes with the same `h`. The
    /// probe takes both halves for every key and keeps the keys that pass
    /// both.
    #[inline(always)]
    pub fn test_hash(&self, h: u64) -> bool {
        let (block, bits) = self.slots(h);
        self.blocks[block] & bits == bits
    }

    /// Stage 3 of the join probe, over one block of keys (`width` lanes
    /// each, row-major) and their [`hash_key`]s: writes the block
    /// positions of the keys that pass both halves to the front of `out`,
    /// ascending, and returns their count. Each position is written and
    /// kept only if it passed, so no loop has a branch, and each range
    /// test runs with its column's type and range resolved once per
    /// block. A one-lane key runs range, bloom and compaction in one loop;
    /// a wider key first marks each row's range test in `out`, column by
    /// column, then tests the bloom bits and compacts in place.
    pub fn survivors(&self, keys: &[Value], hashes: &[u64], out: &mut [u32]) -> usize {
        let width = self.key_types.len();
        let n = hashes.len();
        debug_assert_eq!(keys.len(), n * width);
        debug_assert!(out.len() >= n);
        let mut kept = 0;
        if width == 1 {
            in_range_column(self.key_types[0], keys, 1, self.ranges[0], |i, ok| {
                out[kept] = i as u32;
                kept += usize::from(ok & self.test_hash(hashes[i]));
            });
            return kept;
        }
        out[..n].fill(1);
        for (c, (&ty, &range)) in self.key_types.iter().zip(&self.ranges).enumerate() {
            in_range_column(ty, &keys[c..], width, range, |i, ok| {
                out[i] &= u32::from(ok);
            });
        }
        for (i, &h) in hashes.iter().enumerate() {
            let ok = (out[i] != 0) & self.test_hash(h);
            out[kept] = i as u32;
            kept += usize::from(ok);
        }
        kept
    }

    /// Size of the bloom block array, in bytes (capacity planning and the
    /// cost model's footprint term).
    pub fn bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<u64>()
    }
}

/// The range test of one key column — every `width`-th lane of `keys`,
/// of type `ty` — against its inclusive `[lo, hi]` in comparator-key
/// space: calls `test(row, in_range)` for each row, in order. The type is
/// matched once, so each arm's loop is compiled for its key map.
#[inline(always)]
fn in_range_column(
    ty: LogicalType,
    keys: &[Value],
    width: usize,
    range: (Value, Value),
    test: impl FnMut(usize, bool),
) {
    #[inline(always)]
    fn run(
        keys: &[Value],
        width: usize,
        (lo, hi): (Value, Value),
        cmp_key: impl Fn(Value) -> Value,
        mut test: impl FnMut(usize, bool),
    ) {
        for (i, &k) in keys.iter().step_by(width).enumerate() {
            let c = cmp_key(k);
            test(i, (lo <= c) & (c <= hi));
        }
    }
    match ty {
        LogicalType::F64 => run(keys, width, range, |k| LogicalType::F64.cmp_key(k), test),
        LogicalType::I64 | LogicalType::Dict => run(keys, width, range, |k| k, test),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_storage::f64_lane;

    /// The probe's two tests in its order: range, then bloom bits.
    fn contains(f: &JoinFilter, key: &[Value]) -> bool {
        f.in_range(key) && f.test_hash(hash_key(key))
    }

    #[test]
    fn no_false_negatives_ever() {
        let keys: Vec<Vec<Value>> = (0..500)
            .map(|i| vec![i * 37 % 211 - 50, f64_lane((i % 13) as f64 * 0.25)])
            .collect();
        let mut f = JoinFilter::with_capacity(keys.len(), vec![LogicalType::I64, LogicalType::F64]);
        for k in &keys {
            f.insert(k, hash_key(k));
        }
        for k in &keys {
            assert!(contains(&f, k), "inserted key {k:?} must test present");
        }
    }

    #[test]
    fn range_is_exact_and_rejects_outside() {
        let mut f = JoinFilter::with_capacity(8, vec![LogicalType::I64]);
        for k in [5, -3, 12] {
            f.insert(&[k], hash_key(&[k]));
        }
        assert_eq!(f.range(0), (-3, 12));
        assert!(!contains(&f, &[-4]), "below min is proven absent");
        assert!(!contains(&f, &[13]), "above max is proven absent");
    }

    #[test]
    fn f64_ranges_live_in_cmp_key_space() {
        let mut f = JoinFilter::with_capacity(8, vec![LogicalType::F64]);
        f.insert(&[f64_lane(-2.5)], hash_key(&[f64_lane(-2.5)]));
        f.insert(&[f64_lane(4.0)], hash_key(&[f64_lane(4.0)]));
        // total_cmp order: anything outside [-2.5, 4.0] is rejected by the
        // range alone, including negative values whose raw lane bits are
        // huge unsigned numbers.
        assert!(!contains(&f, &[f64_lane(-3.0)]));
        assert!(!contains(&f, &[f64_lane(4.5)]));
        assert!(!contains(&f, &[f64_lane(f64::NEG_INFINITY)]));
        assert!(contains(&f, &[f64_lane(-2.5)]));
        assert!(contains(&f, &[f64_lane(4.0)]));
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = JoinFilter::with_capacity(0, vec![LogicalType::I64]);
        for k in [0, 1, -1, Value::MAX, Value::MIN] {
            assert!(!contains(&f, &[k]));
        }
    }

    #[test]
    fn merge_equals_single_build_for_any_split() {
        let keys: Vec<Value> = (0..200).map(|i| i * 13 % 97).collect();
        let mut whole = JoinFilter::with_capacity(keys.len(), vec![LogicalType::I64]);
        for &k in &keys {
            whole.insert(&[k], hash_key(&[k]));
        }
        for chunk in [1usize, 7, 64, 300] {
            let mut merged = JoinFilter::with_capacity(keys.len(), vec![LogicalType::I64]);
            for part in keys.chunks(chunk) {
                let mut p = JoinFilter::with_capacity(keys.len(), vec![LogicalType::I64]);
                for &k in part {
                    p.insert(&[k], hash_key(&[k]));
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
            f.insert(&[i * 2], hash_key(&[i * 2]));
        }
        let false_pos = (0..1000).filter(|&i| contains(&f, &[i * 2 + 1])).count();
        assert!(
            false_pos < 200,
            "blocked bloom FPR too high: {false_pos}/1000"
        );
        assert!(f.bytes() >= 1000 * BITS_PER_KEY / 8);
    }
}
