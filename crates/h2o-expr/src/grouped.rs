//! Grouped-aggregation state: the flat hash table ([`LaneMap`]) every
//! execution strategy folds qualifying tuples through — a tuple at a time
//! ([`GroupedAggs::update`], the interpreter) or a block at a time: the
//! kernels' block pipeline resolves a block's group ids
//! ([`GroupedAggs::id`] / [`GroupedAggs::id_hashed`]) and folds each
//! aggregate column ([`GroupedAggs::fold_block`]).
//!
//! The engine-wide determinism convention for grouped queries mirrors the
//! scalar one ([`AggState`]): each strategy — the
//! interpreter, and every kernel in `h2o-exec`, serial or morsel-parallel —
//! maintains one [`GroupedAggs`] (or one per morsel, merged through
//! [`GroupedAggs::merge`]), and [`GroupedAggs::finish`] emits the output
//! rows **sorted ascending by key vector**. Because per-key accumulation
//! goes through the same associative/commutative [`AggState`] operations
//! and the final order is a pure function of the key set, any partition of
//! the input into morsels — and any strategy — yields a bit-identical
//! [`QueryResult`].

use crate::agg::{fold_column, AggOp, AggState};
use crate::lanemap::{hash_key, LaneMap};
use crate::result::QueryResult;
use h2o_storage::{LogicalType, Value};

/// Running state of one grouped aggregation: `key vector → one
/// [`AggState`] per aggregate`.
///
/// Keys live in a [`LaneMap`], which hashes and compares them as **raw
/// lane bits** (an `f64` key is its bit pattern, a `Dict` key its code) —
/// grouping is bit-pattern equality, so e.g. `-0.0` and `+0.0` are
/// distinct groups and every NaN bit pattern its own group, identically
/// on every strategy. The map hands out dense ids in first-appearance
/// order, and the states sit in one flat `Vec`, `ops.len()` per id: a
/// tuple folds by one lookup in the flat table and a slice update, a
/// block by resolving its ids and then folding each aggregate's column
/// into `states[id * ops.len() + j]` in row order — the same states in
/// the same order either way. The
/// per-column [`LogicalType`]s matter only in [`GroupedAggs::finish`],
/// whose ascending-key sort compares through
/// [`cmp_key`](LogicalType::cmp_key) (`total_cmp` order for `F64`).
#[derive(Debug, Clone)]
pub struct GroupedAggs {
    key_types: Vec<LogicalType>,
    ops: Vec<AggOp>,
    keys: LaneMap,
    /// `ops.len()` states per key id, in id order.
    states: Vec<AggState>,
}

impl GroupedAggs {
    /// Fresh table for keys of the given per-column types and the given
    /// typed aggregate ops (`ops` may be empty — the distinct-keys
    /// degenerate).
    pub fn new(key_types: Vec<LogicalType>, ops: Vec<AggOp>) -> Self {
        assert!(!key_types.is_empty(), "grouped aggregation requires a key");
        GroupedAggs {
            keys: LaneMap::new(key_types.len()),
            key_types,
            ops,
            states: Vec::new(),
        }
    }

    /// [`Self::new`] for all-`I64` keys and bare aggregate functions (the
    /// paper's integer relations; used by tests).
    pub fn untyped<O: Into<AggOp>, I: IntoIterator<Item = O>>(key_width: usize, ops: I) -> Self {
        Self::new(
            vec![LogicalType::I64; key_width],
            ops.into_iter().map(Into::into).collect(),
        )
    }

    /// The group id of `key`: its existing id, or the next dense id (in
    /// first-appearance order) with fresh states appended.
    #[inline]
    pub fn id(&mut self, key: &[Value]) -> u32 {
        self.id_hashed(key, hash_key(key))
    }

    /// [`Self::id`] of `key` whose [`hash_key`] the caller already
    /// computed as `h` (a block pipeline hashes a whole block of keys
    /// before it probes).
    #[inline]
    pub fn id_hashed(&mut self, key: &[Value], h: u64) -> u32 {
        let id = self.keys.insert_hashed(key, h);
        if self.states.len() < (id as usize + 1) * self.ops.len() {
            self.states
                .extend(self.ops.iter().map(|&op| AggState::new(op)));
        }
        id
    }

    /// The states of `key`, fresh ones appended if the key is new.
    #[inline]
    fn states_mut(&mut self, key: &[Value]) -> &mut [AggState] {
        let w = self.ops.len();
        let id = self.id(key) as usize;
        &mut self.states[id * w..(id + 1) * w]
    }

    /// Folds one block of tuples whose group ids ([`Self::id`]) are `ids`,
    /// in order: `vals` holds the aggregate inputs column by column,
    /// `ids.len()` lanes per aggregate in the constructor's order (a
    /// `count`'s column is never read), and `mults`, when given, each
    /// tuple's multiplicity (at least one; the join folds a probe row once
    /// per build group it reaches). Each aggregate folds its column through
    /// [`fold_column`] into its state of each row's group, in row order —
    /// so every group's `F64` sum stays one chain in row order and the
    /// block folds bit-identically to one [`Self::update`] per tuple and
    /// repetition.
    pub fn fold_block(&mut self, ids: &[u32], vals: &[Value], mults: Option<&[u32]>) {
        let (w, n) = (self.ops.len(), ids.len());
        debug_assert_eq!(vals.len(), w * n);
        if n == 0 {
            return;
        }
        for (j, (&op, col)) in self.ops.iter().zip(vals.chunks_exact(n)).enumerate() {
            fold_column(&mut self.states[j..], w, op, ids, col, mults);
        }
    }

    /// Folds one qualifying tuple: `key` is its evaluated key vector,
    /// `vals` the evaluated aggregate inputs (same order as the
    /// constructor's `funcs`).
    #[inline]
    pub fn update(&mut self, key: &[Value], vals: &[Value]) {
        debug_assert_eq!(vals.len(), self.ops.len());
        for (st, &v) in self.states_mut(key).iter_mut().zip(vals) {
            st.update(v);
        }
    }

    /// Merges another table into this one — the combine step of parallel
    /// execution. Walks `other`'s key ids in order: a key this table
    /// already holds merges its states through [`AggState::merge`], whose
    /// operations are associative and commutative, and a new key takes
    /// `other`'s states as they are. So any merge order over any morsel
    /// partition finishes to the same result.
    pub fn merge(&mut self, other: GroupedAggs) {
        debug_assert_eq!(self.key_types, other.key_types);
        debug_assert_eq!(self.ops, other.ops);
        let w = other.ops.len();
        for id in 0..other.keys.len() {
            let states = &other.states[id * w..(id + 1) * w];
            self.merge_group(other.keys.key(id as u32), states);
        }
    }

    /// Merges one group's states (`ops.len()` of them, in `ops` order)
    /// into this table: merged through [`AggState::merge`] when the table
    /// holds `key`, taken as they are when it does not. The join's
    /// build-side group plan enters each group a probe range reached this
    /// way.
    pub fn merge_group(&mut self, key: &[Value], states: &[AggState]) {
        let w = self.ops.len();
        debug_assert_eq!(states.len(), w);
        let new = self.keys.len();
        let mine = self.keys.insert(key) as usize;
        if mine == new {
            self.states.extend_from_slice(states);
        } else {
            for (st, p) in self.states[mine * w..(mine + 1) * w].iter_mut().zip(states) {
                st.merge(p);
            }
        }
    }

    /// Number of distinct keys seen so far.
    pub fn groups(&self) -> usize {
        self.keys.len()
    }

    /// Whether no tuple has been folded yet.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Values per output row.
    pub fn output_width(&self) -> usize {
        self.key_types.len() + self.ops.len()
    }

    /// Finishes the aggregation into the result block: one row per distinct
    /// key (`key ++ finished aggregates`), **sorted ascending by key
    /// vector** in each key column's typed order (`total_cmp` for `F64`
    /// keys, code order for `Dict`, via [`LogicalType::cmp_key`]).
    /// Grouping over an empty input yields zero rows (the SQL convention,
    /// unlike scalar aggregates' single neutral row) — all strategies
    /// agree on this.
    pub fn finish(&self) -> QueryResult {
        let mut ids: Vec<u32> = (0..self.keys.len() as u32).collect();
        // Typed lexicographic order. cmp_key is the identity for I64/Dict,
        // so all-integer keys sort exactly as before. Distinct keys never
        // compare equal (cmp_key is a bijection), so the order is unique.
        ids.sort_unstable_by(|&a, &b| {
            let (a, b) = (self.keys.key(a), self.keys.key(b));
            for ((x, y), &ty) in a.iter().zip(b).zip(&self.key_types) {
                let ord = ty.cmp_key(*x).cmp(&ty.cmp_key(*y));
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        let kw = self.key_types.len();
        let w = self.ops.len();
        let mut out = QueryResult::with_capacity(self.output_width(), ids.len());
        let mut row: Vec<Value> = vec![0; self.output_width()];
        for id in ids {
            row[..kw].copy_from_slice(self.keys.key(id));
            let states = &self.states[id as usize * w..(id as usize + 1) * w];
            for (slot, st) in row[kw..].iter_mut().zip(states) {
                *slot = st.finish();
            }
            out.push_row(&row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use h2o_storage::{f64_lane, lane_f64};

    fn table() -> GroupedAggs {
        GroupedAggs::untyped(1, [AggFunc::Sum, AggFunc::Count])
    }

    #[test]
    fn groups_accumulate_and_sort() {
        let mut t = table();
        t.update(&[2], &[10, 1]);
        t.update(&[1], &[5, 1]);
        t.update(&[2], &[7, 1]);
        assert_eq!(t.groups(), 2);
        let out = t.finish();
        assert_eq!(out.rows(), 2);
        assert_eq!(out.row(0), &[1, 5, 1]); // sorted ascending by key
        assert_eq!(out.row(1), &[2, 17, 2]);
    }

    #[test]
    fn empty_input_yields_zero_rows() {
        let t = table();
        assert!(t.is_empty());
        let out = t.finish();
        assert!(out.is_empty());
        assert_eq!(out.width(), 3);
    }

    #[test]
    fn merge_equals_single_fold_for_any_split() {
        let tuples: Vec<(Value, Value)> = (0..40).map(|i| (i % 5, i * 3 - 20)).collect();
        let mut whole = GroupedAggs::untyped(1, [AggFunc::Min, AggFunc::Avg]);
        for &(k, v) in &tuples {
            whole.update(&[k], &[v, v]);
        }
        let want = whole.finish();
        for chunk in [1usize, 3, 7, 39, 64] {
            let mut merged = GroupedAggs::untyped(1, [AggFunc::Min, AggFunc::Avg]);
            for part in tuples.chunks(chunk) {
                let mut partial = GroupedAggs::untyped(1, [AggFunc::Min, AggFunc::Avg]);
                for &(k, v) in part {
                    partial.update(&[k], &[v, v]);
                }
                merged.merge(partial);
            }
            assert_eq!(merged.finish(), want, "chunk={chunk}");
        }
    }

    #[test]
    fn multiplicity_fold_matches_repeated_update() {
        let tuples: Vec<(Value, Value, u32)> = (0..30)
            .map(|i| (i % 4, i * 5 - 11, (i % 3) as u32 + 1))
            .collect();
        let mut looped = GroupedAggs::untyped(1, [AggFunc::Sum, AggFunc::Min, AggFunc::Count]);
        let mut fused = GroupedAggs::untyped(1, [AggFunc::Sum, AggFunc::Min, AggFunc::Count]);
        for &(k, v, n) in &tuples {
            for _ in 0..n {
                looped.update(&[k], &[v, v, v]);
            }
            let id = fused.id(&[k]);
            fused.fold_block(&[id], &[v, v, v], Some(&[n]));
        }
        assert_eq!(fused.finish(), looped.finish());
    }

    #[test]
    fn fold_block_matches_per_tuple_updates() {
        use crate::agg::AggOp;
        use LogicalType::{F64, I64};
        let ops = vec![
            AggOp::new(AggFunc::Sum, F64),
            AggOp::new(AggFunc::Avg, F64),
            AggOp::new(AggFunc::Min, F64),
            AggOp::new(AggFunc::Max, I64),
            AggOp::new(AggFunc::Count, I64),
            AggOp::new(AggFunc::Sum, I64),
        ];
        // Non-dyadic doubles: a sum differs with its fold order.
        let rows: Vec<(Value, Value, Value)> = (0..500)
            .map(|i| {
                (
                    i * 7 % 13,
                    f64_lane((i % 37) as f64 / 10.0 - 1.3),
                    i * 31 % 101 - 50,
                )
            })
            .collect();
        // Without multiplicities, and with each row's multiplicity 1..=3.
        for mult in [None, Some(|i: usize| (i % 3) as u32 + 1)] {
            let mut per_tuple = GroupedAggs::new(vec![I64], ops.clone());
            for (i, &(k, x, v)) in rows.iter().enumerate() {
                for _ in 0..mult.map_or(1, |m| m(i)) {
                    per_tuple.update(&[k], &[x, x, x, v, 0, v]);
                }
            }
            let mut blocked = GroupedAggs::new(vec![I64], ops.clone());
            for (b, block) in rows.chunks(64).enumerate() {
                let ids: Vec<u32> = block.iter().map(|&(k, ..)| blocked.id(&[k])).collect();
                let mut vals = Vec::new();
                for j in 0..ops.len() {
                    vals.extend(block.iter().map(|&(_, x, v)| [x, x, x, v, 0, v][j]));
                }
                let mults: Option<Vec<u32>> =
                    mult.map(|m| (0..block.len()).map(|i| m(b * 64 + i)).collect());
                blocked.fold_block(&ids, &vals, mults.as_deref());
            }
            assert_eq!(blocked.finish(), per_tuple.finish());
        }
    }

    #[test]
    fn multi_value_keys_sort_lexicographically() {
        let mut t = GroupedAggs::untyped(2, [AggFunc::Max]);
        t.update(&[1, 9], &[3]);
        t.update(&[1, -2], &[4]);
        t.update(&[0, 100], &[5]);
        let out = t.finish();
        assert_eq!(out.row(0), &[0, 100, 5]);
        assert_eq!(out.row(1), &[1, -2, 4]);
        assert_eq!(out.row(2), &[1, 9, 3]);
    }

    #[test]
    fn distinct_degenerate_no_aggregates() {
        let mut t = GroupedAggs::untyped(1, Vec::<AggOp>::new());
        t.update(&[3], &[]);
        t.update(&[3], &[]);
        t.update(&[-1], &[]);
        let out = t.finish();
        assert_eq!(out.rows(), 2);
        assert_eq!(out.width(), 1);
        assert_eq!(out.data(), &[-1, 3]);
    }

    #[test]
    #[should_panic(expected = "requires a key")]
    fn zero_key_width_rejected() {
        GroupedAggs::untyped(0, [AggFunc::Count]);
    }

    #[test]
    fn f64_keys_group_by_bits_and_sort_by_total_cmp() {
        use crate::agg::AggOp;
        let mut t = GroupedAggs::new(
            vec![LogicalType::F64],
            vec![AggOp::new(AggFunc::Sum, LogicalType::F64)],
        );
        t.update(&[f64_lane(1.5)], &[f64_lane(10.0)]);
        t.update(&[f64_lane(-2.0)], &[f64_lane(1.0)]);
        t.update(&[f64_lane(1.5)], &[f64_lane(0.5)]);
        // Signed zeros are *distinct* groups (bit-pattern grouping)...
        t.update(&[f64_lane(0.0)], &[f64_lane(1.0)]);
        t.update(&[f64_lane(-0.0)], &[f64_lane(2.0)]);
        let out = t.finish();
        assert_eq!(out.rows(), 4);
        // ... and the output sorts in total_cmp order: -2.0, -0.0, 0.0, 1.5.
        let keys: Vec<f64> = (0..4).map(|i| lane_f64(out.row(i)[0])).collect();
        assert_eq!(keys[0], -2.0);
        assert_eq!(keys[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(keys[2].to_bits(), 0.0f64.to_bits());
        assert_eq!(keys[3], 1.5);
        assert_eq!(lane_f64(out.row(3)[1]), 10.5, "per-key f64 sums");
    }
}
