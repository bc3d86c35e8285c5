//! Chunked (auto-vectorizable) lane primitives shared by every kernel.
//!
//! The hot inner loops of the engine — predicate evaluation, the block
//! walker's id emission, and the flat aggregation folds — all operate on the fixed
//! 64-bit lane arrays that segments store. This module rewrites those loops
//! in a *portable-SIMD style*: fixed-width `[Value; 8]` chunks
//! ([`LANES`]) with the bounds checks hoisted into a single up-front
//! `assert!` per run, so the compiler proves the chunk loop in-bounds and
//! autovectorizes it (AVX2: one 256-bit compare per 4 lanes; NEON/SSE2:
//! per 2). No `std::simd`/intrinsics are used — the generated code is
//! portable and falls back to excellent scalar code on any target.
//!
//! # The lane/tail contract
//!
//! Every run of rows splits into `len / LANES` full chunks, walked in
//! 1K-row blocks (`BLOCK_ROWS`), plus a scalar tail of `len % LANES`
//! rows after the last block. Chunks are processed with branch-free
//! mask arithmetic; the tail re-uses the same scalar predicate/fold the
//! interpreter semantics define. Because the engine's accumulators are
//! either **associative and commutative in their lane domain** (wrapping
//! `i64` sums, comparator-key min/max, counts) or **kept in row order**
//! (`F64` sums — see below), the chunked result is *bit-identical* to the
//! all-scalar result for every type, every mask, every split.
//!
//! # Why `F64` sums stay in fold order
//!
//! IEEE-754 addition is not associative: `(1e16 + 1.0) + 1.0 ≠ 1e16 +
//! (1.0 + 1.0)`. Splitting an `F64` sum across lanes would reassociate it
//! and change low-order bits between the vectorized and scalar paths —
//! and between serial and parallel runs, which the engine promises are
//! bit-identical (see [`h2o_expr::agg::AggState`]'s fold-order contract).
//! So `fold_sum_run` splits integer sums across lanes but performs the
//! `F64` additions one at a time in ascending row order — exactly the
//! order the scalar kernel uses. Integer sums wrap
//! ([`i64::wrapping_add`]) and are reassociated freely.
//!
//! # Branch-free key mapping
//!
//! Ordering is always evaluated in **comparator-key space**
//! ([`LogicalType::cmp_key`]). The chunk loops use its branch-free form:
//! `key = lane ^ ((((lane >> 63) as u64) >> 1) as Value & kmask)` where
//! `kmask` ([`key_mask`]) is `-1` for `F64` and `0` otherwise — the
//! identity map costs two ALU ops that vectorize with the compare, so one
//! uniform loop serves every [`LogicalType`] with no per-chunk dispatch.

use crate::bind::SegRun;
use crate::filter::{CompiledFilter, CompiledPred};
use h2o_expr::CmpOp;
use h2o_storage::{lane_f64, LogicalType, Value};
use std::ops::Range;

/// Fixed chunk width of the vectorized loops, in lanes.
///
/// Eight 64-bit lanes span two AVX2 vectors (or four SSE2/NEON vectors) —
/// wide enough to keep the ports busy, narrow enough that the per-run
/// scalar tail stays at most 7 rows.
pub const LANES: usize = 8;

/// Rows per block of the qualifying-row walker
/// ([`RunFilter::for_each_block`]): the storage chunk
/// ([`h2o_storage::CHUNK_SHIFT`]), so one block's masks are 128 bytes.
pub(crate) const BLOCK_ROWS: usize = 1 << h2o_storage::CHUNK_SHIFT;

/// The branch-free comparator-key mask for a type: `-1` for `F64`
/// (apply the sign-magnitude fix-up), `0` otherwise (identity). See the
/// module docs.
#[inline(always)]
pub fn key_mask(ty: LogicalType) -> Value {
    match ty {
        LogicalType::F64 => -1,
        _ => 0,
    }
}

/// Maps one lane word to its comparator key with the mask form —
/// equals [`LogicalType::cmp_key`] for the type `kmask` encodes.
#[inline(always)]
fn lane_key(lane: Value, kmask: Value) -> Value {
    lane ^ ((((lane >> 63) as u64) >> 1) as Value & kmask)
}

/// One attribute of a [`SegRun`] as a strided lane view: local row `k`'s
/// value is `data[k * stride]` (`stride == 1` ⇒ contiguous — the case the
/// chunk loops load directly). Produced by
/// [`SegRun::attr_view`](crate::bind::SegRun::attr_view).
#[derive(Clone, Copy)]
pub(crate) struct RunCol<'a> {
    data: &'a [Value],
    stride: usize,
}

impl<'a> RunCol<'a> {
    /// Resolves attribute `attr` of `run` into a strided view.
    #[inline]
    pub fn of(run: &SegRun<'_, 'a>, attr: crate::bind::BoundAttr) -> RunCol<'a> {
        let (data, stride) = run.attr_view(attr);
        RunCol { data, stride }
    }

    /// Wraps a contiguous lane slice (stride 1).
    #[cfg(test)]
    pub fn contiguous(data: &'a [Value]) -> RunCol<'a> {
        RunCol { data, stride: 1 }
    }

    /// The view from local row `row` on (a block's first row).
    #[inline]
    pub fn skip(&self, row: usize) -> RunCol<'a> {
        RunCol {
            data: &self.data[row * self.stride..],
            stride: self.stride,
        }
    }

    /// Local row `i`'s lane word (the scalar-tail accessor).
    #[inline(always)]
    pub fn get(&self, i: usize) -> Value {
        self.data[i * self.stride]
    }

    /// Loads the 8 lanes of chunk `k` (local rows `k*8..k*8+8`).
    #[inline(always)]
    fn load(&self, k: usize) -> [Value; LANES] {
        let base = k * LANES;
        if self.stride == 1 {
            // Contiguous fast path: one in-bounds slice copy.
            self.data[base..base + LANES].try_into().unwrap()
        } else {
            let mut lanes = [0; LANES];
            for (j, l) in lanes.iter_mut().enumerate() {
                *l = self.data[(base + j) * self.stride];
            }
            lanes
        }
    }

    /// Asserts once that chunks `0..full` are in bounds, so the chunk
    /// loops' indexing is provably checked and the compiler drops the
    /// per-element checks.
    #[inline]
    fn check(&self, full: usize) {
        if full > 0 {
            let last = (full * LANES - 1) * self.stride;
            assert!(
                last < self.data.len(),
                "run view of {} lanes (stride {}) too short for {} chunks",
                self.data.len(),
                self.stride,
                full
            );
        }
    }
}

/// Computes the 8-bit match mask of one chunk: bit `j` is set iff
/// `cmp(key(lanes[j]), c)` holds. `cmp` is monomorphized per operator so
/// the 8-lane loop is branch-free.
#[inline(always)]
fn chunk_mask<F: Fn(Value, Value) -> bool + Copy>(
    lanes: &[Value; LANES],
    kmask: Value,
    c: Value,
    cmp: F,
) -> u8 {
    let mut m = 0u32;
    for (j, &lane) in lanes.iter().enumerate() {
        m |= (cmp(lane_key(lane, kmask), c) as u32) << j;
    }
    m as u8
}

/// ANDs predicate `pred`'s per-chunk match masks into `masks` (one `u8`
/// per [`LANES`]-row chunk of the run, chunk `k` covering local rows
/// `k*8..k*8+8`). `masks` must already hold the conjunction so far
/// (`0xff`-filled for the first predicate).
///
/// The operator dispatch happens once per run, outside the chunk loop;
/// each arm is a tight compare-into-mask loop the compiler vectorizes.
pub(crate) fn and_pred_masks(col: &RunCol<'_>, pred: &CompiledPred, masks: &mut [u8]) {
    col.check(masks.len());
    let kmask = pred.key_mask();
    let c = pred.value;
    macro_rules! run {
        ($cmp:expr) => {
            for (k, m) in masks.iter_mut().enumerate() {
                // Skip dead chunks: once the conjunction so far is empty
                // no later predicate can revive it.
                if *m != 0 {
                    *m &= chunk_mask(&col.load(k), kmask, c, $cmp);
                }
            }
        };
    }
    match pred.op {
        CmpOp::Lt => run!(|a, b| a < b),
        CmpOp::Le => run!(|a, b| a <= b),
        CmpOp::Gt => run!(|a, b| a > b),
        CmpOp::Ge => run!(|a, b| a >= b),
        CmpOp::Eq => run!(|a, b| a == b),
        CmpOp::Ne => run!(|a, b| a != b),
    }
}

/// A [`CompiledFilter`] resolved against one [`SegRun`]: every predicate's
/// attribute becomes a strided [`RunCol`] over the run's lanes, for any
/// plan slot, so the chunked mask build and the scalar tail touch raw
/// slices with no per-row segment lookup. Its masks
/// ([`Self::for_each_block`]) are what the block walker
/// (`kernels::for_each_block`) and the per-column tier read.
pub(crate) struct RunFilter<'a> {
    preds: Vec<(RunCol<'a>, CompiledPred)>,
    /// Rows in the run.
    rows: usize,
}

impl<'a> RunFilter<'a> {
    /// Resolves `filter` against `run`. An always-true filter resolves to
    /// zero predicates: masks stay `0xff` and every tail row matches.
    pub fn resolve(run: &SegRun<'_, 'a>, filter: &CompiledFilter) -> RunFilter<'a> {
        RunFilter {
            preds: filter
                .preds()
                .iter()
                .map(|p| (RunCol::of(run, p.attr), *p))
                .collect(),
            rows: run.len(),
        }
    }

    /// Walks the run's full 8-row chunks in [`BLOCK_ROWS`]-row blocks, in
    /// row order: fills the conjunction's chunk masks once per block and
    /// hands `block(first local row, masks)` to the caller, so a consumer
    /// that re-reads the block (one fold per column) finds it
    /// cache-resident. Returns the scalar tail (the run's last
    /// `len % LANES` rows) for the caller to test with
    /// [`Self::matches_row`] after every block.
    pub fn for_each_block(&self, mut block: impl FnMut(usize, &[u8])) -> Range<usize> {
        let n = self.rows;
        let full = n / LANES * LANES;
        let mut masks = [0u8; BLOCK_ROWS / LANES];
        for start in (0..full).step_by(BLOCK_ROWS) {
            let masks = &mut masks[..(full - start).min(BLOCK_ROWS) / LANES];
            masks.fill(0xff);
            for (col, p) in &self.preds {
                and_pred_masks(&col.skip(start), p, masks);
            }
            block(start, masks);
        }
        full..n
    }

    /// Scalar conjunction for local row `i` — the tail path, semantically
    /// identical to the chunked masks.
    #[inline(always)]
    pub fn matches_row(&self, i: usize) -> bool {
        self.preds.iter().all(|(col, p)| p.matches_lane(col.get(i)))
    }
}

/// Calls `f` with the index of every set bit of the chunk masks (chunk
/// `k`'s bit `j` is row `k * LANES + j`), ascending. Set bits are walked
/// with `trailing_zeros` / clear-lowest, so sparse chunks cost one test
/// and dense chunks no branches per row.
#[inline(always)]
pub(crate) fn for_each_set_bit(masks: &[u8], mut f: impl FnMut(usize)) {
    for (k, &m) in masks.iter().enumerate() {
        let mut bits = m as u32;
        while bits != 0 {
            f(k * LANES + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Unmasked sum over the first `n` rows of a run, folded into `acc` —
/// the per-column tier without a filter. Chunks lane-split for integer
/// types; `F64` stays a plain in-order scalar fold (its reduction cannot
/// be reassociated — module docs), and the `n % LANES` tail is scalar.
pub(crate) fn fold_sum_run(ty: LogicalType, acc: &mut Value, col: &RunCol<'_>, n: usize) {
    if ty == LogicalType::F64 {
        let mut a = lane_f64(*acc);
        for i in 0..n {
            a += lane_f64(col.get(i));
        }
        *acc = h2o_storage::f64_lane(a);
        return;
    }
    let full = n / LANES;
    col.check(full);
    let mut lanes = [0 as Value; LANES];
    for k in 0..full {
        let vs = col.load(k);
        for (j, l) in lanes.iter_mut().enumerate() {
            *l = l.wrapping_add(vs[j]);
        }
    }
    for l in lanes {
        *acc = acc.wrapping_add(l);
    }
    for i in full * LANES..n {
        *acc = acc.wrapping_add(col.get(i));
    }
}

/// Unmasked comparator-key min/max over the first `n` rows of a run,
/// folded into `acc` (key space). Chunked main loop, scalar tail.
pub(crate) fn fold_minmax_run(
    is_max: bool,
    ty: LogicalType,
    acc: &mut Value,
    col: &RunCol<'_>,
    n: usize,
) {
    let kmask = key_mask(ty);
    let full = n / LANES;
    col.check(full);
    let ident = if is_max { Value::MIN } else { Value::MAX };
    let mut lanes = [ident; LANES];
    for k in 0..full {
        let vs = col.load(k);
        for (j, l) in lanes.iter_mut().enumerate() {
            let key = lane_key(vs[j], kmask);
            *l = if is_max { key.max(*l) } else { key.min(*l) };
        }
    }
    for l in lanes {
        if is_max {
            *acc = (*acc).max(l);
        } else {
            *acc = (*acc).min(l);
        }
    }
    for i in full * LANES..n {
        let key = lane_key(col.get(i), kmask);
        *acc = if is_max {
            (*acc).max(key)
        } else {
            (*acc).min(key)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::BoundAttr;
    use h2o_storage::f64_lane;

    #[test]
    fn lane_key_matches_cmp_key_for_every_type() {
        let samples = [
            0,
            1,
            -1,
            i64::MAX,
            i64::MIN,
            f64_lane(0.0),
            f64_lane(-0.0),
            f64_lane(3.5),
            f64_lane(-3.5),
            f64_lane(f64::NAN),
            f64_lane(f64::NEG_INFINITY),
        ];
        for ty in [LogicalType::I64, LogicalType::F64, LogicalType::Dict] {
            for &v in &samples {
                assert_eq!(lane_key(v, key_mask(ty)), ty.cmp_key(v), "{ty:?} {v}");
            }
        }
    }

    fn pred(op: CmpOp, ty: LogicalType, lane_const: Value) -> CompiledPred {
        CompiledPred::from_lane(BoundAttr { slot: 0, offset: 0 }, op, ty, lane_const)
    }

    #[test]
    fn chunk_masks_agree_with_scalar_for_all_ops() {
        // 24 lanes (3 chunks), values engineered around the constant 10.
        let data: Vec<Value> = (0..24).map(|i| (i * 7) % 23 - 3).collect();
        let col = RunCol::contiguous(&data);
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            let p = pred(op, LogicalType::I64, 10);
            let mut masks = vec![0xffu8; 3];
            and_pred_masks(&col, &p, &mut masks);
            for (i, &v) in data.iter().enumerate() {
                let bit = masks[i / LANES] >> (i % LANES) & 1 == 1;
                assert_eq!(bit, p.matches_lane(v), "{op:?} row {i}");
            }
        }
    }

    #[test]
    fn chunk_masks_agree_with_scalar_for_f64_and_strided() {
        let vals = [1.5, -0.0, 0.0, f64::NAN, -7.0, 2.5, f64::INFINITY, -1.0];
        // width-3 tuples, attribute at offset 1 ⇒ stride 3.
        let mut data = Vec::new();
        for (i, &v) in vals.iter().enumerate() {
            data.extend_from_slice(&[i as Value, f64_lane(v), 0]);
        }
        let col = RunCol {
            data: &data[1..],
            stride: 3,
        };
        let p = pred(CmpOp::Lt, LogicalType::F64, f64_lane(1.0));
        let mut masks = vec![0xffu8; 1];
        and_pred_masks(&col, &p, &mut masks);
        for (i, &v) in vals.iter().enumerate() {
            let bit = masks[0] >> i & 1 == 1;
            assert_eq!(bit, p.matches_lane(f64_lane(v)), "row {i} ({v})");
        }
    }

    #[test]
    fn set_bits_decode_ascending() {
        let masks = [0b1000_0001u8, 0, 0b0101_0000];
        let mut rows = Vec::new();
        for_each_set_bit(&masks, |i| rows.push(i));
        assert_eq!(rows, [0, 7, 20, 22]);
    }

    #[test]
    fn unmasked_folds_cover_tails() {
        // n = 21: two full chunks + 5-row tail.
        let data: Vec<Value> = (0..21).map(|i| 1000 - 13 * i).collect();
        let col = RunCol::contiguous(&data);
        let mut sum = 0;
        fold_sum_run(LogicalType::I64, &mut sum, &col, 21);
        assert_eq!(sum, data.iter().sum::<Value>());
        let (mut mn, mut mx) = (Value::MAX, Value::MIN);
        fold_minmax_run(false, LogicalType::I64, &mut mn, &col, 21);
        fold_minmax_run(true, LogicalType::I64, &mut mx, &col, 21);
        assert_eq!(mn, *data.iter().min().unwrap());
        assert_eq!(mx, *data.iter().max().unwrap());
    }

    #[test]
    fn dead_chunk_skip_preserves_conjunction() {
        let data: Vec<Value> = (0..16).collect();
        let col = RunCol::contiguous(&data);
        let mut masks = vec![0xffu8; 2];
        // First predicate kills chunk 0 entirely.
        and_pred_masks(&col, &pred(CmpOp::Ge, LogicalType::I64, 8), &mut masks);
        assert_eq!(masks[0], 0);
        // Second predicate must leave the dead chunk dead.
        and_pred_masks(&col, &pred(CmpOp::Lt, LogicalType::I64, 12), &mut masks);
        assert_eq!(masks[0], 0);
        assert_eq!(masks[1], 0b0000_1111);
    }
}
