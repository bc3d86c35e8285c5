//! The grouped-aggregation block pipeline.
//!
//! A batch of rows arrives through the select program's batch step
//! (`SelectProgram::fold`) — a block of the scan's walker, a join's hit
//! rows or matched pairs — and runs three stages:
//!
//! 1. **evaluate**: the source evaluates every key expression into the
//!    block's key lanes (row-major) and every aggregate input but a
//!    `count`'s into its column;
//! 2. **resolve**: the block's group ids, in one pass of one of two
//!    tiers. A one-lane key whose block spans fewer than `DENSE_SPAN` raw
//!    lane values reads a direct-index memo (lane value → group id) that
//!    is filled through the table the first time a key appears, so ids
//!    stay first-appearance ids; raw lane bits pick the tier, so `F64`
//!    keys (NaN payloads, `-0.0`) need no special case. Every other block
//!    hashes all its keys, then probes with the hashes;
//! 3. **fold**: [`GroupedAggs::fold_block`] dispatches once per aggregate
//!    and folds its column into the groups' states in row order (each
//!    row `mults[i]` times when the source gives multiplicities), so each
//!    group's `F64` sum stays one chain in row order and a serial run is
//!    bit-identical to the interpreter's per-row fold.
//!
//! The join build resolves its group keys through stages 1–2 alone
//! (`GroupBlock::resolve_with`), and gathers its keys and payload through
//! [`gather_col`](super::gather_col).

use h2o_expr::lanemap::hash_key;
use h2o_expr::GroupedAggs;
use h2o_storage::Value;

/// Widest raw-lane span (`max - min + 1`) of a block's one-lane keys that
/// the dense memo resolves: 4 KB of ids, resident in L1.
const DENSE_SPAN: usize = 1024;

/// A memo slot no key has filled yet.
const NO_ID: u32 = u32::MAX;

/// The pipeline's block buffers and its dense memo, kept beside one table
/// (in a grouped [`Partial`](crate::sink::Partial)) across every block and
/// source fed to it: the memo holds that table's ids.
#[derive(Debug, Default)]
pub(crate) struct GroupBlock {
    /// The block's key lanes, row-major.
    keys: Vec<Value>,
    /// The block's aggregate inputs, column by column.
    vals: Vec<Value>,
    /// The block's group ids.
    ids: Vec<u32>,
    /// The block's key hashes (hash tier).
    hashes: Vec<u64>,
    /// `memo[k - base]` is the id of one-lane key `k`, or [`NO_ID`], for
    /// `k` in `base..base + memo.len()`.
    memo: Vec<u32>,
    base: Value,
}

impl GroupBlock {
    /// Runs one block of `n` rows into `table`: sizes the buffers, lets
    /// `gather` fill them (stage 1: the key lanes row-major, the aggregate
    /// inputs one `n`-lane column each), then resolves (stage 2) and folds
    /// (stage 3), each row `mults[i]` times when multiplicities are given.
    /// The block's evaluation is the caller's; [`Self::run`] never reads a
    /// column group.
    pub(crate) fn run(
        &mut self,
        table: &mut GroupedAggs,
        key_width: usize,
        aggs: usize,
        n: usize,
        gather: impl FnOnce(&mut [Value], &mut [Value]),
        mults: Option<&[u32]>,
    ) {
        self.keys.resize(n * key_width, 0);
        self.vals.resize(n * aggs, 0);
        gather(&mut self.keys, &mut self.vals);
        self.resolve(key_width, |key, h| table.id_hashed(key, h));
        table.fold_block(&self.ids, &self.vals, mults);
    }

    /// Stages 1 and 2 alone, for ids another structure keeps: lets
    /// `gather` fill the key lanes of `n` rows (row-major), then resolves
    /// them through `id` (a key and its [`hash_key`] to its dense id) and
    /// returns the block's ids. The memo then holds `id`'s ids, so one
    /// `GroupBlock` serves one id space. The join build resolves its
    /// build-side group keys here.
    pub(crate) fn resolve_with(
        &mut self,
        key_width: usize,
        n: usize,
        gather: impl FnOnce(&mut [Value]),
        id: impl FnMut(&[Value], u64) -> u32,
    ) -> &[u32] {
        self.keys.resize(n * key_width, 0);
        gather(&mut self.keys);
        self.resolve(key_width, id);
        &self.ids
    }

    /// Stage 2: the group id of every key of the block, in row order.
    fn resolve(&mut self, key_width: usize, mut id: impl FnMut(&[Value], u64) -> u32) {
        self.ids.clear();
        if key_width == 1 && !self.keys.is_empty() {
            let (lo, hi) = self
                .keys
                .iter()
                .fold((Value::MAX, Value::MIN), |(lo, hi), &k| {
                    (lo.min(k), hi.max(k))
                });
            // Unsigned offsets from `lo` are exact for any two lanes, so
            // the span test cannot overflow.
            if (hi as u64).wrapping_sub(lo as u64) < DENSE_SPAN as u64 {
                let offset = |k: Value, base: Value| (k as u64).wrapping_sub(base as u64) as usize;
                if offset(lo, self.base) >= self.memo.len()
                    || offset(hi, self.base) >= self.memo.len()
                {
                    // The block leaves the memo's window: move it to `lo`.
                    self.base = lo;
                    self.memo.clear();
                    self.memo.resize(DENSE_SPAN, NO_ID);
                }
                self.ids.resize(self.keys.len(), 0);
                for (out, &k) in self.ids.iter_mut().zip(&self.keys) {
                    let slot = &mut self.memo[offset(k, self.base)];
                    if *slot == NO_ID {
                        *slot = id(&[k], hash_key(&[k]));
                    }
                    *out = *slot;
                }
                return;
            }
        }
        self.hashes.clear();
        self.hashes
            .extend(self.keys.chunks_exact(key_width).map(hash_key));
        for (key, &h) in self.keys.chunks_exact(key_width).zip(&self.hashes) {
            self.ids.push(id(key, h));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_expr::agg::AggFunc;
    use h2o_storage::{f64_lane, LogicalType};

    /// Resolves each block through one pipeline and checks every id
    /// against a per-key table fed the same keys in the same order.
    fn resolve_like_per_key(key_width: usize, blocks: &[Vec<Value>]) {
        let table = || GroupedAggs::untyped(key_width, [AggFunc::Count]);
        let (mut got, mut want) = (table(), table());
        let mut blk = GroupBlock::default();
        for (b, keys) in blocks.iter().enumerate() {
            let n = keys.len() / key_width;
            blk.run(
                &mut got,
                key_width,
                1,
                n,
                |kbuf, _| kbuf.copy_from_slice(keys),
                None,
            );
            let ids: Vec<u32> = keys.chunks(key_width).map(|k| want.id(k)).collect();
            assert_eq!(blk.ids, ids, "block {b}");
            want.fold_block(&ids, &vec![0; n], None);
        }
        assert_eq!(got.finish(), want.finish());
    }

    #[test]
    fn dense_memo_follows_its_window() {
        let dense = |base: Value| (0..700).map(|i| base + i * 7 % 300).collect::<Vec<_>>();
        resolve_like_per_key(
            1,
            &[
                dense(0),
                dense(0),
                // Inside the window but for new keys, then moved up, then
                // below it, then wide (the hash tier), then back.
                (0..50).map(|i| 900 + i).collect(),
                dense(5_000),
                dense(4_990),
                (0..900).map(|i| i * 1_000_003).collect(),
                dense(4_990),
                vec![3],
            ],
        );
    }

    #[test]
    fn spans_at_the_lane_edges_do_not_overflow() {
        let (min, max) = (Value::MIN, Value::MAX);
        resolve_like_per_key(
            1,
            &[
                vec![min, min + 3, min + 1, min],
                vec![max, max - 2, max],
                // The span of i64::MIN..=i64::MAX is the whole lane.
                vec![min, max, min + 1, max - 1, 0],
                // -0.0 and +0.0 are i64::MIN and 0 as raw lanes.
                vec![f64_lane(-0.0), f64_lane(0.0), f64_lane(-0.0)],
                vec![
                    f64_lane(f64::NAN),
                    f64_lane(f64::from_bits(0x7FF8_0000_0000_0001)),
                ],
            ],
        );
    }

    #[test]
    fn wide_keys_hash_the_block() {
        resolve_like_per_key(2, &[vec![1, 2, 1, 3, 1, 2], vec![4, 4, 1, 2]]);
    }

    #[test]
    fn empty_blocks_resolve_nothing() {
        let mut table = GroupedAggs::new(vec![LogicalType::I64], vec![]);
        let mut blk = GroupBlock::default();
        blk.run(&mut table, 1, 0, 0, |_, _| {}, None);
        assert!(table.is_empty());
        assert!(blk.memo.is_empty(), "no memo for an empty block");
    }
}
