//! Hash-grouped aggregation kernels for all three execution strategies.
//!
//! Grouped aggregation is a query class the paper does not evaluate; this
//! module extends each of the paper's execution strategies with it while
//! preserving their cost structure:
//!
//! * **fused** ([`fused_range`]) — one pass, filter masks + key/aggregate-
//!   input evaluation + hash update per qualifying tuple, no intermediates
//!   (the Fig. 5 loop with a hash probe in place of the output append),
//!   for one column group or many;
//! * **selection-vector** ([`aggregate_ids`]) — phase 2 of the Fig. 6 pair:
//!   walk an id chunk and gather keys/inputs from the select-clause
//!   group(s), folding into the table;
//! * **column-major** ([`aggregate_ids_columnar`]) — DSM-style: key and
//!   aggregate-input columns are **materialized as intermediate columns**
//!   first (one per expression, exactly like §2.1 expression evaluation),
//!   then a single fold walks the materialized columns.
//!
//! Every kernel returns a [`GroupedAggs`] table, which is the morsel-local
//! partial of parallel execution: the sink ([`crate::sink`]) merges
//! per-morsel tables ([`GroupedAggs::merge`] — associative and commutative
//! per key, the `AggState::from_parts`-style bridge for grouped state) and
//! finishes once, and because [`GroupedAggs::finish`] sorts by key vector,
//! parallel execution is bit-identical to serial for every strategy.

use super::{scan_rows, RowBody};
use crate::bind::{BoundAttr, GroupViews};
use crate::filter::CompiledFilter;
use crate::program::CompiledExpr;
use h2o_expr::agg::AggOp;
use h2o_expr::grouped::GroupedAggs;
use h2o_storage::{LogicalType, Value};
use std::ops::Range;

/// Fresh morsel-local table for a grouped program. Key types drive the
/// typed ascending sort of [`GroupedAggs::finish`]; the table itself
/// hashes raw lane bits.
pub fn table_for(key_types: &[LogicalType], aggs: &[(AggOp, CompiledExpr)]) -> GroupedAggs {
    GroupedAggs::new(key_types.to_vec(), aggs.iter().map(|(f, _)| *f).collect())
}

/// Evaluates one row's group keys and aggregate inputs through `get`
/// into `buf` (keys first, `keys.len() + aggs.len()` lanes) and folds them
/// `n` times in one table probe ([`GroupedAggs::update_n`]). The fused
/// and selection-vector kernels' per-row step (`n = 1`) and the grouped
/// sink's ([`SelectProgram::push`](crate::sink::SelectProgram::push)),
/// where the join's probe-only fold plan uses `n` to collapse a probe
/// row's identical build matches into a single factorized update.
#[inline(always)]
pub(crate) fn fold_row(
    table: &mut GroupedAggs,
    keys: &[CompiledExpr],
    aggs: &[(AggOp, CompiledExpr)],
    buf: &mut [Value],
    get: impl Fn(BoundAttr) -> Value,
    n: u64,
) {
    let (key, vals) = buf.split_at_mut(keys.len());
    for (slot, k) in key.iter_mut().zip(keys) {
        *slot = k.eval(&get);
    }
    for (slot, (_, e)) in vals.iter_mut().zip(aggs) {
        *slot = e.eval(&get);
    }
    table.update_n(key, vals, n);
}

/// Fused grouped aggregation over one row range, folding into `table`
/// (a range split in pieces folds exactly like the whole). Qualifying
/// rows come from the fused scan's block walker (`scan_rows`) in
/// ascending row order, so per-group `F64` sums keep the scalar fold
/// order, for one column group or many.
pub fn fused_range(
    views: &GroupViews<'_>,
    filter: &CompiledFilter,
    keys: &[CompiledExpr],
    aggs: &[(AggOp, CompiledExpr)],
    range: Range<usize>,
    table: &mut GroupedAggs,
) {
    struct Rows<'a> {
        table: &'a mut GroupedAggs,
        keys: &'a [CompiledExpr],
        aggs: &'a [(AggOp, CompiledExpr)],
        buf: Vec<Value>,
    }
    impl RowBody for Rows<'_> {
        #[inline(always)]
        fn row(&mut self, get: impl Fn(BoundAttr) -> Value) {
            fold_row(self.table, self.keys, self.aggs, &mut self.buf, get, 1);
        }
    }
    let buf = vec![0; keys.len() + aggs.len()];
    let mut body = Rows {
        table,
        keys,
        aggs,
        buf,
    };
    scan_rows(views, filter, range, &mut body);
}

/// Selection-vector phase-2 grouped aggregation over one contiguous chunk
/// of qualifying ids: gather keys and aggregate inputs per id, fold into
/// the chunk-local table.
pub fn aggregate_ids(
    views: &GroupViews<'_>,
    ids: &[u32],
    keys: &[CompiledExpr],
    key_types: &[LogicalType],
    aggs: &[(AggOp, CompiledExpr)],
) -> GroupedAggs {
    let mut table = table_for(key_types, aggs);
    let mut buf: Vec<Value> = vec![0; keys.len() + aggs.len()];
    for &row in ids {
        let row = row as usize;
        fold_row(&mut table, keys, aggs, &mut buf, |a| views.get(a, row), 1);
    }
    table
}

/// Column-at-a-time grouped aggregation over one id chunk: every key and
/// aggregate-input expression is first materialized as an intermediate
/// column over the selected rows (the §2.1 execution model), then one fold
/// walks the columns row-wise into the table.
pub fn aggregate_ids_columnar(
    views: &GroupViews<'_>,
    ids: &[u32],
    keys: &[CompiledExpr],
    key_types: &[LogicalType],
    aggs: &[(AggOp, CompiledExpr)],
) -> GroupedAggs {
    let key_cols: Vec<Vec<Value>> = keys
        .iter()
        .map(|e| super::colmajor::materialize_expr_column(views, ids, e))
        .collect();
    let val_cols: Vec<Vec<Value>> = aggs
        .iter()
        .map(|(_, e)| super::colmajor::materialize_expr_column(views, ids, e))
        .collect();
    let mut table = table_for(key_types, aggs);
    let mut key: Vec<Value> = vec![0; keys.len()];
    let mut vals: Vec<Value> = vec![0; aggs.len()];
    for i in 0..ids.len() {
        for (slot, col) in key.iter_mut().zip(&key_cols) {
            *slot = col[i];
        }
        for (slot, col) in vals.iter_mut().zip(&val_cols) {
            *slot = col[i];
        }
        table.update(&key, &vals);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::BoundAttr;
    use crate::filter::CompiledPred;
    use h2o_expr::{AggFunc, CmpOp};
    use h2o_storage::LogicalType;
    use h2o_storage::{AttrId, ColumnGroup};

    fn ba(offset: u32) -> BoundAttr {
        BoundAttr { slot: 0, offset }
    }

    /// One wide group: key = [1,2,1,2,1], val = [10,20,30,40,50],
    /// filter attr = [0,1,2,3,4].
    fn sample() -> h2o_storage::ColumnGroup {
        ColumnGroup::from_columns(
            vec![AttrId(0), AttrId(1), AttrId(2)],
            &[&[1, 2, 1, 2, 1], &[10, 20, 30, 40, 50], &[0, 1, 2, 3, 4]],
        )
        .unwrap()
    }

    const KT1: &[LogicalType] = &[LogicalType::I64];

    fn program() -> (Vec<CompiledExpr>, Vec<(AggOp, CompiledExpr)>) {
        (
            vec![CompiledExpr::Col(ba(0))],
            vec![
                (AggFunc::Sum.into(), CompiledExpr::Col(ba(1))),
                (AggFunc::Count.into(), CompiledExpr::Col(ba(0))),
            ],
        )
    }

    fn fused(
        views: &GroupViews<'_>,
        filter: &CompiledFilter,
        keys: &[CompiledExpr],
        aggs: &[(AggOp, CompiledExpr)],
        range: Range<usize>,
    ) -> GroupedAggs {
        let mut table = table_for(KT1, aggs);
        fused_range(views, filter, keys, aggs, range, &mut table);
        table
    }

    #[test]
    fn all_three_kernels_agree() {
        let g = sample();
        let views = GroupViews::from_groups(&[&g]);
        let (keys, aggs) = program();
        let filter = CompiledFilter::new(vec![CompiledPred {
            attr: ba(2),
            op: CmpOp::Lt,
            ty: LogicalType::I64,
            value: 4,
        }]);
        // Qualifying rows 0..=3: key 1 -> {10, 30}, key 2 -> {20, 40}.
        let fused = fused(&views, &filter, &keys, &aggs, 0..5).finish();
        assert_eq!(fused.rows(), 2);
        assert_eq!(fused.row(0), &[1, 40, 2]);
        assert_eq!(fused.row(1), &[2, 60, 2]);
        let ids: Vec<u32> = vec![0, 1, 2, 3];
        let sel = aggregate_ids(&views, &ids, &keys, KT1, &aggs).finish();
        let col = aggregate_ids_columnar(&views, &ids, &keys, KT1, &aggs).finish();
        assert_eq!(sel, fused);
        assert_eq!(col, fused);
    }

    #[test]
    fn range_partials_merge_to_full_fold() {
        let g = sample();
        let views = GroupViews::from_groups(&[&g]);
        let (keys, aggs) = program();
        let full = fused(&views, &CompiledFilter::always(), &keys, &aggs, 0..5).finish();
        let partials: Vec<GroupedAggs> = [0..2, 2..3, 3..5]
            .into_iter()
            .map(|r| fused(&views, &CompiledFilter::always(), &keys, &aggs, r))
            .collect();
        let select = crate::sink::SelectProgram::Grouped {
            keys,
            key_types: KT1.to_vec(),
            aggs,
        };
        let partials = partials.into_iter().map(Into::into).collect();
        assert_eq!(select.finish(partials), full);
    }

    #[test]
    fn filtered_multi_group_grouped_matches_the_interpreter() {
        use h2o_expr::{Aggregate, Conjunction, Expr, Predicate, Query};
        // Keys from slot 0, aggregate inputs from both slots, filtered on
        // slot 1.
        let q = Query::grouped(
            [Expr::col(0u32)],
            [
                Aggregate::sum(Expr::col(3u32)),
                Aggregate::max(Expr::col(1u32)),
                Aggregate::sum(Expr::col(2u32)),
                Aggregate::count(),
            ],
            Conjunction::of([Predicate::lt(2u32, 60)]),
        )
        .unwrap();
        let (got, want) = crate::kernels::testing::fused_vs_interpreter(&q);
        assert_eq!(got.rows(), 5);
        assert_eq!(got, want);
    }

    #[test]
    fn multi_group_plans_stitch() {
        let g1 = ColumnGroup::from_columns(vec![AttrId(0)], &[&[7, 7, 8]]).unwrap();
        let g2 = ColumnGroup::from_columns(vec![AttrId(1)], &[&[1, 2, 3]]).unwrap();
        let views = GroupViews::from_groups(&[&g1, &g2]);
        let keys = vec![CompiledExpr::Col(BoundAttr { slot: 0, offset: 0 })];
        let aggs = vec![(
            AggFunc::Max.into(),
            CompiledExpr::Col(BoundAttr { slot: 1, offset: 0 }),
        )];
        let out = fused(&views, &CompiledFilter::always(), &keys, &aggs, 0..3).finish();
        assert_eq!(out.rows(), 2);
        assert_eq!(out.row(0), &[7, 2]);
        assert_eq!(out.row(1), &[8, 3]);
    }
}
