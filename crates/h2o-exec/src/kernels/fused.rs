//! The fused volcano kernel (paper Fig. 5) and the per-column
//! bare-column aggregate tier.
//!
//! The fused scan is one pass over the relation: the where-clause is
//! evaluated (both predicates in one step) and every qualifying tuple's
//! select-items are computed immediately. No selection vector, no
//! intermediate results — the access pattern the paper generates.
//! The block walker ([`kernels::for_each_block`](super::for_each_block))
//! finds the qualifying rows in 1K-row blocks of 8-row chunk masks, over
//! one column group or several (§3.3, Fig. 12), and each block folds
//! through the select program's one batch step, the one the join runs
//! too. It runs every plan: the paper's two-phase selection-vector plan
//! (Fig. 6) is this scan with a morsel's ids held instead of a block's,
//! and its column-at-a-time plan (§2.1) keeps its loop over one
//! contiguous array here, in the per-column tier (`fold_columns`) and
//! the scan's evaluator (`kernels::eval_scan`).
//!
//! The tier folds an aggregate whose every input is a bare column, when
//! the columns are a few at adjacent offsets of one slot or each fill a
//! slot of width one (`tier_columns`). Under a filter each 1K-row
//! block's qualifying rows are decoded once and each column folds them;
//! without one, each column folds unmasked over every run.
//!
//! Every fold is parameterized by a row **range** and
//! continues a caller-owned accumulator, so the morsel-parallel driver
//! (`crate::parallel`) can run disjoint row ranges on worker threads —
//! [`AggState`] partials merged in morsel order; a serial execution is
//! the single range `0..rows` — and online reorganization
//! ([`crate::reorg`]) can run a range in the 1K-row chunks it stitches,
//! every chunk continuing the range's one accumulator.

use super::{simd, upd_max, upd_min, upd_sum};
use crate::bind::{BoundAttr, GroupViews};
use crate::filter::CompiledFilter;
use crate::program::CompiledExpr;
use crate::sink::{Partial, SelectProgram};
use h2o_expr::agg::{AggOp, AggState};
use h2o_expr::AggFunc;
use h2o_storage::Value;
use std::ops::Range;

/// The `(op, column)` pairs of an aggregate list whose every input is a
/// bare column or a `count`'s, whatever it is — the shape
/// [`aggregate_range`] folds; `None` otherwise. A `count` reads no lane:
/// its column is a placeholder (slot 0, offset 0) that no tier fetches,
/// since a bare `count(*)` plan binds no slot at all.
pub fn bare_columns(aggs: &[(AggOp, CompiledExpr)]) -> Option<Vec<(AggOp, BoundAttr)>> {
    aggs.iter()
        .map(|(f, e)| match e {
            _ if f.func == AggFunc::Count => Some((*f, BoundAttr { slot: 0, offset: 0 })),
            CompiledExpr::Col(a) => Some((*f, *a)),
            _ => None,
        })
        .collect()
}

/// Most columns of one slot the per-column tier folds. The tier reads a
/// block's rows once per column, while the batch step reads each
/// qualifying tuple once, so past a few columns the batch step wins.
/// Columns that each fill a slot of width one share no tuple, so they
/// take the tier whatever their number. In the
/// `cost_trial` grid (`results/COST_39.json`: 200K rows × 40 attributes,
/// `max` over adjacent columns of a row-major or an exact group; at the
/// parent, `fused` ran the tier on every block and `selvec` the batch
/// step) the tier took 0.57–0.73× the batch step's time over 2 columns
/// at 100% selectivity, 0.80× (row-major) to 1.18× (exact group) over
/// 8 columns, and 3.1–3.8× over 39 columns at 1%.
pub const TIER_MAX_COLS: usize = 4;

/// [`bare_columns`] when the per-column tier folds them: the columns
/// read sit at adjacent offsets of one slot and number at most
/// [`TIER_MAX_COLS`] (the exact shape of `select max(a_j), ...,
/// max(a_{j+k})` over a tailored group), or each fills a slot of width
/// one, any number of them (a column layout's arrays, which the tier
/// reads contiguously). A `count`'s reads no column, so `count(*)` alone
/// takes the tier.
pub(crate) fn tier_columns(
    views: &GroupViews<'_>,
    aggs: &[(AggOp, CompiledExpr)],
) -> Option<Vec<(AggOp, BoundAttr)>> {
    let cols = bare_columns(aggs)?;
    let read: Vec<BoundAttr> = cols
        .iter()
        .filter(|(f, _)| f.func != AggFunc::Count)
        .map(|&(_, a)| a)
        .collect();
    if read.iter().all(|a| views.width(a.slot) == 1) {
        return Some(cols);
    }
    adjacent(&read).then_some(cols)
}

/// Whether the columns `read` sit at adjacent offsets of one slot and
/// number at most [`TIER_MAX_COLS`].
pub(crate) fn adjacent(read: &[BoundAttr]) -> bool {
    let Some(first) = read.first() else {
        return false;
    };
    let lo = read.iter().map(|a| a.offset).min().unwrap_or(0);
    let hi = read.iter().map(|a| a.offset).max().unwrap_or(0);
    read.iter().all(|a| a.slot == first.slot)
        && ((hi - lo) as usize) < read.len()
        && read.len() <= TIER_MAX_COLS
}

/// A scalar aggregate over the rows of `range` that pass `filter`,
/// continuing `states` (one per aggregate, in order) exactly as the fused
/// scan folds it (`SelectProgram::feed`): inputs of `tier_columns`'s
/// shape take the per-column tier (`fold_columns`), every other
/// aggregate the batch step over the walker's blocks. Each column stays
/// one fold chain in row order in both, so `F64` sums are bit-identical
/// whichever runs, and either leaves states field-identical to one
/// [`AggState::update`] per qualifying row.
pub fn aggregate_range(
    views: &GroupViews<'_>,
    filter: &CompiledFilter,
    range: Range<usize>,
    aggs: &[(AggOp, CompiledExpr)],
    states: &mut [AggState],
) {
    let select = SelectProgram::Aggregate(aggs.to_vec());
    let mut part = Partial::from(states.to_vec());
    select.feed(views, filter, range, &mut part);
    states.copy_from_slice(part.states());
}

/// One scalar update of a raw accumulator (the per-column tier's run
/// tails).
#[inline(always)]
fn upd(f: AggOp, acc: &mut Value, v: Value) {
    match f.func {
        AggFunc::Max => upd_max(f.ty, acc, v),
        AggFunc::Min => upd_min(f.ty, acc, v),
        AggFunc::Sum | AggFunc::Avg => upd_sum(f.ty, acc, v),
        AggFunc::Count => {}
    }
}

/// Folds the local `rows` of `col` (ascending) into `acc`: one column of
/// a block, its accumulator in a register and its function dispatched
/// once.
fn fold_rows(f: AggOp, acc: &mut Value, col: &simd::RunCol<'_>, rows: &[u32]) {
    let mut a = *acc;
    let lanes = rows.iter().map(|&i| col.get(i as usize));
    match f.func {
        AggFunc::Max => lanes.for_each(|v| upd_max(f.ty, &mut a, v)),
        AggFunc::Min => lanes.for_each(|v| upd_min(f.ty, &mut a, v)),
        AggFunc::Sum | AggFunc::Avg => lanes.for_each(|v| upd_sum(f.ty, &mut a, v)),
        AggFunc::Count => {}
    }
    *acc = a;
}

/// The per-column tier of [`aggregate_range`], for the columns of
/// `tier_columns`, continuing `states`: they fold into raw
/// accumulators ([`AggState::raw`]: min/max in comparator-key space,
/// sum/avg in the lane domain) under one shared match count, one column
/// at a time. Without a filter every row of a run qualifies, and each
/// column folds unmasked over the run with the shared lane primitives —
/// integer sums/min/max lane-split, `F64` sums one in-order chain (the
/// fold-order contract of [`h2o_expr::agg::AggState`]). Otherwise, per
/// run, the conjunction is evaluated into chunk masks one 1K-row block at
/// a time, the block's qualifying rows are decoded once, and each column
/// folds them in row order ([`fold_rows`]) while the block is
/// cache-resident; the run's scalar tail follows, row by row.
pub(crate) fn fold_columns(
    views: &GroupViews<'_>,
    filter: &CompiledFilter,
    range: Range<usize>,
    cols: &[(AggOp, BoundAttr)],
    states: &mut [AggState],
) {
    let mut acc: Vec<Value> = states.iter().map(AggState::raw).collect();
    let mut matched: u64 = 0;
    let always = filter.is_always_true();
    let mut rows = [0u32; simd::BLOCK_ROWS];
    for run in views.runs_pruned(range, filter) {
        // The columns read, each with its accumulator: a `count`'s is the
        // match count alone.
        let mut lanes: Vec<(AggOp, &mut Value, simd::RunCol<'_>)> = cols
            .iter()
            .zip(acc.iter_mut())
            .filter(|((f, _), _)| f.func != AggFunc::Count)
            .map(|(&(f, a), acc)| (f, acc, simd::RunCol::of(&run, a)))
            .collect();
        if always {
            let n = run.len();
            matched += n as u64;
            for (f, a, col) in lanes.iter_mut() {
                match f.func {
                    AggFunc::Max => simd::fold_minmax_run(true, f.ty, a, col, n),
                    AggFunc::Min => simd::fold_minmax_run(false, f.ty, a, col, n),
                    AggFunc::Sum | AggFunc::Avg => simd::fold_sum_run(f.ty, a, col, n),
                    AggFunc::Count => {}
                }
            }
            continue;
        }
        let rf = simd::RunFilter::resolve(&run, filter);
        let tail = rf.for_each_block(|start, masks| {
            let mut n = 0;
            simd::for_each_set_bit(masks, |i| {
                rows[n] = (start + i) as u32;
                n += 1;
            });
            matched += n as u64;
            for (f, a, col) in lanes.iter_mut() {
                fold_rows(*f, a, col, &rows[..n]);
            }
        });
        for i in tail {
            if rf.matches_row(i) {
                matched += 1;
                for (f, a, col) in lanes.iter_mut() {
                    upd(*f, a, col.get(i));
                }
            }
        }
    }
    for ((st, (f, _)), &raw) in states.iter_mut().zip(cols).zip(&acc) {
        *st = AggState::from_parts(*f, raw, st.count() + matched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::CompiledPred;
    use crate::sink::SelectProgram;
    use h2o_expr::{CmpOp, QueryResult};
    use h2o_storage::LogicalType;
    use h2o_storage::{AttrId, ColumnGroup};

    /// The scan, serially, through the one driver.
    fn run(views: &GroupViews<'_>, filter: &CompiledFilter, select: &SelectProgram) -> QueryResult {
        let policy = crate::ExecPolicy::serial();
        crate::compile::scan(views, filter, select, &policy)
    }

    fn sample_group() -> h2o_storage::ColumnGroup {
        // attrs a,b,d: rows (1,10,0), (2,20,1), (3,30,2), (4,40,3)
        ColumnGroup::from_columns(
            vec![AttrId(0), AttrId(1), AttrId(3)],
            &[&[1, 2, 3, 4], &[10, 20, 30, 40], &[0, 1, 2, 3]],
        )
        .unwrap()
    }

    fn ba(offset: u32) -> BoundAttr {
        BoundAttr { slot: 0, offset }
    }

    fn fresh(aggs: &[(AggOp, CompiledExpr)]) -> Vec<AggState> {
        aggs.iter().map(|(f, _)| AggState::new(*f)).collect()
    }

    /// One [`AggState::update`] per qualifying row of `range`.
    fn per_row(
        views: &GroupViews<'_>,
        filter: &CompiledFilter,
        aggs: &[(AggOp, CompiledExpr)],
        range: Range<usize>,
    ) -> Vec<AggState> {
        let mut states = fresh(aggs);
        for row in range.filter(|&row| filter.matches(|a| views.get(a, row))) {
            for (st, (_, e)) in states.iter_mut().zip(aggs) {
                st.update(e.eval(|a| views.get(a, row)));
            }
        }
        states
    }

    #[test]
    fn fused_project_with_filter() {
        let g = sample_group();
        let views = GroupViews::from_groups(&[&g]);
        // select a+b where d >= 2  -> rows 2,3 -> 33, 44
        let filter = CompiledFilter::new(vec![CompiledPred {
            attr: ba(2),
            op: CmpOp::Ge,
            ty: LogicalType::I64,
            value: 2,
        }]);
        let select = SelectProgram::Project(vec![CompiledExpr::SumCols(vec![ba(0), ba(1)])]);
        let out = run(&views, &filter, &select);
        assert_eq!(out.rows(), 2);
        assert_eq!(out.row(0), &[33]);
        assert_eq!(out.row(1), &[44]);
    }

    #[test]
    fn fused_multi_expr_project() {
        let g = sample_group();
        let views = GroupViews::from_groups(&[&g]);
        let select =
            SelectProgram::Project(vec![CompiledExpr::Col(ba(0)), CompiledExpr::Col(ba(1))]);
        let out = run(&views, &CompiledFilter::always(), &select);
        assert_eq!(out.rows(), 4);
        assert_eq!(out.row(3), &[4, 40]);
    }

    #[test]
    fn fused_aggregate() {
        let g = sample_group();
        let views = GroupViews::from_groups(&[&g]);
        let select = SelectProgram::Aggregate(vec![
            (AggFunc::Sum.into(), CompiledExpr::Col(ba(0))),
            (AggFunc::Max.into(), CompiledExpr::Col(ba(1))),
            (AggFunc::Count.into(), CompiledExpr::Col(ba(0))),
        ]);
        let filter = CompiledFilter::new(vec![CompiledPred {
            attr: ba(2),
            op: CmpOp::Lt,
            ty: LogicalType::I64,
            value: 2,
        }]);
        let out = run(&views, &filter, &select);
        assert_eq!(out.rows(), 1);
        assert_eq!(out.row(0), &[3, 20, 2]);
    }

    #[test]
    fn fused_over_two_groups_stitches() {
        let g1 = ColumnGroup::from_columns(vec![AttrId(0)], &[&[1, 2, 3]]).unwrap();
        let g2 = ColumnGroup::from_columns(vec![AttrId(1)], &[&[5, 5, 0]]).unwrap();
        let views = GroupViews::from_groups(&[&g1, &g2]);
        // select a0 where a1 = 5
        let filter = CompiledFilter::new(vec![CompiledPred {
            attr: BoundAttr { slot: 1, offset: 0 },
            op: CmpOp::Eq,
            ty: LogicalType::I64,
            value: 5,
        }]);
        let select = SelectProgram::Project(vec![CompiledExpr::Col(ba(0))]);
        let out = run(&views, &filter, &select);
        assert_eq!(out.rows(), 2);
        assert_eq!(out.data(), &[1, 2]);
    }

    #[test]
    fn scans_match_the_interpreter_across_blocks() {
        use crate::kernels::testing::vs_interpreter;
        use h2o_expr::{Aggregate, Conjunction, Expr, Predicate, Query};
        let col = Expr::col::<u32>;
        let filtered = || Conjunction::of([Predicate::lt(2u32, 60), Predicate::gt(0u32, 0)]);
        let queries = [
            Query::project([col(1), col(2).add(col(0))], filtered()).unwrap(),
            Query::project([col(3)], Conjunction::of([Predicate::gt(0u32, 2)])).unwrap(),
            // Bare columns of both groups: the per-row tier.
            Query::aggregate(
                [
                    Aggregate::sum(col(1)),
                    Aggregate::sum(col(3)),
                    Aggregate::min(col(2)),
                ],
                filtered(),
            )
            .unwrap(),
            // Adjacent columns of one slot, filtered on the other: the
            // per-column tier.
            Query::aggregate(
                [Aggregate::sum(col(2)), Aggregate::sum(col(3))],
                Conjunction::of([Predicate::gt(0u32, 0)]),
            )
            .unwrap(),
            Query::aggregate(
                [Aggregate::avg(col(1)), Aggregate::min(col(0))],
                Conjunction::of([Predicate::lt(2u32, 90)]),
            )
            .unwrap(),
            Query::aggregate(
                [Aggregate::avg(col(3)), Aggregate::max(col(2).add(col(0)))],
                filtered(),
            )
            .unwrap(),
        ];
        for q in &queries {
            let (got, want) = vs_interpreter(q, true);
            assert!(!got.is_empty());
            assert_eq!(got, want, "{q:?}");
        }
        // One group: the one-slot branch of each row source.
        let q = Query::aggregate(
            [Aggregate::sum(col(1)), Aggregate::sum(col(3).add(col(1)))],
            filtered(),
        )
        .unwrap();
        let (got, want) = vs_interpreter(&q, false);
        assert_eq!(got, want, "one group");
    }

    #[test]
    fn count_star_over_a_plan_binding_no_slot() {
        use h2o_expr::{Aggregate, Conjunction, Query};
        use h2o_storage::{LayoutCatalog, Schema};
        // `count(*)` references no attribute, so its cover is empty and
        // its plan binds no slot: no tier may fetch the count's column.
        let rows = 3_000;
        let mut catalog = LayoutCatalog::new(Schema::with_width(2).into_shared(), rows);
        let col: Vec<Value> = (0..rows as Value).collect();
        catalog
            .add_group(
                ColumnGroup::from_columns(vec![AttrId(0), AttrId(1)], &[&col, &col]).unwrap(),
            )
            .unwrap();
        let q = Query::aggregate([Aggregate::count()], Conjunction::always()).unwrap();
        let want = h2o_expr::interpret(&catalog, &q).unwrap();
        assert_eq!(want.data(), &[rows as Value]);
        let split = crate::ExecPolicy {
            parallelism: Some(2),
            morsel_rows: 512,
            serial_threshold: 0,
        };
        let plan = crate::AccessPlan::new(vec![], crate::Strategy::FusedVolcano);
        let op = crate::compile(&catalog, &plan, &q).unwrap();
        for policy in [crate::ExecPolicy::serial(), split] {
            let got = crate::run(&catalog, &op, &crate::ExecCtx::new(policy))
                .unwrap()
                .0;
            assert_eq!(got, want, "{policy:?}");
        }
    }

    #[test]
    fn count_star_is_bare_and_matches_the_interpreter() {
        use crate::kernels::testing::vs_interpreter;
        use h2o_expr::{Aggregate, Conjunction, Expr, Predicate, Query};
        // `count(*)` is `count(lit 1)`: an expression program, never read.
        let count = CompiledExpr::lower(&Aggregate::count().expr, |_| ba(0));
        assert!(matches!(count, CompiledExpr::Program { .. }));
        let aggs = vec![
            (
                AggOp::new(AggFunc::Sum, LogicalType::F64),
                CompiledExpr::Col(ba(1)),
            ),
            (AggFunc::Count.into(), count),
        ];
        assert!(bare_columns(&aggs).is_some(), "sum(col), count() is bare");
        let q = Query::aggregate(
            [Aggregate::sum(Expr::col(1u32)), Aggregate::count()],
            Conjunction::of([Predicate::gt(0u32, 0)]),
        )
        .unwrap();
        for split in [false, true] {
            let (got, want) = vs_interpreter(&q, split);
            assert_eq!(got, want, "split {split}");
        }
    }

    #[test]
    fn empty_relation() {
        let g = ColumnGroup::from_columns(vec![AttrId(0)], &[&[][..]]).unwrap();
        let views = GroupViews::from_groups(&[&g]);
        let select = SelectProgram::Project(vec![CompiledExpr::Col(ba(0))]);
        let out = run(&views, &CompiledFilter::always(), &select);
        assert!(out.is_empty());
    }

    #[test]
    fn vectorized_dense_tier_matches_scalar_reference() {
        use h2o_storage::{f64_lane, LogicalType};
        // 27 rows of (i64, f64, f64) across 8-row segments — exercises the
        // decoded block folds, strided loads, and run tails.
        let c0: Vec<Value> = (0..27).map(|i| (i * 13) % 19 - 4).collect();
        let c1: Vec<Value> = (0..27)
            .map(|i| f64_lane(((i * 7) % 11) as f64 / 4.0 - 1.0))
            .collect();
        let c2: Vec<Value> = (0..27)
            .map(|i| f64_lane(((i * 5) % 13) as f64 / 8.0))
            .collect();
        let g = ColumnGroup::from_columns_typed(
            vec![AttrId(0), AttrId(1), AttrId(2)],
            vec![LogicalType::I64, LogicalType::F64, LogicalType::F64],
            &[&c0, &c1, &c2],
            3,
        )
        .unwrap();
        let views = GroupViews::from_groups(&[&g]);
        let filters = [
            CompiledFilter::always(),
            CompiledFilter::new(vec![CompiledPred {
                attr: ba(0),
                op: CmpOp::Gt,
                ty: LogicalType::I64,
                value: 3,
            }]),
            CompiledFilter::new(vec![
                CompiledPred {
                    attr: ba(0),
                    op: CmpOp::Gt,
                    ty: LogicalType::I64,
                    value: 0,
                },
                CompiledPred::from_lane(ba(1), CmpOp::Lt, LogicalType::F64, f64_lane(1.0)),
            ]),
        ];
        for filter in &filters {
            for f in [AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg] {
                // Dense shape: one function over offsets 1..=2 (both F64).
                let aggs = vec![
                    (AggOp::new(f, LogicalType::F64), CompiledExpr::Col(ba(1))),
                    (AggOp::new(f, LogicalType::F64), CompiledExpr::Col(ba(2))),
                ];
                let fold = |range: Range<usize>, states: &mut Vec<AggState>| {
                    aggregate_range(&views, filter, range, &aggs, states)
                };
                for range in [0..27, 0..8, 5..23, 24..27] {
                    let mut vec_states = fresh(&aggs);
                    fold(range.clone(), &mut vec_states);
                    let ref_states = per_row(&views, filter, &aggs, range.clone());
                    assert_eq!(vec_states, ref_states, "{} over {range:?}", f.name());
                }
                // Continuing one accumulator over pieces is the whole fold,
                // bit for bit (the F64 fold-order contract).
                let mut whole = fresh(&aggs);
                fold(0..27, &mut whole);
                let mut pieces = fresh(&aggs);
                for r in [0..5, 5..19, 19..27] {
                    fold(r, &mut pieces);
                }
                assert_eq!(pieces, whole, "{} continued", f.name());
            }
        }
    }

    #[test]
    fn tier_choice_edges() {
        // A tier at the column limit, and one column past it.
        let cols = |n: u32| -> Vec<BoundAttr> { (0..n).map(ba).collect() };
        assert!(adjacent(&cols(TIER_MAX_COLS as u32)));
        assert!(!adjacent(&cols(TIER_MAX_COLS as u32 + 1)));
        // Columns that each fill a slot of width one take the tier, any
        // number of them; past the limit in one wide slot they do not.
        let n = TIER_MAX_COLS as u32 + 2;
        let singles: Vec<ColumnGroup> = (0..n)
            .map(|a| ColumnGroup::from_columns(vec![AttrId(a)], &[&[1, 2, 3]]).unwrap())
            .collect();
        let views = GroupViews::from_groups(&singles.iter().collect::<Vec<_>>());
        let max = |a| (AggFunc::Max.into(), CompiledExpr::Col(a));
        let own: Vec<_> = (0..n)
            .map(|slot| max(BoundAttr { slot, offset: 0 }))
            .collect();
        assert_eq!(
            tier_columns(&views, &own).map(|c| c.len()),
            Some(n as usize)
        );
        let cols: Vec<Vec<Value>> = (0..n).map(|_| vec![1, 2, 3]).collect();
        let refs: Vec<&[Value]> = cols.iter().map(Vec::as_slice).collect();
        let wide = ColumnGroup::from_columns((0..n).map(AttrId).collect(), &refs).unwrap();
        let views = GroupViews::from_groups(&[&wide]);
        let packed: Vec<_> = (0..n).map(|o| max(ba(o))).collect();
        assert!(tier_columns(&views, &packed).is_none());
        // `count(*)` alone reads no column: the tier counts.
        let count = [(AggFunc::Count.into(), CompiledExpr::Col(ba(0)))];
        assert!(tier_columns(&GroupViews::from_groups(&[]), &count).is_some());
    }

    #[test]
    fn range_partials_stitch_to_full_run() {
        let g = sample_group();
        let views = GroupViews::from_groups(&[&g]);
        let filter = CompiledFilter::new(vec![CompiledPred {
            attr: ba(2),
            op: CmpOp::Ge,
            ty: LogicalType::I64,
            value: 1,
        }]);
        // Feeds one partial the ranges between consecutive split points.
        let feed = |select: &SelectProgram, splits: &[usize]| {
            let mut part = select.partial();
            for w in splits.windows(2) {
                select.feed(&views, &filter, w[0]..w[1], &mut part);
            }
            part
        };
        // Projection: appending range after range equals the full run.
        let select = SelectProgram::Project(vec![CompiledExpr::SumCols(vec![ba(0), ba(1)])]);
        let full = select.finish(vec![feed(&select, &[0, 4])]);
        let stitched = select.finish(vec![feed(&select, &[0, 2, 3, 4])]);
        assert_eq!(stitched, full);
        // Aggregation: merging per-range partials equals the full fold.
        let select = SelectProgram::Aggregate(vec![
            (AggFunc::Sum.into(), CompiledExpr::Col(ba(0))),
            (AggFunc::Min.into(), CompiledExpr::Col(ba(1))),
            (AggFunc::Avg.into(), CompiledExpr::Col(ba(0))),
        ]);
        let want = select.finish(vec![feed(&select, &[0, 4])]);
        let parts = [[0, 1], [1, 3], [3, 4]].map(|r| feed(&select, &r));
        assert_eq!(select.finish(parts.into()), want);
    }
}
