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
//! through the select program's one batch step, the one the column-major
//! strategy and the join run too. The paper's two-phase selection-vector
//! plan (Fig. 6) is this scan with a morsel's ids held instead of a
//! block's, so it has no kernel of its own. What stays specialized here
//! is the aggregate whose every input is one of a few bare columns at
//! adjacent offsets of one slot ([`aggregate_range`]'s per-column tier):
//! a dense block folds each column over the block's masks, a sparse one
//! folds its set bits a row at a time.
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

/// Most columns the per-column tier folds. A masked fold re-reads its
/// block once per column, while the batch step reads each qualifying
/// tuple once, so past a few columns the batch step wins. In the
/// `cost_trial` grid (`results/COST_39.json`: 200K rows × 40 attributes,
/// `max` over adjacent columns of a row-major or an exact group; at the
/// parent, `fused` ran the tier on every block and `selvec` the batch
/// step) the tier took 0.57–0.73× the batch step's time over 2 columns
/// at 100% selectivity, 0.80× (row-major) to 1.18× (exact group) over
/// 8 columns, and 3.1–3.8× over 39 columns at 1%.
pub const TIER_MAX_COLS: usize = 4;

/// A block takes the masked per-column folds when at least
/// `1 / TIER_DENSITY` of its rows qualify; a sparser block folds its set
/// bits one row at a time, since a masked fold walks every chunk of the
/// block whatever its mask. In the same grid the tier ran 1.27–1.40×
/// the batch step's time over 2 columns at 10% selectivity and
/// 0.75–0.92× at 50%; with this rule the 2-column cells at 10% took
/// 0.74–0.79× the parent's best (the grid's `tier_variants` section
/// times the alternatives, per-column limits 2 / 4 / 8 and thresholds
/// 1/1, 1/2, 1/4 and "any set bit").
pub const TIER_DENSITY: usize = 4;

/// Whether a block of `rows` rows, `set` of them qualifying, folds its
/// columns masked ([`TIER_DENSITY`]).
#[inline]
pub(crate) fn dense_block(set: u64, rows: usize) -> bool {
    set as usize * TIER_DENSITY >= rows
}

/// [`bare_columns`] when the columns read sit at adjacent offsets of one
/// slot and number at most [`TIER_MAX_COLS`] (the exact shape of
/// `select max(a_j), ..., max(a_{j+k})` over a tailored group): the shape
/// the per-column tier folds under a scan.
pub(crate) fn adjacent_columns(aggs: &[(AggOp, CompiledExpr)]) -> Option<Vec<(AggOp, BoundAttr)>> {
    let cols = bare_columns(aggs)?;
    // Adjacency is over the columns read: a `count`'s reads none.
    let read = || {
        cols.iter()
            .filter(|(f, _)| f.func != AggFunc::Count)
            .map(|(_, a)| a)
    };
    let lo = read().map(|a| a.offset).min().unwrap_or(0);
    let hi = read().map(|a| a.offset).max().unwrap_or(0);
    let slot = read().next().map_or(0, |a| a.slot);
    let adjacent = read().all(|a| a.slot == slot) && ((hi - lo) as usize) < read().count();
    (adjacent && read().count() <= TIER_MAX_COLS).then_some(cols)
}

/// A scalar aggregate over the rows of `range` that pass `filter`,
/// continuing `states` (one per aggregate, in order) exactly as the fused
/// scan folds it (`SelectProgram::feed`): inputs that are bare columns at
/// adjacent offsets of one slot, at most [`TIER_MAX_COLS`] of them, take
/// the per-column tier (`fold_columns`), every other aggregate the batch
/// step over the walker's blocks. Each column stays one fold chain in row
/// order in both, so `F64` sums are bit-identical whichever runs, and
/// either leaves states field-identical to [`aggregate_range_scalar`]'s.
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

/// One scalar update of a raw accumulator (the per-column tier's sparse
/// blocks and tail).
#[inline(always)]
fn upd(f: AggOp, acc: &mut Value, v: Value) {
    match f.func {
        AggFunc::Max => upd_max(f.ty, acc, v),
        AggFunc::Min => upd_min(f.ty, acc, v),
        AggFunc::Sum | AggFunc::Avg => upd_sum(f.ty, acc, v),
        AggFunc::Count => {}
    }
}

/// The per-column tier of [`aggregate_range`], for the columns of
/// [`adjacent_columns`], continuing `states`: they fold into raw
/// accumulators ([`AggState::raw`]: min/max in comparator-key space,
/// sum/avg in the lane domain) under one shared match count. Per run, the
/// conjunction is evaluated into chunk masks one 1K-row block at a time
/// (shared by every column). A dense block ([`dense_block`]) then folds
/// each column's masked chunks with the shared lane primitives while the
/// block is cache-resident — integer sums/min/max lane-split, `F64` sums
/// one in-order chain (the fold-order contract of
/// [`h2o_expr::agg::AggState`]); a sparse block folds its set bits one
/// row at a time, every column of the row in turn. Each column's chain
/// continues from block to block and into the run's scalar tail.
pub(crate) fn fold_columns(
    views: &GroupViews<'_>,
    filter: &CompiledFilter,
    range: Range<usize>,
    cols: &[(AggOp, BoundAttr)],
    states: &mut [AggState],
) {
    let mut acc: Vec<Value> = states.iter().map(AggState::raw).collect();
    let mut matched: u64 = 0;
    for run in views.runs_pruned(range, filter) {
        let rf = simd::RunFilter::resolve(&run, filter);
        // The columns read, each with its accumulator: a `count`'s is the
        // match count alone.
        let mut lanes: Vec<(AggOp, &mut Value, simd::RunCol<'_>)> = cols
            .iter()
            .zip(acc.iter_mut())
            .filter(|((f, _), _)| f.func != AggFunc::Count)
            .map(|(&(f, a), acc)| (f, acc, simd::RunCol::of(&run, a)))
            .collect();
        let tail = rf.for_each_block(|start, masks| {
            let set = simd::popcount(masks);
            matched += set;
            if !dense_block(set, masks.len() * simd::LANES) {
                simd::for_each_set_bit(masks, |i| {
                    for (f, a, col) in lanes.iter_mut() {
                        upd(*f, a, col.get(start + i));
                    }
                });
                return;
            }
            for (f, a, col) in lanes.iter_mut() {
                let col = col.skip(start);
                match f.func {
                    AggFunc::Max => simd::fold_minmax_masked(true, f.ty, a, &col, masks),
                    AggFunc::Min => simd::fold_minmax_masked(false, f.ty, a, &col, masks),
                    AggFunc::Sum | AggFunc::Avg => simd::fold_sum_masked(f.ty, a, &col, masks),
                    AggFunc::Count => {}
                }
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

/// Scalar reference for [`aggregate_range`]: every row of the range is
/// tested with [`CompiledFilter::matches`] and folded per aggregate
/// through the segment-resolving accessor — no masks, blocks or tiers.
/// Kept as the oracle of `tests/simd.rs`.
pub fn aggregate_range_scalar(
    views: &GroupViews<'_>,
    filter: &CompiledFilter,
    aggs: &[(AggOp, CompiledExpr)],
    range: Range<usize>,
) -> Vec<AggState> {
    let mut states: Vec<AggState> = aggs.iter().map(|(f, _)| AggState::new(*f)).collect();
    for row in range {
        let get = |a| views.get(a, row);
        if filter.matches(get) {
            for (st, (_, e)) in states.iter_mut().zip(aggs) {
                st.update(e.eval(get));
            }
        }
    }
    states
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::CompiledPred;
    use crate::sink::SelectProgram;
    use h2o_expr::{CmpOp, QueryResult};
    use h2o_storage::LogicalType;
    use h2o_storage::{AttrId, ColumnGroup};

    /// The fused strategy, serially, through the one driver.
    fn run(views: &GroupViews<'_>, filter: &CompiledFilter, select: &SelectProgram) -> QueryResult {
        let policy = crate::ExecPolicy::serial();
        crate::compile::scan(
            views,
            crate::Strategy::FusedVolcano,
            filter,
            select,
            &policy,
        )
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
    fn scans_match_the_interpreter_across_blocks_for_every_strategy() {
        use crate::kernels::testing::vs_interpreter;
        use crate::Strategy;
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
        for strategy in Strategy::ALL {
            for q in &queries {
                let (got, want) = vs_interpreter(q, strategy, true);
                assert!(!got.is_empty());
                assert_eq!(got, want, "{strategy:?} {q:?}");
            }
        }
        // One group: the one-slot branch of each row source.
        let q = Query::aggregate(
            [Aggregate::sum(col(1)), Aggregate::sum(col(3).add(col(1)))],
            filtered(),
        )
        .unwrap();
        for strategy in Strategy::ALL {
            let (got, want) = vs_interpreter(&q, strategy, false);
            assert_eq!(got, want, "{strategy:?} one group");
        }
    }

    #[test]
    fn count_star_over_a_plan_binding_no_slot() {
        use crate::Strategy;
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
        for strategy in Strategy::ALL {
            let op =
                crate::compile(&catalog, &crate::AccessPlan::new(vec![], strategy), &q).unwrap();
            for policy in [crate::ExecPolicy::serial(), split] {
                let got = crate::run(&catalog, &op, &crate::ExecCtx::new(policy))
                    .unwrap()
                    .0;
                assert_eq!(got, want, "{strategy:?} {policy:?}");
            }
        }
    }

    #[test]
    fn count_star_is_bare_and_matches_the_interpreter() {
        use crate::kernels::testing::vs_interpreter;
        use crate::Strategy;
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
        for strategy in Strategy::ALL {
            for split in [false, true] {
                let (got, want) = vs_interpreter(&q, strategy, split);
                assert_eq!(got, want, "{strategy:?} split {split}");
            }
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
        // masked chunk folds, strided loads, and run tails.
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
                    let ref_states = aggregate_range_scalar(&views, filter, &aggs, range.clone());
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
        // A block at exactly the density threshold folds masked, one row
        // fewer folds its set bits.
        let rows = 1024;
        assert!(dense_block((rows / TIER_DENSITY) as u64, rows));
        assert!(!dense_block((rows / TIER_DENSITY - 1) as u64, rows));
        // A tier at the column limit, and one column past it.
        let aggs = |n: u32| -> Vec<(AggOp, CompiledExpr)> {
            (0..n)
                .map(|o| (AggFunc::Max.into(), CompiledExpr::Col(ba(o))))
                .collect()
        };
        assert!(adjacent_columns(&aggs(TIER_MAX_COLS as u32)).is_some());
        assert!(adjacent_columns(&aggs(TIER_MAX_COLS as u32 + 1)).is_none());
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
