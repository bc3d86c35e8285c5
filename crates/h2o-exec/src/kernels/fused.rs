//! The fused volcano kernel (paper Fig. 5).
//!
//! One loop over the relation; for each tuple the compiled filter is
//! evaluated (both predicates in one step) and, if it passes, the
//! select-items are computed immediately. No selection vector, no
//! intermediate columns — the access pattern the paper generates when all
//! needed attributes live in one column group, generalized here to plans
//! that stitch several groups tuple-at-a-time (multi-group volcano plans).
//!
//! Every loop is parameterized by a row **range** and continues a
//! caller-owned accumulator, so the morsel-parallel driver
//! (`crate::parallel`) can run disjoint row ranges on worker threads —
//! projection blocks concatenated and [`AggState`] partials merged in
//! morsel order; a serial execution is the single range `0..rows` — and
//! online reorganization ([`crate::reorg`]) can run a range in the 1K-row
//! chunks it stitches, every chunk continuing the range's one accumulator.

use super::{simd, upd_max, upd_min, upd_sum};
use crate::bind::GroupViews;
use crate::filter::CompiledFilter;
use crate::program::CompiledExpr;
use h2o_expr::agg::{AggOp, AggState};
use h2o_expr::QueryResult;
use h2o_storage::Value;
use std::ops::Range;

/// Fused projection over one row range, appending to `out`. The Fig. 5
/// specialization applies when the whole plan reads a single column
/// group: the range is walked one segment run at a time, each tuple is
/// sliced once from the run's contiguous payload and everything evaluates
/// against the slice — no per-access slot/stride arithmetic in the inner
/// loop.
pub fn project_range(
    views: &GroupViews<'_>,
    filter: &CompiledFilter,
    exprs: &[CompiledExpr],
    range: Range<usize>,
    out: &mut QueryResult,
) {
    let mut row_buf: Vec<Value> = vec![0; exprs.len()];
    if views.len() == 1 {
        for run in views.runs_pruned(range, filter) {
            let (data, width) = run.view(0);
            match exprs {
                [e] => {
                    for tuple in data.chunks_exact(width) {
                        if filter.matches_tuple(tuple) {
                            out.push1(e.eval_tuple(tuple));
                        }
                    }
                }
                _ => {
                    for tuple in data.chunks_exact(width) {
                        if filter.matches_tuple(tuple) {
                            for (slot, e) in row_buf.iter_mut().zip(exprs) {
                                *slot = e.eval_tuple(tuple);
                            }
                            out.push_row(&row_buf);
                        }
                    }
                }
            }
        }
        return;
    }
    // Multi-group stitching walks pruned segment runs too: a run some
    // predicate's zone map excludes is skipped before any row is touched.
    match exprs {
        // The dominant single-expression template (e.g. `select a+b+c ...`):
        // keep the inner loop free of the per-expression loop.
        [e] => {
            for run in views.runs_pruned(range, filter) {
                for row in run.range() {
                    if filter.matches(views, row) {
                        out.push1(e.eval(views, row));
                    }
                }
            }
        }
        _ => {
            for run in views.runs_pruned(range, filter) {
                for row in run.range() {
                    if filter.matches(views, row) {
                        for (slot, e) in row_buf.iter_mut().zip(exprs) {
                            *slot = e.eval(views, row);
                        }
                        out.push_row(&row_buf);
                    }
                }
            }
        }
    }
}

/// Fused aggregation over one row range, continuing `states` (one per
/// aggregate, in order): a range split in pieces folds exactly like the
/// whole, `F64` sums included.
pub fn aggregate_range(
    views: &GroupViews<'_>,
    filter: &CompiledFilter,
    aggs: &[(AggOp, CompiledExpr)],
    range: Range<usize>,
    states: &mut [AggState],
) {
    if views.len() == 1 {
        // Specialization: when every aggregate input is a bare column,
        // resolve the offsets once and keep the inner loop down to
        // "load, update" per value — the template-(ii) hot path.
        let col_offsets: Option<Vec<usize>> = aggs
            .iter()
            .map(|(_, e)| match e {
                CompiledExpr::Col(a) => Some(a.offset as usize),
                _ => None,
            })
            .collect();
        if let Some(offsets) = col_offsets {
            let mut acc: Vec<Value> = states.iter().map(AggState::raw).collect();
            let matched =
                aggregate_cols_specialized(views, range, filter, aggs, &offsets, &mut acc);
            for ((st, (f, _)), &raw) in states.iter_mut().zip(aggs).zip(&acc) {
                *st = AggState::from_parts(*f, raw, st.count() + matched);
            }
            return;
        }
        for run in views.runs_pruned(range, filter) {
            let (data, width) = run.view(0);
            for tuple in data.chunks_exact(width) {
                if filter.matches_tuple(tuple) {
                    for (st, (_, e)) in states.iter_mut().zip(aggs) {
                        st.update(e.eval_tuple(tuple));
                    }
                }
            }
        }
        return;
    }
    for run in views.runs_pruned(range, filter) {
        for row in run.range() {
            if filter.matches(views, row) {
                for (st, (_, e)) in states.iter_mut().zip(aggs) {
                    st.update(e.eval(views, row));
                }
            }
        }
    }
}

/// Scalar reference for [`aggregate_range`]: identical dispatch, but the
/// single-group bare-column specialization runs the exact
/// pre-vectorization per-tuple loop ([`CompiledFilter::matches_tuple`]
/// plus `upd_*` per value). Kept as the oracle of `tests/simd.rs`.
pub fn aggregate_range_scalar(
    views: &GroupViews<'_>,
    filter: &CompiledFilter,
    aggs: &[(AggOp, CompiledExpr)],
    range: Range<usize>,
) -> Vec<AggState> {
    use h2o_expr::AggFunc;
    if views.len() == 1 {
        let col_offsets: Option<Vec<usize>> = aggs
            .iter()
            .map(|(_, e)| match e {
                CompiledExpr::Col(a) => Some(a.offset as usize),
                _ => None,
            })
            .collect();
        if let Some(offsets) = col_offsets {
            let mut acc: Vec<Value> = aggs
                .iter()
                .map(|(f, _)| match f.func {
                    AggFunc::Min => Value::MAX,
                    AggFunc::Max => Value::MIN,
                    _ => 0,
                })
                .collect();
            let mut matched: u64 = 0;
            for run in views.runs_pruned(range, filter) {
                let (data, width) = run.view(0);
                for tuple in data.chunks_exact(width) {
                    if filter.matches_tuple(tuple) {
                        matched += 1;
                        for ((a, (f, _)), &off) in acc.iter_mut().zip(aggs).zip(&offsets) {
                            match f.func {
                                AggFunc::Max => upd_max(f.ty, a, tuple[off]),
                                AggFunc::Min => upd_min(f.ty, a, tuple[off]),
                                AggFunc::Sum | AggFunc::Avg => upd_sum(f.ty, a, tuple[off]),
                                AggFunc::Count => {}
                            }
                        }
                    }
                }
            }
            return aggs
                .iter()
                .zip(&acc)
                .map(|((f, _), &raw)| AggState::from_parts(*f, raw, matched))
                .collect();
        }
    }
    let mut states: Vec<AggState> = aggs.iter().map(|(f, _)| AggState::new(*f)).collect();
    for run in views.runs_pruned(range, filter) {
        for row in run.range() {
            if filter.matches(views, row) {
                for (st, (_, e)) in states.iter_mut().zip(aggs) {
                    st.update(e.eval(views, row));
                }
            }
        }
    }
    states
}

/// The tightest generated loop for `select f(a), f(b), ... from <group>`
/// (template ii over one group): aggregates are grouped by function so the
/// inner loop contains no dispatch at all, and a single shared counter
/// tracks qualifying tuples (every bare-column aggregate folds exactly the
/// same rows). The range is folded one contiguous segment run at a time
/// into the raw accumulators `acc` ([`AggState::raw`]; min/max in
/// comparator-key space, sum/avg in the lane domain). Returns the match
/// count — the caller lifts both into mergeable [`AggState`] partials.
fn aggregate_cols_specialized(
    views: &GroupViews<'_>,
    range: Range<usize>,
    filter: &CompiledFilter,
    aggs: &[(AggOp, CompiledExpr)],
    offsets: &[usize],
    acc: &mut [Value],
) -> u64 {
    use h2o_expr::AggFunc;
    // (typed op, [(accumulator index, tuple offset)])
    let mut groups: Vec<(AggOp, Vec<(usize, usize)>)> = Vec::new();
    for (i, ((f, _), &off)) in aggs.iter().zip(offsets).enumerate() {
        match groups.iter_mut().find(|(gf, _)| gf == f) {
            Some((_, items)) => items.push((i, off)),
            None => groups.push((*f, vec![(i, off)])),
        }
    }
    let mut matched: u64 = 0;

    // Tightest tier: one function over a dense offset range (the exact
    // shape of `select max(a_j), ..., max(a_{j+k})`) — the accumulator
    // update is a straight slice-to-slice loop the compiler vectorizes.
    let dense = match groups.as_slice() {
        [(f, items)] => {
            let base = items.first().map(|&(_, off)| off).unwrap_or(0);
            let is_dense = items
                .iter()
                .enumerate()
                .all(|(j, &(i, off))| i == j && off == base + j);
            if is_dense {
                Some((*f, base, items.len()))
            } else {
                None
            }
        }
        _ => None,
    };
    if let Some((f, base, k)) = dense {
        // Vectorized: the conjunction is evaluated into 8-row chunk masks
        // once per run (shared by every aggregate column), then each
        // column folds its masked chunks with the shared lane primitives —
        // integer sums/min/max lane-split, F64 sums stay one in-order
        // chain per the fold-order contract ([`h2o_expr::agg::AggState`]).
        // The `len % 8` tail of each run takes the original scalar path.
        let mut masks: Vec<u8> = Vec::new();
        for run in views.runs_pruned(range, filter) {
            let (data, width) = run.view(0);
            let n = run.len();
            let full = n / simd::LANES;
            let rf = simd::RunFilter::resolve(&run, filter);
            masks.resize(full, 0);
            rf.fill_masks(&mut masks);
            matched += simd::popcount(&masks);
            for (c, a) in acc.iter_mut().enumerate() {
                let col = simd::RunCol::strided(&data[base + c..], width);
                match f.func {
                    AggFunc::Max => simd::fold_minmax_masked(true, f.ty, a, &col, &masks),
                    AggFunc::Min => simd::fold_minmax_masked(false, f.ty, a, &col, &masks),
                    AggFunc::Sum | AggFunc::Avg => simd::fold_sum_masked(f.ty, a, &col, &masks),
                    AggFunc::Count => {}
                }
            }
            for tuple in data[full * simd::LANES * width..n * width].chunks_exact(width) {
                if filter.matches_tuple(tuple) {
                    matched += 1;
                    let vals = &tuple[base..base + k];
                    match f.func {
                        AggFunc::Max => {
                            for (a, &v) in acc.iter_mut().zip(vals) {
                                upd_max(f.ty, a, v);
                            }
                        }
                        AggFunc::Min => {
                            for (a, &v) in acc.iter_mut().zip(vals) {
                                upd_min(f.ty, a, v);
                            }
                        }
                        AggFunc::Sum | AggFunc::Avg => {
                            for (a, &v) in acc.iter_mut().zip(vals) {
                                upd_sum(f.ty, a, v);
                            }
                        }
                        AggFunc::Count => {}
                    }
                }
            }
        }
        return matched;
    }

    for run in views.runs_pruned(range, filter) {
        let (data, width) = run.view(0);
        for tuple in data.chunks_exact(width) {
            if filter.matches_tuple(tuple) {
                matched += 1;
                for (f, items) in &groups {
                    match f.func {
                        AggFunc::Max => {
                            for &(i, off) in items {
                                upd_max(f.ty, &mut acc[i], tuple[off]);
                            }
                        }
                        AggFunc::Min => {
                            for &(i, off) in items {
                                upd_min(f.ty, &mut acc[i], tuple[off]);
                            }
                        }
                        AggFunc::Sum | AggFunc::Avg => {
                            for &(i, off) in items {
                                upd_sum(f.ty, &mut acc[i], tuple[off]);
                            }
                        }
                        AggFunc::Count => {}
                    }
                }
            }
        }
    }
    matched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::BoundAttr;
    use crate::filter::CompiledPred;
    use crate::sink::SelectProgram;
    use h2o_expr::{AggFunc, CmpOp};
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
                for range in [0..27, 0..8, 5..23, 24..27] {
                    let mut vec_states = fresh(&aggs);
                    aggregate_range(&views, filter, &aggs, range.clone(), &mut vec_states);
                    let ref_states = aggregate_range_scalar(&views, filter, &aggs, range.clone());
                    let vec_row: Vec<Value> = vec_states.iter().map(|s| s.finish()).collect();
                    let ref_row: Vec<Value> = ref_states.iter().map(|s| s.finish()).collect();
                    assert_eq!(vec_row, ref_row, "{} over {range:?}", f.name());
                }
                // Continuing one accumulator over pieces is the whole fold,
                // bit for bit (the F64 fold-order contract).
                let mut whole = fresh(&aggs);
                aggregate_range(&views, filter, &aggs, 0..27, &mut whole);
                let mut pieces = fresh(&aggs);
                for r in [0..5, 5..19, 19..27] {
                    aggregate_range(&views, filter, &aggs, r, &mut pieces);
                }
                assert_eq!(pieces, whole, "{} continued", f.name());
            }
        }
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
        // Projection: appending range after range equals the full run.
        let exprs = vec![CompiledExpr::SumCols(vec![ba(0), ba(1)])];
        let mut full = QueryResult::new(1);
        project_range(&views, &filter, &exprs, 0..4, &mut full);
        let mut stitched = QueryResult::new(1);
        for r in [0..2, 2..3, 3..4] {
            project_range(&views, &filter, &exprs, r, &mut stitched);
        }
        assert_eq!(stitched, full);
        // Aggregation: merging per-range partials equals the full fold.
        let aggs = vec![
            (AggFunc::Sum.into(), CompiledExpr::Col(ba(0))),
            (AggFunc::Min.into(), CompiledExpr::Col(ba(1))),
            (AggFunc::Avg.into(), CompiledExpr::Col(ba(0))),
        ];
        let mut want = fresh(&aggs);
        aggregate_range(&views, &filter, &aggs, 0..4, &mut want);
        let mut merged = fresh(&aggs);
        for r in [0..1, 1..3, 3..4] {
            let mut part = fresh(&aggs);
            aggregate_range(&views, &filter, &aggs, r, &mut part);
            for (m, p) in merged.iter_mut().zip(&part) {
                m.merge(p);
            }
        }
        let want_row: Vec<Value> = want.iter().map(|s| s.finish()).collect();
        let got_row: Vec<Value> = merged.iter().map(|s| s.finish()).collect();
        assert_eq!(got_row, want_row);
    }
}
