//! Phase 1 of the selection-vector pair (paper Fig. 6).
//!
//! [`build_selvec_range`] is the generated `q1_sel_vector`: a single pass
//! over the group(s) storing the where-clause attributes that
//! materializes the qualifying row ids. Phase 2, `q1_compute_expression`,
//! has no kernel of its own: it walks the selection vector in id chunks
//! ([`RowSource::Ids`](super::RowSource)) and folds their rows, a block
//! at a time, through the select program's batch step, the one the fused
//! scan runs. The paper
//! notes the trade-off explicitly: computation is avoided for
//! non-qualifying tuples, "on the other hand, the materialization of the
//! selection vector is required".
//!
//! Both phases are morsel-parallelizable: phase 1 builds per-row-range
//! selection vectors whose ascending-id segments stitch by concatenation;
//! phase 2 consumes contiguous **id chunks** so work is balanced by
//! qualifying rows, not raw ranges.

use super::simd;
use crate::bind::GroupViews;
use crate::filter::CompiledFilter;
use crate::selvec::SelVec;
use std::ops::Range;

/// Phase 1 over one row range: the qualifying ids within `range`, in
/// ascending order. Concatenating consecutive ranges' outputs yields
/// exactly the full range's vector.
///
/// The body is the vectorized scan: each segment run resolves the filter
/// into raw strided slices once (`simd::RunFilter`), evaluates the
/// conjunction over `[Value; 8]` chunks into bit masks a 1K-row block at
/// a time, and decodes set bits into ids; the `len % 8` tail of each run
/// takes the scalar path.
/// The chunked and scalar paths select exactly the same rows, so the
/// output is identical to [`build_selvec_range_scalar`] — the
/// pre-vectorization body, kept as the differential/benchmark reference.
pub fn build_selvec_range(
    views: &GroupViews<'_>,
    filter: &CompiledFilter,
    range: Range<usize>,
) -> SelVec {
    if filter.is_always_true() {
        return SelVec::identity(views, range);
    }
    // Start with a modest capacity guess; the vector grows geometrically.
    // Walking segment runs (rather than bare rows) lets zone maps skip
    // whole sealed segments that cannot satisfy the conjunction.
    let mut sel = SelVec::with_capacity(range.len() / 8 + 16);
    for run in views.runs_pruned(range, filter) {
        let start = run.start();
        simd::RunFilter::resolve(&run, filter).for_each_row(|i| sel.push((start + i) as u32));
    }
    sel
}

/// The scalar reference for [`build_selvec_range`]: per-row
/// [`CompiledFilter::matches`] through the segment-resolving accessor.
/// This is the exact pre-vectorization kernel body, kept as the oracle
/// of `tests/simd.rs`.
pub fn build_selvec_range_scalar(
    views: &GroupViews<'_>,
    filter: &CompiledFilter,
    range: Range<usize>,
) -> SelVec {
    if filter.is_always_true() {
        return SelVec::identity(views, range);
    }
    let mut sel = SelVec::with_capacity(range.len() / 8 + 16);
    for run in views.runs_pruned(range, filter) {
        for row in run.range() {
            if filter.matches(|a| views.get(a, row)) {
                sel.push(row as u32);
            }
        }
    }
    sel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::BoundAttr;
    use crate::filter::CompiledPred;
    use crate::kernels::RowSource;
    use crate::program::CompiledExpr;
    use crate::sink::SelectProgram;
    use h2o_expr::{AggFunc, CmpOp, QueryResult};
    use h2o_storage::LogicalType;
    use h2o_storage::{AttrId, ColumnGroup};

    fn build_selvec(views: &GroupViews<'_>, filter: &CompiledFilter) -> SelVec {
        build_selvec_range(views, filter, 0..views.rows())
    }

    /// Phase 2 over one id chunk, through the sink.
    fn feed(views: &GroupViews<'_>, ids: &[u32], select: &SelectProgram) -> crate::sink::Partial {
        let mut part = select.partial();
        select.feed(views, &RowSource::Ids(ids), &mut part);
        part
    }

    /// Phase 2 over a whole selection vector.
    fn consume(views: &GroupViews<'_>, sel: &SelVec, select: &SelectProgram) -> QueryResult {
        select.finish(vec![feed(views, sel.ids(), select)])
    }

    /// Both phases, serially, through the one driver.
    fn run(views: &GroupViews<'_>, filter: &CompiledFilter, select: &SelectProgram) -> QueryResult {
        let policy = crate::ExecPolicy::serial();
        crate::compile::scan(views, crate::Strategy::SelVector, filter, select, &policy)
    }

    #[test]
    fn two_phase_matches_paper_q1_shape() {
        // R1(a,b,c) and R2(d,e) as in Fig. 6.
        let r1 = ColumnGroup::from_columns(
            vec![AttrId(0), AttrId(1), AttrId(2)],
            &[&[1, 2, 3], &[10, 20, 30], &[100, 200, 300]],
        )
        .unwrap();
        let r2 = ColumnGroup::from_columns(vec![AttrId(3), AttrId(4)], &[&[5, 1, 9], &[0, 7, 7]])
            .unwrap();
        let views = GroupViews::from_groups(&[&r1, &r2]);
        // where d < 6 and e > 3  -> row 1 only.
        let filter = CompiledFilter::new(vec![
            CompiledPred {
                attr: BoundAttr { slot: 1, offset: 0 },
                op: CmpOp::Lt,
                ty: LogicalType::I64,
                value: 6,
            },
            CompiledPred {
                attr: BoundAttr { slot: 1, offset: 1 },
                op: CmpOp::Gt,
                ty: LogicalType::I64,
                value: 3,
            },
        ]);
        let sel = build_selvec(&views, &filter);
        assert_eq!(sel.ids(), &[1]);
        // select a+b+c
        let select = SelectProgram::Project(vec![CompiledExpr::SumCols(vec![
            BoundAttr { slot: 0, offset: 0 },
            BoundAttr { slot: 0, offset: 1 },
            BoundAttr { slot: 0, offset: 2 },
        ])]);
        let out = consume(&views, &sel, &select);
        assert_eq!(out.rows(), 1);
        assert_eq!(out.row(0), &[222]);
    }

    #[test]
    fn no_filter_uses_identity_selvec() {
        let g = ColumnGroup::from_columns(vec![AttrId(0)], &[&[4, 5]]).unwrap();
        let views = GroupViews::from_groups(&[&g]);
        let sel = build_selvec(&views, &CompiledFilter::always());
        assert_eq!(sel.ids(), &[0, 1]);
    }

    #[test]
    fn aggregate_over_selvec() {
        let g = ColumnGroup::from_columns(vec![AttrId(0)], &[&[1, 2, 3, 4]]).unwrap();
        let views = GroupViews::from_groups(&[&g]);
        let sel = SelVec::from_ids(vec![0, 3]);
        let select = SelectProgram::Aggregate(vec![(
            AggFunc::Sum.into(),
            CompiledExpr::Col(BoundAttr { slot: 0, offset: 0 }),
        )]);
        let out = consume(&views, &sel, &select);
        assert_eq!(out.row(0), &[5]);
    }

    #[test]
    fn run_combines_phases() {
        let g = ColumnGroup::from_columns(vec![AttrId(0)], &[&[1, -1, 2, -2]]).unwrap();
        let views = GroupViews::from_groups(&[&g]);
        let a = BoundAttr { slot: 0, offset: 0 };
        let filter = CompiledFilter::new(vec![CompiledPred {
            attr: a,
            op: CmpOp::Gt,
            ty: LogicalType::I64,
            value: 0,
        }]);
        let out = run(
            &views,
            &filter,
            &SelectProgram::Project(vec![CompiledExpr::Col(a)]),
        );
        assert_eq!(out.data(), &[1, 2]);
    }

    #[test]
    fn empty_selvec_aggregate_conventions() {
        let g = ColumnGroup::from_columns(vec![AttrId(0)], &[&[1]]).unwrap();
        let views = GroupViews::from_groups(&[&g]);
        let select = SelectProgram::Aggregate(vec![(
            AggFunc::Min.into(),
            CompiledExpr::Col(BoundAttr { slot: 0, offset: 0 }),
        )]);
        let out = consume(&views, &SelVec::new(), &select);
        assert_eq!(out.row(0), &[0]);
    }

    #[test]
    fn range_selvecs_stitch_to_full_build() {
        let g = ColumnGroup::from_columns(vec![AttrId(0)], &[&[1, -1, 2, -2, 3, -3, 4]]).unwrap();
        let views = GroupViews::from_groups(&[&g]);
        let a = BoundAttr { slot: 0, offset: 0 };
        for filter in [
            CompiledFilter::new(vec![CompiledPred {
                attr: a,
                op: CmpOp::Gt,
                ty: LogicalType::I64,
                value: 0,
            }]),
            CompiledFilter::always(),
        ] {
            let full = build_selvec(&views, &filter);
            let mut stitched = SelVec::new();
            for r in [0..3, 3..3, 3..6, 6..7] {
                for &id in build_selvec_range(&views, &filter, r).ids() {
                    stitched.push(id);
                }
            }
            assert_eq!(stitched.ids(), full.ids());
        }
    }

    #[test]
    fn vectorized_build_matches_scalar_reference() {
        // 2 segments of 8 rows (shift 3) + partial third: runs end both on
        // and off lane boundaries; ranges start mid-chunk.
        let col: Vec<i64> = (0..21).map(|i| (i * 13) % 17 - 5).collect();
        let g = ColumnGroup::from_columns_with_shift(vec![AttrId(0)], &[&col], 3).unwrap();
        let views = GroupViews::from_groups(&[&g]);
        let a = BoundAttr { slot: 0, offset: 0 };
        for op in [CmpOp::Lt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne] {
            let filter = CompiledFilter::new(vec![CompiledPred {
                attr: a,
                op,
                ty: LogicalType::I64,
                value: 4,
            }]);
            for range in [0..21, 0..8, 3..19, 7..9, 5..5, 16..21] {
                assert_eq!(
                    build_selvec_range(&views, &filter, range.clone()),
                    build_selvec_range_scalar(&views, &filter, range.clone()),
                    "{op:?} over {range:?}"
                );
            }
        }
    }

    #[test]
    fn id_chunk_partials_stitch_to_full_consume() {
        let g = ColumnGroup::from_columns(
            vec![AttrId(0), AttrId(1)],
            &[&[1, 2, 3, 4, 5], &[9, 8, 7, 6, 5]],
        )
        .unwrap();
        let views = GroupViews::from_groups(&[&g]);
        let sel = SelVec::from_ids(vec![0, 2, 3, 4]);
        let a = |offset| CompiledExpr::Col(BoundAttr { slot: 0, offset });
        for select in [
            // Bare columns (the per-row tier) and an expression (the
            // program's own step).
            SelectProgram::Aggregate(vec![
                (AggFunc::Sum.into(), a(0)),
                (AggFunc::Min.into(), a(1)),
            ]),
            SelectProgram::Aggregate(vec![(
                AggFunc::Max.into(),
                CompiledExpr::SumCols(vec![BoundAttr { slot: 0, offset: 0 }; 2]),
            )]),
            SelectProgram::Project(vec![a(1), a(0)]),
        ] {
            let want = consume(&views, &sel, &select);
            let parts = sel.ids().chunks(3).map(|c| feed(&views, c, &select));
            assert_eq!(select.finish(parts.collect()), want);
        }
    }
}
