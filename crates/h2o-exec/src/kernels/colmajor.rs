//! The pure column-store (DSM) execution kernel.
//!
//! This is the execution model the paper describes in §2.1 for
//! column-stores and assigns to the column-major layout in §3.3: attributes
//! are processed **one column at a time**, and every step materializes its
//! intermediate result —
//!
//! * predicate evaluation refines a list of qualifying row ids, fetching
//!   each subsequent predicate's qualifying values into "a new intermediate
//!   column" before comparing;
//! * arithmetic expressions materialize one intermediate column per
//!   operator ("computing the expression a+b+c results into the
//!   materialization of two intermediate columns, one for a+b and one for
//!   the result of the addition of the previous intermediate result with
//!   c");
//! * projection output is re-assembled row-major at the end (tuple
//!   reconstruction).
//!
//! Its strength — and the reason the static column-store wins the
//! aggregation micro-benchmarks (Fig. 10(b)) — is the single-attribute
//! aggregate path: a tight loop over one contiguous array that the compiler
//! auto-vectorizes. Its weakness is everything that needs many attributes
//! per tuple, where the intermediates and final reconstruction dominate
//! (Figs. 10(a)/(c)).
//!
//! For morsel parallelism the filter phase splits by row range
//! ([`build_selvec_columnar_range`]) and the evaluation phase by id chunk:
//! the select program's batch step asks `eval_ids` to evaluate its
//! expressions over a chunk (a 1K-id block of it for grouped
//! aggregation), and each chunk materializes its own (proportionally
//! smaller) intermediate columns, so the strategy's cost structure is
//! preserved per morsel.

use super::simd;
use crate::bind::{BoundAttr, GroupViews};
use crate::filter::CompiledFilter;
use crate::program::{CompiledExpr, Layout, OpCode};
use crate::selvec::SelVec;
use h2o_expr::agg::{AggFunc, AggOp, AggState};
use h2o_storage::{f64_lane, lane_f64, Value};
use std::ops::Range;

/// A column-at-a-time operand: a materialized intermediate column or a
/// broadcast constant.
enum ColVec {
    Mat(Vec<Value>),
    Const(Value),
}

/// Gathers `attr` for the selected rows into a fresh intermediate column
/// (slicing the segment once when the ascending ids share one).
fn gather_attr(views: &GroupViews<'_>, attr: BoundAttr, ids: &[u32]) -> Vec<Value> {
    let mut col = vec![0; ids.len()];
    gather_into(views, attr, ids, &mut col);
    col
}

/// [`gather_attr`] into a caller's column.
fn gather_into(views: &GroupViews<'_>, attr: BoundAttr, ids: &[u32], out: &mut [Value]) {
    let acc = views.accessor(attr.slot);
    let off = attr.offset as usize;
    let out = out.iter_mut().zip(ids);
    match acc.within(ids, off) {
        Some(seg) => out.for_each(|(o, &i)| *o = seg(i as usize)),
        None => out.for_each(|(o, &i)| *o = acc.value(i as usize, off)),
    }
}

/// Column-at-a-time filter evaluation (paper §2.1) over one row range:
/// the first predicate scans its column; each later predicate first
/// materializes the candidate values as an intermediate column, then
/// refines the id list. Per-range outputs stitch by concatenation into the
/// full range's vector.
///
/// Both phases are vectorized with the shared chunk primitives
/// ([`super::simd`]): the first predicate's per-run scan builds 8-row
/// match masks over the run's lane slices and decodes them into ids; each
/// refining predicate masks its gathered (contiguous) candidate column
/// the same way. Tails take the scalar path; output is identical to
/// [`build_selvec_columnar_range_scalar`].
pub fn build_selvec_columnar_range(
    views: &GroupViews<'_>,
    filter: &CompiledFilter,
    range: Range<usize>,
) -> SelVec {
    if filter.is_always_true() {
        return SelVec::identity(views, range);
    }
    let preds = filter.preds();
    let first = &preds[0];
    // Zone maps prune with the *whole* conjunction: a segment no predicate
    // can match in contributes nothing to the final refined vector, so
    // skipping it before the first-column scan is sound.
    let mut sel = SelVec::with_capacity(range.len() / 8 + 16);
    let mut masks: Vec<u8> = Vec::new();
    for run in views.runs_pruned(range, filter) {
        let col = simd::RunCol::of(&run, first.attr);
        let n = run.len();
        let full = n / simd::LANES;
        masks.resize(full, 0);
        masks.fill(0xff);
        simd::and_pred_masks(&col, first, &mut masks);
        simd::for_each_set_bit(&masks, |i| sel.push((run.start() + i) as u32));
        for i in full * simd::LANES..n {
            if first.matches_lane(col.get(i)) {
                sel.push((run.start() + i) as u32);
            }
        }
    }
    for p in &preds[1..] {
        // Intermediate materialization of the candidate values, then a
        // contiguous masked refine over it.
        let candidates = gather_attr(views, p.attr, sel.ids());
        let col = simd::RunCol::contiguous(&candidates);
        let full = candidates.len() / simd::LANES;
        masks.resize(full, 0);
        masks.fill(0xff);
        simd::and_pred_masks(&col, p, &mut masks);
        let mut next = SelVec::with_capacity(candidates.len());
        simd::for_each_set_bit(&masks, |i| next.push(sel.ids()[i]));
        let tail = full * simd::LANES;
        for (i, &v) in candidates.iter().enumerate().skip(tail) {
            if p.matches_lane(v) {
                next.push(sel.ids()[i]);
            }
        }
        sel = next;
    }
    sel
}

/// The scalar reference for [`build_selvec_columnar_range`] — the exact
/// pre-vectorization body (per-lane branch in the first-column scan,
/// per-value refine). Kept as the oracle of `tests/simd.rs`.
pub fn build_selvec_columnar_range_scalar(
    views: &GroupViews<'_>,
    filter: &CompiledFilter,
    range: Range<usize>,
) -> SelVec {
    if filter.is_always_true() {
        return SelVec::identity(views, range);
    }
    let preds = filter.preds();
    let first = &preds[0];
    let mut sel = SelVec::with_capacity(range.len() / 8 + 16);
    for run in views.runs_pruned(range, filter) {
        let (data, width) = run.view(first.attr.slot);
        let off = first.attr.offset as usize;
        let base = run.start();
        if width == 1 {
            for (i, &v) in data.iter().enumerate() {
                if first.matches_lane(v) {
                    sel.push((base + i) as u32);
                }
            }
        } else {
            for (i, tuple) in data.chunks_exact(width).enumerate() {
                if first.matches_lane(tuple[off]) {
                    sel.push((base + i) as u32);
                }
            }
        }
    }
    for p in &preds[1..] {
        let candidates = gather_attr(views, p.attr, sel.ids());
        let mut next = SelVec::with_capacity(candidates.len());
        for (i, &v) in candidates.iter().enumerate() {
            if p.matches_lane(v) {
                next.push(sel.ids()[i]);
            }
        }
        sel = next;
    }
    sel
}

/// Evaluates an expression column-at-a-time over the selected rows,
/// materializing one intermediate column per operator.
fn eval_expr_columns(views: &GroupViews<'_>, ids: &[u32], expr: &CompiledExpr) -> ColVec {
    match expr {
        CompiledExpr::Col(a) => ColVec::Mat(gather_attr(views, *a, ids)),
        CompiledExpr::SumCols(cols) => {
            let mut acc = gather_attr(views, cols[0], ids);
            for &c in &cols[1..] {
                let operand = gather_attr(views, c, ids);
                // Fresh intermediate per addition, as the paper describes.
                acc = acc
                    .iter()
                    .zip(&operand)
                    .map(|(&l, &r)| l.wrapping_add(r))
                    .collect();
            }
            ColVec::Mat(acc)
        }
        CompiledExpr::SumColsF(cols) => {
            let mut acc = gather_attr(views, cols[0], ids);
            for &c in &cols[1..] {
                let operand = gather_attr(views, c, ids);
                acc = acc
                    .iter()
                    .zip(&operand)
                    .map(|(&l, &r)| f64_lane(lane_f64(l) + lane_f64(r)))
                    .collect();
            }
            ColVec::Mat(acc)
        }
        CompiledExpr::Program { ops, .. } => {
            let mut stack: Vec<ColVec> = Vec::with_capacity(4);
            for op in ops {
                match op {
                    OpCode::Load(a) => stack.push(ColVec::Mat(gather_attr(views, *a, ids))),
                    OpCode::Const(v) => stack.push(ColVec::Const(*v)),
                    o @ (OpCode::Arith(_) | OpCode::ArithF(_)) => {
                        let apply = |x: Value, y: Value| match o {
                            OpCode::Arith(op) => op.apply(x, y),
                            OpCode::ArithF(op) => op.apply_f64(x, y),
                            _ => unreachable!(),
                        };
                        let r = stack.pop().expect("well-formed program");
                        let l = stack.pop().expect("well-formed program");
                        stack.push(match (l, r) {
                            (ColVec::Const(a), ColVec::Const(b)) => ColVec::Const(apply(a, b)),
                            (ColVec::Mat(a), ColVec::Const(b)) => {
                                ColVec::Mat(a.iter().map(|&x| apply(x, b)).collect())
                            }
                            (ColVec::Const(a), ColVec::Mat(b)) => {
                                ColVec::Mat(b.iter().map(|&x| apply(a, x)).collect())
                            }
                            (ColVec::Mat(a), ColVec::Mat(b)) => {
                                ColVec::Mat(a.iter().zip(&b).map(|(&x, &y)| apply(x, y)).collect())
                            }
                        });
                    }
                }
            }
            stack.pop().expect("well-formed program")
        }
    }
}

/// The column-major strategy's evaluator: each of `exprs` over the
/// selected rows as one intermediate column per operator
/// ([`eval_expr_columns`], §2.1), then laid out into `out` by `layout` —
/// row by row for a projection, which is the tuple reconstruction (§3.3).
pub(crate) fn eval_ids(
    views: &GroupViews<'_>,
    ids: &[u32],
    exprs: &[&CompiledExpr],
    out: &mut [Value],
    layout: Layout,
) {
    let lane = |c: &ColVec, i: usize| match c {
        ColVec::Mat(v) => v[i],
        ColVec::Const(c) => *c,
    };
    match layout {
        Layout::Rows => {
            let cols: Vec<ColVec> = exprs
                .iter()
                .map(|e| eval_expr_columns(views, ids, e))
                .collect();
            for (i, row) in out.chunks_exact_mut(exprs.len()).enumerate() {
                for (o, c) in row.iter_mut().zip(&cols) {
                    *o = lane(c, i);
                }
            }
        }
        Layout::Columns => {
            // A bare column's gather is its intermediate column.
            let stride = out.len() / exprs.len();
            for (e, col) in exprs.iter().zip(out.chunks_exact_mut(stride)) {
                let col = &mut col[..ids.len()];
                match e {
                    CompiledExpr::Col(a) => gather_into(views, *a, ids, col),
                    e => {
                        let c = eval_expr_columns(views, ids, e);
                        col.iter_mut()
                            .enumerate()
                            .for_each(|(i, o)| *o = lane(&c, i));
                    }
                }
            }
        }
    }
}

/// Single-column aggregate without a where-clause over one row range: the
/// tight contiguous loop that makes pure columns win Fig. 10(b), returning
/// a mergeable partial.
///
/// The fold runs on the chunked lane primitives ([`super::simd`]):
/// integer sums and key-space min/max lane-split across `[Value; 8]`
/// chunks (associative+commutative, so bit-identical to the sequential
/// fold), `F64` sums stay one in-order scalar chain per the fold-order
/// contract ([`h2o_expr::agg::AggState`]), and run tails are scalar.
pub fn agg_full_column_range(
    views: &GroupViews<'_>,
    attr: BoundAttr,
    func: impl Into<AggOp>,
    range: Range<usize>,
) -> AggState {
    let op: AggOp = func.into();
    let mut acc: Value = match op.func {
        AggFunc::Min => Value::MAX,
        AggFunc::Max => Value::MIN,
        _ => 0,
    };
    let mut count: u64 = 0;
    for run in views.runs(range) {
        let n = run.len();
        count += n as u64;
        if op.func == AggFunc::Count {
            continue;
        }
        let col = simd::RunCol::of(&run, attr);
        match op.func {
            AggFunc::Sum | AggFunc::Avg => simd::fold_sum_run(op.ty, &mut acc, &col, n),
            AggFunc::Min => simd::fold_minmax_run(false, op.ty, &mut acc, &col, n),
            AggFunc::Max => simd::fold_minmax_run(true, op.ty, &mut acc, &col, n),
            AggFunc::Count => {}
        }
    }
    AggState::from_parts(op, acc, count)
}

/// The scalar reference for [`agg_full_column_range`]: per-value
/// [`AggState::update`], the exact pre-vectorization body.
pub fn agg_full_column_range_scalar(
    views: &GroupViews<'_>,
    attr: BoundAttr,
    func: impl Into<AggOp>,
    range: Range<usize>,
) -> AggState {
    let off = attr.offset as usize;
    let mut st = AggState::new(func);
    for run in views.runs(range) {
        let (data, width) = run.view(attr.slot);
        if width == 1 {
            for &v in data {
                st.update(v);
            }
        } else {
            for tuple in data.chunks_exact(width) {
                st.update(tuple[off]);
            }
        }
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::CompiledPred;
    use crate::sink::SelectProgram;
    use h2o_expr::{AggFunc, CmpOp, QueryResult};
    use h2o_storage::LogicalType;
    use h2o_storage::{AttrId, ColumnGroup};

    fn build_selvec_columnar(views: &GroupViews<'_>, filter: &CompiledFilter) -> SelVec {
        build_selvec_columnar_range(views, filter, 0..views.rows())
    }

    fn is_streaming_aggregate(filter: &CompiledFilter, select: &SelectProgram) -> bool {
        select.streaming_cols(filter).is_some()
    }

    /// The full column-major strategy, serially, through the one driver.
    fn run(views: &GroupViews<'_>, filter: &CompiledFilter, select: &SelectProgram) -> QueryResult {
        let policy = crate::ExecPolicy::serial();
        crate::compile::scan(views, crate::Strategy::ColumnMajor, filter, select, &policy)
    }

    fn columns() -> Vec<h2o_storage::ColumnGroup> {
        // Three width-1 groups: a0 = 1..=4, a1 = [5,5,0,5], a2 = [9,8,7,6]
        vec![
            ColumnGroup::from_columns(vec![AttrId(0)], &[&[1, 2, 3, 4]]).unwrap(),
            ColumnGroup::from_columns(vec![AttrId(1)], &[&[5, 5, 0, 5]]).unwrap(),
            ColumnGroup::from_columns(vec![AttrId(2)], &[&[9, 8, 7, 6]]).unwrap(),
        ]
    }

    fn ba(slot: u32) -> BoundAttr {
        BoundAttr { slot, offset: 0 }
    }

    #[test]
    fn columnar_filter_refines_across_columns() {
        let groups = columns();
        let refs: Vec<&_> = groups.iter().collect();
        let views = GroupViews::from_groups(&refs);
        // where a0 > 1 and a1 = 5 and a2 < 9 -> rows {1,3}
        let filter = CompiledFilter::new(vec![
            CompiledPred {
                attr: ba(0),
                op: CmpOp::Gt,
                ty: LogicalType::I64,
                value: 1,
            },
            CompiledPred {
                attr: ba(1),
                op: CmpOp::Eq,
                ty: LogicalType::I64,
                value: 5,
            },
            CompiledPred {
                attr: ba(2),
                op: CmpOp::Lt,
                ty: LogicalType::I64,
                value: 9,
            },
        ]);
        let sel = build_selvec_columnar(&views, &filter);
        assert_eq!(sel.ids(), &[1, 3]);
    }

    #[test]
    fn expression_with_intermediates() {
        let groups = columns();
        let refs: Vec<&_> = groups.iter().collect();
        let views = GroupViews::from_groups(&refs);
        // select a0 + a1 + a2 (no filter): 15, 15, 10, 15
        let select = SelectProgram::Project(vec![CompiledExpr::SumCols(vec![ba(0), ba(1), ba(2)])]);
        let out = run(&views, &CompiledFilter::always(), &select);
        assert_eq!(out.data(), &[15, 15, 10, 15]);
    }

    #[test]
    fn aggregate_fast_path_no_filter() {
        let groups = columns();
        let refs: Vec<&_> = groups.iter().collect();
        let views = GroupViews::from_groups(&refs);
        let select = SelectProgram::Aggregate(vec![
            (AggFunc::Max.into(), CompiledExpr::Col(ba(0))),
            (AggFunc::Min.into(), CompiledExpr::Col(ba(2))),
            (AggFunc::Sum.into(), CompiledExpr::Col(ba(1))),
        ]);
        assert!(is_streaming_aggregate(&CompiledFilter::always(), &select));
        let out = run(&views, &CompiledFilter::always(), &select);
        assert_eq!(out.row(0), &[4, 6, 15]);
    }

    #[test]
    fn aggregate_with_filter_and_expression() {
        let groups = columns();
        let refs: Vec<&_> = groups.iter().collect();
        let views = GroupViews::from_groups(&refs);
        // sum(a0 * a2) where a1 = 5 -> rows 0,1,3: 9 + 16 + 24 = 49
        let filter = CompiledFilter::new(vec![CompiledPred {
            attr: ba(1),
            op: CmpOp::Eq,
            ty: LogicalType::I64,
            value: 5,
        }]);
        let expr = CompiledExpr::Program {
            ops: vec![
                OpCode::Load(ba(0)),
                OpCode::Load(ba(2)),
                OpCode::Arith(h2o_expr::ArithOp::Mul),
            ],
            stack: 2,
        };
        let select = SelectProgram::Aggregate(vec![(AggFunc::Sum.into(), expr)]);
        assert!(!is_streaming_aggregate(&filter, &select));
        let out = run(&views, &filter, &select);
        assert_eq!(out.row(0), &[49]);
    }

    #[test]
    fn projection_reconstructs_tuples() {
        let groups = columns();
        let refs: Vec<&_> = groups.iter().collect();
        let views = GroupViews::from_groups(&refs);
        let filter = CompiledFilter::new(vec![CompiledPred {
            attr: ba(0),
            op: CmpOp::Ge,
            ty: LogicalType::I64,
            value: 3,
        }]);
        let select =
            SelectProgram::Project(vec![CompiledExpr::Col(ba(0)), CompiledExpr::Col(ba(2))]);
        let out = run(&views, &filter, &select);
        assert_eq!(out.rows(), 2);
        assert_eq!(out.row(0), &[3, 7]);
        assert_eq!(out.row(1), &[4, 6]);
    }

    #[test]
    fn const_expression_broadcast() {
        let groups = columns();
        let refs: Vec<&_> = groups.iter().collect();
        let views = GroupViews::from_groups(&refs);
        let expr = CompiledExpr::Program {
            ops: vec![OpCode::Const(7)],
            stack: 1,
        };
        let select = SelectProgram::Aggregate(vec![(AggFunc::Sum.into(), expr)]);
        let out = run(&views, &CompiledFilter::always(), &select);
        assert_eq!(out.row(0), &[28]);
    }

    #[test]
    fn works_on_strided_groups_too() {
        // The columnar strategy is defined for any layout; verify
        // correctness when the "columns" live in one wide group.
        let g = ColumnGroup::from_columns(vec![AttrId(0), AttrId(1)], &[&[1, 2, 3], &[10, 20, 30]])
            .unwrap();
        let views = GroupViews::from_groups(&[&g]);
        let filter = CompiledFilter::new(vec![CompiledPred {
            attr: BoundAttr { slot: 0, offset: 0 },
            op: CmpOp::Gt,
            ty: LogicalType::I64,
            value: 1,
        }]);
        let select =
            SelectProgram::Project(vec![CompiledExpr::Col(BoundAttr { slot: 0, offset: 1 })]);
        let out = run(&views, &filter, &select);
        assert_eq!(out.data(), &[20, 30]);
    }

    #[test]
    fn vectorized_paths_match_scalar_references() {
        // 27 rows, segment shift 3 (8-row segments), width-2 group so the
        // first-pred scan exercises the strided load path.
        let c0: Vec<Value> = (0..27).map(|i| (i * 11) % 23 - 6).collect();
        let c1: Vec<Value> = (0..27).map(|i| (i * 7) % 19 - 3).collect();
        let g = ColumnGroup::from_columns_with_shift(vec![AttrId(0), AttrId(1)], &[&c0, &c1], 3)
            .unwrap();
        let views = GroupViews::from_groups(&[&g]);
        let filter = CompiledFilter::new(vec![
            CompiledPred {
                attr: BoundAttr { slot: 0, offset: 0 },
                op: CmpOp::Gt,
                ty: LogicalType::I64,
                value: 0,
            },
            CompiledPred {
                attr: BoundAttr { slot: 0, offset: 1 },
                op: CmpOp::Le,
                ty: LogicalType::I64,
                value: 9,
            },
        ]);
        for range in [0..27, 0..8, 5..27, 9..17, 26..27] {
            assert_eq!(
                build_selvec_columnar_range(&views, &filter, range.clone()),
                build_selvec_columnar_range_scalar(&views, &filter, range.clone()),
                "filter over {range:?}"
            );
        }
        for f in [
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Count,
            AggFunc::Avg,
        ] {
            for range in [0..27, 3..22, 8..16] {
                let a = BoundAttr { slot: 0, offset: 1 };
                assert_eq!(
                    agg_full_column_range(&views, a, f, range.clone()),
                    agg_full_column_range_scalar(&views, a, f, range.clone()),
                    "{} over {range:?}",
                    f.name()
                );
            }
        }
    }

    #[test]
    fn range_and_chunk_partials_stitch_to_full_run() {
        let groups = columns();
        let refs: Vec<&_> = groups.iter().collect();
        let views = GroupViews::from_groups(&refs);
        let filter = CompiledFilter::new(vec![
            CompiledPred {
                attr: ba(1),
                op: CmpOp::Eq,
                ty: LogicalType::I64,
                value: 5,
            },
            CompiledPred {
                attr: ba(2),
                op: CmpOp::Lt,
                ty: LogicalType::I64,
                value: 9,
            },
        ]);
        // Filter phase by range.
        let full = build_selvec_columnar(&views, &filter);
        let mut stitched = SelVec::default();
        for r in [0..2, 2..4] {
            for &id in build_selvec_columnar_range(&views, &filter, r).ids() {
                stitched.push(id);
            }
        }
        assert_eq!(stitched.ids(), full.ids());
        // Aggregate phase by id chunk: each chunk's intermediates are its
        // own, and the chunks' partials merge to the whole.
        let select = SelectProgram::Aggregate(vec![
            (
                AggFunc::Sum.into(),
                CompiledExpr::SumCols(vec![ba(0), ba(2)]),
            ),
            (AggFunc::Max.into(), CompiledExpr::Col(ba(2))),
        ]);
        let chunk = |ids: &[u32]| {
            let mut part = select.partial();
            let eval = |es: &[&CompiledExpr], r: Range<usize>, out: &mut [Value], layout| {
                eval_ids(&views, &ids[r], es, out, layout)
            };
            select.fold(&mut part, ids.len(), eval, None);
            part
        };
        let want = select.finish(vec![chunk(full.ids())]);
        assert_eq!(want.row(0), &[2 + 8 + 4 + 6, 8]);
        let got = select.finish(full.ids().chunks(1).map(chunk).collect());
        assert_eq!(got, want);
        // Streaming fast path by range.
        let whole = agg_full_column_range(&views, ba(0), AggFunc::Sum, 0..4);
        let mut m = agg_full_column_range(&views, ba(0), AggFunc::Sum, 0..2);
        m.merge(&agg_full_column_range(&views, ba(0), AggFunc::Sum, 2..4));
        assert_eq!(m.finish(), whole.finish());
    }
}
