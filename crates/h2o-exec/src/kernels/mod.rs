//! Specialized execution kernels — the output of the "operator generator".
//!
//! Each submodule is one of the paper's generated-code templates (§3.4):
//!
//! * [`fused`] — Fig. 5: one loop, predicates and select-items fused, no
//!   intermediate results (and the bare-column aggregate tier);
//! * [`colmajor`] — the pure column-store execution model of §2.1, with
//!   per-operator intermediate materialization.
//!
//! The paper's third template, the two-phase selection-vector plan of
//! Fig. 6, has no kernel of its own: its phase 1 found rows with the
//! fused scan's mask walker and its phase 2 folded them through the same
//! batch step, so it was the fused scan with a morsel's ids held instead
//! of a block's (`cost_trial` times both; ROADMAP item 4(c)).
//!
//! [`simd`] holds the chunked lane primitives (masked compares, masked
//! folds, id emission) the strategies' inner loops share; see its docs
//! for the lane/tail contract that keeps vectorized results bit-identical
//! to scalar ones.
//!
//! Kernels operate on [`GroupViews`] (raw slices)
//! and offset-resolved programs; nothing in a per-tuple loop consults a
//! schema or expression tree. Every source folds its rows through the
//! select program's one batch step
//! (`SelectProgram::fold`), which asks the source to evaluate the select
//! expressions over a batch. The fused scan finds its qualifying rows
//! with the block walker ([`for_each_block`], 1K row ids per block) and
//! evaluates over each block with `eval_rows`; the column-major strategy
//! evaluates its id chunks through intermediate columns
//! (`colmajor::eval_ids`). Both join sides find their rows through
//! `qualifying_blocks`: the walker, or column-major's ids in 1K-id
//! chunks. What stays specialized is the two bare-column aggregate tiers
//! a plan selects: a few adjacent columns of one slot under a scan
//! (`fused::fold_columns`) and column-major's no-filter streaming fold
//! ([`colmajor::agg_full_column_range`]).

pub mod colmajor;
pub mod fused;
pub(crate) mod grouped;
pub mod simd;

use crate::bind::{BoundAttr, GroupViews, Piece, SlotAccessor};
use crate::filter::CompiledFilter;
use crate::plan::Strategy;
use crate::program::{eval_batch, CompiledExpr, Layout};
use h2o_storage::{LogicalType, Value};
use simd::BLOCK_ROWS;
use std::ops::Range;

/// The block walker: hands the rows of `range` that pass `filter` to
/// `block` as row ids, ascending and up to 1,024 at a time (a
/// block may be shorter, never empty), and returns their count. It
/// collects the rows of the fused walker (`simd::RunFilter::for_each_row`)
/// over the pruned segment runs; without predicates every row of a run
/// passes, and its ids are filled a stretch at a time. The run iterator
/// polls the stop token and charges the morsel budget either way. The
/// select program's scan fold (`SelectProgram::feed`) and both fused join
/// sides find their rows here.
pub fn for_each_block(
    views: &GroupViews<'_>,
    filter: &CompiledFilter,
    range: Range<usize>,
    mut block: impl FnMut(&[u32]),
) -> usize {
    // A fixed buffer and a local fill count: the per-row append stays in
    // registers.
    let (mut ids, mut len, mut n) = ([0u32; BLOCK_ROWS], 0, 0);
    let always = filter.is_always_true();
    for run in views.runs_pruned(range, filter) {
        let start = run.start();
        if always {
            let mut at = start;
            while at < start + run.len() {
                let k = (start + run.len() - at).min(BLOCK_ROWS - len);
                let fill = ids[len..len + k].iter_mut();
                fill.zip(at as u32..).for_each(|(id, row)| *id = row);
                (at, len) = (at + k, len + k);
                if len == BLOCK_ROWS {
                    block(&ids);
                    (n, len) = (n + len, 0);
                }
            }
            continue;
        }
        simd::RunFilter::resolve(&run, filter).for_each_row(|i| {
            ids[len] = (start + i) as u32;
            len += 1;
            if len == BLOCK_ROWS {
                block(&ids);
                (n, len) = (n + len, 0);
            }
        });
    }
    if len > 0 {
        block(&ids[..len]);
    }
    n + len
}

/// The qualifying rows of `range` under `strategy`, a block at a time:
/// the fused walker ([`for_each_block`]), or column-major's qualifying
/// ids ([`colmajor::build_selvec_columnar_range`]) cut into
/// [`BLOCK_ROWS`]-id chunks. Returns their count. Both join sides find
/// their rows here.
pub(crate) fn qualifying_blocks(
    strategy: Strategy,
    views: &GroupViews<'_>,
    filter: &CompiledFilter,
    range: Range<usize>,
    block: impl FnMut(&[u32]),
) -> usize {
    if strategy == Strategy::FusedVolcano {
        return for_each_block(views, filter, range, block);
    }
    let sel = colmajor::build_selvec_columnar_range(views, filter, range);
    sel.ids().chunks(BLOCK_ROWS).for_each(block);
    sel.len()
}

/// The row sources' evaluator: evaluates `exprs` over the ascending
/// `rows` of `slots` into `out`, laid out by `layout` ([`eval_batch`]).
/// Each stretch of rows that lies in one piece of every slot slices each
/// slot once ([`SlotAccessor::piece`]), so a lane is one slice index and
/// no segment lookup, and over one slot a row's tuple is located once for
/// all its lanes; a batch that straddles a piece end splits there. A lane
/// of a slot past `slots` is `other(i, attr)` for the batch's row `i` (the
/// join's build payload; [`unbound`] for a scan).
pub(crate) fn eval_rows(
    slots: &[SlotAccessor<'_, '_>],
    rows: &[u32],
    exprs: &[&CompiledExpr],
    out: &mut [Value],
    layout: Layout,
    other: impl Fn(usize, BoundAttr) -> Value,
) {
    let other = &other;
    // Over one slot that every lane reads, a row's tuple is located once.
    let one_slot = slots.len() == 1 && exprs.iter().all(|e| e.slots().all(|s| s == 0));
    let mut pieces = Vec::with_capacity(slots.len());
    let mut at = 0;
    while at < rows.len() {
        pieces.clear();
        pieces.extend(slots.iter().map(|s| s.piece(rows[at] as usize)));
        let end = pieces.iter().map(Piece::end).min().unwrap_or(usize::MAX);
        let next = at + rows[at..].partition_point(|&r| (r as usize) < end);
        let row = |i: usize| rows[i] as usize;
        // A bare column is one gather loop over its slot's piece.
        if let [CompiledExpr::Col(a)] = exprs {
            if let Some(p) = pieces.get(a.slot as usize) {
                let (out, here) = (&mut out[at..next], &rows[at..next]);
                let off = a.offset as usize;
                out.iter_mut()
                    .zip(here)
                    .for_each(|(o, &r)| *o = p.value(r as usize, off));
                at = next;
                continue;
            }
        }
        match pieces[..] {
            [p] if one_slot => eval_batch(exprs, out, layout, at..next, |i| {
                let t = p.tuple(row(i));
                move |a: BoundAttr| t[a.offset as usize]
            }),
            ref many => eval_batch(exprs, out, layout, at..next, |i| {
                move |a: BoundAttr| match many.get(a.slot as usize) {
                    Some(p) => p.value(row(i), a.offset as usize),
                    None => other(i, a),
                }
            }),
        }
        at = next;
    }
}

/// [`eval_rows`]'s `other` for a source whose every slot is bound.
pub(crate) fn unbound(_: usize, a: BoundAttr) -> Value {
    unreachable!("slot {} is not bound", a.slot)
}

/// Typed accumulator micro-ops shared by the specialized (flat-slot)
/// aggregation tiers of every kernel. Each takes the loop-invariant
/// [`LogicalType`] by value; the type dispatch is a single predictable
/// branch the compiler unswitches out of the row loop, so the `I64` paths
/// compile to exactly the pre-typed code. Min/max accumulators live in
/// **comparator-key space** ([`LogicalType::cmp_key`] — identity for
/// `I64`), matching what [`h2o_expr::agg::AggState::from_parts`] expects.
#[inline(always)]
pub(crate) fn upd_max(ty: LogicalType, acc: &mut Value, v: Value) {
    let k = ty.cmp_key(v);
    if k > *acc {
        *acc = k;
    }
}

#[inline(always)]
pub(crate) fn upd_min(ty: LogicalType, acc: &mut Value, v: Value) {
    let k = ty.cmp_key(v);
    if k < *acc {
        *acc = k;
    }
}

#[inline(always)]
pub(crate) fn upd_sum(ty: LogicalType, acc: &mut Value, v: Value) {
    *acc = match ty {
        LogicalType::F64 => {
            h2o_storage::f64_lane(h2o_storage::lane_f64(*acc) + h2o_storage::lane_f64(v))
        }
        _ => acc.wrapping_add(v),
    };
}

#[cfg(test)]
pub(crate) mod testing {
    use crate::Strategy;
    use h2o_expr::interp::interpret_over;
    use h2o_expr::{Query, QueryResult};
    use h2o_storage::{f64_lane, AttrId, ColumnGroup, LayoutCatalog, LogicalType, Schema, Value};

    /// Runs `q` serially through `strategy` and through the interpreter:
    /// `(engine, interpreter)`, over 5 000 rows of `(a0: I64, a1: F64,
    /// a2: I64, a3: F64)`. Split, the plan reads two groups, `(a0, a1)` in
    /// 2K-row segments and `(a2, a3)` in 8K-row segments, so runs end at
    /// either group's segment ends and split into 1K-row blocks; otherwise
    /// it reads one group of all four in 2K-row segments. The doubles are
    /// non-dyadic: their sums depend on fold order.
    pub(crate) fn vs_interpreter(
        q: &Query,
        strategy: Strategy,
        split: bool,
    ) -> (QueryResult, QueryResult) {
        use LogicalType::{F64, I64};
        let rows = 5_000;
        let col = |f: &dyn Fn(usize) -> Value| (0..rows).map(f).collect::<Vec<Value>>();
        let a0 = col(&|i| (i * 7 % 5) as Value);
        let a1 = col(&|i| f64_lane((i % 41) as f64 / 10.0 - 1.7));
        let a2 = col(&|i| (i * 13 % 97) as Value);
        let a3 = col(&|i| f64_lane((i * 3 % 29) as f64 / 3.0));
        let group = |attrs: &[u32], cols: &[&[Value]], shift| {
            let types = attrs.iter().map(|a| [I64, F64][*a as usize % 2]).collect();
            let attrs = attrs.iter().map(|&a| AttrId(a)).collect();
            ColumnGroup::from_columns_typed(attrs, types, cols, shift).unwrap()
        };
        let groups = if split {
            vec![
                group(&[0, 1], &[&a0, &a1], 11),
                group(&[2, 3], &[&a2, &a3], 13),
            ]
        } else {
            vec![group(&[0, 1, 2, 3], &[&a0, &a1, &a2, &a3], 11)]
        };
        let want = interpret_over(&groups.iter().collect::<Vec<_>>(), q).unwrap();
        let schema = Schema::typed([("a0", I64), ("a1", F64), ("a2", I64), ("a3", F64)]);
        let mut catalog = LayoutCatalog::new(schema.into_shared(), rows);
        let ids = groups
            .into_iter()
            .map(|g| catalog.add_group(g).unwrap())
            .collect();
        let plan = crate::AccessPlan::new(ids, strategy);
        let op = crate::compile(&catalog, &plan, q).unwrap();
        let serial = crate::ExecCtx::new(crate::ExecPolicy::serial());
        (crate::run(&catalog, &op, &serial).unwrap().0, want)
    }
}
