//! Specialized execution kernels — the output of the "operator generator".
//!
//! The paper generates one code template per access strategy (§3.4):
//! the fused scan of Fig. 5, the two-phase selection-vector plan of
//! Fig. 6, and column-at-a-time processing over a column layout (§2.1).
//! Here one kernel runs every plan, [`fused`]: the block walker
//! ([`for_each_block`], 1K row ids per block) finds the qualifying rows of
//! one group or several and every block folds through the select
//! program's one batch step (`SelectProgram::fold`), which asks the
//! source to evaluate the select expressions over the block. The
//! two-phase plan was this walker with a morsel's ids held instead of a
//! block's, and column-at-a-time processing keeps its one strength — a
//! loop over one contiguous array — with block-sized vectors instead of
//! whole-morsel intermediates (as MonetDB/X100 does, Boncz, Zukowski and
//! Nes, CIDR 2005):
//!
//! * the aggregate tier (`fused::fold_columns`) folds bare columns one
//!   column at a time — each block's qualifying rows, decoded once, under
//!   a filter, and each run unmasked without one — when they are a few
//!   adjacent columns of one slot or each fill a slot of width one;
//! * the scan's evaluator (`eval_scan`) gathers bare columns and column
//!   sums one column at a time when their lanes lie in several slots of
//!   width one, a stretch of rows per segment piece, and otherwise reads
//!   each row's tuple once (`eval_rows`, which the join's sources use
//!   too).
//!
//! Both choices follow from what the plan binds — the slots' widths and
//! the expressions' shapes — so they add no option. Both join sides find
//! their rows with the same walker.
//!
//! [`simd`] holds the chunked lane primitives (masked compares, masked
//! and unmasked folds, id emission) the inner loops share; see its docs
//! for the lane/tail contract that keeps vectorized results bit-identical
//! to scalar ones.
//!
//! Kernels operate on [`GroupViews`] (raw slices)
//! and offset-resolved programs; nothing in a per-tuple loop consults a
//! schema or expression tree.

pub mod fused;
pub(crate) mod grouped;
pub mod simd;

use crate::bind::{BoundAttr, GroupViews, Piece, SlotAccessor};
use crate::filter::CompiledFilter;
use crate::program::{eval_batch, CompiledExpr, Layout};
use h2o_storage::{f64_lane, lane_f64, LogicalType, Value};
use simd::{BLOCK_ROWS, LANES};
use std::ops::Range;

/// The block walker: hands the rows of `range` that pass `filter` to
/// `block` as row ids, ascending and up to 1,024 at a time (a block may
/// be shorter, never empty), and returns their count. Over the pruned
/// segment runs it builds the conjunction's chunk masks a 1K-row block at
/// a time (`simd::RunFilter::for_each_block`) and decodes each into ids
/// without a branch per row, handing on 1K ids whenever it holds that
/// many; the run's scalar tail is tested row by row. Without predicates
/// every row of a run passes, and its ids are filled a stretch at a time.
/// The run iterator polls the stop token and charges the morsel budget
/// either way. The select program's scan fold (`SelectProgram::feed`) and
/// both join sides find their rows here.
pub fn for_each_block(
    views: &GroupViews<'_>,
    filter: &CompiledFilter,
    range: Range<usize>,
    mut block: impl FnMut(&[u32]),
) -> usize {
    // A fixed buffer and a local fill count. It holds a block's ids plus a
    // mask block's, and a chunk of slack: a chunk writes all its candidate
    // ids and keeps those its mask sets.
    let (mut ids, mut len, mut n) = ([0u32; 2 * BLOCK_ROWS + LANES], 0, 0);
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
                    block(&ids[..len]);
                    (n, len) = (n + len, 0);
                }
            }
            continue;
        }
        let rf = simd::RunFilter::resolve(&run, filter);
        let tail = rf.for_each_block(|at, masks| {
            for (k, &m) in masks.iter().enumerate().filter(|(_, &m)| m != 0) {
                let row = (start + at + k * LANES) as u32;
                for j in 0..LANES {
                    ids[len] = row + j as u32;
                    len += usize::from(m >> j & 1 == 1);
                }
            }
            if len >= BLOCK_ROWS {
                block(&ids[..BLOCK_ROWS]);
                ids.copy_within(BLOCK_ROWS..len, 0);
                (n, len) = (n + BLOCK_ROWS, len - BLOCK_ROWS);
            }
        });
        for i in tail.filter(|&i| rf.matches_row(i)) {
            if len == BLOCK_ROWS {
                block(&ids[..len]);
                (n, len) = (n + len, 0);
            }
            ids[len] = (start + i) as u32;
            len += 1;
        }
    }
    if len > 0 {
        block(&ids[..len]);
    }
    n + len
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

/// The scan's evaluator: [`eval_rows`], except that a batch of bare
/// columns and column sums whose lanes lie in several slots, each of
/// width one (a column layout's arrays, which share no tuple), is
/// evaluated a column at a time: one gather loop per column, and for
/// each further column of a sum one pass adding it in. A sum still adds
/// its columns left to right per row, from its first column, so its
/// `F64` bits are those of [`CompiledExpr::eval`]. Over a wider slot
/// each column's pass would re-read the block's tuples, so a batch that
/// reads one goes row by row.
pub(crate) fn eval_scan(
    slots: &[SlotAccessor<'_, '_>],
    rows: &[u32],
    exprs: &[&CompiledExpr],
    out: &mut [Value],
    layout: Layout,
) {
    let lanes = || exprs.iter().flat_map(|e| e.slots());
    let first = lanes().next();
    let several = lanes().any(|s| Some(s) != first);
    let columns = lanes().all(|s| slots[s as usize].width() == 1);
    let programs = exprs
        .iter()
        .any(|e| matches!(e, CompiledExpr::Program { .. }));
    if programs || !several || !columns {
        return eval_rows(slots, rows, exprs, out, layout, unbound);
    }
    // Expression `j`'s lane of row `i` is `out[j * stride + i * step]`.
    let (n, k) = (rows.len(), exprs.len());
    let (step, stride) = match layout {
        Layout::Rows => (k, 1),
        Layout::Columns => (1, out.len() / k),
    };
    for (j, e) in exprs.iter().enumerate() {
        let (cols, float): (&[BoundAttr], bool) = match e {
            CompiledExpr::Col(a) => (std::slice::from_ref(a), false),
            CompiledExpr::SumCols(cols) => (cols, false),
            CompiledExpr::SumColsF(cols) => (cols, true),
            CompiledExpr::Program { .. } => unreachable!("programs evaluate by row"),
        };
        for (c, &a) in cols.iter().enumerate() {
            let lanes = out[j * stride..].iter_mut().step_by(step).take(n);
            match (c, float) {
                (0, _) => gather_col(slots, a, rows, lanes),
                (_, false) => fold_col(slots, a, rows, lanes, Value::wrapping_add),
                (_, true) => fold_col(slots, a, rows, lanes, |o, v| {
                    f64_lane(lane_f64(o) + lane_f64(v))
                }),
            }
        }
    }
}

/// Folds the lanes of `a` at the ascending `rows` into `out`, `*o = f(*o,
/// lane)` in row order: each stretch of rows in one piece of the slot
/// (a sealed segment or a tail chunk, [`SlotAccessor::piece`]) is one
/// strided read of that piece's slice.
#[inline]
pub(crate) fn fold_col<'o>(
    slots: &[SlotAccessor<'_, '_>],
    a: BoundAttr,
    rows: &[u32],
    mut out: impl Iterator<Item = &'o mut Value>,
    f: impl Fn(Value, Value) -> Value,
) {
    let (col, off) = (&slots[a.slot as usize], a.offset as usize);
    let mut at = 0;
    while at < rows.len() {
        let piece = col.piece(rows[at] as usize);
        let next = at + rows[at..].partition_point(|&r| (r as usize) < piece.end());
        // Rows first: the zip stops before taking a lane past the stretch.
        for (&r, o) in rows[at..next].iter().zip(out.by_ref()) {
            *o = f(*o, piece.value(r as usize, off));
        }
        at = next;
    }
}

/// The lanes of `a` at the ascending `rows` into `out` ([`fold_col`]).
#[inline]
pub(crate) fn gather_col<'o>(
    slots: &[SlotAccessor<'_, '_>],
    a: BoundAttr,
    rows: &[u32],
    out: impl Iterator<Item = &'o mut Value>,
) {
    fold_col(slots, a, rows, out, |_, v| v)
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
    use h2o_expr::interp::interpret_over;
    use h2o_expr::{Query, QueryResult};
    use h2o_storage::{f64_lane, AttrId, ColumnGroup, LayoutCatalog, LogicalType, Schema, Value};

    /// Runs `q` serially through the scan and through the interpreter:
    /// `(engine, interpreter)`, over 5 000 rows of `(a0: I64, a1: F64,
    /// a2: I64, a3: F64)`. Split, the plan reads two groups, `(a0, a1)` in
    /// 2K-row segments and `(a2, a3)` in 8K-row segments, so runs end at
    /// either group's segment ends and split into 1K-row blocks; otherwise
    /// it reads one group of all four in 2K-row segments. The doubles are
    /// non-dyadic: their sums depend on fold order.
    pub(crate) fn vs_interpreter(q: &Query, split: bool) -> (QueryResult, QueryResult) {
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
        let plan = crate::AccessPlan::new(ids, crate::Strategy::FusedVolcano);
        let op = crate::compile(&catalog, &plan, q).unwrap();
        let serial = crate::ExecCtx::new(crate::ExecPolicy::serial());
        (crate::run(&catalog, &op, &serial).unwrap().0, want)
    }
}
