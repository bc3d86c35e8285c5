//! The select-clause **sink** — the one place that knows whether a query
//! projects, folds, or folds per group.
//!
//! The operator generator emits one loop per layout combination; what
//! that loop feeds is orthogonal to it. Every execution
//! path is therefore a **source** producing [`Partial`]s, one per row
//! range, and the sink finishing them in range order. One batch step,
//! `SelectProgram::fold`, folds `n` rows of every shape into a partial:
//! it asks the source to evaluate the select expressions over the batch,
//! each into a column of a row-major block, and takes optional per-row
//! multiplicities. A projection appends the block's rows, a scalar
//! aggregate folds each input column into its state ([`AggState::fold`]),
//! and a grouped aggregate runs the block pipeline (`kernels::grouped`).
//! The sources differ only in how they find rows and evaluate over them:
//!
//! * the fused scan folds each block of the walker — the rows of a row
//!   range that pass the filter, up to 1K at a time
//!   ([`kernels::for_each_block`]) — and the fused reorganization operator
//!   each freshly stitched chunk of a range, continuing the range's one
//!   partial (`SelectProgram::feed`, each slot sliced once per block, and
//!   bare columns and column sums over several slots gathered a column at
//!   a time, `kernels::eval_scan`);
//! * the join folds its hit probe rows with their match counts as
//!   multiplicities, its matched pairs a block at a time (probe lanes
//!   from the probe views, build lanes from the payload), and its reached
//!   build rows with their hit counts — or assembles grouped tables from
//!   build-side folds (`Partial::from`).
//!
//! One bare-column aggregate tier stays beside the step
//! (`fused::fold_columns`): a scan over a few adjacent columns of one
//! slot, or over columns that each fill a slot of width one, folds one
//! column at a time — each block's qualifying rows, decoded once, under
//! a filter, and whole runs unmasked without one.
//!
//! [`SelectProgram::finish`] concatenates projection blocks, merges
//! aggregate states and merges grouped tables — all in range order, which
//! is what pins the `F64` fold order (see [`AggState`]) and makes a serial
//! run (one range, nothing to merge) bit-identical to the interpreter.

use crate::bind::{BoundAttr, GroupViews};
use crate::compile::ExecError;
use crate::filter::CompiledFilter;
use crate::kernels::grouped::GroupBlock;
use crate::kernels::simd::{BLOCK_ROWS, LANES};
use crate::kernels::{self, fused};
use crate::program::{CompiledExpr, Layout};
use h2o_expr::agg::{AggFunc, AggOp, AggState};
use h2o_expr::grouped::GroupedAggs;
use h2o_expr::{QueryResult, Select, SelectTypes};
use h2o_storage::{AttrId, LogicalType, Value};
use std::ops::Range;

/// Lanes in one tile of a scalar aggregate's input columns: 128 KB, so
/// the tile stays in L2 between its evaluation and its folds.
const TILE_LANES: usize = 16_384;

/// The select-clause half of a compiled operator. Aggregates carry their
/// typed op ([`AggOp`]) and grouped programs their key types — the types
/// are baked in at generation time so the kernels' inner loops never
/// consult a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectProgram {
    /// One output row per qualifying tuple.
    Project(Vec<CompiledExpr>),
    /// One output row total.
    Aggregate(Vec<(AggOp, CompiledExpr)>),
    /// One output row per distinct key vector, sorted ascending by key in
    /// each key column's typed order (the grouped-aggregation determinism
    /// convention — see [`h2o_expr::grouped::GroupedAggs`]).
    Grouped {
        keys: Vec<CompiledExpr>,
        key_types: Vec<LogicalType>,
        aggs: Vec<(AggOp, CompiledExpr)>,
    },
}

/// One row range's (or id chunk's) contribution to a result, in the form
/// its shape merges: a projection block, aggregate states, or a grouped
/// table. Sources start from [`SelectProgram::partial`]; the join's
/// factorized folds produce one from their native return type (`into()`).
#[derive(Debug)]
pub struct Partial(Acc);

#[derive(Debug)]
enum Acc {
    Rows(QueryResult),
    /// The states and one aggregate input column of the batch step.
    Aggs(Vec<AggState>, Vec<Value>),
    /// A grouped table with the block pipeline's buffers and dense memo,
    /// which hold ids of this table only (empty until a source is fed).
    Groups(GroupedAggs, Box<GroupBlock>),
}

impl From<Vec<AggState>> for Partial {
    fn from(states: Vec<AggState>) -> Partial {
        Partial(Acc::Aggs(states, Vec::new()))
    }
}

impl From<GroupedAggs> for Partial {
    fn from(table: GroupedAggs) -> Partial {
        Partial(Acc::Groups(table, Box::default()))
    }
}

impl Partial {
    /// A scalar aggregate's states, in aggregate order.
    pub(crate) fn states(&self) -> &[AggState] {
        match &self.0 {
            Acc::Aggs(states, _) => states,
            _ => unreachable!("not a scalar aggregate's partial"),
        }
    }
}

impl SelectProgram {
    /// Generates the program for a select clause with its plan-time typing:
    /// `bind` resolves each attribute reference — to a plan slot and group
    /// offset for a scan and the fused reorganization, to a probe plan slot
    /// or a build payload lane for the join. An unbound attribute fails the
    /// lowering with `bind`'s error.
    pub(crate) fn lower(
        select: &Select,
        types: &SelectTypes,
        mut bind: impl FnMut(AttrId) -> Result<BoundAttr, ExecError>,
    ) -> Result<SelectProgram, ExecError> {
        let mut lower = |e: &h2o_expr::Expr, ty: LogicalType| -> Result<CompiledExpr, ExecError> {
            let mut err = None;
            let compiled = CompiledExpr::lower_typed(e, ty, |attr| {
                bind(attr).unwrap_or_else(|x| {
                    err = Some(x);
                    BoundAttr { slot: 0, offset: 0 }
                })
            });
            err.map_or(Ok(compiled), Err)
        };
        let (exprs, aggs) = select.parts();
        let exprs = exprs
            .iter()
            .zip(&types.exprs)
            .map(|(e, &ty)| lower(e, ty))
            .collect::<Result<Vec<_>, _>>()?;
        let aggs = aggs
            .iter()
            .zip(&types.aggs)
            .map(|(a, &op)| Ok((op, lower(&a.expr, op.ty)?)))
            .collect::<Result<Vec<_>, ExecError>>()?;
        Ok(match select {
            Select::Project(_) => SelectProgram::Project(exprs),
            Select::Aggregate(_) => SelectProgram::Aggregate(aggs),
            Select::Grouped { .. } => SelectProgram::Grouped {
                keys: exprs,
                key_types: types.exprs.clone(),
                aggs,
            },
        })
    }

    /// An empty partial for [`Self::finish`], to fold batches into.
    pub fn partial(&self) -> Partial {
        Partial(match self {
            SelectProgram::Project(es) => Acc::Rows(QueryResult::new(es.len())),
            SelectProgram::Aggregate(aggs) => Acc::Aggs(
                aggs.iter().map(|(f, _)| AggState::new(*f)).collect(),
                Vec::new(),
            ),
            SelectProgram::Grouped {
                key_types, aggs, ..
            } => Acc::Groups(table_for(key_types, aggs), Box::default()),
        })
    }

    /// The one batch step of every select shape: folds `n` rows into
    /// `partial` (from this program's [`Self::partial`]). `eval(exprs,
    /// rows, out, layout)` is the source's evaluator: `exprs` over the
    /// batch's rows `rows` into `out`, laid out by `layout`. A projection
    /// evaluates its row block straight into the output, a scalar
    /// aggregate evaluates its input columns and folds each
    /// ([`AggState::fold`]), a grouped aggregate evaluates its key lanes
    /// and input columns and runs the block pipeline. With `mults`, row
    /// `i` folds `mults[i]` times (each at least one, bit-identical to
    /// that many rows) — aggregate shapes only: a projection's source
    /// expands its rows.
    pub(crate) fn fold(
        &self,
        partial: &mut Partial,
        n: usize,
        mut eval: impl FnMut(&[&CompiledExpr], Range<usize>, &mut [Value], Layout),
        mults: Option<&[u32]>,
    ) {
        if n == 0 {
            return;
        }
        match (self, &mut partial.0) {
            (SelectProgram::Project(exprs), Acc::Rows(out)) => {
                debug_assert!(mults.is_none(), "a projection's source expands its rows");
                let exprs: Vec<&CompiledExpr> = exprs.iter().collect();
                eval(&exprs, 0..n, out.extend_rows(n), Layout::Rows);
            }
            (SelectProgram::Aggregate(aggs), Acc::Aggs(states, buf)) => {
                // A batch of at most a block evaluates its inputs a tile of
                // rows at a time, every input of the tile in one pass over
                // its rows (a wide tuple is read once) and the tile's
                // columns cached. A larger batch (the join's merge)
                // evaluates one input over all its rows at a time, so its
                // buffer holds one column.
                let inputs: Vec<usize> = (0..aggs.len())
                    .filter(|&j| aggs[j].0.func != AggFunc::Count)
                    .collect();
                let (per_call, tile) = if n <= BLOCK_ROWS {
                    (inputs.len(), (TILE_LANES / inputs.len().max(1)).max(LANES))
                } else {
                    (1, n)
                };
                for group in inputs.chunks(per_call.max(1)) {
                    let exprs: Vec<&CompiledExpr> = group.iter().map(|&j| &aggs[j].1).collect();
                    for lo in (0..n).step_by(tile) {
                        let rows = lo..(lo + tile).min(n);
                        // A cache line between columns: columns a power of
                        // two apart would put a row's lanes in one L1 set.
                        let stride = rows.len() + LANES;
                        buf.resize(stride * group.len(), 0);
                        eval(&exprs, rows.clone(), buf, Layout::Columns);
                        let m = mults.map(|m| &m[rows.clone()]);
                        for (&j, col) in group.iter().zip(buf.chunks_exact(stride)) {
                            states[j].fold(rows.len(), &col[..rows.len()], m);
                        }
                    }
                }
                for (st, (f, _)) in states.iter_mut().zip(aggs) {
                    if f.func == AggFunc::Count {
                        st.fold(n, &[], mults);
                    }
                }
            }
            (SelectProgram::Grouped { keys, aggs, .. }, Acc::Groups(table, blk)) => {
                let gather = |kbuf: &mut [Value], vbuf: &mut [Value]| {
                    let keys: Vec<&CompiledExpr> = keys.iter().collect();
                    eval(&keys, 0..n, kbuf, Layout::Rows);
                    for ((f, e), col) in aggs.iter().zip(vbuf.chunks_exact_mut(n)) {
                        if f.func != AggFunc::Count {
                            eval(&[e], 0..n, col, Layout::Columns);
                        }
                    }
                };
                blk.run(table, keys.len(), aggs.len(), n, gather, mults)
            }
            _ => unreachable!("partial belongs to a different select shape"),
        }
    }

    /// Folds the rows of `range` that pass `filter` into `partial` (from
    /// this program's [`Self::partial`]), so consecutive ranges continue
    /// one fold chain: a block of the walker ([`kernels::for_each_block`])
    /// at a time through [`Self::fold`], each slot of the block sliced
    /// once (`kernels::eval_scan`). A scalar aggregate over bare columns
    /// of the tier's shape takes the per-column tier instead
    /// (`fused::tier_columns`, `fused::fold_columns`).
    pub(crate) fn feed(
        &self,
        views: &GroupViews<'_>,
        filter: &CompiledFilter,
        range: Range<usize>,
        partial: &mut Partial,
    ) {
        if let (SelectProgram::Aggregate(aggs), Acc::Aggs(states, _)) = (self, &mut partial.0) {
            if let Some(cols) = fused::tier_columns(views, aggs) {
                return fused::fold_columns(views, filter, range, &cols, states);
            }
        }
        let slots = views.accessors();
        kernels::for_each_block(views, filter, range, |rows| {
            let eval = |es: &[&CompiledExpr], r: Range<usize>, out: &mut [Value], layout| {
                kernels::eval_scan(&slots, &rows[r], es, out, layout)
            };
            self.fold(partial, rows.len(), eval, None)
        });
    }

    /// Finishes per-range partials, **in range order**, into the result:
    /// projection blocks concatenate, aggregate states and grouped tables
    /// merge. No partials at all (a source that proved the result empty
    /// without scanning) finish as one empty partial — the interpreter's
    /// conventions: empty block, neutral aggregate row, zero groups.
    pub fn finish(&self, parts: Vec<Partial>) -> QueryResult {
        const SHAPE: &str = "partials of one program share a shape";
        let mut parts = parts.into_iter().map(|p| p.0);
        match parts.next().unwrap_or_else(|| self.partial().0) {
            Acc::Rows(first) => {
                let rest: Vec<QueryResult> = parts
                    .map(|p| match p {
                        Acc::Rows(block) => block,
                        _ => unreachable!("{SHAPE}"),
                    })
                    .collect();
                if rest.is_empty() {
                    return first;
                }
                // One exact-size allocation, each block copied once.
                let rows = first.rows() + rest.iter().map(|b| b.rows()).sum::<usize>();
                let mut out = QueryResult::with_capacity(first.width(), rows);
                out.append(&first);
                for block in &rest {
                    out.append(block);
                }
                out
            }
            Acc::Aggs(mut states, _) => {
                for part in parts {
                    let Acc::Aggs(part, _) = part else {
                        unreachable!("{SHAPE}");
                    };
                    for (t, p) in states.iter_mut().zip(&part) {
                        t.merge(p);
                    }
                }
                let row: Vec<Value> = states.iter().map(|s| s.finish()).collect();
                let mut out = QueryResult::new(row.len());
                out.push_row(&row);
                out
            }
            Acc::Groups(mut table, _) => {
                for part in parts {
                    let Acc::Groups(part, _) = part else {
                        unreachable!("{SHAPE}");
                    };
                    table.merge(part);
                }
                table.finish()
            }
        }
    }
}

/// A fresh table for a grouped program. Key types drive the typed
/// ascending sort of [`GroupedAggs::finish`]; the table itself hashes raw
/// lane bits.
pub(crate) fn table_for(key_types: &[LogicalType], aggs: &[(AggOp, CompiledExpr)]) -> GroupedAggs {
    GroupedAggs::new(key_types.to_vec(), aggs.iter().map(|(f, _)| *f).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::CompiledPred;
    use h2o_expr::{AggFunc, CmpOp};
    use h2o_storage::{ColumnGroup, LogicalType};

    fn ba(offset: u32) -> BoundAttr {
        BoundAttr { slot: 0, offset }
    }

    /// One wide group: key = [1,2,1,2,1], val = [10,20,30,40,50],
    /// filter attr = [0,1,2,3,4].
    fn sample() -> ColumnGroup {
        ColumnGroup::from_columns(
            vec![AttrId(0), AttrId(1), AttrId(2)],
            &[&[1, 2, 1, 2, 1], &[10, 20, 30, 40, 50], &[0, 1, 2, 3, 4]],
        )
        .unwrap()
    }

    /// `select a0, sum(a1), count(*) group by a0`.
    fn program() -> SelectProgram {
        SelectProgram::Grouped {
            keys: vec![CompiledExpr::Col(ba(0))],
            key_types: vec![LogicalType::I64],
            aggs: vec![
                (AggFunc::Sum.into(), CompiledExpr::Col(ba(1))),
                (AggFunc::Count.into(), CompiledExpr::Col(ba(0))),
            ],
        }
    }

    fn feed(
        select: &SelectProgram,
        views: &GroupViews<'_>,
        filter: &CompiledFilter,
        range: Range<usize>,
    ) -> Partial {
        let mut part = select.partial();
        select.feed(views, filter, range, &mut part);
        part
    }

    #[test]
    fn every_source_groups_alike() {
        let g = sample();
        let views = GroupViews::from_groups(&[&g]);
        let select = program();
        let filter = CompiledFilter::new(vec![CompiledPred {
            attr: ba(2),
            op: CmpOp::Lt,
            ty: LogicalType::I64,
            value: 4,
        }]);
        // Qualifying rows 0..=3: key 1 -> {10, 30}, key 2 -> {20, 40}.
        let fused = select.finish(vec![feed(&select, &views, &filter, 0..5)]);
        assert_eq!(fused.rows(), 2);
        assert_eq!(fused.row(0), &[1, 40, 2]);
        assert_eq!(fused.row(1), &[2, 60, 2]);
        // The same rows handed to the batch step directly.
        let slots = views.accessors();
        let rows = [0, 1, 2, 3];
        let mut part = select.partial();
        let eval = |es: &[&CompiledExpr], r: Range<usize>, out: &mut [Value], layout| {
            crate::kernels::eval_rows(&slots, &rows[r], es, out, layout, crate::kernels::unbound)
        };
        select.fold(&mut part, rows.len(), eval, None);
        assert_eq!(select.finish(vec![part]), fused);
    }

    /// The scalar batch step over many inputs splits a block into tiles
    /// (here 20 inputs: 819-row tiles) and over a batch past a block
    /// evaluates one input at a time; with multiplicities or without, every
    /// state ends field-identical to one `update` per row and repetition.
    /// The inputs are non-dyadic `F64` sums and integer aggregates over a
    /// row-major batch `lane(i, a) = f(i, a.offset)`.
    #[test]
    fn tiled_aggregate_fold_matches_per_row_updates() {
        use crate::program::eval_batch;
        use h2o_storage::f64_lane;
        let funcs = [AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg];
        let aggs: Vec<(AggOp, CompiledExpr)> = (0..21u32)
            .map(|j| match j {
                20 => (AggFunc::Count.into(), CompiledExpr::Col(ba(0))),
                _ => {
                    let ty = [LogicalType::I64, LogicalType::F64][j as usize % 2];
                    let op = AggOp::new(funcs[j as usize % 4], ty);
                    (op, CompiledExpr::Col(ba(j)))
                }
            })
            .collect();
        let lane = |i: usize, a: BoundAttr| match a.offset % 2 {
            0 => (i as Value * 7919 + a.offset as Value) % 1013 - 500,
            _ => f64_lane(i as f64 * 0.37 + a.offset as f64 * 0.001),
        };
        let select = SelectProgram::Aggregate(aggs.clone());
        for (n, with_mults) in [(1_024, false), (1_024, true), (1_025, false), (3_000, true)] {
            let mults: Vec<u32> = (0..n).map(|i| (i * 7 % 5) as u32 + 1).collect();
            let mults = with_mults.then_some(&mults[..]);
            let mut part = select.partial();
            let eval = |es: &[&CompiledExpr], r: Range<usize>, out: &mut [Value], layout| {
                let lo = r.start;
                eval_batch(es, out, layout, 0..r.len(), |i| move |a| lane(lo + i, a))
            };
            select.fold(&mut part, n, eval, mults);
            let mut want: Vec<AggState> = aggs.iter().map(|(f, _)| AggState::new(*f)).collect();
            for i in 0..n {
                for _ in 0..mults.map_or(1, |m| m[i]) {
                    for (st, (_, e)) in want.iter_mut().zip(&aggs) {
                        st.update(e.eval(|a| lane(i, a)));
                    }
                }
            }
            assert_eq!(part.states(), &want[..], "n {n} mults {with_mults}");
        }
    }

    #[test]
    fn range_partials_merge_to_full_fold() {
        let g = sample();
        let views = GroupViews::from_groups(&[&g]);
        let select = program();
        let always = CompiledFilter::always();
        let full = select.finish(vec![feed(&select, &views, &always, 0..5)]);
        let partials = [0..2, 2..3, 3..5]
            .into_iter()
            .map(|r| feed(&select, &views, &always, r))
            .collect();
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
        let (got, want) = crate::kernels::testing::vs_interpreter(&q, true);
        assert_eq!(got.rows(), 5);
        assert_eq!(got, want);
    }

    #[test]
    fn multi_group_plans_stitch() {
        let g1 = ColumnGroup::from_columns(vec![AttrId(0)], &[&[7, 7, 8]]).unwrap();
        let g2 = ColumnGroup::from_columns(vec![AttrId(1)], &[&[1, 2, 3]]).unwrap();
        let views = GroupViews::from_groups(&[&g1, &g2]);
        let select = SelectProgram::Grouped {
            keys: vec![CompiledExpr::Col(BoundAttr { slot: 0, offset: 0 })],
            key_types: vec![LogicalType::I64],
            aggs: vec![(
                AggFunc::Max.into(),
                CompiledExpr::Col(BoundAttr { slot: 1, offset: 0 }),
            )],
        };
        let always = CompiledFilter::always();
        let out = select.finish(vec![feed(&select, &views, &always, 0..3)]);
        assert_eq!(out.rows(), 2);
        assert_eq!(out.row(0), &[7, 2]);
        assert_eq!(out.row(1), &[8, 3]);
    }
}
