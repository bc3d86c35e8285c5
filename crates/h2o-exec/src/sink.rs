//! The select-clause **sink** — the one place that knows whether a query
//! projects, folds, or folds per group.
//!
//! The operator generator emits one loop per *(layout combination,
//! strategy)*; what that loop feeds is orthogonal to it. Every execution
//! path is therefore a **source** producing [`Partial`]s, one per row
//! range, and the sink finishing them in range order. One per-row step,
//! [`SelectProgram::push`], computes the select-items of every shape from
//! a lane-fetch closure, whatever source feeds it:
//!
//! * the fused scan and the selection-vector strategy's phase 2 hand their
//!   rows to `SelectProgram::feed` — a filtered row range or a chunk of
//!   qualifying ids ([`RowSource`]) — and the fused reorganization
//!   operator hands it each freshly stitched chunk of a range, continuing
//!   the range's one partial. Bare-column aggregates take their
//!   specialized tiers there ([`fused::aggregate_range`]), and grouped
//!   aggregates the block pipeline (`kernels::grouped`);
//! * the column-major strategy hands qualifying-id chunks to its own
//!   kernels (`SelectProgram::columnar`), whose intermediate columns are
//!   the DSM cost structure (§2.1);
//! * the join probe folds matches by its fold plan: matched pairs pushed
//!   one at a time (each lane fetched from its own side), blocks of hit
//!   rows folded column by column with their match counts as
//!   multiplicities (`SelectProgram::fold_hits`), or aggregate states and
//!   grouped tables it assembles from build-side folds (`Partial::from`).
//!
//! [`SelectProgram::finish`] concatenates projection blocks, merges
//! aggregate states and merges grouped tables — all in range order, which
//! is what pins the `F64` fold order (see [`AggState`]) and makes a serial
//! run (one range, nothing to merge) bit-identical to the interpreter.

use crate::bind::{BoundAttr, GroupViews, SlotAccessor};
use crate::compile::ExecError;
use crate::filter::CompiledFilter;
use crate::kernels::grouped::{self, GroupBlock};
use crate::kernels::{colmajor, fused, RowBody, RowSource};
use crate::program::CompiledExpr;
use h2o_expr::agg::{AggFunc, AggOp, AggState};
use h2o_expr::grouped::GroupedAggs;
use h2o_expr::{QueryResult, Select, SelectTypes};
use h2o_storage::{AttrId, LogicalType, Value};

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
/// table. Row sources start from [`SelectProgram::partial`]; the
/// column-major kernels and the join's factorized folds produce one from
/// their native return type (`into()`).
#[derive(Debug)]
pub struct Partial {
    acc: Acc,
    /// Evaluation buffer of [`SelectProgram::push`] (the output row, or
    /// the key lanes followed by the aggregate-input lanes).
    scratch: Vec<Value>,
}

#[derive(Debug)]
enum Acc {
    Rows(QueryResult),
    Aggs(Vec<AggState>),
    /// A grouped table with the block pipeline's buffers and dense memo,
    /// which hold ids of this table only (empty until a source is fed).
    Groups(GroupedAggs, Box<GroupBlock>),
}

impl From<QueryResult> for Partial {
    fn from(block: QueryResult) -> Partial {
        Acc::Rows(block).into()
    }
}

impl From<Vec<AggState>> for Partial {
    fn from(states: Vec<AggState>) -> Partial {
        Acc::Aggs(states).into()
    }
}

impl From<GroupedAggs> for Partial {
    fn from(table: GroupedAggs) -> Partial {
        Acc::Groups(table, Box::default()).into()
    }
}

impl From<Acc> for Partial {
    fn from(acc: Acc) -> Partial {
        Partial {
            acc,
            scratch: Vec::new(),
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

    /// Values per output row.
    pub fn width(&self) -> usize {
        match self {
            SelectProgram::Project(es) => es.len(),
            SelectProgram::Aggregate(aggs) => aggs.len(),
            SelectProgram::Grouped { keys, aggs, .. } => keys.len() + aggs.len(),
        }
    }

    /// The compiled expressions, regardless of kind.
    pub fn exprs(&self) -> Box<dyn Iterator<Item = &CompiledExpr> + '_> {
        match self {
            SelectProgram::Project(es) => Box::new(es.iter()),
            SelectProgram::Aggregate(aggs) => Box::new(aggs.iter().map(|(_, e)| e)),
            SelectProgram::Grouped { keys, aggs, .. } => {
                Box::new(keys.iter().chain(aggs.iter().map(|(_, e)| e)))
            }
        }
    }

    /// The `(op, column)` pairs of the no-filter bare-column aggregate
    /// shape, which the column-major strategy streams one contiguous
    /// column at a time with no selection vector at all (the Fig. 10(b)
    /// fast path); `None` for every other shape.
    pub(crate) fn streaming_cols(
        &self,
        filter: &CompiledFilter,
    ) -> Option<Vec<(AggOp, BoundAttr)>> {
        match self {
            SelectProgram::Aggregate(aggs) if filter.is_always_true() => fused::bare_columns(aggs),
            _ => None,
        }
    }

    /// An empty partial to [`Self::push`] rows (or `Self::feed` sources)
    /// into.
    pub fn partial(&self) -> Partial {
        let (acc, scratch) = match self {
            SelectProgram::Project(es) => (Acc::Rows(QueryResult::new(es.len())), es.len()),
            SelectProgram::Aggregate(aggs) => (
                Acc::Aggs(aggs.iter().map(|(f, _)| AggState::new(*f)).collect()),
                0,
            ),
            SelectProgram::Grouped {
                keys,
                key_types,
                aggs,
            } => (
                Acc::Groups(table_for(key_types, aggs), Box::default()),
                keys.len() + aggs.len(),
            ),
        };
        Partial {
            acc,
            scratch: vec![0; scratch],
        }
    }

    /// The one per-row step of every select shape: computes the
    /// select-items of one row, whose lanes `get` fetches by bound
    /// attribute, into `partial`, `n` times — `n` output rows, or one fold
    /// with multiplicity `n` ([`AggState::update_n`], bit-identical to `n`
    /// single folds; a grouped row probes its table once). `partial` must
    /// come from this program's [`Self::partial`].
    #[inline(always)]
    pub fn push(&self, partial: &mut Partial, get: impl Fn(BoundAttr) -> Value, n: u64) {
        let scratch = &mut partial.scratch;
        match (self, &mut partial.acc) {
            (SelectProgram::Project(exprs), Acc::Rows(out)) => {
                project_row(exprs, out, scratch, get, n)
            }
            (SelectProgram::Aggregate(aggs), Acc::Aggs(states)) => {
                aggregate_row(aggs, states, get, n)
            }
            (SelectProgram::Grouped { keys, aggs, .. }, Acc::Groups(table, _)) => {
                grouped_row(keys, aggs, table, scratch, get, n)
            }
            _ => unreachable!("partial belongs to a different select shape"),
        }
    }

    /// Folds every row of `source` into `partial` (from this program's
    /// [`Self::partial`]), so consecutive ranges or id chunks continue one
    /// fold chain: bare-column aggregates through their specialized tiers
    /// ([`fused::aggregate_range`]), grouped aggregates through the block
    /// pipeline ([`grouped::feed`]: 1K-row blocks, one id-resolving pass
    /// and one fold per aggregate column each, never one table lookup per
    /// row and aggregate), projections and other aggregates through their
    /// [`Self::push`] step, once per row. The shape is matched once per
    /// source, not per row, so each source's row loop is compiled for
    /// each shape's step (matching per row cost 2–9% on fused
    /// projections, rollups and expression aggregates when measured).
    pub(crate) fn feed(
        &self,
        views: &GroupViews<'_>,
        source: &RowSource<'_>,
        partial: &mut Partial,
    ) {
        struct Project<'p>(&'p [CompiledExpr], &'p mut QueryResult, &'p mut [Value]);
        impl RowBody for Project<'_> {
            #[inline(always)]
            fn row(&mut self, get: impl Fn(BoundAttr) -> Value) {
                project_row(self.0, self.1, self.2, get, 1)
            }
        }
        struct Aggregate<'p>(&'p [(AggOp, CompiledExpr)], &'p mut [AggState]);
        impl RowBody for Aggregate<'_> {
            #[inline(always)]
            fn row(&mut self, get: impl Fn(BoundAttr) -> Value) {
                aggregate_row(self.0, self.1, get, 1)
            }
        }
        let scratch = &mut partial.scratch;
        match (self, &mut partial.acc) {
            (SelectProgram::Project(exprs), Acc::Rows(out)) => {
                source.for_each(views, &mut Project(exprs, out, scratch))
            }
            (SelectProgram::Aggregate(aggs), Acc::Aggs(states)) => {
                match fused::bare_columns(aggs) {
                    Some(cols) => fused::aggregate_range(views, source, &cols, states),
                    None => source.for_each(views, &mut Aggregate(aggs, states)),
                }
            }
            (SelectProgram::Grouped { keys, aggs, .. }, Acc::Groups(table, blk)) => {
                grouped::feed(views, source, keys, aggs, table, blk)
            }
            _ => unreachable!("partial belongs to a different select shape"),
        }
    }

    /// The join's probe-only fold of one block of hit rows: probe row
    /// `rows[i]` (ascending, its lanes fetched through `slots`) folds
    /// `mults[i]` times, column at a time. Each aggregate input is
    /// gathered over the block and folded into its state
    /// ([`AggState::fold_column_n`]); a grouped program first resolves
    /// the block's group ids through its pipeline. Aggregate shapes only
    /// (a projection folds per pair); `partial` must come from this
    /// program's [`Self::partial`].
    pub(crate) fn fold_hits(
        &self,
        slots: &[SlotAccessor<'_, '_>],
        rows: &[u32],
        mults: &[u32],
        partial: &mut Partial,
    ) {
        match (self, &mut partial.acc) {
            (SelectProgram::Aggregate(aggs), Acc::Aggs(states)) => {
                let col = &mut partial.scratch;
                col.resize(rows.len(), 0);
                for (st, (op, e)) in states.iter_mut().zip(aggs) {
                    if op.func != AggFunc::Count {
                        grouped::gather(slots, e, rows, col.iter_mut());
                    }
                    st.fold_column_n(col, mults);
                }
            }
            (SelectProgram::Grouped { keys, aggs, .. }, Acc::Groups(table, blk)) => blk.run(
                table,
                keys.len(),
                aggs.len(),
                rows.len(),
                |kbuf, vbuf| grouped::gather_block(slots, keys, aggs, rows, kbuf, vbuf),
                Some(mults),
            ),
            _ => unreachable!("a projection folds per pair"),
        }
    }

    /// Phase 2 of the column-major strategy: computes the select-items for
    /// one contiguous chunk of qualifying ids column at a time, through
    /// materialized intermediate columns.
    pub(crate) fn columnar(&self, views: &GroupViews<'_>, ids: &[u32]) -> Partial {
        match self {
            SelectProgram::Project(exprs) => {
                colmajor::project_ids_columnar(views, ids, exprs).into()
            }
            SelectProgram::Aggregate(aggs) => {
                colmajor::aggregate_ids_columnar(views, ids, aggs).into()
            }
            SelectProgram::Grouped {
                keys,
                key_types,
                aggs,
            } => colmajor::grouped_ids_columnar(views, ids, keys, key_types, aggs).into(),
        }
    }

    /// Finishes per-range partials, **in range order**, into the result:
    /// projection blocks concatenate, aggregate states and grouped tables
    /// merge. No partials at all (a source that proved the result empty
    /// without scanning) finish as one empty partial — the interpreter's
    /// conventions: empty block, neutral aggregate row, zero groups.
    pub fn finish(&self, parts: Vec<Partial>) -> QueryResult {
        const SHAPE: &str = "partials of one program share a shape";
        let mut parts = parts.into_iter().map(|p| p.acc);
        match parts.next().unwrap_or_else(|| self.partial().acc) {
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
            Acc::Aggs(mut states) => {
                for part in parts {
                    let Acc::Aggs(part) = part else {
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

/// [`SelectProgram::push`] for a projection: appends the row's
/// select-items `n` times. The dominant single-expression template
/// (`select a+b+c ...`) skips the row buffer.
#[inline(always)]
fn project_row(
    exprs: &[CompiledExpr],
    out: &mut QueryResult,
    scratch: &mut [Value],
    get: impl Fn(BoundAttr) -> Value,
    n: u64,
) {
    if let [e] = exprs {
        let v = e.eval(get);
        for _ in 0..n {
            out.push1(v);
        }
        return;
    }
    for (slot, e) in scratch.iter_mut().zip(exprs) {
        *slot = e.eval(&get);
    }
    for _ in 0..n {
        out.push_row(scratch);
    }
}

/// [`SelectProgram::push`] for a scalar aggregate: folds each input with
/// multiplicity `n`.
#[inline(always)]
fn aggregate_row(
    aggs: &[(AggOp, CompiledExpr)],
    states: &mut [AggState],
    get: impl Fn(BoundAttr) -> Value,
    n: u64,
) {
    for (st, (f, e)) in states.iter_mut().zip(aggs) {
        st.update_n(input(*f, e, &get), n);
    }
}

/// [`SelectProgram::push`] for a grouped aggregate: evaluates the keys and
/// the aggregate inputs into `scratch` (keys first) and folds them with
/// multiplicity `n` in one table probe.
#[inline(always)]
fn grouped_row(
    keys: &[CompiledExpr],
    aggs: &[(AggOp, CompiledExpr)],
    table: &mut GroupedAggs,
    scratch: &mut [Value],
    get: impl Fn(BoundAttr) -> Value,
    n: u64,
) {
    let (key, vals) = scratch.split_at_mut(keys.len());
    for (slot, k) in key.iter_mut().zip(keys) {
        *slot = k.eval(&get);
    }
    for (slot, (f, e)) in vals.iter_mut().zip(aggs) {
        *slot = input(*f, e, &get);
    }
    table.update_n(key, vals, n);
}

/// An aggregate's input lane for one row: `count` reads none.
#[inline(always)]
fn input(f: AggOp, e: &CompiledExpr, get: impl Fn(BoundAttr) -> Value) -> Value {
    match f.func {
        AggFunc::Count => 0,
        _ => e.eval(get),
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
    use crate::kernels::selvector::build_selvec_range;
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

    fn feed(select: &SelectProgram, views: &GroupViews<'_>, source: RowSource<'_>) -> Partial {
        let mut part = select.partial();
        select.feed(views, &source, &mut part);
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
        let fused = select.finish(vec![feed(&select, &views, RowSource::Scan(&filter, 0..5))]);
        assert_eq!(fused.rows(), 2);
        assert_eq!(fused.row(0), &[1, 40, 2]);
        assert_eq!(fused.row(1), &[2, 60, 2]);
        let sel = build_selvec_range(&views, &filter, 0..5);
        assert_eq!(sel.ids(), &[0, 1, 2, 3]);
        let by_ids = select.finish(vec![feed(&select, &views, RowSource::Ids(sel.ids()))]);
        let columnar = select.finish(vec![select.columnar(&views, sel.ids())]);
        assert_eq!(by_ids, fused);
        assert_eq!(columnar, fused);
    }

    #[test]
    fn range_partials_merge_to_full_fold() {
        let g = sample();
        let views = GroupViews::from_groups(&[&g]);
        let select = program();
        let always = CompiledFilter::always();
        let full = select.finish(vec![feed(&select, &views, RowSource::Scan(&always, 0..5))]);
        let partials = [0..2, 2..3, 3..5]
            .into_iter()
            .map(|r| feed(&select, &views, RowSource::Scan(&always, r)))
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
        for strategy in crate::Strategy::ALL {
            let (got, want) = crate::kernels::testing::vs_interpreter(&q, strategy, true);
            assert_eq!(got.rows(), 5);
            assert_eq!(got, want, "{strategy:?}");
        }
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
        for source in [RowSource::Scan(&always, 0..3), RowSource::Ids(&[0, 1, 2])] {
            let out = select.finish(vec![feed(&select, &views, source)]);
            assert_eq!(out.rows(), 2);
            assert_eq!(out.row(0), &[7, 2]);
            assert_eq!(out.row(1), &[8, 3]);
        }
    }
}
