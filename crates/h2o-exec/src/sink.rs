//! The select-clause **sink** — the one place that knows whether a query
//! projects, folds, or folds per group.
//!
//! The operator generator emits one loop per *(layout combination,
//! strategy)*; what that loop feeds is orthogonal to it. Every execution
//! path is therefore a **source** producing [`Partial`]s, one per row
//! range, and the sink finishing them in range order:
//!
//! * the fused scan hands a whole range to the shape's range kernel
//!   (`SelectProgram::scan_range`), and the fused reorganization operator
//!   hands it each freshly stitched chunk of a range, continuing the
//!   range's one partial;
//! * the selection-vector and column-major scans hand qualifying-id chunks
//!   to the shape's gather kernel (`SelectProgram::gather`);
//! * the join probe folds matches by its fold plan: stitched tuples
//!   [`SelectProgram::push`]ed, with a multiplicity, into a fresh
//!   [`SelectProgram::partial`], or aggregate states and grouped tables it
//!   assembles from per-key build-side folds (`Partial::from`).
//!
//! [`SelectProgram::finish`] concatenates projection blocks, merges
//! aggregate states and merges grouped tables — all in range order, which
//! is what pins the `F64` fold order (see [`AggState`]) and makes a serial
//! run (one range, nothing to merge) bit-identical to the interpreter.

use crate::bind::{BoundAttr, GroupViews};
use crate::compile::ExecError;
use crate::filter::CompiledFilter;
use crate::kernels::{colmajor, fused, grouped, selvector};
use crate::program::CompiledExpr;
use h2o_expr::agg::{AggOp, AggState};
use h2o_expr::grouped::GroupedAggs;
use h2o_expr::{QueryResult, Select, SelectTypes};
use h2o_storage::{AttrId, LogicalType, Value};
use std::ops::Range;

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
/// table. Kernels produce one from their native return type (`into()`);
/// tuple sources start from [`SelectProgram::partial`].
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
    Groups(GroupedAggs),
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
        Acc::Groups(table).into()
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
    /// offset for a scan and the fused reorganization, to a stitched-tuple
    /// position for the join probe. An unbound attribute fails the lowering
    /// with `bind`'s error.
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
        let SelectProgram::Aggregate(aggs) = self else {
            return None;
        };
        if !filter.is_always_true() {
            return None;
        }
        aggs.iter()
            .map(|(f, e)| match e {
                CompiledExpr::Col(a) => Some((*f, *a)),
                _ => None,
            })
            .collect()
    }

    /// An empty partial to [`Self::push`] tuples (or scan ranges) into.
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
                Acc::Groups(grouped::table_for(key_types, aggs)),
                keys.len() + aggs.len(),
            ),
        };
        Partial {
            acc,
            scratch: vec![0; scratch],
        }
    }

    /// Feeds one stitched tuple — every attribute reference of the program
    /// indexes `tuple` by its `offset` — into `partial`, `n` times: `n`
    /// output rows, or one fold with multiplicity `n`
    /// ([`AggState::update_n`], bit-identical to `n` single folds).
    /// `partial` must come from this program's [`Self::partial`].
    #[inline]
    pub fn push(&self, partial: &mut Partial, tuple: &[Value], n: u64) {
        let get = |a: BoundAttr| tuple[a.offset as usize];
        let scratch = &mut partial.scratch;
        match (self, &mut partial.acc) {
            (SelectProgram::Project(exprs), Acc::Rows(out)) => {
                for (slot, e) in scratch.iter_mut().zip(exprs) {
                    *slot = e.eval(get);
                }
                for _ in 0..n {
                    out.push_row(scratch);
                }
            }
            (SelectProgram::Aggregate(aggs), Acc::Aggs(states)) => {
                for (st, (_, e)) in states.iter_mut().zip(aggs) {
                    st.update_n(e.eval(get), n);
                }
            }
            (SelectProgram::Grouped { keys, aggs, .. }, Acc::Groups(table)) => {
                grouped::fold_row(table, keys, aggs, scratch, get, n);
            }
            _ => unreachable!("partial belongs to a different select shape"),
        }
    }

    /// The fused source: filter and select-items in one pass over `range`,
    /// folded into `partial` (from this program's [`Self::partial`]), so
    /// consecutive ranges continue one fold chain.
    pub(crate) fn scan_range(
        &self,
        views: &GroupViews<'_>,
        filter: &CompiledFilter,
        range: Range<usize>,
        partial: &mut Partial,
    ) {
        match (self, &mut partial.acc) {
            (SelectProgram::Project(exprs), Acc::Rows(out)) => {
                fused::project_range(views, filter, exprs, range, out)
            }
            (SelectProgram::Aggregate(aggs), Acc::Aggs(states)) => {
                fused::aggregate_range(views, filter, aggs, range, states)
            }
            (SelectProgram::Grouped { keys, aggs, .. }, Acc::Groups(table)) => {
                grouped::fused_range(views, filter, keys, aggs, range, table)
            }
            _ => unreachable!("partial belongs to a different select shape"),
        }
    }

    /// Phase 2 of the id-based sources: computes the select-items for one
    /// contiguous chunk of qualifying ids — tuple-at-a-time gathers for the
    /// selection-vector strategy, materialized intermediate columns when
    /// `columnar`.
    pub(crate) fn gather(&self, views: &GroupViews<'_>, ids: &[u32], columnar: bool) -> Partial {
        match self {
            SelectProgram::Project(exprs) if columnar => {
                colmajor::project_ids_columnar(views, ids, exprs).into()
            }
            SelectProgram::Project(exprs) => selvector::project_ids(views, ids, exprs).into(),
            SelectProgram::Aggregate(aggs) if columnar => {
                colmajor::aggregate_ids_columnar(views, ids, aggs).into()
            }
            SelectProgram::Aggregate(aggs) => selvector::aggregate_ids(views, ids, aggs).into(),
            SelectProgram::Grouped {
                keys,
                key_types,
                aggs,
            } => {
                let kernel = if columnar {
                    grouped::aggregate_ids_columnar
                } else {
                    grouped::aggregate_ids
                };
                kernel(views, ids, keys, key_types, aggs).into()
            }
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
            Acc::Groups(mut table) => {
                for part in parts {
                    let Acc::Groups(part) = part else {
                        unreachable!("{SHAPE}");
                    };
                    table.merge(part);
                }
                table.finish()
            }
        }
    }
}
