//! Data reorganization: creating new column groups, offline or fused with
//! query execution.
//!
//! "H2O combines data reorganization with query processing in order to
//! reduce the time a query has to wait for a new data layout to be
//! available. ... blocks from R1 and R2 are read and stitched together ...
//! Then, for each new tuple, the predicates in the where clause are
//! evaluated and if the tuple qualifies the arithmetic expression in the
//! select is computed. The early materialization strategy allows H2O to
//! generate the data layout and compute the query result without scanning
//! the relation twice." (§3.2)
//!
//! [`materialize`] (offline) and [`reorg_and_execute`] (online, the
//! Fig. 13 "online" bars) run one stitch loop: every output segment is
//! built from 1K-row chunks (`h2o_storage::CHUNK_SHIFT`), each stitched
//! column-wise from the source runs into a cached buffer and appended.
//! The online operator also runs the query's own fused scan kernel over
//! each chunk before it is appended — slot 0 of the chunk's view is the
//! new group's chunk, slot 1 (only when the query reads attributes
//! outside the target) the same rows of those. So online is offline minus
//! one memory round trip, and its query half is the code every other scan
//! runs.
//!
//! Both read the catalog through `&LayoutCatalog` and return the new
//! group *without* admitting it, which is exactly the contract the
//! concurrent engine's off-path reorganizer needs: a background thread
//! builds the group from an immutable snapshot (a parallel policy
//! morsel-parallelizes the stitch), and the caller decides when — and
//! into which successor catalog version — the group is published.

use crate::bind::{BoundAttr, GroupViews, SegRun};
use crate::compile::{plan_binder, ExecCtx, ExecError};
use crate::filter::CompiledFilter;
use crate::parallel::{run_ranges, ExecPolicy};
use crate::sink::SelectProgram;
use h2o_expr::typecheck;
use h2o_expr::{Query, QueryResult};
use h2o_storage::{
    failpoints, AttrId, ColumnGroup, LayoutCatalog, LayoutId, Value, CHUNK_SHIFT, DEFAULT_SEG_SHIFT,
};
use std::ops::Range;

/// Rows per output segment (one sealed segment of the new group).
const SEG_ROWS: usize = 1 << DEFAULT_SEG_SHIFT;

/// Rows per stitched chunk: a chunk of the new group (and of a row-major
/// source) stays cached between its fill and its query.
const CHUNK_ROWS: usize = 1 << CHUNK_SHIFT;

/// Resolves each of `attrs`, in order, against the least-excess cover of
/// them: the cover's layouts and one `(slot, offset)` per attribute.
fn source_bindings(
    catalog: &LayoutCatalog,
    attrs: &[AttrId],
) -> Result<(Vec<LayoutId>, Vec<BoundAttr>), ExecError> {
    let layouts = catalog.cover(&attrs.iter().copied().collect())?;
    let bind = plan_binder(catalog, &layouts)?;
    let bindings = attrs.iter().map(|&a| bind(a)).collect::<Result<_, _>>()?;
    Ok((layouts, bindings))
}

/// The stitch loop of both builders: builds the group over `target_attrs`
/// from the `stored` bindings on `policy`'s ranges (one range if serial,
/// else whole output segments per worker). Each range walks its source
/// runs once — polling a stop token and charging a budget as a scan does
/// — and hands each chunk, once filled, to `per_chunk` with the range's
/// state (from `init`) and the same rows of the `extra` bindings.
/// Returns the group and the states in range order.
fn stitch<S: Send>(
    catalog: &LayoutCatalog,
    target_attrs: &[AttrId],
    views: &GroupViews<'_>,
    (stored, extra): (&[BoundAttr], &[BoundAttr]),
    policy: &ExecPolicy,
    init: impl Fn() -> S + Sync,
    per_chunk: impl Fn(&mut S, &[Value], &[Value]) + Sync,
) -> (ColumnGroup, Vec<S>) {
    let (width, side_width) = (stored.len(), extra.len());
    let policy = ExecPolicy {
        morsel_rows: SEG_ROWS,
        ..*policy
    };
    let parts = run_ranges(views.rows(), views.seg_rows(), &policy, |range| {
        let mut state = init();
        let mut stage = vec![0 as Value; CHUNK_ROWS * width];
        let mut side = vec![0 as Value; CHUNK_ROWS * side_width];
        let mut blocks = Vec::new();
        for start in range.clone().step_by(SEG_ROWS) {
            let seg = start..(start + SEG_ROWS).min(range.end);
            let mut block = Vec::with_capacity(seg.len() * width);
            let mut chunk = seg.start;
            for run in views.runs(seg.clone()) {
                let end = run.range().end;
                let mut lo = run.start();
                while lo < end {
                    let hi = ((lo / CHUNK_ROWS + 1) * CHUNK_ROWS).min(end);
                    let rows = lo - run.start()..hi - run.start();
                    let at = |w: usize| (lo - chunk) * w..(hi - chunk) * w;
                    fill(&run, rows.clone(), stored, &mut stage[at(width)]);
                    fill(&run, rows, extra, &mut side[at(side_width)]);
                    if hi % CHUNK_ROWS == 0 || hi == seg.end {
                        let n = hi - chunk;
                        per_chunk(&mut state, &stage[..n * width], &side[..n * side_width]);
                        block.extend_from_slice(&stage[..n * width]);
                        chunk = hi;
                    }
                    lo = hi;
                }
            }
            // A tripped stop token ends the runs early; the caller discards
            // the group, but it must still assemble.
            block.resize(seg.len() * width, 0);
            blocks.push(block);
        }
        (blocks, state)
    });
    let (blocks, states): (Vec<Vec<Vec<Value>>>, Vec<S>) = parts.into_iter().unzip();
    let types = catalog
        .schema()
        .types_for(target_attrs)
        .expect("reorg targets are schema attributes");
    let group = ColumnGroup::from_segments_typed(
        LayoutId(u32::MAX),
        target_attrs.to_vec(),
        types,
        views.rows(),
        blocks.into_iter().flatten().collect(),
        DEFAULT_SEG_SHIFT,
    )
    .expect("stitched blocks are exactly the output segments");
    (group, states)
}

/// Copies the run-local `rows` of `run` at `bindings` into `out`, one
/// attribute at a time: a sequential read per source column, a strided
/// write into the `bindings.len()`-wide chunk.
fn fill(run: &SegRun<'_, '_>, rows: Range<usize>, bindings: &[BoundAttr], out: &mut [Value]) {
    let width = bindings.len();
    for (t, b) in bindings.iter().enumerate() {
        let (src, src_width) = run.view(b.slot);
        let src = &src[rows.start * src_width + b.offset as usize..];
        for (k, row) in out.chunks_exact_mut(width).enumerate() {
            row[t] = src[k * src_width];
        }
    }
}

/// Offline reorganization: builds a new group over `target_attrs` (in this
/// physical order) by stitching from the existing layouts, serially. Does
/// **not** admit the group to the catalog — the caller decides (and
/// timestamps) that.
pub fn materialize(
    catalog: &LayoutCatalog,
    target_attrs: &[AttrId],
) -> Result<ColumnGroup, ExecError> {
    materialize_with(catalog, target_attrs, &ExecPolicy::serial())
}

/// [`materialize`] under a parallelism policy: worker threads each build
/// whole output segments, so the group is byte-identical to the serial
/// build.
pub fn materialize_with(
    catalog: &LayoutCatalog,
    target_attrs: &[AttrId],
    policy: &ExecPolicy,
) -> Result<ColumnGroup, ExecError> {
    let (layouts, bindings) = source_bindings(catalog, target_attrs)?;
    let views = GroupViews::resolve(catalog, &layouts)?;
    failpoints::hit("reorg_build");
    let parts = (&bindings[..], &[][..]);
    let (group, _) = stitch(
        catalog,
        target_attrs,
        &views,
        parts,
        policy,
        || (),
        |_, _, _| {},
    );
    Ok(group)
}

/// Online reorganization fused with query execution: [`materialize`]'s
/// stitch, which also runs `query`'s fused scan kernel over each chunk.
///
/// The query need not be confined to `target_attrs`: its other attributes
/// are stitched into a chunk-sized side buffer (slot 1 of the chunk's
/// view) but *not* stored — the paper's two-group designs, e.g. a pending
/// select-clause group built while the where-clause attributes are read
/// from their layouts.
///
/// Each range of the shared driver ([`run_ranges`]) folds its chunks, in
/// row order, into one partial, so a serial run is one fold chain —
/// bit-identical to the interpreter even for `F64` sums (see
/// [`AggState`](h2o_expr::agg::AggState)). The group is byte-identical to
/// [`materialize`]'s. A tripped `ctx.cancel` drops the never-admitted
/// group and returns the typed stop error.
pub fn reorg_and_execute(
    catalog: &LayoutCatalog,
    target_attrs: &[AttrId],
    query: &Query,
    ctx: &ExecCtx<'_>,
) -> Result<(ColumnGroup, QueryResult), ExecError> {
    // Stitched attributes: the target ones (stored), then the query's
    // others (slot 1 of each chunk's view).
    let mut attrs = target_attrs.to_vec();
    attrs.extend(
        query
            .all_attrs()
            .iter()
            .filter(|a| !target_attrs.contains(a)),
    );
    let (layouts, bindings) = source_bindings(catalog, &attrs)?;
    let width = target_attrs.len();
    let views = ctx.views(catalog, &layouts)?;
    failpoints::hit("reorg_build");
    let checked = typecheck::check(query, catalog.schema())?;
    let bind = |a: AttrId| {
        let p = attrs.iter().position(|&t| t == a);
        let p = p.ok_or(ExecError::Unbound(a))? as u32;
        let (slot, offset) = if p < width as u32 {
            (0, p)
        } else {
            (1, p - width as u32)
        };
        Ok(BoundAttr { slot, offset })
    };
    let filter = CompiledFilter::lower(query.filter(), &checked.predicates, bind)?;
    let select = SelectProgram::lower(query.select_clause(), &checked.select, bind)?;
    let slot_count = if attrs.len() > width { 2 } else { 1 };
    let (group, partials) = stitch(
        catalog,
        target_attrs,
        &views,
        bindings.split_at(width),
        &ctx.policy,
        || select.partial(),
        |partial, chunk, side| {
            let rows = chunk.len() / width;
            let slots = [(chunk, width), (side, attrs.len() - width)];
            let view = GroupViews::from_slices(&slots[..slot_count], rows);
            select.feed(&view, &filter, 0..rows, partial);
        },
    );
    // Before anything built from (possibly truncated) chunks escapes.
    ctx.check()?;
    Ok((group, select.finish(partials)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_expr::{interpret, Aggregate, Conjunction, Expr, Predicate};
    use h2o_storage::{Relation, Schema};

    fn serial() -> ExecCtx<'static> {
        ExecCtx::new(ExecPolicy::serial())
    }

    fn rel(columnar: bool) -> Relation {
        rel_of(columnar, 40)
    }

    fn rel_of(columnar: bool, rows: usize) -> Relation {
        let schema = Schema::with_width(6).into_shared();
        let cols: Vec<Vec<Value>> = (0..6)
            .map(|k| {
                (0..rows)
                    .map(|r| ((k * 61 + r * 17) % 97) as Value - 48)
                    .collect()
            })
            .collect();
        if columnar {
            Relation::columnar(schema, cols).unwrap()
        } else {
            Relation::row_major(schema, cols).unwrap()
        }
    }

    /// `(i64, f64, dict, i64, f64, i64)` columns. The doubles are dyadic,
    /// so their sums are exact in any fold order and parallel partials
    /// agree with the interpreter too.
    fn typed_rel_of(columnar: bool, rows: usize) -> Relation {
        use h2o_storage::{f64_lane, LogicalType::*};
        let schema = Schema::typed([
            ("k", I64),
            ("x", F64),
            ("c", Dict),
            ("v", I64),
            ("y", F64),
            ("z", I64),
        ])
        .into_shared();
        let dict = schema.dictionary(AttrId(2)).unwrap();
        let codes: Vec<Value> = ["a", "b", "c"].iter().map(|l| dict.intern(l)).collect();
        let col = |f: &dyn Fn(usize) -> Value| (0..rows).map(f).collect::<Vec<_>>();
        let cols = vec![
            col(&|r| r as Value),
            col(&|r| f64_lane((r % 97) as f64 / 8.0 - 6.0)),
            col(&|r| codes[(r * 7 / 5) % 3]),
            col(&|r| ((r * 17) % 97) as Value - 48),
            col(&|r| f64_lane((r % 13) as f64 / 4.0 - 1.5)),
            col(&|r| ((r * 29) % 11) as Value),
        ];
        if columnar {
            Relation::columnar(schema, cols).unwrap()
        } else {
            Relation::row_major(schema, cols).unwrap()
        }
    }

    /// The online operator's differential over [`rel_of`]'s relations.
    fn check_online(attrs: &[AttrId], q: &Query) {
        check_online_over(rel_of, attrs, q);
    }

    /// The online operator's differential: over both source layouts, a
    /// populated, a zero-row and a two-output-segment relation (the last
    /// one leaves the parallel policy an odd tail range and crosses
    /// 1K-row chunk boundaries), serially and in parallel — the group
    /// equals the offline build and the result equals the interpreter's,
    /// bit for bit.
    fn check_online_over(rel: fn(bool, usize) -> Relation, attrs: &[AttrId], q: &Query) {
        let odd = ExecCtx::new(ExecPolicy {
            parallelism: Some(4),
            morsel_rows: 7,
            serial_threshold: 0,
        });
        for columnar in [true, false] {
            for rows in [40, 0, 70_000] {
                let r = rel(columnar, rows);
                let offline = materialize(r.catalog(), attrs).unwrap();
                let want = interpret(r.catalog(), q).unwrap();
                for ctx in [serial(), odd] {
                    let (group, result) = reorg_and_execute(r.catalog(), attrs, q, &ctx).unwrap();
                    assert_eq!(group.attrs(), attrs);
                    assert_eq!(group.collect_values(), offline.collect_values());
                    assert_eq!(result, want, "rows {rows} columnar {columnar} query {q}");
                }
            }
        }
    }

    #[test]
    fn materialize_preserves_values() {
        for columnar in [true, false] {
            let r = rel(columnar);
            let attrs = [AttrId(4), AttrId(1), AttrId(3)];
            let g = materialize(r.catalog(), &attrs).unwrap();
            assert_eq!(g.attrs(), &attrs);
            assert_eq!(g.rows(), 40);
            for row in 0..40 {
                for (i, &a) in attrs.iter().enumerate() {
                    assert_eq!(g.value(row, i), r.cell(row, a).unwrap());
                }
            }
        }
    }

    #[test]
    fn online_reorg_matches_offline_plus_query() {
        for columnar in [true, false] {
            let r = rel(columnar);
            let attrs = [AttrId(0), AttrId(2), AttrId(5)];
            let q = Query::project(
                [Expr::sum_of([AttrId(0), AttrId(2)])],
                Conjunction::of([Predicate::gt(5u32, 0)]),
            )
            .unwrap();
            let (group, result) = reorg_and_execute(r.catalog(), &attrs, &q, &serial()).unwrap();
            // Group identical to offline materialization.
            let offline = materialize(r.catalog(), &attrs).unwrap();
            assert_eq!(group.collect_values(), offline.collect_values());
            // Result identical to the reference interpreter.
            let want = interpret(r.catalog(), &q).unwrap();
            assert_eq!(result.fingerprint(), want.fingerprint());
            check_online(&attrs, &q);
        }
    }

    #[test]
    fn online_reorg_aggregate_query() {
        let r = rel(true);
        let attrs = [AttrId(1), AttrId(3)];
        let q = Query::aggregate(
            [
                Aggregate::sum(Expr::col(1u32)),
                Aggregate::max(Expr::col(3u32)),
                Aggregate::count(),
            ],
            Conjunction::of([Predicate::le(1u32, 10)]),
        )
        .unwrap();
        let (group, result) = reorg_and_execute(r.catalog(), &attrs, &q, &serial()).unwrap();
        assert_eq!(group.width(), 2);
        let want = interpret(r.catalog(), &q).unwrap();
        assert_eq!(result, want);
        check_online(&attrs, &q);
    }

    #[test]
    fn query_attrs_outside_target_are_stitched_but_not_stored() {
        // Build group {0,1} while the triggering query filters on attribute
        // 5 and projects attribute 0 — the paper's "select-clause group +
        // existing where-clause layout" case.
        let r = rel(true);
        let q =
            Query::project([Expr::col(0u32)], Conjunction::of([Predicate::gt(5u32, 0)])).unwrap();
        let (group, result) =
            reorg_and_execute(r.catalog(), &[AttrId(0), AttrId(1)], &q, &serial()).unwrap();
        assert_eq!(
            group.attrs(),
            &[AttrId(0), AttrId(1)],
            "extra attrs not stored"
        );
        let offline = materialize(r.catalog(), &[AttrId(0), AttrId(1)]).unwrap();
        assert_eq!(group.collect_values(), offline.collect_values());
        let want = interpret(r.catalog(), &q).unwrap();
        assert_eq!(result.fingerprint(), want.fingerprint());
        check_online(&[AttrId(0), AttrId(1)], &q);
    }

    #[test]
    fn online_reorg_over_f64_and_dict_lanes() {
        // Inside the target: a dictionary filter and f64 folds.
        let q = Query::aggregate(
            [
                Aggregate::sum(Expr::col(1u32)),
                Aggregate::avg(Expr::col(1u32)),
                Aggregate::min(Expr::col(4u32)),
                Aggregate::count(),
            ],
            Conjunction::of([Predicate::eq(2u32, "b")]),
        )
        .unwrap();
        check_online_over(typed_rel_of, &[AttrId(1), AttrId(2), AttrId(4)], &q);
        // Outside it: the filter and an aggregate input live in slot 1.
        let grouped = Query::grouped(
            [Expr::col(2u32)],
            [
                Aggregate::sum(Expr::col(1u32)),
                Aggregate::max(Expr::col(4u32)),
            ],
            Conjunction::of([Predicate::gt(3u32, 0)]),
        )
        .unwrap();
        let project = Query::project(
            [Expr::col(2u32), Expr::col(1u32).mul(Expr::lit(2.0))],
            Conjunction::of([Predicate::lt(4u32, 0.5)]),
        )
        .unwrap();
        for q in [grouped, project] {
            check_online_over(typed_rel_of, &[AttrId(2), AttrId(1)], &q);
        }
    }

    #[test]
    fn online_reorg_grouped_query() {
        // A grouped query can trigger lazy materialization too: the fused
        // reorganization operator folds each stitched chunk into the
        // grouped hash state while storing the new group.
        let r = rel(true);
        let attrs = [AttrId(0), AttrId(2)];
        let q = Query::grouped(
            [Expr::col(0u32)],
            [Aggregate::sum(Expr::col(2u32)), Aggregate::count()],
            Conjunction::of([Predicate::gt(2u32, -10)]),
        )
        .unwrap();
        let (group, result) = reorg_and_execute(r.catalog(), &attrs, &q, &serial()).unwrap();
        let offline = materialize(r.catalog(), &attrs).unwrap();
        assert_eq!(group.collect_values(), offline.collect_values());
        let want = interpret(r.catalog(), &q).unwrap();
        assert_eq!(result, want, "grouped rows sorted by key, bit-identical");
        // Parallel online reorg agrees bit-for-bit as well.
        let policy = crate::parallel::ExecPolicy {
            parallelism: Some(4),
            morsel_rows: 7,
            serial_threshold: 0,
        };
        let (pg, pr) = reorg_and_execute(r.catalog(), &attrs, &q, &ExecCtx::new(policy)).unwrap();
        assert_eq!(pg.collect_values(), group.collect_values());
        assert_eq!(pr, result);
        check_online(&attrs, &q);
    }

    #[test]
    fn materialize_from_mixed_groups() {
        // Sources: group (0,1), group (2,3), columns 4, 5.
        let schema = Schema::with_width(6).into_shared();
        let cols: Vec<Vec<Value>> = (0..6)
            .map(|k| vec![k as Value * 10, k as Value * 20])
            .collect();
        let r = Relation::partitioned(
            schema,
            cols,
            vec![
                vec![AttrId(0), AttrId(1)],
                vec![AttrId(2), AttrId(3)],
                vec![AttrId(4)],
                vec![AttrId(5)],
            ],
        )
        .unwrap();
        let g = materialize(r.catalog(), &[AttrId(1), AttrId(2), AttrId(5)]).unwrap();
        assert_eq!(g.tuple(0), &[10, 20, 50]);
        assert_eq!(g.tuple(1), &[20, 40, 100]);
    }
}
