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
//! * [`materialize`] — the **offline** path: a standalone pass that builds
//!   the new group from the best available covering groups.
//! * [`reorg_and_execute`] — the **online** path: one pass that stitches
//!   each tuple, appends it to the new group, and answers the triggering
//!   query from the stitched buffer (the Fig. 13 "online" bars).
//!
//! Every entry point reads the catalog through `&LayoutCatalog` and
//! returns the new group *without* admitting it, which is exactly the
//! contract the concurrent engine's off-path reorganizer needs: a
//! background thread builds the group from an immutable snapshot (a
//! parallel policy morsel-parallelizes the stitch), and the caller
//! decides when — and into which successor catalog version — the group is
//! published. In-flight queries on older snapshots are never involved.

use crate::bind::{BoundAttr, GroupViews};
use crate::compile::{ExecCtx, ExecError};
use crate::filter::CompiledFilter;
use crate::parallel::{run_morsels, run_ranges, ExecPolicy};
use crate::sink::SelectProgram;
use h2o_expr::typecheck;
use h2o_expr::{Query, QueryResult};
use h2o_storage::{failpoints, AttrId, ColumnGroup, LayoutCatalog, Value, DEFAULT_SEG_SHIFT};
use std::ops::Range;

/// Resolves, for each target attribute in order, where to read it from the
/// chosen source groups: `(slot, offset)` pairs in plan-slot space.
fn source_bindings(
    catalog: &LayoutCatalog,
    target_attrs: &[AttrId],
) -> Result<(Vec<h2o_storage::LayoutId>, Vec<BoundAttr>), ExecError> {
    let want = target_attrs.iter().copied().collect();
    let layouts = catalog.cover(&want)?;
    let groups: Vec<&ColumnGroup> = layouts
        .iter()
        .map(|&id| catalog.group(id))
        .collect::<Result<_, _>>()?;
    let mut bindings = Vec::with_capacity(target_attrs.len());
    for &a in target_attrs {
        let mut found = None;
        for (slot, g) in groups.iter().enumerate() {
            if let Some(off) = g.offset_of(a) {
                found = Some(BoundAttr {
                    slot: slot as u32,
                    offset: off as u32,
                });
                break;
            }
        }
        bindings.push(found.ok_or(ExecError::Unbound(a))?);
    }
    Ok((layouts, bindings))
}

/// The policy the reorganization builders use to fill the new group's
/// payload: one morsel per **output segment**
/// (`1 << DEFAULT_SEG_SHIFT` rows), so each worker hands back a sealed
/// segment that [`ColumnGroup::from_segments_typed`] adopts without a
/// re-chunking copy. Thread count and serial threshold pass through.
fn segment_build_policy(policy: &ExecPolicy) -> ExecPolicy {
    ExecPolicy {
        morsel_rows: 1usize << DEFAULT_SEG_SHIFT,
        ..*policy
    }
}

/// Wraps morsel-built segment payloads into the finished group, imprinting
/// the schema's per-attribute types (zone-map statistics of the sealed
/// segments are computed on adoption).
fn group_from_payloads(
    catalog: &LayoutCatalog,
    target_attrs: &[AttrId],
    rows: usize,
    payloads: Vec<Vec<Value>>,
) -> ColumnGroup {
    let types = catalog
        .schema()
        .types_for(target_attrs)
        .expect("reorg targets are schema attributes");
    ColumnGroup::from_segments_typed(
        h2o_storage::LayoutId(u32::MAX),
        target_attrs.to_vec(),
        types,
        rows,
        payloads,
        DEFAULT_SEG_SHIFT,
    )
    .expect("morsel blocks are exactly the output segments")
}

/// Stitches every row of `range`: resolves each binding's source slice once
/// per segment run, fills `tuple` per row, and hands it to `per_row`.
fn stitch_each(
    views: &GroupViews<'_>,
    bindings: &[BoundAttr],
    range: Range<usize>,
    tuple: &mut [Value],
    per_row: &mut dyn FnMut(&[Value]),
) {
    for run in views.runs(range) {
        let resolved: Vec<(&[Value], usize, usize)> = bindings
            .iter()
            .map(|b| {
                let (d, w) = run.view(b.slot);
                (d, w, b.offset as usize)
            })
            .collect();
        for k in 0..run.len() {
            for (slot, &(d, w, off)) in tuple.iter_mut().zip(&resolved) {
                *slot = d[k * w + off];
            }
            per_row(tuple);
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
/// whole **output segments** of the new group's payload (morsel boundaries
/// are aligned to segments, so every block workers hand back is a sealed
/// segment adopted without a re-chunking copy). The output is
/// byte-identical to the serial build (each segment is a pure function of
/// its row range).
pub fn materialize_with(
    catalog: &LayoutCatalog,
    target_attrs: &[AttrId],
    policy: &ExecPolicy,
) -> Result<ColumnGroup, ExecError> {
    let (layouts, bindings) = source_bindings(catalog, target_attrs)?;
    let views = GroupViews::resolve(catalog, &layouts)?;
    failpoints::hit("reorg_build");
    let rows = views.rows();
    let width = target_attrs.len();
    // Column-wise fill: for each target attribute, stride through its
    // source group one segment run at a time. Sequential reads per source,
    // strided writes.
    let payloads = run_morsels(rows, &segment_build_policy(policy), |range| {
        let mut block = vec![0 as Value; range.len() * width];
        for (t, &b) in bindings.iter().enumerate() {
            let off = b.offset as usize;
            for run in views.runs(range.clone()) {
                let (src, src_w) = run.view(b.slot);
                let base = run.start() - range.start;
                for k in 0..run.len() {
                    block[(base + k) * width + t] = src[k * src_w + off];
                }
            }
        }
        block
    });
    Ok(group_from_payloads(catalog, target_attrs, rows, payloads))
}

/// Offline reorganization through the **same row-wise stitch loop** the
/// online operator uses — the "offline" half of the Fig. 13 comparison
/// must differ from the online operator only by the missing query fusion,
/// not by a different memory access pattern. ([`materialize`] with its
/// column-wise fill remains the fastest standalone builder and is what
/// non-comparative callers use.)
pub fn materialize_rowwise(
    catalog: &LayoutCatalog,
    target_attrs: &[AttrId],
) -> Result<ColumnGroup, ExecError> {
    materialize_rowwise_with(catalog, target_attrs, &ExecPolicy::serial())
}

/// [`materialize_rowwise`] under a parallelism policy: each worker runs the
/// same row-wise stitch loop over its own whole output segment.
pub fn materialize_rowwise_with(
    catalog: &LayoutCatalog,
    target_attrs: &[AttrId],
    policy: &ExecPolicy,
) -> Result<ColumnGroup, ExecError> {
    let (layouts, bindings) = source_bindings(catalog, target_attrs)?;
    let views = GroupViews::resolve(catalog, &layouts)?;
    failpoints::hit("reorg_build");
    let rows = views.rows();
    let width = target_attrs.len();
    let payloads = run_morsels(rows, &segment_build_policy(policy), |range| {
        let mut block = Vec::with_capacity(range.len() * width);
        let mut tuple = vec![0 as Value; width];
        stitch_each(&views, &bindings, range, &mut tuple, &mut |t| {
            block.extend_from_slice(t);
        });
        block
    });
    Ok(group_from_payloads(catalog, target_attrs, rows, payloads))
}

/// Online reorganization fused with query execution: a single scan that
/// stitches every tuple of the new group **and** computes `query` from the
/// stitched buffer.
///
/// The query need not be confined to `target_attrs`: any further
/// attributes it references are stitched into the scan's working tuple for
/// evaluation but *not* stored in the new group. This covers the paper's
/// two-group designs — e.g. a pending select-clause group is created while
/// the where-clause attributes are read from their existing layouts.
///
/// The stitch is one more source of the shared range driver
/// ([`run_ranges`]): each range stitches whole **output segments** of the
/// new group's payload and pushes every qualifying working tuple into the
/// query's sink partial; blocks concatenate (byte-identical group) and
/// partials finish (bit-identical result) in range order, so under a
/// parallel `ctx.policy` online reorganization overlaps across cores.
///
/// A tripped `ctx.cancel` abandons the build: the half-stitched group is
/// dropped (it was never admitted to any catalog — copy-on-write publish
/// discipline) and the typed stop error is returned.
///
/// Returns the new group (not yet admitted to the catalog) and the query
/// result.
pub fn reorg_and_execute(
    catalog: &LayoutCatalog,
    target_attrs: &[AttrId],
    query: &Query,
    ctx: &ExecCtx<'_>,
) -> Result<(ColumnGroup, QueryResult), ExecError> {
    // Working-tuple layout: the target attributes first (these are stored),
    // then any extra attributes the query needs (evaluation only).
    let mut tuple_attrs: Vec<AttrId> = target_attrs.to_vec();
    for a in query.all_attrs().iter() {
        if !target_attrs.contains(&a) {
            tuple_attrs.push(a);
        }
    }
    let (layouts, bindings) = source_bindings(catalog, &tuple_attrs)?;
    let views = ctx.views(catalog, &layouts)?;
    failpoints::hit("reorg_build");
    // Lower the query against the working tuple: every attribute reference
    // indexes its position there (slot unused), with the same typed ops a
    // plan-bound operator bakes in.
    let checked = typecheck::check(query, catalog.schema())?;
    let pos = |a: AttrId| -> Result<BoundAttr, ExecError> {
        let i = tuple_attrs.iter().position(|&t| t == a);
        let offset = i.ok_or(ExecError::Unbound(a))? as u32;
        Ok(BoundAttr { slot: 0, offset })
    };
    let filter = CompiledFilter::lower(query.filter(), &checked.predicates, pos)?;
    let select = SelectProgram::lower(query.select_clause(), &checked.select, pos)?;
    let rows = views.rows();
    let width = target_attrs.len();
    let seg_rows = 1usize << DEFAULT_SEG_SHIFT;

    let build = segment_build_policy(&ctx.policy);
    let parts = run_ranges(rows, views.seg_rows(), &build, |range| {
        let mut partial = select.partial();
        let mut tuple = vec![0 as Value; tuple_attrs.len()];
        // Stitch each row's working tuple (source slices resolved once per
        // segment run), store its target prefix, push it to the sink.
        let blocks: Vec<Vec<Value>> = (range.start..range.end)
            .step_by(seg_rows)
            .map(|start| {
                let seg = start..(start + seg_rows).min(range.end);
                let mut block = Vec::with_capacity(seg.len() * width);
                stitch_each(&views, &bindings, seg, &mut tuple, &mut |t| {
                    block.extend_from_slice(&t[..width]);
                    if filter.matches_tuple(t) {
                        select.push(&mut partial, t, 1);
                    }
                });
                block
            })
            .collect();
        (blocks, partial)
    });
    // Before assembling anything from (possibly truncated) stitched blocks.
    ctx.check()?;
    let (blocks, partials): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
    let payloads = blocks.into_iter().flatten().collect();
    let group = group_from_payloads(catalog, target_attrs, rows, payloads);
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

    /// The online operator's differential: over both source layouts, a
    /// populated, a zero-row and a two-output-segment relation (the last
    /// one leaves the parallel policy an odd tail range), serially and in
    /// parallel — the group equals the offline build and the result equals
    /// the interpreter's, bit for bit (all lanes are `I64`).
    fn check_online(attrs: &[AttrId], q: &Query) {
        let odd = ExecCtx::new(ExecPolicy {
            parallelism: Some(4),
            morsel_rows: 7,
            serial_threshold: 0,
        });
        for columnar in [true, false] {
            for rows in [40, 0, 70_000] {
                let r = rel_of(columnar, rows);
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
    }

    #[test]
    fn online_reorg_grouped_query() {
        // A grouped query can trigger lazy materialization too: the fused
        // reorganization operator folds each stitched tuple into the
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
