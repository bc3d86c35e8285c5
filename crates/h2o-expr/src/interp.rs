//! The **generic operator**: a tuple-at-a-time interpreter.
//!
//! This is the baseline the paper's dynamically generated code is measured
//! against (§3.4, Fig. 14): one operator that can evaluate *any*
//! select-project-aggregate query over *any* combination of column groups,
//! at the price of interpretation overhead — per tuple it walks the
//! expression trees (`match` dispatch per node) and the predicate list,
//! fetching attribute values through a layout-indirection table.
//!
//! Besides serving as the Fig. 14 baseline, the interpreter is the engine's
//! correctness oracle: every specialized kernel in `h2o-exec` is
//! differential-tested against [`interpret`].

use crate::agg::{AggState, Aggregate};
use crate::datum::Datum;
use crate::expr::Expr;
use crate::grouped::GroupedAggs;
use crate::predicate::CmpOp;
use crate::query::Query;
use crate::result::QueryResult;
use crate::select::Select;
use crate::typecheck::{check_select, SelectTypes};
use h2o_storage::{AttrId, ColumnGroup, LayoutCatalog, LogicalType, Schema, StorageError, Value};

/// Resolves each referenced attribute to `(group index, offset in group)`
/// once per query; per-tuple fetches then do two indexed loads. Kept dense
/// (indexed by attribute id) so the per-tuple path has no hashing. The
/// attribute's [`LogicalType`] is resolved alongside, from the storing
/// group.
struct Binding {
    /// `slots[attr] = Some((group_idx, offset))`.
    slots: Vec<Option<(u32, u32)>>,
    /// `types[attr]`, parallel to `slots` (`I64` where unbound).
    types: Vec<LogicalType>,
}

impl Binding {
    fn build(
        groups: &[&ColumnGroup],
        needed: &h2o_storage::AttrSet,
    ) -> Result<Binding, StorageError> {
        let max = needed.iter().map(|a| a.index()).max().unwrap_or(0);
        let mut slots = vec![None; max + 1];
        let mut types = vec![LogicalType::I64; max + 1];
        for attr in needed.iter() {
            let mut found = false;
            for (gi, g) in groups.iter().enumerate() {
                if let Some(off) = g.offset_of(attr) {
                    slots[attr.index()] = Some((gi as u32, off as u32));
                    types[attr.index()] = g.type_at(off);
                    found = true;
                    break;
                }
            }
            if !found {
                return Err(StorageError::NoCover(attr));
            }
        }
        Ok(Binding { slots, types })
    }

    #[inline]
    fn fetch(&self, groups: &[&ColumnGroup], row: usize, attr: AttrId) -> Value {
        let (gi, off) = self.slots[attr.index()].expect("binding covers all query attrs");
        groups[gi as usize].value(row, off as usize)
    }

    #[inline]
    fn type_of(&self, attr: AttrId) -> LogicalType {
        self.types.get(attr.index()).copied().unwrap_or_default()
    }
}

/// The select clause's accumulator, shared by [`interpret`] and
/// [`interpret_join`]: typed once, then fed one qualifying tuple at a time
/// through an attribute fetcher.
struct SelectAcc<'q> {
    exprs: &'q [Expr],
    aggs: &'q [Aggregate],
    types: SelectTypes,
    out: Acc,
    /// The output row (projection) or key vector (grouped).
    row: Vec<Value>,
    /// Aggregate inputs of one grouped tuple.
    vals: Vec<Value>,
}

enum Acc {
    Rows(QueryResult),
    Aggs(Vec<AggState>),
    Groups(GroupedAggs),
}

impl<'q> SelectAcc<'q> {
    /// Types `select` under `ty_of`. Panics on an ill-typed clause — the
    /// interpreter's contract is a query the plan-time checker
    /// ([`crate::typecheck::check`]) has admitted.
    fn new(select: &'q Select, ty_of: impl Fn(AttrId) -> LogicalType) -> SelectAcc<'q> {
        let types = check_select(select, &|a| Ok(ty_of(a)))
            .expect("interpreter requires a type-checked query");
        let out = match select {
            Select::Project(_) => Acc::Rows(QueryResult::new(select.output_width())),
            Select::Aggregate(_) => {
                Acc::Aggs(types.aggs.iter().map(|&op| AggState::new(op)).collect())
            }
            Select::Grouped { .. } => {
                Acc::Groups(GroupedAggs::new(types.exprs.clone(), types.aggs.clone()))
            }
        };
        let (exprs, aggs) = select.parts();
        SelectAcc {
            exprs,
            aggs,
            out,
            row: Vec::with_capacity(exprs.len()),
            vals: vec![0; aggs.len()],
            types,
        }
    }

    /// Folds (or emits) one qualifying tuple.
    fn push<F: Fn(AttrId) -> Value + Copy>(&mut self, fetch: F) {
        self.row.clear();
        for (e, &ty) in self.exprs.iter().zip(&self.types.exprs) {
            self.row.push(e.eval_lane(ty, fetch));
        }
        let inputs = self.aggs.iter().zip(&self.types.aggs);
        match &mut self.out {
            Acc::Rows(out) => out.push_row(&self.row),
            Acc::Aggs(states) => {
                for (st, (a, op)) in states.iter_mut().zip(inputs) {
                    st.update(a.expr.eval_lane(op.ty, fetch));
                }
            }
            Acc::Groups(table) => {
                for (slot, (a, op)) in self.vals.iter_mut().zip(inputs) {
                    *slot = a.expr.eval_lane(op.ty, fetch);
                }
                table.update(&self.row, &self.vals);
            }
        }
    }

    fn finish(self) -> QueryResult {
        match self.out {
            Acc::Rows(out) => out,
            Acc::Aggs(states) => {
                let row: Vec<Value> = states.iter().map(|s| s.finish()).collect();
                let mut out = QueryResult::new(row.len());
                out.push_row(&row);
                out
            }
            Acc::Groups(table) => table.finish(),
        }
    }
}

/// One plan-resolved predicate: the constant is pre-mapped into
/// comparator-key space, so the per-row test is `cmp_key(lane) op key`.
struct ResolvedPred {
    attr: AttrId,
    op: CmpOp,
    ty: LogicalType,
    key: Value,
}

impl ResolvedPred {
    #[inline]
    fn matches(&self, lane: Value) -> bool {
        self.op.apply(self.ty.cmp_key(lane), self.key)
    }
}

/// Resolves the where-clause constants to lanes. Numeric constants carry
/// their own encoding; string constants need the attribute's dictionary,
/// which lives in the schema — [`interpret`] has one, [`interpret_over`]
/// does not (it panics on string constants, documented there).
fn resolve_preds(
    filter: &crate::predicate::Conjunction,
    binding: &Binding,
    schema: Option<&Schema>,
) -> Vec<ResolvedPred> {
    filter
        .predicates()
        .iter()
        .map(|p| {
            let ty = binding.type_of(p.attr);
            let dict = match &p.value {
                Datum::Str(_) => schema
                    .expect(
                        "string predicate constants resolve through the schema's \
                         dictionaries — use `interpret`, not `interpret_over`",
                    )
                    .dictionary(p.attr)
                    .map(|d| d.as_ref()),
                _ => None,
            };
            let lane = p
                .value
                .to_lane(ty, dict)
                .expect("interpreter requires a type-checked query");
            ResolvedPred {
                attr: p.attr,
                op: p.op,
                ty,
                key: ty.cmp_key(lane),
            }
        })
        .collect()
}

/// Evaluates `q` over an explicit set of column groups (the groups must
/// jointly store every attribute the query references and must all have
/// the same row count). Attribute types come from the groups themselves.
///
/// # Panics
///
/// On an ill-typed query (the interpreter is the oracle for queries the
/// plan-time checker admits — validate with
/// [`typecheck::check`](crate::typecheck::check) first), and on string
/// predicate constants, whose dictionary lives in the schema — use
/// [`interpret`] for those.
pub fn interpret_over(groups: &[&ColumnGroup], q: &Query) -> Result<QueryResult, StorageError> {
    interpret_impl(groups, q, None)
}

fn interpret_impl(
    groups: &[&ColumnGroup],
    q: &Query,
    schema: Option<&Schema>,
) -> Result<QueryResult, StorageError> {
    let rows = groups.first().map_or(0, |g| g.rows());
    debug_assert!(groups.iter().all(|g| g.rows() == rows));
    let binding = Binding::build(groups, &q.all_attrs())?;
    let preds = resolve_preds(q.filter(), &binding, schema);
    let matches = |row: usize| {
        preds
            .iter()
            .all(|p| p.matches(binding.fetch(groups, row, p.attr)))
    };

    let mut acc = SelectAcc::new(q.select_clause(), |a| binding.type_of(a));
    for row in 0..rows {
        if matches(row) {
            acc.push(|a| binding.fetch(groups, row, a));
        }
    }
    Ok(acc.finish())
}

/// Evaluates `q` against a catalog, letting the catalog pick a covering set
/// of groups ([`LayoutCatalog::cover`]). This is the reference entry point used
/// by tests and by the engine's fallback path. String predicate constants
/// resolve through the schema's dictionaries.
pub fn interpret(catalog: &LayoutCatalog, q: &Query) -> Result<QueryResult, StorageError> {
    let mut groups: Vec<&ColumnGroup> = catalog
        .cover(&q.all_attrs())?
        .into_iter()
        .map(|id| catalog.group(id))
        .collect::<Result<_, _>>()?;
    if groups.is_empty() {
        // A query whose expressions reference no attribute at all — plain
        // `select count(*)` — gets an empty cover, but it still scans the
        // relation: anchor on any group so the row count is the relation's,
        // not zero.
        if let Some(id) = catalog.layout_ids().first() {
            groups.push(catalog.group(*id)?);
        }
    }
    interpret_impl(&groups, q, Some(catalog.schema()))
}

/// Evaluates a two-relation equi-join against two catalogs — the
/// **differential oracle** every hash-join kernel in `h2o-exec` is tested
/// against, exactly as [`interpret`] anchors the single-relation kernels.
///
/// The algorithm is a straightforward hash join: filter the left side and
/// build a multimap from its key vectors (raw lane words — join-key
/// identity is bit-pattern equality, the same identity grouped-aggregation
/// keys use), then probe with the right side's qualifying rows in row
/// order, visiting each right row's matches in left-row order. Output
/// order is therefore deterministic, but callers comparing against the
/// engine (which may build on either side) should compare *fingerprints*
/// ([`QueryResult::fingerprint`]) — the multiset is order-independent.
///
/// # Panics
///
/// On an ill-typed join — validate with
/// [`typecheck::check_join`](crate::typecheck::check_join) first.
pub fn interpret_join(
    left: &LayoutCatalog,
    right: &LayoutCatalog,
    q: &crate::join::JoinQuery,
) -> Result<QueryResult, StorageError> {
    use crate::join::Side;
    use std::collections::HashMap;

    fn resolve<'a>(
        catalog: &'a LayoutCatalog,
        needed: &h2o_storage::AttrSet,
    ) -> Result<Vec<&'a ColumnGroup>, StorageError> {
        catalog
            .cover(needed)?
            .into_iter()
            .map(|id| catalog.group(id))
            .collect::<Result<_, _>>()
    }
    let lgroups = resolve(left, &q.side_attrs(Side::Left))?;
    let rgroups = resolve(right, &q.side_attrs(Side::Right))?;
    let lbind = Binding::build(&lgroups, &q.side_attrs(Side::Left))?;
    let rbind = Binding::build(&rgroups, &q.side_attrs(Side::Right))?;
    let lpreds = resolve_preds(q.filter(Side::Left), &lbind, Some(left.schema()));
    let rpreds = resolve_preds(q.filter(Side::Right), &rbind, Some(right.schema()));
    let lrows = lgroups.first().map_or(0, |g| g.rows());
    let rrows = rgroups.first().map_or(0, |g| g.rows());

    // Build over the (filtered) left side: key vector -> left row ids, in
    // row order.
    let lkeys = q.key_attrs(Side::Left);
    let rkeys = q.key_attrs(Side::Right);
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for row in 0..lrows {
        if lpreds
            .iter()
            .all(|p| p.matches(lbind.fetch(&lgroups, row, p.attr)))
        {
            let key: Vec<Value> = lkeys
                .iter()
                .map(|&a| lbind.fetch(&lgroups, row, a))
                .collect();
            table.entry(key).or_default().push(row);
        }
    }

    // Combined-space type and value resolution: an attribute resolves
    // through its side's binding.
    let mut acc = SelectAcc::new(q.select_clause(), |a| {
        let (side, local) = q.side_of(a);
        match side {
            Side::Left => lbind.type_of(local),
            Side::Right => rbind.type_of(local),
        }
    });

    // Probe with the right side, in row order; matches in left-row order.
    let mut key_buf: Vec<Value> = vec![0; q.on().len()];
    for rrow in 0..rrows {
        if !rpreds
            .iter()
            .all(|p| p.matches(rbind.fetch(&rgroups, rrow, p.attr)))
        {
            continue;
        }
        for (slot, &a) in key_buf.iter_mut().zip(&rkeys) {
            *slot = rbind.fetch(&rgroups, rrow, a);
        }
        let Some(matches) = table.get(&key_buf) else {
            continue;
        };
        for &lrow in matches {
            acc.push(|a: AttrId| -> Value {
                let (side, local) = q.side_of(a);
                match side {
                    Side::Left => lbind.fetch(&lgroups, lrow, local),
                    Side::Right => rbind.fetch(&rgroups, rrow, local),
                }
            });
        }
    }
    Ok(acc.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::Aggregate;
    use crate::expr::Expr;
    use crate::predicate::{Conjunction, Predicate};
    use h2o_storage::{Relation, Schema};

    /// 5 attrs × 6 rows; attribute k of row r holds `(k+1) * 10^0 .. ` —
    /// simple distinguishable values.
    fn test_relation(columnar: bool) -> Relation {
        let schema = Schema::with_width(5).into_shared();
        let cols: Vec<Vec<Value>> = (0..5)
            .map(|k| {
                (0..6)
                    .map(|r| (k as Value + 1) * 100 + r as Value)
                    .collect()
            })
            .collect();
        if columnar {
            Relation::columnar(schema, cols).unwrap()
        } else {
            Relation::row_major(schema, cols).unwrap()
        }
    }

    fn q1() -> Query {
        // select a0+a1+a2 from R where a3 < 304 and a4 > 501
        Query::project(
            [Expr::sum_of([AttrId(0), AttrId(1), AttrId(2)])],
            Conjunction::of([Predicate::lt(3u32, 404), Predicate::gt(4u32, 501)]),
        )
        .unwrap()
    }

    #[test]
    fn projection_with_filter_columnar() {
        let r = test_relation(true);
        let out = interpret(r.catalog(), &q1()).unwrap();
        // a3 = 400..405 (all < 404 except rows 4,5); a4 = 500..505 (>501 from row 2).
        // Qualifying rows: 2, 3. Sum for row r: (100+r)+(200+r)+(300+r).
        assert_eq!(out.rows(), 2);
        assert_eq!(out.row(0), &[606]);
        assert_eq!(out.row(1), &[609]);
    }

    #[test]
    fn same_result_row_major_and_columnar() {
        let a = interpret(test_relation(true).catalog(), &q1()).unwrap();
        let b = interpret(test_relation(false).catalog(), &q1()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn aggregates_with_and_without_filter() {
        let r = test_relation(true);
        let q = Query::aggregate(
            [
                Aggregate::max(Expr::col(0u32)),
                Aggregate::min(Expr::col(1u32)),
                Aggregate::count(),
            ],
            Conjunction::always(),
        )
        .unwrap();
        let out = interpret(r.catalog(), &q).unwrap();
        assert_eq!(out.rows(), 1);
        assert_eq!(out.row(0), &[105, 200, 6]);

        let q = Query::aggregate(
            [Aggregate::sum(Expr::col(0u32))],
            Conjunction::of([Predicate::eq(2u32, 303)]),
        )
        .unwrap();
        let out = interpret(r.catalog(), &q).unwrap();
        assert_eq!(out.row(0), &[103]);
    }

    #[test]
    fn bare_count_star_scans_the_relation() {
        // `count(*)` references no attribute, so the covering-group set is
        // empty — the interpreter must still anchor the scan on a group
        // rather than seeing a zero-row relation.
        let r = test_relation(true);
        let q = Query::aggregate([Aggregate::count()], Conjunction::always()).unwrap();
        let out = interpret(r.catalog(), &q).unwrap();
        assert_eq!(out.rows(), 1);
        assert_eq!(out.row(0), &[6]);
    }

    #[test]
    fn empty_match_aggregate_conventions() {
        let r = test_relation(false);
        let q = Query::aggregate(
            [
                Aggregate::sum(Expr::col(0u32)),
                Aggregate::min(Expr::col(0u32)),
                Aggregate::count(),
            ],
            Conjunction::of([Predicate::gt(0u32, 1_000_000)]),
        )
        .unwrap();
        let out = interpret(r.catalog(), &q).unwrap();
        assert_eq!(out.row(0), &[0, 0, 0]);
    }

    #[test]
    fn grouped_aggregation_sorted_by_key() {
        // Key a0 % nothing — the raw column has 6 distinct values, so use a
        // 2-valued key column instead: rebuild with a low-cardinality attr.
        let schema = Schema::with_width(3).into_shared();
        let cols: Vec<Vec<Value>> = vec![
            vec![1, 0, 1, 0, 1, 0], // key
            vec![10, 20, 30, 40, 50, 60],
            vec![0, 1, 2, 3, 4, 5], // filter attr
        ];
        let rel = Relation::columnar(schema, cols).unwrap();
        let q = Query::grouped(
            [Expr::col(0u32)],
            [
                Aggregate::sum(Expr::col(1u32)),
                Aggregate::count(),
                Aggregate::max(Expr::col(1u32)),
            ],
            Conjunction::of([Predicate::lt(2u32, 5)]),
        )
        .unwrap();
        let out = interpret(rel.catalog(), &q).unwrap();
        // Qualifying rows 0..=4. key 0: rows 1,3 (sum 60); key 1: rows
        // 0,2,4 (sum 90). Output sorted ascending by key.
        assert_eq!(out.rows(), 2);
        assert_eq!(out.row(0), &[0, 60, 2, 40]);
        assert_eq!(out.row(1), &[1, 90, 3, 50]);
    }

    #[test]
    fn grouped_expression_key_and_empty_input() {
        let r = test_relation(true);
        // Key (a0 - a0) collapses everything into one group.
        let q = Query::grouped(
            [Expr::col(0u32).sub(Expr::col(0u32))],
            [Aggregate::count()],
            Conjunction::always(),
        )
        .unwrap();
        let out = interpret(r.catalog(), &q).unwrap();
        assert_eq!(out.rows(), 1);
        assert_eq!(out.row(0), &[0, 6]);
        // Grouping over an empty selection yields zero rows (SQL
        // convention) — unlike the scalar aggregate's neutral row.
        let q = Query::grouped(
            [Expr::col(0u32)],
            [Aggregate::count()],
            Conjunction::of([Predicate::gt(0u32, 1_000_000)]),
        )
        .unwrap();
        let out = interpret(r.catalog(), &q).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.width(), 2);
    }

    #[test]
    fn interpret_over_multiple_groups() {
        let schema = Schema::with_width(4).into_shared();
        let cols: Vec<Vec<Value>> = (0..4).map(|k| vec![k as Value; 3]).collect();
        let rel = Relation::partitioned(
            schema,
            cols,
            vec![vec![AttrId(0), AttrId(1)], vec![AttrId(2), AttrId(3)]],
        )
        .unwrap();
        let groups: Vec<&ColumnGroup> = rel.catalog().groups().collect();
        let q = Query::project(
            [Expr::sum_of([AttrId(0), AttrId(3)])],
            Conjunction::always(),
        )
        .unwrap();
        let out = interpret_over(&groups, &q).unwrap();
        assert_eq!(out.rows(), 3);
        assert_eq!(out.row(0), &[3]);
    }

    #[test]
    fn missing_attr_errors() {
        let r = test_relation(true);
        let only_group0: Vec<&ColumnGroup> = r.catalog().groups().take(1).collect();
        let q = Query::project([Expr::col(4u32)], Conjunction::always()).unwrap();
        assert!(matches!(
            interpret_over(&only_group0, &q),
            Err(StorageError::NoCover(_))
        ));
    }

    #[test]
    #[should_panic(expected = "use `interpret`, not `interpret_over`")]
    fn interpret_over_panics_on_string_constants() {
        // String constants resolve through the schema's dictionaries,
        // which `interpret_over` does not have — it must refuse loudly
        // rather than silently match nothing.
        use h2o_storage::{ColumnGroup, LogicalType};
        let g = ColumnGroup::from_columns_typed(
            vec![AttrId(0)],
            vec![LogicalType::Dict],
            &[&[0, 1, 0]],
            16,
        )
        .unwrap();
        let q = Query::project(
            [Expr::col(0u32)],
            Conjunction::of([Predicate::eq(0u32, "STAR")]),
        )
        .unwrap();
        let _ = interpret_over(&[&g], &q);
    }

    /// photo(objID, ra, flags) × spec(bestObjID, z) with a skewed FK:
    /// objID = 0..5, spec rows reference objID r/2 (so objID 0..2 have two
    /// spec rows each, 3..5 none) plus one dangling key.
    fn join_fixture() -> (Relation, Relation, crate::join::JoinQuery) {
        let photo_schema = Schema::new(["objID", "ra", "flags"]).into_shared();
        let photo = Relation::columnar(
            photo_schema.clone(),
            vec![
                vec![0, 1, 2, 3, 4, 5],
                vec![100, 110, 120, 130, 140, 150],
                vec![0, 1, 0, 1, 0, 1],
            ],
        )
        .unwrap();
        let spec_schema = Schema::new(["specObjID", "bestObjID", "z"]).into_shared();
        let spec = Relation::columnar(
            spec_schema.clone(),
            vec![
                vec![1000, 1001, 1002, 1003, 1004, 1005, 1006],
                vec![0, 0, 1, 1, 2, 2, 99], // 99 matches nothing
                vec![7, 8, 9, 10, 11, 12, 13],
            ],
        )
        .unwrap();
        let b = Query::join(("photo", photo_schema), ("spec", spec_schema));
        let ra = b.col("ra").unwrap();
        let z = b.col("z").unwrap();
        let q = b
            .on("objID", "bestObjID")
            .unwrap()
            .project([ra, z])
            .unwrap();
        (photo, spec, q)
    }

    #[test]
    fn join_projection_emits_all_matches() {
        let (photo, spec, q) = join_fixture();
        let out = interpret_join(photo.catalog(), spec.catalog(), &q).unwrap();
        // 6 spec rows match (the dangling 99 does not): probe order is
        // right-row order.
        assert_eq!(out.rows(), 6);
        assert_eq!(out.row(0), &[100, 7]);
        assert_eq!(out.row(1), &[100, 8]);
        assert_eq!(out.row(2), &[110, 9]);
        assert_eq!(out.row(5), &[120, 12]);
    }

    #[test]
    fn join_filters_apply_per_side() {
        let (photo, spec, _) = join_fixture();
        let b = Query::join(
            ("photo", photo.catalog().schema().clone()),
            ("spec", spec.catalog().schema().clone()),
        );
        let ra = b.col("ra").unwrap();
        let z = b.col("z").unwrap();
        // flags = 1 keeps photo rows 1,3,5 (objID 1,3,5); z > 8 keeps spec
        // rows 2.. — matches: spec rows with bestObjID=1 and z>8: (110,9),(110,10).
        let q = b
            .on("objID", "bestObjID")
            .unwrap()
            .filter_left(Conjunction::of([Predicate::eq(2u32, 1)]))
            .filter_right(Conjunction::of([Predicate::gt(2u32, 8)]))
            .project([ra, z])
            .unwrap();
        let out = interpret_join(photo.catalog(), spec.catalog(), &q).unwrap();
        assert_eq!(out.rows(), 2);
        assert_eq!(out.row(0), &[110, 9]);
        assert_eq!(out.row(1), &[110, 10]);
    }

    #[test]
    fn join_aggregate_and_grouped_shapes() {
        let (photo, spec, _) = join_fixture();
        let b = Query::join(
            ("photo", photo.catalog().schema().clone()),
            ("spec", spec.catalog().schema().clone()),
        );
        let ra = b.col("ra").unwrap();
        let z = b.col("z").unwrap();
        let flags = b.col("flags").unwrap();
        let q = b
            .clone()
            .on("objID", "bestObjID")
            .unwrap()
            .aggregate([
                Aggregate::sum(z.clone()),
                Aggregate::count(),
                Aggregate::max(ra.clone()),
            ])
            .unwrap();
        let out = interpret_join(photo.catalog(), spec.catalog(), &q).unwrap();
        assert_eq!(out.rows(), 1);
        // z sums 7+8+9+10+11+12 = 57 over 6 matches; max ra = 120.
        assert_eq!(out.row(0), &[57, 6, 120]);
        // Grouped by photo.flags: flags 0 → objID 0,2 → 4 matches (z
        // 7+8+11+12=38); flags 1 → objID 1 → 2 matches (z 19).
        let g = b
            .on("objID", "bestObjID")
            .unwrap()
            .grouped([flags], [Aggregate::sum(z), Aggregate::count()])
            .unwrap();
        let out = interpret_join(photo.catalog(), spec.catalog(), &g).unwrap();
        assert_eq!(out.rows(), 2);
        assert_eq!(out.row(0), &[0, 38, 4]);
        assert_eq!(out.row(1), &[1, 19, 2]);
    }

    #[test]
    fn join_empty_sides_follow_aggregate_conventions() {
        let (photo, spec, _) = join_fixture();
        let b = Query::join(
            ("photo", photo.catalog().schema().clone()),
            ("spec", spec.catalog().schema().clone()),
        );
        let ra = b.col("ra").unwrap();
        let z = b.col("z").unwrap();
        // A left filter nothing satisfies: projection → empty; scalar
        // aggregate → neutral row; grouped → zero rows.
        let none = Conjunction::of([Predicate::gt(1u32, 1_000_000)]);
        let q = b
            .clone()
            .on("objID", "bestObjID")
            .unwrap()
            .filter_left(none.clone())
            .project([ra.clone()])
            .unwrap();
        let out = interpret_join(photo.catalog(), spec.catalog(), &q).unwrap();
        assert!(out.is_empty());
        let q = b
            .clone()
            .on("objID", "bestObjID")
            .unwrap()
            .filter_left(none.clone())
            .aggregate([Aggregate::sum(z.clone()), Aggregate::count()])
            .unwrap();
        let out = interpret_join(photo.catalog(), spec.catalog(), &q).unwrap();
        assert_eq!(out.rows(), 1);
        assert_eq!(out.row(0), &[0, 0]);
        let q = b
            .on("objID", "bestObjID")
            .unwrap()
            .filter_left(none)
            .grouped([ra], [Aggregate::count()])
            .unwrap();
        let out = interpret_join(photo.catalog(), spec.catalog(), &q).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.width(), 2);
    }

    #[test]
    fn empty_relation_projection() {
        let schema = Schema::with_width(2).into_shared();
        let rel = Relation::columnar(schema, vec![vec![], vec![]]).unwrap();
        let q = Query::project([Expr::col(0u32)], Conjunction::always()).unwrap();
        let out = interpret(rel.catalog(), &q).unwrap();
        assert!(out.is_empty());
    }
}
