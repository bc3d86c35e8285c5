//! Multi-relation queries: the two-table equi-join shape.
//!
//! A [`JoinQuery`] binds two **named** relations, declares one or more
//! equi-join key pairs, carries a residual filter per side, and selects
//! through the same [`Select`] clause as a single-relation
//! [`Query`](crate::Query) — projection, scalar aggregation, or grouped
//! aggregation, validated, typed, lowered and encoded by the same code.
//! The paper's
//! evaluation is single-relation (§2.2); joins are this reproduction's
//! extension of the adaptive story — the engine observes join-side access
//! patterns, so adaptive storage and join ordering co-evolve (see the
//! workspace README; the engine runs joins via
//! `h2o_core::Request::join` through `H2oEngine::run`).
//!
//! # The combined attribute space
//!
//! Select-clause expressions (projections, group keys, aggregate inputs)
//! reference a **combined** attribute space: the left relation's
//! attributes keep their ids, the right relation's attribute `j` becomes
//! `AttrId(left_width + j)`. Per-side filters and join keys stay in each
//! side's **local** space — they are evaluated before any tuple is
//! stitched. [`JoinQuery::side_of`] maps a combined id back to its side.
//!
//! Name resolution happens in [`JoinBuilder`]: unqualified names
//! ([`JoinBuilder::col`]) must be unique across both schemas
//! ([`QueryError::AmbiguousAttr`] otherwise); [`JoinBuilder::lcol`] /
//! [`JoinBuilder::rcol`] qualify explicitly.

use crate::agg::Aggregate;
use crate::expr::Expr;
use crate::predicate::Conjunction;
use crate::query::QueryError;
use crate::select::Select;
use h2o_storage::{AttrId, AttrSet, Schema};
use std::fmt;
use std::sync::Arc;

/// Which relation of a join a (combined-space) attribute belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Left,
    Right,
}

impl Side {
    /// The other side.
    pub fn other(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// A named relation binding: the name the engine resolves against its
/// database snapshot, plus the schema the query was typed against.
#[derive(Debug, Clone)]
pub struct RelRef {
    name: String,
    schema: Arc<Schema>,
}

impl RelRef {
    /// The relation name as bound in the query.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema the query references this relation through.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }
}

/// A validated two-relation equi-join query. Construct through
/// [`JoinQuery::builder`] (or [`Query::join`](crate::Query::join)).
#[derive(Debug, Clone)]
pub struct JoinQuery {
    left: RelRef,
    right: RelRef,
    /// Equi-join key pairs, `(left-local, right-local)`. Never empty.
    on: Vec<(AttrId, AttrId)>,
    /// Residual filter over the left side, left-local attribute ids.
    left_filter: Conjunction,
    /// Residual filter over the right side, right-local attribute ids.
    right_filter: Conjunction,
    /// Select clause in **combined** space (see module docs).
    select: Select,
}

impl JoinQuery {
    /// Starts building a join between two named relations.
    pub fn builder(left: (&str, Arc<Schema>), right: (&str, Arc<Schema>)) -> JoinBuilder {
        JoinBuilder {
            left: RelRef {
                name: left.0.to_string(),
                schema: left.1,
            },
            right: RelRef {
                name: right.0.to_string(),
                schema: right.1,
            },
            on: Vec::new(),
            left_filter: Conjunction::always(),
            right_filter: Conjunction::always(),
        }
    }

    /// The left relation binding.
    pub fn left(&self) -> &RelRef {
        &self.left
    }

    /// The right relation binding.
    pub fn right(&self) -> &RelRef {
        &self.right
    }

    /// The relation binding for `side`.
    pub fn rel(&self, side: Side) -> &RelRef {
        match side {
            Side::Left => &self.left,
            Side::Right => &self.right,
        }
    }

    /// The equi-join key pairs, `(left-local, right-local)`. Non-empty.
    pub fn on(&self) -> &[(AttrId, AttrId)] {
        &self.on
    }

    /// The key attributes of `side`, local space, in `on` order.
    pub fn key_attrs(&self, side: Side) -> Vec<AttrId> {
        self.on
            .iter()
            .map(|&(l, r)| match side {
                Side::Left => l,
                Side::Right => r,
            })
            .collect()
    }

    /// The residual filter of `side`, local attribute ids.
    pub fn filter(&self, side: Side) -> &Conjunction {
        match side {
            Side::Left => &self.left_filter,
            Side::Right => &self.right_filter,
        }
    }

    /// Width of the left schema — the pivot of the combined attribute
    /// space: combined ids below it are left-local, the rest are
    /// `left_width + right-local`.
    pub fn left_width(&self) -> usize {
        self.left.schema.len()
    }

    /// Maps a combined-space attribute to `(side, local id)`.
    pub fn side_of(&self, attr: AttrId) -> (Side, AttrId) {
        let w = self.left_width();
        if attr.index() < w {
            (Side::Left, attr)
        } else {
            (Side::Right, AttrId((attr.index() - w) as u32))
        }
    }

    /// The select clause (combined space).
    pub fn select_clause(&self) -> &Select {
        &self.select
    }

    /// The projection expressions ([`Select::projections`]).
    pub fn projections(&self) -> &[Expr] {
        self.select.projections()
    }

    /// The aggregates ([`Select::aggregates`]).
    pub fn aggregates(&self) -> &[Aggregate] {
        self.select.aggregates()
    }

    /// The group-key expressions ([`Select::group_by`]).
    pub fn group_by(&self) -> &[Expr] {
        self.select.group_by()
    }

    /// `side`-local attributes the select clause reads from that side —
    /// the join *payload* (join keys excluded unless also selected).
    pub fn payload_attrs(&self, side: Side) -> AttrSet {
        let mut out = AttrSet::new();
        for a in self.select.attrs().iter() {
            let (s, local) = self.side_of(a);
            if s == side {
                out.insert(local);
            }
        }
        out
    }

    /// Every `side`-local attribute the join touches on that side: keys,
    /// payload, and residual-filter attributes. This is what the engine
    /// must cover on `side` — and what it observes as the side's access
    /// pattern, so the adviser sees key+payload column groups as hot.
    pub fn side_attrs(&self, side: Side) -> AttrSet {
        let mut out = self.payload_attrs(side);
        for k in self.key_attrs(side) {
            out.insert(k);
        }
        out.union_with(&self.filter(side).attrs());
        out
    }
}

/// Builder for [`JoinQuery`]: binds relations, resolves column names,
/// collects keys and filters, and finishes into one of the three select
/// shapes.
#[derive(Debug, Clone)]
pub struct JoinBuilder {
    left: RelRef,
    right: RelRef,
    on: Vec<(AttrId, AttrId)>,
    left_filter: Conjunction,
    right_filter: Conjunction,
}

impl JoinBuilder {
    /// Resolves an **unqualified** column name to a combined-space column
    /// expression. Fails with [`QueryError::AmbiguousAttr`] when both
    /// schemas define the name and [`QueryError::UnknownColumn`] when
    /// neither does.
    pub fn col(&self, name: &str) -> Result<Expr, QueryError> {
        column(&self.left, &self.right, None, name)
    }

    /// Resolves a column name on the **left** side (combined space ==
    /// left-local space).
    pub fn lcol(&self, name: &str) -> Result<Expr, QueryError> {
        column(&self.left, &self.right, Some(Side::Left), name)
    }

    /// Resolves a column name on the **right** side into the combined
    /// space.
    pub fn rcol(&self, name: &str) -> Result<Expr, QueryError> {
        column(&self.left, &self.right, Some(Side::Right), name)
    }

    /// The two relation bindings.
    pub(crate) fn rels(&self) -> (&RelRef, &RelRef) {
        (&self.left, &self.right)
    }

    /// Adds an equi-join key pair by column name (left name, right name).
    pub fn on(mut self, left: &str, right: &str) -> Result<Self, QueryError> {
        let l = self
            .left
            .schema
            .attr_by_name(left)
            .map_err(|_| QueryError::UnknownColumn(format!("{}.{left}", self.left.name)))?;
        let r = self
            .right
            .schema
            .attr_by_name(right)
            .map_err(|_| QueryError::UnknownColumn(format!("{}.{right}", self.right.name)))?;
        self.on.push((l, r));
        Ok(self)
    }

    /// Adds an equi-join key pair by local attribute ids.
    pub fn on_attrs(mut self, left: AttrId, right: AttrId) -> Self {
        self.on.push((left, right));
        self
    }

    /// Sets the left side's residual filter (left-local attribute ids).
    pub fn filter_left(mut self, filter: Conjunction) -> Self {
        self.left_filter = filter;
        self
    }

    /// Sets the right side's residual filter (right-local attribute ids).
    pub fn filter_right(mut self, filter: Conjunction) -> Self {
        self.right_filter = filter;
        self
    }

    /// Finishes as a projection join: one output row per matching tuple
    /// pair.
    pub fn project<I: IntoIterator<Item = Expr>>(self, exprs: I) -> Result<JoinQuery, QueryError> {
        self.select(exprs, [])
    }

    /// Finishes as a scalar aggregation join: one output row total.
    pub fn aggregate<I: IntoIterator<Item = Aggregate>>(
        self,
        aggs: I,
    ) -> Result<JoinQuery, QueryError> {
        self.select([], aggs)
    }

    /// The general ungrouped finisher: plain expressions *or* aggregates,
    /// never both ([`Select::new`]).
    pub fn select<P, A>(self, exprs: P, aggs: A) -> Result<JoinQuery, QueryError>
    where
        P: IntoIterator<Item = Expr>,
        A: IntoIterator<Item = Aggregate>,
    {
        self.finish(Select::new(exprs, aggs)?)
    }

    /// Finishes as a grouped aggregation join ([`Select::grouped`]): one
    /// output row per distinct key vector, sorted ascending by key (the
    /// engine-wide grouped determinism convention).
    pub fn grouped<K, A>(self, keys: K, aggs: A) -> Result<JoinQuery, QueryError>
    where
        K: IntoIterator<Item = Expr>,
        A: IntoIterator<Item = Aggregate>,
    {
        self.finish(Select::grouped(keys, aggs)?)
    }

    /// Finishes with an already validated select clause (combined space).
    /// Fails with [`QueryError::NoJoinKeys`] when no key pair was added.
    pub fn finish(self, select: Select) -> Result<JoinQuery, QueryError> {
        if self.on.is_empty() {
            return Err(QueryError::NoJoinKeys);
        }
        Ok(JoinQuery {
            left: self.left,
            right: self.right,
            on: self.on,
            left_filter: self.left_filter,
            right_filter: self.right_filter,
            select,
        })
    }
}

/// Resolves a column name against a join's two relation bindings into the
/// combined space: on `side` when qualified, else on whichever side
/// uniquely defines it.
pub(crate) fn column(
    left: &RelRef,
    right: &RelRef,
    side: Option<Side>,
    name: &str,
) -> Result<Expr, QueryError> {
    let lift = |a: AttrId| AttrId((left.schema.len() + a.index()) as u32);
    let unknown = |rel: &RelRef| QueryError::UnknownColumn(format!("{}.{name}", rel.name));
    match side {
        Some(Side::Left) => left
            .schema
            .attr_by_name(name)
            .map(Expr::col)
            .map_err(|_| unknown(left)),
        Some(Side::Right) => right
            .schema
            .attr_by_name(name)
            .map(|a| Expr::col(lift(a)))
            .map_err(|_| unknown(right)),
        None => match (
            left.schema.attr_by_name(name).ok(),
            right.schema.attr_by_name(name).ok(),
        ) {
            (Some(_), Some(_)) => Err(QueryError::AmbiguousAttr(name.to_string())),
            (Some(a), None) => Ok(Expr::col(a)),
            (None, Some(a)) => Ok(Expr::col(lift(a))),
            (None, None) => Err(QueryError::UnknownColumn(name.to_string())),
        },
    }
}

impl fmt::Display for JoinQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "select {}", self.select)?;
        write!(f, " from {} join {} on", self.left.name, self.right.name)?;
        for (i, (l, r)) in self.on.iter().enumerate() {
            if i > 0 {
                write!(f, " and")?;
            }
            write!(f, " {}.{l} = {}.{r}", self.left.name, self.right.name)?;
        }
        if !self.left_filter.is_always_true() {
            write!(f, " where[{}] {}", self.left.name, self.left_filter)?;
        }
        if !self.right_filter.is_always_true() {
            if self.left_filter.is_always_true() {
                write!(f, " where")?;
            } else {
                write!(f, " and")?;
            }
            write!(f, "[{}] {}", self.right.name, self.right_filter)?;
        }
        self.select.fmt_group_by(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::Aggregate;
    use crate::predicate::Predicate;
    use crate::query::Query;
    use h2o_storage::LogicalType;

    fn schemas() -> (Arc<Schema>, Arc<Schema>) {
        let photo = Schema::typed([
            ("objID", LogicalType::I64),
            ("ra", LogicalType::F64),
            ("flags", LogicalType::I64),
        ])
        .into_shared();
        let spec = Schema::typed([
            ("specObjID", LogicalType::I64),
            ("bestObjID", LogicalType::I64),
            ("z", LogicalType::F64),
            ("flags", LogicalType::I64),
        ])
        .into_shared();
        (photo, spec)
    }

    #[test]
    fn builder_resolves_names_across_sides() {
        let (photo, spec) = schemas();
        let b = Query::join(("photo", photo), ("spec", spec));
        // Unique names resolve unqualified; "flags" is on both sides.
        assert_eq!(b.col("ra").unwrap(), Expr::col(1u32));
        assert_eq!(b.col("z").unwrap(), Expr::col(5u32)); // 3 (left width) + 2
        assert_eq!(
            b.col("flags").unwrap_err(),
            QueryError::AmbiguousAttr("flags".into())
        );
        assert_eq!(b.lcol("flags").unwrap(), Expr::col(2u32));
        assert_eq!(b.rcol("flags").unwrap(), Expr::col(6u32));
        assert_eq!(
            b.col("nope").unwrap_err(),
            QueryError::UnknownColumn("nope".into())
        );
        assert_eq!(
            b.rcol("ra").unwrap_err(),
            QueryError::UnknownColumn("spec.ra".into())
        );
    }

    #[test]
    fn join_shape_and_attr_spaces() {
        let (photo, spec) = schemas();
        let b = Query::join(("photo", photo), ("spec", spec));
        let ra = b.col("ra").unwrap();
        let z = b.col("z").unwrap();
        let q = b
            .on("objID", "bestObjID")
            .unwrap()
            .filter_left(Conjunction::of([Predicate::lt(2u32, 100)]))
            .filter_right(Conjunction::of([Predicate::gt(3u32, 0)]))
            .project([ra, z])
            .unwrap();
        assert_eq!(q.on(), &[(AttrId(0), AttrId(1))]);
        assert_eq!(q.left_width(), 3);
        assert_eq!(q.side_of(AttrId(1)), (Side::Left, AttrId(1)));
        assert_eq!(q.side_of(AttrId(5)), (Side::Right, AttrId(2)));
        assert_eq!(q.key_attrs(Side::Left), vec![AttrId(0)]);
        assert_eq!(q.key_attrs(Side::Right), vec![AttrId(1)]);
        assert_eq!(q.payload_attrs(Side::Left).to_vec(), vec![AttrId(1)]);
        assert_eq!(q.payload_attrs(Side::Right).to_vec(), vec![AttrId(2)]);
        // side_attrs = keys ∪ payload ∪ filter attrs, local space.
        assert_eq!(
            q.side_attrs(Side::Left).to_vec(),
            vec![AttrId(0), AttrId(1), AttrId(2)]
        );
        assert_eq!(
            q.side_attrs(Side::Right).to_vec(),
            vec![AttrId(1), AttrId(2), AttrId(3)]
        );
        assert!(!q.select_clause().is_aggregate());
        assert!(!q.select_clause().is_grouped());
        assert_eq!(q.select_clause().output_width(), 2);
    }

    #[test]
    fn missing_join_keys_rejected() {
        let (photo, spec) = schemas();
        let b = Query::join(("photo", photo), ("spec", spec));
        let ra = b.col("ra").unwrap();
        let err = b.project([ra]).unwrap_err();
        assert_eq!(err, QueryError::NoJoinKeys);
        assert_eq!(
            err.to_string(),
            "join requires at least one equi-join key pair (JoinBuilder::on)"
        );
    }

    #[test]
    fn select_taxonomy_matches_single_relation_rules() {
        let (photo, spec) = schemas();
        let b = Query::join(("photo", photo), ("spec", spec))
            .on("objID", "bestObjID")
            .unwrap();
        let ra = b.col("ra").unwrap();
        assert_eq!(
            b.clone().select([], []).unwrap_err(),
            QueryError::EmptySelect
        );
        assert_eq!(
            b.clone()
                .select([ra.clone()], [Aggregate::count()])
                .unwrap_err(),
            QueryError::MixedSelect
        );
        assert_eq!(
            b.clone().grouped([], [Aggregate::count()]).unwrap_err(),
            QueryError::EmptySelect
        );
        let g = b.grouped([ra], [Aggregate::count()]).unwrap();
        assert!(g.select_clause().is_grouped());
        assert_eq!(g.select_clause().output_width(), 2);
    }

    #[test]
    fn rendered_error_messages() {
        // Rendered-message regressions for the join error variants.
        assert_eq!(
            QueryError::UnknownRelation("spec".into()).to_string(),
            "unknown relation: spec"
        );
        assert_eq!(
            QueryError::AmbiguousAttr("flags".into()).to_string(),
            "ambiguous attribute flags: both join sides define it \
             (qualify with JoinBuilder::lcol / JoinBuilder::rcol)"
        );
        assert_eq!(
            QueryError::UnknownColumn("photo.nope".into()).to_string(),
            "unknown column: photo.nope (neither join side defines it)"
        );
    }

    #[test]
    fn display_renders_the_join() {
        let (photo, spec) = schemas();
        let b = Query::join(("photo", photo), ("spec", spec));
        let z = b.col("z").unwrap();
        let q = b
            .on("objID", "bestObjID")
            .unwrap()
            .filter_left(Conjunction::of([Predicate::lt(2u32, 100)]))
            .grouped([z], [Aggregate::count()])
            .unwrap();
        assert_eq!(
            q.to_string(),
            "select a5, count(1) from photo join spec on photo.a0 = spec.a1 \
             where[photo] a2 < 100 group by a5"
        );
    }
}
