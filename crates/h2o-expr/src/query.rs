//! The single-relation select-project-aggregate(-group) query statement:
//! a [`Select`] clause over the relation plus a conjunctive where-clause.
//! The select clause's three shapes and their validation rules live in
//! [`crate::select`].

use crate::agg::Aggregate;
use crate::expr::Expr;
use crate::predicate::Conjunction;
use crate::select::Select;
use h2o_storage::AttrSet;
use std::fmt;

/// Validation errors for query construction and plan-time type checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A query must select at least one item.
    EmptySelect,
    /// Projections and aggregates cannot be mixed without a grouping
    /// clause. With one, the non-aggregate select-items *are* the group
    /// keys — use [`Query::grouped`] / [`Select::grouped`].
    MixedSelect,
    /// The query is ill-typed against the relation schema: a cross-type
    /// predicate or arithmetic expression, an ordered comparison or
    /// aggregate over a dictionary-encoded attribute, or a string literal
    /// outside a predicate. The engine has **no implicit coercions**;
    /// every rejection is raised at plan time
    /// ([`typecheck::check`](crate::typecheck::check)), before any kernel
    /// touches a lane. The payload is the rendered description of the
    /// offending clause.
    TypeMismatch(String),
    /// A multi-relation query names a relation the engine does not hold.
    /// Raised when a [`JoinQuery`](crate::join::JoinQuery)'s relation
    /// bindings are resolved against the database snapshot.
    UnknownRelation(String),
    /// An unqualified column name in a join resolves on **both** sides;
    /// the reference must be qualified
    /// ([`JoinBuilder::lcol`](crate::join::JoinBuilder::lcol) /
    /// [`JoinBuilder::rcol`](crate::join::JoinBuilder::rcol)).
    AmbiguousAttr(String),
    /// A column name resolves on neither side of a join.
    UnknownColumn(String),
    /// A join was built without any equi-join key pair. Cross products are
    /// not a supported query shape; every join declares at least one key
    /// through [`JoinBuilder::on`](crate::join::JoinBuilder::on).
    NoJoinKeys,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::EmptySelect => write!(f, "query selects nothing"),
            QueryError::MixedSelect => {
                write!(
                    f,
                    "cannot mix plain projections and aggregates without a grouping \
                     clause (group-by queries take the keys through Query::grouped)"
                )
            }
            QueryError::TypeMismatch(what) => write!(f, "type mismatch: {what}"),
            QueryError::UnknownRelation(name) => write!(f, "unknown relation: {name}"),
            QueryError::AmbiguousAttr(name) => write!(
                f,
                "ambiguous attribute {name}: both join sides define it \
                 (qualify with JoinBuilder::lcol / JoinBuilder::rcol)"
            ),
            QueryError::UnknownColumn(name) => {
                write!(f, "unknown column: {name} (neither join side defines it)")
            }
            QueryError::NoJoinKeys => write!(
                f,
                "join requires at least one equi-join key pair (JoinBuilder::on)"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// A validated select-project-aggregate query over the relation, optionally
/// grouped by key expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    select: Select,
    filter: Conjunction,
}

impl Query {
    /// A query from an already validated select clause.
    pub(crate) fn new(select: Select, filter: Conjunction) -> Query {
        Query { select, filter }
    }

    /// A projection query: `select <exprs> from R where <filter>`.
    pub fn project<I: IntoIterator<Item = Expr>>(
        exprs: I,
        filter: Conjunction,
    ) -> Result<Self, QueryError> {
        Self::select(exprs, [], filter)
    }

    /// A scalar aggregation query: `select <aggs> from R where <filter>`.
    pub fn aggregate<I: IntoIterator<Item = Aggregate>>(
        aggs: I,
        filter: Conjunction,
    ) -> Result<Self, QueryError> {
        Self::select([], aggs, filter)
    }

    /// The general ungrouped constructor: plain expressions *or*
    /// aggregates, never both ([`Select::new`]).
    pub fn select<P, A>(exprs: P, aggs: A, filter: Conjunction) -> Result<Self, QueryError>
    where
        P: IntoIterator<Item = Expr>,
        A: IntoIterator<Item = Aggregate>,
    {
        Ok(Query::new(Select::new(exprs, aggs)?, filter))
    }

    /// A grouped aggregation query:
    /// `select <keys>, <aggs> from R where <filter> group by <keys>`
    /// ([`Select::grouped`]). Output rows are `keys ++ aggregate values`,
    /// one per distinct key vector, **sorted ascending by key vector** so
    /// every execution strategy (and the parallel driver) produces
    /// bit-identical results.
    pub fn grouped<K, A>(keys: K, aggs: A, filter: Conjunction) -> Result<Self, QueryError>
    where
        K: IntoIterator<Item = Expr>,
        A: IntoIterator<Item = Aggregate>,
    {
        Ok(Query::new(Select::grouped(keys, aggs)?, filter))
    }

    /// Starts a two-relation equi-join query against named relation
    /// bindings; see [`JoinQuery`](crate::join::JoinQuery). The returned
    /// builder resolves column names per side, collects join keys and
    /// per-side filters, and finishes into a join query through
    /// `project`/`aggregate`/`grouped` — the same three shapes as the
    /// single-relation constructors above.
    pub fn join(
        left: (&str, std::sync::Arc<h2o_storage::Schema>),
        right: (&str, std::sync::Arc<h2o_storage::Schema>),
    ) -> crate::join::JoinBuilder {
        crate::join::JoinQuery::builder(left, right)
    }

    /// The same select clause under another where-clause (a prepared
    /// statement rebound to new constants).
    pub fn with_filter(&self, filter: Conjunction) -> Query {
        Query::new(self.select.clone(), filter)
    }

    /// The select clause.
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

    /// The where-clause.
    pub fn filter(&self) -> &Conjunction {
        &self.filter
    }

    /// Attributes referenced in the **where clause**.
    pub fn where_attrs(&self) -> AttrSet {
        self.filter.attrs()
    }

    /// All attributes the query touches.
    pub fn all_attrs(&self) -> AttrSet {
        self.select.attrs().union(&self.where_attrs())
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "select {} from R", self.select)?;
        if !self.filter.is_always_true() {
            write!(f, " where {}", self.filter)?;
        }
        self.select.fmt_group_by(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::predicate::Predicate;
    use h2o_storage::AttrId;

    #[test]
    fn paper_q1_shape() {
        // Q1: select a+b+c from R where d<v1 and e>v2
        let q = Query::project(
            [Expr::sum_of([AttrId(0), AttrId(1), AttrId(2)])],
            Conjunction::of([Predicate::lt(3u32, 10), Predicate::gt(4u32, -10)]),
        )
        .unwrap();
        assert!(!q.select_clause().is_aggregate());
        assert!(!q.select_clause().is_grouped());
        assert_eq!(q.select_clause().output_width(), 1);
        assert_eq!(
            q.select_clause().attrs().to_vec(),
            vec![AttrId(0), AttrId(1), AttrId(2)]
        );
        assert_eq!(q.where_attrs().to_vec(), vec![AttrId(3), AttrId(4)]);
        assert_eq!(q.all_attrs().len(), 5);
        assert_eq!(
            q.to_string(),
            "select ((a0 + a1) + a2) from R where a3 < 10 and a4 > -10"
        );
    }

    #[test]
    fn aggregate_query() {
        let q = Query::aggregate(
            [
                Aggregate::max(Expr::col(0u32)),
                Aggregate::max(Expr::col(1u32)),
            ],
            Conjunction::always(),
        )
        .unwrap();
        assert!(q.select_clause().is_aggregate());
        assert_eq!(q.select_clause().output_width(), 2);
        assert!(q.where_attrs().is_empty());
        assert_eq!(q.to_string(), "select max(a0), max(a1) from R");
    }

    #[test]
    fn grouped_query_shape() {
        // select a0, sum(a1), count(*) from R where a2 < 5 group by a0
        let q = Query::grouped(
            [Expr::col(0u32)],
            [Aggregate::sum(Expr::col(1u32)), Aggregate::count()],
            Conjunction::of([Predicate::lt(2u32, 5)]),
        )
        .unwrap();
        assert!(q.select_clause().is_grouped());
        assert!(
            !q.select_clause().is_aggregate(),
            "grouped queries are not scalar"
        );
        assert_eq!(q.select_clause().output_width(), 3);
        assert_eq!(q.group_by().len(), 1);
        // Key attrs count as select attrs (hot for the adviser).
        assert_eq!(
            q.select_clause().attrs().to_vec(),
            vec![AttrId(0), AttrId(1)]
        );
        assert_eq!(q.all_attrs().len(), 3);
        assert_eq!(
            q.to_string(),
            "select a0, sum(a1), count(1) from R where a2 < 5 group by a0"
        );
    }

    #[test]
    fn grouped_expression_keys_and_distinct_degenerate() {
        let q = Query::grouped(
            [Expr::col(0u32).add(Expr::col(1u32)), Expr::col(2u32)],
            [Aggregate::new(AggFunc::Min, Expr::col(3u32))],
            Conjunction::always(),
        )
        .unwrap();
        assert_eq!(q.select_clause().output_width(), 3);
        assert_eq!(q.select_clause().attrs().len(), 4);
        // Distinct-keys degenerate: no aggregates is legal with grouping.
        let d = Query::grouped([Expr::col(5u32)], [], Conjunction::always()).unwrap();
        assert!(d.select_clause().is_grouped());
        assert_eq!(d.select_clause().output_width(), 1);
        assert_eq!(d.to_string(), "select a5 from R group by a5");
        // ... but a grouped query still needs at least one key.
        assert_eq!(
            Query::grouped([], [Aggregate::count()], Conjunction::always()).unwrap_err(),
            QueryError::EmptySelect
        );
    }

    #[test]
    fn mixed_select_rejected_without_grouping() {
        // The taxonomy: mixing stays illegal only *without* a grouping
        // clause.
        let err = Query::select(
            [Expr::col(0u32)],
            [Aggregate::count()],
            Conjunction::always(),
        )
        .unwrap_err();
        assert_eq!(err, QueryError::MixedSelect);
        // Rendered-message regression: the text must direct users to the
        // grouped constructor, not claim group-by is unsupported.
        let msg = err.to_string();
        assert_eq!(
            msg,
            "cannot mix plain projections and aggregates without a grouping \
             clause (group-by queries take the keys through Query::grouped)"
        );
        assert!(!msg.contains("does not"), "must not claim unsupported");
        // The same select-list *with* a grouping clause is legal.
        let ok = Query::grouped(
            [Expr::col(0u32)],
            [Aggregate::count()],
            Conjunction::always(),
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn empty_select_rejected() {
        assert_eq!(
            Query::project([], Conjunction::always()).unwrap_err(),
            QueryError::EmptySelect
        );
        assert_eq!(
            Query::aggregate([], Conjunction::always()).unwrap_err(),
            QueryError::EmptySelect
        );
        assert_eq!(
            Query::select([], [], Conjunction::always()).unwrap_err(),
            QueryError::EmptySelect
        );
    }

    #[test]
    fn select_node_count_counts_trees() {
        let q = Query::project(
            [Expr::col(0u32).add(Expr::col(1u32)), Expr::col(2u32)],
            Conjunction::always(),
        )
        .unwrap();
        assert_eq!(q.select_clause().node_count(), 4);
        let g = Query::grouped(
            [Expr::col(0u32)],
            [Aggregate::sum(Expr::col(1u32).add(Expr::col(2u32)))],
            Conjunction::always(),
        )
        .unwrap();
        assert_eq!(g.select_clause().node_count(), 4); // key (1) + sum input (3)
    }

    #[test]
    fn overlapping_select_and_where_attrs() {
        // The same attribute may appear in both clauses (paper §2.2: "the
        // attributes accessed in the where clause and in the select clause
        // are the same").
        let q = Query::aggregate(
            [Aggregate::sum(Expr::col(5u32))],
            Conjunction::of([Predicate::lt(5u32, 0)]),
        )
        .unwrap();
        assert_eq!(q.all_attrs().len(), 1);
        assert_eq!(q.select_clause().attrs(), q.where_attrs());
    }
}
