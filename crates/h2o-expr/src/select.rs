//! The select clause, shared by every query kind.
//!
//! A [`Select`] has one of three shapes:
//!
//! * a *projection* (select-items are expressions, one output row per
//!   qualifying tuple);
//! * a *scalar aggregation* (all select-items are aggregates, one output
//!   row total) — these two are the shapes of the paper's evaluation
//!   (§2.2, §4.2.1 templates i–iii);
//! * a *grouped aggregation* ([`Select::grouped`]): group-key expressions
//!   plus aggregates, one output row per distinct key vector, sorted
//!   ascending by key vector (the engine-wide determinism convention — see
//!   [`crate::grouped::GroupedAggs`]). The paper does not evaluate
//!   group-by; this reproduction adds it as a first-class query class (see
//!   the workspace README's query-shape section).
//!
//! Mixing plain projections and aggregates is illegal **without** a
//! grouping clause ([`QueryError::MixedSelect`]); with a grouping clause
//! the group keys are exactly the non-aggregate select-items, which is the
//! SQL rule this engine enforces by construction.
//!
//! A single-relation [`Query`](crate::Query) and a
//! [`JoinQuery`](crate::JoinQuery) carry the same `Select`: π/γ is one
//! stage whether a scan, the fused reorganization or a join probe feeds
//! it, so the clause is validated, typed, lowered, hashed, encoded and
//! interpreted in one place each.

use crate::agg::Aggregate;
use crate::expr::Expr;
use crate::query::QueryError;
use h2o_storage::AttrSet;
use std::fmt;

/// A validated select clause (see the module docs). Construct through
/// [`Select::new`] or [`Select::grouped`]; every value is non-empty and
/// unmixed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Select {
    /// One output row per qualifying tuple.
    Project(Vec<Expr>),
    /// One output row total.
    Aggregate(Vec<Aggregate>),
    /// One output row per distinct key vector: `keys ++ aggs`. `aggs` may
    /// be empty (the `select distinct <keys>` degenerate).
    Grouped {
        keys: Vec<Expr>,
        aggs: Vec<Aggregate>,
    },
}

impl Select {
    /// The ungrouped clause: plain expressions *or* aggregates, never both
    /// ([`QueryError::MixedSelect`]), and at least one item
    /// ([`QueryError::EmptySelect`]). A mixed select-list is only
    /// meaningful with a grouping clause ([`Self::grouped`]).
    pub fn new<P, A>(exprs: P, aggs: A) -> Result<Select, QueryError>
    where
        P: IntoIterator<Item = Expr>,
        A: IntoIterator<Item = Aggregate>,
    {
        let exprs: Vec<Expr> = exprs.into_iter().collect();
        let aggs: Vec<Aggregate> = aggs.into_iter().collect();
        match (exprs.is_empty(), aggs.is_empty()) {
            (true, true) => Err(QueryError::EmptySelect),
            (false, false) => Err(QueryError::MixedSelect),
            (false, true) => Ok(Select::Project(exprs)),
            (true, false) => Ok(Select::Aggregate(aggs)),
        }
    }

    /// The grouped clause: `select <keys>, <aggs> ... group by <keys>`.
    /// Requires at least one key ([`QueryError::EmptySelect`]); `aggs` may
    /// be empty.
    pub fn grouped<K, A>(keys: K, aggs: A) -> Result<Select, QueryError>
    where
        K: IntoIterator<Item = Expr>,
        A: IntoIterator<Item = Aggregate>,
    {
        let keys: Vec<Expr> = keys.into_iter().collect();
        if keys.is_empty() {
            return Err(QueryError::EmptySelect);
        }
        Ok(Select::Grouped {
            keys,
            aggs: aggs.into_iter().collect(),
        })
    }

    /// The plain expressions (projections or group keys) and the
    /// aggregates — an output row is the former's values followed by the
    /// latter's, in every shape.
    pub fn parts(&self) -> (&[Expr], &[Aggregate]) {
        match self {
            Select::Project(exprs) => (exprs, &[]),
            Select::Aggregate(aggs) => (&[], aggs),
            Select::Grouped { keys, aggs } => (keys, aggs),
        }
    }

    /// The projection expressions (empty unless a projection).
    pub fn projections(&self) -> &[Expr] {
        match self {
            Select::Project(exprs) => exprs,
            _ => &[],
        }
    }

    /// The aggregates (empty for a projection; possibly empty when
    /// grouped).
    pub fn aggregates(&self) -> &[Aggregate] {
        self.parts().1
    }

    /// The group-key expressions (empty unless [`Self::is_grouped`]).
    pub fn group_by(&self) -> &[Expr] {
        match self {
            Select::Grouped { keys, .. } => keys,
            _ => &[],
        }
    }

    /// Whether this is a **scalar** aggregation (one output row total).
    /// Grouped clauses report `false` — their output cardinality scales
    /// with the number of distinct keys, not with 1.
    pub fn is_aggregate(&self) -> bool {
        matches!(self, Select::Aggregate(_))
    }

    /// Whether this is a grouped aggregation.
    pub fn is_grouped(&self) -> bool {
        matches!(self, Select::Grouped { .. })
    }

    /// Number of output values per result row.
    pub fn output_width(&self) -> usize {
        let (exprs, aggs) = self.parts();
        exprs.len() + aggs.len()
    }

    /// Every expression of the clause: projections or group keys, then
    /// the aggregate inputs.
    pub fn exprs(&self) -> impl Iterator<Item = &Expr> {
        let (exprs, aggs) = self.parts();
        exprs.iter().chain(aggs.iter().map(|a| &a.expr))
    }

    /// Attributes the clause references (group keys included — the
    /// adaptation mechanism must see key columns as hot). "H2O considers
    /// attributes accessed together in the select and the where clause as
    /// different potential groups" (§3.2), so this stays separate from the
    /// filter's attributes.
    pub fn attrs(&self) -> AttrSet {
        let mut s = AttrSet::new();
        for e in self.exprs() {
            e.collect_attrs(&mut s);
        }
        s
    }

    /// Total expression-tree nodes across the clause (drives the
    /// interpretation-overhead term of the CPU cost model).
    pub fn node_count(&self) -> usize {
        self.exprs().map(|e| e.node_count()).sum()
    }

    /// Writes ` group by <keys>` for a grouped clause, nothing otherwise —
    /// the tail of a rendered statement.
    pub(crate) fn fmt_group_by(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Select::Grouped { keys, .. } = self {
            write!(f, " group by {}", List(keys))?;
        }
        Ok(())
    }
}

/// Comma-separated rendering of a slice.
struct List<'a, T>(&'a [T]);

impl<T: fmt::Display> fmt::Display for List<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, item) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        Ok(())
    }
}

/// The select-list: `<exprs>, <aggs>` (keys first when grouped).
impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (exprs, aggs) = self.parts();
        write!(f, "{}", List(exprs))?;
        if !exprs.is_empty() && !aggs.is_empty() {
            write!(f, ", ")?;
        }
        write!(f, "{}", List(aggs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use h2o_storage::AttrId;

    #[test]
    fn shapes_and_accessors() {
        let p = Select::new([Expr::sum_of([AttrId(0), AttrId(1)])], []).unwrap();
        assert!(!p.is_aggregate() && !p.is_grouped());
        assert_eq!(p.output_width(), 1);
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.to_string(), "(a0 + a1)");

        let a = Select::new([], [Aggregate::max(Expr::col(2u32)), Aggregate::count()]).unwrap();
        assert!(a.is_aggregate());
        assert_eq!(a.output_width(), 2);
        assert_eq!(a.attrs().to_vec(), vec![AttrId(2)]);
        assert_eq!(a.to_string(), "max(a2), count(1)");

        let g = Select::grouped(
            [Expr::col(0u32)],
            [Aggregate::new(
                AggFunc::Sum,
                Expr::col(1u32).add(Expr::col(2u32)),
            )],
        )
        .unwrap();
        assert!(g.is_grouped() && !g.is_aggregate());
        assert_eq!(g.output_width(), 2);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.group_by().len(), 1);
        assert!(g.projections().is_empty());
        assert_eq!(g.to_string(), "a0, sum((a1 + a2))");
        let distinct = Select::grouped([Expr::col(5u32)], []).unwrap();
        assert_eq!(distinct.to_string(), "a5");
    }

    #[test]
    fn constructors_own_the_taxonomy() {
        assert_eq!(Select::new([], []).unwrap_err(), QueryError::EmptySelect);
        assert_eq!(
            Select::new([Expr::col(0u32)], [Aggregate::count()]).unwrap_err(),
            QueryError::MixedSelect
        );
        assert_eq!(
            Select::grouped([], [Aggregate::count()]).unwrap_err(),
            QueryError::EmptySelect
        );
    }
}
