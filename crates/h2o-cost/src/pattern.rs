//! Query access patterns — what the monitor records and the model costs.
//!
//! An [`AccessPattern`] is the layout-relevant abstraction of a query
//! (paper §3.2): *which* attributes the select clause reads, *which* the
//! where clause reads, and how selective the filter is. The adaptation
//! mechanism never looks at predicates or expressions, only at patterns.

use h2o_expr::{JoinQuery, Query, Side};
use h2o_storage::AttrSet;

/// The layout-relevant footprint of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessPattern {
    /// Attributes referenced in the select clause.
    pub select: AttrSet,
    /// Attributes referenced in the where clause.
    pub where_: AttrSet,
    /// Estimated (or observed) selectivity in `[0, 1]`; `1.0` when there is
    /// no where clause.
    pub selectivity: f64,
    /// Values produced per output row (for result materialization costs).
    pub output_width: usize,
    /// Total expression opcodes in the select clause (compute-cost term).
    pub select_ops: usize,
    /// Whether the query aggregates to a **single** output row rather than
    /// projecting one row per qualifying tuple.
    pub is_aggregate: bool,
    /// Whether the query is a grouped aggregation: output cardinality
    /// scales with the number of distinct key vectors (bounded by the
    /// qualifying-tuple count), and every qualifying tuple pays a hash
    /// probe. Group-key attributes are part of [`Self::select`], so the
    /// adaptation mechanism sees key columns as hot select-clause
    /// attributes.
    pub is_grouped: bool,
}

impl AccessPattern {
    /// Derives the pattern of `query`, with `selectivity` supplied by the
    /// caller (the engine passes observed selectivity from execution
    /// feedback; a priori estimates default to 1.0 for no filter).
    pub fn of(query: &Query, selectivity: f64) -> AccessPattern {
        let select = query.select_clause();
        AccessPattern {
            select: select.attrs(),
            where_: query.where_attrs(),
            selectivity: selectivity.clamp(0.0, 1.0),
            output_width: select.output_width(),
            select_ops: select.node_count(),
            is_aggregate: select.is_aggregate(),
            is_grouped: select.is_grouped(),
        }
    }

    /// Derives the pattern of one **side** of a join: the side's join keys
    /// and payload are its select clause (they are gathered for the hash
    /// table on the build side and for tuple stitching on the probe side),
    /// its residual filter is the where clause. This is both what the
    /// model prices ([`crate::CostModel::join_side_cost`]) and what the
    /// engine feeds the monitoring window — so the adviser sees join
    /// key+payload column groups as hot select-clause attributes, exactly
    /// as it sees group-by keys.
    pub fn of_join_side(query: &JoinQuery, side: Side, selectivity: f64) -> AccessPattern {
        let mut select = query.payload_attrs(side);
        for k in query.key_attrs(side) {
            select.insert(k);
        }
        let width = select.len();
        AccessPattern {
            select,
            where_: query.filter(side).attrs(),
            selectivity: selectivity.clamp(0.0, 1.0),
            // One materialized value per key/payload attribute of every
            // qualifying tuple (the hash-table entry or stitched half).
            output_width: width,
            select_ops: width,
            is_aggregate: false,
            is_grouped: false,
        }
    }

    /// All attributes the query touches.
    pub fn all_attrs(&self) -> AttrSet {
        self.select.union(&self.where_)
    }

    /// Whether the query has a where clause.
    pub fn has_filter(&self) -> bool {
        !self.where_.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_expr::{Aggregate, Conjunction, Expr, Predicate};
    use h2o_storage::AttrId;

    #[test]
    fn pattern_of_query() {
        let q = Query::project(
            [Expr::sum_of([AttrId(0), AttrId(1)])],
            Conjunction::of([Predicate::lt(5u32, 3)]),
        )
        .unwrap();
        let p = AccessPattern::of(&q, 0.25);
        assert_eq!(p.select.to_vec(), vec![AttrId(0), AttrId(1)]);
        assert_eq!(p.where_.to_vec(), vec![AttrId(5)]);
        assert!((p.selectivity - 0.25).abs() < 1e-12);
        assert_eq!(p.output_width, 1);
        assert_eq!(p.select_ops, 3);
        assert!(!p.is_aggregate);
        assert!(p.has_filter());
        assert_eq!(p.all_attrs().len(), 3);
    }

    #[test]
    fn grouped_pattern_marks_keys_hot() {
        let q = Query::grouped(
            [Expr::col(7u32)],
            [Aggregate::sum(Expr::col(1u32))],
            Conjunction::of([Predicate::lt(5u32, 3)]),
        )
        .unwrap();
        let p = AccessPattern::of(&q, 0.5);
        assert!(p.is_grouped);
        assert!(!p.is_aggregate, "grouped output is not a single row");
        // The key column is a select-clause attribute: the adviser sees it.
        assert!(p.select.contains(h2o_storage::AttrId(7)));
        assert_eq!(p.output_width, 2);
    }

    #[test]
    fn join_side_pattern_marks_keys_and_payload_hot() {
        let photo = h2o_storage::Schema::typed([
            ("objID", h2o_storage::LogicalType::I64),
            ("ra", h2o_storage::LogicalType::F64),
            ("flags", h2o_storage::LogicalType::I64),
        ])
        .into_shared();
        let spec = h2o_storage::Schema::typed([
            ("bestObjID", h2o_storage::LogicalType::I64),
            ("z", h2o_storage::LogicalType::F64),
        ])
        .into_shared();
        let b = Query::join(("photo", photo), ("spec", spec));
        let ra = b.col("ra").unwrap();
        let z = b.col("z").unwrap();
        let q = b
            .on("objID", "bestObjID")
            .unwrap()
            .filter_left(Conjunction::of([Predicate::lt(2u32, 4)]))
            .project([ra, z])
            .unwrap();
        let left = AccessPattern::of_join_side(&q, Side::Left, 0.3);
        // Key {0} and payload {1} are the select footprint; filter {2} is
        // the where footprint — the adviser sees key+payload as one hot
        // group.
        assert_eq!(left.select.to_vec(), vec![AttrId(0), AttrId(1)]);
        assert_eq!(left.where_.to_vec(), vec![AttrId(2)]);
        assert_eq!(left.output_width, 2);
        assert!(!left.is_aggregate && !left.is_grouped);
        assert!((left.selectivity - 0.3).abs() < 1e-12);
        let right = AccessPattern::of_join_side(&q, Side::Right, 1.0);
        assert_eq!(right.select.to_vec(), vec![AttrId(0), AttrId(1)]);
        assert!(right.where_.is_empty());
    }

    #[test]
    fn selectivity_clamped() {
        let q = Query::aggregate([Aggregate::count()], Conjunction::always()).unwrap();
        assert_eq!(AccessPattern::of(&q, 7.0).selectivity, 1.0);
        assert_eq!(AccessPattern::of(&q, -1.0).selectivity, 0.0);
        assert!(AccessPattern::of(&q, 1.0).is_aggregate);
    }
}
