//! Plan-time type checking: the single gate between the typed query
//! surface ([`Datum`](crate::datum::Datum) constants, typed schema) and the lane-word kernels.
//!
//! [`check`] validates a [`Query`] against a [`Schema`] and, on success,
//! returns everything operator generation needs to bake **typed** ops into
//! programs: the lane-encoded predicate constants and the typed select
//! clause ([`SelectTypes`]: each plain select-item's [`LogicalType`] and
//! one [`AggOp`] per aggregate). The engine, the
//! operator generator and the operator cache all call it; the reference
//! interpreter re-derives the same types from the groups it scans (and so
//! only ever sees queries this gate has admitted).
//!
//! The rules are strict — the engine has **no implicit coercions**:
//!
//! * a predicate constant must have exactly its attribute's type;
//! * `Dict` attributes admit only `=` / `<>` predicates (codes carry no
//!   semantic order) and cannot feed arithmetic or non-`count` aggregates;
//! * arithmetic never mixes `i64` and `f64` operands;
//! * string literals appear only as predicate constants.
//!
//! Violations surface as [`QueryError::TypeMismatch`] with a rendered
//! description of the offending clause, *before* planning, compilation or
//! any scan.

use crate::agg::{AggFunc, AggOp};
use crate::join::{JoinQuery, Side};
use crate::predicate::Conjunction;
use crate::query::{Query, QueryError};
use crate::select::Select;
use h2o_storage::{AttrId, LogicalType, Schema, Value};
use std::sync::Arc;

/// One plan-time-resolved predicate: the attribute's logical type and the
/// constant encoded as a raw lane word (dictionary labels already resolved
/// to codes; unknown labels to the matches-nothing code).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypedPredicate {
    pub ty: LogicalType,
    pub lane: Value,
}

/// The typing of a [`Select`] clause, parallel to [`Select::parts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectTypes {
    /// Type of each plain expression (projection or group key), in clause
    /// order.
    pub exprs: Vec<LogicalType>,
    /// Typed op per aggregate, in clause order.
    pub aggs: Vec<AggOp>,
}

impl SelectTypes {
    /// The logical types of the output columns, in output order — what a
    /// caller needs to render a
    /// [`QueryResult`](crate::result::QueryResult)'s lanes.
    pub fn output_types(&self) -> Vec<LogicalType> {
        let aggs = self.aggs.iter().map(|a| a.output_type());
        self.exprs.iter().copied().chain(aggs).collect()
    }
}

/// The typing of a checked query (see [`check`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTypes {
    /// Per where-clause predicate, in clause order.
    pub predicates: Vec<TypedPredicate>,
    /// The select clause.
    pub select: SelectTypes,
}

impl QueryTypes {
    /// The raw lane constants of the predicates, in clause order (what the
    /// operator cache re-parameterizes cached operators with).
    pub fn predicate_lanes(&self) -> Vec<Value> {
        self.predicates.iter().map(|p| p.lane).collect()
    }
}

/// Looks an attribute's type up, defaulting to `I64` for ids outside the
/// schema: *existence* errors keep their established taxonomy
/// (`StorageError::NoCover` / `ExecError::Unbound` from the planner and
/// binder); this gate reports only genuine type conflicts.
fn type_or_default(schema: &Schema, attr: AttrId) -> LogicalType {
    schema.type_of(attr).unwrap_or(LogicalType::I64)
}

/// Type-checks one conjunction of predicates against a schema — the
/// shared predicate gate of [`check`] (the single relation's where-clause)
/// and [`check_join`] (each side's residual filter).
fn check_predicates(
    filter: &Conjunction,
    schema: &Schema,
) -> Result<Vec<TypedPredicate>, QueryError> {
    let mut predicates = Vec::with_capacity(filter.len());
    for p in filter.predicates() {
        let ty = type_or_default(schema, p.attr);
        let const_ty = p.value.logical();
        if const_ty != ty {
            return Err(QueryError::TypeMismatch(format!(
                "predicate {} {} {} compares {} attribute {} with {} constant \
                 (the engine has no implicit casts)",
                p.attr,
                p.op.symbol(),
                p.value,
                ty.name(),
                p.attr,
                const_ty.name()
            )));
        }
        if ty == LogicalType::Dict && p.op.is_ordering() {
            return Err(QueryError::TypeMismatch(format!(
                "predicate {} {} {}: dictionary-encoded attributes admit only \
                 = and <> (codes carry no order)",
                p.attr,
                p.op.symbol(),
                p.value
            )));
        }
        let dict = schema.dictionary(p.attr).map(|d| d.as_ref());
        let lane = p.value.to_lane(ty, dict)?;
        predicates.push(TypedPredicate { ty, lane });
    }
    Ok(predicates)
}

/// Types a select clause under a per-attribute type oracle — the one
/// select gate of [`check`], [`check_join`] (which differ only in how
/// `ty_of` resolves an attribute) and the reference interpreter.
pub(crate) fn check_select<F>(select: &Select, ty_of: &F) -> Result<SelectTypes, QueryError>
where
    F: Fn(AttrId) -> Result<LogicalType, QueryError>,
{
    let (exprs, aggregates) = select.parts();
    let exprs = exprs
        .iter()
        .map(|e| e.type_of(ty_of))
        .collect::<Result<Vec<_>, _>>()?;
    let mut aggs = Vec::with_capacity(aggregates.len());
    for a in aggregates {
        let ty = a.expr.type_of(ty_of)?;
        if a.func != AggFunc::Count && !ty.is_numeric() {
            return Err(QueryError::TypeMismatch(format!(
                "aggregate {a} requires a numeric input; {} is \
                 dictionary-encoded (only count(..) admits dict inputs)",
                a.expr
            )));
        }
        aggs.push(AggOp::new(a.func, ty));
    }
    Ok(SelectTypes { exprs, aggs })
}

/// Type-checks `q` against `schema` (see module docs).
pub fn check(q: &Query, schema: &Schema) -> Result<QueryTypes, QueryError> {
    let ty_of = |a: AttrId| -> Result<LogicalType, QueryError> { Ok(type_or_default(schema, a)) };
    Ok(QueryTypes {
        predicates: check_predicates(q.filter(), schema)?,
        select: check_select(q.select_clause(), &ty_of)?,
    })
}

/// The typing of a checked join query (see [`check_join`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinTypes {
    /// Per left-filter predicate, in clause order.
    pub left_predicates: Vec<TypedPredicate>,
    /// Per right-filter predicate, in clause order.
    pub right_predicates: Vec<TypedPredicate>,
    /// The shared logical type of each equi-join key pair, in `on` order.
    pub key_types: Vec<LogicalType>,
    /// The select clause (combined space).
    pub select: SelectTypes,
}

impl JoinTypes {
    /// The raw lane constants of `side`'s filter, in clause order.
    pub fn predicate_lanes(&self, side: Side) -> Vec<Value> {
        let preds = match side {
            Side::Left => &self.left_predicates,
            Side::Right => &self.right_predicates,
        };
        preds.iter().map(|p| p.lane).collect()
    }
}

/// Type-checks a [`JoinQuery`] against its bound schemas.
///
/// Beyond the per-side filter and select rules of [`check`], the join
/// gate enforces the key rules: each equi-join key pair must share one
/// [`LogicalType`], and dictionary-encoded keys are joinable only when
/// both sides bind the **same** dictionary (`Arc` identity — codes are
/// only comparable within one dictionary; cross-dictionary label joins
/// would need a translation table the engine does not build).
pub fn check_join(q: &JoinQuery) -> Result<JoinTypes, QueryError> {
    let ls = q.left().schema();
    let rs = q.right().schema();

    let mut key_types = Vec::with_capacity(q.on().len());
    for &(l, r) in q.on() {
        let lt = type_or_default(ls, l);
        let rt = type_or_default(rs, r);
        if lt != rt {
            return Err(QueryError::TypeMismatch(format!(
                "join key {}.{} = {}.{} joins {} with {} \
                 (join keys must share a logical type; the engine has no implicit casts)",
                q.left().name(),
                l,
                q.right().name(),
                r,
                lt.name(),
                rt.name()
            )));
        }
        if lt == LogicalType::Dict {
            let shared = match (ls.dictionary(l), rs.dictionary(r)) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            };
            if !shared {
                return Err(QueryError::TypeMismatch(format!(
                    "join key {}.{} = {}.{}: dictionary-encoded keys join on codes, \
                     which requires both sides to share one dictionary",
                    q.left().name(),
                    l,
                    q.right().name(),
                    r
                )));
            }
        }
        key_types.push(lt);
    }

    let left_predicates = check_predicates(q.filter(Side::Left), ls)?;
    let right_predicates = check_predicates(q.filter(Side::Right), rs)?;

    // Select-clause expressions live in the combined space: resolve each
    // attribute through its side's schema (never through a merged schema —
    // the sides stay independently typed).
    let ty_of = |a: AttrId| -> Result<LogicalType, QueryError> {
        let (side, local) = q.side_of(a);
        Ok(type_or_default(q.rel(side).schema(), local))
    };
    Ok(JoinTypes {
        left_predicates,
        right_predicates,
        key_types,
        select: check_select(q.select_clause(), &ty_of)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::predicate::{CmpOp, Conjunction, Predicate};
    use crate::Aggregate;
    use h2o_storage::f64_lane;

    fn schema() -> Schema {
        Schema::typed([
            ("n", LogicalType::I64),
            ("x", LogicalType::F64),
            ("class", LogicalType::Dict),
        ])
    }

    #[test]
    fn well_typed_query_resolves_lanes_and_output_types() {
        let s = schema();
        s.dictionary(AttrId(2)).unwrap().intern("STAR");
        let q = Query::grouped(
            [Expr::col(2u32)],
            [
                Aggregate::sum(Expr::col(1u32).add(Expr::lit(0.5))),
                Aggregate::count(),
            ],
            Conjunction::of([
                Predicate::lt(1u32, 3.25),
                Predicate::eq(2u32, "STAR"),
                Predicate::gt(0u32, 7),
            ]),
        )
        .unwrap();
        let t = check(&q, &s).unwrap();
        assert_eq!(
            t.predicates,
            vec![
                TypedPredicate {
                    ty: LogicalType::F64,
                    lane: f64_lane(3.25)
                },
                TypedPredicate {
                    ty: LogicalType::Dict,
                    lane: 0
                },
                TypedPredicate {
                    ty: LogicalType::I64,
                    lane: 7
                },
            ]
        );
        assert_eq!(t.select.exprs, vec![LogicalType::Dict]);
        assert_eq!(t.select.aggs[0], AggOp::new(AggFunc::Sum, LogicalType::F64));
        assert_eq!(
            t.select.output_types(),
            vec![LogicalType::Dict, LogicalType::F64, LogicalType::I64]
        );
        assert_eq!(t.predicate_lanes(), vec![f64_lane(3.25), 0, 7]);
    }

    #[test]
    fn unknown_label_resolves_to_matchless_code() {
        let s = schema();
        let q = Query::project(
            [Expr::col(0u32)],
            Conjunction::of([Predicate::eq(2u32, "NOT_INTERNED")]),
        )
        .unwrap();
        let t = check(&q, &s).unwrap();
        assert_eq!(t.predicates[0].lane, crate::datum::UNKNOWN_LABEL_CODE);
    }

    #[test]
    fn cross_type_predicate_rejected_with_rendered_message() {
        let s = schema();
        let q = Query::project(
            [Expr::col(0u32)],
            Conjunction::of([Predicate::lt(1u32, 10)]), // i64 constant vs f64 attr
        )
        .unwrap();
        let err = check(&q, &s).unwrap_err();
        assert_eq!(
            err.to_string(),
            "type mismatch: predicate a1 < 10 compares f64 attribute a1 with \
             i64 constant (the engine has no implicit casts)"
        );
    }

    #[test]
    fn dict_range_predicate_rejected() {
        let s = schema();
        let q = Query::project(
            [Expr::col(0u32)],
            Conjunction::of([Predicate::new(2u32, CmpOp::Lt, "STAR")]),
        )
        .unwrap();
        let err = check(&q, &s).unwrap_err();
        assert!(err.to_string().contains("only = and <>"), "{err}");
    }

    #[test]
    fn cross_type_arithmetic_rejected() {
        let s = schema();
        let q = Query::project(
            [Expr::col(0u32).add(Expr::col(1u32))],
            Conjunction::always(),
        )
        .unwrap();
        let err = check(&q, &s).unwrap_err();
        assert_eq!(
            err.to_string(),
            "type mismatch: arithmetic (a0 + a1) mixes i64 and f64 operands \
             (the engine has no implicit casts)"
        );
    }

    #[test]
    fn dict_measure_rejected_but_count_admitted() {
        let s = schema();
        let bad = Query::grouped(
            [Expr::col(0u32)],
            [Aggregate::sum(Expr::col(2u32))],
            Conjunction::always(),
        )
        .unwrap();
        let err = check(&bad, &s).unwrap_err();
        assert!(
            err.to_string().contains("requires a numeric input"),
            "{err}"
        );
        let ok = Query::grouped(
            [Expr::col(2u32)],
            [Aggregate::count()],
            Conjunction::always(),
        )
        .unwrap();
        let t = check(&ok, &s).unwrap();
        assert_eq!(
            t.select.output_types(),
            vec![LogicalType::Dict, LogicalType::I64]
        );
    }

    #[test]
    fn string_literal_outside_predicate_rejected() {
        let s = schema();
        let q = Query::project([Expr::lit("GALAXY")], Conjunction::always()).unwrap();
        let err = check(&q, &s).unwrap_err();
        assert!(err.to_string().contains("predicate constant"), "{err}");
    }

    fn join_schemas() -> (std::sync::Arc<Schema>, std::sync::Arc<Schema>) {
        let photo = Schema::typed([
            ("objID", LogicalType::I64),
            ("ra", LogicalType::F64),
            ("class", LogicalType::Dict),
        ])
        .into_shared();
        let spec = Schema::typed([
            ("bestObjID", LogicalType::I64),
            ("z", LogicalType::F64),
            ("sclass", LogicalType::Dict),
        ])
        .into_shared();
        (photo, spec)
    }

    #[test]
    fn join_keys_type_and_filters_resolve_per_side() {
        let (photo, spec) = join_schemas();
        let b = Query::join(("photo", photo), ("spec", spec));
        let ra = b.col("ra").unwrap();
        let z = b.col("z").unwrap();
        let q = b
            .on("objID", "bestObjID")
            .unwrap()
            .filter_left(Conjunction::of([Predicate::lt(1u32, 2.5)]))
            .filter_right(Conjunction::of([Predicate::gt(1u32, 0.25)]))
            .grouped([ra], [Aggregate::sum(z), Aggregate::count()])
            .unwrap();
        let t = check_join(&q).unwrap();
        assert_eq!(t.key_types, vec![LogicalType::I64]);
        assert_eq!(t.left_predicates[0].ty, LogicalType::F64);
        assert_eq!(t.right_predicates[0].ty, LogicalType::F64);
        assert_eq!(t.select.exprs, vec![LogicalType::F64]);
        assert_eq!(t.select.aggs[0], AggOp::new(AggFunc::Sum, LogicalType::F64));
        assert_eq!(
            t.select.output_types(),
            vec![LogicalType::F64, LogicalType::F64, LogicalType::I64]
        );
        assert_eq!(
            t.predicate_lanes(crate::join::Side::Left),
            vec![f64_lane(2.5)]
        );
        assert_eq!(
            t.predicate_lanes(crate::join::Side::Right),
            vec![f64_lane(0.25)]
        );
    }

    #[test]
    fn join_key_type_mismatch_rejected_with_rendered_message() {
        let (photo, spec) = join_schemas();
        let b = Query::join(("photo", photo), ("spec", spec));
        let ra = b.col("ra").unwrap();
        // objID (i64) against z (f64): rejected at the gate.
        let q = b.on("objID", "z").unwrap().project([ra]).unwrap();
        let err = check_join(&q).unwrap_err();
        assert_eq!(
            err.to_string(),
            "type mismatch: join key photo.a0 = spec.a1 joins i64 with f64 \
             (join keys must share a logical type; the engine has no implicit casts)"
        );
    }

    #[test]
    fn dict_join_keys_require_a_shared_dictionary() {
        // Same-type Dict keys with *independent* dictionaries: rejected —
        // codes are only comparable within one dictionary.
        let (photo, spec) = join_schemas();
        let b = Query::join(("photo", photo.clone()), ("spec", spec));
        let ra = b.col("ra").unwrap();
        let q = b.on("class", "sclass").unwrap().project([ra]).unwrap();
        let err = check_join(&q).unwrap_err();
        assert_eq!(
            err.to_string(),
            "type mismatch: join key photo.a2 = spec.a2: dictionary-encoded keys \
             join on codes, which requires both sides to share one dictionary"
        );
        // With one shared dictionary the same join shape is admitted.
        let class_dict = photo.dictionary(AttrId(2)).unwrap().clone();
        let spec_shared = Schema::typed([
            ("bestObjID", LogicalType::I64),
            ("sclass", LogicalType::Dict),
        ])
        .with_shared_dictionary("sclass", class_dict)
        .into_shared();
        let b = Query::join(("photo", photo), ("spec", spec_shared));
        let ra = b.col("ra").unwrap();
        let q = b.on("class", "sclass").unwrap().project([ra]).unwrap();
        let t = check_join(&q).unwrap();
        assert_eq!(t.key_types, vec![LogicalType::Dict]);
    }

    #[test]
    fn join_select_types_through_the_combined_space() {
        let (photo, spec) = join_schemas();
        let b = Query::join(("photo", photo), ("spec", spec));
        let ra = b.col("ra").unwrap();
        let z = b.col("z").unwrap();
        // ra (left f64) + z (right f64) is well-typed across the seam...
        let q = b
            .clone()
            .on("objID", "bestObjID")
            .unwrap()
            .project([ra.clone().add(z)])
            .unwrap();
        assert_eq!(check_join(&q).unwrap().select.exprs, vec![LogicalType::F64]);
        // ...but ra + bestObjID (right i64) mixes types and is rejected.
        let best = b.col("bestObjID").unwrap();
        let q = b
            .on("objID", "bestObjID")
            .unwrap()
            .project([ra.add(best)])
            .unwrap();
        assert!(check_join(&q)
            .unwrap_err()
            .to_string()
            .contains("mixes f64 and i64"));
    }

    #[test]
    fn attributes_outside_the_schema_default_to_i64() {
        // Existence errors keep their established taxonomy (NoCover /
        // Unbound downstream); the gate only reports type conflicts.
        let empty = Schema::new(Vec::<String>::new());
        let q = Query::project(
            [Expr::col(0u32).add(Expr::col(99u32))],
            Conjunction::of([Predicate::lt(5u32, 3)]),
        )
        .unwrap();
        let t = check(&q, &empty).unwrap();
        assert_eq!(t.select.exprs, vec![LogicalType::I64]);
        assert_eq!(t.predicates[0].ty, LogicalType::I64);
        // ... but a float constant against the implied i64 attr still fails.
        let bad = Query::project(
            [Expr::col(0u32)],
            Conjunction::of([Predicate::lt(5u32, 0.5)]),
        )
        .unwrap();
        assert!(check(&bad, &empty).is_err());
    }
}
