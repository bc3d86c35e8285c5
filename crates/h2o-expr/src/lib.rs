//! # h2o-expr — queries, expressions and the interpreted generic operator
//!
//! This crate defines the logical query language H2O's evaluation exercises
//! (select-project-aggregate over one wide relation, SIGMOD 2014 §2.2/§4.2.1):
//!
//! * [`Expr`] — arithmetic expressions over attributes (`a + b + c`),
//! * [`Predicate`]/[`Conjunction`] — conjunctive range filters
//!   (`d < v1 and e > v2`),
//! * [`Aggregate`] — `sum`/`min`/`max`/`count`/`avg` over expressions,
//! * [`Select`] — the select clause: projection, scalar aggregation, or
//!   grouped aggregation (beyond the paper's evaluation), validated on
//!   construction and shared by both query kinds,
//! * [`Query`] — the select-project-aggregate statement (a [`Select`] plus
//!   a where-clause) with the paper's three templates (projection,
//!   aggregation, arithmetic expression),
//! * [`JoinQuery`] — a two-relation equi-join with a filter per side and
//!   the same [`Select`] over the combined attribute space,
//! * [`QueryResult`] — row-major output blocks ("all execution strategies
//!   materialize the output results ... in a row-major layout", §3.3),
//! * [`GroupedAggs`] — the grouped-aggregation state every strategy folds
//!   through, over the flat raw-lane hash table [`LaneMap`] that the join
//!   build in `h2o-exec` also uses; output rows are emitted sorted
//!   ascending by key vector so all strategies (and morsel-parallel
//!   execution, which merges per-morsel tables) agree bit-for-bit.
//!
//! It also implements the **generic operator** ([`interp`]): a
//! tuple-at-a-time interpreter that evaluates any query over any set of
//! column groups through dynamic dispatch on the expression tree. This is
//! the baseline that the paper's *generated code* beats in Fig. 14 — the
//! interpretation overhead it embodies is exactly what the specialized
//! kernels in `h2o-exec` remove.
//!
//! # Typed values on a fixed lane
//!
//! Every value the engine stores or computes is a 64-bit lane word typed
//! by the schema ([`h2o_storage::LogicalType`]): `i64`, `f64` (bit
//! pattern) or a dictionary code. [`Datum`] is the typed boundary —
//! constants in queries, decoded result cells — and [`typecheck::check`]
//! is the plan-time gate that rejects cross-type predicates and
//! arithmetic ([`QueryError::TypeMismatch`]): there are no implicit
//! coercions anywhere in the engine.
//!
//! Determinism is engine-wide and typed: integer arithmetic is wrapping;
//! `f64` comparisons, min/max and grouped-key ordering follow
//! [`f64::total_cmp`] (via the comparator-key mapping in `h2o-storage`);
//! `f64` sums fold in row order within a morsel and merge in morsel order.
//! Every execution strategy — interpreted, volcano, vectorized, fused —
//! therefore produces bit-identical results and can be
//! differential-tested against this interpreter.

pub mod agg;
pub mod datum;
pub mod expr;
pub mod grouped;
pub mod interp;
pub mod join;
pub mod lanemap;
pub mod predicate;
pub mod query;
pub mod result;
pub mod select;
pub mod typecheck;
pub mod wire;

pub use agg::{AggFunc, AggOp, Aggregate};
pub use datum::Datum;
pub use expr::{ArithOp, Expr};
pub use grouped::GroupedAggs;
pub use interp::{interpret, interpret_join};
pub use join::{JoinBuilder, JoinQuery, RelRef, Side};
pub use lanemap::LaneMap;
pub use predicate::{CmpOp, Conjunction, Predicate};
pub use query::{Query, QueryError};
pub use result::QueryResult;
pub use select::Select;
pub use typecheck::{check_join, JoinTypes, QueryTypes, SelectTypes, TypedPredicate};
pub use wire::{
    join_from_json, join_to_json, query_from_json, query_to_json, result_to_json, Json, WireError,
};
