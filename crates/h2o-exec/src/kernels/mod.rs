//! Specialized execution kernels — the output of the "operator generator".
//!
//! Each submodule is one of the paper's generated-code templates (§3.4):
//!
//! * [`fused`] — Fig. 5: one loop, predicates and select-items fused, no
//!   intermediate results;
//! * [`selvector`] — Fig. 6: `q1_sel_vector` + `q1_compute_expression`, the
//!   two-phase plan through a materialized selection vector;
//! * [`colmajor`] — the pure column-store execution model of §2.1, with
//!   per-operator intermediate materialization.
//!
//! [`simd`] holds the chunked lane primitives (masked compares, masked
//! folds, id emission) the three strategies' inner loops share; see its
//! docs for the lane/tail contract that keeps vectorized results
//! bit-identical to scalar ones.
//!
//! Kernels operate on [`GroupViews`] (raw slices)
//! and offset-resolved programs; nothing in a per-tuple loop consults a
//! schema or expression tree (grouped aggregation consults exactly one
//! hash table, which is the operation itself). Each kernel is written for
//! one select shape; [`crate::sink`] picks the kernel for a program.

pub mod colmajor;
pub mod fused;
pub mod grouped;
pub mod selvector;
pub mod simd;

use crate::bind::GroupViews;
use crate::filter::CompiledFilter;
use crate::selvec::SelVec;
use h2o_storage::{LogicalType, Value};
use std::ops::Range;

/// Phase 1 of the two id-based strategies over one row range: the
/// qualifying ids within `range`, ascending — by the one-pass conjunction
/// scan ([`selvector::build_selvec_range`]) or, when `columnar`, by
/// column-at-a-time refinement ([`colmajor::build_selvec_columnar_range`]).
pub(crate) fn qualifying_ids(
    columnar: bool,
    views: &GroupViews<'_>,
    filter: &CompiledFilter,
    range: Range<usize>,
) -> SelVec {
    if columnar {
        colmajor::build_selvec_columnar_range(views, filter, range)
    } else {
        selvector::build_selvec_range(views, filter, range)
    }
}

/// Typed accumulator micro-ops shared by the specialized (flat-slot)
/// aggregation tiers of every kernel. Each takes the loop-invariant
/// [`LogicalType`] by value; the type dispatch is a single predictable
/// branch the compiler unswitches out of the row loop, so the `I64` paths
/// compile to exactly the pre-typed code. Min/max accumulators live in
/// **comparator-key space** ([`LogicalType::cmp_key`] — identity for
/// `I64`), matching what [`h2o_expr::agg::AggState::from_parts`] expects.
#[inline(always)]
pub(crate) fn upd_max(ty: LogicalType, acc: &mut Value, v: Value) {
    let k = ty.cmp_key(v);
    if k > *acc {
        *acc = k;
    }
}

#[inline(always)]
pub(crate) fn upd_min(ty: LogicalType, acc: &mut Value, v: Value) {
    let k = ty.cmp_key(v);
    if k < *acc {
        *acc = k;
    }
}

#[inline(always)]
pub(crate) fn upd_sum(ty: LogicalType, acc: &mut Value, v: Value) {
    *acc = match ty {
        LogicalType::F64 => {
            h2o_storage::f64_lane(h2o_storage::lane_f64(*acc) + h2o_storage::lane_f64(v))
        }
        _ => acc.wrapping_add(v),
    };
}
