//! Compiled filters: offset-resolved conjunctive predicates.
//!
//! A [`CompiledFilter`] is the where-clause after "code generation": each
//! predicate's attribute is a [`BoundAttr`] and the comparison is evaluated
//! with the operator dispatched per predicate, not per tuple-per-node as the
//! interpreter does. Scans evaluate the whole conjunction (`where d<v1 and
//! e>v2`, Fig. 5 line 10) into one match mask per 8-row chunk, a 1K-row
//! block at a time (`kernels::simd::RunFilter`), whatever the
//! number of groups the plan reads.
//!
//! # Typed comparison
//!
//! The generator bakes each predicate's [`LogicalType`] into the compiled
//! form and stores its constant pre-mapped into **comparator-key space**
//! ([`LogicalType::cmp_key`]). The per-tuple test is then one key-map of
//! the loaded lane (identity for `I64`/`Dict`, three ALU ops for `F64`)
//! plus a plain integer compare — no per-tuple type dispatch, and `F64`
//! comparisons realize [`f64::total_cmp`] exactly. The key constant is
//! also what zone-map pruning intersects against segment statistics
//! ([`CompiledPred::zone_can_match`]), for every type with the same
//! integer interval arithmetic.

use crate::bind::BoundAttr;
use crate::compile::ExecError;
use h2o_expr::{CmpOp, Conjunction, TypedPredicate};
use h2o_storage::{AttrId, LogicalType, SegStats, Value};

/// One compiled predicate: `view[attr] op value`, with `value` stored in
/// comparator-key space of `ty` (for `I64`/`Dict` the key *is* the lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledPred {
    pub attr: BoundAttr,
    pub op: CmpOp,
    pub ty: LogicalType,
    /// The constant, as a comparator key.
    pub value: Value,
}

impl CompiledPred {
    /// Compiles a predicate from a raw lane constant (maps it into key
    /// space once, here at generation time).
    pub fn from_lane(attr: BoundAttr, op: CmpOp, ty: LogicalType, lane: Value) -> CompiledPred {
        CompiledPred {
            attr,
            op,
            ty,
            value: ty.cmp_key(lane),
        }
    }

    /// Evaluates the predicate against one raw lane word.
    #[inline(always)]
    pub fn matches_lane(&self, lane: Value) -> bool {
        self.op.apply(self.ty.cmp_key(lane), self.value)
    }

    /// The branch-free form of [`LogicalType::cmp_key`] for this
    /// predicate's type, as a mask: `-1` (all ones) for `F64`, `0`
    /// otherwise. The vectorized kernels map a lane to its comparator key
    /// as `lane ^ ((((lane >> 63) as u64) >> 1) as Value & mask)` — the
    /// identity when the mask is `0` — so one uniform lane loop serves
    /// every type with no per-chunk dispatch (see
    /// [`crate::kernels::simd`]).
    #[inline(always)]
    pub fn key_mask(&self) -> Value {
        crate::kernels::simd::key_mask(self.ty)
    }

    /// Whether a segment whose values for this attribute span
    /// `[min, max]` (comparator-key space, inclusive — a sealed segment's
    /// zone-map entry) can possibly contain a matching row. `false` means
    /// the whole segment is skippable.
    #[inline]
    pub fn zone_can_match(&self, (min, max): (Value, Value)) -> bool {
        let c = self.value;
        match self.op {
            CmpOp::Lt => min < c,
            CmpOp::Le => min <= c,
            CmpOp::Gt => max > c,
            CmpOp::Ge => max >= c,
            CmpOp::Eq => min <= c && c <= max,
            CmpOp::Ne => !(min == c && max == c),
        }
    }

    /// [`Self::zone_can_match`] against a sealed segment's full statistics
    /// vector (indexed by the attribute's offset in its group).
    #[inline]
    pub fn zone_can_match_stats(&self, stats: &SegStats) -> bool {
        self.zone_can_match(stats[self.attr.offset as usize])
    }
}

/// A compiled conjunction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompiledFilter {
    preds: Vec<CompiledPred>,
}

impl CompiledFilter {
    /// Builds a compiled filter from resolved predicates.
    pub fn new(preds: Vec<CompiledPred>) -> Self {
        CompiledFilter { preds }
    }

    /// Lowers a where-clause with its plan-time typing (`typed`, in clause
    /// order): `bind` resolves each predicate's attribute — to a plan slot
    /// and group offset for a scan, to a stitched-tuple position for the
    /// fused reorganization.
    pub(crate) fn lower(
        filter: &Conjunction,
        typed: &[TypedPredicate],
        mut bind: impl FnMut(AttrId) -> Result<BoundAttr, ExecError>,
    ) -> Result<Self, ExecError> {
        let preds = filter.predicates().iter().zip(typed);
        let preds = preds
            .map(|(p, tp)| Ok(CompiledPred::from_lane(bind(p.attr)?, p.op, tp.ty, tp.lane)))
            .collect::<Result<_, ExecError>>()?;
        Ok(CompiledFilter { preds })
    }

    /// The always-true filter.
    pub fn always() -> Self {
        CompiledFilter { preds: Vec::new() }
    }

    /// Whether there is no where-clause.
    pub fn is_always_true(&self) -> bool {
        self.preds.is_empty()
    }

    /// The compiled predicates.
    pub fn preds(&self) -> &[CompiledPred] {
        &self.preds
    }

    /// Replaces the predicate constants in order with new **raw lane**
    /// values (operator-cache reuse: the cached operator is
    /// re-parameterized like the paper's generated code, whose constants
    /// `val1`/`val2` are arguments — Fig. 5 line 6). Each lane is mapped
    /// into its predicate's comparator-key space here; the types
    /// themselves are part of the cached operator's shape and cannot
    /// change on rebind.
    pub fn rebind_constants(&mut self, values: &[Value]) {
        debug_assert_eq!(values.len(), self.preds.len());
        for (p, &v) in self.preds.iter_mut().zip(values) {
            p.value = p.ty.cmp_key(v);
        }
    }

    /// Evaluates the conjunction for one row, whose lanes `get` fetches
    /// by bound attribute (the fetch closures of
    /// [`CompiledExpr::eval`](crate::program::CompiledExpr::eval)). The
    /// scans never call it per row: they test 8-row chunks through the
    /// block walker (`kernels::simd::RunFilter`); this is the
    /// scalar oracles' row test.
    #[inline(always)]
    pub fn matches(&self, get: impl Fn(BoundAttr) -> Value) -> bool {
        self.preds.iter().all(|p| p.matches_lane(get(p.attr)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::GroupViews;
    use h2o_storage::{AttrId, ColumnGroup};

    fn views_one_group<'a>(g: &'a h2o_storage::ColumnGroup) -> GroupViews<'a> {
        GroupViews::from_groups(std::slice::from_ref(&g))
    }

    #[test]
    fn two_pred_fused_path() {
        // Group (d, e): tuples (1,9), (5,5), (9,1).
        let g = ColumnGroup::from_columns(vec![AttrId(3), AttrId(4)], &[&[1, 5, 9], &[9, 5, 1]])
            .unwrap();
        let views = views_one_group(&g);
        let f = CompiledFilter::new(vec![
            CompiledPred {
                attr: BoundAttr { slot: 0, offset: 0 },
                op: CmpOp::Lt,
                ty: LogicalType::I64,
                value: 6,
            },
            CompiledPred {
                attr: BoundAttr { slot: 0, offset: 1 },
                op: CmpOp::Gt,
                ty: LogicalType::I64,
                value: 4,
            },
        ]);
        assert!(f.matches(|a| views.get(a, 0)));
        assert!(f.matches(|a| views.get(a, 1)));
        assert!(!f.matches(|a| views.get(a, 2)));
    }

    #[test]
    fn empty_single_and_many_pred_paths() {
        let g = ColumnGroup::from_columns(vec![AttrId(0)], &[&[3, 7]]).unwrap();
        let views = views_one_group(&g);
        let a = BoundAttr { slot: 0, offset: 0 };
        assert!(CompiledFilter::always().matches(|a| views.get(a, 0)));
        let one = CompiledFilter::new(vec![CompiledPred {
            attr: a,
            op: CmpOp::Ge,
            ty: LogicalType::I64,
            value: 5,
        }]);
        assert!(!one.matches(|a| views.get(a, 0)));
        assert!(one.matches(|a| views.get(a, 1)));
        let three = CompiledFilter::new(vec![
            CompiledPred {
                attr: a,
                op: CmpOp::Gt,
                ty: LogicalType::I64,
                value: 0,
            },
            CompiledPred {
                attr: a,
                op: CmpOp::Lt,
                ty: LogicalType::I64,
                value: 10,
            },
            CompiledPred {
                attr: a,
                op: CmpOp::Ne,
                ty: LogicalType::I64,
                value: 3,
            },
        ]);
        assert!(!three.matches(|a| views.get(a, 0)));
        assert!(three.matches(|a| views.get(a, 1)));
    }

    #[test]
    fn rebind_constants() {
        let g = ColumnGroup::from_columns(vec![AttrId(0)], &[&[3]]).unwrap();
        let views = views_one_group(&g);
        let mut f = CompiledFilter::new(vec![CompiledPred {
            attr: BoundAttr { slot: 0, offset: 0 },
            op: CmpOp::Lt,
            ty: LogicalType::I64,
            value: 0,
        }]);
        assert!(!f.matches(|a| views.get(a, 0)));
        f.rebind_constants(&[10]);
        assert!(f.matches(|a| views.get(a, 0)));
    }
}
