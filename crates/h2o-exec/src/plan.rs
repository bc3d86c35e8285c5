//! Access plans: which groups a query reads and with which strategy.
//!
//! The planner (in `h2o-core`) enumerates candidate `(layout set, strategy)`
//! pairs, costs them with the model of `h2o-cost`, and hands the winner —
//! an [`AccessPlan`] — to [`compile`](crate::compile::compile).

use h2o_storage::LayoutId;

/// An execution strategy (paper §3.3). See the crate docs for the detailed
/// semantics of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Single pass, predicates pushed into the scan, select-items computed
    /// per block of qualifying tuples, no intermediate results beyond a
    /// 1K-id block (volcano-style; the natural strategy for row-major and
    /// column-group layouts — Fig. 5). It also stands in for the paper's
    /// two-phase selection-vector plan (Fig. 6): that plan found its rows
    /// with the same walker and folded them through the same batch step,
    /// differing only in holding a morsel's ids instead of a block's.
    FusedVolcano,
    /// Pure DSM processing: column-at-a-time filtering that refines the
    /// selection vector and column-at-a-time expression evaluation with
    /// **materialized intermediate columns** (§2.1). The strategy of the
    /// static column-store baseline.
    ColumnMajor,
}

impl Strategy {
    /// All strategies, for planner enumeration.
    pub const ALL: [Strategy; 2] = [Strategy::FusedVolcano, Strategy::ColumnMajor];

    /// Short name for logs and harness output.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::FusedVolcano => "fused",
            Strategy::ColumnMajor => "colmajor",
        }
    }
}

/// A concrete access plan: the groups to read (slot order matters — bound
/// attributes refer to plan slots) and the strategy to run them with.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AccessPlan {
    pub layouts: Vec<LayoutId>,
    pub strategy: Strategy,
}

impl AccessPlan {
    /// Creates a plan.
    pub fn new(layouts: Vec<LayoutId>, strategy: Strategy) -> Self {
        AccessPlan { layouts, strategy }
    }

    /// Number of groups the plan reads.
    pub fn group_count(&self) -> usize {
        self.layouts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names() {
        assert_eq!(Strategy::FusedVolcano.name(), "fused");
        assert_eq!(Strategy::ColumnMajor.name(), "colmajor");
        assert_eq!(Strategy::ALL.len(), 2);
    }

    #[test]
    fn plan_construction() {
        let p = AccessPlan::new(vec![LayoutId(1), LayoutId(2)], Strategy::ColumnMajor);
        assert_eq!(p.group_count(), 2);
        assert_eq!(p.strategy, Strategy::ColumnMajor);
    }
}
