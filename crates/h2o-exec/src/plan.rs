//! Access plans: which groups a query reads and with which strategy.
//!
//! The planner (in `h2o-core`) prices candidate layout sets with the model
//! of `h2o-cost` and hands the winner — an [`AccessPlan`] — to
//! [`compile`](crate::compile::compile).

use h2o_storage::LayoutId;

/// The execution strategy of a plan. The paper gives each layout its own
/// (§3.3: fused for row-major and groups, two-phase with a selection
/// vector, column-at-a-time for columns); this crate runs every plan
/// through the one fused walker, so there is one variant, kept because
/// plans and reports carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Single pass, predicates pushed into the scan, select-items computed
    /// per block of qualifying tuples, no intermediate results beyond a
    /// 1K-id block (Fig. 5). It also stands in for the paper's two-phase
    /// selection-vector plan (Fig. 6), which held a morsel's ids instead
    /// of a block's, and for the column-at-a-time plan of a column layout
    /// (§2.1): over columns that each fill a group of their own, the
    /// walker's aggregate tier and evaluator loop over one column at a
    /// time.
    FusedVolcano,
}

impl Strategy {
    /// Short name for logs and harness output.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::FusedVolcano => "fused",
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
    }

    #[test]
    fn plan_construction() {
        let p = AccessPlan::new(vec![LayoutId(1), LayoutId(2)], Strategy::FusedVolcano);
        assert_eq!(p.group_count(), 2);
        assert_eq!(p.strategy, Strategy::FusedVolcano);
    }
}
