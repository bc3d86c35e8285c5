//! # h2o-partition — offline vertical partitioning
//!
//! The offline baselines H2O is compared against and builds on:
//!
//! * [`AutoPart`] — a reimplementation of the AutoPart offline vertical
//!   partitioning algorithm (Papadomanolakis & Ailamaki, SSDBM 2004), the
//!   tool the paper uses as the static-advisor baseline in Fig. 8 and the
//!   algorithm H2O "extends … to work for dynamic scenarios" (§5). Given
//!   the *whole* workload up front it produces a single fragmentation of
//!   the relation: category-based primary partitions (attributes with
//!   identical query-access vectors) refined by cost-guided pairwise
//!   merging.
//! * [`brute_force`] — exact optimal partitioning by exhaustive enumeration
//!   of set partitions (Bell-number search, feasible to ~10 attributes),
//!   used as a test oracle for the heuristics. The paper notes the exact
//!   problem is NP-hard and that a 10-attribute table already has 115 975
//!   partitions — which is exactly what this module enumerates.
//!
//! Both optimize the same objective the adaptive engine uses: total
//! workload cost under the `h2o-cost` model (Eq. 1 without the
//! transformation term — offline tools build their layout before the
//! workload runs, and Fig. 8 charges that creation time separately).

pub mod autopart;
pub mod bruteforce;

pub use autopart::{AutoPart, AutoPartConfig};
pub use bruteforce::brute_force;

use h2o_cost::{AccessPattern, CostModel};
use h2o_storage::AttrSet;

/// Total workload cost of a complete partition: each query is priced with
/// the plan the engine's planner would pick over the fragments
/// ([`CostModel::best_plan`]); `∞` if some query is not covered.
pub fn partition_cost(
    model: &CostModel,
    workload: &[AccessPattern],
    partition: &[AttrSet],
    rows: usize,
) -> f64 {
    let fragments: Vec<&AttrSet> = partition.iter().collect();
    let mut total = 0.0;
    for pat in workload {
        match model.best_plan(pat, &fragments, rows) {
            Some(plan) => total += plan.cost,
            None => return f64::INFINITY,
        }
    }
    total
}

/// Checks that `partition` is a valid fragmentation of `0..n_attrs`: every
/// attribute in exactly one non-empty fragment.
pub fn is_valid_partition(partition: &[AttrSet], n_attrs: usize) -> bool {
    let mut seen = AttrSet::new();
    for frag in partition {
        if frag.is_empty() || frag.intersects(&seen) {
            return false;
        }
        seen.union_with(frag);
    }
    seen == AttrSet::all(n_attrs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aset(ids: &[usize]) -> AttrSet {
        ids.iter().copied().collect()
    }

    #[test]
    fn valid_partition_checks() {
        assert!(is_valid_partition(&[aset(&[0, 1]), aset(&[2])], 3));
        assert!(!is_valid_partition(&[aset(&[0, 1])], 3), "misses attr 2");
        assert!(
            !is_valid_partition(&[aset(&[0, 1]), aset(&[1, 2])], 3),
            "overlap"
        );
        assert!(
            !is_valid_partition(&[aset(&[0, 1, 2]), AttrSet::new()], 3),
            "empty fragment"
        );
        assert!(is_valid_partition(&[], 0));
    }

    #[test]
    fn partition_cost_infinite_when_uncovered() {
        let model = CostModel;
        let pat = AccessPattern {
            select: aset(&[5]),
            where_: AttrSet::new(),
            selectivity: 1.0,
            output_width: 1,
            select_ops: 1,
            is_aggregate: true,
            is_grouped: false,
        };
        let cost = partition_cost(&model, &[pat], &[aset(&[0])], 1000);
        assert!(cost.is_infinite());
    }
}
