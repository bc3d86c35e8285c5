//! The AutoPart offline vertical-partitioning algorithm.
//!
//! Follows the structure of Papadomanolakis & Ailamaki (SSDBM 2004):
//!
//! 1. **Categorization / primary partitions** — attributes with identical
//!    *query-access vectors* (the set of workload queries that touch them)
//!    can never benefit from being separated, so they form the atomic
//!    fragments of the search.
//! 2. **Composite partitions by iterative merging** — pairs of fragments
//!    are merged while the estimated workload cost improves, favoring
//!    pairs that are frequently co-accessed.
//!
//! This is the offline advisor the paper benchmarks H2O against in Fig. 8:
//! it sees the whole workload in advance and emits one static
//! fragmentation. It cannot react if the workload later drifts — which is
//! precisely the gap H2O's online adaptation closes.

use crate::partition_cost;
use h2o_cost::{AccessPattern, CostModel};
use h2o_storage::AttrSet;
use std::collections::HashMap;

/// Safety bound on merge iterations.
const MAX_ROUNDS: usize = 64;

/// The AutoPart offline partitioner, pricing fragmentations with the
/// engine's [`CostModel`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AutoPart;

impl AutoPart {
    /// Phase 1: primary partitions — equivalence classes of attributes
    /// under "accessed by exactly the same queries". Attributes untouched
    /// by the workload form one leftover fragment.
    pub fn primary_partitions(workload: &[AccessPattern], n_attrs: usize) -> Vec<AttrSet> {
        // Access vector per attribute: bitmask of queries touching it.
        let mut vectors: Vec<Vec<u64>> = vec![vec![0; workload.len().div_ceil(64)]; n_attrs];
        for (qi, pat) in workload.iter().enumerate() {
            for a in pat.all_attrs().iter() {
                if a.index() < n_attrs {
                    vectors[a.index()][qi / 64] |= 1 << (qi % 64);
                }
            }
        }
        let mut classes: HashMap<Vec<u64>, AttrSet> = HashMap::new();
        for (attr, vec) in vectors.into_iter().enumerate() {
            classes.entry(vec).or_default().insert(attr.into());
        }
        let mut parts: Vec<AttrSet> = classes.into_values().collect();
        // Deterministic order: by smallest member.
        parts.sort_by_key(|p| p.first().map(|a| a.index()).unwrap_or(usize::MAX));
        parts.retain(|p| !p.is_empty());
        parts
    }

    /// Runs the full algorithm: primary partitions, then cost-guided
    /// pairwise merging until no merge improves the workload cost.
    /// Returns a complete fragmentation of `0..n_attrs`.
    pub fn partition(
        &self,
        workload: &[AccessPattern],
        n_attrs: usize,
        rows: usize,
    ) -> Vec<AttrSet> {
        if n_attrs == 0 {
            return Vec::new();
        }
        let mut parts = Self::primary_partitions(workload, n_attrs);
        if workload.is_empty() {
            return parts;
        }
        let mut best = partition_cost(&CostModel, workload, &parts, rows);
        for _ in 0..MAX_ROUNDS {
            let mut best_merge: Option<(usize, usize, f64)> = None;
            for i in 0..parts.len() {
                for j in (i + 1)..parts.len() {
                    let mut trial: Vec<AttrSet> = Vec::with_capacity(parts.len() - 1);
                    for (k, p) in parts.iter().enumerate() {
                        if k != i && k != j {
                            trial.push(p.clone());
                        }
                    }
                    trial.push(parts[i].union(&parts[j]));
                    let cost = partition_cost(&CostModel, workload, &trial, rows);
                    if cost < best && best_merge.is_none_or(|(_, _, c)| cost < c) {
                        best_merge = Some((i, j, cost));
                    }
                }
            }
            let Some((i, j, cost)) = best_merge else {
                break;
            };
            let merged = parts[i].union(&parts[j]);
            parts = parts
                .into_iter()
                .enumerate()
                .filter(|(k, _)| *k != i && *k != j)
                .map(|(_, p)| p)
                .collect();
            parts.push(merged);
            best = cost;
        }
        parts
    }

    /// The workload cost of a fragmentation under this partitioner's model
    /// (exposed for benchmarking and tests).
    pub fn cost(&self, workload: &[AccessPattern], partition: &[AttrSet], rows: usize) -> f64 {
        partition_cost(&CostModel, workload, partition, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_valid_partition;

    fn aset(ids: &[usize]) -> AttrSet {
        ids.iter().copied().collect()
    }

    fn pattern(select: &[usize], where_: &[usize], sel: f64) -> AccessPattern {
        AccessPattern {
            select: aset(select),
            where_: aset(where_),
            selectivity: sel,
            output_width: 1,
            select_ops: (2 * select.len()).saturating_sub(1).max(1),
            is_aggregate: false,
            is_grouped: false,
        }
    }

    const ROWS: usize = 500_000;

    #[test]
    fn primary_partitions_group_identical_access_vectors() {
        // Queries: q0 touches {0,1}, q1 touches {0,1,2}. Attr 3 untouched.
        let w = vec![pattern(&[0, 1], &[], 1.0), pattern(&[0, 1, 2], &[], 1.0)];
        let parts = AutoPart::primary_partitions(&w, 4);
        // {0,1} identical vectors; {2} its own; {3} untouched.
        assert_eq!(parts.len(), 3);
        assert!(parts.contains(&aset(&[0, 1])));
        assert!(parts.contains(&aset(&[2])));
        assert!(parts.contains(&aset(&[3])));
        assert!(is_valid_partition(&parts, 4));
    }

    #[test]
    fn partition_is_always_valid() {
        let ap = AutoPart;
        let w = vec![
            pattern(&[0, 1, 2], &[7], 0.3),
            pattern(&[2, 3], &[7], 0.3),
            pattern(&[5], &[6], 0.01),
        ];
        let parts = ap.partition(&w, 10, ROWS);
        assert!(is_valid_partition(&parts, 10), "{parts:?}");
    }

    #[test]
    fn repeated_coaccess_merges_fragments() {
        // Heavy workload always touching {0,1,2,3} together (select+where
        // seeds differ so primary partitions would separate them only if
        // access vectors differ — make two query shapes so {0,1} and {2,3}
        // start as distinct primaries, then merging must unite them).
        let mut w = Vec::new();
        for _ in 0..10 {
            w.push(pattern(&[0, 1], &[2, 3], 0.2));
            w.push(pattern(&[0, 1, 2, 3], &[], 1.0));
        }
        let ap = AutoPart;
        let parts = ap.partition(&w, 8, ROWS);
        assert!(is_valid_partition(&parts, 8));
        let containing0 = parts.iter().find(|p| p.contains(0usize.into())).unwrap();
        assert!(
            aset(&[0, 1]).is_subset(containing0),
            "co-accessed attrs should share a fragment: {parts:?}"
        );
    }

    #[test]
    fn merging_never_worsens_cost() {
        let ap = AutoPart;
        let w = vec![pattern(&[0, 1, 2], &[3], 0.4), pattern(&[4, 5], &[3], 0.4)];
        let primaries = AutoPart::primary_partitions(&w, 8);
        let final_parts = ap.partition(&w, 8, ROWS);
        let c_primary = ap.cost(&w, &primaries, ROWS);
        let c_final = ap.cost(&w, &final_parts, ROWS);
        assert!(c_final <= c_primary + 1e-12);
    }

    #[test]
    fn empty_workload_yields_single_fragment_classes() {
        let parts = AutoPart::primary_partitions(&[], 5);
        // All attributes share the empty access vector.
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], AttrSet::all(5));
        let ap = AutoPart;
        assert!(is_valid_partition(&ap.partition(&[], 5, ROWS), 5));
    }

    #[test]
    fn zero_attrs() {
        let ap = AutoPart;
        assert!(ap.partition(&[], 0, ROWS).is_empty());
    }

    #[test]
    fn large_workload_over_64_queries() {
        // Exercises the multi-word access-vector path.
        let w: Vec<AccessPattern> = (0..130)
            .map(|i| pattern(&[i % 4], &[4 + (i % 2)], 0.5))
            .collect();
        let parts = AutoPart::primary_partitions(&w, 8);
        assert!(is_valid_partition(&parts, 8));
        // Attrs 0..3 each have distinct vectors; 6,7 untouched share one.
        assert!(parts.contains(&aset(&[6, 7])));
    }
}
