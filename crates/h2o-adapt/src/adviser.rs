//! Candidate layout generation and selection.
//!
//! "H2O starts with the attributes accessed by the queries to generate
//! potential data layouts. The initial configuration contains the narrowest
//! possible groups of columns. ... Then, the algorithm progressively
//! improves the proposed solution by considering new groups of columns. The
//! new groups are generated by merging narrow groups with groups generated
//! in previous iterations. The generation and selection phases are repeated
//! multiple times until no further improvement is possible for the input
//! workload." (§3.2)
//!
//! The search is guided by the Eq. 1 objective
//! `cost(W, C) = Σ q_j(C) + T(C_prev, C)`: every candidate configuration is
//! priced over the monitoring window **including the transformation cost**
//! of the new groups it would require, "since the benefit of a new data
//! layout depends on the cost of generating it and on how many times H2O is
//! going to use it in order to amortize the creation cost".

use crate::affinity::AffinityMatrix;
use h2o_cost::{AccessPattern, CostModel, GroupSpec};
use h2o_storage::AttrSet;
use std::collections::HashSet;

/// Upper bound on merge iterations (safety valve; the loop normally
/// terminates on "no further improvement").
const MAX_MERGE_ROUNDS: usize = 16;

/// Maximum number of candidate groups recommended per round (the Fig. 7
/// walkthrough proposes a candidate list of 4).
const MAX_CANDIDATES: usize = 4;

/// Only group pairs whose affinity-matrix signal is at least this are
/// merged (prunes the quadratic pair space).
const MIN_MERGE_AFFINITY: f64 = 0.25;

/// How many monitoring windows a new layout is expected to serve. The
/// Eq. 1 transformation cost is divided by this factor: the window is a
/// *sample* of the workload, and "the benefit of a new data layout depends
/// on ... how many times H2O is going to use it in order to amortize the
/// creation cost" (§3.2) — uses continue beyond the window.
const AMORTIZATION_HORIZON: f64 = 3.0;

/// The adviser's output: layouts worth materializing, with the expected
/// window-cost saving that justified them.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// Candidate groups, best-first. These become *pending* layouts; the
    /// engine materializes each lazily when a query can benefit.
    pub groups: Vec<GroupSpec>,
    /// `cost(W, C_current) − cost(W, C_recommended)` under Eq. 1 (≥ 0; the
    /// adviser never recommends a regression).
    pub expected_benefit: f64,
}

impl Recommendation {
    /// The empty recommendation (keep the current configuration).
    pub fn none() -> Self {
        Recommendation {
            groups: Vec::new(),
            expected_benefit: 0.0,
        }
    }
}

/// The adaptation mechanism's planner: generates and selects candidate
/// layouts for a monitoring window.
#[derive(Debug, Clone, Default)]
pub struct Adviser {
    model: CostModel,
}

impl Adviser {
    /// Evaluates Eq. 1 for `current ∪ pool`: the window's total query cost
    /// under best covers/strategies, plus transformation cost for every
    /// *pool* group that at least one query's cover actually uses. Returns
    /// `(total, used)` where `used[i]` says pool group `i` was used.
    fn window_cost(
        &self,
        window: &[AccessPattern],
        current: &[GroupSpec],
        pool: &[GroupSpec],
        rows: usize,
    ) -> (f64, Vec<bool>) {
        let mut config: Vec<GroupSpec> = Vec::with_capacity(current.len() + pool.len());
        config.extend(current.iter().cloned());
        config.extend(pool.iter().cloned());
        let mut used = vec![false; pool.len()];
        let mut total = 0.0;
        for pat in window {
            let Some((cost, cover)) = self.model.best_cover_cost(pat, &config, rows) else {
                return (f64::INFINITY, used);
            };
            total += cost;
            for &i in &cover {
                if i >= current.len() {
                    used[i - current.len()] = true;
                }
            }
        }
        for (i, g) in pool.iter().enumerate() {
            let already = current.iter().any(|c| c.attrs == g.attrs);
            if used[i] && !already {
                total += self.model.transform_cost(rows, g, current) / AMORTIZATION_HORIZON;
            }
        }
        (total, used)
    }

    /// Runs one adaptation round: candidate generation (seed + iterative
    /// merging) followed by selection (keep only candidates whose presence
    /// lowers the Eq. 1 objective).
    pub fn recommend(
        &self,
        window: &[AccessPattern],
        current: &[GroupSpec],
        rows: usize,
    ) -> Recommendation {
        if window.is_empty() {
            return Recommendation::none();
        }

        // Affinity matrices for select and where clauses, used to prune the
        // merge search. Sized to the largest attribute seen.
        let width = window
            .iter()
            .flat_map(|p| {
                let attrs = p.all_attrs();
                attrs.iter().map(|a| a.index() + 1).collect::<Vec<_>>()
            })
            .max()
            .unwrap_or(0);
        let mut aff_select = AffinityMatrix::new(width);
        let mut aff_where = AffinityMatrix::new(width);
        for p in window {
            if !p.select.is_empty() {
                aff_select.record(&p.select);
            }
            if !p.where_.is_empty() {
                aff_where.record(&p.where_);
            }
        }

        // Seeds: the narrowest per-query groups, select and where sets
        // taken separately (§3.2), deduplicated and not already
        // materialized.
        let mut seen: HashSet<AttrSet> = HashSet::new();
        let mut pool: Vec<GroupSpec> = Vec::new();
        for p in window {
            for set in [&p.select, &p.where_] {
                if set.is_empty() || !seen.insert(set.clone()) {
                    continue;
                }
                pool.push(GroupSpec::new(set.clone()));
            }
        }
        if pool.is_empty() {
            return Recommendation::none();
        }

        let (baseline, _) = self.window_cost(window, current, &[], rows);
        let (mut best_cost, _) = self.window_cost(window, current, &pool, rows);

        // Iterative merging: take the best cost-improving pairwise union
        // until no merge improves the objective.
        for _ in 0..MAX_MERGE_ROUNDS {
            let mut best_merge: Option<(usize, usize, f64)> = None;
            for i in 0..pool.len() {
                for j in (i + 1)..pool.len() {
                    let signal = aff_select
                        .group_affinity(&pool[i].attrs, &pool[j].attrs)
                        .max(aff_where.group_affinity(&pool[i].attrs, &pool[j].attrs));
                    if signal < MIN_MERGE_AFFINITY {
                        continue;
                    }
                    let merged = GroupSpec::new(pool[i].attrs.union(&pool[j].attrs));
                    if seen.contains(&merged.attrs) {
                        continue;
                    }
                    let mut trial: Vec<GroupSpec> = Vec::with_capacity(pool.len() - 1);
                    for (k, g) in pool.iter().enumerate() {
                        if k != i && k != j {
                            trial.push(g.clone());
                        }
                    }
                    trial.push(merged);
                    let (cost, _) = self.window_cost(window, current, &trial, rows);
                    if cost < best_cost && best_merge.is_none_or(|(_, _, c)| cost < c) {
                        best_merge = Some((i, j, cost));
                    }
                }
            }
            let Some((i, j, cost)) = best_merge else {
                break;
            };
            let merged = GroupSpec::new(pool[i].attrs.union(&pool[j].attrs));
            seen.insert(merged.attrs.clone());
            pool = pool
                .into_iter()
                .enumerate()
                .filter(|(k, _)| *k != i && *k != j)
                .map(|(_, g)| g)
                .collect();
            pool.push(merged);
            best_cost = cost;
        }

        // Selection: drop pool groups that are unused or whose removal does
        // not hurt (their benefit does not amortize their build cost).
        loop {
            let (cost_all, used) = self.window_cost(window, current, &pool, rows);
            // Remove unused groups outright.
            if used.iter().any(|u| !u) {
                pool = pool
                    .into_iter()
                    .zip(used)
                    .filter(|(_, u)| *u)
                    .map(|(g, _)| g)
                    .collect();
                continue;
            }
            // Try dropping each group; keep the drop that helps most.
            let mut best_drop: Option<(usize, f64)> = None;
            for i in 0..pool.len() {
                let trial: Vec<GroupSpec> = pool
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| *k != i)
                    .map(|(_, g)| g.clone())
                    .collect();
                let (cost, _) = self.window_cost(window, current, &trial, rows);
                if cost <= cost_all && best_drop.is_none_or(|(_, c)| cost < c) {
                    best_drop = Some((i, cost));
                }
            }
            match best_drop {
                Some((i, _)) => {
                    pool.remove(i);
                }
                None => break,
            }
            if pool.is_empty() {
                break;
            }
        }

        if pool.is_empty() {
            return Recommendation::none();
        }

        // Rank survivors by marginal benefit and cap the list.
        let (cost_final, _) = self.window_cost(window, current, &pool, rows);
        let mut ranked: Vec<(f64, GroupSpec)> = pool
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let trial: Vec<GroupSpec> = pool
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| *k != i)
                    .map(|(_, x)| x.clone())
                    .collect();
                let (without, _) = self.window_cost(window, current, &trial, rows);
                (without - cost_final, g.clone())
            })
            .collect();
        ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        ranked.truncate(MAX_CANDIDATES);

        let groups: Vec<GroupSpec> = ranked.into_iter().map(|(_, g)| g).collect();
        let (cost_capped, _) = self.window_cost(window, current, &groups, rows);
        let benefit = baseline - cost_capped;
        if benefit <= 0.0 {
            return Recommendation::none();
        }
        Recommendation {
            groups,
            expected_benefit: benefit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aset(ids: &[usize]) -> AttrSet {
        ids.iter().copied().collect()
    }

    fn columns(n: usize) -> Vec<GroupSpec> {
        (0..n).map(|i| GroupSpec::new(aset(&[i]))).collect()
    }

    fn expr_pattern(select: &[usize], where_: &[usize], sel: f64) -> AccessPattern {
        AccessPattern {
            select: aset(select),
            where_: aset(where_),
            selectivity: sel,
            output_width: 1,
            select_ops: 2 * select.len() - 1,
            is_aggregate: false,
            is_grouped: false,
        }
    }

    const ROWS: usize = 1_000_000;

    /// A recommendation as `(groups in order, expected_benefit bits)`. The
    /// tests below pin both: the engine materializes exactly these groups
    /// in exactly this order, so a refactor of the adviser or of the cost
    /// model underneath it must not move either.
    fn pinned(rec: &Recommendation) -> (Vec<Vec<usize>>, u64) {
        let groups = rec
            .groups
            .iter()
            .map(|g| g.attrs.iter().map(|a| a.index()).collect())
            .collect();
        (groups, rec.expected_benefit.to_bits())
    }

    #[test]
    fn empty_window_recommends_nothing() {
        let adv = Adviser::default();
        let rec = adv.recommend(&[], &columns(4), ROWS);
        assert!(rec.groups.is_empty());
        assert_eq!(rec.expected_benefit, 0.0);
    }

    #[test]
    fn hot_attribute_cluster_yields_group() {
        // 40 queries all computing a filtered expression over {0,1,2,3,4}
        // with predicate on {5}: the adviser must propose group(s) covering
        // those attributes with positive expected benefit.
        let adv = Adviser::default();
        let window: Vec<AccessPattern> = (0..40)
            .map(|_| expr_pattern(&[0, 1, 2, 3, 4], &[5], 0.2))
            .collect();
        let rec = adv.recommend(&window, &columns(20), ROWS);
        assert!(
            !rec.groups.is_empty(),
            "a hot cluster must produce candidates"
        );
        assert!(rec.expected_benefit > 0.0);
        let union = rec
            .groups
            .iter()
            .fold(AttrSet::new(), |acc, g| acc.union(&g.attrs));
        assert!(
            aset(&[0, 1, 2, 3, 4]).is_subset(&union),
            "candidates must cover the hot select set, got {union:?}"
        );
        assert_eq!(
            pinned(&rec),
            (vec![vec![0, 1, 2, 3, 4]], 0x3ff6_dfea_2798_3c0c)
        );
    }

    #[test]
    fn already_materialized_group_not_recommended() {
        // If the ideal group already exists, there is nothing to build.
        let adv = Adviser::default();
        let window: Vec<AccessPattern> = (0..40)
            .map(|_| expr_pattern(&[0, 1, 2], &[3], 0.2))
            .collect();
        let mut current = columns(10);
        current.push(GroupSpec::new(aset(&[0, 1, 2])));
        current.push(GroupSpec::new(aset(&[3])));
        let rec = adv.recommend(&window, &current, ROWS);
        for g in &rec.groups {
            assert!(
                !current.iter().any(|c| c.attrs == g.attrs),
                "must not re-recommend an existing layout"
            );
        }
        assert_eq!(pinned(&rec), (vec![], 0));
    }

    #[test]
    fn diverse_unrepeated_queries_recommend_little() {
        // A window where every query touches a different attribute set
        // once: no group amortizes, so the recommendation must be empty or
        // tiny.
        let adv = Adviser::default();
        let window: Vec<AccessPattern> = (0..12)
            .map(|i| expr_pattern(&[i * 3, i * 3 + 1], &[i * 3 + 2], 0.5))
            .collect();
        let rec = adv.recommend(&window, &columns(40), 50_000);
        // With tiny relations and one use each, building layouts cannot
        // amortize.
        assert_eq!(pinned(&rec), (vec![], 0));
    }

    #[test]
    fn candidate_cap_respected() {
        // Six disjoint hot clusters all pay off; only the best
        // `MAX_CANDIDATES` are recommended.
        let adv = Adviser::default();
        let mut window = Vec::new();
        for _ in 0..20 {
            for c in 0..6 {
                window.push(expr_pattern(
                    &[c * 4, c * 4 + 1, c * 4 + 2],
                    &[c * 4 + 3],
                    0.2,
                ));
            }
        }
        let rec = adv.recommend(&window, &columns(24), ROWS);
        assert_eq!(rec.groups.len(), MAX_CANDIDATES);
        assert_eq!(
            pinned(&rec),
            (
                vec![
                    vec![0, 1, 2],
                    vec![4, 5, 6],
                    vec![8, 9, 10],
                    vec![12, 13, 14]
                ],
                0x3ff2_cd9e_83e4_2598
            )
        );
    }

    #[test]
    fn benefit_never_negative() {
        let adv = Adviser::default();
        let window: Vec<AccessPattern> = (0..10).map(|_| expr_pattern(&[0], &[], 1.0)).collect();
        let rec = adv.recommend(&window, &columns(4), 1000);
        assert!(rec.expected_benefit >= 0.0);
        assert_eq!(pinned(&rec), (vec![], 0));
    }

    #[test]
    fn select_and_where_seeds_kept_separate() {
        // Queries with select {0,1} and where {5,6}: if any candidates are
        // proposed, their seeds come from those two sets — the union
        // {0,1,5,6} only appears if merging actually helped.
        let adv = Adviser::default();
        let window: Vec<AccessPattern> = (0..40)
            .map(|_| expr_pattern(&[0, 1], &[5, 6], 0.1))
            .collect();
        let rec = adv.recommend(&window, &columns(10), ROWS);
        for g in &rec.groups {
            let s = &g.attrs;
            let from_seeds = aset(&[0, 1]).is_subset(s) || aset(&[5, 6]).is_subset(s);
            assert!(from_seeds, "candidate {s:?} must derive from query seeds");
        }
        assert_eq!(pinned(&rec), (vec![vec![0, 1]], 0x3fd2_bb0c_f87d_9c6c));
    }
}
