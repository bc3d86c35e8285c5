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
//!
//! # Memoised pricing, bit-exact
//!
//! One round prices hundreds of trial configurations (every merge, drop
//! and rank trial is a full Eq. 1 evaluation), yet consecutive trials
//! differ in one or two groups. The round's pricing state (`Round`) makes
//! a trial cost a few hash lookups without moving a single bit of the
//! recommendation:
//!
//! * **Classes.** Window patterns equal in every field — `selectivity`
//!   compared by its bits, never bucketed — form one class, and a trial
//!   prices each class once.
//! * **The plan depends only on the ordered intersecting groups.** A
//!   pattern is priced by `CostModel::best_plan`, exactly the plan the
//!   query planner would run. Both of its greedy covers
//!   (`h2o_storage::{cover_fewest_groups, cover_least_excess}`) only ever
//!   pick a group that intersects the still-uncovered attributes, a subset
//!   of the pattern's own, and break ties by position among those
//!   candidates; the narrowest single group holding every attribute, when
//!   one exists, is the fewest-groups cover itself, so it intersects the
//!   pattern too. So `best_plan` over a configuration equals `best_plan`
//!   over the subsequence of its groups that intersect the pattern, and
//!   that result (cost and cover) is memoised for the round
//!   under `(class, ordered ids of those groups)`.
//! * **Totals are summed in window order.** f64 addition does not
//!   associate, so the window total is still accumulated pattern by
//!   pattern in window order (never class cost × multiplicity), the first
//!   uncovered pattern still returns `∞`, and the amortized transformation
//!   term is still added per used pool group in pool order.
//!
//! The memo has no capacity setting: it lives and dies with the round.

use crate::affinity::AffinityMatrix;
use h2o_cost::{AccessPattern, CostModel, GroupSpec, PricedPlan};
use h2o_storage::AttrSet;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

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

/// An [`AccessPattern`] hashed and compared by every field, `selectivity`
/// by its bits: the identity of a window class.
struct Exact<'a>(&'a AccessPattern);

impl Exact<'_> {
    fn key(&self) -> (&AttrSet, &AttrSet, u64, usize, usize, bool, bool) {
        // Destructured so that a new pattern field fails to compile here
        // instead of silently merging classes that price differently.
        let AccessPattern {
            select,
            where_,
            selectivity,
            output_width,
            select_ops,
            is_aggregate,
            is_grouped,
        } = self.0;
        (
            select,
            where_,
            selectivity.to_bits(),
            *output_width,
            *select_ops,
            *is_aggregate,
            *is_grouped,
        )
    }
}

impl PartialEq for Exact<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Exact<'_> {}

impl Hash for Exact<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state)
    }
}

/// One window class: a representative pattern and what every trial
/// reuses about it.
struct Class<'a> {
    pat: &'a AccessPattern,
    needed: AttrSet,
    /// Memo-key prefix: the class id, then the positions in `current` of
    /// the groups intersecting `needed` (fixed for the round).
    key: Vec<usize>,
}

/// The memoised `best_plan` of one class over its intersecting groups (the
/// cover as positions in that subsequence), `None` when uncovered.
type Priced = Option<PricedPlan>;

/// One adaptation round's pricing state (see the module docs for why every
/// memo hit is bit-identical to recomputing it). Pool groups are interned:
/// a configuration under trial is `current` plus a list of group ids.
struct Round<'a> {
    model: &'a CostModel,
    current: &'a [GroupSpec],
    rows: usize,
    aff_select: AffinityMatrix,
    aff_where: AffinityMatrix,
    classes: Vec<Class<'a>>,
    /// The class of every window pattern, in window order.
    class_of: Vec<usize>,
    /// Interned pool groups: id `k` is `groups[k]`.
    groups: Vec<GroupSpec>,
    ids: HashMap<AttrSet, usize>,
    /// Per interned group, its amortized transformation cost, or `None`
    /// when `current` already holds it.
    build: Vec<Option<f64>>,
    /// Ordered id pair → the interned union, `None` when the pair's
    /// affinity signal is below [`MIN_MERGE_AFFINITY`].
    merges: HashMap<(usize, usize), Option<usize>>,
    memo: HashMap<Vec<usize>, Priced>,
}

impl<'a> Round<'a> {
    fn new(
        model: &'a CostModel,
        window: &'a [AccessPattern],
        current: &'a [GroupSpec],
        rows: usize,
    ) -> Self {
        // Affinity matrices for select and where clauses, used to prune the
        // merge search. Sized to the largest attribute seen.
        let width = window
            .iter()
            .flat_map(|p| p.select.iter().chain(p.where_.iter()))
            .map(|a| a.index() + 1)
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

        // Classes, numbered by first appearance in the window.
        let mut index: HashMap<Exact<'a>, usize> = HashMap::new();
        let mut classes: Vec<Class<'a>> = Vec::new();
        let class_of = window
            .iter()
            .map(|pat| {
                *index.entry(Exact(pat)).or_insert_with(|| {
                    let id = classes.len();
                    let needed = pat.all_attrs();
                    let mut key = vec![id];
                    key.extend(
                        current
                            .iter()
                            .enumerate()
                            .filter(|(_, g)| g.attrs.intersects(&needed))
                            .map(|(k, _)| k),
                    );
                    classes.push(Class { pat, needed, key });
                    id
                })
            })
            .collect();

        Round {
            model,
            current,
            rows,
            aff_select,
            aff_where,
            classes,
            class_of,
            groups: Vec::new(),
            ids: HashMap::new(),
            build: Vec::new(),
            merges: HashMap::new(),
            memo: HashMap::new(),
        }
    }

    /// The id of the pool group over `attrs`, interning it on first sight.
    fn intern(&mut self, attrs: AttrSet) -> usize {
        if let Some(&id) = self.ids.get(&attrs) {
            return id;
        }
        let g = GroupSpec::new(attrs);
        let already = self.current.iter().any(|c| c.attrs == g.attrs);
        let build = (!already)
            .then(|| self.model.transform_cost(self.rows, &g, self.current) / AMORTIZATION_HORIZON);
        self.build.push(build);
        let id = self.groups.len();
        self.ids.insert(g.attrs.clone(), id);
        self.groups.push(g);
        id
    }

    /// The union of pool groups `a` and `b` (in that order), or `None` if
    /// their affinity is too weak to try it.
    fn merge(&mut self, a: usize, b: usize) -> Option<usize> {
        if let Some(&m) = self.merges.get(&(a, b)) {
            return m;
        }
        let (ga, gb) = (&self.groups[a].attrs, &self.groups[b].attrs);
        let signal = self
            .aff_select
            .group_affinity(ga, gb)
            .max(self.aff_where.group_affinity(ga, gb));
        let merged = (signal >= MIN_MERGE_AFFINITY).then(|| ga.union(gb));
        let m = merged.map(|attrs| self.intern(attrs));
        self.merges.insert((a, b), m);
        m
    }

    /// Evaluates Eq. 1 for `current ∪ pool`: the window's total query cost
    /// under best covers, plus transformation cost for every
    /// *pool* group that at least one query's cover actually uses. Returns
    /// `(total, used)` where `used[i]` says `pool[i]` was used.
    fn window_cost(&mut self, pool: &[usize]) -> (f64, Vec<bool>) {
        let n = self.current.len();
        let mut used = vec![false; pool.len()];
        let mut costs = Vec::with_capacity(self.classes.len());
        let mut key = Vec::new();
        let mut hits = Vec::new();
        // Classes are numbered by first appearance, so pricing them in id
        // order and stopping at the first uncovered one leaves `used`
        // exactly as a pattern-by-pattern pass stopping there would.
        for class in &self.classes {
            key.clear();
            key.extend_from_slice(&class.key);
            hits.clear();
            for (i, &id) in pool.iter().enumerate() {
                if self.groups[id].attrs.intersects(&class.needed) {
                    key.push(n + id);
                    hits.push(i);
                }
            }
            if !self.memo.contains_key(key.as_slice()) {
                let config: Vec<&AttrSet> = key[1..]
                    .iter()
                    .map(|&k| match k.checked_sub(n) {
                        None => &self.current[k].attrs,
                        Some(id) => &self.groups[id].attrs,
                    })
                    .collect();
                let priced = self.model.best_plan(class.pat, &config, self.rows);
                self.memo.insert(key.clone(), priced);
            }
            let Some(plan) = &self.memo[key.as_slice()] else {
                return (f64::INFINITY, used);
            };
            costs.push(plan.cost);
            let in_current = class.key.len() - 1;
            for &s in &plan.cover {
                if let Some(h) = s.checked_sub(in_current) {
                    used[hits[h]] = true;
                }
            }
        }
        let mut total = 0.0;
        for &c in &self.class_of {
            total += costs[c];
        }
        for (&id, &u) in pool.iter().zip(&used) {
            if let (true, Some(t)) = (u, self.build[id]) {
                total += t;
            }
        }
        (total, used)
    }
}

/// The adaptation mechanism's planner: generates and selects candidate
/// layouts for a monitoring window.
#[derive(Debug, Clone, Default)]
pub struct Adviser {
    model: CostModel,
}

impl Adviser {
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
        let mut round = Round::new(&self.model, window, current, rows);

        // Seeds: the narrowest per-query groups, select and where sets
        // taken separately (§3.2), deduplicated.
        let mut seen: HashSet<usize> = HashSet::new();
        let mut pool: Vec<usize> = Vec::new();
        for p in window {
            for set in [&p.select, &p.where_] {
                if set.is_empty() {
                    continue;
                }
                let id = round.intern(set.clone());
                if seen.insert(id) {
                    pool.push(id);
                }
            }
        }
        if pool.is_empty() {
            return Recommendation::none();
        }

        let (baseline, _) = round.window_cost(&[]);
        let (mut best_cost, _) = round.window_cost(&pool);
        let mut trial: Vec<usize> = Vec::with_capacity(pool.len());

        // Iterative merging: take the best cost-improving pairwise union
        // until no merge improves the objective.
        for _ in 0..MAX_MERGE_ROUNDS {
            let mut best_merge: Option<(usize, usize, usize, f64)> = None;
            for i in 0..pool.len() {
                for j in (i + 1)..pool.len() {
                    let Some(merged) = round.merge(pool[i], pool[j]) else {
                        continue;
                    };
                    if seen.contains(&merged) {
                        continue;
                    }
                    trial.clear();
                    trial.extend(without(&pool, |k| k == i || k == j));
                    trial.push(merged);
                    let (cost, _) = round.window_cost(&trial);
                    if cost < best_cost && best_merge.is_none_or(|(.., c)| cost < c) {
                        best_merge = Some((i, j, merged, cost));
                    }
                }
            }
            let Some((i, j, merged, cost)) = best_merge else {
                break;
            };
            seen.insert(merged);
            pool = without(&pool, |k| k == i || k == j).collect();
            pool.push(merged);
            best_cost = cost;
        }

        // Selection: drop pool groups that are unused or whose removal does
        // not hurt (their benefit does not amortize their build cost).
        loop {
            let (cost_all, used) = round.window_cost(&pool);
            // Remove unused groups outright.
            if used.iter().any(|u| !u) {
                pool = without(&pool, |k| !used[k]).collect();
                continue;
            }
            // Try dropping each group; keep the drop that helps most.
            let mut best_drop: Option<(usize, f64)> = None;
            for i in 0..pool.len() {
                trial.clear();
                trial.extend(without(&pool, |k| k == i));
                let (cost, _) = round.window_cost(&trial);
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
        let (cost_final, _) = round.window_cost(&pool);
        let mut ranked: Vec<(f64, usize)> = Vec::with_capacity(pool.len());
        for (i, &id) in pool.iter().enumerate() {
            trial.clear();
            trial.extend(without(&pool, |k| k == i));
            let (cost_without, _) = round.window_cost(&trial);
            ranked.push((cost_without - cost_final, id));
        }
        ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        ranked.truncate(MAX_CANDIDATES);

        let chosen: Vec<usize> = ranked.into_iter().map(|(_, id)| id).collect();
        let (cost_capped, _) = round.window_cost(&chosen);
        let benefit = baseline - cost_capped;
        if benefit <= 0.0 {
            return Recommendation::none();
        }
        Recommendation {
            groups: chosen.iter().map(|&id| round.groups[id].clone()).collect(),
            expected_benefit: benefit,
        }
    }
}

/// The ids of `pool`, in order, except those at the positions `skip`
/// selects.
fn without<'a>(
    pool: &'a [usize],
    skip: impl Fn(usize) -> bool + 'a,
) -> impl Iterator<Item = usize> + 'a {
    pool.iter()
        .enumerate()
        .filter(move |&(k, _)| !skip(k))
        .map(|(_, &id)| id)
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

    /// The adviser as it was before pricing was memoised: every trial
    /// clones `current ∪ pool` and re-prices every window pattern. Kept
    /// as the oracle the memoised [`Adviser::recommend`] must match bit for
    /// bit. Also reports how many merge rounds ran, so the differential can
    /// show it reached [`MAX_MERGE_ROUNDS`].
    mod reference {
        use super::super::*;

        fn window_cost(
            model: &CostModel,
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
            let config: Vec<&AttrSet> = config.iter().map(|g| &g.attrs).collect();
            for pat in window {
                let Some(PricedPlan { cost, cover, .. }) = model.best_plan(pat, &config, rows)
                else {
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
                    total += model.transform_cost(rows, g, current) / AMORTIZATION_HORIZON;
                }
            }
            (total, used)
        }

        pub fn recommend(
            window: &[AccessPattern],
            current: &[GroupSpec],
            rows: usize,
        ) -> (Recommendation, usize) {
            let model = CostModel;
            let window_cost = |pool: &[GroupSpec]| window_cost(&model, window, current, pool, rows);
            if window.is_empty() {
                return (Recommendation::none(), 0);
            }
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
                return (Recommendation::none(), 0);
            }
            let (baseline, _) = window_cost(&[]);
            let (mut best_cost, _) = window_cost(&pool);
            let mut merge_rounds = 0;
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
                        let (cost, _) = window_cost(&trial);
                        if cost < best_cost && best_merge.is_none_or(|(_, _, c)| cost < c) {
                            best_merge = Some((i, j, cost));
                        }
                    }
                }
                let Some((i, j, cost)) = best_merge else {
                    break;
                };
                merge_rounds += 1;
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
            loop {
                let (cost_all, used) = window_cost(&pool);
                if used.iter().any(|u| !u) {
                    pool = pool
                        .into_iter()
                        .zip(used)
                        .filter(|(_, u)| *u)
                        .map(|(g, _)| g)
                        .collect();
                    continue;
                }
                let mut best_drop: Option<(usize, f64)> = None;
                for i in 0..pool.len() {
                    let trial: Vec<GroupSpec> = pool
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| *k != i)
                        .map(|(_, g)| g.clone())
                        .collect();
                    let (cost, _) = window_cost(&trial);
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
                return (Recommendation::none(), merge_rounds);
            }
            let (cost_final, _) = window_cost(&pool);
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
                    let (without, _) = window_cost(&trial);
                    (without - cost_final, g.clone())
                })
                .collect();
            ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            ranked.truncate(MAX_CANDIDATES);
            let groups: Vec<GroupSpec> = ranked.into_iter().map(|(_, g)| g).collect();
            let (cost_capped, _) = window_cost(&groups);
            let benefit = baseline - cost_capped;
            if benefit <= 0.0 {
                return (Recommendation::none(), merge_rounds);
            }
            let rec = Recommendation {
                groups,
                expected_benefit: benefit,
            };
            (rec, merge_rounds)
        }
    }

    /// xorshift64*: a dependency-free seeded generator for the
    /// differential's windows.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Up to `max_len` attributes below `attrs` (duplicates collapse).
        fn set(&mut self, attrs: usize, max_len: usize) -> AttrSet {
            let len = self.below(max_len + 1);
            (0..len).map(|_| self.below(attrs)).collect()
        }
    }

    /// One seeded `(window, current, rows)` case. Mixes the shapes the
    /// memo has to get right: repeated patterns, selectivities jittered in
    /// their low bits, `current` with overlapping and wide groups (or
    /// missing columns, so some patterns are uncovered and Eq. 1 is `∞`),
    /// and chains of select/where pairs whose merges keep paying off until
    /// [`MAX_MERGE_ROUNDS`] stops them.
    fn seeded_case(
        seed: u64,
        max_window: usize,
        chain_every: usize,
    ) -> (Vec<AccessPattern>, Vec<GroupSpec>, usize) {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let attrs = 6 + rng.below(30);
        let rows = [1_000, 50_000, 1_000_000][rng.below(3)];
        let chain = rng.below(chain_every) == 0;
        let classes: Vec<AccessPattern> = if chain {
            // Class k selects {3k, 3k+1} and filters on {3k+1, 3k+2}: the
            // shared attribute gives the two seeds affinity, and their
            // union saves a stitch for every use.
            (0..17 + rng.below(4))
                .map(|k| AccessPattern {
                    select: aset(&[3 * k, 3 * k + 1]),
                    where_: aset(&[3 * k + 1, 3 * k + 2]),
                    selectivity: 0.5,
                    output_width: 1,
                    select_ops: 3,
                    is_aggregate: false,
                    is_grouped: false,
                })
                .collect()
        } else {
            (0..1 + rng.below(8))
                .map(|_| {
                    let select = rng.set(attrs, 5);
                    AccessPattern {
                        select_ops: (2 * select.len()).max(1),
                        select,
                        where_: rng.set(attrs, 3),
                        selectivity: [1.0, 0.5, 0.2, 0.01][rng.below(4)],
                        output_width: 1 + rng.below(3),
                        is_aggregate: rng.below(2) == 0,
                        is_grouped: rng.below(4) == 0,
                    }
                })
                .collect()
        };
        let width = classes
            .iter()
            .filter_map(|p| p.all_attrs().iter().last())
            .map(|a| a.index() + 1)
            .max()
            .unwrap_or(0)
            .max(attrs);
        let len = if chain {
            2 * classes.len()
        } else {
            1 + rng.below(max_window)
        };
        let window: Vec<AccessPattern> = (0..len)
            .map(|i| {
                let mut p = classes[if chain {
                    i % classes.len()
                } else {
                    rng.below(classes.len())
                }]
                .clone();
                if rng.below(4) == 0 {
                    // A few ulps apart: a distinct class, never bucketed.
                    let ulps = 1 + rng.below(3) as u64;
                    p.selectivity = f64::from_bits(p.selectivity.to_bits() - ulps);
                }
                p
            })
            .collect();
        let uncovered = !chain && rng.below(8) == 0;
        let mut current = columns(if uncovered {
            width - 1 - rng.below(width / 2)
        } else {
            width
        });
        for _ in 0..rng.below(4) {
            let len = 2 + rng.below(width - 1);
            current.push(GroupSpec::new(rng.set(width, len)));
        }
        if rng.below(3) == 0 {
            current.push(GroupSpec::new(AttrSet::all(width)));
        }
        (window, current, rows)
    }

    #[test]
    fn memoised_recommend_matches_the_reference_bit_for_bit() {
        // Release builds (CI's concurrency-stress job) run more and longer
        // windows; debug builds keep the tier-1 suite quick.
        let (cases, max_window, chain_every) = if cfg!(debug_assertions) {
            (500, 24, 100)
        } else {
            (2_000, 200, 6)
        };
        let adv = Adviser::default();
        let (mut recommended, mut infinite, mut capped) = (0, 0, 0);
        for seed in 0..cases {
            let (window, current, rows) = seeded_case(seed as u64, max_window, chain_every);
            let (want, merge_rounds) = reference::recommend(&window, &current, rows);
            let got = adv.recommend(&window, &current, rows);
            assert_eq!(
                pinned(&got),
                pinned(&want),
                "seed {seed}: memoised adviser diverged from the reference"
            );
            recommended += usize::from(!want.groups.is_empty());
            infinite += usize::from(want.expected_benefit.is_infinite());
            capped += usize::from(merge_rounds == MAX_MERGE_ROUNDS);
        }
        // The cases must actually reach the paths they are meant to cover.
        assert!(recommended >= cases / 10, "{recommended} recommendations");
        assert!(infinite > 0, "no case priced an uncovered baseline");
        assert!(capped > 0, "no case ran into MAX_MERGE_ROUNDS");
    }
}
