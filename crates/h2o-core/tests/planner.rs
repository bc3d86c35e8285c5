//! Planner differential: [`H2oEngine::plan`], which asks the cost model's
//! `best_plan` for the cheapest cover, against a verbatim copy of the
//! planner it replaced, which enumerated the catalog's two greedy covers
//! and its narrowest superset itself. Every seeded `(catalog, pattern)`
//! case must give the same layout ids in the same order and the same cost
//! bits.
//!
//! Release builds (CI's concurrency-stress job) run 5,000 cases; debug
//! builds a smaller seeded set so the tier-1 suite stays quick.

use h2o_core::{EngineConfig, EngineError, H2oEngine};
use h2o_cost::{AccessPattern, CostModel};
use h2o_storage::{AttrId, AttrSet, Relation, Schema, Value};

/// The planner before `CostModel::best_plan`, kept verbatim apart from
/// calling `plan_cost` with the plan's groups instead of a plan value and
/// pricing the one strategy (whose price is the cheapest of the
/// formulas the old per-strategy prices were).
mod reference {
    use h2o_cost::{AccessPattern, CostModel};
    use h2o_exec::{AccessPlan, Strategy};
    use h2o_storage::{AttrId, AttrSet, LayoutCatalog, LayoutId, StorageError};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum CoverPolicy {
        FewestGroups,
        LeastExcessWidth,
    }

    fn cover(
        catalog: &LayoutCatalog,
        attrs: &AttrSet,
        policy: CoverPolicy,
    ) -> Result<Vec<(LayoutId, AttrSet)>, StorageError> {
        let mut remaining = attrs.clone();
        let mut chosen = Vec::new();
        while !remaining.is_empty() {
            let best = catalog
                .groups()
                .filter(|g| g.attr_set().intersects(&remaining))
                .max_by(|a, b| {
                    let (ca, cb) = (
                        a.attr_set().intersection_len(&remaining),
                        b.attr_set().intersection_len(&remaining),
                    );
                    // Excess = stored attributes that the query does not need.
                    let (ea, eb) = (a.width() - ca, b.width() - cb);
                    match policy {
                        CoverPolicy::FewestGroups => {
                            ca.cmp(&cb).then(eb.cmp(&ea)).then(b.id().cmp(&a.id()))
                        }
                        CoverPolicy::LeastExcessWidth => {
                            // Maximize covered-per-excess: compare ca*(eb+1)
                            // vs cb*(ea+1) to avoid floats.
                            (ca * (eb + 1))
                                .cmp(&(cb * (ea + 1)))
                                .then(ca.cmp(&cb))
                                .then(b.id().cmp(&a.id()))
                        }
                    }
                });
            let Some(best) = best else {
                return Err(StorageError::NoCover(remaining.first().expect("non-empty")));
            };
            let responsible = best.attr_set().intersection(&remaining);
            remaining.difference_with(&responsible);
            chosen.push((best.id(), responsible));
        }
        Ok(chosen)
    }

    fn cover_alternatives(
        catalog: &LayoutCatalog,
        attrs: &AttrSet,
    ) -> Result<Vec<Vec<(LayoutId, AttrSet)>>, StorageError> {
        let a = cover(catalog, attrs, CoverPolicy::FewestGroups)?;
        let b = cover(catalog, attrs, CoverPolicy::LeastExcessWidth)?;
        let mut out = vec![a];
        if out[0].iter().map(|(id, _)| *id).collect::<Vec<_>>()
            != b.iter().map(|(id, _)| *id).collect::<Vec<_>>()
        {
            out.push(b);
        }
        Ok(out)
    }

    pub fn find_superset(catalog: &LayoutCatalog, attrs: &AttrSet) -> Option<LayoutId> {
        catalog
            .groups()
            .filter(|g| attrs.is_subset(g.attr_set()))
            .min_by_key(|g| g.width())
            .map(|g| g.id())
    }

    fn plan_groups(catalog: &LayoutCatalog, plan: &AccessPlan) -> Vec<AttrSet> {
        plan.layouts
            .iter()
            .map(|&id| catalog.group(id).unwrap().attr_set().clone())
            .collect()
    }

    pub fn plan_on(
        model: &CostModel,
        catalog: &LayoutCatalog,
        pattern: &AccessPattern,
    ) -> Result<(AccessPlan, f64), StorageError> {
        let needed = pattern.all_attrs();
        let mut plans: Vec<AccessPlan> = Vec::new();
        for cover in cover_alternatives(catalog, &needed)? {
            let ids: Vec<LayoutId> = cover.iter().map(|(id, _)| *id).collect();
            plans.push(AccessPlan::new(ids.clone(), Strategy::FusedVolcano));
        }
        if let Some(sup) = find_superset(catalog, &needed) {
            plans.push(AccessPlan::new(vec![sup], Strategy::FusedVolcano));
        }
        plans.dedup();

        let mut best: Option<(AccessPlan, f64)> = None;
        for plan in plans {
            let groups = plan_groups(catalog, &plan);
            let refs: Vec<&AttrSet> = groups.iter().collect();
            let cost = model.plan_cost(pattern, &refs, catalog.rows());
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((plan, cost));
            }
        }
        best.ok_or_else(|| StorageError::NoCover(needed.first().unwrap_or(AttrId(0))))
    }
}

/// splitmix64: the cases must not depend on any crate's generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `len` distinct attributes below `attrs`, sorted.
    fn attrs(&mut self, attrs: usize, len: usize) -> Vec<AttrId> {
        let mut set = AttrSet::new();
        while set.len() < len.min(attrs) {
            set.insert(AttrId::from(self.below(attrs)));
        }
        set.to_vec()
    }

    /// Up to `max_len` attributes, drawn from `from` when it is given.
    fn subset(&mut self, attrs: usize, from: Option<&[AttrId]>, max_len: usize) -> AttrSet {
        let len = self.below(max_len + 1);
        match from {
            Some(pool) => (0..len).map(|_| pool[self.below(pool.len())]).collect(),
            None => (0..len).map(|_| AttrId::from(self.below(attrs))).collect(),
        }
    }
}

/// One seeded engine. Its catalog is pure columns, one row-major group, a
/// random partition, or that partition plus overlapping groups and a run of
/// equal-width groups (greedy ties) — the shapes adaptation produces. Also
/// returns the extra groups' attributes, so patterns can aim at them.
fn seeded_engine(seed: u64) -> (H2oEngine, usize, Vec<Vec<AttrId>>) {
    let mut rng = Rng(seed);
    let attrs = [8, 24, 60, 100][rng.below(4)];
    let rows = [1, 100, 2_000][rng.below(3)];
    let schema = Schema::with_width(attrs).into_shared();
    let columns: Vec<Vec<Value>> = (0..attrs)
        .map(|a| {
            (0..rows)
                .map(|r| ((a * 31 + r * 7) % 97) as Value)
                .collect()
        })
        .collect();
    let kind = seed % 4;
    let partition: Vec<Vec<AttrId>> = match kind {
        0 => (0..attrs).map(|a| vec![AttrId::from(a)]).collect(),
        1 => vec![(0..attrs).map(AttrId::from).collect()],
        _ => {
            let mut parts = vec![Vec::new(); 2 + rng.below(6)];
            for a in 0..attrs {
                let k = rng.below(parts.len());
                parts[k].push(AttrId::from(a));
            }
            parts.retain(|p| !p.is_empty());
            parts
        }
    };
    let rel = Relation::partitioned(schema, columns, partition).unwrap();
    let engine = H2oEngine::new(rel, EngineConfig::single_threaded());
    let mut extra: Vec<Vec<AttrId>> = Vec::new();
    if kind == 3 {
        for _ in 0..1 + rng.below(6) {
            let width = 2 + rng.below(7);
            extra.push(rng.attrs(attrs, width));
        }
        let width = 2 + rng.below(3);
        for _ in 0..3 + rng.below(3) {
            extra.push(rng.attrs(attrs, width));
        }
    }
    for group in &extra {
        let set: AttrSet = group.iter().copied().collect();
        if engine.snapshot().find_exact(&set).is_none() {
            engine.materialize_now(group).unwrap();
        }
    }
    (engine, attrs, extra)
}

/// The shapes the engine plans: projection, scalar aggregate, grouped
/// aggregate, one join side, and a pattern that touches no attribute.
fn seeded_pattern(
    rng: &mut Rng,
    attrs: usize,
    extra: &[Vec<AttrId>],
    shape: usize,
) -> AccessPattern {
    let aim =
        (!extra.is_empty() && rng.below(2) == 0).then(|| extra[rng.below(extra.len())].as_slice());
    let select = rng
        .subset(attrs, aim, 8)
        .union(&AttrSet::from_iter([AttrId::from(rng.below(attrs))]));
    let where_ = rng.subset(attrs, aim, 3);
    let selectivity = if where_.is_empty() {
        1.0
    } else {
        [0.0005, 0.01, 0.2, 0.5, 0.9, 1.0][rng.below(6)]
    };
    let width = select.len();
    let mut pat = AccessPattern {
        select_ops: width + rng.below(2 * width),
        output_width: 1 + rng.below(width),
        is_aggregate: false,
        is_grouped: false,
        select,
        where_,
        selectivity,
    };
    match shape {
        0 => {}
        1 => pat.is_aggregate = true,
        2 => pat.is_grouped = true,
        3 => {
            // `AccessPattern::of_join_side`: keys + payload are the select
            // footprint, one value per attribute each.
            pat.output_width = width;
            pat.select_ops = width;
        }
        _ => {
            // `count(*)` with no filter.
            pat.select = AttrSet::new();
            pat.where_ = AttrSet::new();
            pat.selectivity = 1.0;
            pat.select_ops = 1;
            pat.output_width = 1;
            pat.is_aggregate = true;
        }
    }
    pat
}

#[test]
fn plan_matches_the_previous_planner_bit_for_bit() {
    let (engines, per_engine) = if cfg!(debug_assertions) {
        (24, 8)
    } else {
        (200, 25)
    };
    let model = CostModel;
    let mut cases = 0;
    let (mut stitched, mut fewest_won, mut superset_in_play) = (0, 0, 0);
    for seed in 0..engines {
        let (engine, attrs, extra) = seeded_engine(seed);
        let snap = engine.snapshot();
        let mut rng = Rng(seed ^ 0x5eed);
        for i in 0..per_engine {
            let pat = seeded_pattern(&mut rng, attrs, &extra, i % 5);
            let (want, want_cost) = reference::plan_on(&model, &snap, &pat).unwrap();
            let (got, got_cost) = engine.plan(&pat).unwrap();
            assert_eq!(
                (&got.layouts, got.strategy, got_cost.to_bits()),
                (&want.layouts, want.strategy, want_cost.to_bits()),
                "seed {seed}, pattern {i}: {pat:?}"
            );
            cases += 1;
            stitched += usize::from(got.layouts.len() > 1);
            let needed = pat.all_attrs();
            // `cover` is the least-excess one; a plan reading another
            // cover read the fewest-groups one.
            fewest_won += usize::from(snap.cover(&needed).unwrap() != got.layouts);
            superset_in_play += usize::from(
                !needed.is_empty() && reference::find_superset(&snap, &needed).is_some(),
            );
        }
        // An attribute outside the schema fails the same way in both.
        let mut outside = seeded_pattern(&mut rng, attrs, &extra, 0);
        outside.where_.insert(AttrId::from(attrs + 3));
        let want = reference::plan_on(&model, &snap, &outside).unwrap_err();
        assert_eq!(
            engine.plan(&outside).unwrap_err(),
            EngineError::Storage(want),
            "seed {seed}"
        );
    }
    // The cases must reach what they are meant to cover.
    assert!(cases >= if cfg!(debug_assertions) { 150 } else { 2_000 });
    assert!(stitched > cases / 10, "{stitched} multi-layout plans");
    assert!(
        fewest_won > 0,
        "no plan read the fewest-groups cover where it differs"
    );
    assert!(
        superset_in_play > cases / 10,
        "{superset_in_play} superset cases"
    );
}
