//! Offline partitioning baselines: AutoPart against the brute-force
//! optimum, and both against the adaptive adviser's objective.

use h2o::cost::{AccessPattern, CostModel};
use h2o::partition::{brute_force, is_valid_partition, partition_cost, AutoPart};
use h2o::prelude::*;
use proptest::prelude::*;

fn pattern(select: &[usize], where_: &[usize], sel: f64) -> AccessPattern {
    AccessPattern {
        select: select.iter().copied().collect(),
        where_: where_.iter().copied().collect(),
        selectivity: sel,
        output_width: 1,
        select_ops: (2 * select.len()).saturating_sub(1).max(1),
        is_aggregate: false,
        is_grouped: false,
    }
}

#[test]
fn autopart_close_to_optimal_on_structured_workloads() {
    let model = CostModel;
    let rows = 200_000;
    // Three structured workloads with known-good fragmentations.
    let workloads: Vec<Vec<AccessPattern>> = vec![
        // Two disjoint hot pairs.
        (0..6)
            .flat_map(|_| vec![pattern(&[0, 1], &[4], 0.3), pattern(&[2, 3], &[5], 0.3)])
            .collect(),
        // One hot cluster, cold tail.
        (0..8).map(|_| pattern(&[0, 1, 2], &[3], 0.2)).collect(),
        // Full-width scans only.
        (0..4)
            .map(|_| pattern(&[0, 1, 2, 3, 4, 5], &[], 1.0))
            .collect(),
    ];
    for (i, w) in workloads.iter().enumerate() {
        let (_, opt_cost) = brute_force(&model, w, 6, rows);
        let ap = AutoPart;
        let parts = ap.partition(w, 6, rows);
        assert!(is_valid_partition(&parts, 6));
        let ap_cost = ap.cost(w, &parts, rows);
        // AutoPart's categorization cannot split attributes with identical
        // query-access vectors, but the true optimum sometimes separates
        // select-clause from where-clause attributes (the advantage H2O's
        // two affinity matrices exploit, §3.2 — and part of what Fig. 8
        // measures). Allow the structural gap, bound it at 1.5x.
        assert!(
            ap_cost <= opt_cost * 1.5 + 1e-12,
            "workload {i}: AutoPart {ap_cost} vs optimal {opt_cost}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// AutoPart always emits a valid fragmentation and never beats the
    /// exhaustive optimum.
    #[test]
    fn autopart_valid_and_bounded_by_oracle(
        seed in 0u64..500,
        n_queries in 1usize..8,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let n_attrs = 5;
        let workload: Vec<AccessPattern> = (0..n_queries)
            .map(|_| {
                let k = rng.gen_range(1..=n_attrs);
                let select: Vec<usize> = (0..k).collect();
                let where_: Vec<usize> = if rng.gen_bool(0.5) {
                    vec![rng.gen_range(0..n_attrs)]
                } else {
                    vec![]
                };
                pattern(&select, &where_, rng.gen_range(0.01..1.0))
            })
            .collect();
        let model = CostModel;
        let rows = 100_000;
        let ap = AutoPart;
        let parts = ap.partition(&workload, n_attrs, rows);
        prop_assert!(is_valid_partition(&parts, n_attrs));
        let (_, opt) = brute_force(&model, &workload, n_attrs, rows);
        let heuristic = partition_cost(&model, &workload, &parts, rows);
        prop_assert!(heuristic + 1e-12 >= opt, "heuristic {heuristic} < optimal {opt}");
    }
}

#[test]
fn autopart_partition_usable_as_relation_layout() {
    // The fragments AutoPart emits must construct a working relation whose
    // engine answers match the interpreter's.
    use h2o::core::{EngineConfig, H2oEngine};
    use h2o::expr::interpret;
    use h2o::workload::synth::gen_columns;

    let n_attrs = 10;
    let rows = 1_000;
    let workload: Vec<AccessPattern> = (0..10).map(|_| pattern(&[0, 1, 2], &[9], 0.3)).collect();
    let ap = AutoPart;
    let parts = ap.partition(&workload, n_attrs, rows);
    let partition: Vec<Vec<AttrId>> = parts.iter().map(|p| p.to_vec()).collect();

    let schema = Schema::with_width(n_attrs).into_shared();
    let columns = gen_columns(n_attrs, rows, 17);
    let rel = Relation::partitioned(schema, columns, partition).unwrap();
    assert!(rel.catalog().covers_schema());

    let engine = H2oEngine::new(rel, EngineConfig::non_adaptive());
    let q = Query::aggregate(
        [Aggregate::sum(Expr::sum_of([
            AttrId(0),
            AttrId(1),
            AttrId(2),
        ]))],
        Conjunction::of([Predicate::lt(9u32, 0)]),
    )
    .unwrap();
    let want = interpret(&engine.catalog(), &q).unwrap();
    assert_eq!(engine.run(Request::query(&q)).unwrap().result, want);
}
