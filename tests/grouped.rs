//! Grouped-aggregation differential suite.
//!
//! Every grouped query must return **bit-identical** results (same rows,
//! same ascending-by-key order, same values) across:
//!
//! * all three kernel strategies (fused / selvector / colmajor),
//! * serial vs morsel-parallel execution under any policy,
//! * the specialized kernels vs the reference interpreter,
//! * the adaptive engine through layout reorganization.
//!
//! The randomized half follows the workspace's two conventions: a
//! `proptest!` block (deterministic per-test sampling, failing inputs
//! printed) and an `H2O_STRESS_SEED`-seeded sweep that replays a CI run
//! exactly (same seed ⇒ same relations, keys, cardinalities and filters).

use h2o::core::{EngineConfig, H2oEngine};
use h2o::exec::parallel::DEFAULT_MORSEL_ROWS;
use h2o::exec::{compile, execute, execute_with_policy, AccessPlan, ExecPolicy, Strategy};
use h2o::expr::interpret;
use h2o::prelude::*;
use h2o::workload::synth::{gen_columns_with_keys, threshold_for_selectivity};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const ROWS: usize = 4_000;
const ATTRS: usize = 8;

/// Fixed default; `H2O_STRESS_SEED` overrides so CI failures replay.
fn stress_seed() -> u64 {
    std::env::var("H2O_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xBEEF_CAFE)
}

/// Columnar / row-major / grouped layouts over the same logical data with
/// two low-cardinality key columns (a0: 8 buckets, a1: 8 buckets).
fn relations(seed: u64) -> Vec<(&'static str, Relation)> {
    let schema = Schema::with_width(ATTRS).into_shared();
    let columns = gen_columns_with_keys(ATTRS, ROWS, seed, 2, 8);
    vec![
        (
            "columnar",
            Relation::columnar(schema.clone(), columns.clone()).unwrap(),
        ),
        (
            "row-major",
            Relation::row_major(schema.clone(), columns.clone()).unwrap(),
        ),
        (
            "grouped-layout",
            Relation::partitioned(
                schema,
                columns,
                vec![
                    vec![AttrId(0), AttrId(2), AttrId(3)],
                    vec![AttrId(1), AttrId(4)],
                    vec![AttrId(5)],
                    vec![AttrId(6), AttrId(7)],
                ],
            )
            .unwrap(),
        ),
    ]
}

/// Grouped query shapes: single/multi keys, expression keys, every
/// aggregate function, expression aggregate inputs, the distinct-keys
/// degenerate, and empty/sparse/full selections.
fn grouped_queries() -> Vec<Query> {
    let filt = |s: f64| Conjunction::of([Predicate::lt(2u32, threshold_for_selectivity(s))]);
    vec![
        Query::grouped(
            [Expr::col(0u32)],
            [
                Aggregate::sum(Expr::col(2u32)),
                Aggregate::min(Expr::col(3u32)),
                Aggregate::max(Expr::col(4u32)),
                Aggregate::count(),
                Aggregate::avg(Expr::col(5u32)),
            ],
            filt(0.5),
        )
        .unwrap(),
        // Two-column key.
        Query::grouped(
            [Expr::col(0u32), Expr::col(1u32)],
            [Aggregate::sum(Expr::col(6u32)), Aggregate::count()],
            filt(0.8),
        )
        .unwrap(),
        // Expression key and expression aggregate input.
        Query::grouped(
            [Expr::col(0u32).add(Expr::col(1u32))],
            [Aggregate::sum(Expr::col(2u32).mul(Expr::col(3u32)))],
            Conjunction::of([
                Predicate::lt(2u32, threshold_for_selectivity(0.9)),
                Predicate::gt(3u32, threshold_for_selectivity(0.1)),
            ]),
        )
        .unwrap(),
        // Distinct-keys degenerate (no aggregates).
        Query::grouped([Expr::col(1u32)], [], Conjunction::always()).unwrap(),
        // Empty selection: zero output rows everywhere.
        Query::grouped([Expr::col(0u32)], [Aggregate::count()], filt(0.0)).unwrap(),
        // Very sparse and unfiltered.
        Query::grouped(
            [Expr::col(0u32)],
            [Aggregate::max(Expr::col(7u32))],
            filt(0.01),
        )
        .unwrap(),
        Query::grouped(
            [Expr::col(1u32)],
            [Aggregate::sum(Expr::col(4u32))],
            Conjunction::always(),
        )
        .unwrap(),
        // High-cardinality key: a raw uniform column (worst case — nearly
        // every row its own group).
        Query::grouped([Expr::col(6u32)], [Aggregate::count()], filt(0.3)).unwrap(),
    ]
}

fn policies() -> Vec<(&'static str, ExecPolicy)> {
    let p = |threads: usize, morsel: usize| ExecPolicy {
        parallelism: Some(threads),
        morsel_rows: morsel,
        serial_threshold: 0,
    };
    vec![
        ("serial-explicit", p(1, 1_000)),
        ("two-workers", p(2, 577)),
        ("four-workers", p(4, 1_024)),
        ("many-tiny-morsels", p(4, 64)),
        ("eight-workers-odd-morsel", p(8, 999)),
    ]
}

#[test]
fn grouped_matches_interpreter_for_every_strategy_layout_and_policy() {
    for (layout, rel) in relations(77) {
        let layouts = rel.catalog().layout_ids();
        for (qi, q) in grouped_queries().iter().enumerate() {
            let want = interpret(rel.catalog(), q).unwrap();
            for strategy in Strategy::ALL {
                let plan = AccessPlan::new(layouts.clone(), strategy);
                let op = compile(rel.catalog(), &plan, q).unwrap();
                let serial = execute(rel.catalog(), &op).unwrap();
                // Bit-identical (not just fingerprint): grouped output is
                // canonically sorted by key vector in every strategy.
                assert_eq!(
                    serial,
                    want,
                    "layout {layout} strategy {} query {qi}",
                    strategy.name()
                );
                for (pname, policy) in policies() {
                    let parallel = execute_with_policy(rel.catalog(), &op, &policy).unwrap();
                    assert_eq!(
                        parallel,
                        serial,
                        "layout {layout} strategy {} query {qi} policy {pname}",
                        strategy.name()
                    );
                }
            }
        }
    }
}

#[test]
fn grouped_engine_stays_correct_through_adaptation() {
    // Three default-size morsels: the parallel path runs every scan.
    let rows = 2 * DEFAULT_MORSEL_ROWS + 4_096;
    let mut cfg = EngineConfig::default();
    cfg.window.initial = 8;
    cfg.window.min = 4;
    cfg.parallelism = Some(4);
    assert!(!cfg.exec_policy().is_serial_for(rows));
    let schema = Schema::with_width(5).into_shared();
    let columns = gen_columns_with_keys(5, rows, 5, 1, 16);
    let engine = H2oEngine::new(Relation::columnar(schema, columns).unwrap(), cfg);
    for i in 0..20 {
        let q = Query::grouped(
            [Expr::col(0u32)],
            [
                Aggregate::sum(Expr::sum_of([AttrId(1), AttrId(2)])),
                Aggregate::count(),
            ],
            Conjunction::of([Predicate::lt(
                3u32,
                threshold_for_selectivity(0.1 * (i % 10) as f64 + 0.05),
            )]),
        )
        .unwrap();
        let want = interpret(&engine.catalog(), &q).unwrap();
        let got = engine.run(Request::query(&q)).unwrap().result;
        assert_eq!(got, want, "grouped query {i} through the adaptive engine");
    }
    assert!(
        engine.stats().layouts_created >= 1,
        "the grouped workload must exercise online reorganization; stats: {:?}",
        engine.stats()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random group keys, cardinalities and filters: all three strategies
    /// and a parallel policy agree bit-for-bit with the interpreter.
    #[test]
    fn random_grouped_queries_agree_everywhere(
        rows in 0usize..400,
        cardinality in 1u64..40,
        key_attr in 0usize..3,
        filter_attr in 0usize..4,
        threshold in -1000i64..1000,
        agg_pick in 0usize..5,
    ) {
        let n_attrs = 4usize;
        let schema = Schema::with_width(n_attrs).into_shared();
        // Small value domain so keys and filters both bite.
        let mut rng = SmallRng::seed_from_u64(rows as u64 ^ (cardinality << 16));
        let columns: Vec<Vec<Value>> = (0..n_attrs)
            .map(|k| {
                (0..rows)
                    .map(|_| {
                        if k == key_attr {
                            rng.gen_range(0..cardinality as Value)
                        } else {
                            rng.gen_range(-1000..1000)
                        }
                    })
                    .collect()
            })
            .collect();
        let rel = Relation::columnar(schema, columns).unwrap();
        let agg = match agg_pick {
            0 => Aggregate::sum(Expr::col(((key_attr + 1) % n_attrs) as u32)),
            1 => Aggregate::min(Expr::col(((key_attr + 2) % n_attrs) as u32)),
            2 => Aggregate::max(Expr::col(((key_attr + 1) % n_attrs) as u32)),
            3 => Aggregate::avg(Expr::col(((key_attr + 3) % n_attrs) as u32)),
            _ => Aggregate::count(),
        };
        let q = Query::grouped(
            [Expr::col(key_attr as u32)],
            [agg, Aggregate::count()],
            Conjunction::of([Predicate::lt(filter_attr as u32, threshold)]),
        )
        .unwrap();
        let want = interpret(rel.catalog(), &q).unwrap();
        prop_assert!(want.rows() <= cardinality as usize);
        let policy = ExecPolicy {
            parallelism: Some(4),
            morsel_rows: 37,
            serial_threshold: 0,
        };
        for strategy in Strategy::ALL {
            let plan = AccessPlan::new(rel.catalog().layout_ids(), strategy);
            let op = compile(rel.catalog(), &plan, &q).unwrap();
            let serial = execute(rel.catalog(), &op).unwrap();
            prop_assert_eq!(&serial, &want, "strategy {}", strategy.name());
            let parallel = execute_with_policy(rel.catalog(), &op, &policy).unwrap();
            prop_assert_eq!(&parallel, &want, "parallel {}", strategy.name());
        }
    }
}

/// Seeded randomized sweep on the stress-seed convention: the relation,
/// key cardinalities, query shapes and policies are all a pure function of
/// `H2O_STRESS_SEED`, so a CI failure replays locally with the same seed.
/// The first 12 rounds draw fewer than 64 key values per column; the
/// rounds after them draw up to 16 values per row, so the distinct-key
/// count approaches the row count and every table grows through many
/// resizes (up to 50K rows in release builds, 5K in debug).
#[test]
fn stress_seeded_grouped_sweep() {
    let seed = stress_seed();
    let mut rng = SmallRng::seed_from_u64(seed);
    let max_rows = if cfg!(debug_assertions) {
        5_000
    } else {
        50_000
    };
    for round in 0..16 {
        let (rows, card) = if round < 12 {
            (rng.gen_range(1..2_000usize), rng.gen_range(1..64u64))
        } else {
            let rows = rng.gen_range(max_rows / 2..=max_rows);
            (rows, rows as u64 * rng.gen_range(1..=16))
        };
        let schema = Schema::with_width(ATTRS).into_shared();
        let columns = gen_columns_with_keys(ATTRS, rows, seed ^ round, 2, card);
        let rel = Relation::columnar(schema, columns).unwrap();
        let keys: Vec<Expr> = if rng.gen_bool(0.5) {
            vec![Expr::col(0u32)]
        } else {
            vec![Expr::col(0u32), Expr::col(1u32)]
        };
        let q = Query::grouped(
            keys,
            [
                Aggregate::sum(Expr::col(rng.gen_range(2..ATTRS) as u32)),
                Aggregate::count(),
            ],
            Conjunction::of([Predicate::lt(
                rng.gen_range(2..ATTRS) as u32,
                threshold_for_selectivity(rng.gen_range(0.0..1.0)),
            )]),
        )
        .unwrap();
        let want = interpret(rel.catalog(), &q).unwrap();
        let policy = ExecPolicy {
            parallelism: Some(rng.gen_range(2..6)),
            morsel_rows: rng.gen_range(32..512),
            serial_threshold: 0,
        };
        for strategy in Strategy::ALL {
            let plan = AccessPlan::new(rel.catalog().layout_ids(), strategy);
            let op = compile(rel.catalog(), &plan, &q).unwrap();
            assert_eq!(
                execute(rel.catalog(), &op).unwrap(),
                want,
                "round {round} strategy {} (H2O_STRESS_SEED={seed})",
                strategy.name()
            );
            assert_eq!(
                execute_with_policy(rel.catalog(), &op, &policy).unwrap(),
                want,
                "round {round} parallel {} (H2O_STRESS_SEED={seed})",
                strategy.name()
            );
        }
    }
}
