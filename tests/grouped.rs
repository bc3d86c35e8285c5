//! Grouped-aggregation differential suite.
//!
//! Every grouped query must return **bit-identical** results (same rows,
//! same ascending-by-key order, same values) across:
//!
//! * every layout (row-major, column groups, columns) the one kernel reads,
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
            let plan = AccessPlan::new(layouts.clone(), Strategy::FusedVolcano);
            let op = compile(rel.catalog(), &plan, q).unwrap();
            let serial = execute(rel.catalog(), &op).unwrap();
            // Bit-identical (not just fingerprint): grouped output is
            // canonically sorted by key vector.
            assert_eq!(serial, want, "layout {layout} query {qi}");
            for (pname, policy) in policies() {
                let parallel = execute_with_policy(rel.catalog(), &op, &policy).unwrap();
                assert_eq!(
                    parallel, serial,
                    "layout {layout} query {qi} policy {pname}"
                );
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

    /// Random group keys, cardinalities and filters: the scan
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
        let plan = AccessPlan::new(rel.catalog().layout_ids(), Strategy::FusedVolcano);
        let op = compile(rel.catalog(), &plan, &q).unwrap();
        let serial = execute(rel.catalog(), &op).unwrap();
        prop_assert_eq!(&serial, &want);
        let parallel = execute_with_policy(rel.catalog(), &op, &policy).unwrap();
        prop_assert_eq!(&parallel, &want, "parallel");
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
        let plan = AccessPlan::new(rel.catalog().layout_ids(), Strategy::FusedVolcano);
        let op = compile(rel.catalog(), &plan, &q).unwrap();
        assert_eq!(
            execute(rel.catalog(), &op).unwrap(),
            want,
            "round {round} (H2O_STRESS_SEED={seed})"
        );
        assert_eq!(
            execute_with_policy(rel.catalog(), &op, &policy).unwrap(),
            want,
            "round {round} parallel (H2O_STRESS_SEED={seed})"
        );
    }
}

/// Rows of the block-boundary relation: 44 blocks of 1K rows and a short
/// last one, in 4K-row segments.
const BLOCK_TEST_ROWS: usize = 45_123;

/// The typed block-boundary relation, columnar and in two column groups at
/// segment shift 12. Each key column changes shape every few blocks, so
/// the grouped pipeline's id tiers switch between blocks:
///
/// * `win` — a one-lane `I64` key whose block span is dense (< 1K) in some
///   stretches, each at a different offset so the dense memo's window
///   moves, and wide in others;
/// * `edge` — `I64` keys at `i64::MIN` / `i64::MAX`, alone (dense) or both
///   in one block (the span overflows `i64`);
/// * `class` — a dictionary key;
/// * `fkey` — `F64` keys: two NaN payloads, `-0.0`, `+0.0` and ordinary
///   values, in blocks of NaNs alone, of zeros alone and of everything;
/// * `m_f` / `m_d` / `m_i` — a non-dyadic `F64` measure (its sums depend
///   on fold order), a dyadic one (its sums do not) and an `I64` one.
fn block_relations() -> Vec<(&'static str, Relation)> {
    use h2o::storage::{f64_lane, LogicalType};
    let schema = Schema::typed([
        ("win", LogicalType::I64),
        ("edge", LogicalType::I64),
        ("class", LogicalType::Dict),
        ("fkey", LogicalType::F64),
        ("m_f", LogicalType::F64),
        ("m_i", LogicalType::I64),
        ("m_d", LogicalType::F64),
    ])
    .into_shared();
    let dict = schema.dictionary(AttrId(2)).expect("class is a dictionary");
    let codes: Vec<Value> = (0..300).map(|c| dict.intern(&format!("c{c}"))).collect();
    let mut rng = SmallRng::seed_from_u64(0xB10C);
    let nans = [
        f64_lane(f64::NAN),
        f64_lane(f64::from_bits(0x7FF8_0000_0000_0B0B)),
    ];
    let mut cols: Vec<Vec<Value>> = vec![Vec::new(); 7];
    for i in 0..BLOCK_TEST_ROWS {
        let stretch = i / 2_500;
        cols[0].push(match stretch % 4 {
            0 => 100 * stretch as Value + rng.gen_range(0..40),
            1 => rng.gen_range(0..900),
            2 => rng.gen_range(-1_000_000_000..1_000_000_000),
            _ => 5_000 - 37 * stretch as Value + rng.gen_range(0..40),
        });
        let near = rng.gen_range(0..5);
        cols[1].push(match (i / 1_500) % 3 {
            0 => Value::MIN + near,
            1 => Value::MAX - near,
            _ if rng.gen_bool(0.5) => Value::MIN + near,
            _ => Value::MAX - near,
        });
        cols[2].push(match (i / 3_000) % 2 {
            0 => codes[rng.gen_range(0..8)],
            _ => codes[rng.gen_range(0..codes.len())],
        });
        let pick = |rng: &mut SmallRng, set: &[Value]| set[rng.gen_range(0..set.len())];
        let zeros = [f64_lane(-0.0), f64_lane(0.0)];
        let all = [
            nans[0],
            nans[1],
            zeros[0],
            zeros[1],
            f64_lane(1.5),
            f64_lane(-2.25),
        ];
        cols[3].push(match (i / 2_000) % 3 {
            0 => pick(&mut rng, &nans),
            1 => pick(&mut rng, &zeros),
            _ => pick(&mut rng, &all),
        });
        cols[4].push(f64_lane(rng.gen_range(-1_000..1_000) as f64 / 10.0 + 0.1));
        cols[5].push(rng.gen_range(-500..500));
        cols[6].push(f64_lane(rng.gen_range(-1_000..1_000) as f64 / 8.0));
    }
    let columnar: Vec<Vec<AttrId>> = (0u32..7).map(|a| vec![AttrId(a)]).collect();
    let groups = vec![
        vec![AttrId(0), AttrId(4)],
        vec![AttrId(1), AttrId(2), AttrId(3), AttrId(5), AttrId(6)],
    ];
    vec![
        (
            "columnar",
            Relation::partitioned_with_shift(schema.clone(), cols.clone(), columnar, 12).unwrap(),
        ),
        (
            "two-groups",
            Relation::partitioned_with_shift(schema, cols, groups, 12).unwrap(),
        ),
    ]
}

/// The grouped pipeline across block boundaries: every key shape of
/// [`block_relations`] (and a two-lane key), with `F64` `sum`/`avg`,
/// `min`, `max` and `count`, unfiltered and filtered, bit-identical to the
/// interpreter — serially over the non-dyadic
/// measure (one fold chain per group, in row order) on both layouts, and
/// under every policy of the suite over the dyadic one (morsel partials
/// merge, so only order-free sums can match a single chain) on the
/// two-group layout.
#[test]
fn grouped_blocks_match_interpreter_across_key_tiers() {
    let aggs = |m: u32| {
        [
            Aggregate::sum(Expr::col(m)),
            Aggregate::avg(Expr::col(m)),
            Aggregate::min(Expr::col(5u32)),
            Aggregate::max(Expr::col(m)),
            Aggregate::count(),
        ]
    };
    let keys: [Vec<Expr>; 5] = [
        vec![Expr::col(0u32)],
        vec![Expr::col(1u32)],
        vec![Expr::col(2u32)],
        vec![Expr::col(3u32)],
        vec![Expr::col(2u32), Expr::col(1u32)],
    ];
    let filters = [
        Conjunction::always(),
        Conjunction::of([Predicate::lt(5u32, 300)]),
    ];
    for (layout, rel) in block_relations() {
        let layouts = rel.catalog().layout_ids();
        for (ki, key) in keys.iter().enumerate() {
            for (fi, filter) in filters.iter().enumerate() {
                let grouped = |m| Query::grouped(key.clone(), aggs(m), filter.clone()).unwrap();
                let (serial_q, policy_q) = (grouped(4), grouped(6));
                let want = interpret(rel.catalog(), &serial_q).unwrap();
                let want_dyadic = interpret(rel.catalog(), &policy_q).unwrap();
                assert!(want.rows() > 1, "key {ki} groups");
                let plan = AccessPlan::new(layouts.clone(), Strategy::FusedVolcano);
                let at = format!("{layout} key {ki} filter {fi}");
                let op = compile(rel.catalog(), &plan, &serial_q).unwrap();
                assert_eq!(execute(rel.catalog(), &op).unwrap(), want, "{at}");
                if layout != "two-groups" {
                    continue;
                }
                let op = compile(rel.catalog(), &plan, &policy_q).unwrap();
                for (pname, policy) in policies() {
                    let got = execute_with_policy(rel.catalog(), &op, &policy).unwrap();
                    assert_eq!(got, want_dyadic, "{at} policy {pname}");
                }
            }
        }
    }
}
