//! Typed-column differential suite: `i64` + `f64` + dictionary attributes
//! end-to-end on the fixed 64-bit lane.
//!
//! Every mixed-type query must return **bit-identical** results (`f64` bit
//! patterns included) across:
//!
//! * every layout (row-major, column groups, columns) the one kernel reads,
//! * serial vs morsel-parallel execution under any policy,
//! * segmented vs monolithic storage (zone-map pruning on vs off),
//! * the specialized kernels vs the reference interpreter,
//! * the adaptive engine through layout reorganization.
//!
//! Floats are drawn from the workload generators' dyadic grids, so sums
//! are exact and association-independent (the engine's float determinism
//! convention — see `h2o_expr::agg`); one pinned test injects NaNs and
//! signed zeros to fix the `total_cmp` ordering behavior. The randomized
//! half follows the workspace conventions: a `proptest!` block plus an
//! `H2O_STRESS_SEED`-seeded sweep that replays a CI run exactly.

use h2o::core::{EngineConfig, EngineError, H2oEngine};
use h2o::exec::{
    compile, execute, execute_with_policy, run, AccessPlan, ExecCtx, ExecPolicy, Strategy,
};
use h2o::expr::{interpret, query_from_json, query_to_json, typecheck, Datum, Json, QueryError};
use h2o::prelude::*;
use h2o::storage::{f64_lane, lane_f64, LogicalType, DEFAULT_SEG_SHIFT};
use h2o::workload::{gen_dict_column, gen_f64_column, gen_key_column, F64_GRID};
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const ROWS: usize = 4_000;

/// Fixed default; `H2O_STRESS_SEED` overrides so CI failures replay.
fn stress_seed() -> u64 {
    std::env::var("H2O_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xBEEF_CAFE)
}

/// The mixed-type test schema: a dictionary class column, integer flags,
/// and SkyServer-shaped `f64` domains.
fn mixed_schema() -> Arc<Schema> {
    Schema::typed([
        ("class", LogicalType::Dict),
        ("run", LogicalType::I64),
        ("ra", LogicalType::F64),
        ("dec", LogicalType::F64),
        ("flags", LogicalType::I64),
        ("mag", LogicalType::F64),
    ])
    .into_shared()
}

const CLASS_LABELS: [&str; 4] = ["STAR", "GALAXY", "QSO", "UNKNOWN"];

fn mixed_columns(schema: &Schema, rows: usize, seed: u64) -> Vec<Vec<Value>> {
    let dict = schema.dictionary(AttrId(0)).expect("class is dict");
    vec![
        gen_dict_column(rows, dict, &CLASS_LABELS, seed),
        gen_key_column(rows, 32, seed ^ 1),
        gen_f64_column(rows, 0.0, 360.0, seed ^ 2),
        gen_f64_column(rows, -90.0, 90.0, seed ^ 3),
        gen_key_column(rows, 4, seed ^ 4),
        gen_f64_column(rows, 10.0, 30.0, seed ^ 5),
    ]
}

/// Columnar / row-major / grouped layouts, segmented (shift 7 ⇒ 128-row
/// segments, dozens of zone maps) and monolithic (shift 30 ⇒ no sealed
/// segments, pruning structurally off).
fn relations(seed: u64) -> Vec<(&'static str, Relation)> {
    let schema = mixed_schema();
    let columns = mixed_columns(&schema, ROWS, seed);
    let columnar: Vec<Vec<AttrId>> = (0u32..6).map(|i| vec![AttrId(i)]).collect();
    let all: Vec<AttrId> = (0u32..6).map(AttrId::from).collect();
    let groups = vec![
        vec![AttrId(0), AttrId(2), AttrId(5)],
        vec![AttrId(1), AttrId(3)],
        vec![AttrId(4)],
    ];
    vec![
        (
            "columnar-seg",
            Relation::partitioned_with_shift(schema.clone(), columns.clone(), columnar, 7).unwrap(),
        ),
        (
            "row-major-mono",
            Relation::partitioned_with_shift(schema.clone(), columns.clone(), vec![all], 30)
                .unwrap(),
        ),
        (
            "grouped-seg",
            Relation::partitioned_with_shift(schema, columns, groups, 7).unwrap(),
        ),
    ]
}

/// Mixed-type query shapes: `f64` range filters, dictionary equality,
/// same-type arithmetic, typed aggregates, dict-keyed rollups, projections
/// mixing all three types.
fn mixed_queries() -> Vec<Query> {
    vec![
        // f64 range filter + f64 sum-of-columns expression (template iii).
        Query::project(
            [Expr::sum_of([AttrId(2), AttrId(3)])],
            Conjunction::of([Predicate::lt(2u32, 90.0), Predicate::gt(3u32, -45.0)]),
        )
        .unwrap(),
        // Dictionary equality + mixed projection (dict, i64, f64).
        Query::project(
            [Expr::col(0u32), Expr::col(1u32), Expr::col(5u32)],
            Conjunction::of([Predicate::eq(0u32, "GALAXY")]),
        )
        .unwrap(),
        // Dict inequality + f64 arithmetic with a typed literal.
        Query::project(
            [Expr::col(5u32).mul(Expr::lit(2.0)).sub(Expr::lit(0.5))],
            Conjunction::of([Predicate::new(0u32, h2o::expr::CmpOp::Ne, "STAR")]),
        )
        .unwrap(),
        // Typed scalar aggregates over both numeric lanes.
        Query::aggregate(
            [
                Aggregate::sum(Expr::col(2u32)),
                Aggregate::min(Expr::col(3u32)),
                Aggregate::max(Expr::col(5u32)),
                Aggregate::avg(Expr::col(2u32)),
                Aggregate::sum(Expr::col(1u32)),
                Aggregate::count(),
            ],
            Conjunction::of([Predicate::le(5u32, 20.0), Predicate::gt(1u32, 3)]),
        )
        .unwrap(),
        // Dense same-type aggregate run (hits the specialized kernels).
        Query::aggregate(
            [
                Aggregate::max(Expr::col(2u32)),
                Aggregate::max(Expr::col(3u32)),
            ],
            Conjunction::of([Predicate::lt(4u32, 2)]),
        )
        .unwrap(),
        // The canonical rollup: dict key, f64 + i64 measures.
        Query::grouped(
            [Expr::col(0u32)],
            [
                Aggregate::sum(Expr::col(5u32)),
                Aggregate::avg(Expr::col(2u32)),
                Aggregate::max(Expr::col(1u32)),
                Aggregate::count(),
            ],
            Conjunction::of([Predicate::lt(2u32, 180.0)]),
        )
        .unwrap(),
        // Two-column key mixing dict and i64; f64 expression measure.
        Query::grouped(
            [Expr::col(0u32), Expr::col(4u32)],
            [Aggregate::sum(Expr::col(2u32).add(Expr::col(3u32)))],
            Conjunction::always(),
        )
        .unwrap(),
        // f64 expression key (grid values ⇒ exact) with empty selection.
        Query::grouped(
            [Expr::col(5u32)],
            [Aggregate::count()],
            Conjunction::of([Predicate::gt(2u32, 400.0)]),
        )
        .unwrap(),
    ]
}

fn policies() -> Vec<ExecPolicy> {
    vec![
        ExecPolicy {
            parallelism: Some(4),
            morsel_rows: 128,
            serial_threshold: 0,
        },
        ExecPolicy {
            parallelism: Some(3),
            morsel_rows: 301, // deliberately unaligned to segments
            serial_threshold: 0,
        },
    ]
}

/// The acceptance-criterion matrix: serial/parallel ×
/// segmented/monolithic, all bit-identical to the interpreter.
#[test]
fn mixed_type_differential_all_strategies_layouts_policies() {
    for (layout, rel) in relations(7) {
        for q in mixed_queries() {
            let want = interpret(rel.catalog(), &q).unwrap();
            let plan = AccessPlan::new(rel.catalog().layout_ids(), Strategy::FusedVolcano);
            let op = compile(rel.catalog(), &plan, &q).unwrap();
            let serial = execute(rel.catalog(), &op).unwrap();
            assert_eq!(serial, want, "layout {layout} query {q}");
            for policy in policies() {
                let par = execute_with_policy(rel.catalog(), &op, &policy).unwrap();
                assert_eq!(par, want, "parallel {layout} query {q}");
            }
        }
    }
}

/// NaN / signed-zero ordering is pinned to `total_cmp` on every path:
/// comparators, min/max aggregates, grouped-key sort.
#[test]
fn nan_ordering_pinned_to_total_cmp() {
    let schema = Schema::typed([("x", LogicalType::F64), ("k", LogicalType::I64)]).into_shared();
    let x = vec![
        f64_lane(1.5),
        f64_lane(f64::NAN),
        f64_lane(-0.0),
        f64_lane(0.0),
        f64_lane(f64::NEG_INFINITY),
        f64_lane(-f64::NAN),
        f64_lane(f64::INFINITY),
    ];
    let k = vec![0, 0, 0, 0, 0, 0, 0];
    let rel = Relation::partitioned_with_shift(
        schema,
        vec![x, k],
        vec![vec![AttrId(0)], vec![AttrId(1)]],
        1,
    )
    .unwrap();

    // total_cmp: -NaN < -inf < -0.0 < +0.0 < 1.5 < +inf < +NaN.
    // `x > 0.0` therefore selects {1.5, +inf, +NaN} — NaN included, unlike
    // IEEE `>`: the engine's comparisons are total-order by design.
    let gt_zero = Query::aggregate(
        [Aggregate::count()],
        Conjunction::of([Predicate::gt(0u32, 0.0)]),
    )
    .unwrap();
    let want = interpret(rel.catalog(), &gt_zero).unwrap();
    assert_eq!(want.row(0), &[3], "total_cmp admits +NaN above zero");
    // min/max over everything: -NaN is the minimum, +NaN the maximum.
    let extrema = Query::aggregate(
        [
            Aggregate::min(Expr::col(0u32)),
            Aggregate::max(Expr::col(0u32)),
        ],
        Conjunction::always(),
    )
    .unwrap();
    let ext = interpret(rel.catalog(), &extrema).unwrap();
    assert_eq!(ext.row(0)[0], f64_lane(-f64::NAN), "min is -NaN (bits)");
    assert_eq!(ext.row(0)[1], f64_lane(f64::NAN), "max is +NaN (bits)");
    // Grouped by x: one group per bit pattern, rows sorted in total_cmp
    // order.
    let grouped = Query::grouped(
        [Expr::col(0u32)],
        [Aggregate::count()],
        Conjunction::always(),
    )
    .unwrap();
    let g = interpret(rel.catalog(), &grouped).unwrap();
    assert_eq!(g.rows(), 7, "every bit pattern its own group");
    let keys: Vec<Value> = (0..7).map(|i| g.row(i)[0]).collect();
    assert_eq!(keys[0], f64_lane(-f64::NAN));
    assert_eq!(keys[1], f64_lane(f64::NEG_INFINITY));
    assert_eq!(keys[2], f64_lane(-0.0));
    assert_eq!(keys[3], f64_lane(0.0));
    assert_eq!(keys[4], f64_lane(1.5));
    assert_eq!(keys[5], f64_lane(f64::INFINITY));
    assert_eq!(keys[6], f64_lane(f64::NAN));
    // And the scan, serial and parallel, reproduces all of it.
    for q in [gt_zero, extrema, grouped] {
        let want = interpret(rel.catalog(), &q).unwrap();
        let plan = AccessPlan::new(rel.catalog().layout_ids(), Strategy::FusedVolcano);
        let op = compile(rel.catalog(), &plan, &q).unwrap();
        assert_eq!(execute(rel.catalog(), &op).unwrap(), want);
        for policy in policies() {
            assert_eq!(
                execute_with_policy(rel.catalog(), &op, &policy).unwrap(),
                want
            );
        }
    }
}

/// A right-nested `F64` sum `a + (b + c)` adds in its own tree order on
/// every layout: with a = 1e16 and b = c = 1.0 the interpreter returns
/// 1e16 + 2, while a left-deep fold `(a + b) + c` would lose both ones.
/// The wire keeps the client's tree shape, so the query decoded from its
/// JSON runs the same way.
#[test]
fn right_nested_f64_sums_add_in_tree_order() {
    let schema = Schema::typed([
        ("a", LogicalType::F64),
        ("b", LogicalType::F64),
        ("c", LogicalType::F64),
    ])
    .into_shared();
    let rows = 2;
    let cols = vec![
        vec![f64_lane(1e16); rows],
        vec![f64_lane(1.0); rows],
        vec![f64_lane(1.0); rows],
    ];
    let nested = Expr::col(0u32).add(Expr::col(1u32).add(Expr::col(2u32)));
    let queries = [
        Query::project([nested.clone()], Conjunction::always()).unwrap(),
        Query::aggregate([Aggregate::sum(nested)], Conjunction::always()).unwrap(),
    ];
    for rel in [
        Relation::columnar(schema.clone(), cols.clone()).unwrap(),
        Relation::row_major(schema.clone(), cols.clone()).unwrap(),
    ] {
        let catalog = rel.catalog();
        for q in &queries {
            let want = interpret(catalog, q).unwrap();
            let per_row = if q.select_clause().is_aggregate() {
                rows as f64
            } else {
                1.0
            };
            assert_eq!(lane_f64(want.row(0)[0]), (1e16 + 2.0) * per_row, "{q}");
            let text = query_to_json(q, &schema).to_string();
            let decoded = query_from_json(&Json::parse(&text).unwrap(), &schema).unwrap();
            for q in [q.clone(), decoded] {
                let plan = AccessPlan::new(catalog.layout_ids(), Strategy::FusedVolcano);
                let op = compile(catalog, &plan, &q).unwrap();
                let (got, _) = run(catalog, &op, &ExecCtx::new(ExecPolicy::serial())).unwrap();
                assert_eq!(got, want, "{q}");
            }
        }
    }
}

/// Zone maps: a range filter over a segment-clustered attribute skips
/// sealed segments, is counted in `EngineStats`, and never changes results.
#[test]
fn zone_maps_skip_sealed_segments_and_preserve_results() {
    let schema = Schema::typed([("t", LogicalType::F64), ("v", LogicalType::I64)]).into_shared();
    let rows = 1usize << (DEFAULT_SEG_SHIFT + 2); // 4 sealed segments
                                                  // `t` is monotone (a timestamp-like clustered attribute): each sealed
                                                  // segment covers a narrow disjoint range, the zone maps' best case.
    let t: Vec<Value> = (0..rows).map(|r| f64_lane(r as f64 * F64_GRID)).collect();
    let v: Vec<Value> = (0..rows).map(|r| (r % 1000) as Value).collect();
    let rel =
        Relation::partitioned(schema, vec![t, v], vec![vec![AttrId(0)], vec![AttrId(1)]]).unwrap();
    let engine = H2oEngine::new(rel.clone(), EngineConfig::default());
    // A range predicate covering only the first segment's values.
    let cutoff = (1usize << DEFAULT_SEG_SHIFT) as f64 * F64_GRID / 2.0;
    let q = Query::aggregate(
        [Aggregate::count(), Aggregate::sum(Expr::col(1u32))],
        Conjunction::of([Predicate::lt(0u32, cutoff)]),
    )
    .unwrap();
    let want = interpret(rel.catalog(), &q).unwrap();
    let got = engine.run(Request::query(&q)).unwrap().result;
    assert_eq!(got, want, "pruned scan is bit-identical");
    assert_eq!(got.row(0)[0], (1 << DEFAULT_SEG_SHIFT) / 2);
    let skipped = engine.stats().segments_skipped;
    assert!(
        skipped >= 3,
        "at least the three later sealed segments skip, got {skipped}"
    );
}

/// Rendered-message regression tests for `QueryError::TypeMismatch` at the
/// engine boundary (mirroring the `RowCountMismatch`/`WidthMismatch`
/// precedent): cross-type predicate, cross-type arithmetic, grouped
/// key/measure mismatch.
#[test]
fn type_mismatch_rendered_messages_at_the_engine() {
    let schema = mixed_schema();
    let columns = mixed_columns(&schema, 64, 3);
    let engine = H2oEngine::new(
        Relation::columnar(schema, columns).unwrap(),
        EngineConfig::default(),
    );
    let expect_msg = |q: &Query, needle: &str, full: &str| {
        let err = engine.run(Request::query(q)).unwrap_err();
        let EngineError::Query(QueryError::TypeMismatch(_)) = &err else {
            panic!("expected TypeMismatch for {q}, got {err:?}");
        };
        let msg = err.to_string();
        assert!(msg.contains(needle), "missing {needle:?} in {msg:?}");
        assert_eq!(msg, full);
    };
    // Cross-type predicate: i64 constant against the f64 `ra` column.
    let q = Query::project(
        [Expr::col(2u32)],
        Conjunction::of([Predicate::lt(2u32, 180)]),
    )
    .unwrap();
    expect_msg(
        &q,
        "no implicit casts",
        "invalid query: type mismatch: predicate a2 < 180 compares f64 \
         attribute a2 with i64 constant (the engine has no implicit casts)",
    );
    // Cross-type arithmetic: i64 `run` + f64 `ra`.
    let q = Query::project(
        [Expr::col(1u32).add(Expr::col(2u32))],
        Conjunction::always(),
    )
    .unwrap();
    expect_msg(
        &q,
        "mixes i64 and f64",
        "invalid query: type mismatch: arithmetic (a1 + a2) mixes i64 and \
         f64 operands (the engine has no implicit casts)",
    );
    // Grouped key/measure mismatch: summing the dictionary key column.
    let q = Query::grouped(
        [Expr::col(4u32)],
        [Aggregate::sum(Expr::col(0u32))],
        Conjunction::always(),
    )
    .unwrap();
    expect_msg(
        &q,
        "requires a numeric input",
        "invalid query: type mismatch: aggregate sum(a0) requires a numeric \
         input; a0 is dictionary-encoded (only count(..) admits dict inputs)",
    );
    // Ordered comparison on a dictionary attribute.
    let q = Query::project(
        [Expr::col(0u32)],
        Conjunction::of([Predicate::lt(0u32, "STAR")]),
    )
    .unwrap();
    let msg = engine.run(Request::query(&q)).unwrap_err().to_string();
    assert!(msg.contains("admit only = and <>"), "{msg}");
    // Nothing was executed or recorded for any rejected query.
    assert_eq!(engine.stats().queries, 0);
}

/// The adaptive engine executes a mixed-type SkyServer-shaped workload
/// (f64 filters + dict-keyed rollups) bit-identically to the interpreter
/// on the same snapshot, while adaptation reorganizes typed layouts.
#[test]
fn adaptive_engine_matches_interpreter_on_mixed_skyserver_workload() {
    let (spec, columns, queries) = h2o::workload::skyserver_grouped_workload(2_000, 60, 21);
    let rel = Relation::columnar(spec.schema.clone(), columns).unwrap();
    let mut cfg = EngineConfig::default();
    cfg.window.initial = 8;
    cfg.window.min = 4;
    let engine = H2oEngine::new(rel, cfg);
    for (i, tq) in queries.iter().enumerate() {
        let out = engine
            .run(Request::query(&tq.query).hint(tq.selectivity))
            .unwrap();
        let (snap, got) = (out.snapshot.primary(), out.result);
        let want = interpret(snap, &tq.query).unwrap();
        assert_eq!(got, want, "query {i}: {}", tq.query);
    }
    let stats = engine.stats();
    assert!(stats.adaptations >= 1, "mixed workload drives adaptation");
    assert!(
        stats.layouts_created >= 1,
        "typed layouts materialize: {stats:?}"
    );
    // Typed rendering round-trips through the schema dictionaries.
    let q = Query::grouped(
        [Expr::Col(spec.schema.attr_by_name("type").unwrap())],
        [Aggregate::count()],
        Conjunction::always(),
    )
    .unwrap();
    let types = typecheck::check(&q, &spec.schema)
        .unwrap()
        .select
        .output_types();
    let out = engine.run(Request::query(&q)).unwrap().result;
    let dicts = vec![
        spec.schema
            .dictionary(spec.schema.attr_by_name("type").unwrap())
            .cloned(),
        None,
    ];
    let rendered = out.render(&types, &dicts);
    assert!(
        rendered.contains("\"GALAXY\""),
        "labels decode in rendered results: {rendered}"
    );
}

/// An f64 lane strategy for proptest: dyadic-grid values (exact sums) in a
/// modest range, NaN-free (NaN behavior is pinned separately above).
fn f64_grid_lane() -> impl PropStrategy<Value = i64> {
    (-200_000i64..200_000).prop_map(|k| f64_lane(k as f64 * F64_GRID))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mixed-type relations: serial/parallel ×
    /// segmented/monolithic agrees bit-for-bit with the interpreter.
    #[test]
    fn mixed_relations_differential(
        rows in 1usize..260,
        shift in 3u32..6,
        f64_filter in f64_grid_lane(),
        i64_filter in -16i64..16,
        label in 0usize..CLASS_LABELS.len(),
        seed in 0u64..u64::MAX,
    ) {
        let schema = Schema::typed([
            ("c", LogicalType::Dict),
            ("i", LogicalType::I64),
            ("x", LogicalType::F64),
            ("y", LogicalType::F64),
        ]).into_shared();
        let dict = schema.dictionary(AttrId(0)).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let c: Vec<Value> = gen_dict_column(rows, dict, &CLASS_LABELS, seed);
        let i: Vec<Value> = (0..rows).map(|_| rng.gen_range(-16i64..16)).collect();
        let x: Vec<Value> = (0..rows)
            .map(|_| f64_lane(rng.gen_range(-200_000i64..200_000) as f64 * F64_GRID))
            .collect();
        let y: Vec<Value> = (0..rows)
            .map(|_| f64_lane(rng.gen_range(0i64..4096) as f64 * F64_GRID))
            .collect();
        let partitions = vec![
            vec![vec![AttrId(0)], vec![AttrId(1)], vec![AttrId(2)], vec![AttrId(3)]],
            vec![vec![AttrId(0), AttrId(1), AttrId(2), AttrId(3)]],
            vec![vec![AttrId(0), AttrId(2)], vec![AttrId(1), AttrId(3)]],
        ];
        let queries = vec![
            Query::project(
                [Expr::sum_of([AttrId(2), AttrId(3)])],
                Conjunction::of([Predicate::lt(2u32, lane_f64(f64_filter))]),
            ).unwrap(),
            Query::aggregate(
                [
                    Aggregate::sum(Expr::col(2u32)),
                    Aggregate::min(Expr::col(3u32)),
                    Aggregate::max(Expr::col(2u32)),
                    Aggregate::avg(Expr::col(3u32)),
                    Aggregate::count(),
                ],
                Conjunction::of([
                    Predicate::eq(0u32, CLASS_LABELS[label]),
                    Predicate::gt(1u32, i64_filter),
                ]),
            ).unwrap(),
            Query::grouped(
                [Expr::col(0u32)],
                [Aggregate::sum(Expr::col(2u32)), Aggregate::count()],
                Conjunction::of([Predicate::new(
                    3u32,
                    h2o::expr::CmpOp::Ge,
                    lane_f64(f64_filter).abs().min(4.0),
                )]),
            ).unwrap(),
        ];
        // Segmented and monolithic storage of the same logical data.
        for part in &partitions {
            for sh in [shift, 30] {
                let rel = Relation::partitioned_with_shift(
                    schema.clone(),
                    vec![c.clone(), i.clone(), x.clone(), y.clone()],
                    part.clone(),
                    sh,
                ).unwrap();
                for q in &queries {
                    let want = interpret(rel.catalog(), q).unwrap();
                    let plan = AccessPlan::new(rel.catalog().layout_ids(), Strategy::FusedVolcano);
                    let op = compile(rel.catalog(), &plan, q).unwrap();
                    prop_assert_eq!(&execute(rel.catalog(), &op).unwrap(), &want);
                    let policy = ExecPolicy {
                        parallelism: Some(4),
                        morsel_rows: 64,
                        serial_threshold: 0,
                    };
                    prop_assert_eq!(
                        &execute_with_policy(rel.catalog(), &op, &policy).unwrap(),
                        &want
                    );
                }
            }
        }
    }
}

/// The `H2O_STRESS_SEED`-seeded replay sweep (CI runs it in release with a
/// fixed seed; failures replay locally with the same value).
#[test]
fn stress_seed_replay_sweep() {
    let seed = stress_seed();
    let mut rng = SmallRng::seed_from_u64(seed);
    for round in 0..6 {
        let rel_seed = rng.gen_range(0..u64::MAX);
        for (layout, rel) in relations(rel_seed) {
            // Random typed filter constants per round.
            let ra = (rng.gen_range(0..360 * 1024) as f64) / 1024.0;
            let mag = 10.0 + (rng.gen_range(0..20 * 1024) as f64) / 1024.0;
            let label = CLASS_LABELS[rng.gen_range(0..CLASS_LABELS.len())];
            let queries = [
                Query::aggregate(
                    [
                        Aggregate::sum(Expr::col(2u32)),
                        Aggregate::max(Expr::col(5u32)),
                        Aggregate::count(),
                    ],
                    Conjunction::of([Predicate::lt(2u32, ra), Predicate::eq(0u32, label)]),
                )
                .unwrap(),
                Query::grouped(
                    [Expr::col(0u32), Expr::col(4u32)],
                    [Aggregate::sum(Expr::col(5u32)), Aggregate::count()],
                    Conjunction::of([Predicate::gt(5u32, mag)]),
                )
                .unwrap(),
            ];
            for q in queries {
                let want = interpret(rel.catalog(), &q).unwrap();
                let plan = AccessPlan::new(rel.catalog().layout_ids(), Strategy::FusedVolcano);
                let op = compile(rel.catalog(), &plan, &q).unwrap();
                assert_eq!(
                    execute(rel.catalog(), &op).unwrap(),
                    want,
                    "round {round} layout {layout} \
                     (H2O_STRESS_SEED={seed})"
                );
                for policy in policies() {
                    assert_eq!(
                        execute_with_policy(rel.catalog(), &op, &policy).unwrap(),
                        want,
                        "round {round} layout {layout} parallel \
                         (H2O_STRESS_SEED={seed})"
                    );
                }
            }
        }
    }
}

/// Dictionary predicates resolve through the shared per-attribute
/// dictionary: unknown labels select nothing (`=`) / everything (`<>`),
/// and `Datum` round-trips lanes faithfully.
#[test]
fn dictionary_predicates_and_rendering() {
    let schema = mixed_schema();
    let columns = mixed_columns(&schema, 256, 11);
    let rel = Relation::columnar(schema.clone(), columns).unwrap();
    let count_where = |p: Predicate| {
        interpret(
            rel.catalog(),
            &Query::aggregate([Aggregate::count()], Conjunction::of([p])).unwrap(),
        )
        .unwrap()
        .row(0)[0]
    };
    let total = count_where(Predicate::new(1u32, h2o::expr::CmpOp::Ne, i64::MIN));
    assert_eq!(total, 256);
    let per_label: Value = CLASS_LABELS
        .iter()
        .map(|l| count_where(Predicate::eq(0u32, *l)))
        .sum();
    assert_eq!(per_label, total, "labels partition the relation");
    assert_eq!(count_where(Predicate::eq(0u32, "NOT_A_LABEL")), 0);
    assert_eq!(
        count_where(Predicate::new(0u32, h2o::expr::CmpOp::Ne, "NOT_A_LABEL")),
        total
    );
    // Datum round-trip through a rendered projection row.
    let q = Query::project([Expr::col(0u32), Expr::col(2u32)], Conjunction::always()).unwrap();
    let types = typecheck::check(&q, &schema).unwrap().select.output_types();
    assert_eq!(types, vec![LogicalType::Dict, LogicalType::F64]);
    let out = interpret(rel.catalog(), &q).unwrap();
    let dicts = vec![schema.dictionary(AttrId(0)).cloned(), None];
    let row = out.row_datums(0, &types, &dicts);
    assert!(matches!(&row[0], Datum::Str(_)));
    assert!(matches!(&row[1], Datum::F64(_)));
}
