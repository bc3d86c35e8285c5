//! The engine's core invariant: **every layout
//! combination, and every adaptation state returns the same answer.**
//!
//! Random relations + random query workloads are run through the adaptive
//! engine, both static baselines, and the reference interpreter; all four
//! must agree before, during, and after layout reorganization.

use h2o::core::{EngineConfig, H2oEngine, StaticEngine, StaticKind};
use h2o::expr::interpret;
use h2o::prelude::*;
use h2o::workload::micro::{QueryGen, Template};
use h2o::workload::synth::gen_columns;
use proptest::prelude::*;

fn engines(n_attrs: usize, rows: usize, seed: u64) -> (H2oEngine, StaticEngine, StaticEngine) {
    let schema = Schema::with_width(n_attrs).into_shared();
    let columns = gen_columns(n_attrs, rows, seed);
    let h2o = {
        let mut cfg = EngineConfig::default();
        cfg.window.initial = 8;
        cfg.window.min = 4;
        H2oEngine::new(
            Relation::columnar(schema.clone(), columns.clone()).unwrap(),
            cfg,
        )
    };
    let row = StaticEngine::new(schema.clone(), columns.clone(), StaticKind::RowStore).unwrap();
    let col = StaticEngine::new(schema, columns, StaticKind::ColumnStore).unwrap();
    (h2o, row, col)
}

#[test]
fn all_engines_agree_across_a_long_adaptive_run() {
    let (h2o, row, col) = engines(24, 2_000, 99);
    let mut gen = QueryGen::new(24, 5);
    for i in 0..120 {
        let template = Template::ALL[i % 3];
        let k = 2 + (i % 8);
        let n_preds = i % 3;
        let sel = [0.0, 0.01, 0.3, 0.7, 1.0][i % 5];
        let (q, _) = gen.random(template, k, n_preds, sel);
        let want = interpret(col.relation().catalog(), &q)
            .unwrap()
            .fingerprint();
        assert_eq!(
            h2o.run(Request::query(&q)).unwrap().result.fingerprint(),
            want,
            "H2O diverged at query {i}: {q}"
        );
        assert_eq!(
            row.execute(&q).unwrap().fingerprint(),
            want,
            "row store diverged at query {i}: {q}"
        );
        assert_eq!(
            col.execute(&q).unwrap().fingerprint(),
            want,
            "column store diverged at query {i}: {q}"
        );
    }
    // The run must have actually exercised adaptation for the test to mean
    // anything.
    assert!(h2o.stats().adaptations > 0);
}

#[test]
fn agreement_survives_explicit_reorganizations() {
    let (h2o, _, col) = engines(12, 1_000, 3);
    let q = Query::aggregate(
        [
            Aggregate::sum(Expr::sum_of([AttrId(0), AttrId(1)])),
            Aggregate::max(Expr::col(2u32)),
        ],
        Conjunction::of([Predicate::gt(3u32, 0)]),
    )
    .unwrap();
    let want = interpret(col.relation().catalog(), &q).unwrap();
    assert_eq!(h2o.run(Request::query(&q)).unwrap().result, want);
    // Materialize several overlapping layouts by hand; answers must hold.
    h2o.materialize_now(&[AttrId(0), AttrId(1), AttrId(2), AttrId(3)])
        .unwrap();
    assert_eq!(h2o.run(Request::query(&q)).unwrap().result, want);
    h2o.materialize_now(&[AttrId(3), AttrId(2)]).unwrap();
    assert_eq!(h2o.run(Request::query(&q)).unwrap().result, want);
    // Same data now lives in three formats simultaneously.
    assert!(h2o.catalog().group_count() >= 14);
}

/// Integer `sum`/`avg` wrap modulo 2^64 — in the interpreter, in the
/// scan's kernels, and in the join's factorized folds (a
/// multiplicity `n` multiplies instead of adding `n` times) — so at the
/// `i64::MAX` boundary they all still agree bit for bit: scalar, grouped,
/// `BuildAggs` and `ProbeOnly` sums, under every policy (the 4-row
/// morsels split even the 12-row dimension into 3 probe ranges, so the
/// join's one merge sums several ranges' hit counts).
#[test]
fn integer_aggregates_wrap_identically_at_the_i64_boundary() {
    use h2o::exec::{
        compile, compile_join, run, run_join, AccessPlan, ExecCtx, ExecPolicy, FoldPlan, Strategy,
    };
    use h2o::expr::{check_join, interpret_join, JoinQuery};
    use h2o::storage::LogicalType;

    const EDGE: [i64; 7] = [i64::MAX, i64::MAX - 1, 1, i64::MIN, -1, i64::MAX / 2 + 1, 7];
    // Long enough for full SIMD blocks plus a ragged tail.
    let rows = 301;
    let columns: Vec<Vec<i64>> = vec![
        (0..rows).map(|r| EDGE[r % EDGE.len()]).collect(),
        (0..rows).map(|r| EDGE[(r * 3 + 1) % EDGE.len()]).collect(),
        (0..rows).map(|r| (r % 4) as i64).collect(),
    ];

    let (a, b) = (Expr::col(0u32), Expr::col(1u32));
    let aggs = [
        Aggregate::sum(a.clone()),
        Aggregate::avg(a.clone()),
        Aggregate::sum(a.clone().add(b.clone())),
        Aggregate::avg(a.clone().mul(b)),
        Aggregate::count(),
    ];
    let some = Conjunction::of([Predicate::lt(2u32, 3)]);
    let queries = [
        Query::aggregate(aggs.clone(), Conjunction::always()).unwrap(),
        Query::aggregate(aggs.clone(), some.clone()).unwrap(),
        Query::grouped([Expr::col(2u32)], aggs.clone(), some).unwrap(),
    ];
    // The sums really do leave the i64 range: a checked fold fails where
    // the wrapping one carries on.
    assert!(columns[0]
        .iter()
        .try_fold(0i64, |s, &v| s.checked_add(v))
        .is_none());
    let schema = Schema::with_width(3).into_shared();
    let policy = |parallelism: usize, morsel_rows: usize| ExecPolicy {
        parallelism: Some(parallelism),
        morsel_rows,
        serial_threshold: 0,
    };
    let policies = [
        ExecPolicy::serial(),
        policy(2, 64),
        policy(4, 100),
        policy(3, 4),
    ];
    for rel in [
        Relation::columnar(schema.clone(), columns.clone()).unwrap(),
        Relation::row_major(schema, columns.clone()).unwrap(),
    ] {
        for q in &queries {
            let want = interpret(rel.catalog(), q).unwrap();
            let plan = AccessPlan::new(rel.catalog().layout_ids(), Strategy::FusedVolcano);
            let op = compile(rel.catalog(), &plan, q).unwrap();
            for policy in &policies {
                let (got, _) = run(rel.catalog(), &op, &ExecCtx::new(*policy)).unwrap();
                assert_eq!(got.data(), want.data(), "on {q} {policy:?}");
            }
        }
    }

    // Join: every dimension key appears three times, so when the dimension
    // builds, each fact row folds with multiplicity 3; when the fact side
    // builds, each fact row folds once per probe hit on its key, summed
    // over the probe ranges.
    let typed = |names: [&'static str; 2]| {
        Schema::typed(names.map(|n| (n, LogicalType::I64))).into_shared()
    };
    let dim = Relation::columnar(
        typed(["key", "pad"]),
        vec![(0..12).map(|i| i % 4).collect(), vec![0; 12]],
    )
    .unwrap();
    let fact = Relation::columnar(
        typed(["fk", "val"]),
        vec![columns[2].clone(), columns[0].clone()],
    )
    .unwrap();
    let b = JoinQuery::builder(
        ("dim", dim.catalog().schema().clone()),
        ("fact", fact.catalog().schema().clone()),
    );
    let val = b.col("val").unwrap();
    let q = b
        .on("key", "fk")
        .unwrap()
        .aggregate([
            Aggregate::sum(val.clone()),
            Aggregate::avg(val),
            Aggregate::count(),
        ])
        .unwrap();
    let checked = check_join(&q).unwrap();
    let want = interpret_join(dim.catalog(), fact.catalog(), &q).unwrap();
    let lplan = AccessPlan::new(dim.catalog().layout_ids(), Strategy::FusedVolcano);
    let rplan = AccessPlan::new(fact.catalog().layout_ids(), Strategy::FusedVolcano);
    for build_is_left in [true, false] {
        let op = compile_join(
            dim.catalog(),
            fact.catalog(),
            &lplan,
            &rplan,
            &q,
            &checked,
            build_is_left,
        )
        .unwrap();
        // The dimension side has no payload: building it, the probe
        // folds each fact row once with its multiplicity. Building the
        // fact side, the integer aggregates fold per build key.
        let want_plan = if build_is_left {
            FoldPlan::ProbeOnly
        } else {
            FoldPlan::BuildAggs
        };
        assert_eq!(op.fold_plan(), want_plan);
        for policy in &policies {
            // A cold build per policy: each policy builds its own.
            let ctx = ExecCtx::new(*policy);
            let op = op.cold_copy();
            let (got, _) = run_join(dim.catalog(), fact.catalog(), &op, &ctx).unwrap();
            assert_eq!(
                got.data(),
                want.data(),
                "build_is_left={build_is_left} {policy:?}"
            );
        }
    }
}

/// The batch step's edges: every select shape through every source at
/// 1,023, 1,024 and 1,025 qualifying rows — one short of a 1K-row batch,
/// exactly one, one past. `a0` permutes the row ids, so `a0 < n` spreads
/// the qualifying rows over every 512-row segment and each batch straddles
/// segment pieces. Sources: the scan over two groups and over one
/// row-major group,
/// the fused reorganization operator, and a join under each fold plan
/// (probe-only hits, the build-aggregates merge, build groups, per-pair).
/// Serial runs equal the interpreter bit for bit (the doubles of `a1` are
/// non-dyadic, so a sum that split its chain at a batch edge would show);
/// parallel runs equal it by fingerprint wherever no non-dyadic sum makes
/// the morsel merge round.
#[test]
fn batch_edges_match_the_interpreter_for_every_source() {
    use h2o::exec::{
        compile, compile_join, reorg, run, run_join, AccessPlan, ExecCtx, ExecPolicy, Strategy,
    };
    use h2o::expr::{check_join, interpret_join, JoinQuery};
    use h2o::storage::{f64_lane, LogicalType};

    let rows = 3_000usize;
    let cols: Vec<Vec<Value>> = vec![
        (0..rows).map(|i| (i * 7_919 % rows) as Value).collect(),
        (0..rows)
            .map(|i| f64_lane(i as f64 * 0.37 + 0.001))
            .collect(),
        (0..rows).map(|i| (i * 31 % 97) as Value - 40).collect(),
        (0..rows).map(|i| (i * 13 % 11) as Value).collect(),
        (0..rows)
            .map(|i| f64_lane((i % 50) as f64 * 0.25))
            .collect(),
    ];
    let (i64_, f64_) = (LogicalType::I64, LogicalType::F64);
    let schema = Schema::typed([
        ("a0", i64_),
        ("a1", f64_),
        ("a2", i64_),
        ("a3", i64_),
        ("a4", f64_),
    ])
    .into_shared();
    let attrs = |ids: &[u32]| ids.iter().map(|&a| AttrId(a)).collect::<Vec<_>>();
    let layouts = [
        Relation::partitioned_with_shift(
            schema.clone(),
            cols.clone(),
            vec![attrs(&[0, 1, 2]), attrs(&[3, 4])],
            9,
        )
        .unwrap(),
        Relation::partitioned_with_shift(schema.clone(), cols, vec![attrs(&[0, 1, 2, 3, 4])], 9)
            .unwrap(),
    ];
    let policy = |threads, morsel_rows| ExecPolicy {
        parallelism: Some(threads),
        morsel_rows,
        serial_threshold: 0,
    };
    let parallel = [policy(2, 512), policy(3, 1_000)];
    let c = |a: u32| Expr::col(a);
    // (select clause as a query over `a0 < n`, exact in parallel)
    let shapes = |n: Value| {
        let f = || Conjunction::of([Predicate::lt(0u32, n)]);
        [
            (Query::project([c(2)], f()).unwrap(), true),
            (
                Query::project([c(1), c(2).add(c(3)), c(4).mul(Expr::lit(2.0))], f()).unwrap(),
                true,
            ),
            (
                Query::aggregate(
                    [
                        Aggregate::sum(c(2).add(c(3))),
                        Aggregate::max(c(1)),
                        Aggregate::avg(c(4)),
                        Aggregate::count(),
                    ],
                    f(),
                )
                .unwrap(),
                true,
            ),
            // Bare columns of both groups: the batch step.
            (
                Query::aggregate([Aggregate::sum(c(1)), Aggregate::min(c(3))], f()).unwrap(),
                false,
            ),
            // Adjacent bare columns of one slot: the per-column tier.
            (
                Query::aggregate([Aggregate::max(c(1)), Aggregate::sum(c(2))], f()).unwrap(),
                true,
            ),
            (
                Query::grouped(
                    [c(3)],
                    [
                        Aggregate::sum(c(1)),
                        Aggregate::count(),
                        Aggregate::min(c(2)),
                    ],
                    f(),
                )
                .unwrap(),
                false,
            ),
            (
                Query::grouped(
                    [c(3), c(2)],
                    [Aggregate::sum(c(4)), Aggregate::max(c(1))],
                    f(),
                )
                .unwrap(),
                true,
            ),
        ]
    };
    for n in [1_023, 1_024, 1_025] {
        for (layout, rel) in layouts.iter().enumerate() {
            let catalog = rel.catalog();
            for (q, exact_in_parallel) in shapes(n) {
                let want = interpret(catalog, &q).unwrap();
                let ctx = |what: &str| format!("{what} n={n} layout {layout} {q}");
                let check = |got: &QueryResult, policy: &ExecPolicy, what: &str| {
                    if policy.parallelism.is_none() {
                        assert_eq!(got.data(), want.data(), "{} serial", ctx(what));
                    } else if exact_in_parallel {
                        assert_eq!(got.fingerprint(), want.fingerprint(), "{}", ctx(what));
                    }
                };
                let op = compile(
                    catalog,
                    &AccessPlan::new(catalog.layout_ids(), Strategy::FusedVolcano),
                    &q,
                )
                .unwrap();
                for policy in [ExecPolicy::serial()].iter().chain(&parallel) {
                    let (got, _) = run(catalog, &op, &ExecCtx::new(*policy)).unwrap();
                    check(&got, policy, "scan");
                }
                for policy in [ExecPolicy::serial()].iter().chain(&parallel) {
                    let target = attrs(&[1, 2]);
                    let (_, got) =
                        reorg::reorg_and_execute(catalog, &target, &q, &ExecCtx::new(*policy))
                            .unwrap();
                    check(&got, policy, "online reorganization");
                }
            }
        }
    }

    // Joins on `a0 = fk`: `fk < n` qualifies n fact rows, each matching
    // one row of the relation, so a probe of the fact side has n hits and
    // a fact build n reached build rows. The relation probes through two
    // groups or one (whose one-slot fetch must still read build lanes
    // from the payload).
    let fact = Relation::columnar(
        Schema::typed([("fk", i64_), ("v", i64_), ("w", f64_)]).into_shared(),
        vec![
            (0..rows as Value).rev().collect(),
            (0..rows).map(|j| (j * 17 % 23) as Value).collect(),
            (0..rows).map(|j| f64_lane(j as f64 * 0.5)).collect(),
        ],
    )
    .unwrap();
    let b = || {
        JoinQuery::builder(
            ("rel", schema.clone()),
            ("fact", fact.catalog().schema().clone()),
        )
    };
    let col = |name| b().col(name).unwrap();
    for (n, rel) in [1_023, 1_024, 1_025]
        .into_iter()
        .flat_map(|n| layouts.iter().map(move |r| (n, r)))
    {
        let on = || {
            b().on("a0", "fk")
                .unwrap()
                .filter_right(Conjunction::of([Predicate::lt(0u32, n)]))
        };
        let queries = [
            // Probe-only hits when the relation builds; the build-aggregates
            // merge when the fact side does.
            on().aggregate([Aggregate::sum(col("v")), Aggregate::count()])
                .unwrap(),
            // Probe-only grouped hits, or build groups.
            on().grouped([col("v")], [Aggregate::count()]).unwrap(),
            // Per-pair either way.
            on().project([col("a1"), col("w"), col("a2").add(col("v"))])
                .unwrap(),
            on().aggregate([
                Aggregate::sum(col("a2").mul(col("v"))),
                Aggregate::max(col("a1").add(col("w"))),
            ])
            .unwrap(),
            on().grouped(
                [col("a3")],
                [
                    Aggregate::sum(col("a2").add(col("v"))),
                    Aggregate::min(col("w")),
                ],
            )
            .unwrap(),
        ];
        for q in &queries {
            let checked = check_join(q).unwrap();
            let want = interpret_join(rel.catalog(), fact.catalog(), q).unwrap();
            let lplan = AccessPlan::new(rel.catalog().layout_ids(), Strategy::FusedVolcano);
            let rplan = AccessPlan::new(fact.catalog().layout_ids(), Strategy::FusedVolcano);
            for build_is_left in [true, false] {
                let op = compile_join(
                    rel.catalog(),
                    fact.catalog(),
                    &lplan,
                    &rplan,
                    q,
                    &checked,
                    build_is_left,
                )
                .unwrap();
                let ctx = format!(
                    "n={n} build_is_left={build_is_left} {:?} {q}",
                    op.fold_plan()
                );
                let serial = ExecCtx::new(ExecPolicy::serial());
                let (got, stats) = run_join(rel.catalog(), fact.catalog(), &op, &serial).unwrap();
                assert_eq!(stats.output_pairs, n as usize, "{ctx}");
                // The interpreter builds the left side: with it
                // building too, the pairs stream in its order.
                if build_is_left {
                    assert_eq!(got.data(), want.data(), "{ctx}");
                } else {
                    assert_eq!(got.fingerprint(), want.fingerprint(), "{ctx}");
                }
                for policy in &parallel {
                    let ctx2 = ExecCtx::new(*policy);
                    let op = op.cold_copy();
                    let (par, _) = run_join(rel.catalog(), fact.catalog(), &op, &ctx2).unwrap();
                    assert_eq!(par.fingerprint(), want.fingerprint(), "{ctx} {policy:?}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random query agrees between the interpreter, the adaptive engine
    /// and both static engines, for random (small) relations.
    #[test]
    fn random_queries_agree(
        seed in 0u64..1000,
        k in 1usize..6,
        n_preds in 0usize..3,
        sel in 0.0f64..1.0,
        template_idx in 0usize..3,
        rows in 1usize..400,
    ) {
        let n_attrs = 10;
        let (h2o, row, col) = engines(n_attrs, rows, seed);
        let mut gen = QueryGen::new(n_attrs, seed ^ 0xdead);
        let (q, _) = gen.random(Template::ALL[template_idx], k, n_preds.min(k), sel);
        let want = interpret(col.relation().catalog(), &q).unwrap().fingerprint();
        prop_assert_eq!(h2o.run(Request::query(&q)).unwrap().result.fingerprint(), want);
        prop_assert_eq!(row.execute(&q).unwrap().fingerprint(), want);
        prop_assert_eq!(col.execute(&q).unwrap().fingerprint(), want);
    }
}
