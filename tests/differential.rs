//! The engine's core invariant: **every execution strategy, every layout
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

/// Integer `sum`/`avg` wrap modulo 2^64 — in the interpreter, in every
/// strategy's kernels, and in the join's factorized folds (a
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
            for strategy in Strategy::ALL {
                let plan = AccessPlan::new(rel.catalog().layout_ids(), strategy);
                let op = compile(rel.catalog(), &plan, q).unwrap();
                for policy in &policies {
                    let (got, _) = run(rel.catalog(), &op, &ExecCtx::new(*policy)).unwrap();
                    assert_eq!(
                        got.data(),
                        want.data(),
                        "{} on {q} {policy:?}",
                        strategy.name()
                    );
                }
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
    for strategy in Strategy::ALL {
        let lplan = AccessPlan::new(dim.catalog().layout_ids(), strategy);
        let rplan = AccessPlan::new(fact.catalog().layout_ids(), strategy);
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
                let ctx = ExecCtx::new(*policy);
                let (got, _) = run_join(dim.catalog(), fact.catalog(), &op, &ctx).unwrap();
                assert_eq!(
                    got.data(),
                    want.data(),
                    "{} build_is_left={build_is_left} {policy:?}",
                    strategy.name()
                );
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
