//! Morsel-parallel execution must be **bit-identical** to serial execution:
//! same rows, same order, same aggregate values — for every
//! query shape, every layout, any morsel size and any worker count.

use h2o::core::{EngineConfig, H2oEngine};
use h2o::exec::parallel::DEFAULT_MORSEL_ROWS;
use h2o::exec::{
    compile, execute, execute_with_policy, reorg, AccessPlan, ExecCtx, ExecPolicy, Strategy,
};
use h2o::expr::interpret;
use h2o::prelude::*;
use h2o::workload::synth::{gen_columns, threshold_for_selectivity};

const ROWS: usize = 5_000;
const ATTRS: usize = 8;

fn relations() -> Vec<(&'static str, Relation)> {
    let schema = Schema::with_width(ATTRS).into_shared();
    let columns = gen_columns(ATTRS, ROWS, 77);
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
            "grouped",
            Relation::partitioned(
                schema,
                columns,
                vec![
                    vec![AttrId(0), AttrId(1), AttrId(2)],
                    vec![AttrId(3), AttrId(4)],
                    vec![AttrId(5)],
                    vec![AttrId(6), AttrId(7)],
                ],
            )
            .unwrap(),
        ),
    ]
}

/// Query shapes covering: single/multi expression projections, bare-column
/// and expression aggregates, every aggregate function, 0/1/2 predicates.
fn queries() -> Vec<Query> {
    let filt = |s: f64| Conjunction::of([Predicate::lt(0u32, threshold_for_selectivity(s))]);
    let two_pred = |s: f64| {
        let t = threshold_for_selectivity(s);
        Conjunction::of([Predicate::lt(0u32, t), Predicate::gt(1u32, -t)])
    };
    vec![
        // Projections.
        Query::project([Expr::sum_of([AttrId(2), AttrId(3), AttrId(4)])], filt(0.3)).unwrap(),
        Query::project(
            [Expr::col(5u32), Expr::col(6u32).mul(Expr::lit(3))],
            two_pred(0.7),
        )
        .unwrap(),
        Query::project([Expr::col(7u32)], Conjunction::always()).unwrap(),
        Query::project([Expr::col(2u32)], filt(0.0)).unwrap(), // empty result
        Query::project([Expr::col(2u32)], filt(0.01)).unwrap(), // very sparse
        // Aggregates: every function, bare columns (specialized tiers).
        Query::aggregate(
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
        // Dense same-function run over adjacent attrs (the tightest tier).
        Query::aggregate(
            [
                Aggregate::max(Expr::col(2u32)),
                Aggregate::max(Expr::col(3u32)),
                Aggregate::max(Expr::col(4u32)),
            ],
            two_pred(0.4),
        )
        .unwrap(),
        // Expression aggregate (generic state path).
        Query::aggregate(
            [Aggregate::sum(Expr::col(2u32).mul(Expr::col(3u32)))],
            filt(0.6),
        )
        .unwrap(),
        // No-filter bare-column aggregate (column-store streaming path).
        Query::aggregate(
            [
                Aggregate::min(Expr::col(6u32)),
                Aggregate::sum(Expr::col(7u32)),
            ],
            Conjunction::always(),
        )
        .unwrap(),
        // Filter with zero and full selectivity on aggregates.
        Query::aggregate([Aggregate::count()], filt(0.0)).unwrap(),
        Query::aggregate([Aggregate::avg(Expr::col(4u32))], filt(1.0)).unwrap(),
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
        ("morsel-larger-than-relation", p(4, ROWS * 2)),
        ("eight-workers-odd-morsel", p(8, 999)),
        (
            "threshold-forces-serial",
            ExecPolicy {
                parallelism: Some(8),
                morsel_rows: 256,
                serial_threshold: ROWS,
            },
        ),
    ]
}

#[test]
fn parallel_matches_serial_for_every_strategy_and_shape() {
    for (layout, rel) in relations() {
        let layouts = rel.catalog().layout_ids();
        for (qi, q) in queries().iter().enumerate() {
            let want_interp = interpret(rel.catalog(), q).unwrap();
            let plan = AccessPlan::new(layouts.clone(), Strategy::FusedVolcano);
            let op = compile(rel.catalog(), &plan, q).unwrap();
            let serial = execute(rel.catalog(), &op).unwrap();
            // Serial must agree with the interpreter (sanity anchor).
            assert_eq!(
                serial.fingerprint(),
                want_interp.fingerprint(),
                "layout {layout} query {qi}"
            );
            for (pname, policy) in policies() {
                let parallel = execute_with_policy(rel.catalog(), &op, &policy).unwrap();
                // Bit-identical: same width, same rows, same order.
                assert_eq!(
                    parallel, serial,
                    "layout {layout} query {qi} policy {pname}"
                );
            }
        }
    }
}

#[test]
fn parallel_reorganization_is_byte_identical() {
    let (_, rel) = relations().into_iter().next_back().unwrap();
    let targets: Vec<AttrId> = vec![AttrId(4), AttrId(1), AttrId(6)];
    let q = Query::aggregate(
        [
            Aggregate::sum(Expr::sum_of([AttrId(4), AttrId(1)])),
            Aggregate::count(),
        ],
        Conjunction::of([Predicate::gt(6u32, 0)]),
    )
    .unwrap();
    let serial = ExecCtx::new(ExecPolicy::serial());
    let (serial_group, serial_result) =
        reorg::reorg_and_execute(rel.catalog(), &targets, &q, &serial).unwrap();
    let serial_offline = reorg::materialize(rel.catalog(), &targets).unwrap();
    assert_eq!(
        serial_group.collect_values(),
        serial_offline.collect_values(),
        "serial online group = materialize's"
    );
    for (pname, policy) in policies() {
        let ctx = ExecCtx::new(policy);
        let (g, r) = reorg::reorg_and_execute(rel.catalog(), &targets, &q, &ctx).unwrap();
        assert_eq!(
            g.collect_values(),
            serial_offline.collect_values(),
            "online group = materialize's, policy {pname}"
        );
        assert_eq!(r, serial_result, "online result, policy {pname}");
        let off = reorg::materialize_with(rel.catalog(), &targets, &policy).unwrap();
        assert_eq!(
            off.collect_values(),
            serial_offline.collect_values(),
            "offline, policy {pname}"
        );
    }
    // Projection-shaped online reorg too.
    let qp = Query::project(
        [Expr::col(4u32), Expr::col(1u32)],
        Conjunction::of([Predicate::le(1u32, 0)]),
    )
    .unwrap();
    let (sg, sr) = reorg::reorg_and_execute(rel.catalog(), &targets, &qp, &serial).unwrap();
    for (pname, policy) in policies() {
        let ctx = ExecCtx::new(policy);
        let (g, r) = reorg::reorg_and_execute(rel.catalog(), &targets, &qp, &ctx).unwrap();
        assert_eq!(
            g.collect_values(),
            sg.collect_values(),
            "online projection group, policy {pname}"
        );
        assert_eq!(r, sr, "online projection result, policy {pname}");
    }
}

#[test]
fn parallel_engine_agrees_with_interpreter_through_adaptation() {
    // A full adaptive run on the parallel path (several workers over a
    // relation of three default-size morsels): every answer must still
    // match the reference interpreter, including the queries that trigger
    // online reorganization.
    let rows = 2 * DEFAULT_MORSEL_ROWS + 4_096;
    let schema = Schema::with_width(6).into_shared();
    let columns = gen_columns(6, rows, 5);
    let mut cfg = EngineConfig::default();
    cfg.window.initial = 8;
    cfg.window.min = 4;
    cfg.parallelism = Some(4);
    assert_eq!(cfg.exec_policy().morsel_count(rows), 3);
    assert!(!cfg.exec_policy().is_serial_for(rows));
    let engine = H2oEngine::new(Relation::columnar(schema, columns).unwrap(), cfg);
    for i in 0..20 {
        let q = Query::project(
            [Expr::sum_of([AttrId(0), AttrId(1), AttrId(2), AttrId(3)])],
            Conjunction::of([Predicate::lt(
                4u32,
                threshold_for_selectivity(0.1 * (i % 10) as f64),
            )]),
        )
        .unwrap();
        let want = interpret(&engine.catalog(), &q).unwrap();
        let got = engine.run(Request::query(&q)).unwrap().result;
        assert_eq!(got, want, "query {i}");
    }
    assert!(
        engine.stats().layouts_created >= 1,
        "the run must exercise parallel online reorganization; stats: {:?}",
        engine.stats()
    );
}

#[test]
fn parallelism_one_is_the_serial_path() {
    // `Some(1)` must behave exactly like the serial entry point even with
    // absurd morsel configurations.
    let (_, rel) = relations().into_iter().next().unwrap();
    let q = queries().into_iter().next().unwrap();
    let plan = AccessPlan::new(rel.catalog().layout_ids(), Strategy::FusedVolcano);
    let op = compile(rel.catalog(), &plan, &q).unwrap();
    let serial = execute(rel.catalog(), &op).unwrap();
    for morsel in [1usize, 3, ROWS, ROWS * 10] {
        let policy = ExecPolicy {
            parallelism: Some(1),
            morsel_rows: morsel,
            serial_threshold: 0,
        };
        assert_eq!(
            execute_with_policy(rel.catalog(), &op, &policy).unwrap(),
            serial,
            "morsel_rows={morsel}"
        );
    }
}
