//! End-to-end behavior of the adaptation mechanism: layouts emerge for hot
//! clusters, shifts re-trigger adaptation, oscillation does not thrash, and
//! adaptation can start from any initial layout.

use h2o::core::{EngineConfig, H2oEngine};
use h2o::expr::interpret;
use h2o::prelude::*;
use h2o::workload::sequence::{oscillating_sequence, shifted_sequence};
use h2o::workload::synth::gen_columns;

fn engine_with(relation: Relation, window: usize) -> H2oEngine {
    let mut cfg = EngineConfig::default();
    cfg.window.initial = window;
    cfg.window.min = 4;
    H2oEngine::new(relation, cfg)
}

fn columnar(n_attrs: usize, rows: usize, seed: u64) -> Relation {
    let schema = Schema::with_width(n_attrs).into_shared();
    Relation::columnar(schema, gen_columns(n_attrs, rows, seed)).unwrap()
}

fn row_major(n_attrs: usize, rows: usize, seed: u64) -> Relation {
    let schema = Schema::with_width(n_attrs).into_shared();
    Relation::row_major(schema, gen_columns(n_attrs, rows, seed)).unwrap()
}

/// Drives a workload through the engine, checking every answer against the
/// interpreter, and returns the engine for inspection.
fn drive(engine: H2oEngine, workload: &[h2o::workload::TimedQuery]) -> H2oEngine {
    for (i, tq) in workload.iter().enumerate() {
        let want = interpret(&engine.catalog(), &tq.query).unwrap();
        let got = engine
            .run(Request::query(&tq.query).hint(tq.selectivity))
            .unwrap()
            .result;
        assert_eq!(got.fingerprint(), want.fingerprint(), "query {i} diverged");
    }
    engine
}

#[test]
fn hot_cluster_produces_layout_and_it_gets_used() {
    let engine = engine_with(columnar(40, 5_000, 1), 10);
    // 50 identical-class expression queries over attrs 0..8, filter on 9.
    let workload: Vec<h2o::workload::TimedQuery> = (0..50)
        .map(|i| {
            let q = Query::project(
                [Expr::sum_of((0u32..8).map(AttrId))],
                Conjunction::of([Predicate::lt(9u32, (i % 11) * 150_000_000 - 700_000_000)]),
            )
            .unwrap();
            h2o::workload::TimedQuery {
                query: q,
                selectivity: 0.5,
            }
        })
        .collect();
    let engine = drive(engine, &workload);
    assert!(engine.stats().layouts_created >= 1, "{:?}", engine.stats());
    // The last queries should execute on a multi-attribute group.
    let report = engine.last_report().unwrap();
    assert!(report
        .layouts
        .iter()
        .any(|&id| engine.catalog().group(id).unwrap().width() > 1));
}

#[test]
fn workload_shift_is_detected_and_followed() {
    let engine = engine_with(columnar(60, 5_000, 2), 12);
    let workload = shifted_sequence(60, 70, 25, 20, 7);
    let engine = drive(engine, &workload);
    let stats = engine.stats();
    assert!(stats.shifts_detected >= 1, "shift missed: {stats:?}");
    assert!(
        stats.layouts_created >= 1,
        "no layout for either phase: {stats:?}"
    );
}

#[test]
fn adaptation_works_from_row_major_start() {
    // "H2O can adapt regardless of the initial data layout."
    let engine = engine_with(row_major(30, 4_000, 3), 8);
    let workload: Vec<h2o::workload::TimedQuery> = (0..40)
        .map(|i| {
            let q = Query::aggregate(
                [
                    Aggregate::sum(Expr::col(1u32)),
                    Aggregate::max(Expr::col(2u32)),
                ],
                Conjunction::of([Predicate::gt(0u32, (i % 7) * 100_000_000)]),
            )
            .unwrap();
            h2o::workload::TimedQuery {
                query: q,
                selectivity: 0.4,
            }
        })
        .collect();
    let engine = drive(engine, &workload);
    // Starting from one wide group, the engine should have carved out a
    // narrow layout for the hot trio.
    assert!(
        engine.catalog().group_count() > 1,
        "no new layouts from a row-major start"
    );
}

#[test]
fn oscillating_workload_does_not_thrash() {
    let engine = engine_with(columnar(30, 3_000, 4), 8);
    let workload = oscillating_sequence(30, 80, 5, 9);
    let engine = drive(engine, &workload);
    let stats = engine.stats();
    // Layouts for (at most) the two classes — not one per oscillation.
    assert!(
        stats.layouts_created <= 6,
        "layout thrashing: {} creations",
        stats.layouts_created
    );
    // And the engine must never have dropped below the floor of groups: the
    // catalog only ever grows here (no destructive churn).
    assert!(engine.catalog().group_count() >= 30);
}

#[test]
fn non_adaptive_ablation_still_correct() {
    let engine = H2oEngine::new(columnar(20, 2_000, 5), EngineConfig::non_adaptive());
    let workload = shifted_sequence(20, 30, 10, 8, 3);
    let engine = drive(engine, &workload);
    assert_eq!(engine.stats().layouts_created, 0);
    assert_eq!(engine.stats().adaptations, 0);
}

#[test]
fn pending_layouts_are_lazy() {
    // A recommendation must not materialize anything until a query
    // actually benefits: run a hot phase to build up pending layouts, then
    // observe that an unrelated query does not trigger creation.
    let engine = engine_with(columnar(40, 4_000, 6), 6);
    for i in 0..6 {
        let q = Query::project(
            [Expr::sum_of((0u32..10).map(AttrId))],
            Conjunction::of([Predicate::lt(10u32, i * 100_000_000)]),
        )
        .unwrap();
        engine.run(Request::query(&q).hint(0.5)).unwrap();
    }
    let pending_after_adapt = engine.pending().len();
    let created_before = engine.stats().layouts_created;
    // Unrelated query: touches attrs 30..32 only.
    let q = Query::project(
        [Expr::col(31u32)],
        Conjunction::of([Predicate::gt(30u32, 0)]),
    )
    .unwrap();
    engine.run(Request::query(&q)).unwrap();
    assert_eq!(
        engine.stats().layouts_created,
        created_before,
        "unrelated query must not trigger materialization"
    );
    let _ = pending_after_adapt;
}

#[test]
fn drop_and_rematerialize_race_with_pending_advice() {
    // materialize_now / drop_layout interleaved with the adviser's pending
    // proposals: administration must never panic, never tear the catalog,
    // and never leave pending() advertising a spec that already exists.
    let engine = engine_with(columnar(40, 3_000, 6), 6);
    // Hot phase builds up pending advice (same shape as
    // `pending_layouts_are_lazy`).
    for i in 0..6 {
        let q = Query::project(
            [Expr::sum_of((0u32..10).map(AttrId))],
            Conjunction::of([Predicate::lt(10u32, i * 100_000_000)]),
        )
        .unwrap();
        engine.run(Request::query(&q).hint(0.5)).unwrap();
    }
    let pending = engine.pending();
    assert!(
        !pending.is_empty(),
        "hot phase must leave advice pending for this scenario"
    );

    // Materialize the adviser's own proposal explicitly: it must leave the
    // pending queue (otherwise a lazy query would try to create it twice).
    let spec = pending[0].clone();
    let attrs: Vec<AttrId> = spec.attrs.to_vec();
    let id = engine.materialize_now(&attrs).unwrap();
    assert!(
        engine.pending().iter().all(|g| g.attrs != spec.attrs),
        "materialize_now must retire the matching pending spec"
    );

    // Drop the layout the adviser just proposed (and we just built): the
    // spec becomes materializable again and queries keep working.
    engine.drop_layout(id).unwrap();
    assert!(matches!(
        engine.drop_layout(id),
        Err(h2o::core::EngineError::Storage(_))
    ));
    for i in 0..12 {
        let q = Query::project(
            [Expr::sum_of((0u32..10).map(AttrId))],
            Conjunction::of([Predicate::lt(10u32, i * 50_000_000)]),
        )
        .unwrap();
        let want = interpret(&engine.catalog(), &q).unwrap();
        let got = engine.run(Request::query(&q).hint(0.5)).unwrap().result;
        assert_eq!(got.fingerprint(), want.fingerprint(), "post-drop query {i}");
    }
    // The catalog is whole: full coverage, all groups row-aligned.
    let snap = engine.catalog();
    assert!(snap.covers_schema());
    assert!(snap.groups().all(|g| g.rows() == snap.rows()));

    // A second materialize/drop cycle of the same spec works (ids are
    // never reused, pending stays consistent).
    let id2 = engine.materialize_now(&attrs).unwrap();
    assert_ne!(id, id2);
    engine.drop_layout(id2).unwrap();
}
