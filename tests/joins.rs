//! Multi-relation differential suite: **every hash-join execution path
//! returns the bit-identical answer of the nested-loop interpreter.**
//!
//! Sweeps serial/parallel policies ×
//! segmented/monolithic layouts × both build sides against
//! [`interpret_join`], proptests random typed relations (key skew, match
//! rate, empty and fully-selective sides), replays an
//! `H2O_STRESS_SEED`-seeded sweep so CI failures reproduce locally, and
//! pins that a join-heavy workload converges the adaptive engine onto a
//! key+payload column group.

use h2o::core::{EngineConfig, H2oEngine};
use h2o::exec::{
    compile_join, execute_join_with_policy, AccessPlan, CompiledJoinOp, ExecPolicy, FoldPlan,
    JoinExecStats, Strategy,
};
use h2o::expr::{check_join, interpret_join, JoinQuery, Side};
use h2o::prelude::*;
use h2o::storage::{LayoutCatalog, LogicalType};
use h2o::workload::{gen_f64_column, gen_fk_column, skyserver_join_workload};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Fixed default; `H2O_STRESS_SEED` overrides so CI failures replay.
fn stress_seed() -> u64 {
    std::env::var("H2O_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xBEEF_CAFE)
}

fn photo_schema() -> Arc<Schema> {
    Schema::typed([
        ("objID", LogicalType::I64),
        ("ra", LogicalType::F64),
        ("mag", LogicalType::F64),
        ("flags", LogicalType::I64),
    ])
    .into_shared()
}

fn spec_schema() -> Arc<Schema> {
    Schema::typed([
        ("bestObjID", LogicalType::I64),
        ("z", LogicalType::F64),
        ("specClass", LogicalType::I64),
    ])
    .into_shared()
}

/// Typed photo/spec columns: distinct photo keys, a skewed foreign-key
/// column with the requested match rate, dyadic-grid `f64` payloads (so
/// any accumulation order sums exactly — the cross-build-side fingerprint
/// comparisons rely on it).
fn photo_spec_columns(
    photo_rows: usize,
    spec_rows: usize,
    match_rate: f64,
    skew: f64,
    seed: u64,
) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let keys: Vec<Value> = (0..photo_rows as Value).map(|i| i * 7 - 1000).collect();
    let photo = vec![
        keys.clone(),
        gen_f64_column(photo_rows, 0.0, 360.0, seed ^ 1),
        gen_f64_column(photo_rows, 10.0, 30.0, seed ^ 2),
        (0..photo_rows).map(|i| ((i * 13) % 32) as Value).collect(),
    ];
    let parent: &[Value] = if keys.is_empty() { &[-1] } else { &keys };
    let spec = vec![
        gen_fk_column(spec_rows, parent, match_rate, skew, seed ^ 3),
        gen_f64_column(spec_rows, 0.0, 7.0, seed ^ 4),
        (0..spec_rows).map(|i| ((i * 5) % 6) as Value).collect(),
    ];
    (photo, spec)
}

/// The five join shapes the sweep runs: filtered projection, one-sided
/// filters, aggregate, grouped rollup, and an empty build side.
fn join_queries() -> Vec<(&'static str, JoinQuery)> {
    let b = || JoinQuery::builder(("photo", photo_schema()), ("spec", spec_schema()));
    let mut out = Vec::new();
    {
        let q = b();
        let ra = q.col("ra").unwrap();
        let z = q.col("z").unwrap();
        out.push((
            "project-two-filters",
            q.on("objID", "bestObjID")
                .unwrap()
                .filter_left(Conjunction::of([Predicate::lt(2u32, 20.0)]))
                .filter_right(Conjunction::of([Predicate::lt(1u32, 3.5)]))
                .project([ra, z])
                .unwrap(),
        ));
    }
    {
        let q = b();
        let mag = q.col("mag").unwrap();
        let z = q.col("z").unwrap();
        out.push((
            "project-no-filter",
            q.on("objID", "bestObjID")
                .unwrap()
                .project([mag.clone().add(z.mul(Expr::lit(2.0))), mag])
                .unwrap(),
        ));
    }
    {
        let q = b();
        let z = q.col("z").unwrap();
        out.push((
            "aggregate",
            q.on("objID", "bestObjID")
                .unwrap()
                .filter_left(Conjunction::of([Predicate::lt(3u32, 16)]))
                .aggregate([
                    Aggregate::sum(z.clone()),
                    Aggregate::max(z),
                    Aggregate::count(),
                ])
                .unwrap(),
        ));
    }
    {
        let q = b();
        let flags = q.col("flags").unwrap();
        let cls = q.col("specClass").unwrap();
        let z = q.col("z").unwrap();
        out.push((
            "grouped-rollup",
            q.on("objID", "bestObjID")
                .unwrap()
                .filter_right(Conjunction::of([Predicate::lt(1u32, 5.0)]))
                .grouped([flags, cls], [Aggregate::sum(z), Aggregate::count()])
                .unwrap(),
        ));
    }
    {
        let q = b();
        let ra = q.col("ra").unwrap();
        out.push((
            "empty-build-side",
            q.on("objID", "bestObjID")
                .unwrap()
                // mag domain is [10, 30): nothing qualifies.
                .filter_left(Conjunction::of([Predicate::lt(2u32, 0.0)]))
                .project([ra])
                .unwrap(),
        ));
    }
    out
}

fn policies() -> Vec<(&'static str, ExecPolicy)> {
    let p = |threads: usize, morsel: usize| ExecPolicy {
        parallelism: Some(threads),
        morsel_rows: morsel,
        serial_threshold: 0,
    };
    vec![
        ("serial-explicit", p(1, 1_000)),
        ("four-workers", p(4, 256)),
        ("many-tiny-morsels", p(4, 64)),
        ("eight-workers-odd-morsel", p(8, 999)),
    ]
}

/// Serial/parallel × segmented/monolithic × both
/// build sides, fingerprint-identical to the interpreter.
#[test]
fn join_strategy_layout_parallelism_sweep() {
    let (photo_cols, spec_cols) = photo_spec_columns(3_000, 2_000, 0.8, 0.4, 17);
    for (layout, seg_shift) in [("segmented", 6u32), ("monolithic", 20u32)] {
        let photo = Relation::partitioned_with_shift(
            photo_schema(),
            photo_cols.clone(),
            vec![vec![AttrId(0), AttrId(1)], vec![AttrId(2)], vec![AttrId(3)]],
            seg_shift,
        )
        .unwrap();
        let spec = Relation::partitioned_with_shift(
            spec_schema(),
            spec_cols.clone(),
            (0..3).map(|i| vec![AttrId(i)]).collect(),
            seg_shift,
        )
        .unwrap();
        for (shape, q) in join_queries() {
            let checked = check_join(&q).unwrap();
            let want = interpret_join(photo.catalog(), spec.catalog(), &q)
                .unwrap()
                .fingerprint();
            let lplan = AccessPlan::new(photo.catalog().layout_ids(), Strategy::FusedVolcano);
            let rplan = AccessPlan::new(spec.catalog().layout_ids(), Strategy::FusedVolcano);
            for build_is_left in [true, false] {
                let op = compile_join(
                    photo.catalog(),
                    spec.catalog(),
                    &lplan,
                    &rplan,
                    &q,
                    &checked,
                    build_is_left,
                )
                .unwrap();
                // Serial and parallel runs of the same operator must
                // return identical bytes, not just fingerprints.
                let (serial, _) = execute_join_with_policy(
                    photo.catalog(),
                    spec.catalog(),
                    &op,
                    &ExecPolicy::serial(),
                )
                .unwrap();
                assert_eq!(
                    serial.fingerprint(),
                    want,
                    "{layout} {shape} build_is_left={build_is_left}"
                );
                for (pname, policy) in policies() {
                    // A cold build per policy: each policy builds its own.
                    let op = op.cold_copy();
                    let (par, _) =
                        execute_join_with_policy(photo.catalog(), spec.catalog(), &op, &policy)
                            .unwrap();
                    assert_eq!(
                        par.data(),
                        serial.data(),
                        "{layout} {shape} {pname} build_is_left={build_is_left}"
                    );
                }
            }
        }
    }
}

/// Serial joins fold `F64` sums in one row-order chain — **bit-identical**
/// to [`interpret_join`], not merely equal on dyadic grids. The probe side
/// spans several 64K-row morsels and the values are non-dyadic, so a serial
/// probe that folded per morsel and merged would be off by an ulp. Foreign
/// keys are clustered ascending, so pairs stream in the same order
/// whichever side builds and both build sides must match the interpreter
/// (which builds left and probes right in row order).
#[test]
fn serial_join_f64_sums_are_bit_identical_to_the_interpreter() {
    let (photo_rows, spec_rows) = (1_000usize, 200_000usize);
    let per_key = (spec_rows / photo_rows) as Value;
    let non_dyadic = |i: usize, step: f64| h2o::storage::f64_lane(i as f64 * step + 0.1);
    let photo_cols: Vec<Vec<Value>> = vec![
        (0..photo_rows as Value).collect(),
        (0..photo_rows).map(|i| non_dyadic(i, 0.3)).collect(),
        (0..photo_rows).map(|i| non_dyadic(i, 0.7)).collect(),
        (0..photo_rows).map(|i| ((i * 13) % 32) as Value).collect(),
    ];
    let spec_cols: Vec<Vec<Value>> = vec![
        (0..spec_rows as Value).map(|i| i / per_key).collect(),
        (0..spec_rows).map(|i| non_dyadic(i, 0.1)).collect(),
        (0..spec_rows).map(|i| ((i * 5) % 6) as Value).collect(),
    ];
    let b = |left: &'static str| {
        JoinQuery::builder((left, photo_schema()), ("spec", spec_schema()))
            .on("objID", "bestObjID")
            .unwrap()
    };
    let shapes = |left: &'static str| {
        let z = || b(left).col("z").unwrap();
        let ra = b(left).col("ra").unwrap();
        let class = b(left).col("specClass").unwrap();
        [
            // Probe-side measure: fuses when photo builds.
            b(left)
                .aggregate([Aggregate::sum(z()), Aggregate::avg(z())])
                .unwrap(),
            // Build-key-side measure: 200 identical pairs per photo row,
            // one multiplicity fold when spec builds.
            b(left).aggregate([Aggregate::sum(ra)]).unwrap(),
            b(left)
                .grouped([class], [Aggregate::sum(z()), Aggregate::avg(z())])
                .unwrap(),
        ]
    };
    let photo = Relation::columnar(photo_schema(), photo_cols.clone()).unwrap();
    let spec = Relation::columnar(spec_schema(), spec_cols.clone()).unwrap();
    for q in shapes("photo") {
        let checked = check_join(&q).unwrap();
        let want = interpret_join(photo.catalog(), spec.catalog(), &q).unwrap();
        let lplan = AccessPlan::new(photo.catalog().layout_ids(), Strategy::FusedVolcano);
        let rplan = AccessPlan::new(spec.catalog().layout_ids(), Strategy::FusedVolcano);
        for build_is_left in [true, false] {
            let op = compile_join(
                photo.catalog(),
                spec.catalog(),
                &lplan,
                &rplan,
                &q,
                &checked,
                build_is_left,
            )
            .unwrap();
            let (got, _) = execute_join_with_policy(
                photo.catalog(),
                spec.catalog(),
                &op,
                &ExecPolicy::serial(),
            )
            .unwrap();
            assert_eq!(
                got.data(),
                want.data(),
                "build_is_left={build_is_left} query {q}"
            );
        }
    }
    // And through the engine: a single-threaded engine's join answers are
    // the interpreter's, bit for bit.
    let e = H2oEngine::new(
        Relation::columnar(photo_schema(), photo_cols).unwrap(),
        EngineConfig::single_threaded(),
    );
    e.add_relation(
        "spec",
        Relation::columnar(spec_schema(), spec_cols).unwrap(),
    )
    .unwrap();
    for q in shapes("R") {
        let out = e.run(Request::join(&q)).unwrap();
        let db = &out.snapshot;
        let want =
            interpret_join(db.relation("R").unwrap(), db.relation("spec").unwrap(), &q).unwrap();
        assert_eq!(out.result.data(), want.data(), "engine, query {q}");
    }
}

/// The per-pair plan expands a probe row's matched pairs a block at a
/// time, so one probe key matching 3,000 build rows spans three 1K-pair
/// blocks. A projection, a mixed-side aggregate, a mixed-side grouped
/// aggregate and an `F64` sum over non-dyadic build values each run
/// every build side: serially they equal [`interpret_join`]
/// bit for bit (keys ascend on both sides, so pairs stream in the
/// interpreter's order whichever side builds); in parallel they equal it
/// by fingerprint (the non-dyadic sums aside, whose morsel merges round).
#[test]
fn per_pair_blocks_span_one_probe_key_with_3000_build_rows() {
    let non_dyadic = |i: usize| h2o::storage::f64_lane(i as f64 * 0.37 + 0.001);
    // Photo rows 0..3000 share key 7; rows 3000.. carry their own index.
    let photo_rows = 4_100usize;
    let photo_cols: Vec<Vec<Value>> = vec![
        (0..photo_rows as Value)
            .map(|i| if i < 3_000 { 7 } else { i })
            .collect(),
        (0..photo_rows).map(non_dyadic).collect(),
        (0..photo_rows)
            .map(|i| h2o::storage::f64_lane((i % 64) as f64 * 0.25))
            .collect(),
        (0..photo_rows).map(|i| ((i * 13) % 32) as Value).collect(),
    ];
    // Spec row 0 is the one probe row of key 7; rows 1..1025 match photo
    // rows 3001..; the rest match nothing.
    let spec_rows = 1_400usize;
    let spec_cols: Vec<Vec<Value>> = vec![
        (0..spec_rows as Value)
            .map(|j| match j {
                0 => 7,
                1..=1_024 => 3_000 + j,
                _ => 100_000 + j,
            })
            .collect(),
        (0..spec_rows)
            .map(|j| h2o::storage::f64_lane(j as f64 * 0.5))
            .collect(),
        (0..spec_rows).map(|j| ((j * 5) % 6) as Value).collect(),
    ];
    let b = || {
        JoinQuery::builder(("photo", photo_schema()), ("spec", spec_schema()))
            .on("objID", "bestObjID")
            .unwrap()
    };
    let col = |name| b().col(name).unwrap();
    // (shape, query, exact in parallel)
    let shapes = [
        (
            "projection",
            b().project([col("ra"), col("z"), col("flags").add(col("specClass"))])
                .unwrap(),
            true,
        ),
        (
            "mixed-side aggregate",
            b().aggregate([
                Aggregate::sum(col("flags").mul(col("specClass"))),
                Aggregate::max(col("mag").add(col("z"))),
                Aggregate::count(),
            ])
            .unwrap(),
            true,
        ),
        (
            "mixed-side grouped",
            b().grouped(
                [col("specClass")],
                [
                    Aggregate::sum(col("flags").add(col("specClass"))),
                    Aggregate::min(col("mag")),
                ],
            )
            .unwrap(),
            true,
        ),
        (
            "non-dyadic build sum",
            b().aggregate([Aggregate::sum(col("ra")), Aggregate::avg(col("ra"))])
                .unwrap(),
            false,
        ),
    ];
    let photo = Relation::partitioned_with_shift(
        photo_schema(),
        photo_cols,
        vec![vec![AttrId(0), AttrId(1)], vec![AttrId(2), AttrId(3)]],
        10,
    )
    .unwrap();
    let spec = Relation::columnar(spec_schema(), spec_cols).unwrap();
    for (shape, q, exact_in_parallel) in shapes {
        let checked = check_join(&q).unwrap();
        let want = interpret_join(photo.catalog(), spec.catalog(), &q).unwrap();
        let lplan = AccessPlan::new(photo.catalog().layout_ids(), Strategy::FusedVolcano);
        let rplan = AccessPlan::new(spec.catalog().layout_ids(), Strategy::FusedVolcano);
        for build_is_left in [true, false] {
            let op = compile_join(
                photo.catalog(),
                spec.catalog(),
                &lplan,
                &rplan,
                &q,
                &checked,
                build_is_left,
            )
            .unwrap();
            let ctx = format!("{shape} build_is_left={build_is_left}");
            // The build-value sum is a probe-value sum when spec builds.
            let plan = if exact_in_parallel || build_is_left {
                FoldPlan::PerPair
            } else {
                FoldPlan::ProbeOnly
            };
            assert_eq!(op.fold_plan(), plan, "{ctx}");
            let run = |policy| {
                let op = op.cold_copy();
                execute_join_with_policy(photo.catalog(), spec.catalog(), &op, &policy).unwrap()
            };
            let (serial, stats) = run(ExecPolicy::serial());
            assert_eq!(stats.output_pairs, 3_000 + 1_024, "{ctx}");
            assert_eq!(serial.data(), want.data(), "{ctx}");
            if exact_in_parallel {
                for (pname, policy) in policies() {
                    let (par, _) = run(policy);
                    assert_eq!(par.fingerprint(), want.fingerprint(), "{ctx} {pname}");
                }
            }
        }
    }
}

/// `F64` join keys compare by bit pattern on both sides: `-0.0` and
/// `+0.0` are different keys, every NaN payload is its own key, and
/// `±inf` join like any other value. Every build side ×
/// policy matches [`interpret_join`], over a single `F64` key and a
/// two-lane (`F64`, `I64`) key. Build keys repeat across morsel and
/// segment boundaries, so the projection also pins the build table's
/// per-key row order: with the left side building, the output bytes
/// equal the interpreter's (probe rows in order, each key's build rows in
/// row order), and every policy returns the serial bytes.
#[test]
fn f64_special_join_keys_match_the_interpreter() {
    let specials: Vec<Value> = [
        0.0f64.to_bits(),
        (-0.0f64).to_bits(),
        f64::NAN.to_bits(),
        0x7FF0_0000_0000_0001, // signalling NaN
        0xFFF8_0000_0000_0000, // negative quiet NaN
        0x7FF8_DEAD_BEEF_0042, // NaN with a payload
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        1.5f64.to_bits(),
        (-1.5f64).to_bits(),
    ]
    .into_iter()
    .map(|b| h2o::storage::f64_lane(f64::from_bits(b)))
    .collect();
    // Probe-only keys: a NaN payload and a zero-adjacent value the build
    // never holds, inside the build's key range.
    let probe_only: Vec<Value> = [0x7FF8_0000_0000_0007u64, 0x8000_0000_0000_0001]
        .into_iter()
        .map(|b| h2o::storage::f64_lane(f64::from_bits(b)))
        .collect();
    let left_schema = Schema::typed([
        ("lk", LogicalType::F64),
        ("lg", LogicalType::I64),
        ("la", LogicalType::I64),
    ])
    .into_shared();
    let right_schema = Schema::typed([
        ("rk", LogicalType::F64),
        ("rg", LogicalType::I64),
        ("rb", LogicalType::F64),
    ])
    .into_shared();
    let (lrows, rrows) = (700usize, 900usize);
    let left_cols: Vec<Vec<Value>> = vec![
        // Runs of 5 equal keys, cycling: every key recurs in every morsel.
        (0..lrows)
            .map(|i| specials[(i / 5 + i % 3) % specials.len()])
            .collect(),
        (0..lrows).map(|i| (i % 2) as Value).collect(),
        (0..lrows as Value).collect(),
    ];
    let right_cols: Vec<Vec<Value>> = vec![
        (0..rrows)
            .map(|i| match i % 13 {
                11 | 12 => probe_only[i % 2],
                _ => specials[(i * 7) % specials.len()],
            })
            .collect(),
        (0..rrows).map(|i| (i % 3 == 0) as Value).collect(),
        (0..rrows)
            .map(|i| h2o::storage::f64_lane((i % 16) as f64 * 0.25))
            .collect(),
    ];
    let left = Relation::partitioned_with_shift(
        left_schema.clone(),
        left_cols,
        vec![vec![AttrId(0), AttrId(1)], vec![AttrId(2)]],
        6,
    )
    .unwrap();
    let right = Relation::partitioned_with_shift(
        right_schema.clone(),
        right_cols,
        (0..3).map(|i| vec![AttrId(i)]).collect(),
        6,
    )
    .unwrap();
    let b = |two_keys: bool| {
        let q = JoinQuery::builder(("l", left_schema.clone()), ("r", right_schema.clone()))
            .on("lk", "rk")
            .unwrap();
        if two_keys {
            q.on("lg", "rg").unwrap()
        } else {
            q
        }
    };
    let mut queries = Vec::new();
    for two_keys in [false, true] {
        let q = b(two_keys);
        let (lk, la, rb) = (
            q.col("lk").unwrap(),
            q.col("la").unwrap(),
            q.col("rb").unwrap(),
        );
        queries.push(q.project([la.clone(), lk.clone(), rb.clone()]).unwrap());
        let q = b(two_keys);
        queries.push(
            q.aggregate([Aggregate::sum(rb.clone()), Aggregate::count()])
                .unwrap(),
        );
        let q = b(two_keys);
        queries.push(
            q.grouped(
                [lk],
                [Aggregate::sum(rb), Aggregate::max(la), Aggregate::count()],
            )
            .unwrap(),
        );
    }
    for q in &queries {
        let checked = check_join(q).unwrap();
        let want = interpret_join(left.catalog(), right.catalog(), q).unwrap();
        assert!(want.rows() > 0, "query {q} must match something");
        let lplan = AccessPlan::new(left.catalog().layout_ids(), Strategy::FusedVolcano);
        let rplan = AccessPlan::new(right.catalog().layout_ids(), Strategy::FusedVolcano);
        for build_is_left in [true, false] {
            let op = compile_join(
                left.catalog(),
                right.catalog(),
                &lplan,
                &rplan,
                q,
                &checked,
                build_is_left,
            )
            .unwrap();
            let label = format!("build_is_left={build_is_left} query {q}");
            let (serial, stats) = execute_join_with_policy(
                left.catalog(),
                right.catalog(),
                &op,
                &ExecPolicy::serial(),
            )
            .unwrap();
            if build_is_left {
                assert_eq!(serial.data(), want.data(), "{label}");
            } else {
                assert_eq!(serial.fingerprint(), want.fingerprint(), "{label}");
            }
            assert!(stats.probe_bloom_rejects > 0 || !build_is_left, "{label}");
            for (pname, policy) in policies() {
                let op = op.cold_copy();
                let (par, _) =
                    execute_join_with_policy(left.catalog(), right.catalog(), &op, &policy)
                        .unwrap();
                assert_eq!(par.data(), serial.data(), "{label} {pname}");
            }
        }
    }
}

/// The adaptive engine agrees with the interpreter on the same snapshot,
/// for both greedy and forced build orders. `ctx` labels failures (the
/// stress sweep passes its replay seed through it).
fn engine_agrees(
    photo_rows: usize,
    spec_rows: usize,
    match_rate: f64,
    skew: f64,
    seed: u64,
    ctx: &str,
) {
    let (photo_cols, spec_cols) = photo_spec_columns(photo_rows, spec_rows, match_rate, skew, seed);
    let mut cfg = EngineConfig::default();
    cfg.window.initial = 8;
    cfg.window.min = 4;
    let e = H2oEngine::new(Relation::columnar(photo_schema(), photo_cols).unwrap(), cfg);
    // The photo side is the engine's primary relation; bind spec as a
    // secondary. Queries resolve by name, so the fixture queries' left
    // side is rebound below from "photo" to the primary name "R".
    e.add_relation(
        "spec",
        Relation::columnar(spec_schema(), spec_cols).unwrap(),
    )
    .unwrap();
    for (shape, q) in join_queries() {
        let q = {
            let mut jb = JoinQuery::builder(("R", photo_schema()), ("spec", spec_schema()));
            for &(l, r) in q.on() {
                jb = jb.on_attrs(l, r);
            }
            jb = jb.filter_left(q.filter(Side::Left).clone());
            jb = jb.filter_right(q.filter(Side::Right).clone());
            jb.finish(q.select_clause().clone()).unwrap()
        };
        let out = e.run(Request::join(&q)).unwrap();
        let (db, got) = (&out.snapshot, out.result);
        let want = interpret_join(db.relation("R").unwrap(), db.relation("spec").unwrap(), &q)
            .unwrap()
            .fingerprint();
        assert_eq!(got.fingerprint(), want, "shape {shape} greedy ({ctx})");
        for side in [Side::Left, Side::Right] {
            let forced = e.run(Request::join(&q).build_side(side)).unwrap().result;
            assert_eq!(
                forced.fingerprint(),
                want,
                "shape {shape} forced build side {side:?} ({ctx})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random typed relations — any size (including empty sides), any key
    /// skew and match rate — agree between the adaptive engine (greedy and
    /// both forced build orders) and the interpreter.
    #[test]
    fn random_joins_agree(
        seed in 0u64..1000,
        photo_rows in 0usize..300,
        spec_rows in 0usize..300,
        match_rate in 0.0f64..=1.0,
        skew in 0.0f64..=1.0,
    ) {
        engine_agrees(photo_rows, spec_rows, match_rate, skew, seed, "proptest");
    }
}

/// The `H2O_STRESS_SEED`-seeded replay sweep (CI runs it with a fixed
/// seed; failures replay locally with the same value).
#[test]
fn stress_seed_replay_sweep() {
    let seed = stress_seed();
    let mut rng = SmallRng::seed_from_u64(seed);
    for round in 0..4 {
        let photo_rows = rng.gen_range(0..2_000);
        let spec_rows = rng.gen_range(0..2_000);
        let match_rate = rng.gen_range(0..=100) as f64 / 100.0;
        let skew = rng.gen_range(0..=100) as f64 / 100.0;
        let case_seed = rng.gen_range(0..u64::MAX);
        engine_agrees(
            photo_rows,
            spec_rows,
            match_rate,
            skew,
            case_seed,
            &format!("round {round}, H2O_STRESS_SEED={seed}"),
        );
    }
}

/// A join-heavy SkyServer workload converges the adaptive engine onto a
/// key+payload column group on the primary (photo) relation — the adviser
/// sees join keys and gathered payload as hot select-clause attributes.
#[test]
fn join_workload_converges_to_key_payload_group() {
    let w = skyserver_join_workload(2_000, 1_500, 80, 0.85, 0.3, 21);
    let mut cfg = EngineConfig::default();
    cfg.window.initial = 8;
    cfg.window.min = 4;
    let e = H2oEngine::new(
        Relation::columnar(w.photo.schema.clone(), w.photo_columns.clone()).unwrap(),
        cfg,
    );
    e.add_relation(
        "spec",
        Relation::columnar(w.spec_schema.clone(), w.spec_columns.clone()).unwrap(),
    )
    .unwrap();
    for (i, q) in w.queries.iter().enumerate() {
        let out = e.run(Request::join(q)).unwrap();
        let (db, got) = (&out.snapshot, out.result);
        let want =
            interpret_join(db.relation("R").unwrap(), db.relation("spec").unwrap(), q).unwrap();
        assert_eq!(got.fingerprint(), want.fingerprint(), "workload query {i}");
    }
    let stats = e.stats();
    assert!(stats.adaptations >= 1, "window must trigger adaptation");
    assert!(
        stats.layouts_created >= 1,
        "join workload must materialize a layout; stats: {stats:?}"
    );
    // Some materialized group must put the join key next to gathered
    // payload — a multi-attribute group containing objID.
    let obj_id = w.photo.schema.attr_by_name("objID").unwrap();
    let snap = e.catalog();
    let key_payload_group = snap.layout_ids().iter().any(|&id| {
        let g = snap.group(id).unwrap();
        g.width() > 1 && g.attr_set().contains(obj_id)
    });
    assert!(
        key_payload_group,
        "expected a multi-attribute group containing the join key"
    );
}

/// A deadline that expires while a join is executing (past the entry
/// pre-check, during build/probe work) must surface as
/// [`EngineError::Timeout`] and publish nothing — no join report, no
/// layout advice from the aborted run. Deadlines are found adaptively:
/// start from the measured unrestricted runtime and halve until one
/// trips mid-run, asserting every completed run along the way stays
/// bit-identical. The floor (50µs) cannot complete a 30k×30k join, so
/// the loop always terminates in a timeout without ever flaking.
#[test]
fn join_deadline_expiring_mid_run_types_timeout_and_publishes_nothing() {
    use h2o::core::EngineError;
    use std::time::{Duration, Instant};

    let (photo_cols, spec_cols) = photo_spec_columns(30_000, 30_000, 0.9, 0.5, 77);
    let e = H2oEngine::new(
        Relation::columnar(photo_schema(), photo_cols).unwrap(),
        EngineConfig::default(),
    );
    e.add_relation(
        "spec",
        Relation::columnar(spec_schema(), spec_cols).unwrap(),
    )
    .unwrap();
    let q = {
        let b = JoinQuery::builder(("R", photo_schema()), ("spec", spec_schema()));
        let flags = b.col("flags").unwrap();
        let cls = b.col("specClass").unwrap();
        let z = b.col("z").unwrap();
        b.on("objID", "bestObjID")
            .unwrap()
            .grouped([flags, cls], [Aggregate::sum(z), Aggregate::count()])
            .unwrap()
    };

    let t0 = Instant::now();
    let want = e.run(Request::join(&q)).unwrap().result.fingerprint();
    let full = t0.elapsed();

    let floor = Duration::from_micros(50);
    let mut deadline = (full / 2).max(floor);
    let mut timed_out = false;
    for _ in 0..64 {
        let report_before = e.last_join_report();
        let timeouts_before = e.stats().queries_timed_out;
        match e.run(Request::join(&q).deadline(deadline)) {
            Ok(out) => assert_eq!(
                out.result.fingerprint(),
                want,
                "a run that beats its deadline must stay exact"
            ),
            Err(EngineError::Timeout) => {
                timed_out = true;
                assert_eq!(
                    e.stats().queries_timed_out,
                    timeouts_before + 1,
                    "timeout must be typed and counted"
                );
                assert_eq!(
                    e.last_join_report(),
                    report_before,
                    "a timed-out join must publish nothing"
                );
                break;
            }
            Err(other) => panic!("expected Timeout, got: {other}"),
        }
        deadline = (deadline / 2).max(floor);
    }
    assert!(
        timed_out,
        "halving deadlines must eventually expire mid-join"
    );

    // The engine is unharmed: an unrestricted rerun still matches the
    // nested-loop interpreter bit-for-bit.
    let out = e.run(Request::join(&q)).unwrap();
    let db = &out.snapshot;
    let oracle = interpret_join(db.relation("R").unwrap(), db.relation("spec").unwrap(), &q)
        .unwrap()
        .fingerprint();
    assert_eq!(out.result.fingerprint(), want);
    assert_eq!(out.result.fingerprint(), oracle);
}

/// Rebinding a secondary relation must not serve a join operator compiled
/// for the old binding. Join operator keys hash relation names and plan
/// layout ids, and the new binding numbers its layouts from 0 again: here
/// both bindings store `dim`'s key and payload in layout 0, in swapped
/// column order, so a stale operator would read the payload as the key.
#[test]
fn rebinding_a_relation_drops_its_cached_join_operators() {
    let fact = Schema::typed([("k", LogicalType::I64)]).into_shared();
    let dim = Schema::typed([
        ("a0", LogicalType::I64),
        ("a1", LogicalType::I64),
        ("a2", LogicalType::I64),
    ])
    .into_shared();
    let dim_cols = || vec![vec![0, 1, 2, 3], vec![100, 200, 300, 400], vec![7; 4]];
    let bind = |e: &H2oEngine, first: [u32; 2]| {
        let partition = vec![first.map(AttrId).to_vec(), vec![AttrId(2)]];
        let rel = Relation::partitioned(dim.clone(), dim_cols(), partition).unwrap();
        e.add_relation("dim", rel).unwrap();
    };
    let e = H2oEngine::new(
        Relation::columnar(fact.clone(), vec![vec![0, 1, 2, 3]]).unwrap(),
        EngineConfig::default(),
    );
    let b = JoinQuery::builder(("R", fact), ("dim", dim.clone()));
    let a1 = b.rcol("a1").unwrap();
    let q = b.on("k", "a0").unwrap().project([a1]).unwrap();

    for first in [[0, 1], [1, 0]] {
        bind(&e, first);
        let out = e.run(Request::join(&q)).unwrap();
        let db = &out.snapshot;
        let want =
            interpret_join(db.relation("R").unwrap(), db.relation("dim").unwrap(), &q).unwrap();
        let mut got: Vec<Value> = (0..out.result.rows())
            .map(|r| out.result.row(r)[0])
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![100, 200, 300, 400], "binding {first:?}");
        assert_eq!(out.result.fingerprint(), want.fingerprint());
    }
    let cache = e.opcache_stats();
    assert_eq!((cache.hits, cache.misses), (0, 2), "the rebind must miss");
}

/// The reuse fixture: a 64-row-segment dimension (`k` dense keys, `w`
/// payload, `c` a filterable class) and a fact side probing it; and a
/// grouped rollup over the two whose dimension filter `c < bound` is the
/// build side's constant.
fn reuse_fixture() -> (Relation, Relation, JoinQuery, impl Fn(Value) -> JoinQuery) {
    let dim = Schema::typed([
        ("k", LogicalType::I64),
        ("w", LogicalType::I64),
        ("c", LogicalType::I64),
    ])
    .into_shared();
    let fact = Schema::typed([("fk", LogicalType::I64), ("v", LogicalType::I64)]).into_shared();
    let dim_rows = 700;
    let dim_rel = Relation::partitioned_with_shift(
        dim.clone(),
        vec![
            (0..dim_rows).map(|i| (i * 3 % 500) as Value).collect(),
            (0..dim_rows).map(|i| (i * 7 % 31) as Value).collect(),
            (0..dim_rows).map(|i| (i % 10) as Value).collect(),
        ],
        vec![vec![AttrId(0), AttrId(1)], vec![AttrId(2)]],
        6,
    )
    .unwrap();
    let fact_rows = 3_000;
    let fact_rel = Relation::columnar(
        fact.clone(),
        vec![
            (0..fact_rows).map(|i| (i * 11 % 1_600) as Value).collect(),
            (0..fact_rows).map(|i| (i % 97) as Value).collect(),
        ],
    )
    .unwrap();
    let query = move |bound: Value| {
        let b = JoinQuery::builder(("R", fact.clone()), ("dim", dim.clone()));
        let (w, v) = (b.rcol("w").unwrap(), b.lcol("v").unwrap());
        b.on("fk", "k")
            .unwrap()
            .filter_right(Conjunction::of([Predicate::lt(2u32, bound)]))
            .grouped([w], [Aggregate::sum(v), Aggregate::count()])
            .unwrap()
    };
    (fact_rel, dim_rel, query(7), query)
}

/// Compiles `q` with the dimension (right) side building.
fn dim_builds(fact: &LayoutCatalog, dim: &LayoutCatalog, q: &JoinQuery) -> CompiledJoinOp {
    let fplan = AccessPlan::new(fact.layout_ids(), Strategy::FusedVolcano);
    let dplan = AccessPlan::new(dim.layout_ids(), Strategy::FusedVolcano);
    compile_join(fact, dim, &fplan, &dplan, q, &check_join(q).unwrap(), false).unwrap()
}

/// Runs `op` serially and holds the answer to the interpreter on the same
/// catalogs; returns whether the run reused a held build.
fn run_checked(
    fact: &LayoutCatalog,
    dim: &LayoutCatalog,
    op: &CompiledJoinOp,
    q: &JoinQuery,
) -> bool {
    let (got, stats) = execute_join_with_policy(fact, dim, op, &ExecPolicy::serial()).unwrap();
    let want = interpret_join(fact, dim, q).unwrap();
    assert_eq!(got.fingerprint(), want.fingerprint(), "query {q}");
    assert!(got.rows() > 0);
    stats.build_reused
}

/// A held build is reused only while the build relation's rows and the
/// build filter's constants are what it was built from: an append moves
/// the data version, a snapshot pinned before the append still sees its
/// own rows after the operator holds the newer build, alternating
/// constants rebuild every time, and a catalog of another lineage never
/// reads the held build. Every answer equals the interpreter's on the
/// catalogs it ran on.
#[test]
fn a_held_build_is_reused_only_for_its_own_rows_and_constants() {
    let (fact, dim, q, query) = reuse_fixture();
    let (f, pinned) = (fact.catalog(), dim.catalog());
    let mut op = dim_builds(f, pinned, &q);
    assert!(!run_checked(f, pinned, &op, &q));
    assert!(run_checked(f, pinned, &op, &q), "same rows, same constants");

    // An append to the build relation.
    let mut appended = pinned.clone();
    appended
        .append_rows(&[vec![1, 30, 0], vec![499, 29, 3], vec![777, 28, 1]])
        .unwrap();
    assert!(!run_checked(f, &appended, &op, &q), "appended rows rebuild");
    assert!(run_checked(f, &appended, &op, &q));
    // The snapshot pinned before the append, after the operator holds the
    // appended build.
    assert!(!run_checked(f, pinned, &op, &q), "the pinned rows rebuild");
    assert!(!run_checked(f, &appended, &op, &q));

    // Two rebinds whose build-side constants alternate.
    for bound in [3, 9, 3, 9] {
        op.rebind_constants(&[], &[bound]);
        assert!(
            !run_checked(f, &appended, &op, &query(bound)),
            "bound {bound}"
        );
    }
    assert!(run_checked(f, &appended, &op, &query(9)));

    // The same rows and layouts under another lineage.
    let (_, twin, _, _) = reuse_fixture();
    assert_ne!(twin.catalog().lineage(), pinned.lineage());
    op.rebind_constants(&[], &[7]);
    assert!(!run_checked(f, twin.catalog(), &op, &q), "another lineage");
}

/// A stopped cold build holds nothing: a cancelled run and a run whose
/// morsel budget runs out inside the build scan (the dimension spans
/// eleven 64-row segments) are typed errors, and the next run builds
/// again and answers exactly.
#[test]
fn a_stopped_build_is_not_held() {
    use h2o::exec::{run_join, ExecCtx, ExecError};
    let (fact, dim, q, _) = reuse_fixture();
    let (f, d) = (fact.catalog(), dim.catalog());
    let op = dim_builds(f, d, &q);
    let stop = |token: &CancelToken| {
        let ctx = ExecCtx {
            cancel: Some(token),
            ..ExecCtx::new(ExecPolicy::serial())
        };
        run_join(f, d, &op, &ctx).unwrap_err()
    };
    let cancelled = CancelToken::new();
    cancelled.cancel();
    assert_eq!(stop(&cancelled), ExecError::Cancelled);
    let broke = CancelToken::new();
    broke.set_budget(2);
    assert_eq!(stop(&broke), ExecError::BudgetExhausted);
    assert!(!run_checked(f, d, &op, &q), "nothing was held");
    assert!(run_checked(f, d, &op, &q));
}

/// Through the engine: a repeated join on an unchanged build relation
/// reports a reused build with the cold build's counters (so selectivity
/// feedback does not move); an insert into the build relation, rebinding
/// the relation under its name, and stopped requests all lead to a fresh
/// build; and two threads running the one join shape while a third
/// appends to the build relation each match the interpreter on their own
/// snapshot.
#[test]
fn the_engine_reuses_a_join_build_until_its_relation_changes() {
    use h2o::core::EngineError;
    let (fact, dim, q, _) = reuse_fixture();
    let e = H2oEngine::new(fact, EngineConfig::default());
    e.add_relation("dim", dim).unwrap();
    let run = |e: &H2oEngine| {
        let out = e.run(Request::join(&q).build_side(Side::Right)).unwrap();
        let db = &out.snapshot;
        let want =
            interpret_join(db.relation("R").unwrap(), db.relation("dim").unwrap(), &q).unwrap();
        assert_eq!(out.result.fingerprint(), want.fingerprint());
        out.report.join().unwrap().exec
    };
    let cold = run(&e);
    let warm = run(&e);
    assert!(!cold.build_reused && warm.build_reused);
    assert_eq!(
        (
            warm.build_rows,
            warm.build_input_rows,
            warm.build_segments_skipped
        ),
        (
            cold.build_rows,
            cold.build_input_rows,
            cold.build_segments_skipped
        )
    );
    assert_eq!(
        warm,
        JoinExecStats {
            build_reused: true,
            ..cold
        }
    );

    e.insert_into("dim", &[vec![2, 5, 1]]).unwrap();
    assert!(!run(&e).build_reused, "an insert moves the build relation");
    assert!(run(&e).build_reused);

    // Stopped requests hold nothing.
    assert_eq!(
        e.run(Request::join(&q).build_side(Side::Right).budget(0))
            .map(Outcome::into_result),
        Err(EngineError::BudgetExhausted)
    );
    assert!(
        run(&e).build_reused,
        "the held build survives a stopped run"
    );

    // Rebinding the name binds a new lineage.
    let (_, dim2, _, _) = reuse_fixture();
    e.add_relation("dim", dim2).unwrap();
    assert!(!run(&e).build_reused, "a rebound relation builds");

    // Both readers and the writer start together.
    let start = std::sync::Barrier::new(3);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                start.wait();
                for _ in 0..12 {
                    run(&e);
                }
            });
        }
        s.spawn(|| {
            start.wait();
            for i in 0..6 {
                e.insert_into("dim", &[vec![i * 5, i, i % 10]]).unwrap();
            }
        });
    });
    run(&e);
    assert!(run(&e).build_reused);
}
