//! Join fast-path differential suite: **bloom-filtered probes and
//! factorized fold plans never change an answer.**
//!
//! The fast paths are pure execution shortcuts, always on — a blocked
//! bloom filter plus exact key range that skips hash lookups for
//! provably-absent keys (or, for a dense one-lane integer key, the rank
//! index that replaces both), fold plans that fold a probe row's matches
//! with a multiplicity, per build key or per build group instead of per
//! matched pair, and the build an operator holds for its next run. All
//! must be bit-invisible: this suite checks that they engage (exact
//! filter-reject counts per key tier, the expected fold plan per query
//! and build side, a reused build) and holds every answer to the
//! nested-loop interpreter across serial/parallel
//! × both build sides × both key tiers, then proptests the same over
//! random match rates, key skew, key density, and empty build sides.

use h2o::exec::{
    compile_join, run_join, AccessPlan, CompiledJoinOp, ExecCtx, ExecPolicy, FoldPlan,
    JoinExecStats, JoinFilter, Strategy,
};
use h2o::expr::lanemap::hash_key;
use h2o::expr::{check_join, interpret_join, JoinQuery};
use h2o::prelude::*;
use h2o::storage::{f64_lane, LogicalType};
use h2o::workload::{gen_f64_column, gen_fk_column_in_domain, gen_key_column};
use proptest::prelude::*;
use std::sync::Arc;

fn dim_schema() -> Arc<Schema> {
    Schema::typed([
        ("key", LogicalType::I64),
        ("weight", LogicalType::F64),
        ("cls", LogicalType::I64),
    ])
    .into_shared()
}

fn fact_schema() -> Arc<Schema> {
    Schema::typed([
        ("fk", LogicalType::I64),
        ("val", LogicalType::F64),
        ("grp", LogicalType::I64),
    ])
    .into_shared()
}

/// Dim keys every 2nd value of their range: dense enough for the rank
/// index.
const DENSE: Value = 2;
/// Dim keys every 2,000th value: too sparse for the rank index, so the
/// build hashes its keys and the bloom filter runs.
const SPARSE: Value = 2_000;

/// Dimension/fact columns with *in-domain* misses: dim keys are multiples
/// of the even `stride` ([`DENSE`] or [`SPARSE`]), fact foreign keys that
/// miss are odd values between real keys — the `[min,max]` range check
/// alone cannot reject them, so the bloom bits or the rank index's bitmap
/// carry the filtering. Payload `f64`s live on a dyadic grid, so any fold
/// order sums exactly.
fn dim_fact_columns(
    dim_rows: usize,
    fact_rows: usize,
    match_rate: f64,
    skew: f64,
    seed: u64,
    stride: Value,
) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let keys: Vec<Value> = gen_key_column(dim_rows, (dim_rows as u64).max(1) * 4, seed)
        .into_iter()
        .map(|v| v * stride)
        .collect();
    let dim = vec![
        keys.clone(),
        gen_f64_column(dim_rows, 0.0, 50.0, seed ^ 1),
        (0..dim_rows).map(|i| ((i * 11) % 16) as Value).collect(),
    ];
    let parent: &[Value] = if keys.is_empty() { &[0] } else { &keys };
    let fact = vec![
        gen_fk_column_in_domain(fact_rows, parent, match_rate, skew, seed ^ 2),
        gen_f64_column(fact_rows, -4.0, 4.0, seed ^ 3),
        (0..fact_rows).map(|i| ((i * 7) % 6) as Value).collect(),
    ];
    (dim, fact)
}

/// Join-aggregate shapes with the fold plan each takes when the
/// dimension side builds and when the fact side builds. The first three
/// read **only fact-side attributes**: with the dimension building, the
/// probe folds each fact row once with its match count; with the fact
/// side building, they read the build side and fold per pair (the `F64`
/// sum keeps the pairs' order). The last two read the dimension: its
/// aggregates fold per build key, its group keys per build group.
fn plan_queries() -> Vec<(&'static str, JoinQuery, [FoldPlan; 2])> {
    let b = || JoinQuery::builder(("dim", dim_schema()), ("fact", fact_schema()));
    let one_sided = [FoldPlan::ProbeOnly, FoldPlan::PerPair];
    let mut out = Vec::new();
    {
        let q = b();
        let val = q.col("val").unwrap();
        out.push((
            "scalar-rollup",
            q.on("key", "fk")
                .unwrap()
                .aggregate([
                    Aggregate::sum(val.clone()),
                    Aggregate::min(val),
                    Aggregate::count(),
                ])
                .unwrap(),
            one_sided,
        ));
    }
    {
        let q = b();
        let grp = q.col("grp").unwrap();
        let val = q.col("val").unwrap();
        out.push((
            "grouped-rollup",
            q.on("key", "fk")
                .unwrap()
                .filter_right(Conjunction::of([Predicate::lt(2u32, 5)]))
                .grouped([grp], [Aggregate::sum(val), Aggregate::count()])
                .unwrap(),
            one_sided,
        ));
    }
    {
        let q = b();
        let grp = q.col("grp").unwrap();
        let val = q.col("val").unwrap();
        out.push((
            "empty-build-rollup",
            q.on("key", "fk")
                .unwrap()
                // weight domain is [0, 50): nothing on the dim side
                // qualifies, so the build side is empty whenever dim
                // builds.
                .filter_left(Conjunction::of([Predicate::lt(1u32, -1.0)]))
                .grouped([grp], [Aggregate::sum(val), Aggregate::count()])
                .unwrap(),
            one_sided,
        ));
    }
    {
        // Dimension-only aggregates without an F64 sum: partial states
        // per build key when the dimension builds.
        let q = b();
        let cls = q.col("cls").unwrap();
        let weight = q.col("weight").unwrap();
        out.push((
            "build-aggs",
            q.on("key", "fk")
                .unwrap()
                .aggregate([
                    Aggregate::sum(cls.clone()),
                    Aggregate::avg(cls),
                    Aggregate::max(weight),
                    Aggregate::count(),
                ])
                .unwrap(),
            [FoldPlan::BuildAggs, FoldPlan::ProbeOnly],
        ));
    }
    {
        // Dimension group keys over fact aggregates: per build group when
        // the dimension builds.
        let q = b();
        let cls = q.col("cls").unwrap();
        let val = q.col("val").unwrap();
        out.push((
            "build-groups",
            q.on("key", "fk")
                .unwrap()
                .grouped(
                    [cls],
                    [
                        Aggregate::sum(val.clone()),
                        Aggregate::min(val),
                        Aggregate::count(),
                    ],
                )
                .unwrap(),
            [FoldPlan::BuildGroups, FoldPlan::PerPair],
        ));
    }
    out
}

/// The fold plan `op` takes for a query whose plans per build side are
/// `plans` (`[dimension builds, fact builds]`).
fn expected_plan(op: &CompiledJoinOp, plans: [FoldPlan; 2]) -> FoldPlan {
    plans[usize::from(!op.build_is_left())]
}

/// Every fold plan agrees with the per-pair fold and the interpreter:
/// serial/parallel × both build sides, each taking its
/// expected plan. Both build sides match the interpreter, count the same
/// pairs, and are bit-identical serial vs parallel.
#[test]
fn fused_aggregates_match_two_phase_and_interpreter() {
    for stride in [DENSE, SPARSE] {
        fused_aggregates_agree(stride);
    }
}

fn fused_aggregates_agree(stride: Value) {
    let (dim_cols, fact_cols) = dim_fact_columns(600, 4_000, 0.35, 0.4, 23, stride);
    let dim = Relation::columnar(dim_schema(), dim_cols).unwrap();
    let fact = Relation::columnar(fact_schema(), fact_cols).unwrap();
    let parallel = ExecPolicy {
        parallelism: Some(4),
        morsel_rows: 128,
        serial_threshold: 0,
    };
    for (shape, q, plans) in plan_queries() {
        let checked = check_join(&q).unwrap();
        let want = interpret_join(dim.catalog(), fact.catalog(), &q)
            .unwrap()
            .fingerprint();
        let lplan = AccessPlan::new(dim.catalog().layout_ids(), Strategy::FusedVolcano);
        let rplan = AccessPlan::new(fact.catalog().layout_ids(), Strategy::FusedVolcano);
        let mut pairs = Vec::new();
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
            assert_eq!(
                op.fold_plan(),
                expected_plan(&op, plans),
                "{shape} build_is_left={build_is_left}: fold plan"
            );
            let run = |op: &CompiledJoinOp, policy| {
                run_join(dim.catalog(), fact.catalog(), op, &ExecCtx::new(policy)).unwrap()
            };
            let (serial, stats) = run(&op, ExecPolicy::serial());
            let label = format!("{shape} build_is_left={build_is_left} stride {stride}");
            assert_eq!(serial.fingerprint(), want, "{label}");
            // A cold parallel build, then the serial build reused.
            let (par, par_stats) = run(&op.cold_copy(), parallel);
            assert_eq!(par.data(), serial.data(), "{label}: serial vs parallel");
            assert_eq!(par_stats, stats, "{label}: serial vs parallel");
            let (again, again_stats) = run(&op, parallel);
            assert_eq!(again.data(), serial.data(), "{label}: reused build");
            assert!(again_stats.build_reused && !stats.build_reused, "{label}");
            pairs.push(stats.output_pairs);
        }
        assert_eq!(
            pairs[0], pairs[1],
            "{shape}: both build sides count the same pairs"
        );
    }
}

/// The 35%-match fixture actually exercises the filter: with the bloom
/// on (sparse keys, so the build hashes them), a majority of the
/// qualifying probe rows skip their hash lookup (misses are in-range, so
/// the exact `[min,max]` check alone cannot claim the credit).
#[test]
fn in_domain_misses_are_rejected_by_bloom_bits_not_the_range() {
    let (dim_cols, fact_cols) = dim_fact_columns(600, 4_000, 0.35, 0.4, 23, SPARSE);
    let dim = Relation::columnar(dim_schema(), dim_cols).unwrap();
    let fact = Relation::columnar(fact_schema(), fact_cols).unwrap();
    let (_, q, _) = plan_queries().remove(0);
    let checked = check_join(&q).unwrap();
    let lplan = AccessPlan::new(dim.catalog().layout_ids(), Strategy::FusedVolcano);
    let rplan = AccessPlan::new(fact.catalog().layout_ids(), Strategy::FusedVolcano);
    let op = compile_join(
        dim.catalog(),
        fact.catalog(),
        &lplan,
        &rplan,
        &q,
        &checked,
        true,
    )
    .unwrap();
    let (_, stats) = run_join(
        dim.catalog(),
        fact.catalog(),
        &op,
        &ExecCtx::new(ExecPolicy::serial()),
    )
    .unwrap();
    assert!(!stats.rank_index, "sparse keys are hashed");
    let misses = stats.probe_rows - stats.output_pairs.min(stats.probe_rows);
    assert!(stats.probe_bloom_rejects > 0, "the filter must engage");
    assert!(
        stats.probe_bloom_rejects as usize >= misses / 2,
        "bloom should reject most of the {misses} missing probes; \
         rejected {}",
        stats.probe_bloom_rejects
    );
}

/// One proptest case: every query shape × build side ×
/// serial/parallel matches the interpreter, and parallel is
/// byte-identical to serial.
fn bloom_filtered_joins_agree(
    dim_rows: usize,
    fact_rows: usize,
    match_rate: f64,
    skew: f64,
    seed: u64,
    stride: Value,
) {
    let (dim_cols, fact_cols) =
        dim_fact_columns(dim_rows, fact_rows, match_rate, skew, seed, stride);
    let dim = Relation::columnar(dim_schema(), dim_cols).unwrap();
    let fact = Relation::columnar(fact_schema(), fact_cols).unwrap();
    let par = ExecPolicy {
        parallelism: Some(4),
        morsel_rows: 64,
        serial_threshold: 0,
    };
    for (shape, q, plans) in plan_queries() {
        let checked = check_join(&q).unwrap();
        let want = interpret_join(dim.catalog(), fact.catalog(), &q)
            .unwrap()
            .fingerprint();
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
            prop_assert_eq!(op.fold_plan(), expected_plan(&op, plans));
            let run = |policy| {
                run_join(
                    dim.catalog(),
                    fact.catalog(),
                    &op.cold_copy(),
                    &ExecCtx::new(policy),
                )
                .unwrap()
                .0
            };
            let serial = run(ExecPolicy::serial());
            prop_assert_eq!(
                serial.fingerprint(),
                want,
                "{} build_is_left={}",
                shape,
                build_is_left
            );
            prop_assert_eq!(
                run(par).data(),
                serial.data(),
                "{} build_is_left={} parallel",
                shape,
                build_is_left
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bloom-filtered and rank-indexed joins match the interpreter under
    /// every fold plan, for any match rate, key skew, key density and
    /// relation size — including empty build and probe sides.
    #[test]
    fn bloom_filtered_joins_match_the_interpreter(
        seed in 0u64..1000,
        dim_rows in 0usize..250,
        fact_rows in 0usize..250,
        match_rate in 0.0f64..=1.0,
        skew in 0.0f64..=1.0,
        dense in any::<bool>(),
    ) {
        let stride = if dense { DENSE } else { SPARSE };
        bloom_filtered_joins_agree(dim_rows, fact_rows, match_rate, skew, seed, stride);
    }
}

/// Runs `q` with the left relation building, asserting the fold plan;
/// returns the serial and the parallel (3 workers, 512-row morsels)
/// result and stats, each from a cold build. The parallel run merges
/// `F64` sums in morsel order, so only its counters are held to the serial
/// run's here; a third, serial run reuses the serial run's build and must
/// repeat it exactly.
fn run_left_build(
    left: &Relation,
    right: &Relation,
    q: &JoinQuery,
    plan: FoldPlan,
) -> [(QueryResult, JoinExecStats); 2] {
    let checked = check_join(q).unwrap();
    let parallel = ExecPolicy {
        parallelism: Some(3),
        morsel_rows: 512,
        serial_threshold: 0,
    };
    let lplan = AccessPlan::new(left.catalog().layout_ids(), Strategy::FusedVolcano);
    let rplan = AccessPlan::new(right.catalog().layout_ids(), Strategy::FusedVolcano);
    let op = compile_join(
        left.catalog(),
        right.catalog(),
        &lplan,
        &rplan,
        q,
        &checked,
        true,
    )
    .unwrap();
    assert_eq!(op.fold_plan(), plan);
    let run = |op: &CompiledJoinOp, policy| {
        run_join(left.catalog(), right.catalog(), op, &ExecCtx::new(policy)).unwrap()
    };
    let serial = run(&op, ExecPolicy::serial());
    let par = run(&op.cold_copy(), parallel);
    assert_eq!(par.1, serial.1, "parallel stats");
    let (again, stats) = run(&op, ExecPolicy::serial());
    assert_eq!(again.data(), serial.0.data(), "reused");
    let reused = JoinExecStats {
        build_reused: true,
        ..serial.1
    };
    assert_eq!(stats, reused, "reused stats");
    [serial, par]
}

/// A build-side `F64` `sum`/`avg` over duplicate keys folds per pair:
/// `partial × hits` would add each key's partial sum in key order, not
/// the pairs' row order, and non-dyadic doubles round differently. So the
/// plan is per-pair, and a serial run is bit-identical to the
/// interpreter (left builds, the interpreter's build side).
#[test]
fn build_side_f64_sums_fold_per_pair_bit_identically() {
    let dim_rows = 480;
    let dim = Relation::columnar(
        dim_schema(),
        vec![
            (0..dim_rows).map(|i| (i % 60) as Value).collect(),
            (0..dim_rows)
                .map(|i| f64_lane(i as f64 * 0.1 + 1.0 / 3.0 + 1e7 * ((i % 7) as f64)))
                .collect(),
            (0..dim_rows).map(|i| (i % 5) as Value).collect(),
        ],
    )
    .unwrap();
    let fact_rows = 3_000;
    let fact = Relation::columnar(
        fact_schema(),
        vec![
            (0..fact_rows).map(|i| ((i * 37) % 70) as Value).collect(),
            vec![f64_lane(0.0); fact_rows],
            vec![0; fact_rows],
        ],
    )
    .unwrap();
    let b = JoinQuery::builder(("dim", dim_schema()), ("fact", fact_schema()));
    let weight = b.col("weight").unwrap();
    let q = b
        .on("key", "fk")
        .unwrap()
        .aggregate([
            Aggregate::sum(weight.clone()),
            Aggregate::avg(weight),
            Aggregate::count(),
        ])
        .unwrap();
    let want = interpret_join(dim.catalog(), fact.catalog(), &q).unwrap();
    let [(got, stats), _] = run_left_build(&dim, &fact, &q, FoldPlan::PerPair);
    assert!(
        stats.output_pairs > fact_rows,
        "keys repeat on the build side"
    );
    assert_eq!(got.data(), want.data());
}

/// The build-group plan: build key 1 reaches group 10 twice and group 20
/// once, key 2 reaches group 20, key 4 group 40 — and group 30 belongs to
/// key 3 alone, which no probe row carries, so it must not appear in the
/// output. The `F64` sums are non-dyadic: the per-group fold order is the
/// pairs' order, bit for bit.
#[test]
fn build_groups_fold_multiplicities_and_skip_unreached_groups() {
    let (keys, classes): (Vec<Value>, Vec<Value>) = [
        (1, 10),
        (2, 20),
        (1, 20),
        (3, 30),
        (1, 10),
        (4, 40),
        (2, 20),
    ]
    .into_iter()
    .unzip();
    let dim = Relation::columnar(
        dim_schema(),
        vec![keys.clone(), vec![f64_lane(0.5); keys.len()], classes],
    )
    .unwrap();
    let fact_rows = 2_500;
    let fact = Relation::columnar(
        fact_schema(),
        vec![
            (0..fact_rows).map(|i| [1, 2, 4, 5][i % 4]).collect(),
            (0..fact_rows)
                .map(|i| f64_lane(i as f64 * 0.37 + 0.1))
                .collect(),
            vec![0; fact_rows],
        ],
    )
    .unwrap();
    let b = JoinQuery::builder(("dim", dim_schema()), ("fact", fact_schema()));
    let cls = b.col("cls").unwrap();
    let val = b.col("val").unwrap();
    let q = b
        .on("key", "fk")
        .unwrap()
        .grouped(
            [cls],
            [
                Aggregate::sum(val.clone()),
                Aggregate::min(val),
                Aggregate::count(),
            ],
        )
        .unwrap();
    let want = interpret_join(dim.catalog(), fact.catalog(), &q).unwrap();
    let groups: Vec<Value> = (0..want.rows()).map(|r| want.row(r)[0]).collect();
    assert_eq!(groups, [10, 20, 40], "group 30 is never reached");
    let [(serial, _), (par, _)] = run_left_build(&dim, &fact, &q, FoldPlan::BuildGroups);
    assert_eq!(serial.data(), want.data());
    // Morsel-order F64 merges aside, the parallel run has the same
    // groups, minima and counts.
    let exact = |r: &QueryResult| -> Vec<[Value; 3]> {
        (0..r.rows())
            .map(|i| [r.row(i)[0], r.row(i)[2], r.row(i)[3]])
            .collect()
    };
    assert_eq!(exact(&par), exact(&want));
}

/// `probe_bloom_rejects` and `output_pairs` are exact: they equal a naive
/// per-row count, for each key tier, over 2,500 probe rows — two full
/// 1K-row blocks and a partial last block. A dense one-lane key takes the
/// rank index, which rejects exactly the probe rows with no build key; a
/// sparse one-lane key and a two-column key are hashed, and their rejects
/// are the rows the same bloom filter (sized by the distinct build keys,
/// tested key by key) and range disprove. The matches are counted by a
/// scan of the build keys.
#[test]
fn probe_counters_match_a_naive_count_across_block_edges() {
    let dim_rows = 300;
    // (key columns, scale of the first key column, expected tier).
    for (width, scale, ranked) in [(1, 1, true), (1, 1_000, false), (2, 1, false)] {
        let dim_cols = vec![
            (0..dim_rows)
                .map(|i| (i as Value % 250) * 2 * scale)
                .collect(),
            vec![f64_lane(1.0); dim_rows],
            (0..dim_rows)
                .map(|i| (i % 3) as Value)
                .collect::<Vec<Value>>(),
        ];
        // Hits, in-range misses (odd keys), and out-of-range keys on both
        // sides of the build range; the second key column misses on its
        // own.
        let fact_rows = 2_500;
        let fact_cols = vec![
            (0..fact_rows)
                .map(|i| ((i as Value * 7919) % 620 - 10) * scale)
                .collect(),
            vec![f64_lane(2.0); fact_rows],
            (0..fact_rows)
                .map(|i| (i % 4) as Value)
                .collect::<Vec<Value>>(),
        ];
        let dim = Relation::columnar(dim_schema(), dim_cols.clone()).unwrap();
        let fact = Relation::columnar(fact_schema(), fact_cols.clone()).unwrap();
        let mut b = JoinQuery::builder(("dim", dim_schema()), ("fact", fact_schema()))
            .on("key", "fk")
            .unwrap();
        if width == 2 {
            b = b.on("cls", "grp").unwrap();
        }
        let q = b.aggregate([Aggregate::count()]).unwrap();
        // Key columns 0 and 2 on both sides.
        let key_of = |cols: &[Vec<Value>], row: usize| -> Vec<Value> {
            [0, 2][..width].iter().map(|&c| cols[c][row]).collect()
        };
        let build: Vec<Vec<Value>> = (0..dim_rows).map(|r| key_of(&dim_cols, r)).collect();
        // Sized, as the join sizes it, by the distinct build keys (250 of
        // the 300 rows' one-column keys).
        let distinct = build.iter().collect::<std::collections::HashSet<_>>().len();
        assert_eq!(distinct, [250, 300][width - 1]);
        let mut filter = JoinFilter::with_capacity(distinct, vec![LogicalType::I64; width]);
        for key in &build {
            filter.insert(key, hash_key(key));
        }
        let (mut rejects, mut misses, mut pairs) = (0u64, 0u64, 0usize);
        for row in 0..fact_rows {
            let key = key_of(&fact_cols, row);
            if !(filter.in_range(&key) && filter.test_hash(hash_key(&key))) {
                rejects += 1;
            }
            let matches = build.iter().filter(|k| **k == key).count();
            misses += u64::from(matches == 0);
            pairs += matches;
        }
        assert!(rejects > 0 && pairs > 0);
        assert!(rejects < misses, "some in-range misses pass the bloom bits");
        let want_rejects = if ranked { misses } else { rejects };
        let label = format!("width {width} scale {scale}");
        let [(got, stats), (par, _)] = run_left_build(&dim, &fact, &q, FoldPlan::ProbeOnly);
        assert_eq!(par.data(), got.data(), "{label}");
        assert_eq!(stats.rank_index, ranked, "{label}");
        assert_eq!(stats.probe_rows, fact_rows, "{label}");
        assert_eq!(stats.probe_bloom_rejects, want_rejects, "{label}");
        assert_eq!(stats.output_pairs, pairs, "{label}");
        assert_eq!(got.row(0), [pairs as Value], "{label}");
    }
}
