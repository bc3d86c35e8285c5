//! Join fast-path differential suite: **bloom-filtered probes and
//! join-aggregate fusion never change an answer.**
//!
//! The fast paths are pure execution shortcuts, always on — a blocked
//! bloom filter plus exact key range that skips hash lookups for
//! provably-absent keys, and a fused probe loop that folds matches
//! straight into the aggregate state when the build side contributes no
//! payload. Both must be bit-invisible: this suite checks that they
//! engage (filter rejects, fused operators) and holds every answer to
//! the nested-loop interpreter across all three strategies ×
//! serial/parallel × both build sides — one of which fuses and one of
//! which runs the two-phase probe — then proptests the same over random
//! match rates, key skew, and empty build sides.

use h2o::exec::{compile_join, run_join, AccessPlan, ExecCtx, ExecPolicy, Strategy};
use h2o::expr::{check_join, interpret_join, JoinQuery};
use h2o::prelude::*;
use h2o::storage::LogicalType;
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

/// Dimension/fact columns with *in-domain* misses: dim keys are sparse
/// (even), fact foreign keys that miss are odd values between real keys
/// — the `[min,max]` range check alone cannot reject them, so the bloom
/// bits carry the filtering. Payload `f64`s live on a dyadic grid, so
/// any fold order sums exactly.
fn dim_fact_columns(
    dim_rows: usize,
    fact_rows: usize,
    match_rate: f64,
    skew: f64,
    seed: u64,
) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let keys: Vec<Value> = gen_key_column(dim_rows, (dim_rows as u64).max(1) * 4, seed)
        .into_iter()
        .map(|v| v * 2)
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

/// Join-aggregate shapes whose selects read **only fact-side attributes**
/// — when the dimension side builds, its payload is empty and the probe
/// loop fuses (one multiplicity-weighted fold per probe row); when the
/// fact side builds, the same operator runs unfused. Both orders are
/// swept below.
fn fused_queries() -> Vec<(&'static str, JoinQuery)> {
    let b = || JoinQuery::builder(("dim", dim_schema()), ("fact", fact_schema()));
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
        ));
    }
    out
}

/// Fused join-aggregates agree with the two-phase path and the
/// interpreter: 3 strategies × serial/parallel × both build sides. The
/// dimension side building fuses; the fact side building runs two-phase.
/// Both match the interpreter, count the same pairs, and are
/// bit-identical serial vs parallel.
#[test]
fn fused_aggregates_match_two_phase_and_interpreter() {
    let (dim_cols, fact_cols) = dim_fact_columns(600, 4_000, 0.35, 0.4, 23);
    let dim = Relation::columnar(dim_schema(), dim_cols).unwrap();
    let fact = Relation::columnar(fact_schema(), fact_cols).unwrap();
    let parallel = ExecPolicy {
        parallelism: Some(4),
        morsel_rows: 128,
        serial_threshold: 0,
    };
    for (shape, q) in fused_queries() {
        let checked = check_join(&q).unwrap();
        let want = interpret_join(dim.catalog(), fact.catalog(), &q)
            .unwrap()
            .fingerprint();
        for strategy in Strategy::ALL {
            let lplan = AccessPlan::new(dim.catalog().layout_ids(), strategy);
            let rplan = AccessPlan::new(fact.catalog().layout_ids(), strategy);
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
                // The selects read only fact attributes, so the probe
                // loop fuses exactly when the dimension side builds.
                assert_eq!(
                    op.fused(),
                    build_is_left,
                    "{shape}: fusion requires an empty build payload"
                );
                let run = |policy| {
                    run_join(dim.catalog(), fact.catalog(), &op, &ExecCtx::new(policy)).unwrap()
                };
                let (serial, stats) = run(ExecPolicy::serial());
                let label = format!("{shape} {} build_is_left={build_is_left}", strategy.name());
                assert_eq!(serial.fingerprint(), want, "{label}");
                let (par, par_stats) = run(parallel);
                assert_eq!(par.data(), serial.data(), "{label}: serial vs parallel");
                assert_eq!(par_stats.output_pairs, stats.output_pairs);
                assert_eq!(par_stats.probe_rows, stats.probe_rows);
                pairs.push(stats.output_pairs);
            }
            assert_eq!(
                pairs[0], pairs[1],
                "{shape}: fused and two-phase count the same pairs"
            );
        }
    }
}

/// The 35%-match fixture actually exercises the filter: with the bloom
/// on, a majority of the qualifying probe rows skip their hash lookup
/// (misses are in-range, so the exact `[min,max]` check alone cannot
/// claim the credit).
#[test]
fn in_domain_misses_are_rejected_by_bloom_bits_not_the_range() {
    let (dim_cols, fact_cols) = dim_fact_columns(600, 4_000, 0.35, 0.4, 23);
    let dim = Relation::columnar(dim_schema(), dim_cols).unwrap();
    let fact = Relation::columnar(fact_schema(), fact_cols).unwrap();
    let (_, q) = fused_queries().remove(0);
    let checked = check_join(&q).unwrap();
    let lplan = AccessPlan::new(dim.catalog().layout_ids(), Strategy::SelVector);
    let rplan = AccessPlan::new(fact.catalog().layout_ids(), Strategy::SelVector);
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
    let misses = stats.probe_rows - stats.output_pairs.min(stats.probe_rows);
    assert!(stats.probe_bloom_rejects > 0, "the filter must engage");
    assert!(
        stats.probe_bloom_rejects as usize >= misses / 2,
        "bloom should reject most of the {misses} missing probes; \
         rejected {}",
        stats.probe_bloom_rejects
    );
}

/// One proptest case: every query shape × strategy × build side ×
/// serial/parallel matches the interpreter, and parallel is
/// byte-identical to serial.
fn bloom_filtered_joins_agree(
    dim_rows: usize,
    fact_rows: usize,
    match_rate: f64,
    skew: f64,
    seed: u64,
) {
    let (dim_cols, fact_cols) = dim_fact_columns(dim_rows, fact_rows, match_rate, skew, seed);
    let dim = Relation::columnar(dim_schema(), dim_cols).unwrap();
    let fact = Relation::columnar(fact_schema(), fact_cols).unwrap();
    let par = ExecPolicy {
        parallelism: Some(4),
        morsel_rows: 64,
        serial_threshold: 0,
    };
    for (shape, q) in fused_queries() {
        let checked = check_join(&q).unwrap();
        let want = interpret_join(dim.catalog(), fact.catalog(), &q)
            .unwrap()
            .fingerprint();
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
                let run = |policy| {
                    run_join(dim.catalog(), fact.catalog(), &op, &ExecCtx::new(policy))
                        .unwrap()
                        .0
                };
                let serial = run(ExecPolicy::serial());
                prop_assert_eq!(
                    serial.fingerprint(),
                    want,
                    "{} {} build_is_left={}",
                    shape,
                    strategy.name(),
                    build_is_left
                );
                prop_assert_eq!(
                    run(par).data(),
                    serial.data(),
                    "{} {} build_is_left={} parallel",
                    shape,
                    strategy.name(),
                    build_is_left
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bloom-filtered (and, where eligible, fused) joins match the
    /// interpreter for any match rate, key skew, and relation size —
    /// including empty build and probe sides.
    #[test]
    fn bloom_filtered_joins_match_the_interpreter(
        seed in 0u64..1000,
        dim_rows in 0usize..250,
        fact_rows in 0usize..250,
        match_rate in 0.0f64..=1.0,
        skew in 0.0f64..=1.0,
    ) {
        bloom_filtered_joins_agree(dim_rows, fact_rows, match_rate, skew, seed);
    }
}
