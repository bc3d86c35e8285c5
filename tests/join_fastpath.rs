//! Join fast-path differential suite: **bloom-filtered probes and
//! join-aggregate fusion never change an answer.**
//!
//! The fast paths are pure execution shortcuts — a blocked bloom filter
//! plus exact key range that skips hash lookups for provably-absent
//! keys, and a fused probe loop that folds matches straight into the
//! aggregate state when the build side contributes no payload. Both
//! must be bit-invisible: this suite sweeps fused join-aggregates
//! against the two-phase path and the nested-loop interpreter across
//! all three strategies × serial/parallel × both build sides, then
//! proptests bloom-on ≡ bloom-off bit-identity over random match
//! rates, key skew, and empty build sides.

use h2o::exec::{compile_join, run_join, AccessPlan, ExecCtx, ExecPolicy, JoinOptions, Strategy};
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

fn opts(bloom: bool, fuse: bool) -> JoinOptions {
    JoinOptions { bloom, fuse }
}

/// `policy` with explicit fast-path switches.
fn join_ctx(policy: &ExecPolicy, join: JoinOptions) -> ExecCtx<'static> {
    ExecCtx {
        join,
        ..ExecCtx::new(*policy)
    }
}

/// Fused join-aggregates agree with the two-phase path and the
/// interpreter: 3 strategies × serial/parallel × both build sides, with
/// every fast-path toggle combination held to the both-off baseline.
#[test]
fn fused_aggregates_match_two_phase_and_interpreter() {
    let (dim_cols, fact_cols) = dim_fact_columns(600, 4_000, 0.35, 0.4, 23);
    let dim = Relation::columnar(dim_schema(), dim_cols).unwrap();
    let fact = Relation::columnar(fact_schema(), fact_cols).unwrap();
    let policies = [
        ("serial", ExecPolicy::serial()),
        (
            "parallel",
            ExecPolicy {
                parallelism: Some(4),
                morsel_rows: 128,
                serial_threshold: 0,
            },
        ),
    ];
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
                // The selects read only fact attributes, so the probe
                // loop fuses exactly when the dimension side builds.
                assert_eq!(
                    op.fused(),
                    build_is_left,
                    "{shape}: fusion requires an empty build payload"
                );
                for (pname, policy) in &policies {
                    let (slow, slow_stats) = run_join(
                        dim.catalog(),
                        fact.catalog(),
                        &op,
                        &join_ctx(policy, opts(false, false)),
                    )
                    .unwrap();
                    assert_eq!(
                        slow.fingerprint(),
                        want,
                        "{shape} {} {pname} build_is_left={build_is_left}: two-phase",
                        strategy.name()
                    );
                    assert_eq!(
                        slow_stats.probe_bloom_rejects, 0,
                        "bloom off rejects nothing"
                    );
                    for (bloom, fuse) in [(true, true), (true, false), (false, true)] {
                        let (fast, fast_stats) = run_join(
                            dim.catalog(),
                            fact.catalog(),
                            &op,
                            &join_ctx(policy, opts(bloom, fuse)),
                        )
                        .unwrap();
                        assert_eq!(
                            fast.data(),
                            slow.data(),
                            "{shape} {} {pname} build_is_left={build_is_left} \
                             bloom={bloom} fuse={fuse}",
                            strategy.name()
                        );
                        assert_eq!(fast_stats.output_pairs, slow_stats.output_pairs);
                        assert_eq!(fast_stats.probe_rows, slow_stats.probe_rows);
                    }
                }
            }
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
        &join_ctx(&ExecPolicy::serial(), opts(true, true)),
    )
    .unwrap();
    let misses = stats.probe_rows - stats.output_pairs.min(stats.probe_rows);
    assert!(
        stats.probe_bloom_rejects as usize >= misses / 2,
        "bloom should reject most of the {misses} missing probes; \
         rejected {}",
        stats.probe_bloom_rejects
    );
}

/// One proptest case: every query shape × strategy × build side ×
/// serial/parallel, bloom-on against bloom-off, byte-identical.
fn bloom_invisible(dim_rows: usize, fact_rows: usize, match_rate: f64, skew: f64, seed: u64) {
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
                for policy in [&ExecPolicy::serial(), &par] {
                    let (off, _) = run_join(
                        dim.catalog(),
                        fact.catalog(),
                        &op,
                        &join_ctx(policy, opts(false, true)),
                    )
                    .unwrap();
                    let (on, _) = run_join(
                        dim.catalog(),
                        fact.catalog(),
                        &op,
                        &join_ctx(policy, opts(true, true)),
                    )
                    .unwrap();
                    prop_assert_eq!(
                        on.data(),
                        off.data(),
                        "{} {} build_is_left={} parallelism={:?}",
                        shape,
                        strategy.name(),
                        build_is_left,
                        policy.parallelism
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bloom filtering is bit-invisible for any match rate, key skew,
    /// and relation size — including empty build and probe sides.
    #[test]
    fn bloom_on_equals_bloom_off(
        seed in 0u64..1000,
        dim_rows in 0usize..250,
        fact_rows in 0usize..250,
        match_rate in 0.0f64..=1.0,
        skew in 0.0f64..=1.0,
    ) {
        bloom_invisible(dim_rows, fact_rows, match_rate, skew, seed);
    }
}
