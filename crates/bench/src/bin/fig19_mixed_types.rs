//! Typed-column overhead and zone-map pruning: the all-`i64` lane versus a
//! mixed `f64`/dictionary SkyServer-shaped relation, per strategy, JSON
//! output.
//!
//! The typed-column refactor keeps every value on the same 64-bit physical
//! lane; the claim to defend is that *typed* execution (total-order `f64`
//! comparators via the key mapping, `f64` accumulation, dictionary-code
//! equality) stays within a small factor of the integer lane on the same
//! query shapes. Two relations with identical row count and width run the
//! same two shapes:
//!
//! * `range_agg` — `select sum(a), min(b), max(c), count(*) where x < t`
//!   (the filter and aggregates are `i64` on one relation, `f64` on the
//!   other);
//! * `rollup` — `select k, sum(a), count(*) ... group by k` (an integer
//!   key versus a dictionary-coded class label).
//!
//! Every point cross-checks the engine-wide identities before timing:
//! serial ≡ interpreter (fingerprint) and parallel ≡ serial
//! (bit-identical). A third case, `zone_range_filter`, scans a
//! segment-clustered (monotone) column with a selective range predicate
//! and reports how many sealed-segment runs the zone maps skipped
//! (`tests/mixed_types.rs` asserts the identities and a non-zero skip
//! count in tier-1).

use h2o_bench::{time_hot, Args};
use h2o_exec::{
    compile, execute, execute_with_policy, execute_with_policy_stats, AccessPlan, ExecPolicy,
    Strategy,
};
use h2o_expr::{interpret, Aggregate, Conjunction, Expr, Predicate, Query};
use h2o_storage::{f64_lane, AttrId, LogicalType, Relation, Schema, Value};
use h2o_workload::synth::{
    f64_threshold_for_selectivity, gen_dict_column, gen_f64_column, gen_key_column,
    threshold_for_selectivity, F64_GRID,
};

const LABELS: [&str; 6] = [
    "UNKNOWN",
    "STAR",
    "GALAXY",
    "COSMIC_RAY",
    "GHOST",
    "KNOWNOBJ",
];

/// Width-6 schema pair: identical shapes, different lane types.
/// Layout: k (key), a, b, c (measures), x (filter), m (spare).
fn i64_relation(rows: usize, seed: u64) -> Relation {
    let schema = Schema::with_width(6).into_shared();
    let columns = vec![
        gen_key_column(rows, LABELS.len() as u64, seed),
        h2o_workload::gen_columns(1, rows, seed ^ 1).pop().unwrap(),
        h2o_workload::gen_columns(1, rows, seed ^ 2).pop().unwrap(),
        h2o_workload::gen_columns(1, rows, seed ^ 3).pop().unwrap(),
        h2o_workload::gen_columns(1, rows, seed ^ 4).pop().unwrap(),
        gen_key_column(rows, 16, seed ^ 5),
    ];
    Relation::columnar(schema, columns).unwrap()
}

fn mixed_relation(rows: usize, seed: u64) -> Relation {
    let schema = Schema::typed([
        ("type", LogicalType::Dict),
        ("ra", LogicalType::F64),
        ("dec", LogicalType::F64),
        ("mag", LogicalType::F64),
        ("x", LogicalType::F64),
        ("status", LogicalType::I64),
    ])
    .into_shared();
    let dict = schema.dictionary(AttrId(0)).unwrap();
    let columns = vec![
        gen_dict_column(rows, dict, &LABELS, seed),
        gen_f64_column(rows, 0.0, 360.0, seed ^ 1),
        gen_f64_column(rows, -90.0, 90.0, seed ^ 2),
        gen_f64_column(rows, 10.0, 30.0, seed ^ 3),
        gen_f64_column(rows, 0.0, 1000.0, seed ^ 4),
        gen_key_column(rows, 16, seed ^ 5),
    ];
    Relation::columnar(schema, columns).unwrap()
}

fn queries_for(lane: &str) -> Vec<(&'static str, Query)> {
    let (filter, rollup_filter) = match lane {
        "i64" => (
            Predicate::lt(4u32, threshold_for_selectivity(0.5)),
            Predicate::lt(4u32, threshold_for_selectivity(0.5)),
        ),
        _ => (
            Predicate::lt(4u32, f64_threshold_for_selectivity(0.5, 0.0, 1000.0)),
            Predicate::lt(4u32, f64_threshold_for_selectivity(0.5, 0.0, 1000.0)),
        ),
    };
    vec![
        (
            "range_agg",
            Query::aggregate(
                [
                    Aggregate::sum(Expr::col(1u32)),
                    Aggregate::min(Expr::col(2u32)),
                    Aggregate::max(Expr::col(3u32)),
                    Aggregate::count(),
                ],
                Conjunction::of([filter]),
            )
            .unwrap(),
        ),
        (
            "rollup",
            Query::grouped(
                [Expr::col(0u32)],
                [Aggregate::sum(Expr::col(1u32)), Aggregate::count()],
                Conjunction::of([rollup_filter]),
            )
            .unwrap(),
        ),
    ]
}

fn main() {
    let args = Args::parse(800_000, 6, 5);
    let rows = args.tuples.max(16);
    let reps = args.queries.max(1);
    eprintln!(
        "fig19: {rows}-row all-i64 vs mixed f64/dict relations, \
         2 query shapes x 3 strategies, {reps} hot reps"
    );

    let parallel = ExecPolicy {
        parallelism: Some(4),
        morsel_rows: 65_536,
        serial_threshold: 0,
    };

    let mut entries = Vec::new();
    let mut seconds: Vec<((String, String, String), f64)> = Vec::new();
    for (lane, rel) in [
        ("i64", i64_relation(rows, args.seed)),
        ("mixed", mixed_relation(rows, args.seed)),
    ] {
        for (case, query) in queries_for(lane) {
            let reference = interpret(rel.catalog(), &query).unwrap();
            for strategy in Strategy::ALL {
                let plan = AccessPlan::new(rel.catalog().layout_ids(), strategy);
                let op = compile(rel.catalog(), &plan, &query).unwrap();
                let serial = execute(rel.catalog(), &op).unwrap();
                assert_eq!(
                    serial.fingerprint(),
                    reference.fingerprint(),
                    "{lane}/{case}: {} diverged from the interpreter",
                    strategy.name()
                );
                let par = execute_with_policy(rel.catalog(), &op, &parallel).unwrap();
                let parallel_identical = par == serial;
                assert!(
                    parallel_identical,
                    "{lane}/{case}: parallel not bit-identical ({})",
                    strategy.name()
                );
                let secs = time_hot(reps, || execute(rel.catalog(), &op).unwrap());
                let rows_per_sec = rows as f64 / secs;
                eprintln!(
                    "fig19: {lane:<5} {case:<10} {:<8} {secs:.4}s  {rows_per_sec:.0} rows/s",
                    strategy.name()
                );
                seconds.push((
                    (
                        lane.to_string(),
                        case.to_string(),
                        strategy.name().to_string(),
                    ),
                    secs,
                ));
                entries.push(format!(
                    "{{\"lane\":\"{lane}\",\"case\":\"{case}\",\"strategy\":\"{}\",\
                     \"seconds\":{secs:.6},\"rows_per_sec\":{rows_per_sec:.2},\
                     \"serial_fingerprint\":\"{:x}\",\"parallel_fingerprint\":\"{:x}\",\
                     \"interp_fingerprint\":\"{:x}\",\"parallel_identical\":{parallel_identical}}}",
                    strategy.name(),
                    serial.fingerprint(),
                    par.fingerprint(),
                    reference.fingerprint(),
                ));
            }
        }
    }

    // Typed-vs-integer ratio per (case, strategy) — the acceptance figure.
    for strategy in Strategy::ALL {
        for case in ["range_agg", "rollup"] {
            let of = |lane: &str| {
                seconds
                    .iter()
                    .find(|((l, c, s), _)| l == lane && c == case && s == strategy.name())
                    .map(|(_, secs)| *secs)
            };
            if let (Some(i), Some(m)) = (of("i64"), of("mixed")) {
                let ratio = m / i;
                eprintln!(
                    "fig19: ratio {case:<10} {:<8} mixed/i64 = {ratio:.3}x",
                    strategy.name()
                );
                entries.push(format!(
                    "{{\"case\":\"{case}\",\"strategy\":\"{}\",\"mixed_over_i64\":{ratio:.4}}}",
                    strategy.name()
                ));
            }
        }
    }

    // Zone-map case: a monotone f64 column in default-shift segments, a
    // range predicate selecting only the first segment's values.
    let zone_rows = rows.max(1 << 18);
    let schema = Schema::typed([("t", LogicalType::F64), ("v", LogicalType::I64)]).into_shared();
    let t: Vec<Value> = (0..zone_rows)
        .map(|r| f64_lane(r as f64 * F64_GRID))
        .collect();
    let v: Vec<Value> = gen_key_column(zone_rows, 1000, args.seed ^ 9);
    let rel =
        Relation::partitioned(schema, vec![t, v], vec![vec![AttrId(0)], vec![AttrId(1)]]).unwrap();
    let cutoff = (zone_rows as f64) * F64_GRID / 8.0;
    let zone_query = Query::aggregate(
        [Aggregate::count(), Aggregate::sum(Expr::col(1u32))],
        Conjunction::of([Predicate::lt(0u32, cutoff)]),
    )
    .unwrap();
    let reference = interpret(rel.catalog(), &zone_query).unwrap();
    let plan = AccessPlan::new(rel.catalog().layout_ids(), Strategy::SelVector);
    let op = compile(rel.catalog(), &plan, &zone_query).unwrap();
    let (out, stats) =
        execute_with_policy_stats(rel.catalog(), &op, &ExecPolicy::serial()).unwrap();
    assert_eq!(out.fingerprint(), reference.fingerprint(), "zone case");
    let secs = time_hot(reps, || execute(rel.catalog(), &op).unwrap());
    eprintln!(
        "fig19: zone_range_filter {zone_rows} rows: {} segment runs skipped, {secs:.4}s",
        stats.segments_skipped
    );
    entries.push(format!(
        "{{\"case\":\"zone_range_filter\",\"rows\":{zone_rows},\
         \"segments_skipped\":{},\"seconds\":{secs:.6},\
         \"serial_fingerprint\":\"{:x}\",\"interp_fingerprint\":\"{:x}\"}}",
        stats.segments_skipped,
        out.fingerprint(),
        reference.fingerprint(),
    ));

    println!(
        "{{\"bench\":\"fig19_mixed_types\",\"rows\":{rows},\"reps\":{reps},\"seed\":{},\
         \"results\":[{}]}}",
        args.seed,
        entries.join(",")
    );
}
