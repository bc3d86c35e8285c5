//! Grouped aggregation across the three kernel strategies (beyond the
//! paper, which stops at select-project-aggregate): rows/sec versus group
//! cardinality per strategy, JSON output.
//!
//! For each key cardinality the relation regenerates its key column
//! (uniform in `[0, cardinality)`), and the canonical rollup
//! `select a0, sum(a1), min(a2), count(*) from R where a3 < t group by a0`
//! runs through each strategy over the same columnar store. Every point
//! cross-checks three identities before timing anything:
//!
//! * the strategy's serial result is fingerprint-identical to the
//!   reference interpreter;
//! * morsel-parallel execution is **bit-identical** to serial (same rows,
//!   same sorted-by-key order);
//! * all three strategies agree with each other (implied by the first).
//!
//! The emitted JSON carries the fingerprints; `tests/grouped.rs` asserts
//! the same identities in tier-1.

use h2o_bench::{time_hot, Args};
use h2o_exec::{compile, execute, execute_with_policy, AccessPlan, ExecPolicy, Strategy};
use h2o_expr::{interpret, Aggregate, Conjunction, Expr, Predicate, Query};
use h2o_storage::{Relation, Schema};
use h2o_workload::synth::{gen_columns_with_keys, threshold_for_selectivity};

fn main() {
    let args = Args::parse(2_000_000, 6, 5);
    let rows = args.tuples.max(16);
    let attrs = args.attrs.max(4);
    let reps = args.queries.max(1);
    let cardinalities: Vec<u64> = [4u64, 64, 1024, 65_536]
        .into_iter()
        .filter(|&c| (c as usize) <= rows)
        .collect();

    eprintln!(
        "fig18: {rows} x {attrs} columnar relation, grouped rollup per strategy, \
         cardinalities {cardinalities:?}, {reps} hot reps"
    );

    let query = Query::grouped(
        [Expr::col(0u32)],
        [
            Aggregate::sum(Expr::col(1u32)),
            Aggregate::min(Expr::col(2u32)),
            Aggregate::count(),
        ],
        Conjunction::of([Predicate::lt(3u32, threshold_for_selectivity(0.5))]),
    )
    .unwrap();

    let parallel = ExecPolicy {
        parallelism: Some(4),
        morsel_rows: 65_536,
        serial_threshold: 0,
    };

    let mut entries = Vec::new();
    for &card in &cardinalities {
        let schema = Schema::with_width(attrs).into_shared();
        let columns = gen_columns_with_keys(attrs, rows, args.seed, 1, card);
        let rel = Relation::columnar(schema, columns).unwrap();
        let reference = interpret(rel.catalog(), &query).unwrap();
        let groups = reference.rows();

        for strategy in Strategy::ALL {
            let plan = AccessPlan::new(rel.catalog().layout_ids(), strategy);
            let op = compile(rel.catalog(), &plan, &query).unwrap();
            let serial = execute(rel.catalog(), &op).unwrap();
            assert_eq!(
                serial.fingerprint(),
                reference.fingerprint(),
                "strategy {} diverged from the interpreter at cardinality {card}",
                strategy.name()
            );
            let par = execute_with_policy(rel.catalog(), &op, &parallel).unwrap();
            let parallel_identical = par == serial;
            assert!(
                parallel_identical,
                "parallel grouped result not bit-identical ({}, cardinality {card})",
                strategy.name()
            );

            let secs = time_hot(reps, || execute(rel.catalog(), &op).unwrap());
            let rows_per_sec = rows as f64 / secs;
            eprintln!(
                "fig18: card={card:<6} {:<8} {secs:.4}s  {rows_per_sec:.0} rows/s  {groups} groups",
                strategy.name()
            );
            entries.push(format!(
                "{{\"cardinality\":{card},\"strategy\":\"{}\",\"seconds\":{secs:.6},\
                 \"rows_per_sec\":{rows_per_sec:.2},\"groups\":{groups},\
                 \"serial_fingerprint\":\"{:x}\",\"parallel_fingerprint\":\"{:x}\",\
                 \"interp_fingerprint\":\"{:x}\",\"parallel_identical\":{parallel_identical}}}",
                strategy.name(),
                serial.fingerprint(),
                par.fingerprint(),
                reference.fingerprint(),
            ));
        }
    }

    println!(
        "{{\"bench\":\"fig18_grouped_agg\",\"rows\":{rows},\"attrs\":{attrs},\"reps\":{reps},\
         \"seed\":{},\"query\":\"{query}\",\"results\":[{}]}}",
        args.seed,
        entries.join(",")
    );
}
