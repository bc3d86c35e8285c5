//! Figure 7 + Table 1 — "H2O vs Row-store vs Column-store (vs Optimal)".
//!
//! A 100-query select-project-aggregation sequence over a 150-attribute
//! relation (queries touch 10–30 attributes, clustered into recurring
//! classes). The relation starts column-major for H2O, as in the paper.
//! Four curves: the static row-store, the static column-store, H2O, and
//! the optimal oracle (perfect per-query layout, preparation not timed).
//!
//! Expected shape: H2O tracks the column-store until its first adaptation,
//! pays visible creation spikes on the queries that materialize layouts,
//! then runs near-optimal; cumulative time H2O < column-store < row-store
//! (Table 1: 204.7 s / 283.7 s / 538.2 s at paper scale).

#![allow(clippy::field_reassign_with_default)] // configs are tweaked from defaults on purpose

use h2o_bench::{csv_header, fmt_s, time, Args};
use h2o_core::{oracle, EngineConfig, H2oEngine, Request, StaticEngine, StaticKind};
use h2o_storage::{Relation, Schema};
use h2o_workload::sequence::fig7_sequence;
use h2o_workload::synth::gen_columns;
use std::collections::HashMap;

fn main() {
    // 200 queries (vs the paper's 100): our layout-build cost relative to
    // a single query is higher at container scale, so amortization needs a
    // proportionally longer sequence to show the same Table-1 shape.
    let args = Args::parse(500_000, 150, 200);
    eprintln!(
        "fig07: {} tuples x {} attrs, {} queries",
        args.tuples, args.attrs, args.queries
    );

    let schema = Schema::with_width(args.attrs).into_shared();
    let columns = gen_columns(args.attrs, args.tuples, args.seed);
    let row_engine =
        StaticEngine::new(schema.clone(), columns.clone(), StaticKind::RowStore).unwrap();
    let col_engine =
        StaticEngine::new(schema.clone(), columns.clone(), StaticKind::ColumnStore).unwrap();
    let h2o_relation = Relation::columnar(schema, columns).unwrap();
    let oracle_relation = col_engine.relation().clone();
    // Paper comparison: the static baselines are serial, so H2O runs
    // single-threaded here too.
    let mut config = EngineConfig::single_threaded();
    config.window.initial = 20;
    let h2o = H2oEngine::new(h2o_relation, config);

    let workload = fig7_sequence(args.attrs, args.queries, 6, 0.1, args.seed);

    // Oracle layouts are cached per attribute set: repeated classes reuse
    // the prepared layout, and only `run` is ever timed.
    let mut oracle_cache: HashMap<Vec<h2o_storage::AttrId>, oracle::OracleQuery> = HashMap::new();

    csv_header(&[
        "query",
        "h2o_seconds",
        "column_seconds",
        "row_seconds",
        "optimal_seconds",
        "h2o_strategy",
        "h2o_created_layout",
    ]);

    let (mut sum_h2o, mut sum_col, mut sum_row, mut sum_opt) = (0.0, 0.0, 0.0, 0.0);
    for (i, tq) in workload.iter().enumerate() {
        let (out, t_h2o) = time(|| {
            h2o.run(Request::query(&tq.query).hint(tq.selectivity))
                .unwrap()
        });
        let (r_col, t_col) = time(|| col_engine.execute(&tq.query).unwrap());
        let (r_row, t_row) = time(|| row_engine.execute(&tq.query).unwrap());
        let key = tq.query.all_attrs().to_vec();
        let staged = match oracle_cache.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                // Same layout, new constants: re-stage the operator
                // (untimed — the oracle has "ample time to prepare").
                let staged = e.into_mut();
                staged.restage(&tq.query).unwrap();
                staged
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(oracle::prepare(&oracle_relation, &tq.query).unwrap())
            }
        };
        let (r_opt, t_opt) = time(|| staged.run().unwrap());

        // Every engine must agree — the differential invariant.
        let want = out.result.fingerprint();
        assert_eq!(r_col.fingerprint(), want, "column mismatch at query {i}");
        assert_eq!(r_row.fingerprint(), want, "row mismatch at query {i}");
        assert_eq!(r_opt.fingerprint(), want, "oracle mismatch at query {i}");

        let report = out.report.query().unwrap();
        println!(
            "{i},{},{},{},{},{},{}",
            fmt_s(t_h2o),
            fmt_s(t_col),
            fmt_s(t_row),
            fmt_s(t_opt),
            report.strategy.name(),
            report.created_layout.is_some(),
        );
        sum_h2o += t_h2o;
        sum_col += t_col;
        sum_row += t_row;
        sum_opt += t_opt;
    }

    // Table 1.
    println!("table1,row_store,{}", fmt_s(sum_row));
    println!("table1,column_store,{}", fmt_s(sum_col));
    println!("table1,h2o,{}", fmt_s(sum_h2o));
    println!("table1,optimal,{}", fmt_s(sum_opt));
    let stats = h2o.stats();
    eprintln!(
        "cumulative: row {:.3}s | column {:.3}s | H2O {:.3}s | optimal {:.3}s",
        sum_row, sum_col, sum_h2o, sum_opt
    );
    eprintln!(
        "H2O vs column: {:.2}x, vs row: {:.2}x; adaptations {}, layouts created {}, groups now {}",
        sum_col / sum_h2o,
        sum_row / sum_h2o,
        stats.adaptations,
        stats.layouts_created,
        h2o.catalog().group_count()
    );
    let oc = h2o.opcache_stats();
    eprintln!(
        "H2O breakdown: advise {:.3}s, reorg {:.3}s, compile {:.3}s ({} ops), shifts {}, recommendations {}",
        stats.advise_time.as_secs_f64(),
        stats.reorg_time.as_secs_f64(),
        oc.compile_time.as_secs_f64(),
        oc.misses,
        stats.shifts_detected,
        stats.recommendations,
    );
}
