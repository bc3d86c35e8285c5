//! Quickstart: load a relation, run queries, watch H2O adapt.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use h2o::prelude::*;

fn main() {
    // A 40-attribute relation of 100k tuples, initially column-major —
    // H2O needs no schema-design decision up front.
    let n_attrs: usize = 40;
    let rows = 100_000;
    let schema = Schema::with_width(n_attrs).into_shared();
    let columns = h2o::workload::gen_columns(n_attrs, rows, 42);
    let relation = Relation::columnar(schema, columns).unwrap();
    let engine = H2oEngine::new(relation, EngineConfig::default());

    // The paper's running example, Q1:
    //   select a+b+c from R where d < v1 and e > v2
    let q1 = Query::project(
        [Expr::sum_of([AttrId(0), AttrId(1), AttrId(2)])],
        Conjunction::of([
            Predicate::lt(3u32, 250_000_000),
            Predicate::gt(4u32, -750_000_000),
        ]),
    )
    .unwrap();

    let result = engine.run(Request::query(&q1)).unwrap().result;
    println!("Q1 returned {} rows (showing 3):", result.rows());
    for row in result.iter_rows().take(3) {
        println!("  {row:?}");
    }

    // An aggregation over the same hot attributes.
    let q2 = Query::aggregate(
        [
            Aggregate::max(Expr::col(0u32)),
            Aggregate::min(Expr::col(1u32)),
            Aggregate::avg(Expr::col(2u32)),
            Aggregate::count(),
        ],
        Conjunction::of([Predicate::lt(3u32, 0)]),
    )
    .unwrap();
    let agg = engine.run(Request::query(&q2)).unwrap().result;
    println!(
        "Q2 -> max(a0)={} min(a1)={} avg(a2)={} count={}",
        agg.row(0)[0],
        agg.row(0)[1],
        agg.row(0)[2],
        agg.row(0)[3]
    );

    // Keep hammering the same attribute cluster: the monitoring window
    // fills, the adviser proposes a column group, and the first query that
    // benefits materializes it while answering (lazy online
    // reorganization).
    for i in 0..40 {
        let q = Query::project(
            [Expr::sum_of([AttrId(0), AttrId(1), AttrId(2)])],
            Conjunction::of([Predicate::lt(3u32, (i - 10) * 50_000_000)]),
        )
        .unwrap();
        let out = engine.run(Request::query(&q)).unwrap();
        if let Some(layout) = out.report.query().and_then(|r| r.created_layout) {
            println!(
                "query {:>2}: materialized layout {layout} while answering",
                i + 2
            );
        }
    }

    // EXPLAIN shows what the engine would do for the hot query now.
    println!("\n{}", engine.explain(&q1).unwrap());

    // The store also accepts writes: every coexisting layout receives the
    // new tuples, so all plans remain valid.
    engine
        .insert(&[vec![1; n_attrs], vec![-1; n_attrs]])
        .unwrap();
    println!(
        "inserted 2 tuples; relation now {} rows across every layout",
        engine.catalog().rows()
    );

    let stats = engine.stats();
    println!(
        "\nafter {} queries: {} adaptation rounds, {} layouts created, {} groups in the catalog",
        stats.queries,
        stats.adaptations,
        stats.layouts_created,
        engine.catalog().group_count(),
    );
    println!(
        "operator cache: {} compiled, {} hits",
        engine.opcache_stats().misses,
        engine.opcache_stats().hits
    );
}
