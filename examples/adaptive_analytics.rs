//! A shifting analytical workload: the scenario the paper's introduction
//! motivates — no a-priori workload knowledge, the access pattern changes
//! mid-stream, and the engine must keep up without a DBA.
//!
//! Phase 1 explores "sensor" attributes; phase 2 abruptly pivots to
//! "billing" attributes. We race H2O against both static designs and print
//! a per-phase comparison.
//!
//! ```sh
//! cargo run --release --example adaptive_analytics
//! ```

use h2o::core::{StaticEngine, StaticKind};
use h2o::prelude::*;
use std::time::Instant;

fn phase_query(base: u32, i: i64) -> Query {
    // select a_base + a_base+1 + ... + a_base+7 where a_base+8 < v
    let attrs: Vec<AttrId> = (base..base + 8).map(AttrId).collect();
    Query::project(
        [Expr::sum_of(attrs)],
        Conjunction::of([Predicate::lt(base + 8, (i % 9 - 4) * 200_000_000)]),
    )
    .unwrap()
}

fn main() {
    let n_attrs = 80;
    let rows = 200_000;
    let schema = Schema::with_width(n_attrs).into_shared();
    let columns = h2o::workload::gen_columns(n_attrs, rows, 7);

    let h2o_engine = H2oEngine::new(
        Relation::columnar(schema.clone(), columns.clone()).unwrap(),
        EngineConfig::default(),
    );
    let row_store =
        StaticEngine::new(schema.clone(), columns.clone(), StaticKind::RowStore).unwrap();
    let col_store = StaticEngine::new(schema, columns, StaticKind::ColumnStore).unwrap();

    let phases = [
        ("sensors (attrs 0..9)", 0u32),
        ("billing (attrs 40..49)", 40u32),
    ];
    for (label, base) in phases {
        let (mut t_h2o, mut t_row, mut t_col) = (0.0f64, 0.0, 0.0);
        for i in 0..60i64 {
            let q = phase_query(base, i);
            let t = Instant::now();
            let a = h2o_engine.run(Request::query(&q)).unwrap().result;
            t_h2o += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let b = row_store.execute(&q).unwrap();
            t_row += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let c = col_store.execute(&q).unwrap();
            t_col += t.elapsed().as_secs_f64();
            assert_eq!(a.fingerprint(), b.fingerprint());
            assert_eq!(b.fingerprint(), c.fingerprint());
        }
        println!("{label:>24}: H2O {t_h2o:.3}s | column-store {t_col:.3}s | row-store {t_row:.3}s");
    }

    let stats = h2o_engine.stats();
    println!(
        "\nH2O adapted across the shift: {} shifts detected, {} layouts created, window now {} queries",
        stats.shifts_detected,
        stats.layouts_created,
        h2o_engine.window_size(),
    );
}
