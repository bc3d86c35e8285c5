//! The wide-table problem from the paper's introduction: scientific tables
//! with hundreds (even thousands) of attributes, where neither a pure
//! row-store nor a pure column-store is a safe default.
//!
//! This example builds a 250-attribute table and runs the projectivity
//! sweep of Fig. 1 in miniature — then lets H2O handle the same queries
//! and shows it tracking the better engine at both extremes.
//!
//! ```sh
//! cargo run --release --example wide_table
//! ```

use h2o::core::{StaticEngine, StaticKind};
use h2o::prelude::*;
use h2o::workload::micro::{QueryGen, Template};
use std::time::Instant;

fn main() {
    let n_attrs = 250;
    let rows = 120_000;
    let schema = Schema::with_width(n_attrs).into_shared();
    let columns = h2o::workload::gen_columns(n_attrs, rows, 3);

    let row_store =
        StaticEngine::new(schema.clone(), columns.clone(), StaticKind::RowStore).unwrap();
    let col_store =
        StaticEngine::new(schema.clone(), columns.clone(), StaticKind::ColumnStore).unwrap();
    let h2o_engine = H2oEngine::new(
        Relation::columnar(schema, columns).unwrap(),
        EngineConfig::default(),
    );

    println!("projectivity sweep over a {n_attrs}-attribute table ({rows} rows):\n");
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "attrs", "row-store", "col-store", "H2O"
    );
    for pct in [2usize, 20, 50, 80, 100] {
        let k = (n_attrs * pct / 100).max(2);
        let attrs: Vec<AttrId> = (0..k as u32).map(AttrId).collect();
        let (q, sel) = QueryGen::build(Template::Aggregation, &attrs[1..], &attrs[..1], 0.4);

        let time_engine = |f: &mut dyn FnMut() -> QueryResult| {
            let _ = f(); // warm
            let t = Instant::now();
            let out = f();
            (out, t.elapsed().as_secs_f64())
        };
        let (a, t_row) = time_engine(&mut || row_store.execute(&q).unwrap());
        let (b, t_col) = time_engine(&mut || col_store.execute(&q).unwrap());
        // H2O sees the query several times (as a workload would repeat it),
        // so its adaptation can kick in.
        let mut t_h2o = 0.0;
        let mut c = None;
        for _ in 0..3 {
            let t = Instant::now();
            c = Some(h2o_engine.run(Request::query(&q).hint(sel)).unwrap().result);
            t_h2o = t.elapsed().as_secs_f64();
        }
        let c = c.unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(b.fingerprint(), c.fingerprint());
        println!("{:>5}% {t_row:>11.4}s {t_col:>11.4}s {t_h2o:>11.4}s", pct);
    }

    println!(
        "\nH2O: {} layouts created, {} groups in catalog",
        h2o_engine.stats().layouts_created,
        h2o_engine.catalog().group_count()
    );
}
