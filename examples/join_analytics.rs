//! Two-table analytics on an adaptive store: the SkyServer photo↔spec
//! join workload (`R.objID = spec.bestObjID` lookups plus grouped
//! rollups over the join) hammers a key + payload cluster of the photo
//! table, and the engine converges its physical layout to it — the
//! multi-relation analogue of `grouped_analytics.rs` (the paper itself
//! stops at single-relation queries).
//!
//! The example prints the build side the greedy selectivity-driven
//! ordering picks, the layout the adviser materializes, the per-batch
//! latency trend, and a sample rollup — every result is differentially
//! checked against the join interpreter on the snapshot it ran against.
//!
//! ```sh
//! cargo run --release --example join_analytics
//! ```

use h2o::expr::interpret_join;
use h2o::prelude::*;
use h2o::workload::skyserver_join_workload;
use std::time::Instant;

fn main() {
    let photo_rows = 120_000;
    let spec_rows = 60_000;
    let w = skyserver_join_workload(photo_rows, spec_rows, 120, 0.85, 0.3, 7);

    let engine = H2oEngine::new(
        Relation::columnar(w.photo.schema.clone(), w.photo_columns.clone()).unwrap(),
        EngineConfig::default(),
    );
    engine
        .add_relation(
            "spec",
            Relation::columnar(w.spec_schema.clone(), w.spec_columns.clone()).unwrap(),
        )
        .unwrap();

    println!(
        "photo ({photo_rows} rows x {} attrs) \u{22c8} spec ({spec_rows} rows x {} attrs), \
         {} join queries, photo initially columnar ({} layouts)\n",
        w.photo.schema.len(),
        w.spec_schema.len(),
        w.queries.len(),
        engine.catalog().group_count()
    );

    // Three batches of the workload: the first pays the all-columns price
    // (and teaches the selectivity history), later ones run on whatever
    // the adviser built for the join's key + payload columns.
    for (batch, chunk) in w.queries.chunks(40).enumerate() {
        let t0 = Instant::now();
        let (mut checked, mut build_is_left) = (0, false);
        for (i, q) in chunk.iter().enumerate() {
            let out = engine.run(Request::join(q)).unwrap();
            build_is_left = out.report.join().unwrap().build_is_left;
            let (db, got) = (&out.snapshot, out.result);
            // Differential check on a sample of the stream, against the
            // interpreter on the very snapshot the engine answered from.
            if i % 10 == 0 {
                let want =
                    interpret_join(db.relation("R").unwrap(), db.relation("spec").unwrap(), q)
                        .unwrap();
                assert_eq!(
                    got.fingerprint(),
                    want.fingerprint(),
                    "engine join must match the interpreter"
                );
                checked += 1;
            }
        }
        println!(
            "batch {batch}: 40 joins in {:>7.3}s  ({checked} differentially checked, \
             last build side: {}, {} photo layouts, {} created so far)",
            t0.elapsed().as_secs_f64(),
            if build_is_left { "photo" } else { "spec" },
            engine.catalog().group_count(),
            engine.stats().layouts_created,
        );
    }

    // What did the adviser converge to on the photo side?
    let stats = engine.stats();
    println!(
        "\nadaptation: {} rounds, {} layouts created, {} recommendations",
        stats.adaptations, stats.recommendations, stats.layouts_created
    );
    for g in engine.catalog().groups().filter(|g| g.width() > 1) {
        let names: Vec<&str> = g
            .attrs()
            .iter()
            .map(|a| w.photo.schema.attr(*a).unwrap().name())
            .collect();
        println!("  materialized group: [{}]", names.join(","));
    }

    // A sample rollup over the join: object class x summed redshift.
    let rollup = w
        .queries
        .iter()
        .find(|q| q.select_clause().is_grouped())
        .unwrap();
    let out = engine.run(Request::join(rollup)).unwrap();
    let report = out.report.join().unwrap();
    println!(
        "\nsample rollup (greedy build side: {}, estimated selectivities \
         photo {:.2} / spec {:.2}):",
        if report.build_is_left {
            "photo"
        } else {
            "spec"
        },
        report.left_selectivity_estimate,
        report.right_selectivity_estimate,
    );
    println!("    type        sum(z)     count");
    for row in out.result.iter_rows() {
        // Grouped join output: i64 key lane, f64 sum lane, i64 count.
        println!(
            "{:>8}  {:>12.3}  {:>8}",
            row[0],
            f64::from_bits(row[1] as u64),
            row[2]
        );
    }
}
