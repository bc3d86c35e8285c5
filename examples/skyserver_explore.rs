//! Exploratory science workload over the synthetic SkyServer table.
//!
//! The paper's Fig. 8 scenario in miniature: a wide astronomy table
//! ("PhotoObjAll", 64 attributes in semantic clusters) queried by an
//! astronomer whose interest drifts from astrometry to photometry to
//! object shapes. No tuning, no advisor run — H2O follows the drift.
//!
//! ```sh
//! cargo run --release --example skyserver_explore
//! ```

use h2o::prelude::*;
use h2o::workload::skyserver::skyserver_workload;
use std::time::Instant;

fn main() {
    let rows = 150_000;
    let (spec, columns, workload) = skyserver_workload(rows, 120, 11);
    println!(
        "PhotoObjAll (synthetic): {} attributes, {} clusters, {rows} rows, {} queries",
        spec.schema.len(),
        spec.clusters.len(),
        workload.len()
    );

    let relation = Relation::columnar(spec.schema.clone(), columns).unwrap();
    let engine = H2oEngine::new(relation, EngineConfig::default());

    let mut phase_time = 0.0f64;
    for (i, tq) in workload.iter().enumerate() {
        let t = Instant::now();
        let out = engine
            .run(Request::query(&tq.query).hint(tq.selectivity))
            .unwrap();
        phase_time += t.elapsed().as_secs_f64();

        if let Some(created) = out.report.query().and_then(|r| r.created_layout) {
            let snapshot = engine.catalog();
            let g = snapshot.group(created).unwrap();
            let names: Vec<&str> = g
                .attrs()
                .iter()
                .map(|&a| spec.schema.attr(a).unwrap().name())
                .collect();
            println!("  query {i:>3}: built group {created} over {names:?}");
        }
        if (i + 1) % 40 == 0 {
            println!(
                "phase ending at query {:>3}: {phase_time:.3}s, {} groups materialized",
                i + 1,
                engine.catalog().group_count() - spec.schema.len(),
            );
            phase_time = 0.0;
        }
    }

    let stats = engine.stats();
    println!(
        "\ndone: {} queries, {} adaptation rounds, {} shifts detected, {} layouts created",
        stats.queries, stats.adaptations, stats.shifts_detected, stats.layouts_created
    );
    println!(
        "storage footprint: {:.1} MB across {} layouts (base table {:.1} MB)",
        engine.catalog().total_bytes() as f64 / 1e6,
        engine.catalog().group_count(),
        (spec.schema.len() * rows * 8) as f64 / 1e6,
    );
}
