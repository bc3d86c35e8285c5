//! Figure 9 — "Static vs dynamic adaptation window."
//!
//! 60 arithmetic-expression queries over a row-major relation; the first 15
//! focus on one 20-attribute set, the remaining 45 on a disjoint one. Both
//! engines start with a window of 30 queries; the *dynamic* variant detects
//! the shift after query 15, shrinks its window, and adapts early, while
//! the *static* variant has to wait out its fixed 30-query window.
//!
//! Expected shape: identical until the shift; the dynamic engine's
//! per-query times drop well before the static engine's; lower cumulative
//! time for the dynamic window.

#![allow(clippy::field_reassign_with_default)] // configs are tweaked from defaults on purpose

use h2o_adapt::WindowConfig;
use h2o_bench::{csv_header, fmt_s, time, Args};
use h2o_core::{EngineConfig, H2oEngine, Request};
use h2o_storage::{Relation, Schema};
use h2o_workload::sequence::fig9_sequence;
use h2o_workload::synth::gen_columns;

fn main() {
    let args = Args::parse(500_000, 150, 60);
    eprintln!(
        "fig09: {} tuples x {} attrs, 60 queries, shift at 15, window 30",
        args.tuples, args.attrs
    );
    let schema = Schema::with_width(args.attrs).into_shared();
    let columns = gen_columns(args.attrs, args.tuples, args.seed);
    // "data this time is organized in a row-major format"
    let make_engine = |window: WindowConfig| {
        let rel = Relation::row_major(schema.clone(), columns.clone()).unwrap();
        // Paper comparison: single-threaded, as in the prototype.
        let mut cfg = EngineConfig::single_threaded();
        cfg.window = window;
        H2oEngine::new(rel, cfg)
    };
    let static_engine = make_engine(WindowConfig::fixed(30));
    let dynamic_engine = make_engine(WindowConfig {
        initial: 30,
        min: 5,
        max: 60,
    });

    let workload = fig9_sequence(args.attrs, args.seed);

    csv_header(&[
        "query",
        "static_seconds",
        "dynamic_seconds",
        "static_created",
        "dynamic_created",
    ]);
    let (mut sum_s, mut sum_d) = (0.0, 0.0);
    for (i, tq) in workload.iter().enumerate() {
        let (rs, ts) = time(|| {
            static_engine
                .run(Request::query(&tq.query).hint(tq.selectivity))
                .unwrap()
                .result
        });
        let (rd, td) = time(|| {
            dynamic_engine
                .run(Request::query(&tq.query).hint(tq.selectivity))
                .unwrap()
                .result
        });
        assert_eq!(
            rs.fingerprint(),
            rd.fingerprint(),
            "engines disagree at {i}"
        );
        let sc = static_engine
            .last_report()
            .unwrap()
            .created_layout
            .is_some();
        let dc = dynamic_engine
            .last_report()
            .unwrap()
            .created_layout
            .is_some();
        println!("{i},{},{},{sc},{dc}", fmt_s(ts), fmt_s(td));
        sum_s += ts;
        sum_d += td;
    }
    println!("cumulative,static,{}", fmt_s(sum_s));
    println!("cumulative,dynamic,{}", fmt_s(sum_d));
    let (ss, ds) = (static_engine.stats(), dynamic_engine.stats());
    eprintln!(
        "static: {:.3}s ({} adaptations, {} layouts) | dynamic: {:.3}s ({} adaptations, {} layouts, {} shifts) | dynamic speedup {:.2}x",
        sum_s,
        ss.adaptations,
        ss.layouts_created,
        sum_d,
        ds.adaptations,
        ds.layouts_created,
        ds.shifts_detected,
        sum_s / sum_d,
    );
}
