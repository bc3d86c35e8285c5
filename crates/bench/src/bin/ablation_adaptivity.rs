//! Ablation study: which of H2O's moving parts buys what.
//!
//! Runs the Fig. 7 workload through four engine variants:
//!
//! * **full** — the complete engine (dynamic window, adviser, lazy
//!   reorganization, operator cache);
//! * **no-adaptation** — layouts frozen at the initial column-major state;
//!   only the cost-based cover choice remains;
//! * **static-window** — adaptation on, but the monitoring window never
//!   shrinks or grows (no shift reaction);
//! * **tiny-opcache** — adaptation on, but the operator cache holds a
//!   single entry, so nearly every query pays the generation latency.
//!
//! This quantifies the paper's three pillars separately: adaptive layouts,
//! adaptive windows, and operator caching.
//!
//! All four variants run in one process by default, and every variant's
//! answers must match the first's. `--variant NAME` runs one variant
//! alone: variants that share a process share its allocator and cache
//! state, so timings compare fairly only when each runs in its own
//! process, alternated (`--variant full`, then `--variant
//! no_adaptation`, ...).

#![allow(clippy::field_reassign_with_default)] // configs are tweaked from defaults on purpose

use h2o_adapt::WindowConfig;
use h2o_bench::{csv_header, fmt_s, time, Args};
use h2o_core::{EngineConfig, H2oEngine, Request};
use h2o_storage::{Relation, Schema};
use h2o_workload::sequence::fig7_sequence;
use h2o_workload::synth::gen_columns;

fn main() {
    let mut argv: Vec<String> = std::env::args().collect();
    let only = argv.iter().position(|a| a == "--variant").map(|i| {
        let name = argv.get(i + 1).cloned().expect("--variant needs a name");
        argv.drain(i..i + 2);
        name
    });
    let args = Args::parse_from(argv, 500_000, 150, 200);
    eprintln!(
        "ablation: {} tuples x {} attrs, {} queries",
        args.tuples, args.attrs, args.queries
    );
    let schema = Schema::with_width(args.attrs).into_shared();
    let columns = gen_columns(args.attrs, args.tuples, args.seed);
    let workload = fig7_sequence(args.attrs, args.queries, 6, 0.1, args.seed);

    let variants: Vec<(&str, EngineConfig)> = vec![
        ("full", EngineConfig::single_threaded()),
        ("no_adaptation", {
            let mut c = EngineConfig::single_threaded();
            c.adaptive = false;
            c
        }),
        ("static_window", {
            let mut c = EngineConfig::single_threaded();
            c.window = WindowConfig::fixed(20);
            c
        }),
        ("tiny_opcache", {
            let mut c = EngineConfig::single_threaded();
            c.opcache_capacity = 1;
            c
        }),
    ];

    let variants: Vec<(&str, EngineConfig)> = match &only {
        None => variants,
        Some(name) => {
            let one: Vec<_> = variants.into_iter().filter(|(n, _)| n == name).collect();
            assert!(!one.is_empty(), "unknown variant {name}");
            one
        }
    };

    csv_header(&[
        "variant",
        "total_seconds",
        "layouts_created",
        "adaptations",
        "opcache_misses",
    ]);
    let mut reference: Option<Vec<u64>> = None;
    for (name, cfg) in variants {
        let relation = Relation::columnar(schema.clone(), columns.clone()).unwrap();
        let engine = H2oEngine::new(relation, cfg);
        let mut total = 0.0;
        let mut prints = Vec::with_capacity(workload.len());
        for tq in &workload {
            let (r, t) = time(|| {
                engine
                    .run(Request::query(&tq.query).hint(tq.selectivity))
                    .unwrap()
                    .result
            });
            total += t;
            prints.push(r.fingerprint());
        }
        match &reference {
            None => reference = Some(prints),
            Some(want) => assert_eq!(&prints, want, "variant {name} diverged"),
        }
        let stats = engine.stats();
        println!(
            "{name},{},{},{},{}",
            fmt_s(total),
            stats.layouts_created,
            stats.adaptations,
            engine.opcache_stats().misses
        );
    }
}
