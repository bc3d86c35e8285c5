//! Figure 8 — "H2O vs AutoPart on the SkyServer workload."
//!
//! AutoPart sees the whole 250-query workload up front, computes one static
//! vertical partitioning, pays its layout-creation cost once, and then the
//! (drifting) workload runs over the fixed fragments. H2O starts from plain
//! columns with no workload knowledge and adapts per query.
//!
//! Per the README's crate map (`h2o-workload`: "SkyServer-like") the SDSS
//! data/queries are substituted with a synthetic
//! PhotoObjAll (64 attributes, clustered skewed access, three-phase drift).
//!
//! Expected shape: H2O total (creation + execution) < AutoPart total —
//! "by being able to adapt to individual queries as opposed to the whole
//! workload we can optimize performance even more than an offline tool."

use h2o_bench::{csv_header, fmt_s, time, Args};
use h2o_core::{EngineConfig, H2oEngine, Request};
use h2o_cost::AccessPattern;
use h2o_partition::AutoPart;
use h2o_storage::Relation;
use h2o_workload::skyserver::skyserver_workload;

fn main() {
    let args = Args::parse(400_000, 0, 250);
    eprintln!(
        "fig08: synthetic PhotoObjAll, {} tuples, {} queries",
        args.tuples, args.queries
    );
    let (spec, columns, workload) = skyserver_workload(args.tuples, args.queries, args.seed);

    // ---------------- AutoPart (offline advisor) ----------------
    // Full workload knowledge: derive every access pattern up front.
    let patterns: Vec<AccessPattern> = workload
        .iter()
        .map(|tq| AccessPattern::of(&tq.query, tq.selectivity))
        .collect();
    let autopart = AutoPart;
    let (fragments, t_advise) =
        time(|| autopart.partition(&patterns, spec.schema.len(), args.tuples));
    eprintln!(
        "AutoPart: {} fragments (advisor ran {:.2}s)",
        fragments.len(),
        t_advise
    );

    // Layout creation: materialize the recommended fragmentation.
    let partition: Vec<Vec<h2o_storage::AttrId>> = fragments.iter().map(|f| f.to_vec()).collect();
    let (ap_relation, t_ap_create) =
        time(|| Relation::partitioned(spec.schema.clone(), columns.clone(), partition).unwrap());
    // Static engine over AutoPart's fragments: cost-based strategy choice,
    // adaptation off (the layout is fixed by the advisor).
    let mut ap_cfg = EngineConfig::non_adaptive();
    ap_cfg.parallelism = Some(1); // paper comparison: single-threaded
    let ap_engine = H2oEngine::new(ap_relation, ap_cfg);

    let mut t_ap_exec = 0.0;
    let mut ap_results = Vec::with_capacity(workload.len());
    for tq in &workload {
        let (r, t) = time(|| {
            ap_engine
                .run(Request::query(&tq.query).hint(tq.selectivity))
                .unwrap()
                .result
        });
        t_ap_exec += t;
        ap_results.push(r.fingerprint());
    }

    // ---------------- H2O (no workload knowledge) ----------------
    let h2o_relation = Relation::columnar(spec.schema.clone(), columns).unwrap();
    let h2o = H2oEngine::new(h2o_relation, EngineConfig::single_threaded());
    let mut t_h2o_total = 0.0;
    for (i, tq) in workload.iter().enumerate() {
        let (r, t) = time(|| {
            h2o.run(Request::query(&tq.query).hint(tq.selectivity))
                .unwrap()
                .result
        });
        t_h2o_total += t;
        assert_eq!(r.fingerprint(), ap_results[i], "engines disagree at {i}");
    }
    let stats = h2o.stats();
    let t_h2o_create = stats.reorg_time.as_secs_f64();
    let t_h2o_exec = t_h2o_total - t_h2o_create;

    csv_header(&[
        "system",
        "layout_creation_s",
        "query_execution_s",
        "total_s",
    ]);
    println!(
        "autopart,{},{},{}",
        fmt_s(t_ap_create),
        fmt_s(t_ap_exec),
        fmt_s(t_ap_create + t_ap_exec)
    );
    println!(
        "h2o,{},{},{}",
        fmt_s(t_h2o_create),
        fmt_s(t_h2o_exec),
        fmt_s(t_h2o_total)
    );
    eprintln!(
        "AutoPart total {:.3}s (create {:.3} + exec {:.3}) | H2O total {:.3}s (reorg {:.3} incl. triggering queries) | layouts created {} | H2O speedup {:.2}x",
        t_ap_create + t_ap_exec,
        t_ap_create,
        t_ap_exec,
        t_h2o_total,
        t_h2o_create,
        stats.layouts_created,
        (t_ap_create + t_ap_exec) / t_h2o_total,
    );
}
