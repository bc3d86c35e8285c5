//! Multi-client throughput of the shared engine (beyond the paper: the
//! prototype is single-client, so this figure has no paper analogue).
//!
//! Sweeps reader-thread counts 1/2/4/8 over a mixed projection/aggregate
//! workload against one shared `H2oEngine` — with a writer thread appending
//! batches and the background reorganizer adapting the layouts — and
//! reports queries/sec per thread count plus the serial single-client
//! baseline (same workload, no writer, no reorganizer, `&self` engine
//! driven from one thread), as JSON for the benchmark trajectory.
//!
//! Every run cross-checks a sample of its results against the serial
//! `interpret` oracle on the snapshot each query ran against — a
//! throughput number for a wrong answer is worthless.
//!
//! Interpreting the numbers: scaling tracks the host's *physical* core
//! count (`host_parallelism` in the output). On a single-core container
//! all thread counts collapse to ~1×.

use h2o_bench::Args;
use h2o_core::{EngineConfig, H2oEngine, Request};
use h2o_expr::{interpret, Aggregate, Conjunction, Expr, Predicate, Query};
use h2o_storage::{AttrId, Relation, Schema};
use h2o_workload::synth::{gen_columns, threshold_for_selectivity, VALUE_MAX, VALUE_MIN};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH_ROWS: usize = 8;

fn mixed_query(rng: &mut SmallRng, attrs: usize) -> Query {
    let base = rng.gen_range(0..3u32) * 3 % attrs as u32;
    let width = rng.gen_range(1..=3u32).min(attrs as u32 - base);
    let select: Vec<AttrId> = (base..base + width).map(AttrId).collect();
    let where_attr = (base + width) % attrs as u32;
    let filter = Conjunction::of([Predicate::lt(
        where_attr,
        threshold_for_selectivity(rng.gen_range(0.0..1.0)),
    )]);
    if rng.gen_range(0..2u32) == 0 {
        Query::project([Expr::sum_of(select)], filter).unwrap()
    } else {
        Query::aggregate(
            [Aggregate::sum(Expr::sum_of(select)), Aggregate::count()],
            filter,
        )
        .unwrap()
    }
}

/// `background = false` gives the lazy query-path-adapting engine (the
/// pre-concurrency operating point, used for the serial baseline, which
/// has no reorganizer thread to pump `maintain()`); `true` gives the
/// background-reorg configuration the concurrent runs measure.
fn build_engine(rows: usize, attrs: usize, seed: u64, background: bool) -> Arc<H2oEngine> {
    let schema = Schema::with_width(attrs).into_shared();
    let columns = gen_columns(attrs, rows, seed);
    let mut cfg = if background {
        EngineConfig::background()
    } else {
        EngineConfig::default()
    };
    cfg.window.initial = 16;
    cfg.window.min = 4;
    Arc::new(H2oEngine::new(
        Relation::columnar(schema, columns).unwrap(),
        cfg,
    ))
}

/// Runs `total_queries` split across `threads` readers; returns
/// `(queries actually executed, seconds)` — the executed count is what
/// qps must be computed from when the split does not divide evenly.
/// Every 16th query is differentially checked against the oracle on its
/// own snapshot.
fn run_readers(
    engine: &Arc<H2oEngine>,
    threads: usize,
    total_queries: usize,
    seed: u64,
) -> (usize, f64) {
    let per_thread = (total_queries / threads).max(1);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let engine = Arc::clone(engine);
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64 + 1));
                let attrs = engine.snapshot().schema().len();
                for i in 0..per_thread {
                    let q = mixed_query(&mut rng, attrs);
                    let out = engine.run(Request::query(&q)).unwrap();
                    let (snap, got) = (out.snapshot.primary().clone(), out.result);
                    if i % 16 == 0 {
                        let want = interpret(&snap, &q).unwrap();
                        assert_eq!(
                            got.fingerprint(),
                            want.fingerprint(),
                            "thread {t} query {i} diverged from the oracle"
                        );
                    }
                }
            });
        }
    });
    (per_thread * threads, t0.elapsed().as_secs_f64())
}

fn main() {
    let args = Args::parse(200_000, 12, 2_000);
    let rows = args.tuples;
    let attrs = args.attrs.max(4);
    let total_queries = args.queries.max(64);

    eprintln!("fig16: building {rows} x {attrs} columnar relation ...");
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Serial single-client baseline: one thread, no writer, no
    // reorganizer, lazy query-path adaptation — the pre-concurrency
    // engine's operating point.
    let baseline_engine = build_engine(rows, attrs, args.seed, false);
    let (baseline_executed, baseline_secs) =
        run_readers(&baseline_engine, 1, total_queries, args.seed);
    let baseline_qps = baseline_executed as f64 / baseline_secs;
    eprintln!("fig16: serial baseline {baseline_secs:.3}s  {baseline_qps:.0} q/s");

    let mut entries = vec![format!(
        "{{\"mode\":\"serial-baseline\",\"readers\":1,\"executed\":{baseline_executed},\"seconds\":{baseline_secs:.6},\"qps\":{baseline_qps:.2},\"speedup\":1.0}}"
    )];

    for readers in [1usize, 2, 4, 8] {
        let engine = build_engine(rows, attrs, args.seed, true);
        let mut reorganizer = engine
            .spawn_reorganizer(Duration::from_millis(2))
            .expect("spawn reorganizer");

        // Writer churn for the whole measured interval.
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let seed = args.seed;
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ 0xB11D_F00D);
                let width = engine.snapshot().schema().len();
                while !stop.load(Ordering::Acquire) {
                    let batch: Vec<Vec<i64>> = (0..BATCH_ROWS)
                        .map(|_| {
                            (0..width)
                                .map(|_| rng.gen_range(VALUE_MIN..VALUE_MAX))
                                .collect()
                        })
                        .collect();
                    engine.insert(&batch).unwrap();
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };

        let (executed, secs) = run_readers(&engine, readers, total_queries, args.seed);
        stop.store(true, Ordering::Release);
        writer.join().unwrap();
        reorganizer.stop();

        let stats = engine.stats();
        let qps = executed as f64 / secs;
        let speedup = qps / baseline_qps;
        eprintln!(
            "fig16: readers={readers:<2} {secs:.3}s  {qps:.0} q/s  speedup {speedup:.2}x  \
             (appended {} rows, {} reorgs, {} snapshots)",
            stats.rows_appended, stats.reorgs_completed, stats.snapshots_published
        );
        entries.push(format!(
            "{{\"mode\":\"concurrent\",\"readers\":{readers},\"executed\":{executed},\"seconds\":{secs:.6},\"qps\":{qps:.2},\"speedup\":{speedup:.4},\"rows_appended\":{},\"reorgs_completed\":{},\"snapshots_published\":{}}}",
            stats.rows_appended, stats.reorgs_completed, stats.snapshots_published
        ));
    }

    println!(
        "{{\"bench\":\"fig16_concurrent_throughput\",\"rows\":{rows},\"attrs\":{attrs},\"queries\":{total_queries},\"host_parallelism\":{host},\"seed\":{},\"results\":[{}]}}",
        args.seed,
        entries.join(",")
    );
}
