//! `scan_steady` and `scan_ingest`: one 2M x 8 relation (128 MB, well past
//! the last-level cache) under a fixed rotation of scan shapes.

use super::{CounterBase, Rep, Tracer};
use crate::embedded::{insert_batch, space_amp, Embedded, Op, Shape};
use crate::gen::{clustered_column, jittered_threshold, mix, Rng};
use h2o_core::H2oEngine;
use h2o_expr::{Aggregate, Conjunction, Expr, Predicate, Query};
use h2o_storage::{AttrId, Relation, Schema};
use h2o_workload::{gen_columns, gen_key_column, threshold_for_selectivity};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub const ROWS: usize = 262_144;
pub const ATTRS: usize = 8;
const GROUPS: u64 = 8;

pub const KINDS: [&str; 6] = [
    "agg_1pct",
    "agg_10pct",
    "agg_full",
    "expr_1pct",
    "rollup_10pct",
    "rollup_full",
];

/// One rotation, chosen so that the percentiles this benchmark reports
/// fall inside one kind's latency distribution instead of on the gap
/// between two kinds, where they would flip from run to run: by cost, the
/// three `agg_1pct` are the cheapest 30%, the four `agg_10pct`/`expr_1pct`
/// (equally expensive) hold the median in their middle, and the one
/// `rollup_full` is the dearest 10%, so p95 is its median.
const ROTATION: [usize; 10] = [0, 1, 3, 2, 0, 4, 1, 0, 3, 5];
const ROTATIONS_PER_PASS: usize = 2;

fn col(a: u32) -> Expr {
    Expr::col(AttrId(a))
}

fn lt(a: u32, rng: &mut Rng, selectivity: f64) -> Conjunction {
    Conjunction::of([Predicate::lt(a, jittered_threshold(rng, selectivity))])
}

/// Attribute roles: a0 clustered (zone maps can prune on it), a1 the
/// filter column, a2..a5 measures, a6 the 8-value group key.
fn build_query(kind: usize, rng: &mut Rng) -> Query {
    match kind {
        0 => Query::aggregate(
            [Aggregate::sum(col(2)), Aggregate::max(col(3))],
            lt(1, rng, 0.01),
        ),
        1 => Query::aggregate(
            [Aggregate::sum(col(2)), Aggregate::min(col(3))],
            lt(1, rng, 0.10),
        ),
        2 => Query::aggregate(
            [Aggregate::sum(col(2)), Aggregate::max(col(4))],
            Conjunction::always(),
        ),
        // Half the segments fall to the zone map on a0, 2% of the rest
        // pass the filter on a5: 1% overall.
        3 => Query::project(
            [Expr::sum_of([AttrId(2), AttrId(3), AttrId(4)])],
            lt(0, rng, 0.5).and(Predicate::lt(5u32, threshold_for_selectivity(0.02))),
        ),
        4 => Query::grouped(
            [col(6)],
            [Aggregate::sum(col(2)), Aggregate::count()],
            lt(1, rng, 0.10),
        ),
        _ => Query::grouped(
            [col(6)],
            [Aggregate::sum(col(3)), Aggregate::count()],
            Conjunction::always(),
        ),
    }
    .expect("scan templates are well-formed")
}

/// The request stream of one pass: same shapes for every seed, constants
/// from the seed.
pub fn stream(seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(mix(seed, 0x5ca9));
    (0..ROTATIONS_PER_PASS)
        .flat_map(|_| ROTATION)
        .map(|kind| Op {
            kind,
            shape: Shape::Query(build_query(kind, &mut rng)),
            hint: None,
        })
        .collect()
}

fn relation(seed: u64) -> Relation {
    let mut columns = gen_columns(ATTRS, ROWS, mix(seed, 0xda7a));
    columns[0] = clustered_column(ROWS, &mut Rng::new(mix(seed, 0xc105)));
    columns[6] = gen_key_column(ROWS, GROUPS, mix(seed, 0x6e75));
    Relation::columnar(Schema::with_width(ATTRS).into_shared(), columns)
        .expect("generated columns match the schema")
}

fn set_up(seed: u64, threads: usize) -> Result<Embedded, String> {
    let emb = Embedded::new(relation(seed), threads, &KINDS, stream(seed));
    emb.verify()?;
    emb.warm_up()?;
    Ok(emb)
}

pub fn scan_steady(seed: u64, dur: Duration, tracer: Option<&mut Tracer>) -> Result<Rep, String> {
    let t0 = Instant::now();
    let emb = set_up(seed, 2)?;
    let setup_s = t0.elapsed().as_secs_f64();
    super::steady_rep(emb, setup_s, dur, seed, tracer)
}

/// The writer's schedule: one 32-row batch every 4 ms, 250 batches/s —
/// about a tenth more rows by the end of a repetition's window.
const BATCH_EVERY: Duration = Duration::from_millis(4);
/// A writer this late means the generator, not the store, was measured.
const MAX_LATENESS: Duration = Duration::from_secs(1);

struct WriterTally {
    /// Batch latency from the batch's due time.
    lat_ms: Vec<f64>,
    /// Time inside `H2oEngine::insert` alone.
    busy_ms: Vec<f64>,
    failed: u64,
    max_late: Duration,
}

/// Open-loop writer: batch `i` is due at `start + i * BATCH_EVERY` whether
/// or not the previous one has finished, and is timed from that instant.
fn writer(engine: &H2oEngine, seed: u64, stop: &AtomicBool) -> WriterTally {
    let mut rng = Rng::new(seed);
    let mut tally = WriterTally {
        lat_ms: Vec::new(),
        busy_ms: Vec::new(),
        failed: 0,
        max_late: Duration::ZERO,
    };
    let start = Instant::now();
    for i in 0u32.. {
        let due = start + BATCH_EVERY * i;
        // Sleep most of the gap, spin the last stretch: sleep alone
        // oversleeps by more than an insert takes.
        while let Some(left) = due.checked_duration_since(Instant::now()) {
            if stop.load(Ordering::Relaxed) {
                return tally;
            }
            if left > Duration::from_micros(300) {
                std::thread::sleep(left - Duration::from_micros(300));
            } else {
                std::hint::spin_loop();
            }
        }
        let batch = insert_batch(&mut rng, ATTRS);
        let t0 = Instant::now();
        tally.max_late = tally.max_late.max(t0 - due);
        tally.failed += u64::from(engine.insert(&batch).is_err());
        tally.busy_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tally.lat_ms.push(due.elapsed().as_secs_f64() * 1e3);
    }
    tally
}

pub fn scan_ingest(
    seed: u64,
    dur: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Result<Rep, String> {
    let t0 = Instant::now();
    let emb = set_up(seed, 1)?;
    let setup_s = t0.elapsed().as_secs_f64();

    let before = CounterBase::take(&emb.engine);
    let stop = AtomicBool::new(false);
    let (window, traced, tally) = std::thread::scope(|s| {
        let w = s.spawn(|| writer(&emb.engine, mix(seed, 0x1265), &stop));
        // The reader's results depend on how many batches have landed, so
        // its passes cannot be compared with each other.
        let window = emb.window(if tracer.is_some() { dur / 2 } else { dur }, false);
        let traced = tracer.as_deref_mut().map(|t| t.window(&emb, dur / 2));
        stop.store(true, Ordering::Relaxed);
        (window, traced, w.join().expect("writer thread panicked"))
    });
    if tally.max_late > MAX_LATENESS {
        return Err(format!(
            "writer ran {:?} late: the run measured the generator",
            tally.max_late
        ));
    }
    if let Some(t) = tracer {
        t.storage_counts(&emb.engine, &before, &tally.busy_ms);
    }
    // Concurrent appends must leave every layout answering correctly.
    emb.verify()?;
    Ok(Rep {
        setup_s,
        space_amp: space_amp(&emb.engine),
        counters: before.counters(&emb.engine),
        window,
        traced,
        insert_ms: tally.lat_ms,
        insert_failed: tally.failed,
    })
}
