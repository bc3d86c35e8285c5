//! The five workloads. Each `run_rep` sets one up from a seed, measures
//! one window, and reports what that repetition produced; `main` runs
//! several repetitions per process and reports their medians.

pub mod adapt;
pub mod join;
pub mod scan;
pub mod serve;

use crate::embedded::{
    adaptation_state, insert_probe, space_amp, stored_and_bare_bytes, Embedded, Window,
};
use crate::gen::mix;
pub use crate::trace::Tracer;
use h2o_core::{EngineStats, H2oEngine};
use h2o_exec::opcache::CacheStats;
use std::time::Duration;

/// One repetition: fresh data, fresh engine, one measured window.
pub struct Rep {
    /// Data generation + engine/server construction + verification +
    /// warm-up: everything before the measured window.
    pub setup_s: f64,
    /// The untraced window (client operations only).
    pub window: Window,
    /// The traced window, when the run traces.
    pub traced: Option<Window>,
    /// Insert-batch latencies: the open-loop writer's on `scan_ingest`
    /// (from each batch's due time), the post-window probe's elsewhere.
    pub insert_ms: Vec<f64>,
    pub insert_failed: u64,
    pub space_amp: f64,
    /// Counters over the untraced window that repeat exactly on
    /// single-client embedded workloads.
    pub counters: Vec<(&'static str, f64)>,
}

impl Rep {
    pub fn attempted(&self) -> u64 {
        self.window.ops + self.insert_ms.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.window.failed + self.insert_failed
    }
}

/// Engine counters at the start of a window, for differencing at its end.
pub struct CounterBase {
    pub stats: EngineStats,
    pub cache: CacheStats,
}

impl CounterBase {
    pub fn take(engine: &H2oEngine) -> CounterBase {
        CounterBase {
            stats: engine.stats(),
            cache: engine.opcache_stats(),
        }
    }

    pub fn counters(&self, engine: &H2oEngine) -> Vec<(&'static str, f64)> {
        let (s, c) = (engine.stats(), engine.opcache_stats());
        let b = &self.stats;
        let d = |now: u64, then: u64| (now - then) as f64;
        vec![
            ("adaptations", d(s.adaptations, b.adaptations)),
            ("shifts", d(s.shifts_detected, b.shifts_detected)),
            ("layouts_created", d(s.layouts_created, b.layouts_created)),
            ("layouts_evicted", d(s.layouts_evicted, b.layouts_evicted)),
            (
                "segments_skipped",
                d(s.segments_skipped, b.segments_skipped),
            ),
            (
                "bloom_rejects",
                d(s.probe_bloom_rejects, b.probe_bloom_rejects),
            ),
            ("opcache_hits", d(c.hits, self.cache.hits)),
            ("opcache_misses", d(c.misses, self.cache.misses)),
            ("total_bytes", stored_and_bare_bytes(engine).0 as f64),
        ]
    }
}

/// Measures a warmed-up steady embedded workload: the window must leave
/// adaptation where warm-up left it, or the workload was not steady.
fn steady_rep(
    emb: Embedded,
    setup_s: f64,
    dur: Duration,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Rep, String> {
    let before = CounterBase::take(&emb.engine);
    let quiescent = adaptation_state(&emb.engine);
    let window = emb.window(if tracer.is_some() { dur / 2 } else { dur }, true);
    let counters = before.counters(&emb.engine);
    if adaptation_state(&emb.engine) != quiescent {
        return Err("adaptation moved inside the measured window of a steady workload".into());
    }
    let traced = tracer.as_deref_mut().map(|t| t.window(&emb, dur / 2));
    let space_amp = space_amp(&emb.engine);
    let inserts = CounterBase::take(&emb.engine);
    let (insert_ms, insert_failed) = insert_probe(&emb.engine, mix(seed, 0x1265));
    if let Some(t) = tracer {
        t.storage_counts(&emb.engine, &inserts, &insert_ms);
    }
    Ok(Rep {
        setup_s,
        window,
        traced,
        insert_ms,
        insert_failed,
        space_amp,
        counters,
    })
}

/// Runs repetition `rep` of the named workload with that repetition's own
/// sub-seed of the run's seed.
pub fn run_rep(
    name: &str,
    seed: u64,
    rep: usize,
    dur: Duration,
    tracer: Option<&mut Tracer>,
) -> Result<Rep, String> {
    let seed = mix(seed, rep as u64);
    match name {
        "scan_steady" => scan::scan_steady(seed, dur, tracer),
        "scan_ingest" => scan::scan_ingest(seed, dur, tracer),
        "join_steady" => join::join_steady(seed, dur, tracer),
        "serve_small" => serve::serve_small(seed, dur, tracer),
        "adapt_shift" => adapt::adapt_shift(seed, rep, tracer),
        other => Err(format!("unknown workload {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedded::{Op, Shape};
    use h2o_expr::{join_to_json, Conjunction, Side};
    use h2o_storage::Schema;

    fn filter_shape(f: &Conjunction) -> String {
        let preds: Vec<_> = f.predicates().iter().map(|p| (p.attr, p.op)).collect();
        format!("{preds:?}")
    }

    /// A request with its constants (and the hint derived from them) left
    /// out: what must not depend on the seed.
    fn shape(op: &Op) -> String {
        match &op.shape {
            Shape::Query(q) => format!(
                "{} {:?} {:?} {:?} {}",
                op.kind,
                q.projections(),
                q.aggregates(),
                q.group_by(),
                filter_shape(q.filter())
            ),
            Shape::Join(q) => format!(
                "{} {:?} {:?} {:?} {:?} {} {}",
                op.kind,
                q.on(),
                q.projections(),
                q.aggregates(),
                q.group_by(),
                filter_shape(q.filter(Side::Left)),
                filter_shape(q.filter(Side::Right))
            ),
        }
    }

    fn full(op: &Op) -> String {
        match &op.shape {
            Shape::Query(q) => format!("{} {q:?} {:?}", op.kind, op.hint),
            // Not `Debug`: a join carries its schemas, whose name index is
            // a `HashMap` and prints in a different order every time.
            Shape::Join(q) => format!("{} {} {:?}", op.kind, join_to_json(q), op.hint),
        }
    }

    /// Same seed, byte-identical request stream; another seed, other
    /// constants in the same shapes.
    #[test]
    fn request_streams_depend_on_the_seed_through_constants_only() {
        type Stream<'a> = &'a dyn Fn(u64) -> Vec<Op>;
        let embedded: [(&str, Stream); 3] = [
            ("scan", &scan::stream),
            ("join", &join::stream),
            ("adapt", &|seed| adapt::stream(seed, 1)),
        ];
        for (name, stream) in embedded {
            let render = |seed, f: fn(&Op) -> String| -> Vec<String> {
                stream(seed).iter().map(f).collect()
            };
            assert_eq!(
                render(1, full),
                render(1, full),
                "{name}: not deterministic"
            );
            assert_ne!(render(1, full), render(2, full), "{name}: seed ignored");
            assert_eq!(
                render(1, shape),
                render(2, shape),
                "{name}: seed moved a shape"
            );
        }

        let schema = Schema::with_width(serve::ATTRS);
        let lines = |seed, client| -> Vec<(usize, String)> {
            serve::stream(seed, client, &schema)
                .into_iter()
                .map(|op| (op.kind, op.line))
                .collect()
        };
        assert_eq!(lines(1, 0), lines(1, 0));
        assert_ne!(lines(1, 0), lines(2, 0));
        assert_ne!(lines(1, 0), lines(1, 1), "clients share a stream");
        let kinds = |l: Vec<(usize, String)>| l.into_iter().map(|(k, _)| k).collect::<Vec<_>>();
        assert_eq!(kinds(lines(1, 0)), kinds(lines(2, 1)));
    }

    /// The repetitions of `adapt_shift` draw different class pools, and
    /// every phase of one repetition its own.
    #[test]
    fn adapt_shift_phases_shift() {
        let ops = adapt::stream(1, 0);
        assert_eq!(ops.len(), adapt::PHASES * adapt::QUERIES_PER_PHASE);
        let phase =
            |p: usize| -> Vec<String> { ops.iter().filter(|op| op.kind == p).map(shape).collect() };
        assert_ne!(phase(0), phase(1));
        let other: Vec<String> = adapt::stream(1, 1).iter().map(shape).collect();
        assert_ne!(ops.iter().map(shape).collect::<Vec<_>>(), other);
    }
}
