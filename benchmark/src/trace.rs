//! The traced run. End-to-end metrics are always measured with tracing
//! off; here every request is issued untraced once more (its span is the
//! end-to-end span, `call`) and then *replayed* step by step through the
//! layers' public functions against the snapshot the call used. Nothing
//! under `crates/` is instrumented: spans inside the engine are a later
//! change.
//!
//! Span tree of one request:
//!
//! ```text
//! request                     everything the harness did for it
//! ├─ call                     the untraced call: the end-to-end span
//! │  ├─ adapt.advise          EngineStats.advise_time spent inside it
//! │  └─ reorg.build           EngineStats.reorg_time spent inside it
//! ├─ replay
//! │  ├─ core.plan  exec.compile  exec.execute | exec.join      (embedded)
//! │  └─ wire.parse server.decode server.admit core.run … wire.encode
//! │     server.transport                                         (TCP)
//! └─ harness.serial_rerun     per-core scan rate, off the blocking path
//! ```
//!
//! A layer's time is the self time of its spans. What the layers do not
//! account for of `call` is reported, not hidden: on embedded workloads it
//! is `H2oEngine::run`'s own self time (`core.overhead_us`).

use crate::embedded::{Embedded, Op, Shape, Window};
use crate::gen::{fold_result, fold_word};
use crate::span::{self_times, Trace};
use crate::workloads::CounterBase;
use h2o_core::{H2oEngine, Outcome};
use h2o_cost::AccessPattern;
use h2o_exec::{
    execute_join_with_policy, execute_with_policy, execute_with_policy_stats, AccessPlan,
    CompileCostModel, CompiledOp, ExecPolicy, OperatorCache,
};
use h2o_expr::{check_join, typecheck, JoinQuery, Json, Query, Side};
use h2o_storage::DEFAULT_SEG_SHIFT;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub struct Tracer {
    pub trace: Trace,
    /// Kind name of each request, by request id.
    pub request_kinds: Vec<&'static str>,
    /// Counter deltas taken at the span boundaries, summed by name.
    pub counts: BTreeMap<&'static str, f64>,
    /// The harness's own operator cache: it sees the same (query shape,
    /// plan) sequence as the engine's, so it hits and misses alike.
    pub opcache: OperatorCache,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            trace: Trace::new(),
            request_kinds: Vec::new(),
            counts: BTreeMap::new(),
            opcache: OperatorCache::new(256, CompileCostModel::ZERO),
        }
    }

    pub fn count(&mut self, name: &'static str, delta: f64) {
        *self.counts.entry(name).or_insert(0.0) += delta;
    }

    fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn begin_request(&mut self, kind: &'static str) -> u64 {
        self.request_kinds.push(kind);
        self.request_kinds.len() as u64 - 1
    }

    /// Traced passes over an embedded stream until `dur` has elapsed.
    pub fn window(&mut self, emb: &Embedded, dur: Duration) -> Window {
        Window::measure(dur, emb.stream.len(), false, |lat| {
            self.pass(emb, lat, &mut |_, _| {})
        })
    }

    /// One traced cold run of `adapt_shift`'s sequence. Also counts, per
    /// phase, how many queries it took until the last layout of that
    /// phase was built.
    pub fn sequence(&mut self, emb: &Embedded) -> Window {
        let mut stable_at = vec![0u64; emb.kinds.len()];
        let mut seen = vec![0u64; emb.kinds.len()];
        let w = Window::single_pass(emb.stream.len(), |lat| {
            self.pass(emb, lat, &mut |kind, created| {
                seen[kind] += 1;
                if created {
                    stable_at[kind] = seen[kind];
                }
            })
        });
        let phases = stable_at.len() as f64;
        self.count(
            "adapt.queries_to_stable",
            stable_at.iter().sum::<u64>() as f64 / phases,
        );
        w
    }

    /// `after(kind, layout_created)` runs after each request.
    fn pass(
        &mut self,
        emb: &Embedded,
        lat_ms: &mut Vec<f64>,
        after: &mut dyn FnMut(usize, bool),
    ) -> (u64, u64) {
        let (mut fp, mut failed) = (0u64, 0u64);
        for op in &emb.stream {
            let (out, ms, created) = self.embedded_op(emb, op);
            lat_ms.push(ms);
            after(op.kind, created);
            match out {
                Some(out) => fp = fold_result(fold_word(fp, op.kind as u64), &out.result),
                None => failed += 1,
            }
        }
        (fp, failed)
    }

    /// Issues one embedded request untraced, then replays it. Returns the
    /// outcome, the call's latency and whether it built a layout.
    fn embedded_op(&mut self, emb: &Embedded, op: &Op) -> (Option<Outcome>, f64, bool) {
        let rid = self.begin_request(emb.kinds[op.kind]);
        let engine = &*emb.engine;
        let before = CounterBase::take(engine);
        let bytes_before = engine.snapshot().total_bytes();
        let start = self.trace.now_ns();
        let out = emb.run_op(op);
        let end = self.trace.now_ns();
        let after = CounterBase::take(engine);
        let ms = (end - start) as f64 / 1e6;

        let root = self.trace.push("request", rid, None, start, end);
        let call = self.trace.push("call", rid, Some(root), start, end);
        // Time the engine itself measured inside the call.
        let (b, a) = (&before.stats, &after.stats);
        let mut at = start;
        for (name, d) in [
            ("adapt.advise", a.advise_time - b.advise_time),
            ("reorg.build", a.reorg_time - b.reorg_time),
        ] {
            let ns = d.as_nanos() as u64;
            if ns > 0 {
                self.trace.push(name, rid, Some(call), at, at + ns);
                at += ns;
            }
        }
        let created = a.layouts_created > b.layouts_created;
        self.count("adapt.adaptations", (a.adaptations - b.adaptations) as f64);
        self.count(
            "adapt.shifts",
            (a.shifts_detected - b.shifts_detected) as f64,
        );
        self.count(
            "reorg.layouts_created",
            (a.layouts_created - b.layouts_created) as f64,
        );
        self.count(
            "reorg.layouts_evicted",
            (a.layouts_evicted - b.layouts_evicted) as f64,
        );
        self.count(
            "opcache.hits",
            (after.cache.hits - before.cache.hits) as f64,
        );
        self.count(
            "opcache.misses",
            (after.cache.misses - before.cache.misses) as f64,
        );

        let Ok(out) = out else {
            return (None, ms, created);
        };
        if created {
            let bytes_after = out.snapshot.primary().total_bytes();
            self.count(
                "reorg.bytes",
                bytes_after.saturating_sub(bytes_before) as f64,
            );
        }

        let replay_start = self.trace.now_ns();
        let replay = self
            .trace
            .push("replay", rid, Some(root), replay_start, replay_start);
        let rerun = match &op.shape {
            // The fused reorganisation operator answered this request while
            // building the layout: its time is `reorg.build`'s, and there
            // is no separate operator to replay.
            Shape::Query(q) if !created => {
                self.replay_query(engine, &emb.policy, q, op.hint, &out, rid, replay)
            }
            Shape::Query(_) => None,
            Shape::Join(q) => {
                self.replay_join(engine, &emb.policy, q, &out, rid, replay);
                None
            }
        };
        let replay_end = self.trace.now_ns();
        self.trace.spans[replay].end_ns = replay_end;

        // Per-core scan rate: the same operator once more, serially.
        if let Some(compiled) = rerun {
            let snap = out.snapshot.primary();
            let serial = Instant::now();
            let rerun_start = self.trace.now_ns();
            let res = execute_with_policy(snap, &compiled, &ExecPolicy::serial());
            let ns = serial.elapsed().as_nanos() as f64;
            self.trace.push(
                "harness.serial_rerun",
                rid,
                Some(root),
                rerun_start,
                rerun_start + ns as u64,
            );
            std::hint::black_box(res.ok());
            self.count("exec.serial_ns", ns);
            self.count("exec.rows", snap.rows() as f64);
        }
        self.trace.spans[root].end_ns = self.trace.now_ns();
        (Some(out), ms, created)
    }

    /// Replays a single-relation request: plan, compile-or-cache-hit,
    /// execute — against the snapshot and with the plan the call used.
    #[allow(clippy::too_many_arguments)]
    fn replay_query(
        &mut self,
        engine: &H2oEngine,
        policy: &ExecPolicy,
        q: &Query,
        hint: Option<f64>,
        out: &Outcome,
        rid: u64,
        parent: usize,
    ) -> Option<CompiledOp> {
        let snap = out.snapshot.primary();
        let selectivity = if q.filter().is_always_true() {
            1.0
        } else {
            hint.or_else(|| engine.observed_selectivity(q))
                .unwrap_or(0.5)
        };
        let pattern = AccessPattern::of(q, selectivity);
        // The plan-time type gate and the plan search, as `run` does them.
        let (checked, planned) = self.trace.time("core.plan", rid, parent, || {
            (typecheck::check(q, snap.schema()), engine.plan(&pattern))
        });
        std::hint::black_box(planned.ok());
        let checked = checked.ok()?;
        // Compile and execute under the plan the call really used.
        let report = engine.last_report()?;
        let plan = AccessPlan::new(report.layouts, report.strategy);
        let opcache = &self.opcache;
        let compiled = self
            .trace
            .time("exec.compile", rid, parent, || {
                opcache.get_or_compile_checked(snap, &plan, q, &checked)
            })
            .ok()?;
        let (result, stats) = self
            .trace
            .time("exec.execute", rid, parent, || {
                execute_with_policy_stats(snap, &compiled, policy)
            })
            .ok()?;
        if result.data() != out.result.data() {
            self.count("replay.mismatches", 1.0);
        }
        if !q.filter().is_always_true() {
            self.count("exec.segments_skipped", stats.segments_skipped as f64);
            self.count("exec.segments", (snap.rows() >> DEFAULT_SEG_SHIFT) as f64);
        }
        Some(compiled)
    }

    /// Replays a join request. `H2oEngine::plan` plans the primary
    /// relation only, so `core.plan` covers the fact side.
    fn replay_join(
        &mut self,
        engine: &H2oEngine,
        policy: &ExecPolicy,
        q: &JoinQuery,
        out: &Outcome,
        rid: u64,
        parent: usize,
    ) -> Option<()> {
        let report = engine.last_join_report()?;
        let left = out.snapshot.relation(q.left().name()).ok()?;
        let right = out.snapshot.relation(q.right().name()).ok()?;
        let pattern = AccessPattern::of_join_side(q, Side::Left, report.left_selectivity_estimate);
        let (checked, planned) = self.trace.time("core.plan", rid, parent, || {
            (check_join(q), engine.plan(&pattern))
        });
        std::hint::black_box(planned.ok());
        let checked = checked.ok()?;
        let lplan = AccessPlan::new(report.left_layouts, report.left_strategy);
        let rplan = AccessPlan::new(report.right_layouts, report.right_strategy);
        let opcache = &self.opcache;
        let compiled = self
            .trace
            .time("exec.compile", rid, parent, || {
                opcache.get_or_compile_join(
                    left,
                    right,
                    &lplan,
                    &rplan,
                    q,
                    &checked,
                    report.build_is_left,
                )
            })
            .ok()?;
        let (result, stats) = self
            .trace
            .time("exec.join", rid, parent, || {
                execute_join_with_policy(left, right, &compiled, policy)
            })
            .ok()?;
        if result.data() != out.result.data() {
            self.count("replay.mismatches", 1.0);
        }
        self.count("join.bloom_rejects", stats.probe_bloom_rejects as f64);
        self.count("join.probe_rows", stats.probe_rows as f64);
        Some(())
    }

    /// Storage-layer counters around a run of `H2oEngine::insert` calls:
    /// `base` was taken before the first, `busy_ms` is each call's time.
    pub fn storage_counts(&mut self, engine: &H2oEngine, base: &CounterBase, busy_ms: &[f64]) {
        let (s, b) = (engine.stats(), &base.stats);
        self.count("storage.batches", busy_ms.len() as f64);
        self.count("storage.busy_us", busy_ms.iter().sum::<f64>() * 1e3);
        self.count("storage.rows", (s.rows_appended - b.rows_appended) as f64);
        self.count(
            "storage.bytes_cloned",
            (s.bytes_cloned_on_write - b.bytes_cloned_on_write) as f64,
        );
        self.count(
            "storage.snapshots_published",
            (s.snapshots_published - b.snapshots_published) as f64,
        );
        self.count(
            "storage.segments_sealed",
            (s.segments_sealed - b.segments_sealed) as f64,
        );
        self.count(
            "storage.total_bytes",
            crate::embedded::stored_and_bare_bytes(engine).0 as f64,
        );
    }

    /// Self time per span name, and per (request kind, span name).
    pub fn summarize(&self) -> Summary {
        let mut s = Summary {
            requests: self.request_kinds.len() as u64,
            ..Summary::default()
        };
        let selfs = self_times(&self.trace.spans);
        for (span, self_ns) in self.trace.spans.iter().zip(selfs) {
            // `call` is the end-to-end span: its whole duration counts.
            let ns = if span.name == "call" {
                span.dur_ns()
            } else {
                self_ns
            };
            *s.by_name.entry(span.name).or_insert(0) += ns;
            let kind = self.request_kinds[span.request_id as usize];
            let e = s.by_kind.entry((kind, span.name)).or_insert((0, 0));
            e.0 += 1;
            e.1 += ns;
        }
        s
    }

    /// Every per-layer metric of `spec::PER_LAYER`, in that order.
    pub fn layer_metrics(&self, untraced: &Window, traced: &Window) -> Vec<(&'static str, f64)> {
        let s = self.summarize();
        let n = s.requests.max(1) as f64;
        let ns = |name: &str| s.by_name.get(name).copied().unwrap_or(0) as f64;
        let us = |name: &str| ns(name) / n / 1e3;
        let c = |name: &str| self.counted(name);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

        let e2e = ns("call");
        let exec = ns("exec.compile") + ns("exec.execute") + ns("exec.join");
        let (adapt, reorg) = (ns("adapt.advise"), ns("reorg.build"));
        // Over TCP the replayed `H2oEngine::run` is a span of its own and
        // contains the operator's execution; embedded, `call` is that run.
        let tcp = ns("core.run") > 0.0;
        let run = if tcp { ns("core.run") } else { e2e };
        let run_self = run - ns("core.plan") - exec - adapt - reorg;
        let core = if tcp { run - exec } else { ns("core.plan") };
        let wire = ns("wire.parse") + ns("wire.encode");
        let server = ns("server.decode") + ns("server.admit") + ns("server.transport");
        let accounted = wire + server + core + exec + adapt + reorg;
        let ops_per_s = |w: &Window| crate::stats::median(&w.pass_rates);

        vec![
            ("wire.parse_us", us("wire.parse")),
            ("wire.encode_us", us("wire.encode")),
            ("wire.resp_bytes", c("wire.resp_bytes") / n),
            ("server.decode_us", us("server.decode")),
            ("server.admit_wait_us", us("server.admit")),
            ("server.shed", c("server.shed")),
            ("server.transport_us", us("server.transport")),
            ("core.plan_us", us("core.plan")),
            ("core.overhead_us", run_self / n / 1e3),
            (
                "exec.opcache_hit_ratio",
                ratio(c("opcache.hits"), c("opcache.hits") + c("opcache.misses")),
            ),
            ("exec.compile_us", us("exec.compile")),
            ("exec.execute_us", us("exec.execute")),
            (
                "exec.ns_per_row",
                ratio(c("exec.serial_ns"), c("exec.rows")),
            ),
            (
                "exec.rows_per_s_core",
                ratio(c("exec.rows"), c("exec.serial_ns") / 1e9),
            ),
            (
                "exec.seg_skip_ratio",
                ratio(c("exec.segments_skipped"), c("exec.segments")),
            ),
            ("exec.join_us", us("exec.join")),
            (
                "exec.bloom_reject_ratio",
                ratio(c("join.bloom_rejects"), c("join.probe_rows")),
            ),
            ("adapt.advise_ms", adapt / 1e6),
            ("adapt.shifts", c("adapt.shifts")),
            ("adapt.adaptations", c("adapt.adaptations")),
            ("adapt.queries_to_stable", c("adapt.queries_to_stable")),
            ("reorg.build_ms", reorg / 1e6),
            ("reorg.mb_per_s", ratio(c("reorg.bytes") / 1e6, reorg / 1e9)),
            ("reorg.layouts_created", c("reorg.layouts_created")),
            ("reorg.layouts_evicted", c("reorg.layouts_evicted")),
            (
                "storage.append_us_per_batch",
                ratio(c("storage.busy_us"), c("storage.batches")),
            ),
            (
                "storage.bytes_cloned_per_row",
                ratio(c("storage.bytes_cloned"), c("storage.rows")),
            ),
            (
                "storage.snapshots_published",
                c("storage.snapshots_published"),
            ),
            ("storage.segments_sealed", c("storage.segments_sealed")),
            ("storage.total_bytes", c("storage.total_bytes")),
            ("share.wire", ratio(wire, e2e)),
            ("share.server", ratio(server, e2e)),
            ("share.core", ratio(core, e2e)),
            ("share.exec", ratio(exec, e2e)),
            ("share.adapt", ratio(adapt, e2e)),
            ("share.reorg", ratio(reorg, e2e)),
            ("share.unaccounted", ratio(e2e - accounted, e2e)),
            ("trace.e2e_us", e2e / n / 1e3),
            (
                "trace.overhead_ratio",
                ratio(ops_per_s(untraced), ops_per_s(traced)),
            ),
        ]
    }

    /// The trace file: every span, the counters, and per request kind the
    /// mean self time of each span name.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let s = self.summarize();
        let by_kind = s
            .by_kind
            .iter()
            .map(|((kind, span), (count, ns))| {
                Json::Obj(vec![
                    ("kind".into(), Json::Str((*kind).into())),
                    ("span".into(), Json::Str((*span).into())),
                    ("count".into(), Json::Int(*count as i64)),
                    (
                        "mean_us".into(),
                        Json::Num(*ns as f64 / *count as f64 / 1e3),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("seed".into(), Json::Int(seed as i64)),
            ("requests".into(), Json::Int(s.requests as i64)),
            (
                "request_kinds".into(),
                Json::Arr(
                    self.request_kinds
                        .iter()
                        .map(|k| Json::Str((*k).into()))
                        .collect(),
                ),
            ),
            (
                "counters".into(),
                Json::Obj(
                    self.counts
                        .iter()
                        .map(|(k, v)| ((*k).to_string(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("by_kind".into(), Json::Arr(by_kind)),
            (
                "spans".into(),
                Json::Arr(self.trace.spans.iter().map(|s| s.to_json()).collect()),
            ),
        ])
    }
}

#[derive(Default)]
pub struct Summary {
    pub requests: u64,
    pub by_name: BTreeMap<&'static str, u64>,
    /// (request kind, span name) → (spans, total self ns).
    pub by_kind: BTreeMap<(&'static str, &'static str), (u64, u64)>,
}
