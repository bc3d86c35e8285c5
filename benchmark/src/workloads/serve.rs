//! `serve_small`: the TCP front end over a cache-resident 16K x 8
//! relation (1 MB, at the engine's serial threshold, so no query forks
//! worker threads). The kernels run for microseconds, so wire parse/encode,
//! session handling, admission, planning and the operator-cache lookup are
//! the blocking path.

use super::{CounterBase, Rep, Tracer};
use crate::embedded::{adaptation_state, engine_config, insert_probe, space_amp, warm_up, Window};
use crate::gen::{fold_bytes, fold_word, jittered_threshold, mix, Rng};
use crate::stats::median;
use h2o_core::{EngineConfig, H2oEngine, Request};
use h2o_cost::AccessPattern;
use h2o_exec::{execute_with_policy_stats, AccessPlan, ExecPolicy};
use h2o_expr::{query_to_json, result_to_json, typecheck, Json};
use h2o_expr::{Aggregate, Conjunction, Expr, Predicate, Query};
use h2o_server::{protocol, Admission, Server, ServerConfig};
use h2o_storage::{AttrId, Relation, Schema};
use h2o_workload::{gen_columns, gen_key_column};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const ROWS: usize = 16_384;
pub const ATTRS: usize = 8;
pub const CLIENTS: usize = 2;
const MAX_INFLIGHT: usize = 8;
const MAX_QUEUED: usize = 16;
const REORG_POLL: Duration = Duration::from_millis(2);

pub const KINDS: [&str; 3] = ["exec_point", "adhoc_agg", "rollup"];

/// Ten requests: 70% prepared point lookups, 20% ad-hoc aggregates, 10%
/// rollups. The median falls among the lookups, p95 among the rollups.
const MIX: [usize; 10] = [0, 0, 1, 0, 0, 2, 0, 1, 0, 0];
const MIXES_PER_PASS: usize = 50;
const STATEMENT: &str = "pt";

/// One request of a client's stream, rendered once: the line to send, the
/// prefix a successful response must start with, and the decoded query the
/// traced run replays in process.
pub struct ServeOp {
    pub kind: usize,
    pub line: String,
    ok_prefix: String,
    query: Query,
}

fn col(a: u32) -> Expr {
    Expr::col(AttrId(a))
}

fn point_query(threshold: i64) -> Query {
    Query::project(
        [col(1), col(2)],
        Conjunction::of([Predicate::lt(3u32, threshold)]),
    )
    .expect("point template is well-formed")
}

fn field(k: &str, v: Json) -> (String, Json) {
    (k.to_string(), v)
}

fn render(fields: Vec<(String, Json)>) -> String {
    Json::Obj(fields).to_string()
}

/// A client's request stream: same shapes for every seed and client,
/// constants from the seed.
pub fn stream(seed: u64, client: usize, schema: &Schema) -> Vec<ServeOp> {
    let mut rng = Rng::new(mix(seed, 0x5e7e + client as u64));
    (0..MIXES_PER_PASS)
        .flat_map(|_| MIX)
        .enumerate()
        .map(|(i, kind)| {
            let id = Json::Int(i as i64 + 1);
            let (query, line) = match kind {
                0 => {
                    let t = jittered_threshold(&mut rng, 0.001);
                    let line = render(vec![
                        field("id", id.clone()),
                        field("kind", Json::Str("exec".into())),
                        field("name", Json::Str(STATEMENT.into())),
                        field("params", Json::Arr(vec![Json::Int(t)])),
                    ]);
                    (point_query(t), line)
                }
                other => {
                    let filter =
                        Conjunction::of([Predicate::lt(4u32, jittered_threshold(&mut rng, 0.05))]);
                    let q = if other == 1 {
                        Query::aggregate([Aggregate::sum(col(1)), Aggregate::max(col(2))], filter)
                    } else {
                        Query::grouped(
                            [col(7)],
                            [Aggregate::sum(col(1)), Aggregate::count()],
                            filter,
                        )
                    }
                    .expect("ad-hoc templates are well-formed");
                    let line = render(vec![
                        field("id", id.clone()),
                        field("kind", Json::Str("query".into())),
                        field("q", query_to_json(&q, schema)),
                    ]);
                    (q, line)
                }
            };
            ServeOp {
                kind,
                line,
                ok_prefix: format!("{{\"id\":{id},\"ok\":"),
                query,
            }
        })
        .collect()
}

pub fn relation(seed: u64) -> Relation {
    let mut columns = gen_columns(ATTRS, ROWS, mix(seed, 0xda7a));
    columns[7] = gen_key_column(ROWS, 8, mix(seed, 0x6e75));
    Relation::columnar(Schema::with_width(ATTRS).into_shared(), columns)
        .expect("generated columns match the schema")
}

fn serving_config() -> EngineConfig {
    EngineConfig {
        background_reorg: true,
        ..engine_config(2)
    }
}

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    resp: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        writer
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client {
            reader,
            writer,
            resp: String::new(),
        })
    }

    /// Sends one line and reads the one-line response.
    fn roundtrip(&mut self, line: &str) -> Result<&str, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        self.resp.clear();
        match self.reader.read_line(&mut self.resp) {
            Ok(n) if n > 0 => Ok(self.resp.trim_end()),
            Ok(_) => Err("server closed the connection".into()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Prepares the point-lookup statement, then sends the first request
    /// of every kind with `"check":true`: the server re-runs it through
    /// the interpreter on the same snapshot.
    fn prepare_and_verify(&mut self, schema: &Schema, ops: &[ServeOp]) -> Result<(), String> {
        let prepare = render(vec![
            field("id", Json::Int(0)),
            field("kind", Json::Str("prepare".into())),
            field("name", Json::Str(STATEMENT.into())),
            field("q", query_to_json(&point_query(0), schema)),
        ]);
        let resp = self.roundtrip(&prepare)?;
        if !resp.starts_with("{\"id\":0,\"ok\":") {
            return Err(format!("prepare failed: {resp}"));
        }
        for (k, name) in KINDS.iter().enumerate() {
            let op = ops
                .iter()
                .find(|op| op.kind == k)
                .ok_or_else(|| format!("kind {name} never appears in the stream"))?;
            let mut checked = Json::parse(&op.line).map_err(|e| e.to_string())?;
            if let Json::Obj(fields) = &mut checked {
                fields.push(field("check", Json::Bool(true)));
            }
            let resp =
                Json::parse(self.roundtrip(&checked.to_string())?).map_err(|e| e.to_string())?;
            if resp.get("match") != &Json::Bool(true) {
                return Err(format!("{name}: server check did not match: {resp}"));
            }
        }
        Ok(())
    }

    /// One pass over the stream.
    fn pass(&mut self, ops: &[ServeOp], lat_ms: &mut Vec<f64>) -> (u64, u64) {
        let (mut fp, mut failed) = (0u64, 0u64);
        for op in ops {
            let t0 = Instant::now();
            let resp = self.roundtrip(&op.line);
            lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match resp {
                Ok(r) if r.starts_with(&op.ok_prefix) => fp = fold_bytes(fp, r.as_bytes()),
                _ => failed += 1,
            }
        }
        (fp, failed)
    }
}

/// Everything the in-process replay of a TCP request needs.
struct ReplayCtx<'a> {
    engine: &'a H2oEngine,
    schema: &'a Schema,
    admission: Arc<Admission>,
    policy: ExecPolicy,
}

/// One traced request: the untraced round trip (the end-to-end span), a
/// `ping` round trip for the transport alone, then the request's path
/// through the layers replayed in process.
fn traced_op(t: &mut Tracer, client: &mut Client, op: &ServeOp, ctx: &ReplayCtx) -> (f64, bool) {
    let rid = t.begin_request(KINDS[op.kind]);
    let start = t.trace.now_ns();
    let resp = client.roundtrip(&op.line).map(str::to_string);
    let end = t.trace.now_ns();
    let root = t.trace.push("request", rid, None, start, end);
    t.trace.push("call", rid, Some(root), start, end);
    let ms = (end - start) as f64 / 1e6;
    let ok = resp.as_ref().is_ok_and(|r| r.starts_with(&op.ok_prefix));

    let replay_start = t.trace.now_ns();
    let replay = t
        .trace
        .push("replay", rid, Some(root), replay_start, replay_start);
    // Socket write, wake-up of the session thread, socket read and back:
    // a request that does no work.
    let ping = t.trace.time("server.transport", rid, replay, || {
        client.roundtrip("{\"kind\":\"ping\"}").map(|_| ())
    });
    if ping.is_ok() && ok {
        replay_layers(t, op, ctx, rid, replay);
    }
    let now = t.trace.now_ns();
    t.trace.spans[replay].end_ns = now;
    t.trace.spans[root].end_ns = now;
    (ms, ok)
}

/// What `h2o-server` does with one request line, through its public
/// functions. `exec` requests replay with the rebound query the harness
/// generated the parameters from.
fn replay_layers(t: &mut Tracer, op: &ServeOp, ctx: &ReplayCtx, rid: u64, parent: usize) {
    let Ok(doc) = t
        .trace
        .time("wire.parse", rid, parent, || Json::parse(&op.line))
    else {
        return;
    };
    let decoded = t.trace.time("server.decode", rid, parent, || {
        protocol::request_from_json(&doc, ctx.schema, &|_| None)
    });
    std::hint::black_box(decoded.ok());
    let permit = t
        .trace
        .time("server.admit", rid, parent, || ctx.admission.admit());

    let q = &op.query;
    let Ok(out) = t.trace.time("core.run", rid, parent, || {
        ctx.engine.run(Request::query(q))
    }) else {
        return;
    };
    drop(permit);

    // The pieces of that run, to split it between core and exec.
    let snap = out.snapshot.primary();
    let selectivity = ctx.engine.observed_selectivity(q).unwrap_or(0.5);
    let pattern = AccessPattern::of(q, selectivity);
    let (checked, planned) = t.trace.time("core.plan", rid, parent, || {
        (
            typecheck::check(q, snap.schema()),
            ctx.engine.plan(&pattern),
        )
    });
    std::hint::black_box(planned.ok());
    if let (Ok(checked), Some(report)) = (checked, ctx.engine.last_report()) {
        let plan = AccessPlan::new(report.layouts, report.strategy);
        let opcache = &t.opcache;
        let compiled = t.trace.time("exec.compile", rid, parent, || {
            opcache.get_or_compile_checked(snap, &plan, q, &checked)
        });
        if let Ok(compiled) = compiled {
            let executed = t.trace.time("exec.execute", rid, parent, || {
                execute_with_policy_stats(snap, &compiled, &ctx.policy)
            });
            std::hint::black_box(executed.ok());
        }
    }

    let line = t.trace.time("wire.encode", rid, parent, || {
        protocol::ok_line(doc.get("id"), result_to_json(&out.result), None)
    });
    t.count("wire.resp_bytes", line.len() as f64);
}

pub fn serve_small(
    seed: u64,
    dur: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Result<Rep, String> {
    let t0 = Instant::now();
    let config = serving_config();
    let engine = Arc::new(H2oEngine::new(relation(seed), config));
    let schema = engine.snapshot().schema().clone();
    let mut server = Server::start(
        engine.clone(),
        ServerConfig {
            max_inflight: MAX_INFLIGHT,
            max_queued: MAX_QUEUED,
            reorg_poll: Some(REORG_POLL),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("start server: {e}"))?;

    // A traced run drives one client: with two, one client's in-process
    // replay would contend with the other's requests and inflate the very
    // spans it attributes. Its untraced half uses one client as well, so
    // the overhead ratio compares like with like.
    let clients = if tracer.is_some() {
        1
    } else {
        CLIENTS.min(crate::env::nproc()).max(1)
    };
    let streams: Vec<Vec<ServeOp>> = (0..clients).map(|c| stream(seed, c, &schema)).collect();
    let mut conns = Vec::new();
    for ops in &streams {
        let mut c = Client::connect(server.addr())?;
        c.prepare_and_verify(&schema, ops)?;
        conns.push(c);
    }

    // Warm-up: passes until the background reorganizer has nothing left
    // to build and every operator is cached.
    warm_up(&engine, || {
        conns
            .iter_mut()
            .zip(&streams)
            .map(|(c, ops)| c.pass(ops, &mut Vec::new()).1)
            .sum()
    })?;
    let setup_s = t0.elapsed().as_secs_f64();

    // Closed loop, one thread per client, whole passes until time is up.
    let before = CounterBase::take(&engine);
    let quiescent = adaptation_state(&engine);
    let shed_before = server.stats().shed;
    let window_dur = if tracer.is_some() { dur / 2 } else { dur };
    let started = Instant::now();
    let parts: Vec<Window> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&streams)
            .map(|(c, ops)| {
                s.spawn(move || {
                    Window::measure(window_dur, ops.len(), true, |lat| c.pass(ops, lat))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window = merge(parts, started.elapsed().as_secs_f64());
    let mut counters = before.counters(&engine);
    counters.push(("shed", (server.stats().shed - shed_before) as f64));
    if adaptation_state(&engine) != quiescent {
        return Err("adaptation moved inside the measured window of a steady workload".into());
    }

    let traced = tracer.as_deref_mut().map(|t| {
        let ctx = ReplayCtx {
            engine: &engine,
            schema: &schema,
            admission: Admission::new(MAX_INFLIGHT, MAX_QUEUED),
            policy: config.exec_policy(),
        };
        let shed_before = server.stats().shed;
        let base = CounterBase::take(&engine);
        let (client, ops) = (&mut conns[0], &streams[0]);
        let w = Window::measure(dur / 2, ops.len(), false, |lat| {
            let mut failed = 0;
            for op in ops {
                let (ms, ok) = traced_op(t, client, op, &ctx);
                lat.push(ms);
                failed += u64::from(!ok);
            }
            (0, failed)
        });
        t.count("server.shed", (server.stats().shed - shed_before) as f64);
        let now = CounterBase::take(&engine);
        t.count("opcache.hits", (now.cache.hits - base.cache.hits) as f64);
        t.count(
            "opcache.misses",
            (now.cache.misses - base.cache.misses) as f64,
        );
        w
    });

    drop(conns);
    server.shutdown();
    let space_amp = space_amp(&engine);
    let inserts = CounterBase::take(&engine);
    let (insert_ms, insert_failed) = insert_probe(&engine, mix(seed, 0x1265));
    if let Some(t) = tracer {
        t.storage_counts(&engine, &inserts, &insert_ms);
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

/// Merges the clients' windows: operations and failures add up, latency
/// samples pool, the fingerprints chain in client order, and the system's
/// throughput is the sum of each client's median pass rate.
fn merge(parts: Vec<Window>, wall_s: f64) -> Window {
    let mut w = Window {
        wall_s,
        pass_rates: vec![parts.iter().map(|p| median(&p.pass_rates)).sum()],
        ..Window::default()
    };
    for p in parts {
        w.ops += p.ops;
        w.failed += p.failed;
        w.lat_ms.extend(p.lat_ms);
        w.fingerprint = fold_word(w.fingerprint, p.fingerprint);
    }
    w
}
