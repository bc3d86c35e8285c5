//! The TCP serving loop: thread-per-connection sessions over a
//! blocking accept loop (no async runtime — the build environment is
//! offline and the engine itself is already morsel-parallel, so worker
//! threads blocked on engine calls are exactly the right shape).
//!
//! Lifecycle:
//!
//! * [`Server::start`] binds, optionally spawns the engine's supervised
//!   reorganizer, and returns a [`ServerHandle`].
//! * The accept thread polls a non-blocking listener and spawns one
//!   session thread per connection; sessions read line-delimited JSON
//!   requests with a short read timeout so they notice shutdown
//!   promptly while half-received lines survive across polls.
//! * Every query passes the [`Admission`] gate before touching the
//!   engine; shed requests get a typed `"overloaded"` error without
//!   executing anything.
//! * [`ServerHandle::shutdown`] is graceful: it stops accepting, lets
//!   every in-flight request finish and flush its response, joins all
//!   session threads, then stops the reorganizer.

use crate::admission::{Admission, Permit};
use crate::error::ServerError;
use crate::protocol::{self, Statement, WireRequest};
use h2o_core::{ExecOptions, H2oEngine, Outcome, ReorganizerHandle};
use h2o_expr::{
    interpret, interpret_join, result_to_json, Conjunction, Datum, Json, Predicate, Query,
    WireError,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How long a session blocks in `read` before re-checking the stop
/// flag. Short enough that shutdown drains promptly; partial request
/// lines accumulated before a timeout are preserved across polls.
const READ_POLL: Duration = Duration::from_millis(25);

/// Longest request line (newline excluded) a session buffers. A client
/// that sends more without a newline gets a typed error and is
/// disconnected, so a session's memory is bounded whatever it is sent.
const MAX_LINE_BYTES: usize = 1 << 20;

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Server tuning knobs: four settable values. `Default` serves on an
/// ephemeral localhost port with admission sized to the machine's
/// parallelism. Per-query limits are the client's (`"opts"`); the server
/// adds none.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` by default — pick a free port).
    pub addr: String,
    /// Queries allowed to execute concurrently.
    pub max_inflight: usize,
    /// Requests allowed to wait for a slot before shedding.
    pub max_queued: usize,
    /// When set, the server owns a supervised background reorganizer
    /// polling at this interval, stopped on shutdown.
    pub reorg_poll: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: thread::available_parallelism().map_or(4, |p| p.get()),
            max_queued: 16,
            reorg_poll: None,
        }
    }
}

/// Monotonic serving counters (all `Relaxed`; read via
/// [`ServerHandle::stats`]).
#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    checked: AtomicU64,
    mismatches: AtomicU64,
}

/// A point-in-time copy of the serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Request lines received (including ones that failed to decode).
    pub requests: u64,
    /// `"ok"` responses sent.
    pub ok: u64,
    /// `"err"` responses sent (all kinds, including shed).
    pub errors: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Responses verified against the interpreter (`"check":true`).
    pub checked: u64,
    /// Checked responses whose fingerprint disagreed with the
    /// interpreter (always 0 unless the engine is miscompiled).
    pub mismatches: u64,
}

/// Everything a session thread needs, shared across the server.
struct Shared {
    engine: Arc<H2oEngine>,
    admission: Arc<Admission>,
    counters: Counters,
    stop: AtomicBool,
}

/// The serving front end. See [`Server::start`].
pub struct Server;

impl Server {
    /// Binds `config.addr`, spawns the accept loop (and the background
    /// reorganizer when configured), and returns the controlling
    /// handle. The engine keeps serving embedded callers concurrently —
    /// the server is just another client of [`H2oEngine::run`].
    pub fn start(engine: Arc<H2oEngine>, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let reorg = match config.reorg_poll {
            Some(poll) => Some(
                engine
                    .spawn_reorganizer(poll)
                    .map_err(|e| std::io::Error::other(e.to_string()))?,
            ),
            None => None,
        };
        let shared = Arc::new(Shared {
            engine,
            admission: Admission::new(config.max_inflight, config.max_queued),
            counters: Counters::default(),
            stop: AtomicBool::new(false),
        });
        let accept_shared = shared.clone();
        let accept = thread::Builder::new()
            .name("h2o-server-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            reorg,
        })
    }
}

/// Controls a running server: address, stats, the admission test
/// lever, and graceful shutdown (also performed on drop).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    reorg: Option<ReorganizerHandle>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        ServerStats {
            connections: c.connections.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            ok: c.ok.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            checked: c.checked.load(Ordering::Relaxed),
            mismatches: c.mismatches.load(Ordering::Relaxed),
        }
    }

    /// Occupies `n` execution slots directly (deterministic lever for
    /// shedding tests: hold every slot with `max_queued == 0` and the
    /// next request sheds). `n` must not exceed the free slot count or
    /// this call blocks like any other admission.
    pub fn hold_slots(&self, n: usize) -> Result<Vec<Permit>, ServerError> {
        (0..n).map(|_| self.shared.admission.admit()).collect()
    }

    /// Graceful shutdown: stop accepting, drain every in-flight request
    /// (sessions finish processing and flush their response before
    /// exiting), join all session threads, then stop the supervised
    /// reorganizer. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(mut reorg) = self.reorg.take() {
            reorg.stop();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                let session_shared = shared.clone();
                if let Ok(handle) = thread::Builder::new()
                    .name("h2o-server-session".to_string())
                    .spawn(move || session_loop(stream, session_shared))
                {
                    sessions.push(handle);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => break,
        }
        // Reap sessions that already hung up so a long-lived server
        // does not accumulate join handles.
        sessions.retain(|h| !h.is_finished());
    }
    for handle in sessions {
        let _ = handle.join();
    }
}

/// One prepared statement: the decoded query, rebound per `"exec"`.
struct Prepared {
    query: Query,
}

fn session_loop(stream: TcpStream, shared: Arc<Shared>) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = stream;
    let mut prepared: HashMap<String, Prepared> = HashMap::new();
    let mut line: Vec<u8> = Vec::new();
    loop {
        // Between requests, honor shutdown; a request being processed
        // below always completes and flushes first (the drain
        // guarantee).
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) => {
                if line.iter().all(u8::is_ascii_whitespace) {
                    line.clear();
                    continue;
                }
                shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                // The cap was reached before a newline: answer, then hang
                // up rather than skip an unbounded remainder.
                let too_long = line.len() > MAX_LINE_BYTES && !line.ends_with(b"\n");
                let mut response = if too_long {
                    reject(
                        &shared,
                        WireError::Syntax {
                            offset: MAX_LINE_BYTES,
                            msg: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                        },
                    )
                } else {
                    handle_line(&line, &shared, &mut prepared)
                };
                line.clear();
                // One write per response: on a no-delay socket a separate
                // newline write is a second segment and a second client
                // wake-up per request.
                response.push('\n');
                if writer.write_all(response.as_bytes()).is_err()
                    || writer.flush().is_err()
                    || too_long
                {
                    break;
                }
            }
            // A timeout leaves any half-received line accumulated in
            // `line`; the next poll keeps appending to it.
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// The response to a line that never became a request.
fn reject(shared: &Shared, e: WireError) -> String {
    shared.counters.errors.fetch_add(1, Ordering::Relaxed);
    protocol::err_line(&Json::Null, &ServerError::Wire(e))
}

/// Decodes, executes and renders one request line. Infallible: every
/// failure becomes a typed `"err"` response.
fn handle_line(line: &[u8], shared: &Shared, prepared: &mut HashMap<String, Prepared>) -> String {
    let parsed = std::str::from_utf8(line)
        .map_err(|e| WireError::Syntax {
            offset: e.valid_up_to(),
            msg: "invalid utf-8".to_string(),
        })
        .and_then(|text| Json::parse(text.trim()));
    let doc = match parsed {
        Ok(doc) => doc,
        Err(e) => return reject(shared, e),
    };
    let id = doc.get("id").clone();
    match handle_request(&doc, shared, prepared) {
        Ok(response) => {
            shared.counters.ok.fetch_add(1, Ordering::Relaxed);
            response
        }
        Err(e) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            if matches!(e, ServerError::Overloaded { .. }) {
                shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            }
            protocol::err_line(&id, &e)
        }
    }
}

fn handle_request(
    doc: &Json,
    shared: &Shared,
    prepared: &mut HashMap<String, Prepared>,
) -> Result<String, ServerError> {
    let id = doc.get("id");
    let db = shared.engine.db_snapshot();
    let primary_schema = db.primary().schema().clone();
    let resolve = |name: &str| {
        db.relation(name)
            .ok()
            .map(|catalog| catalog.schema().clone())
    };
    let request = protocol::request_from_json(doc, &primary_schema, &resolve)?;
    match request {
        WireRequest::Ping => Ok(protocol::ok_line(
            id,
            Json::Obj(vec![("pong".to_string(), Json::Bool(true))]),
            None,
        )),
        WireRequest::Stats => Ok(protocol::ok_line(id, stats_body(shared), None)),
        WireRequest::Prepare { name, q } => {
            let params = q.filter().predicates().len() as i64;
            let body = Json::Obj(vec![
                ("prepared".to_string(), Json::Str(name.clone())),
                ("params".to_string(), Json::Int(params)),
            ]);
            prepared.insert(name, Prepared { query: q });
            Ok(protocol::ok_line(id, body, None))
        }
        WireRequest::Run { stmt, opts, check } => run(id, &stmt, opts, check, shared),
        WireRequest::Exec {
            name,
            params,
            opts,
            check,
        } => {
            let statement = prepared
                .get(&name)
                .ok_or(ServerError::UnknownStatement(name))?;
            let bound = Statement::Query(rebind(&statement.query, &params)?);
            run(id, &bound, opts, check, shared)
        }
    }
}

/// Renders the `"stats"` response: the engine's lifetime counters (the
/// join fast path's pruning/filtering among them) plus the serving
/// counters. Like `"ping"`, answered without an admission slot — stats
/// must stay observable while the engine is saturated.
fn stats_body(shared: &Shared) -> Json {
    let e = shared.engine.stats();
    let c = &shared.counters;
    let int = |v: u64| Json::Int(v as i64);
    Json::Obj(vec![
        (
            "engine".to_string(),
            Json::Obj(vec![
                ("queries".to_string(), int(e.queries)),
                ("adaptations".to_string(), int(e.adaptations)),
                ("layouts_created".to_string(), int(e.layouts_created)),
                ("rows_appended".to_string(), int(e.rows_appended)),
                ("segments_skipped".to_string(), int(e.segments_skipped)),
                (
                    "probe_bloom_rejects".to_string(),
                    int(e.probe_bloom_rejects),
                ),
                ("shifts_detected".to_string(), int(e.shifts_detected)),
                ("queries_panicked".to_string(), int(e.queries_panicked)),
            ]),
        ),
        (
            "server".to_string(),
            Json::Obj(vec![
                (
                    "connections".to_string(),
                    int(c.connections.load(Ordering::Relaxed)),
                ),
                (
                    "requests".to_string(),
                    int(c.requests.load(Ordering::Relaxed)),
                ),
                ("ok".to_string(), int(c.ok.load(Ordering::Relaxed))),
                ("errors".to_string(), int(c.errors.load(Ordering::Relaxed))),
                ("shed".to_string(), int(c.shed.load(Ordering::Relaxed))),
                (
                    "checked".to_string(),
                    int(c.checked.load(Ordering::Relaxed)),
                ),
                (
                    "mismatches".to_string(),
                    int(c.mismatches.load(Ordering::Relaxed)),
                ),
            ]),
        ),
    ])
}

/// Rebinds a prepared statement's filter constants: `params` supplies
/// one value per predicate, positionally, in preparation order. The
/// rebound query keeps the prepared plan shape, so the engine's
/// operator cache serves it without recompiling.
fn rebind(statement: &Query, params: &[Datum]) -> Result<Query, ServerError> {
    let predicates = statement.filter().predicates();
    if params.len() != predicates.len() {
        return Err(ServerError::Wire(h2o_expr::WireError::Shape(format!(
            "\"params\" must supply {} values (one per predicate), got {}",
            predicates.len(),
            params.len()
        ))));
    }
    let filter = if predicates.is_empty() {
        Conjunction::always()
    } else {
        Conjunction::of(
            predicates
                .iter()
                .zip(params)
                .map(|(p, value)| Predicate::new(p.attr, p.op, value.clone())),
        )
    };
    Ok(statement.with_filter(filter))
}

/// Admits, executes and renders one statement — both request kinds.
fn run(
    id: &Json,
    stmt: &Statement,
    opts: ExecOptions,
    check: bool,
    shared: &Shared,
) -> Result<String, ServerError> {
    let permit = shared.admission.admit()?;
    let out = shared.engine.run(stmt.request(opts))?;
    drop(permit);
    let checked = check.then(|| verify(&out, stmt, shared));
    Ok(protocol::ok_line(id, result_to_json(&out.result), checked))
}

/// Re-runs the statement through the generic interpreter on the snapshot
/// the engine executed against and compares result fingerprints —
/// bit-identical by the engine's determinism contract.
fn verify(out: &Outcome, stmt: &Statement, shared: &Shared) -> bool {
    shared.counters.checked.fetch_add(1, Ordering::Relaxed);
    let db = &out.snapshot;
    let want = match stmt {
        Statement::Query(q) => interpret(db.primary(), q).ok(),
        Statement::Join(q) => match (db.relation(q.left().name()), db.relation(q.right().name())) {
            (Ok(left), Ok(right)) => interpret_join(left, right, q).ok(),
            _ => None,
        },
    };
    let matched = want.is_some_and(|want| want.fingerprint() == out.result.fingerprint());
    if !matched {
        shared.counters.mismatches.fetch_add(1, Ordering::Relaxed);
    }
    matched
}
