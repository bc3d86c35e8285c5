//! End-to-end serving tests over real TCP connections: concurrent
//! clients with interpreter-checked fingerprints while the background
//! reorganizer churns, prepared-statement rebinding, typed
//! rendered-message regressions, deterministic admission shedding, the
//! graceful-shutdown drain guarantee, and hostile input (deep nesting,
//! unbounded lines, truncated documents, arbitrary bytes).

use h2o_core::{EngineConfig, H2oEngine};
use h2o_expr::Json;
use h2o_server::{Server, ServerConfig, ServerHandle};
use h2o_storage::{LogicalType, Relation, Schema};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn primary_schema() -> Arc<Schema> {
    Schema::typed([
        ("id", LogicalType::I64),
        ("grp", LogicalType::I64),
        ("val", LogicalType::I64),
    ])
    .into_shared()
}

fn dim_schema() -> Arc<Schema> {
    Schema::typed([("key", LogicalType::I64), ("weight", LogicalType::I64)]).into_shared()
}

/// An engine over deterministic integer data: primary relation `R`
/// (`rows` tuples) plus a small `dim` relation joinable on `id = key`.
fn engine(rows: usize) -> Arc<H2oEngine> {
    let cols = vec![
        (0..rows as i64).collect(),
        (0..rows).map(|i| (i % 8) as i64).collect(),
        (0..rows).map(|i| ((i * 37) % 1000) as i64).collect(),
    ];
    let e = H2oEngine::new(
        Relation::columnar(primary_schema(), cols).unwrap(),
        EngineConfig::default(),
    );
    let dim_rows = 64usize;
    let dim = vec![
        (0..dim_rows).map(|i| (i * 4) as i64).collect(),
        (0..dim_rows).map(|i| ((i * 3) % 50) as i64).collect(),
    ];
    e.add_relation("dim", Relation::columnar(dim_schema(), dim).unwrap())
        .unwrap();
    Arc::new(e)
}

fn start(rows: usize, config: ServerConfig) -> ServerHandle {
    Server::start(engine(rows), config).unwrap()
}

/// A blocking line-protocol client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).unwrap();
        writer.set_nodelay(true).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Client { reader, writer }
    }

    fn send_raw(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
    }

    fn read(&mut self) -> Option<Json> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(Json::parse(line.trim()).unwrap()),
            Err(e) => panic!("client read failed: {e}"),
        }
    }

    fn roundtrip(&mut self, line: &str) -> Json {
        self.send_raw(line);
        self.read().expect("server closed the connection")
    }
}

fn assert_checked_ok(resp: &Json) {
    assert!(
        !resp.get("ok").is_null(),
        "expected ok response, got: {resp:?}"
    );
    assert_eq!(resp.get("checked"), &Json::Bool(true));
    assert_eq!(resp.get("match"), &Json::Bool(true));
}

const POINT: &str = r#"{"id":1,"kind":"query","q":{"select":[{"col":"id"},{"col":"val"}],"where":[{"col":"val","op":"<","value":120}]},"check":true}"#;
const ROLLUP: &str = r#"{"id":2,"kind":"query","q":{"group_by":[{"col":"grp"}],"aggs":[{"fn":"sum","expr":{"col":"val"}},{"fn":"count"}]},"check":true}"#;
const JOIN: &str = r#"{"id":3,"kind":"join","q":{"left":"R","right":"dim","on":[["id","key"]],"where_right":[{"col":"weight","op":"<","value":40}],"select":[{"lcol":"val"},{"rcol":"weight"}]},"check":true}"#;

/// Every settable value, by name. A new field fails to compile here
/// until it is added — and counted in `ServerConfig`'s docs, which keep
/// the settable values at four.
#[test]
fn server_config_has_the_documented_four_values() {
    let ServerConfig {
        addr,
        max_inflight,
        max_queued,
        reorg_poll,
    } = ServerConfig::default();
    assert_eq!(addr, "127.0.0.1:0");
    assert!(max_inflight >= 1);
    assert_eq!(max_queued, 16);
    assert_eq!(reorg_poll, None);
}

#[test]
fn concurrent_clients_get_interpreter_checked_answers_under_reorg_churn() {
    let handle = start(
        20_000,
        ServerConfig {
            max_inflight: 4,
            max_queued: 32,
            // Keep layouts churning underneath the traffic: the check
            // re-runs each query on the engine's execution snapshot, so
            // fingerprints must agree regardless of reorganization.
            reorg_poll: Some(Duration::from_millis(2)),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    let clients: Vec<_> = (0..4)
        .map(|_| {
            thread::spawn(move || {
                let mut c = Client::connect(addr);
                assert_eq!(
                    c.roundtrip(r#"{"id":0,"kind":"ping"}"#),
                    Json::parse(r#"{"id":0,"ok":{"pong":true}}"#).unwrap()
                );
                for _ in 0..6 {
                    for req in [POINT, ROLLUP, JOIN] {
                        assert_checked_ok(&c.roundtrip(req));
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let stats = handle.stats();
    assert_eq!(stats.connections, 4);
    assert_eq!(stats.ok, 4 * (1 + 6 * 3));
    assert_eq!(stats.checked, 4 * 6 * 3);
    assert_eq!(stats.mismatches, 0);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.shed, 0);
}

#[test]
fn prepared_statements_rebind_constants_per_exec() {
    let handle = start(5_000, ServerConfig::default());
    let mut c = Client::connect(handle.addr());
    let prep = c.roundtrip(
        r#"{"id":1,"kind":"prepare","name":"pt","q":{"select":[{"col":"id"}],"where":[{"col":"val","op":"<","value":0}]}}"#,
    );
    assert_eq!(
        prep,
        Json::parse(r#"{"id":1,"ok":{"prepared":"pt","params":1}}"#).unwrap()
    );

    let narrow = c.roundtrip(r#"{"id":2,"kind":"exec","name":"pt","params":[100],"check":true}"#);
    assert_checked_ok(&narrow);
    let wide = c.roundtrip(r#"{"id":3,"kind":"exec","name":"pt","params":[900],"check":true}"#);
    assert_checked_ok(&wide);
    let rows = |resp: &Json| resp.get("ok").get("rows").int("rows").unwrap();
    assert!(
        rows(&narrow) < rows(&wide),
        "rebinding the constant must change the selection"
    );

    let arity = c.roundtrip(r#"{"id":4,"kind":"exec","name":"pt","params":[1,2]}"#);
    assert_eq!(
        arity.get("err").get("kind").str("kind").unwrap(),
        "malformed"
    );
    assert_eq!(
        arity.get("err").get("msg").str("msg").unwrap(),
        "malformed request: \"params\" must supply 1 values (one per predicate), got 2"
    );

    let unknown = c.roundtrip(r#"{"id":5,"kind":"exec","name":"nope","params":[]}"#);
    assert_eq!(
        unknown.get("err").get("kind").str("kind").unwrap(),
        "unknown_statement"
    );
    assert_eq!(
        unknown.get("err").get("msg").str("msg").unwrap(),
        "unknown prepared statement: nope"
    );

    // Prepared statements are per-session: a fresh connection cannot
    // execute this session's statement.
    let mut other = Client::connect(handle.addr());
    let isolated = other.roundtrip(r#"{"id":6,"kind":"exec","name":"pt","params":[100]}"#);
    assert_eq!(
        isolated.get("err").get("kind").str("kind").unwrap(),
        "unknown_statement"
    );
}

#[test]
fn stats_kind_reports_engine_and_server_counters() {
    let handle = start(5_000, ServerConfig::default());
    let mut c = Client::connect(handle.addr());
    // The join probes R against dim's keys (multiples of four, max 252):
    // most of R's ids fall outside the build filter's key range or miss
    // the bloom, so the engine's reject counter must move.
    assert_checked_ok(&c.roundtrip(JOIN));
    let stats = c.roundtrip(r#"{"id":9,"kind":"stats"}"#);
    let engine = stats.get("ok").get("engine");
    assert!(engine.get("queries").int("queries").unwrap() >= 1);
    assert!(
        engine
            .get("probe_bloom_rejects")
            .int("probe_bloom_rejects")
            .unwrap()
            > 0,
        "join probes past the filter should have been rejected: {stats:?}"
    );
    let server = stats.get("ok").get("server");
    // The stats line itself is the second request; its own "ok" is
    // counted only after the body renders.
    assert_eq!(server.get("requests").int("requests").unwrap(), 2);
    assert_eq!(server.get("ok").int("ok").unwrap(), 1);
    assert_eq!(server.get("mismatches").int("mismatches").unwrap(), 0);
}

#[test]
fn malformed_and_failing_requests_render_typed_messages() {
    let handle = start(
        50_000,
        ServerConfig {
            max_inflight: 2,
            max_queued: 4,
            ..ServerConfig::default()
        },
    );
    let mut c = Client::connect(handle.addr());

    // Unparsable JSON: id is unrecoverable, the syntax error is
    // positioned.
    let garbage = c.roundtrip(r#"{"id":1,"#);
    assert_eq!(garbage.get("id"), &Json::Null);
    assert_eq!(
        garbage.get("err").get("kind").str("kind").unwrap(),
        "malformed"
    );
    assert!(
        garbage
            .get("err")
            .get("msg")
            .str("msg")
            .unwrap()
            .starts_with("malformed json at byte "),
        "got: {garbage:?}"
    );

    // Well-formed JSON, bad protocol shape.
    let shape = c.roundtrip(r#"{"id":2,"kind":"truncate"}"#);
    assert_eq!(
        shape.get("err").get("msg").str("msg").unwrap(),
        "malformed request: \"kind\" must be one of \"query\", \"join\", \"prepare\", \"exec\", \"ping\", \"stats\"; got \"truncate\""
    );

    // Valid shape, invalid query against the schema.
    let invalid = c.roundtrip(r#"{"id":3,"kind":"query","q":{"select":[{"col":"nonexistent"}]}}"#);
    assert_eq!(
        invalid.get("err").get("kind").str("kind").unwrap(),
        "malformed"
    );
    assert_eq!(
        invalid.get("err").get("msg").str("msg").unwrap(),
        "malformed request: unknown column \"nonexistent\""
    );

    // An unknown relation in a join is a query-validity error: the
    // engine's own taxonomy crosses the wire.
    let unknown_rel = c.roundtrip(
        r#"{"id":5,"kind":"join","q":{"left":"R","right":"ghost","on":[["id","key"]],"select":[{"lcol":"val"}]}}"#,
    );
    assert_eq!(
        unknown_rel.get("err").get("kind").str("kind").unwrap(),
        "invalid"
    );
    assert_eq!(
        unknown_rel.get("err").get("msg").str("msg").unwrap(),
        "invalid query: unknown relation: ghost"
    );

    // A zero deadline expires before execution starts: the engine's
    // rendered timeout message crosses the wire verbatim.
    let timeout = c.roundtrip(
        r#"{"id":4,"kind":"query","q":{"aggs":[{"fn":"sum","expr":{"col":"val"}}]},"opts":{"deadline_ms":0}}"#,
    );
    assert_eq!(
        timeout.get("err").get("kind").str("kind").unwrap(),
        "timeout"
    );
    assert_eq!(
        timeout.get("err").get("msg").str("msg").unwrap(),
        "query deadline expired"
    );

    // The session survives every error above.
    assert_checked_ok(&c.roundtrip(POINT));
}

#[test]
fn admission_control_sheds_with_a_typed_error_when_full() {
    let handle = start(
        2_000,
        ServerConfig {
            max_inflight: 1,
            max_queued: 0,
            ..ServerConfig::default()
        },
    );
    let mut c = Client::connect(handle.addr());
    assert_checked_ok(&c.roundtrip(POINT));

    let slots = handle.hold_slots(1).unwrap();
    let shed = c.roundtrip(POINT);
    assert_eq!(
        shed.get("err").get("kind").str("kind").unwrap(),
        "overloaded"
    );
    assert_eq!(
        shed.get("err").get("msg").str("msg").unwrap(),
        "server overloaded: 1 queries in flight, 0 queued"
    );
    assert_eq!(handle.stats().shed, 1);

    // Freeing the slot restores service on the same connection.
    drop(slots);
    assert_checked_ok(&c.roundtrip(POINT));
    assert_eq!(handle.stats().shed, 1);
}

#[test]
fn graceful_shutdown_drains_the_inflight_request() {
    let mut handle = start(
        200_000,
        ServerConfig {
            reorg_poll: Some(Duration::from_millis(2)),
            ..ServerConfig::default()
        },
    );
    let before = handle.stats().requests;
    let mut c = Client::connect(handle.addr());
    c.send_raw(ROLLUP);
    // Wait until the session has picked the request up, so shutdown
    // genuinely races with its execution.
    let t0 = Instant::now();
    while handle.stats().requests == before {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "request never started"
        );
        thread::sleep(Duration::from_millis(1));
    }
    handle.shutdown();
    // The drained response arrives complete and verified, then the
    // server closes the connection.
    let resp = c.read().expect("in-flight request must be answered");
    assert_checked_ok(&resp);
    assert!(c.read().is_none(), "connection must close after drain");
    let stats = handle.stats();
    assert_eq!(stats.ok, 1);
    assert_eq!(stats.mismatches, 0);
}

#[test]
fn a_response_is_one_line_in_one_read() {
    // The server writes each response line, newline included, at once. A
    // body and its newline written separately leave a no-delay socket as
    // two segments, and a reader woken by the first sees half a line.
    let handle = start(1_000, ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut buf = [0u8; 4096];
    for i in 0..100 {
        stream.write_all(b"{\"id\":7,\"kind\":\"ping\"}\n").unwrap();
        let n = stream.read(&mut buf).unwrap();
        assert_eq!(
            &buf[..n],
            b"{\"id\":7,\"ok\":{\"pong\":true}}\n",
            "round trip {i}: one read must return the whole line"
        );
    }
}

/// Asserts `resp` is a typed `"malformed"` error whose message starts
/// with `prefix`.
fn assert_malformed(resp: &Json, prefix: &str) {
    assert_eq!(
        resp.get("err").get("kind").str("kind").unwrap(),
        "malformed",
        "got: {resp:?}"
    );
    let msg = resp.get("err").get("msg").str("msg").unwrap();
    assert!(msg.starts_with(prefix), "got: {msg}");
}

/// Opens a fresh connection and checks the server still answers
/// correctly — what every hostile-input case must leave true.
fn assert_still_serving(handle: &ServerHandle) {
    assert_checked_ok(&Client::connect(handle.addr()).roundtrip(POINT));
}

#[test]
fn deeply_nested_documents_get_a_typed_error_not_a_stack_overflow() {
    let handle = start(1_000, ServerConfig::default());
    let mut c = Client::connect(handle.addr());
    // One recursion per level would overflow the session thread's stack,
    // which aborts the process — nothing a test could catch.
    for (open, depth) in [("[", 1_000_000), ("{\"a\":", 200_000)] {
        let resp = c.roundtrip(&open.repeat(depth));
        assert_malformed(&resp, "malformed json at byte ");
        assert!(resp.to_string().contains("nesting too deep"), "{resp:?}");
    }
    // The session itself survives, and so does the rest of the server.
    assert_checked_ok(&c.roundtrip(POINT));
    assert_still_serving(&handle);
}

#[test]
fn a_line_with_no_newline_is_cut_off_at_the_cap() {
    let handle = start(1_000, ServerConfig::default());
    let mut c = Client::connect(handle.addr());
    // 4 MiB and no newline: the server answers once it has seen the cap
    // and hangs up, so the tail of the write may fail — that is the point.
    let _ = c.writer.write_all(&vec![b'1'; 4 << 20]);
    let resp = c.read().expect("the cap must be reported before the close");
    assert_malformed(
        &resp,
        "malformed json at byte 1048576: request line exceeds",
    );
    assert!(
        matches!(c.reader.read_line(&mut String::new()), Ok(0) | Err(_)),
        "the connection must close"
    );
    assert_still_serving(&handle);
    assert_eq!(handle.stats().errors, 1);
}

#[test]
fn truncated_and_arbitrary_bytes_always_get_a_typed_error() {
    let handle = start(1_000, ServerConfig::default());
    let mut c = Client::connect(handle.addr());
    // A valid request cut at every byte: no strict prefix of an object is
    // a document.
    for cut in 1..POINT.len() {
        let resp = c.roundtrip(&POINT[..cut]);
        assert_malformed(&resp, "malformed json at byte ");
    }
    // Seeded arbitrary bytes behind a plausible opening, one line each.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..200 {
        let mut line = b"{\"id\":".to_vec();
        for _ in 0..1 + state % 64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let byte = (state >> 32) as u8;
            line.push(if byte == b'\n' { 0 } else { byte });
        }
        line.push(b'\n');
        c.writer.write_all(&line).unwrap();
        let resp = c.read().expect("every line gets a response");
        assert!(!resp.get("err").is_null(), "got: {resp:?}");
    }
    // The same session still executes a valid request.
    assert_checked_ok(&c.roundtrip(POINT));
    assert_still_serving(&handle);
}
