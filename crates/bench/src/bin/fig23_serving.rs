//! Serving-tier closed-loop benchmark (beyond the paper: the prototype
//! is embedded-only, so this figure has no paper analogue).
//!
//! Starts the `h2o-server` TCP front end over one engine per point and
//! drives it with N closed-loop clients (1/2/4 by default) issuing a
//! mixed point-lookup / grouped-rollup / hash-join workload as
//! line-delimited JSON, while the server's background reorganizer
//! churns layouts underneath. Reports qps plus p50/p95/p99 latency per
//! client count, and the server's own counters — every 4th request sets
//! `"check":true`, so the server re-runs it through the generic
//! interpreter on the same snapshot and the `mismatches` column is a
//! bit-identity guarantee, not a sample.
//!
//! Admission is sized (8 slots) so these client counts never shed; the
//! `shed` column existing and staying 0 is what
//! `crates/h2o-server/tests/server.rs` asserts in tier-1.

use h2o_bench::Args;
use h2o_core::{EngineConfig, H2oEngine};
use h2o_expr::Json;
use h2o_server::{Server, ServerConfig, ServerHandle};
use h2o_storage::{LogicalType, Relation, Schema};
use h2o_workload::synth::{gen_columns, threshold_for_selectivity};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM_ROWS: usize = 256;

fn primary_schema(attrs: usize) -> Arc<Schema> {
    Schema::with_width(attrs).into_shared()
}

fn dim_schema() -> Arc<Schema> {
    Schema::typed([("key", LogicalType::I64), ("weight", LogicalType::I64)]).into_shared()
}

/// Primary relation: `a0` sequential keys (so the join hits exactly one
/// row per dim key), the last attribute an 8-way group column, random
/// payload in between. Plus a small `dim` relation keyed on every 3rd
/// primary key.
fn build_engine(rows: usize, attrs: usize, seed: u64) -> Arc<H2oEngine> {
    let mut columns = gen_columns(attrs, rows, seed);
    columns[0] = (0..rows as i64).collect();
    columns[attrs - 1] = (0..rows).map(|i| (i % 8) as i64).collect();
    let engine = H2oEngine::new(
        Relation::columnar(primary_schema(attrs), columns).unwrap(),
        EngineConfig::background(),
    );
    let dim = vec![
        (0..DIM_ROWS).map(|i| (i * 3) as i64).collect(),
        (0..DIM_ROWS).map(|i| ((i * 7) % 100) as i64).collect(),
    ];
    engine
        .add_relation("dim", Relation::columnar(dim_schema(), dim).unwrap())
        .unwrap();
    Arc::new(engine)
}

/// The three request templates, rotated per request index. `check` is
/// set on every 4th request.
fn request_line(i: usize, attrs: usize, threshold: i64) -> String {
    let check = if i.is_multiple_of(4) { "true" } else { "false" };
    let last = attrs - 1;
    match i % 3 {
        0 => format!(
            r#"{{"id":{i},"kind":"query","q":{{"select":[{{"col":"a1"}},{{"col":"a2"}}],"where":[{{"col":"a3","op":"<","value":{threshold}}}]}},"check":{check}}}"#
        ),
        1 => format!(
            r#"{{"id":{i},"kind":"query","q":{{"group_by":[{{"col":"a{last}"}}],"aggs":[{{"fn":"sum","expr":{{"col":"a1"}}}},{{"fn":"count"}}]}},"check":{check}}}"#
        ),
        _ => format!(
            r#"{{"id":{i},"kind":"join","q":{{"left":"R","right":"dim","on":[["a0","key"]],"where_right":[{{"col":"weight","op":"<","value":60}}],"select":[{{"lcol":"a1"}},{{"rcol":"weight"}}]}},"check":{check}}}"#
        ),
    }
}

struct ClientTally {
    latencies: Vec<f64>,
    checked: u64,
    mismatches: u64,
    errors: u64,
}

/// One closed-loop client: connect, issue `count` requests back to
/// back, record per-request wall latency and the check verdicts.
fn run_client(
    addr: std::net::SocketAddr,
    first: usize,
    count: usize,
    attrs: usize,
    threshold: i64,
) -> ClientTally {
    let writer = TcpStream::connect(addr).expect("connect to h2o-server");
    writer.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let mut writer = writer;
    let mut tally = ClientTally {
        latencies: Vec::with_capacity(count),
        checked: 0,
        mismatches: 0,
        errors: 0,
    };
    let mut line = String::new();
    for i in first..first + count {
        let request = request_line(i, attrs, threshold);
        let t0 = Instant::now();
        writer.write_all(request.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        line.clear();
        let n = reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection mid-benchmark");
        tally.latencies.push(t0.elapsed().as_secs_f64());
        let resp = Json::parse(line.trim()).expect("well-formed response");
        if !resp.get("err").is_null() {
            tally.errors += 1;
        }
        if resp.get("checked") == &Json::Bool(true) {
            tally.checked += 1;
            if resp.get("match") != &Json::Bool(true) {
                tally.mismatches += 1;
            }
        }
    }
    tally
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn serve_point(
    clients: usize,
    total_requests: usize,
    rows: usize,
    attrs: usize,
    threshold: i64,
    seed: u64,
) -> (ClientTally, f64, h2o_server::ServerStats) {
    let engine = build_engine(rows, attrs, seed);
    let mut handle: ServerHandle = Server::start(
        engine,
        ServerConfig {
            max_inflight: 8,
            max_queued: 64,
            reorg_poll: Some(Duration::from_millis(2)),
            ..ServerConfig::default()
        },
    )
    .expect("start h2o-server");
    let addr = handle.addr();
    let per_client = (total_requests / clients).max(1);
    let t0 = Instant::now();
    let mut merged = ClientTally {
        latencies: Vec::new(),
        checked: 0,
        mismatches: 0,
        errors: 0,
    };
    std::thread::scope(|s| {
        let tallies: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || run_client(addr, c * per_client, per_client, attrs, threshold))
            })
            .collect();
        for t in tallies {
            let tally = t.join().unwrap();
            merged.latencies.extend(tally.latencies);
            merged.checked += tally.checked;
            merged.mismatches += tally.mismatches;
            merged.errors += tally.errors;
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    let stats = handle.stats();
    handle.shutdown();
    (merged, secs, stats)
}

fn main() {
    let args = Args::parse(100_000, 8, 600);
    let rows = args.tuples;
    let attrs = args.attrs.max(5);
    let total_requests = args.queries.max(48);
    let threshold = threshold_for_selectivity(0.05);

    eprintln!("fig23: serving {rows} x {attrs} over TCP, {total_requests} requests per point ...");
    let mut entries = Vec::new();
    for clients in [1usize, 2, 4] {
        let (tally, secs, stats) =
            serve_point(clients, total_requests, rows, attrs, threshold, args.seed);
        let mut lat = tally.latencies.clone();
        lat.sort_by(f64::total_cmp);
        let executed = lat.len();
        let qps = executed as f64 / secs;
        let (p50, p95, p99) = (
            percentile(&lat, 0.50) * 1e3,
            percentile(&lat, 0.95) * 1e3,
            percentile(&lat, 0.99) * 1e3,
        );
        eprintln!(
            "fig23: clients={clients} {secs:.3}s  {qps:.0} q/s  p50 {p50:.2}ms p95 {p95:.2}ms \
             p99 {p99:.2}ms  checked {} mismatches {} errors {} shed {}",
            tally.checked, tally.mismatches, tally.errors, stats.shed
        );
        entries.push(format!(
            "{{\"clients\":{clients},\"executed\":{executed},\"seconds\":{secs:.6},\
             \"qps\":{qps:.2},\"p50_ms\":{p50:.4},\"p95_ms\":{p95:.4},\"p99_ms\":{p99:.4},\
             \"checked\":{},\"mismatches\":{},\"errors\":{},\"shed\":{}}}",
            tally.checked, tally.mismatches, tally.errors, stats.shed
        ));
    }
    println!(
        "{{\"bench\":\"fig23_serving\",\"rows\":{rows},\"attrs\":{attrs},\
         \"requests\":{total_requests},\"seed\":{},\"results\":[{}]}}",
        args.seed,
        entries.join(",")
    );
}
