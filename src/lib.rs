//! # H2O: a hands-free adaptive store — Rust reproduction
//!
//! A from-scratch implementation of **H2O** (Alagiannis, Idreos, Ailamaki —
//! SIGMOD 2014): an in-memory analytical engine that makes *no fixed
//! decision* about physical data layout. Row-major, column-major and
//! column-group layouts coexist; the engine monitors the query stream and
//! — driven by an affinity/cost model — creates new layouts **while
//! answering queries**, generating specialized access operators per
//! (layout, query-shape) combination.
//!
//! ```
//! use h2o::prelude::*;
//! use h2o::storage::LogicalType;
//!
//! // A mixed-type relation on the fixed 64-bit lane: a dictionary-encoded
//! // object class, an integer run id, and two f64 sky coordinates.
//! let schema = Schema::typed([
//!     ("class", LogicalType::Dict),
//!     ("run", LogicalType::I64),
//!     ("ra", LogicalType::F64),
//!     ("dec", LogicalType::F64),
//! ]).into_shared();
//! let dict = schema.dictionary(AttrId(0)).unwrap();
//! let columns = vec![
//!     h2o::workload::gen_dict_column(10_000, dict, &["STAR", "GALAXY"], 42),
//!     h2o::workload::gen_key_column(10_000, 32, 42),
//!     h2o::workload::gen_f64_column(10_000, 0.0, 360.0, 42),
//!     h2o::workload::gen_f64_column(10_000, -90.0, 90.0, 42),
//! ];
//! let relation = Relation::columnar(schema.clone(), columns).unwrap();
//! let engine = H2oEngine::new(relation, EngineConfig::default());
//!
//! // select sum(ra+dec) from R where ra < 180.0 and class = 'GALAXY'
//! let query = Query::aggregate(
//!     [Aggregate::sum(Expr::sum_of([AttrId(2), AttrId(3)]))],
//!     Conjunction::of([
//!         Predicate::lt(2u32, 180.0),
//!         Predicate::eq(0u32, "GALAXY"),
//!     ]),
//! ).unwrap();
//! let result = engine.run(Request::query(&query)).unwrap().result;
//! assert_eq!(result.rows(), 1);
//!
//! // Grouped rollup keyed on the dictionary column (beyond the paper):
//! // select class, avg(dec), count(*) from R group by class
//! let rollup = Query::grouped(
//!     [Expr::col(0u32)],
//!     [Aggregate::avg(Expr::col(3u32)), Aggregate::count()],
//!     Conjunction::always(),
//! ).unwrap();
//! let rolled = engine.run(Request::query(&rollup)).unwrap().result;
//! // One row per distinct key, sorted ascending in the key's typed order —
//! // the engine-wide determinism convention for grouped results.
//! assert_eq!(rolled.rows(), 2);
//! // Render decodes lanes through the output types: codes back to labels,
//! // f64 bit patterns back to doubles.
//! let types = h2o::expr::typecheck::check(&rollup, &schema).unwrap().select.output_types();
//! let dicts = vec![schema.dictionary(AttrId(0)).cloned(), None, None];
//! assert!(rolled.render(&types, &dicts).contains("\"STAR\""));
//!
//! // The engine has no implicit coercions: an i64 constant against the
//! // f64 `ra` column is rejected at plan time, before any scan.
//! let ill_typed = Query::project(
//!     [Expr::col(2u32)],
//!     Conjunction::of([Predicate::lt(2u32, 180)]),
//! ).unwrap();
//! assert!(engine.run(Request::query(&ill_typed)).is_err());
//! // Keep querying: the engine adapts its layouts to the workload.
//! ```
//!
//! ## Typed columns on a fixed 64-bit lane
//!
//! Every value is one 64-bit lane word typed by the schema
//! ([`storage::LogicalType`]): `I64` integers (the paper's evaluation
//! type), `F64` doubles stored as bit patterns, and `Dict`
//! dictionary-encoded strings ([`storage::Dictionary`], `Arc`-shared per
//! attribute). The fixed lane keeps segment layout, copy-on-write
//! accounting and the cost model type-oblivious; comparisons and
//! arithmetic are typed and **baked into the generated operators** at
//! plan time. Typing is strict — no implicit coercions; cross-type
//! predicates/arithmetic, ordered dictionary comparisons and dictionary
//! measures are rejected as
//! [`QueryError::TypeMismatch`](h2o_expr::QueryError) by the plan-time
//! checker ([`expr::typecheck`]). `f64` ordering follows
//! [`f64::total_cmp`] on every path; `f64` sums fold in row order within
//! a morsel and merge in morsel order, and the workload generators draw
//! doubles from dyadic grids so sums are exact — serial, parallel and all
//! three strategies stay bit-identical on mixed-type workloads
//! (`tests/mixed_types.rs`). Sealed 64K-row segments
//! carry min/max **zone maps**; scans skip segments that cannot satisfy a
//! conjunctive predicate (`EngineStats::segments_skipped`).
//!
//! ## Vectorized kernel inner loops (deviation from the paper)
//!
//! The paper's generated operators are scalar; this reproduction runs the
//! hot inner loops — predicate evaluation, the selection-vector build,
//! and the fused/column-major aggregate folds — in
//! portable-SIMD style over the 64-bit comparator-key lanes
//! (`h2o_exec::kernels::simd`). The **lane/tail contract**: every segment
//! run is processed as fixed-width 8-lane chunks (bounds checks hoisted
//! into one up-front assert so the chunk loop autovectorizes) plus a
//! scalar tail for the remaining `rows % 8`, and both paths must be
//! bit-identical to the retained `*_scalar` reference bodies — pinned by
//! the `tests/simd.rs` differential suite. Associative accumulators
//! (wrapping integer sums, comparator-key `min`/`max`, counts) may split
//! across the eight lanes; **`f64` sums stay in fold order** — one
//! in-row-order reduction chain with only the surrounding scan
//! vectorized — because float addition is not associative and the
//! engine's determinism convention pins `f64` sums to row order within a
//! morsel (the fold-order contract on
//! [`AggState`](h2o_expr::agg::AggState)).
//!
//! ## Grouped aggregation (deviation from the paper)
//!
//! The paper's evaluation stops at select-project-aggregate; this
//! reproduction adds `group by` as a first-class query class
//! ([`Query::grouped`](h2o_expr::Query::grouped)): hash-grouped
//! aggregation is implemented in **all three** kernel strategies (fused,
//! selection-vector, column-major — the column-major kernel materializes
//! key/input intermediates column-at-a-time, faithful to its §2.1 cost
//! structure), morsel-parallel execution merges morsel-local hash tables
//! through the associative [`GroupedAggs`](h2o_expr::GroupedAggs) merge,
//! and every strategy emits rows sorted ascending by key vector, so
//! results are bit-identical across strategies and serial/parallel
//! execution. Group-key columns count as hot select-clause attributes for
//! the adaptation mechanism, so grouped workloads drive layout convergence
//! like any other (see `examples/grouped_analytics.rs`); `tests/grouped.rs`
//! pins the cross-strategy identity.
//!
//! ## Multi-relation queries (deviation from the paper)
//!
//! The paper's prototype is single-relation; this reproduction answers
//! **two-table hash equi-joins** end-to-end.
//! [`Query::join`](h2o_expr::Query::join) binds two named relations and
//! builds the shape — equi-join key pairs, an independent residual
//! filter per side, and cross-relation projections, aggregates or
//! grouped rollups over the combined tuple — typed through
//! [`check_join`](h2o_expr::check_join) (join keys must share a
//! [`LogicalType`](h2o_storage::LogicalType); ambiguous names are
//! rejected unless qualified with `lcol`/`rcol`):
//!
//! ```
//! use h2o::prelude::*;
//! use h2o::storage::LogicalType;
//!
//! let photo = Schema::typed([
//!     ("objID", LogicalType::I64),
//!     ("mag", LogicalType::I64),
//! ]).into_shared();
//! let spec = Schema::typed([
//!     ("bestObjID", LogicalType::I64),
//!     ("z", LogicalType::I64),
//! ]).into_shared();
//!
//! // The engine's primary relation is bound as "R"; secondaries are
//! // registered by name and join against the same catalog snapshot.
//! let engine = H2oEngine::new(
//!     Relation::columnar(photo.clone(), vec![
//!         (0..1000).collect(),                     // objID
//!         (0..1000).map(|i| i % 30).collect(),     // mag
//!     ]).unwrap(),
//!     EngineConfig::default(),
//! );
//! engine.add_relation("spec", Relation::columnar(spec.clone(), vec![
//!     (0..500).map(|i| i * 2).collect(),           // bestObjID
//!     (0..500).map(|i| i % 7).collect(),           // z
//! ]).unwrap()).unwrap();
//!
//! // select mag, z from R join spec on objID = bestObjID where mag < 3
//! let b = Query::join(("R", photo), ("spec", spec))
//!     .on("objID", "bestObjID").unwrap();
//! let (mag, z) = (b.lcol("mag").unwrap(), b.rcol("z").unwrap());
//! let q = b
//!     .filter_left(Conjunction::of([Predicate::lt(1u32, 3)]))
//!     .project([mag, z]).unwrap();
//!
//! let out = engine.run(Request::join(&q)).unwrap();
//! // Differential oracle on the very snapshot the engine answered from:
//! let db = &out.snapshot;
//! let want = h2o::expr::interpret_join(
//!     db.relation("R").unwrap(), db.relation("spec").unwrap(), &q,
//! ).unwrap();
//! assert_eq!(out.result.fingerprint(), want.fingerprint());
//! assert!(out.result.rows() > 0);
//! ```
//!
//! Execution reuses the whole single-relation machinery: all three
//! strategies implement the hash join over segment runs — a
//! morsel-parallel build (partitioned tables merged in morsel order),
//! a probe fused with the residual filter and select program, SIMD
//! mask/selection-vector reuse and zone-map pruning on both sides, an
//! early exit when the build side is empty — so for a fixed build side
//! results are bit-identical across strategies, layouts and
//! serial/parallel execution (`tests/joins.rs` pins this against the
//! interpreter).
//!
//! **Greedy selectivity-driven join ordering.** The engine keeps no
//! cardinality statistics. Instead, each side's residual-filter
//! selectivity is *observed*: every join execution reports how many
//! build/probe rows survived the filters, and an EWMA keyed by
//! (relation, predicate shape) — the join flavour of
//! [`observed_selectivity`](h2o_core::H2oEngine::observed_selectivity) —
//! feeds the next plan. The side with the smaller estimated post-filter
//! row count builds the hash table (ties build left); forcing the other
//! side via
//! [`ExecOptions::build_side`](h2o_core::ExecOptions::build_side)
//! pins either order for differential runs. Join sides bound to the primary relation also
//! feed the monitoring window as key + payload access patterns, so a
//! join workload converges the physical layout to the join's column
//! group (`examples/join_analytics.rs`). Joins honor the same
//! stop-control options as single-relation queries: the cancel token,
//! deadline and morsel budget thread through both the build and probe
//! phases.
//!
//! **The probe.** One block pipeline serves every key width and
//! strategy, and three execution shortcuts keep it cheap without
//! changing a single output bit:
//!
//! * *Bloom-filtered probes* — the build hashes each key once, for its
//!   table insert and for the
//!   [`JoinFilter`](h2o_exec::JoinFilter) (morsel-parallel, OR-merged in
//!   morsel order): a blocked bloom filter plus an exact per-key
//!   `[min,max]` range in comparator-key space, sized from the
//!   post-prune build cardinality. Probe rows arrive 1K at a time; every
//!   key of a block is gathered, hashed, range- and bloom-tested, and the
//!   survivors are compacted without a branch *before* the table lookup,
//!   so low-match-rate probes skip the random-access lookup
//!   ([`JoinExecStats::probe_bloom_rejects`](h2o_exec::JoinExecStats)
//!   counts the savings). No false negatives ⇒ bit-identical to the
//!   interpreter (`tests/join_fastpath.rs` proptests it).
//! * *Factorized fold plans* — [`compile_join`](h2o_exec::compile_join)
//!   picks a [`FoldPlan`](h2o_exec::FoldPlan) from the select clause and
//!   the build side
//!   ([`CompiledJoinOp::fold_plan`](h2o_exec::CompiledJoinOp::fold_plan)).
//!   When no select expression reads the build side, a probe row's `k`
//!   matches fold as one multiplicity-weighted update; build-only
//!   aggregates fold per build key at build time and the probe only
//!   counts hits per key (`partial × hits`); build-side group keys over
//!   probe-side aggregates resolve each build key to its `(group,
//!   multiplicity)` list once. Everything else — projections,
//!   expressions over both sides, `f64` sums over build values — folds
//!   per matched pair, which keeps the pinned fold order and the
//!   serial ≡ interpreter contract.
//! * *Build pruning + costed sizing* — build-side zone maps prune
//!   segment runs before hashing, the surviving cardinality sizes the
//!   hash table and filter, and the `h2o-cost` model prices the filter
//!   build and per-probe test so build-side choice stays honest.
//!
//! All are always on; `tests/join_fastpath.rs` asserts that they engage
//! (exact reject counts, the expected plan per query and build side) and
//! holds every answer to the interpreter.
//!
//! ## One entry point: `run` and `ExecOptions`
//!
//! Every query — single-relation or join, plain or hinted, bounded or
//! not — goes through one method:
//! [`H2oEngine::run`](h2o_core::H2oEngine::run) takes a
//! [`Request`](h2o_core::Request) (a query shape plus composable
//! [`ExecOptions`](h2o_core::ExecOptions)) and returns an
//! [`Outcome`](h2o_core::Outcome): the result rows, the exact snapshot
//! they were computed from, and the [`Report`](h2o_core::Report) of what
//! the engine did for this request alone (plan, layouts read, layout
//! created), which no concurrent client can overwrite. Options compose
//! freely — there is no method-per-combination family (the old
//! `H2oEngine::execute_*` methods are gone):
//!
//! ```
//! use h2o::prelude::*;
//! use std::time::Duration;
//!
//! let relation = Relation::columnar(
//!     Schema::with_width(3).into_shared(),
//!     vec![(0..1000).collect(), (0..1000).rev().collect(), vec![7; 1000]],
//! ).unwrap();
//! let engine = H2oEngine::new(relation, EngineConfig::default());
//!
//! let q = Query::project(
//!     [Expr::col(1u32)],
//!     Conjunction::of([Predicate::lt(0u32, 100)]),
//! ).unwrap();
//!
//! // A selectivity hint *and* a deadline *and* a morsel budget on the
//! // same request — the options compose.
//! let out = engine
//!     .run(Request::query(&q)
//!         .hint(0.1)
//!         .deadline(Duration::from_secs(5))
//!         .budget(1 << 20))
//!     .unwrap();
//! assert_eq!(out.result.rows(), 100);
//!
//! // The outcome carries the snapshot the answer came from, so any
//! // caller can re-derive it differentially:
//! let want = h2o::expr::interpret(out.snapshot.primary(), &q).unwrap();
//! assert_eq!(out.result.fingerprint(), want.fingerprint());
//!
//! // ...and its own report: the hinted estimate it planned with, and no
//! // layout built (nothing was pending yet).
//! let report = out.report.query().unwrap();
//! assert_eq!(report.selectivity_estimate, 0.1);
//! assert_eq!(report.created_layout, None);
//! ```
//!
//! This is also the server's API: the `h2o-server` crate speaks a
//! line-delimited JSON protocol whose per-request `opts` object mirrors
//! `ExecOptions` field-for-field (see the README's "Serving" section).
//!
//! ## Parallel execution (deviation from the paper)
//!
//! The paper's prototype executes each query on one thread. This
//! reproduction adds **morsel-driven intra-query parallelism** across all
//! three execution strategies and the online-reorganization operator: scans
//! split into fixed-size row morsels that worker threads claim greedily,
//! and per-morsel partials are re-assembled deterministically (projection
//! blocks concatenated in row order, aggregate accumulators merged, online
//! reorganization stitching disjoint blocks of the new layout), so parallel
//! results are **bit-identical** to serial ones. One
//! [`EngineConfig`](h2o_core::EngineConfig) value controls it:
//! `parallelism: Option<usize>`, the worker count — `None` = all available
//! cores, `Some(1)` = the paper-faithful serial path
//! ([`EngineConfig::single_threaded`](h2o_core::EngineConfig::single_threaded)).
//! Morsels are 65 536 rows, and relations of at most 16 384 rows always
//! run serially, so tiny scans never pay fork/join overhead
//! ([`ExecPolicy`](h2o_exec::ExecPolicy)'s defaults).
//!
//! See `h2o_exec::parallel` for the scheduler and the determinism argument;
//! `tests/parallelism.rs` pins parallel ≡ serial.
//!
//! ## Concurrent serving (deviation from the paper)
//!
//! The engine is shared: [`H2oEngine::run`](h2o_core::H2oEngine::run)
//! takes `&self`, so any number of client threads can query one engine
//! (wrap it in an `Arc` or borrow it into scoped threads). Reads are
//! **snapshot-isolated**: each request pins the currently published
//! [`DbSnapshot`](h2o_core::DbSnapshot) — one `Arc<LayoutCatalog>`
//! ([`storage::CatalogSnapshot`]) per relation, all from one point in
//! time — and plans, compiles and scans against that immutable version.
//! Appends, relation bindings, explicit layout administration and
//! adaptive reorganization serialize behind a writer lock and publish a
//! new `DbSnapshot` in one atomic swap — in-flight readers keep theirs
//! and never block. Group payloads are
//! **segmented** (64K-row `Arc`-shared segments plus a tail of `Arc`-shared
//! 1K-row chunks), so the copy-on-write cost of an append batch is
//! O(batch + one chunk per layout), independent of relation and tail size
//! (`EngineStats::bytes_cloned_on_write` exposes it, and
//! `tests/segmentation.rs` pins the bound). With
//! [`EngineConfig::background_reorg`](h2o_core::EngineConfig::background_reorg),
//! reorganization moves entirely off the query path onto a background
//! reorganizer
//! ([`H2oEngine::spawn_reorganizer`](h2o_core::H2oEngine::spawn_reorganizer)
//! or an explicit
//! [`maintain()`](h2o_core::H2oEngine::maintain) pump). The
//! `tests/concurrency.rs` stress suite pins all of this differentially
//! against the serial interpreter.
//!
//! ## Fault tolerance (deviation from the paper)
//!
//! The paper's prototype aborts on any failure; this reproduction keeps
//! serving. Query execution and the write path run under panic
//! isolation: a panic surfaces as the typed
//! [`EngineError::ExecutionPanicked`](h2o_core::EngineError) — the
//! engine stays fully usable, since a failing operation abandons its
//! private copy-on-write clone before anything is published. Queries are
//! cooperatively cancellable
//! ([`ExecOptions::cancel`](h2o_core::ExecOptions::cancel) with a shared
//! [`CancelToken`](h2o_core::CancelToken)), deadline-bounded
//! ([`ExecOptions::deadline`](h2o_core::ExecOptions::deadline))
//! and work-bounded
//! ([`ExecOptions::budget`](h2o_core::ExecOptions::budget)), returning
//! `EngineError::Cancelled` / `EngineError::Timeout` /
//! `EngineError::BudgetExhausted` without publishing any partial state. The background reorganizer is supervised:
//! [`H2oEngine::spawn_reorganizer`](h2o_core::H2oEngine::spawn_reorganizer)
//! restarts a panicked maintenance round with capped exponential backoff
//! and reports health through
//! [`ReorganizerHandle::status`](h2o_core::ReorganizerHandle::status).
//! All of it is exercised by `tests/faults.rs`, a seeded chaos suite
//! over deterministic fault-injection sites
//! (`h2o_storage::failpoints`, compiled only under
//! `--features failpoints`); with the feature off the sites compile to
//! nothing. See the README's
//! "Failure model" section for the full contract.
//!
//! The crates behind this facade:
//!
//! | crate | contents |
//! |---|---|
//! | [`storage`] | column groups, layout catalog (Data Layout Manager) |
//! | [`expr`] | queries (single-relation and join), expressions, the interpreted generic + join operators |
//! | [`exec`] | execution strategies, specialized kernels (incl. hash join), operator cache |
//! | [`cost`] | Eq. 1 / Eq. 2 cost model (cache-miss CPU model) + join build/probe pricing |
//! | [`adapt`] | monitoring window, affinity matrices, candidate adviser |
//! | [`partition`] | AutoPart offline baseline, brute-force oracle |
//! | [`core`] | the adaptive multi-relation engine, static baselines, optimal oracle |
//! | [`server`] | TCP serving front end: line-delimited JSON over `run(Request)`, admission control, prepared statements, graceful drain |
//! | [`workload`] | benchmark data/query generators (incl. synthetic SkyServer + join workload) |

pub use h2o_adapt as adapt;
pub use h2o_core as core;
pub use h2o_cost as cost;
pub use h2o_exec as exec;
pub use h2o_expr as expr;
pub use h2o_partition as partition;
pub use h2o_server as server;
pub use h2o_storage as storage;
pub use h2o_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use h2o_core::{
        CancelToken, DbSnapshot, EngineConfig, EngineStats, ExecOptions, H2oEngine,
        MaintenanceReport, Outcome, ReorganizerHandle, Request, StaticEngine, StaticKind,
    };
    pub use h2o_expr::{
        Aggregate, ArithOp, CmpOp, Conjunction, Expr, Predicate, Query, QueryResult,
    };
    pub use h2o_storage::{AttrId, AttrSet, CatalogSnapshot, Relation, Schema, Value};
}

/// The README's Rust blocks, compiled and run as doctests so a snippet
/// that calls a removed API fails `cargo test` (fragments that are not
/// whole programs are fenced `rust,ignore`).
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
