//! The H2O engine: query processor + adaptation mechanism (paper Fig. 3),
//! shared across concurrent clients.
//!
//! # Concurrency model
//!
//! The engine is queried through `&self` and is `Send + Sync`: wrap it in an
//! `Arc` (or borrow it into scoped threads) and any number of clients can
//! call [`H2oEngine::run`] at once.
//!
//! * **Snapshot-isolated reads.** Every relation's catalog is published in
//!   one [`DbSnapshot`] behind a single swap point. A request clones it
//!   once and plans, compiles and scans against that immutable version — it
//!   can never observe a torn catalog, a half-appended batch, a
//!   half-admitted layout, or two relations from different writes.
//! * **Serialized writes.** Appends, bindings, layout materialization and
//!   drops run behind one writer mutex. A writer clones the current
//!   catalog value (cheap: groups are `Arc`-shared inside the catalog),
//!   mutates the clone, and atomically publishes it. In-flight readers
//!   keep their old snapshot and never block.
//! * **Off-path adaptation.** With
//!   [`EngineConfig::background_reorg`] set, the query path only *observes*
//!   patterns; advice and reorganization happen in [`H2oEngine::maintain`]
//!   — pump it explicitly or let [`H2oEngine::spawn_reorganizer`] run it on
//!   a dedicated thread. New groups are built from a snapshot with the
//!   parallel `reorg` kernels and published atomically. With the flag off
//!   the paper's lazy fused materialization runs on the query path as
//!   before (serialized behind the writer lock; a contended lock simply
//!   skips the lazy path for that query).

use crate::config::EngineConfig;
use crate::request::{ExecOptions, Outcome, Request, RequestKind};
use crate::stats::EngineStats;
use h2o_adapt::{Adviser, MonitoringWindow};
use h2o_cost::{AccessPattern, CostModel, GroupSpec, JoinRole};
use h2o_exec::{
    reorg, AccessPlan, CancelToken, ExecCtx, ExecError, JoinExecStats, OperatorCache, Strategy,
};
use h2o_expr::{Conjunction, JoinQuery, Query, QueryError, Select, Side};
use h2o_storage::{
    failpoints, AttrId, AttrSet, CatalogSnapshot, ColumnGroup, LayoutCatalog, LayoutId, Relation,
    Schema, StorageError,
};
use parking_lot::{Mutex, RwLock};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::any::Any;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    Exec(ExecError),
    Storage(StorageError),
    /// The query failed plan-time validation against the schema — most
    /// prominently [`QueryError::TypeMismatch`] for cross-type predicates
    /// or arithmetic. Raised before planning, monitoring or adaptation see
    /// the query.
    Query(QueryError),
    /// Query execution panicked. The panic was caught at the engine
    /// boundary (it never crosses into the caller and never aborts the
    /// process); `payload` is the stringified panic message. The engine
    /// stays fully usable — no lock is poisoned (the vendored
    /// `parking_lot` recovers poisoned state) and no partial catalog
    /// version was published (copy-on-write mutations are simply
    /// abandoned).
    ExecutionPanicked {
        /// The panic message, best-effort stringified.
        payload: String,
    },
    /// The query's [`CancelToken`] was cancelled before it finished. It
    /// returns no [`Outcome`], so no report (the last-report shims are not
    /// written), and publishes no partial result, catalog version or
    /// statistics feedback. Its compiled operator may
    /// stay in the operator cache: the operator depends only on the query
    /// shape, the plan and the layouts' lineage, so caching it changes no
    /// answer.
    Cancelled,
    /// The query's deadline
    /// ([`ExecOptions::deadline`](crate::ExecOptions::deadline)) expired
    /// before it finished. Same no-partial-effects guarantee as
    /// [`EngineError::Cancelled`].
    Timeout,
    /// The query's morsel budget
    /// ([`ExecOptions::budget`](crate::ExecOptions::budget)) ran out
    /// before it finished. Same no-partial-effects guarantee as
    /// [`EngineError::Cancelled`].
    BudgetExhausted,
    /// The OS refused to spawn a background thread
    /// ([`H2oEngine::spawn_reorganizer`]). Recoverable: the engine keeps
    /// working, callers can degrade to pumping
    /// [`H2oEngine::maintain`] inline.
    Spawn(String),
    /// A relation-binding operation was invalid — e.g.
    /// [`H2oEngine::add_relation`] with the reserved primary name.
    /// (Resolving a name the engine does not hold is
    /// [`QueryError::UnknownRelation`] under [`EngineError::Query`].)
    Relation(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Exec(e) => write!(f, "execution error: {e}"),
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::Query(e) => write!(f, "invalid query: {e}"),
            EngineError::ExecutionPanicked { payload } => {
                write!(f, "query execution panicked: {payload}")
            }
            EngineError::Cancelled => write!(f, "query cancelled"),
            EngineError::Timeout => write!(f, "query deadline expired"),
            EngineError::BudgetExhausted => write!(f, "query morsel budget exhausted"),
            EngineError::Spawn(e) => write!(f, "failed to spawn engine thread: {e}"),
            EngineError::Relation(e) => write!(f, "relation binding error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ExecError> for EngineError {
    fn from(e: ExecError) -> Self {
        // Surface plan-time validation failures uniformly as Query errors,
        // and cooperative-stop outcomes as their own first-class variants,
        // no matter which layer caught them.
        match e {
            ExecError::Query(q) => EngineError::Query(q),
            ExecError::Cancelled => EngineError::Cancelled,
            ExecError::DeadlineExpired => EngineError::Timeout,
            ExecError::BudgetExhausted => EngineError::BudgetExhausted,
            other => EngineError::Exec(other),
        }
    }
}

/// Best-effort stringification of a caught panic payload (`&str` and
/// `String` payloads cover `panic!`/`assert!`/`expect` in practice).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<QueryError> for EngineError {
    fn from(e: QueryError) -> Self {
        EngineError::Query(e)
    }
}

/// What the engine did for one single-relation query — the introspection
/// hook that annotates per-query timelines (Fig. 7's "queries 23 and 29
/// pay the creation overhead").
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReport {
    /// Strategy of the executed plan (`FusedVolcano` for fused
    /// reorganization queries).
    pub strategy: Strategy,
    /// Layouts the plan read.
    pub layouts: Vec<LayoutId>,
    /// The layout materialized during this query, if any.
    pub created_layout: Option<LayoutId>,
    /// The cost model's estimate for the chosen plan.
    pub estimated_cost: f64,
    /// Selectivity estimate used for planning.
    pub selectivity_estimate: f64,
}

/// The reserved name of the engine's primary relation — the one passed to
/// [`H2oEngine::new`] and served by the single-relation query path. Join
/// queries bind it by this name; [`H2oEngine::add_relation`] cannot rebind
/// it.
pub const PRIMARY_RELATION: &str = "R";

/// A consistent point-in-time view of every relation the engine serves:
/// the primary relation's catalog version plus the version of each named
/// secondary relation, as one write published them. It is the engine's
/// only published value, so every relation in it coexisted. A join
/// resolves **both** of its sides against one `DbSnapshot` — the
/// multi-relation extension of the engine's snapshot isolation.
#[derive(Debug, Clone)]
pub struct DbSnapshot {
    primary: CatalogSnapshot,
    named: Arc<HashMap<String, CatalogSnapshot>>,
}

impl DbSnapshot {
    /// The primary relation's catalog version.
    pub fn primary(&self) -> &CatalogSnapshot {
        &self.primary
    }

    /// Resolves a relation name ([`PRIMARY_RELATION`] or a name bound via
    /// [`H2oEngine::add_relation`]) to its catalog version.
    pub fn relation(&self, name: &str) -> Result<&CatalogSnapshot, QueryError> {
        if name == PRIMARY_RELATION {
            return Ok(&self.primary);
        }
        self.named
            .get(name)
            .ok_or_else(|| QueryError::UnknownRelation(name.to_string()))
    }

    /// Every relation name this snapshot can resolve, primary first, the
    /// rest sorted.
    pub fn relation_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.named.keys().cloned().collect();
        names.sort();
        names.insert(0, PRIMARY_RELATION.to_string());
        names
    }
}

/// What the engine did for one join query — build-side choice, per-side
/// plans and selectivity estimates, and the executed join's cardinality
/// counters.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinReport {
    /// Whether the left relation was the hash-table build side.
    pub build_is_left: bool,
    /// Strategy of the left side's qualifying-row scan.
    pub left_strategy: Strategy,
    /// Strategy of the right side's qualifying-row scan.
    pub right_strategy: Strategy,
    /// Layouts the left side's plan read.
    pub left_layouts: Vec<LayoutId>,
    /// Layouts the right side's plan read.
    pub right_layouts: Vec<LayoutId>,
    /// The cost model's estimate for the chosen order (build + probe).
    pub estimated_cost: f64,
    /// Selectivity estimate used for the left side.
    pub left_selectivity_estimate: f64,
    /// Selectivity estimate used for the right side.
    pub right_selectivity_estimate: f64,
    /// Observed per-side cardinalities of the executed join.
    pub exec: JoinExecStats,
}

/// What the engine did for one request ([`Outcome::report`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Report {
    Query(QueryReport),
    Join(JoinReport),
}

impl Report {
    /// The single-relation query's report, if this is one.
    pub fn query(&self) -> Option<&QueryReport> {
        match self {
            Report::Query(r) => Some(r),
            Report::Join(_) => None,
        }
    }

    /// The join's report, if this is one.
    pub fn join(&self) -> Option<&JoinReport> {
        match self {
            Report::Join(r) => Some(r),
            Report::Query(_) => None,
        }
    }
}

/// What one [`H2oEngine::maintain`] pump did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Whether a due adaptation round ran (adviser invocation).
    pub adapted: bool,
    /// Pending layouts built and published by this pump.
    pub layouts_built: usize,
}

/// The adaptive engine, shareable across threads (`run(&self, ...)`).
pub struct H2oEngine {
    config: EngineConfig,
    model: CostModel,
    adviser: Adviser,
    opcache: OperatorCache,
    /// The publish point: the currently visible version of every relation.
    /// Readers clone it (snapshot isolation); writers swap in a new one
    /// through [`Self::publish`].
    db: RwLock<DbSnapshot>,
    /// Serializes every catalog mutation (append / bind / reorganize /
    /// drop). Readers never take it.
    writer: Mutex<()>,
    /// The monitoring window every request's patterns feed. One coarse
    /// mutex: an observation is a few comparisons against at most
    /// `WindowConfig::max` patterns, never meaningful next to a scan.
    window: Mutex<MonitoringWindow>,
    /// Layouts recommended by the last adaptation round, awaiting
    /// materialization (lazy on the query path, or eager in `maintain()`).
    /// Specs leave it by value ([`Self::retire`]), never by index.
    pending: Mutex<Vec<GroupSpec>>,
    /// Set when the window completes an interval in background-reorg mode;
    /// consumed by the next `maintain()` pump.
    adapt_due: AtomicBool,
    /// Coalesces lazy-mode adaptation rounds: the window keeps reporting
    /// "interval complete" until `adaptation_done` resets it, so without
    /// this guard N concurrent queries would each run a redundant adviser
    /// round (and grow the window N times too fast).
    adapt_running: AtomicBool,
    stats: Mutex<EngineStats>,
    /// Observed selectivity per [`Self::sel_key`] (exponentially smoothed),
    /// for single-relation filters and join sides alike.
    sel_history: Mutex<HashMap<u64, f64>>,
    /// The last successful request's report, for the last-report shims.
    /// Only [`Self::run`] writes it.
    last: Mutex<Option<Report>>,
}

// Compile-time proof the engine may be shared across client threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<H2oEngine>();
};

impl H2oEngine {
    /// Wraps a relation (with whatever initial layouts it carries) into an
    /// adaptive engine. The paper stresses H2O "can adapt regardless of the
    /// initial data layout".
    pub fn new(relation: Relation, config: EngineConfig) -> Self {
        H2oEngine {
            window: Mutex::new(MonitoringWindow::new(config.window)),
            adviser: Adviser::default(),
            model: CostModel,
            opcache: OperatorCache::new(config.opcache_capacity, config.compile_cost),
            db: RwLock::new(DbSnapshot {
                primary: Arc::new(relation.into_catalog()),
                named: Arc::new(HashMap::new()),
            }),
            writer: Mutex::new(()),
            config,
            pending: Mutex::new(Vec::new()),
            adapt_due: AtomicBool::new(false),
            adapt_running: AtomicBool::new(false),
            stats: Mutex::new(EngineStats::default()),
            sel_history: Mutex::new(HashMap::new()),
            last: Mutex::new(None),
        }
    }

    /// The currently published catalog version of the primary relation.
    /// The returned snapshot is immutable and stays fully readable (and
    /// row-aligned) no matter what writers publish afterwards.
    pub fn snapshot(&self) -> CatalogSnapshot {
        self.db.read().primary.clone()
    }

    /// The layout catalog (Data Layout Manager state) — an alias for
    /// [`Self::snapshot`] kept for the established `engine.catalog()` call
    /// sites.
    pub fn catalog(&self) -> CatalogSnapshot {
        self.snapshot()
    }

    /// The published point-in-time view of every relation the engine
    /// serves: one swap point read once, so its relations coexisted.
    /// Requests (both sides of a join included) run against one of these.
    pub fn db_snapshot(&self) -> DbSnapshot {
        self.db.read().clone()
    }

    /// Binds a named secondary relation. Rebinding an existing name
    /// replaces it atomically (in-flight snapshots keep the old version);
    /// binding the reserved primary name ([`PRIMARY_RELATION`]) is an
    /// error. Secondary relations are served by the multi-relation query
    /// path ([`Request::join`] through [`Self::run`]) and
    /// [`Self::insert_into`]; the adaptation mechanism observes and
    /// reorganizes only the primary.
    pub fn add_relation(&self, name: &str, relation: Relation) -> Result<(), EngineError> {
        if name == PRIMARY_RELATION {
            return Err(EngineError::Relation(format!(
                "{PRIMARY_RELATION:?} is the reserved primary relation name"
            )));
        }
        self.mutate(|| {
            self.publish(name, relation.into_catalog());
            Ok(())
        })
    }

    /// Appends tuples to a named relation ([`PRIMARY_RELATION`] or a bound
    /// secondary): [`Self::insert`] semantics (atomic publish, every
    /// coexisting layout receives the rows), addressed by name.
    pub fn insert_into(
        &self,
        name: &str,
        tuples: &[Vec<h2o_storage::Value>],
    ) -> Result<(), EngineError> {
        if tuples.is_empty() {
            self.db_snapshot().relation(name)?; // still validate the name
            return Ok(());
        }
        self.mutate(|| {
            let mut new_cat = (**self.db_snapshot().relation(name)?).clone();
            let delta = new_cat.append_rows(tuples)?;
            {
                let mut s = self.stats.lock();
                s.rows_appended += tuples.len() as u64;
                s.bytes_cloned_on_write += delta.bytes_cloned;
                s.segments_sealed += delta.segments_sealed;
            }
            self.publish(name, new_cat);
            Ok(())
        })
    }

    /// The write-path counterpart of [`Self::guarded`]: runs one catalog
    /// mutation behind the writer lock with panics isolated. Copy-on-write
    /// discipline means an unwound mutation abandons its clone before the
    /// publish swap, so readers keep the old version and the engine stays
    /// consistent and usable; the panic surfaces as
    /// [`EngineError::ExecutionPanicked`].
    fn mutate<T>(&self, f: impl FnOnce() -> Result<T, EngineError>) -> Result<T, EngineError> {
        catch_unwind(AssertUnwindSafe(|| {
            let _w = self.writer.lock();
            f()
        }))
        .unwrap_or_else(|payload| {
            self.stats.lock().queries_panicked += 1;
            Err(EngineError::ExecutionPanicked {
                payload: panic_message(payload.as_ref()),
            })
        })
    }

    /// The one publish: swaps in (and counts) a [`DbSnapshot`] that binds
    /// `name` to `catalog`. Callers must hold the writer lock.
    fn publish(&self, name: &str, catalog: LayoutCatalog) -> DbSnapshot {
        failpoints::hit("catalog_publish");
        let mut db = self.db_snapshot();
        let catalog = Arc::new(catalog);
        if name == PRIMARY_RELATION {
            db.primary = catalog;
        } else {
            Arc::make_mut(&mut db.named).insert(name.to_string(), catalog);
        }
        *self.db.write() = db.clone();
        self.stats.lock().snapshots_published += 1;
        db
    }

    /// Engine statistics.
    pub fn stats(&self) -> EngineStats {
        let mut s = *self.stats.lock();
        s.shifts_detected = self.window.lock().shifts_detected();
        s
    }

    /// Operator-cache statistics (hits/misses/measured compile time).
    pub fn opcache_stats(&self) -> h2o_exec::opcache::CacheStats {
        self.opcache.stats()
    }

    /// Current monitoring-window size.
    pub fn window_size(&self) -> usize {
        self.window.lock().size()
    }

    /// Layouts recommended but not yet materialized (a point-in-time copy).
    pub fn pending(&self) -> Vec<GroupSpec> {
        self.pending.lock().clone()
    }

    /// The most recent successful request's report, if it was a
    /// single-relation query. Racy under concurrent clients: read
    /// [`Outcome::report`]. Kept, with [`Self::last_join_report`], only for
    /// the frozen benchmark harness; ROADMAP item 9 deletes both.
    pub fn last_report(&self) -> Option<QueryReport> {
        self.last.lock().as_ref()?.query().cloned()
    }

    /// The most recent successful request's report, if it was a join.
    pub fn last_join_report(&self) -> Option<JoinReport> {
        self.last.lock().as_ref()?.join().cloned()
    }

    /// The exponentially smoothed selectivity the engine has observed for
    /// single-relation queries with `q`'s filter, if any.
    pub fn observed_selectivity(&self, q: &Query) -> Option<f64> {
        self.observed(None, q.filter())
    }

    /// The exponentially smoothed selectivity the engine has observed for
    /// `side`'s residual filter of join queries shaped like `q`, if any.
    pub fn observed_join_selectivity(&self, q: &JoinQuery, side: Side) -> Option<f64> {
        self.observed(Some(q.rel(side).name()), q.filter(side))
    }

    /// Executes one [`Request`] — **the** engine entry point. The request
    /// carries the query shape (single-relation or join) and its
    /// composable [`ExecOptions`] (selectivity hint, deadline, cancel
    /// token, morsel budget, forced build side).
    ///
    /// Single-relation queries adapt as a side effect: the access pattern
    /// feeds the monitoring window, and (in lazy mode) a beneficial
    /// pending layout is materialized fused with the answer. Join
    /// requests resolve both sides against one [`DbSnapshot`]; the build
    /// side is chosen **greedily from observed per-predicate
    /// selectivity** — the side with fewer estimated post-filter rows
    /// builds the hash table — unless the request forces it. Sides bound
    /// to the primary relation feed the monitoring window, so a join
    /// workload drives the adviser toward key+payload column groups.
    ///
    /// A stopped request (cancelled, past its deadline, over its morsel
    /// budget) fails with the matching typed error and publishes
    /// **nothing** — no result rows, no catalog version, no report, no
    /// statistics feedback. Only the operator it compiled may stay
    /// cached, which changes no answer: an operator depends only on the
    /// query shape, the plan and the layouts' lineage.
    ///
    /// The returned [`Outcome`] carries the result rows, the snapshot
    /// they were computed against (for an oracle check on the same data)
    /// and the request's own [`Report`], which `run` also copies into the
    /// last-report shims.
    pub fn run(&self, req: Request<'_>) -> Result<Outcome, EngineError> {
        let opts = &req.opts;
        self.guarded(opts, |ctx| {
            let out = match req.kind {
                RequestKind::Query(q) => self.execute_attempt(q, opts.selectivity_hint, ctx)?,
                RequestKind::Join(q) => {
                    let forced_build_is_left = opts.build_side.map(|s| s == Side::Left);
                    self.execute_join_attempt(q, forced_build_is_left, ctx)?
                }
            };
            *self.last.lock() = Some(out.report.clone());
            Ok(out)
        })
    }

    /// The shared execution guard of every request kind: resolves the
    /// request's stop token into the [`ExecCtx`] the attempt runs under,
    /// isolates panics, and keeps the failure counters.
    ///
    /// Panic isolation: a kernel or reorganization panic is caught here —
    /// below any engine lock acquisition (the vendored `parking_lot`
    /// recovers poisoned state anyway) and above the caller — and surfaced
    /// as a typed error. Copy-on-write discipline means an unwound
    /// mutation left no trace: the catalog swap happens only after a build
    /// fully succeeds.
    fn guarded<T>(
        &self,
        opts: &ExecOptions,
        attempt: impl FnOnce(&ExecCtx<'_>) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let token = Self::resolve_token(opts);
        let ctx = ExecCtx {
            cancel: token.as_ref(),
            ..ExecCtx::new(self.config.exec_policy())
        };
        let out = catch_unwind(AssertUnwindSafe(|| attempt(&ctx))).unwrap_or_else(|payload| {
            Err(EngineError::ExecutionPanicked {
                payload: panic_message(payload.as_ref()),
            })
        });
        if let Err(e) = &out {
            self.count_failure(e);
        }
        out
    }

    /// Resolves a request's options into the execution token: the
    /// caller's token (or a fresh one) armed with the request's deadline
    /// and budget, or none when the request sets no stop control.
    fn resolve_token(opts: &ExecOptions) -> Option<CancelToken> {
        let token = match &opts.cancel {
            Some(token) => token.clone(),
            None if opts.deadline.is_some() || opts.morsel_budget.is_some() => {
                CancelToken::default()
            }
            None => return None,
        };
        if let Some(d) = opts.deadline {
            token.arm_deadline(d);
        }
        if let Some(b) = opts.morsel_budget {
            token.set_budget(b);
        }
        Some(token)
    }

    /// Bumps the failure counter matching a typed error outcome.
    fn count_failure(&self, e: &EngineError) {
        let mut s = self.stats.lock();
        match e {
            EngineError::ExecutionPanicked { .. } => s.queries_panicked += 1,
            EngineError::Cancelled => s.queries_cancelled += 1,
            EngineError::Timeout => s.queries_timed_out += 1,
            EngineError::BudgetExhausted => s.queries_budget_exhausted += 1,
            _ => {}
        }
    }

    fn execute_join_attempt(
        &self,
        q: &JoinQuery,
        forced_build_is_left: Option<bool>,
        ctx: &ExecCtx<'_>,
    ) -> Result<Outcome, EngineError> {
        // Plan-time type gate, as on the single-relation path: join keys
        // must share a logical type, dict keys join on codes only when the
        // dictionaries are shared, measures must be typed.
        let checked = h2o_expr::check_join(q)?;
        let db = self.db_snapshot();
        let left = db.relation(q.left().name())?.clone();
        let right = db.relation(q.right().name())?.clone();
        Self::check_schema_binding(q, Side::Left, left.schema())?;
        Self::check_schema_binding(q, Side::Right, right.schema())?;

        self.stats.lock().queries += 1;

        // Per-side patterns with selectivity from observed history.
        let side_sel =
            |side| self.estimate_selectivity(Some(q.rel(side).name()), q.filter(side), None);
        let (lsel, rsel) = (side_sel(Side::Left), side_sel(Side::Right));
        let lpat = AccessPattern::of_join_side(q, Side::Left, lsel);
        let rpat = AccessPattern::of_join_side(q, Side::Right, rsel);
        let (lplan, lcost) = self.plan_on(&left, &lpat)?;
        let (rplan, rcost) = self.plan_on(&right, &rpat)?;

        // Greedy selectivity-driven ordering: build over the side with
        // fewer estimated post-filter rows — physical row count (a
        // property of the snapshot, not a statistic) scaled by observed
        // selectivity. Ties build left.
        let l_est = left.rows() as f64 * lsel;
        let r_est = right.rows() as f64 * rsel;
        let build_is_left = forced_build_is_left.unwrap_or(l_est <= r_est);

        let (lrole, rrole) = if build_is_left {
            (JoinRole::Build, JoinRole::Probe)
        } else {
            (JoinRole::Probe, JoinRole::Build)
        };
        let cost = self.model.join_side_cost(&lpat, lcost, left.rows(), lrole)
            + self.model.join_side_cost(&rpat, rcost, right.rows(), rrole);

        let op = self.opcache.get_or_compile_join(
            &left,
            &right,
            &lplan,
            &rplan,
            q,
            &checked,
            build_is_left,
        )?;
        let (result, exec) = h2o_exec::run_join(&left, &right, &op, ctx)?;
        let skipped = exec.build_segments_skipped + exec.probe_segments_skipped;
        if skipped > 0 || exec.probe_bloom_rejects > 0 {
            let mut stats = self.stats.lock();
            stats.segments_skipped += skipped;
            stats.probe_bloom_rejects += exec.probe_bloom_rejects;
        }

        // Per-side selectivity feedback from the executed join's observed
        // post-filter cardinalities. An early-exited probe side (empty
        // build) scanned nothing and reports nothing.
        let ratio = |rows: usize, input: usize| (input > 0).then(|| rows as f64 / input as f64);
        let (l_obs, r_obs) = if exec.build_is_left {
            (
                ratio(exec.build_rows, exec.build_input_rows),
                ratio(exec.probe_rows, exec.probe_input_rows),
            )
        } else {
            (
                ratio(exec.probe_rows, exec.probe_input_rows),
                ratio(exec.build_rows, exec.build_input_rows),
            )
        };
        for (side, obs) in [(Side::Left, l_obs), (Side::Right, r_obs)] {
            if let Some(observed) = obs {
                self.record_selectivity(Some(q.rel(side).name()), q.filter(side), observed);
            }
        }

        // Monitoring: sides bound to the primary relation are observed as
        // access patterns (key + payload = select, residual filter =
        // where), so the adviser learns join-shaped column groups.
        // Secondary relations are static this PR — observing their
        // patterns into the primary's window would only pollute it.
        let primary: Vec<&AccessPattern> = [(Side::Left, &lpat), (Side::Right, &rpat)]
            .into_iter()
            .filter(|(side, _)| q.rel(*side).name() == PRIMARY_RELATION)
            .map(|(_, pat)| pat)
            .collect();
        self.observe(primary.iter().map(|&pat| pat.clone()));

        // Lazy materialization, join flavour: the fused reorg-and-execute
        // operator only answers single-relation shapes, so a beneficial
        // pending group is built right after answering — the next join
        // over this shape runs on the improved layout. The join already
        // has its answer, so a failed build only leaves the spec pending.
        for pat in primary {
            let _ = self.try_pending(None, pat, ctx);
        }

        Ok(Outcome {
            result,
            snapshot: db,
            report: Report::Join(JoinReport {
                build_is_left,
                left_strategy: lplan.strategy,
                right_strategy: rplan.strategy,
                left_layouts: lplan.layouts,
                right_layouts: rplan.layouts,
                estimated_cost: cost,
                left_selectivity_estimate: lsel,
                right_selectivity_estimate: rsel,
                exec,
            }),
        })
    }

    /// Rejects a join whose relation binding was typed against a schema
    /// other than the engine's — binding is by name, and a stale or
    /// foreign schema would make attribute ids (and dictionary codes)
    /// silently mean the wrong thing.
    fn check_schema_binding(
        q: &JoinQuery,
        side: Side,
        actual: &Arc<Schema>,
    ) -> Result<(), EngineError> {
        let bound = q.rel(side).schema();
        let same = Arc::ptr_eq(bound, actual)
            || (bound.len() == actual.len()
                && (0..bound.len()).all(|i| {
                    bound.attr(AttrId::from(i)).ok() == actual.attr(AttrId::from(i)).ok()
                }));
        if same {
            Ok(())
        } else {
            Err(EngineError::Query(QueryError::TypeMismatch(format!(
                "join query was typed against a different schema for relation {}",
                q.rel(side).name()
            ))))
        }
    }

    /// Selectivity assumed for a filter never observed before.
    const DEFAULT_SELECTIVITY: f64 = 0.5;

    /// The selectivity-history key: `filter`'s predicates (constants
    /// included), mixed with the relation name for a join side. The name
    /// keeps a join side's history apart from a single-relation query's
    /// and one relation's from another's, because the same filter can be
    /// arbitrarily more or less selective on different data.
    /// Single-relation queries pass `None`.
    fn sel_key(relation: Option<&str>, filter: &Conjunction) -> u64 {
        let mut h = DefaultHasher::new();
        if let Some(name) = relation {
            name.hash(&mut h);
        }
        for p in filter.predicates() {
            p.hash(&mut h);
        }
        h.finish()
    }

    /// The smoothed observed selectivity under [`Self::sel_key`], if any;
    /// a filter that is always true has no history.
    fn observed(&self, relation: Option<&str>, filter: &Conjunction) -> Option<f64> {
        if filter.is_always_true() {
            return None;
        }
        let key = Self::sel_key(relation, filter);
        self.sel_history.lock().get(&key).copied()
    }

    /// The planning estimate: 1 without a filter, else the caller's hint,
    /// else the observed history, else [`Self::DEFAULT_SELECTIVITY`].
    fn estimate_selectivity(
        &self,
        relation: Option<&str>,
        filter: &Conjunction,
        hint: Option<f64>,
    ) -> f64 {
        if filter.is_always_true() {
            return 1.0;
        }
        hint.map(|h| h.clamp(0.0, 1.0))
            .or_else(|| self.observed(relation, filter))
            .unwrap_or(Self::DEFAULT_SELECTIVITY)
    }

    /// Folds one observed selectivity into the exponentially smoothed
    /// history under [`Self::sel_key`] (nothing for an always-true filter).
    fn record_selectivity(&self, relation: Option<&str>, filter: &Conjunction, observed: f64) {
        if filter.is_always_true() {
            return;
        }
        let mut hist = self.sel_history.lock();
        let entry = hist
            .entry(Self::sel_key(relation, filter))
            .or_insert(observed);
        *entry = 0.5 * *entry + 0.5 * observed;
    }

    fn execute_attempt(
        &self,
        q: &Query,
        selectivity_hint: Option<f64>,
        ctx: &ExecCtx<'_>,
    ) -> Result<Outcome, EngineError> {
        // Plan-time type gate: an ill-typed query (cross-type predicate or
        // arithmetic, ordered dict comparison, dict measure) is rejected
        // here, before planning, monitoring or adaptation observe it. The
        // typing is threaded into operator-cache lookups so validation
        // runs once per query, not once per layer.
        let checked = h2o_expr::typecheck::check(q, self.snapshot().schema())?;

        self.stats.lock().queries += 1;
        let sel = self.estimate_selectivity(None, q.filter(), selectivity_hint);
        let pattern = AccessPattern::of(q, sel);

        let out = match self.try_pending(Some(q), &pattern, ctx)? {
            Some(out) => out,
            None => {
                let db = self.db_snapshot();
                let snap = db.primary();
                let (plan, cost) = self.plan_on(snap, &pattern)?;
                let op = self
                    .opcache
                    .get_or_compile_checked(snap, &plan, q, &checked)?;
                let (result, exec_stats) = h2o_exec::run(snap, &op, ctx)?;
                if exec_stats.segments_skipped > 0 {
                    self.stats.lock().segments_skipped += exec_stats.segments_skipped;
                }
                Outcome {
                    result,
                    snapshot: db,
                    report: Report::Query(QueryReport {
                        strategy: plan.strategy,
                        layouts: plan.layouts,
                        created_layout: None,
                        estimated_cost: cost,
                        selectivity_estimate: sel,
                    }),
                }
            }
        };

        // Selectivity feedback (projection queries expose the match count;
        // grouped queries do not — their row count is the distinct-key
        // count, not the qualifying-tuple count).
        let rows = out.snapshot.primary().rows();
        if matches!(q.select_clause(), Select::Project(_)) && rows > 0 {
            let observed = out.result.rows() as f64 / rows as f64;
            self.record_selectivity(None, q.filter(), observed);
        }
        self.observe([pattern]);
        Ok(out)
    }

    /// Monitoring + periodic adaptation: feeds the executed request's
    /// access patterns to the window and, when that completes an interval,
    /// triggers the adaptation round. In background mode the query path
    /// only flags that a round is due; `maintain()` (the reorganizer
    /// thread) runs it off the hot path.
    fn observe(&self, patterns: impl IntoIterator<Item = AccessPattern>) {
        let mut adapt_now = false;
        for pattern in patterns {
            adapt_now |= self.window.lock().observe(pattern);
        }
        if adapt_now && self.config.adaptive {
            if self.config.background_reorg {
                self.adapt_due.store(true, Ordering::Release);
            } else if !self.adapt_running.swap(true, Ordering::AcqRel) {
                // One thread runs the due round; concurrent queries whose
                // observe() also reported the (same) completed interval
                // skip it instead of piling on redundant adviser runs.
                self.adapt();
                self.adapt_running.store(false, Ordering::Release);
            }
        }
    }

    /// Picks the cheapest `(covering layouts, strategy)` plan for a
    /// pattern against the current snapshot: the query-processor half of
    /// Fig. 3. Exposed for tests and the harness (`EXPLAIN`-style
    /// introspection).
    pub fn plan(&self, pattern: &AccessPattern) -> Result<(AccessPlan, f64), EngineError> {
        self.plan_on(&self.snapshot(), pattern)
    }

    /// [`Self::plan`] against an explicit snapshot (so one query plans,
    /// compiles and executes against a single catalog version): the
    /// cost model's [`CostModel::best_plan`] over the snapshot's layouts in
    /// id order.
    fn plan_on(
        &self,
        catalog: &LayoutCatalog,
        pattern: &AccessPattern,
    ) -> Result<(AccessPlan, f64), EngineError> {
        let groups: Vec<&ColumnGroup> = catalog.groups().collect();
        let attrs: Vec<&AttrSet> = groups.iter().map(|g| g.attr_set()).collect();
        let Some(plan) = self.model.best_plan(pattern, &attrs, catalog.rows()) else {
            let missing = catalog.first_uncovered(&pattern.all_attrs());
            return Err(StorageError::NoCover(missing.unwrap_or(AttrId(0))).into());
        };
        let layouts = plan.cover.iter().map(|&i| groups[i].id()).collect();
        Ok((AccessPlan::new(layouts, plan.strategy), plan.cost))
    }

    /// Lazy materialization (§3.2), the one admission for both request
    /// kinds: if a pending layout covers `pattern` and the cost model says
    /// the request benefits, materialize it on the request's path. A
    /// single-relation query (`Some`) is answered *while* the group is
    /// stitched, through the fused reorganization operator, and its
    /// [`Outcome`] returned; a join side (`None`) builds the group offline
    /// and returns no outcome. Runs behind the writer lock; if another
    /// writer holds it, the lazy path is skipped for this request (readers
    /// must never block on reorganization).
    fn try_pending(
        &self,
        q: Option<&Query>,
        pattern: &AccessPattern,
        ctx: &ExecCtx<'_>,
    ) -> Result<Option<Outcome>, EngineError> {
        if !self.config.adaptive || self.config.background_reorg {
            return Ok(None);
        }
        // Cheap screen: only requests that intersect some pending spec may
        // take the writer lock and pay for planning — unrelated requests
        // must never serialize against writers.
        let needed = pattern.all_attrs();
        if !self
            .pending
            .lock()
            .iter()
            .any(|g| needed.intersects(&g.attrs))
        {
            return Ok(None);
        }
        let Some(_w) = self.writer.try_lock() else {
            return Ok(None);
        };
        // Under the writer lock the published snapshot cannot change: it
        // is the authoritative current version.
        let db = self.db_snapshot();
        let snap = db.primary();
        let current_cost = self.plan_on(snap, pattern)?.1;
        let Some((g, new_cost)) = self.best_pending(snap, pattern, current_cost) else {
            return Ok(None);
        };

        let attrs: Vec<AttrId> = g.attrs.to_vec();
        let t0 = Instant::now();
        // A failed build, cooperative stops included, publishes nothing
        // and the advice stays pending for a later request.
        let (group, result) = match q {
            Some(q) => reorg::reorg_and_execute(snap, &attrs, q, ctx).map(|(g, r)| (g, Some(r)))?,
            None => (reorg::materialize_with(snap, &attrs, &ctx.policy)?, None),
        };
        let (id, published) = self.admit(group, t0.elapsed())?;
        // A refused admission (the layout already stored) published
        // nothing: the query ran on `db` and created no layout.
        Ok(result.map(|result| Outcome {
            result,
            report: Report::Query(QueryReport {
                strategy: Strategy::FusedVolcano,
                layouts: vec![id],
                created_layout: published.is_some().then_some(id),
                estimated_cost: new_cost,
                selectivity_estimate: pattern.selectivity,
            }),
            snapshot: published.unwrap_or(db),
        }))
    }

    /// One adaptation round: feed the monitoring window to the adviser and
    /// refresh the pending-layout list. Touches only advice state — never
    /// the catalog — so it is safe from any thread.
    fn adapt(&self) {
        self.stats.lock().adaptations += 1;
        let snap = self.snapshot();
        let current: Vec<GroupSpec> = snap
            .groups()
            .map(|g| GroupSpec::new(g.attr_set().clone()))
            .collect();
        let t0 = Instant::now();
        let window = self.window.lock().snapshot();
        let rec = self.adviser.recommend(&window, &current, snap.rows());
        let elapsed = t0.elapsed();
        {
            let mut s = self.stats.lock();
            s.advise_time += elapsed;
            if !rec.groups.is_empty() {
                s.recommendations += 1;
            }
        }
        if !rec.groups.is_empty() {
            *self.pending.lock() = rec.groups;
            // The recommendation was computed from a possibly stale
            // snapshot: a layout admitted concurrently (whose own retire
            // may have run before our replace) must not be re-advertised.
            // Pruning against a post-replace snapshot closes the race for
            // every interleaving, because `admit` publishes before it
            // retires.
            let now = self.snapshot();
            self.pending
                .lock()
                .retain(|g| now.find_exact(&g.attrs).is_none());
        }
        self.window.lock().adaptation_done();
    }

    /// One background-maintenance pump: runs a due adaptation round, then
    /// builds every still-beneficial pending layout offline (parallel
    /// stitch from a snapshot) and publishes each atomically. In-flight
    /// queries keep their snapshots and never block. Call it from a loop on
    /// a dedicated thread ([`Self::spawn_reorganizer`] does exactly that)
    /// or pump it explicitly between batches.
    pub fn maintain(&self) -> MaintenanceReport {
        let mut report = MaintenanceReport::default();
        if !self.config.adaptive {
            return report;
        }
        if self.adapt_due.swap(false, Ordering::AcqRel) {
            self.adapt();
            report.adapted = true;
        }
        if !self.config.background_reorg {
            // Lazy mode materializes on the query path; maintain() only
            // prunes advice that already materialized (e.g. via
            // `materialize_now`) so `pending()` stays consistent.
            let snap = self.snapshot();
            self.pending
                .lock()
                .retain(|g| snap.find_exact(&g.attrs).is_none());
            return report;
        }
        // Peek-build-remove (not pop-build): the spec is retired from the
        // advice queue only after its build round *returned*. If a build
        // panics mid-round, the unwind skips the `remove` and the spec is
        // still pending when the supervised reorganizer restarts the pump,
        // so recovery completes the interrupted round instead of silently
        // dropping the recommendation.
        loop {
            let next = self.pending.lock().first().cloned();
            let Some(spec) = next else { break };
            if self.build_pending_group(&spec) {
                report.layouts_built += 1;
            }
            // A built spec was retired by `admit`; a skipped one is retired
            // here. Retiring by value no-ops when a concurrent adaptation
            // round replaced the advice already.
            self.retire(&spec.attrs);
        }
        report
    }

    /// Builds one recommended group and publishes it — `maintain()`'s
    /// build step. The expensive stitch runs *without* the writer lock
    /// (from a pinned snapshot), so concurrent appends proceed during the
    /// build; the lock is taken only to admit and publish. If appends
    /// landed mid-build (the row count moved), the build retries from a
    /// fresh snapshot; the final attempt builds under the lock so it
    /// cannot be outrun forever. The group enters through [`Self::admit`],
    /// and the recorded reorganization time is the admitted group's build —
    /// never the wait for the writer lock.
    fn build_pending_group(&self, spec: &GroupSpec) -> bool {
        let attrs: Vec<AttrId> = spec.attrs.to_vec();
        const ATTEMPTS: usize = 3;
        for attempt in 0..ATTEMPTS {
            let locked_build = attempt == ATTEMPTS - 1;
            let base = self.snapshot();
            if base.find_exact(&spec.attrs).is_some() {
                return false; // already materialized (e.g. materialize_now)
            }
            let policy = self.config.exec_policy();
            let timed = |catalog: &LayoutCatalog| {
                let t0 = Instant::now();
                let group = reorg::materialize_with(catalog, &attrs, &policy).ok();
                group.map(|g| (g, t0.elapsed()))
            };
            let built = if locked_build {
                None
            } else {
                match timed(&base) {
                    Some(b) => Some(b),
                    None => return false, // spec no longer coverable
                }
            };
            let _w = self.writer.lock();
            let latest = self.snapshot();
            let (group, build_time) = match built {
                Some((g, t)) if g.rows() == latest.rows() => (g, t),
                Some(_) => continue, // appends landed mid-build: rebuild
                None => match timed(&latest) {
                    Some(b) => b,
                    None => return false,
                },
            };
            return matches!(self.admit(group, build_time), Ok((_, Some(_))));
        }
        false
    }

    /// The pending layout whose materialization most improves `pattern`
    /// over its current best plan (`current_cost`) on `snap`, with the cost
    /// it would achieve: the planner's own [`CostModel::best_plan`] over
    /// `snap`'s layouts plus that one pending group, appended last as the
    /// id it would be admitted under. (The window-level amortization was
    /// already established by the adviser; this is the per-query "can
    /// benefit" check of §3.2.)
    fn best_pending(
        &self,
        snap: &LayoutCatalog,
        pattern: &AccessPattern,
        current_cost: f64,
    ) -> Option<(GroupSpec, f64)> {
        let needed = pattern.all_attrs();
        let pending = self.pending();
        let mut config: Vec<&AttrSet> = snap.groups().map(|g| g.attr_set()).collect();
        let mut best: Option<(&GroupSpec, f64)> = None;
        for g in &pending {
            if !needed.intersects(&g.attrs) || snap.find_exact(&g.attrs).is_some() {
                continue;
            }
            config.push(&g.attrs);
            let cost = self
                .model
                .best_plan(pattern, &config, snap.rows())
                .map_or(f64::INFINITY, |p| p.cost);
            config.pop();
            if cost < current_cost && best.is_none_or(|(_, c)| cost < c) {
                best = Some((g, cost));
            }
        }
        best.map(|(g, cost)| (g.clone(), cost))
    }

    /// Retires the spec for `attrs` from the pending advice — by value,
    /// not by index: a concurrent adaptation round may have replaced the
    /// list since the caller read it, and then this is a harmless no-op
    /// instead of retiring the wrong spec.
    fn retire(&self, attrs: &AttrSet) {
        let mut pending = self.pending.lock();
        if let Some(i) = pending.iter().position(|g| g.attrs == *attrs) {
            pending.remove(i);
        }
    }

    /// Admits a built group — the one way a layout enters the catalog.
    /// Callers hold the writer lock, so the published version cannot move
    /// under it. Returns the layout storing the group's attributes and the
    /// snapshot published, if any. In order: refuses an attribute set the
    /// catalog already stores, adds the group, counts the build, publishes,
    /// and retires the spec from the pending advice. Publishing before
    /// retiring closes the race with [`Self::adapt`]: its prune snapshots
    /// the catalog after replacing the advice, so a concurrently
    /// re-recommended spec can never survive as pending for an existing
    /// layout.
    fn admit(
        &self,
        group: ColumnGroup,
        build_time: Duration,
    ) -> Result<(LayoutId, Option<DbSnapshot>), EngineError> {
        let current = self.snapshot();
        let attrs = group.attr_set().clone();
        if let Some(id) = current.find_exact(&attrs) {
            return Ok((id, None));
        }
        let mut new_cat = (*current).clone();
        let id = new_cat.add_group(group)?;
        {
            let mut s = self.stats.lock();
            s.reorg_time += build_time;
            s.layouts_created += 1;
        }
        let published = self.publish(PRIMARY_RELATION, new_cat);
        self.retire(&attrs);
        Ok((id, Some(published)))
    }

    /// Spawns a **supervised** reorganizer thread that pumps
    /// [`Self::maintain`] every `poll` until the returned handle is
    /// dropped or [`ReorganizerHandle::stop`] is called.
    ///
    /// Each maintenance round runs under `catch_unwind`: a panicking round
    /// never kills the thread. The supervisor counts the panic
    /// ([`EngineStats::reorg_panics`]), sleeps an exponentially growing
    /// backoff (base [`REORG_BACKOFF_BASE`], doubled per consecutive
    /// panic, capped at [`REORG_BACKOFF_CAP`], plus deterministic jitter),
    /// then resumes pumping ([`EngineStats::reorg_restarts`]). A round
    /// that completes resets the backoff. Because `maintain` retires
    /// advice only *after* a build round returns, the recovery round picks
    /// the interrupted spec back up.
    ///
    /// Thread creation itself can fail (OS resource exhaustion); that is
    /// surfaced as recoverable [`EngineError::Spawn`] — degrade to pumping
    /// [`Self::maintain`] inline.
    pub fn spawn_reorganizer(
        self: &Arc<Self>,
        poll: Duration,
    ) -> Result<ReorganizerHandle, EngineError> {
        let stop = Arc::new(AtomicBool::new(false));
        let state = Arc::new(SupervisorState::default());
        let engine = Arc::clone(self);
        let flag = Arc::clone(&stop);
        let sup = Arc::clone(&state);
        // Deterministic per-engine jitter stream: decorrelates multiple
        // engines' retry storms without consulting a clock.
        let mut rng = SmallRng::seed_from_u64(Arc::as_ptr(self) as u64);
        let thread = std::thread::Builder::new()
            .name("h2o-reorganizer".into())
            .spawn(move || {
                let mut backoff = REORG_BACKOFF_BASE;
                while !flag.load(Ordering::Acquire) {
                    match catch_unwind(AssertUnwindSafe(|| engine.maintain())) {
                        Ok(_) => {
                            sup.rounds.fetch_add(1, Ordering::Relaxed);
                            backoff = REORG_BACKOFF_BASE;
                            std::thread::park_timeout(poll);
                        }
                        Err(_) => {
                            sup.panics.fetch_add(1, Ordering::Relaxed);
                            engine.stats.lock().reorg_panics += 1;
                            let jitter_us =
                                rng.gen_range(0..=(backoff.as_micros() as u64 / 4).max(1));
                            let sleep = backoff + Duration::from_micros(jitter_us);
                            sup.last_backoff_us
                                .store(sleep.as_micros() as u64, Ordering::Relaxed);
                            // park_timeout, not sleep: stop() can interrupt
                            // even a capped backoff promptly.
                            std::thread::park_timeout(sleep);
                            backoff = (backoff * 2).min(REORG_BACKOFF_CAP);
                            if flag.load(Ordering::Acquire) {
                                break;
                            }
                            sup.restarts.fetch_add(1, Ordering::Relaxed);
                            engine.stats.lock().reorg_restarts += 1;
                        }
                    }
                }
                // Final pump so advice queued right before stop still
                // lands; a panic here is counted but not retried.
                if catch_unwind(AssertUnwindSafe(|| engine.maintain())).is_err() {
                    sup.panics.fetch_add(1, Ordering::Relaxed);
                    engine.stats.lock().reorg_panics += 1;
                }
            })
            .map_err(|e| EngineError::Spawn(e.to_string()))?;
        Ok(ReorganizerHandle {
            stop,
            thread: Some(thread),
            state,
        })
    }

    /// Materializes a layout *offline* (separate pass, no query), for
    /// explicit administration. An attribute set the catalog already
    /// stores is not built again: its existing layout's id is returned and
    /// nothing is published or counted.
    pub fn materialize_now(&self, attrs: &[AttrId]) -> Result<LayoutId, EngineError> {
        self.mutate(|| {
            let snap = self.snapshot();
            if let Some(id) = snap.find_exact(&attrs.iter().copied().collect()) {
                return Ok(id);
            }
            let t0 = Instant::now();
            let group = reorg::materialize_with(&snap, attrs, &self.config.exec_policy())?;
            Ok(self.admit(group, t0.elapsed())?.0)
        })
    }

    /// Drops a layout (refusing to uncover attributes) and invalidates
    /// dependent cached operators. Pending advice is untouched: a spec
    /// whose layout is dropped simply becomes materializable again.
    pub fn drop_layout(&self, id: LayoutId) -> Result<(), EngineError> {
        self.mutate(|| {
            let mut new_cat = (*self.snapshot()).clone();
            new_cat.drop_group(id)?;
            self.publish(PRIMARY_RELATION, new_cat);
            self.opcache.invalidate_layout(id);
            Ok(())
        })
    }

    /// Appends tuples (full schema order) to the relation. Every
    /// coexisting layout receives the rows, so all plans keep working; the
    /// write cost scales with the number of live layouts — the multi-format
    /// trade-off the paper acknowledges ("updates might become quite
    /// expensive" for redundant layouts). The whole batch becomes visible
    /// in one atomic snapshot publish; readers never see a torn batch.
    /// An empty batch is a no-op: nothing is cloned and no snapshot is
    /// published.
    ///
    /// Cost note: group payloads are segmented, with the unsealed tail
    /// held as 1 024-row chunks ([`h2o_storage::ColumnGroup`]), so
    /// snapshot isolation's copy-on-write clones at most each group's
    /// *last tail chunk* (fewer than 1 024 rows) once per batch — old
    /// snapshots keep the originals, sealed segments and earlier chunks are
    /// shared untouched. Each layout takes the whole batch in one
    /// projection pass. A batch therefore costs O(batch × live layouts +
    /// one chunk per layout), independent of relation and tail size
    /// (`EngineStats::bytes_cloned_on_write` measures exactly this).
    pub fn insert(&self, tuples: &[Vec<h2o_storage::Value>]) -> Result<(), EngineError> {
        self.insert_into(PRIMARY_RELATION, tuples)
    }

    /// A human-readable description of the plan the engine would choose
    /// for `q` right now (an `EXPLAIN`): chosen layouts, strategy, cost
    /// estimate, and whether a pending layout would be materialized first.
    pub fn explain(&self, q: &Query) -> Result<String, EngineError> {
        use std::fmt::Write;
        let snap = self.snapshot();
        let sel = self.estimate_selectivity(None, q.filter(), None);
        let pattern = AccessPattern::of(q, sel);
        let (plan, cost) = self.plan_on(&snap, &pattern)?;
        let mut out = String::new();
        writeln!(out, "query: {q}").unwrap();
        writeln!(
            out,
            "estimated selectivity: {sel:.4} ({})",
            if q.filter().is_always_true() {
                "no filter"
            } else {
                "from history/default"
            }
        )
        .unwrap();
        let needed = pattern.all_attrs();
        let pending_hit = self
            .pending
            .lock()
            .iter()
            .any(|g| needed.intersects(&g.attrs) && snap.find_exact(&g.attrs).is_none());
        if self.config.adaptive && pending_hit {
            writeln!(
                out,
                "pending layout available: may materialize while answering"
            )
            .unwrap();
        }
        writeln!(out, "strategy: {}", plan.strategy.name()).unwrap();
        writeln!(out, "estimated cost: {cost:.6}").unwrap();
        for &id in &plan.layouts {
            let g = snap.group(id)?;
            let attrs: Vec<String> = g.attrs().iter().map(|a| a.to_string()).collect();
            writeln!(
                out,
                "  scan {id} width={} rows={} attrs=[{}]",
                g.width(),
                g.rows(),
                attrs.join(",")
            )
            .unwrap();
        }
        Ok(out)
    }
}

/// Base backoff after a panicking maintenance round; doubled per
/// consecutive panic.
pub const REORG_BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Backoff ceiling — a persistently faulty round retries at this cadence
/// forever rather than spinning or giving up.
pub const REORG_BACKOFF_CAP: Duration = Duration::from_secs(1);
/// Longest a shutdown waits for the reorganizer thread to finish its
/// current round before detaching it.
const REORG_JOIN_WAIT: Duration = Duration::from_secs(10);

/// Shared health counters of one supervised reorganizer thread.
#[derive(Debug, Default)]
struct SupervisorState {
    rounds: AtomicU64,
    panics: AtomicU64,
    restarts: AtomicU64,
    last_backoff_us: AtomicU64,
}

/// Point-in-time health of a supervised reorganizer thread
/// ([`ReorganizerHandle::status`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReorganizerStatus {
    /// Maintenance rounds completed without panicking.
    pub rounds: u64,
    /// Maintenance rounds that panicked (each was caught).
    pub panics: u64,
    /// Times the supervisor resumed pumping after a panic + backoff.
    pub restarts: u64,
    /// The most recent backoff slept after a panic (zero if none yet).
    pub last_backoff: Duration,
    /// Whether the supervised thread is still running.
    pub alive: bool,
}

/// Guard for a running background reorganizer thread. Dropping it (or
/// calling [`Self::stop`]) stops the thread after one final `maintain()`
/// pump and joins it with a bounded wait. Stopping is idempotent: `stop`
/// after `stop`, or a drop after `stop`, is a no-op.
pub struct ReorganizerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
    state: Arc<SupervisorState>,
}

impl ReorganizerHandle {
    /// Stops and joins the reorganizer thread (bounded wait; see
    /// [`ReorganizerHandle`]). Safe to call more than once.
    pub fn stop(&mut self) {
        self.shutdown();
    }

    /// Asks the reorganizer to pump `maintain()` soon (without waiting for
    /// the poll interval or a pending backoff).
    pub fn nudge(&self) {
        if let Some(t) = &self.thread {
            t.thread().unpark();
        }
    }

    /// Health of the supervised thread: completed rounds, caught panics,
    /// restarts, and the most recent backoff.
    pub fn status(&self) -> ReorganizerStatus {
        ReorganizerStatus {
            rounds: self.state.rounds.load(Ordering::Relaxed),
            panics: self.state.panics.load(Ordering::Relaxed),
            restarts: self.state.restarts.load(Ordering::Relaxed),
            last_backoff: Duration::from_micros(self.state.last_backoff_us.load(Ordering::Relaxed)),
            alive: self.thread.as_ref().is_some_and(|t| !t.is_finished()),
        }
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        let Some(t) = self.thread.take() else {
            return; // already stopped: idempotent
        };
        t.thread().unpark();
        // Bounded join: wait for the final pump, but never hang shutdown
        // on a wedged round — detach instead (the thread holds only an
        // `Arc` of the engine and exits on its next stop-flag check).
        let waited = Instant::now();
        while !t.is_finished() && waited.elapsed() < REORG_JOIN_WAIT {
            t.thread().unpark();
            std::thread::sleep(Duration::from_millis(1));
        }
        if t.is_finished() {
            let _ = t.join();
        }
    }
}

impl Drop for ReorganizerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_expr::{interpret, Aggregate, Conjunction, Expr, Predicate};
    use h2o_storage::{Schema, Value};

    fn columns(n_attrs: usize, rows: usize) -> Vec<Vec<Value>> {
        (0..n_attrs)
            .map(|k| {
                (0..rows)
                    .map(|r| (((k * 131 + r * 31) % 2001) as Value) - 1000)
                    .collect()
            })
            .collect()
    }

    fn engine(n_attrs: usize, rows: usize, config: EngineConfig) -> H2oEngine {
        let schema = Schema::with_width(n_attrs).into_shared();
        let rel = Relation::columnar(schema, columns(n_attrs, rows)).unwrap();
        H2oEngine::new(rel, config)
    }

    /// Whether some layout of `catalog` stores every attribute of `attrs`.
    fn some_layout_holds(catalog: &LayoutCatalog, attrs: &[usize]) -> bool {
        let attrs: AttrSet = attrs.iter().copied().collect();
        catalog.groups().any(|g| attrs.is_subset(g.attr_set()))
    }

    fn expr_query(select: &[u32], where_attr: u32, bound: Value) -> Query {
        Query::project(
            [Expr::sum_of(select.iter().map(|&i| AttrId(i)))],
            Conjunction::of([Predicate::lt(where_attr, bound)]),
        )
        .unwrap()
    }

    #[test]
    fn engine_answers_match_interpreter() {
        let e = engine(8, 500, EngineConfig::default());
        let queries = [
            expr_query(&[0, 1, 2], 3, 100),
            Query::aggregate(
                [Aggregate::max(Expr::col(4u32)), Aggregate::count()],
                Conjunction::of([Predicate::gt(5u32, -500)]),
            )
            .unwrap(),
            Query::project([Expr::col(7u32)], Conjunction::always()).unwrap(),
        ];
        for q in &queries {
            let want = interpret(&e.catalog(), q).unwrap();
            let got = e.run(Request::query(q)).unwrap().result;
            assert_eq!(got.fingerprint(), want.fingerprint(), "{q}");
        }
        assert_eq!(e.stats().queries, 3);
    }

    #[test]
    fn repeated_hot_queries_trigger_adaptation_and_lazy_creation() {
        let mut cfg = EngineConfig::default();
        cfg.window.initial = 10;
        cfg.window.min = 4;
        let e = engine(30, 4000, cfg);
        // 40 near-identical queries over {0..4} with filter on 5.
        let mut last = None;
        for i in 0..40 {
            let q = expr_query(&[0, 1, 2, 3, 4], 5, (i % 7) * 100 - 300);
            let want = interpret(&e.catalog(), &q).unwrap();
            let out = e.run(Request::query(&q)).unwrap();
            assert_eq!(out.result.fingerprint(), want.fingerprint(), "query {i}");
            last = Some(out.report);
        }
        let stats = e.stats();
        assert!(
            stats.adaptations >= 1,
            "window must have triggered adaptation"
        );
        assert!(
            stats.layouts_created >= 1,
            "hot cluster must have produced a materialized group; stats: {stats:?}"
        );
        assert!(stats.snapshots_published >= 1);
        // The created layout must cover the hot select cluster (the
        // where-clause attribute keeps its own layout — the paper's
        // two-group design of Fig. 6).
        assert!(
            some_layout_holds(&e.catalog(), &[0, 1, 2, 3, 4]),
            "expected a group covering the hot select cluster"
        );
        // And later queries should be using it.
        let last = last.unwrap();
        let report = last.query().unwrap();
        let used = &report.layouts;
        let wide_used = used
            .iter()
            .any(|&id| e.catalog().group(id).unwrap().width() > 1);
        assert!(
            wide_used,
            "later queries should run on the new group: {report:?}"
        );
    }

    /// A grouped query over a low-cardinality key column (values folded
    /// into `card` buckets via the data, not the query).
    fn grouped_engine(card: i64, n_attrs: usize, rows: usize, config: EngineConfig) -> H2oEngine {
        let schema = Schema::with_width(n_attrs).into_shared();
        let mut cols = columns(n_attrs, rows);
        for v in &mut cols[0] {
            *v = v.rem_euclid(card);
        }
        let rel = Relation::columnar(schema, cols).unwrap();
        H2oEngine::new(rel, config)
    }

    #[test]
    fn grouped_queries_match_interpreter_and_drive_adaptation() {
        let mut cfg = EngineConfig::default();
        cfg.window.initial = 8;
        cfg.window.min = 4;
        let e = grouped_engine(16, 20, 3000, cfg);
        // A hot grouped workload: group by a0, aggregate over {1,2,3},
        // filter on 4. Key + aggregate inputs form the hot select cluster.
        for i in 0..40 {
            let q = Query::grouped(
                [Expr::col(0u32)],
                [
                    Aggregate::sum(Expr::sum_of([AttrId(1), AttrId(2)])),
                    Aggregate::max(Expr::col(3u32)),
                    Aggregate::count(),
                ],
                Conjunction::of([Predicate::lt(4u32, (i % 7) * 200 - 600)]),
            )
            .unwrap();
            let want = interpret(&e.catalog(), &q).unwrap();
            let got = e.run(Request::query(&q)).unwrap().result;
            assert_eq!(got, want, "grouped query {i} (bit-identical, sorted)");
        }
        let stats = e.stats();
        assert!(stats.adaptations >= 1, "window must trigger adaptation");
        assert!(
            stats.layouts_created >= 1,
            "grouped workload must materialize a layout; stats: {stats:?}"
        );
        // The adviser saw the group-key column as hot: some created layout
        // covers the key together with aggregate inputs.
        assert!(
            some_layout_holds(&e.catalog(), &[0, 1, 2, 3]),
            "expected a group covering key + aggregate inputs"
        );
    }

    #[test]
    fn grouped_selectivity_history_not_polluted() {
        // Grouped row counts are distinct-key counts; they must not feed
        // the selectivity EWMA.
        let e = grouped_engine(4, 6, 1000, EngineConfig::default());
        let q = Query::grouped(
            [Expr::col(0u32)],
            [Aggregate::count()],
            Conjunction::of([Predicate::gt(1u32, i64::MIN)]),
        )
        .unwrap();
        e.run(Request::query(&q)).unwrap();
        assert_eq!(
            e.observed_selectivity(&q),
            None,
            "grouped output cardinality must not be recorded as selectivity"
        );
    }

    #[test]
    fn results_stay_correct_across_reorganization() {
        // Differential-test the engine against the interpreter on every
        // query of a shifting workload (correctness during adaptation is
        // the engine's core invariant).
        let mut cfg = EngineConfig::default();
        cfg.window.initial = 6;
        cfg.window.min = 3;
        let e = engine(20, 1500, cfg);
        let phases: [(&[u32], u32); 2] = [(&[0, 1, 2], 3), (&[10, 11, 12, 13], 14)];
        let mut qid = 0;
        for (select, w) in phases {
            for i in 0..25 {
                let q = expr_query(select, w, (i % 11) * 50 - 250);
                let want = interpret(&e.catalog(), &q).unwrap();
                let got = e.run(Request::query(&q)).unwrap().result;
                assert_eq!(got.fingerprint(), want.fingerprint(), "query {qid}");
                qid += 1;
            }
        }
        assert!(e.stats().queries == 50);
    }

    #[test]
    fn background_mode_defers_reorg_to_maintain() {
        let mut cfg = EngineConfig {
            background_reorg: true,
            ..EngineConfig::default()
        };
        cfg.window.initial = 8;
        cfg.window.min = 4;
        let e = engine(24, 2000, cfg);
        for i in 0..30 {
            let q = expr_query(&[0, 1, 2, 3], 4, (i % 5) * 100 - 200);
            let want = interpret(&e.catalog(), &q).unwrap();
            let got = e.run(Request::query(&q)).unwrap().result;
            assert_eq!(got.fingerprint(), want.fingerprint(), "query {i}");
        }
        assert_eq!(
            e.stats().layouts_created,
            0,
            "background mode must not reorganize on the query path"
        );
        // Pump maintenance until the due adaptation ran and pending drained.
        let mut built = 0;
        for _ in 0..4 {
            built += e.maintain().layouts_built;
        }
        assert!(built >= 1, "maintain() must build the recommended layouts");
        assert!(e.stats().layouts_created >= 1);
        // Queries keep matching the oracle and can now use the new group.
        for i in 0..10 {
            let q = expr_query(&[0, 1, 2, 3], 4, (i % 5) * 100 - 200);
            let want = interpret(&e.catalog(), &q).unwrap();
            assert_eq!(
                e.run(Request::query(&q)).unwrap().result.fingerprint(),
                want.fingerprint()
            );
        }
    }

    #[test]
    fn background_reorganizer_thread_builds_layouts() {
        let mut cfg = EngineConfig {
            background_reorg: true,
            ..EngineConfig::default()
        };
        cfg.window.initial = 6;
        cfg.window.min = 4;
        let e = Arc::new(engine(20, 1500, cfg));
        let mut handle = e.spawn_reorganizer(Duration::from_millis(1)).unwrap();
        for i in 0..60 {
            let q = expr_query(&[0, 1, 2], 3, (i % 5) * 100 - 200);
            let want = interpret(&e.catalog(), &q).unwrap();
            assert_eq!(
                e.run(Request::query(&q)).unwrap().result.fingerprint(),
                want.fingerprint()
            );
            handle.nudge();
        }
        handle.stop();
        assert!(
            e.stats().layouts_created >= 1,
            "reorganizer thread must have built a layout; stats: {:?}",
            e.stats()
        );
    }

    #[test]
    fn non_adaptive_engine_never_creates_layouts() {
        let mut cfg = EngineConfig::non_adaptive();
        cfg.window.initial = 5;
        let e = engine(12, 800, cfg);
        for i in 0..30 {
            let q = expr_query(&[0, 1, 2], 3, i * 10);
            e.run(Request::query(&q)).unwrap();
        }
        assert_eq!(e.stats().layouts_created, 0);
        assert_eq!(e.stats().adaptations, 0);
        assert_eq!(e.catalog().group_count(), 12);
        assert_eq!(e.maintain(), MaintenanceReport::default());
    }

    #[test]
    fn plan_picks_single_group_when_available() {
        let mut cfg = EngineConfig::default();
        cfg.window.initial = 200; // no adaptation interference
        let e = engine(10, 500, cfg);
        let id = e
            .materialize_now(&[AttrId(0), AttrId(1), AttrId(2)])
            .unwrap();
        let q = Query::aggregate(
            [Aggregate::sum(Expr::sum_of([
                AttrId(0),
                AttrId(1),
                AttrId(2),
            ]))],
            Conjunction::always(),
        )
        .unwrap();
        let pattern = AccessPattern::of(&q, 1.0);
        let (plan, _) = e.plan(&pattern).unwrap();
        assert!(
            plan.layouts.contains(&id) || plan.layouts.len() <= 3,
            "planner should consider the tailored group: {plan:?}"
        );
        // Execute and verify.
        let want = interpret(&e.catalog(), &q).unwrap();
        assert_eq!(e.run(Request::query(&q)).unwrap().result, want);
    }

    #[test]
    fn selectivity_feedback_updates_history() {
        let mut cfg = EngineConfig::default();
        cfg.window.initial = 100;
        let e = engine(6, 1000, cfg);
        let q = expr_query(&[0, 1], 2, -900); // very selective
        assert_eq!(e.observed_selectivity(&q), None);
        let est = |out: Outcome| out.report.query().unwrap().selectivity_estimate;
        let first_est = est(e.run(Request::query(&q)).unwrap());
        assert!((first_est - 0.5).abs() < 1e-9, "first run uses the default");
        let second_est = est(e.run(Request::query(&q)).unwrap());
        assert!(
            second_est < 0.3,
            "second run must use observed selectivity, got {second_est}"
        );
        let hist = e.observed_selectivity(&q).unwrap();
        assert!((0.0..=1.0).contains(&hist));
    }

    #[test]
    fn hint_overrides_history() {
        let e = engine(6, 500, EngineConfig::default());
        let q = expr_query(&[0], 1, 0);
        let out = e.run(Request::query(&q).hint(0.05)).unwrap();
        assert!((out.report.query().unwrap().selectivity_estimate - 0.05).abs() < 1e-9);
    }

    #[test]
    fn materialize_now_and_drop_layout() {
        let e = engine(5, 300, EngineConfig::default());
        let id = e.materialize_now(&[AttrId(1), AttrId(3)]).unwrap();
        assert_eq!(e.catalog().group_count(), 6);
        // A second call finds the layout instead of storing a second copy:
        // nothing is stitched, counted or published.
        let (before, stats) = (e.snapshot(), e.stats());
        assert_eq!(e.materialize_now(&[AttrId(1), AttrId(3)]).unwrap(), id);
        assert!(Arc::ptr_eq(&before, &e.snapshot()));
        assert_eq!(e.stats(), stats);
        e.drop_layout(id).unwrap();
        assert_eq!(e.catalog().group_count(), 5);
        // Dropping a base column must fail (would uncover).
        let base = e.catalog().layout_ids()[0];
        assert!(matches!(
            e.drop_layout(base),
            Err(EngineError::Storage(StorageError::WouldUncover(_)))
        ));
    }

    #[test]
    fn inserts_are_visible_in_every_layout() {
        let e = engine(6, 100, EngineConfig::default());
        e.materialize_now(&[AttrId(0), AttrId(1), AttrId(2)])
            .unwrap();
        let q = Query::aggregate(
            [Aggregate::count(), Aggregate::max(Expr::col(1u32))],
            Conjunction::always(),
        )
        .unwrap();
        let before = e.run(Request::query(&q)).unwrap().result;
        e.insert(&[vec![1, i64::MAX, 3, 4, 5, 6], vec![0; 6]])
            .unwrap();
        let after = e.run(Request::query(&q)).unwrap().result;
        assert_eq!(after.row(0)[0], before.row(0)[0] + 2);
        assert_eq!(after.row(0)[1], i64::MAX, "new max must be visible");
        assert_eq!(e.stats().rows_appended, 2);
        // Every layout grew.
        assert!(e.catalog().groups().all(|g| g.rows() == 102));
        // Differential check post-insert.
        let want = interpret(&e.catalog(), &q).unwrap();
        assert_eq!(e.run(Request::query(&q)).unwrap().result, want);
    }

    #[test]
    fn snapshots_are_isolated_from_later_writes() {
        let e = engine(4, 50, EngineConfig::default());
        let before = e.snapshot();
        e.insert(&[vec![9, 9, 9, 9]]).unwrap();
        let after = e.snapshot();
        assert_eq!(before.rows(), 50, "old snapshot keeps its row count");
        assert_eq!(after.rows(), 51);
        assert!(before.groups().all(|g| g.rows() == 50));
        // The old snapshot still answers queries on the old data.
        let q = Query::aggregate(
            [Aggregate::count()],
            Conjunction::of([Predicate::gt(0u32, i64::MIN)]),
        )
        .unwrap();
        assert_eq!(interpret(&before, &q).unwrap().row(0)[0], 50);
        assert_eq!(interpret(&after, &q).unwrap().row(0)[0], 51);
        assert_eq!(e.stats().snapshots_published, 1);
    }

    #[test]
    fn insert_rejects_ragged_tuples() {
        let e = engine(4, 10, EngineConfig::default());
        assert!(matches!(
            e.insert(&[vec![1, 2]]),
            Err(EngineError::Storage(StorageError::WidthMismatch {
                expected: 4,
                got: 2
            }))
        ));
        assert_eq!(e.catalog().rows(), 10);
    }

    #[test]
    fn empty_insert_is_a_no_op() {
        // Regression: an empty batch used to clone the full catalog and
        // publish a snapshot for nothing.
        let e = engine(4, 10, EngineConfig::default());
        e.insert(&[]).unwrap();
        let stats = e.stats();
        assert_eq!(stats.snapshots_published, 0);
        assert_eq!(stats.rows_appended, 0);
        assert_eq!(stats.bytes_cloned_on_write, 0);
        assert_eq!(e.catalog().rows(), 10);
    }

    #[test]
    fn explain_describes_the_plan() {
        let e = engine(8, 200, EngineConfig::default());
        let q = expr_query(&[0, 1, 2], 3, 50);
        let text = e.explain(&q).unwrap();
        assert!(text.contains("strategy:"), "{text}");
        assert!(text.contains("estimated cost:"), "{text}");
        assert!(text.contains("scan L"), "{text}");
        // Still executable afterwards.
        e.run(Request::query(&q)).unwrap();
    }

    #[test]
    fn empty_relation_is_fine() {
        let schema = Schema::with_width(3).into_shared();
        let rel = Relation::columnar(schema, vec![vec![], vec![], vec![]]).unwrap();
        let e = H2oEngine::new(rel, EngineConfig::default());
        let q = Query::project([Expr::col(0u32)], Conjunction::always()).unwrap();
        assert!(e.run(Request::query(&q)).unwrap().result.is_empty());
    }

    #[test]
    fn unknown_attribute_is_an_error() {
        let e = engine(3, 100, EngineConfig::default());
        let q = Query::project([Expr::col(99u32)], Conjunction::always()).unwrap();
        assert!(e.run(Request::query(&q)).is_err());
    }

    #[test]
    fn fault_error_messages_are_stable() {
        // Rendered-message regression pins (the repo's error-display
        // convention): harnesses match on these strings.
        assert_eq!(
            EngineError::ExecutionPanicked {
                payload: "boom".into()
            }
            .to_string(),
            "query execution panicked: boom"
        );
        assert_eq!(EngineError::Cancelled.to_string(), "query cancelled");
        assert_eq!(EngineError::Timeout.to_string(), "query deadline expired");
        assert_eq!(
            EngineError::Spawn("os says no".into()).to_string(),
            "failed to spawn engine thread: os says no"
        );
    }

    #[test]
    fn cancelled_query_is_typed_counted_and_side_effect_free() {
        let e = engine(6, 500, EngineConfig::default());
        let q = expr_query(&[0, 1], 2, 100);
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            e.run(Request::query(&q).cancel(&token))
                .map(Outcome::into_result),
            Err(EngineError::Cancelled)
        );
        assert_eq!(e.stats().queries_cancelled, 1);
        // A cancelled run must publish nothing — not even selectivity
        // feedback.
        assert_eq!(e.observed_selectivity(&q), None);
        // The engine stays fully usable; a live token completes normally
        // and is bit-identical to the oracle.
        let want = interpret(&e.catalog(), &q).unwrap();
        let got = e
            .run(Request::query(&q).cancel(&CancelToken::new()))
            .unwrap()
            .result;
        assert_eq!(got.fingerprint(), want.fingerprint());
        let s = e.stats();
        assert_eq!(s.queries_cancelled, 1);
        assert_eq!(s.queries_timed_out, 0);
        assert_eq!(s.queries_panicked, 0);
    }

    #[test]
    fn stopped_query_keeps_the_previous_report_and_caches_its_operator() {
        let config = EngineConfig {
            adaptive: false,
            ..EngineConfig::default()
        };
        let e = engine(6, 500, config);
        let first = expr_query(&[0, 1], 2, 100);
        e.run(Request::query(&first)).unwrap();
        let before = e.last_report().unwrap();
        // A new shape under a pre-cancelled token fails typed and leaves
        // the previous query's report in place.
        let q = expr_query(&[3, 4], 5, 10);
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            e.run(Request::query(&q).cancel(&token))
                .map(Outcome::into_result),
            Err(EngineError::Cancelled)
        );
        assert_eq!(e.last_report(), Some(before));
        // Its operator was cached: the next run of the shape is a hit.
        let hits = e.opcache_stats().hits;
        let got = e.run(Request::query(&q)).unwrap().result;
        assert_eq!(e.opcache_stats().hits, hits + 1);
        assert_eq!(got, interpret(&e.catalog(), &q).unwrap());
    }

    #[test]
    fn request_deadlines_time_out() {
        let e = engine(6, 500, EngineConfig::default());
        let q = expr_query(&[0, 1], 2, 100);
        assert_eq!(
            e.run(Request::query(&q).deadline(Duration::ZERO))
                .map(Outcome::into_result),
            Err(EngineError::Timeout)
        );
        assert_eq!(e.stats().queries_timed_out, 1);
        let want = interpret(&e.catalog(), &q).unwrap();
        let got = e
            .run(Request::query(&q).deadline(Duration::from_secs(3600)))
            .unwrap()
            .result;
        assert_eq!(got.fingerprint(), want.fingerprint());
        assert_eq!(e.stats().queries_timed_out, 1);
    }

    #[test]
    fn budget_exhaustion_is_typed_counted_and_side_effect_free() {
        let e = engine(6, 500, EngineConfig::default());
        let q = expr_query(&[0, 1], 2, 100);
        assert_eq!(
            e.run(Request::query(&q).budget(0))
                .map(Outcome::into_result),
            Err(EngineError::BudgetExhausted)
        );
        assert_eq!(e.stats().queries_budget_exhausted, 1);
        // An over-budget run publishes nothing — not even selectivity
        // feedback.
        assert_eq!(e.observed_selectivity(&q), None);
        // A generous budget completes normally, bit-identical to the oracle.
        let want = interpret(&e.catalog(), &q).unwrap();
        let got = e.run(Request::query(&q).budget(1 << 20)).unwrap().result;
        assert_eq!(got.fingerprint(), want.fingerprint());
        assert_eq!(e.stats().queries_budget_exhausted, 1);
        // Rendered-message regression pin.
        assert_eq!(
            EngineError::BudgetExhausted.to_string(),
            "query morsel budget exhausted"
        );
    }

    #[test]
    fn options_compose_on_one_request() {
        // Hint + deadline + cancel token + budget on one request — a
        // spelling the old nine-method surface could not express.
        let e = engine(6, 500, EngineConfig::default());
        let q = expr_query(&[0], 1, 0);
        let want = interpret(&e.catalog(), &q).unwrap();
        let token = CancelToken::new();
        let out = e
            .run(
                Request::query(&q)
                    .hint(0.05)
                    .deadline(Duration::from_secs(3600))
                    .cancel(&token)
                    .budget(1 << 20),
            )
            .unwrap();
        assert_eq!(out.result.fingerprint(), want.fingerprint());
        assert!((out.report.query().unwrap().selectivity_estimate - 0.05).abs() < 1e-9);
    }

    #[test]
    fn join_stop_controls_publish_nothing() {
        let (e, fs, ds) = join_engine(400, 16, EngineConfig::default());
        let b = Query::join(("R", fs.clone()), ("dim", ds.clone()));
        let v0 = b.col("v0").unwrap();
        let tag = b.col("tag").unwrap();
        let q = b
            .on("fk", "k")
            .unwrap()
            .filter_left(Conjunction::of([Predicate::lt(1u32, 500)]))
            .project([v0, tag])
            .unwrap();
        // An expired deadline stops the join with a typed error and
        // publishes nothing: no report, no selectivity feedback.
        assert_eq!(
            e.run(Request::join(&q).deadline(Duration::ZERO))
                .map(Outcome::into_result),
            Err(EngineError::Timeout)
        );
        assert_eq!(e.stats().queries_timed_out, 1);
        assert!(e.last_join_report().is_none());
        assert_eq!(e.observed_join_selectivity(&q, Side::Left), None);
        // A zero morsel budget runs out inside the join (build phase).
        assert_eq!(
            e.run(Request::join(&q).budget(0)).map(Outcome::into_result),
            Err(EngineError::BudgetExhausted)
        );
        assert_eq!(e.stats().queries_budget_exhausted, 1);
        assert!(e.last_join_report().is_none());
        // The engine stays fully usable; the unrestricted answer matches
        // the interpreter on the outcome's own snapshot.
        let out = e.run(Request::join(&q)).unwrap();
        let db = &out.snapshot;
        let want =
            interpret_join(db.relation("R").unwrap(), db.relation("dim").unwrap(), &q).unwrap();
        assert_eq!(out.result.fingerprint(), want.fingerprint());
    }

    #[test]
    fn reorganizer_stop_is_idempotent_and_status_reports() {
        let e = Arc::new(engine(
            8,
            300,
            EngineConfig {
                background_reorg: true,
                ..EngineConfig::default()
            },
        ));
        let mut h = e.spawn_reorganizer(Duration::from_millis(1)).unwrap();
        let st = h.status();
        assert!(st.alive, "freshly spawned supervisor must be running");
        assert_eq!(st.panics, 0);
        assert_eq!(st.restarts, 0);
        assert_eq!(st.last_backoff, Duration::ZERO);
        h.stop();
        assert!(!h.status().alive, "stop() must join the thread");
        h.stop(); // double stop: clean no-op
        drop(h); // drop after stop: clean no-op
        assert_eq!(e.stats().reorg_panics, 0);
    }

    /// Fault-injection coverage for the engine layer. Failpoint state is
    /// process-global, so everything runs in one combined test (the chaos
    /// CI job runs fault-enabled test binaries single-threaded).
    #[cfg(feature = "failpoints")]
    #[test]
    fn injected_faults_are_isolated_and_recovered() {
        use h2o_storage::failpoints as fp;
        fp::disarm_all();

        // 1. A worker panic mid-query surfaces as ExecutionPanicked — the
        //    process does not abort and the counter moves.
        let cfg = EngineConfig {
            parallelism: Some(2),
            ..EngineConfig::default()
        };
        // Three default-size morsels: the morsel scheduler runs the scan.
        let rows = 2 * h2o_exec::parallel::DEFAULT_MORSEL_ROWS + 1_000;
        assert!(!cfg.exec_policy().is_serial_for(rows));
        let e = engine(8, rows, cfg);
        let q = expr_query(&[0, 1, 2], 3, 100);
        let want = interpret(&e.catalog(), &q).unwrap();
        fp::arm_nth("morsel_start", 1);
        match e.run(Request::query(&q)).map(Outcome::into_result) {
            Err(EngineError::ExecutionPanicked { payload }) => {
                assert!(payload.starts_with(fp::PANIC_PREFIX), "got {payload:?}");
            }
            other => panic!("expected ExecutionPanicked, got {other:?}"),
        }
        assert_eq!(e.stats().queries_panicked, 1);
        // The engine is fully usable afterwards (the nth-hit failpoint
        // disarmed itself when it fired).
        let got = e.run(Request::query(&q)).unwrap().result;
        assert_eq!(got.fingerprint(), want.fingerprint());
        assert_eq!(e.stats().queries_panicked, 1);

        // 2. A panic at the publish point leaves the catalog untorn: the
        //    insert fails typed, readers keep the old version.
        let rows_before = e.catalog().rows();
        fp::arm_nth("catalog_publish", 1);
        let err = e.insert(&[vec![1; 8]]);
        assert!(
            matches!(err, Err(EngineError::ExecutionPanicked { .. })),
            "publish fault must be typed: {err:?}"
        );
        assert_eq!(e.catalog().rows(), rows_before, "no torn publish");
        assert!(e.catalog().covers_schema());
        e.insert(&[vec![2; 8]]).unwrap();
        assert_eq!(e.catalog().rows(), rows_before + 1);
        fp::disarm_all();

        // 3. maintain() retires advice only after a build round returns: a
        //    build-phase panic keeps the spec pending, and the retry after
        //    recovery completes the round.
        let mut cfg = EngineConfig {
            background_reorg: true,
            ..EngineConfig::default()
        };
        cfg.window.initial = 8;
        cfg.window.min = 4;
        let e = engine(24, 2000, cfg);
        for i in 0..30 {
            let q = expr_query(&[0, 1, 2, 3], 4, (i % 5) * 100 - 200);
            e.run(Request::query(&q)).unwrap();
        }
        fp::arm_nth("reorg_build", 1);
        let panicked = catch_unwind(AssertUnwindSafe(|| e.maintain()));
        assert!(panicked.is_err(), "armed build phase must panic");
        assert!(
            !e.pending().is_empty(),
            "interrupted spec must survive the panic as pending advice"
        );
        let mut built = 0;
        for _ in 0..4 {
            built += e.maintain().layouts_built;
        }
        assert!(built >= 1, "recovery round must complete the build");
        assert!(e.pending().is_empty());
        assert!(e.stats().layouts_created >= 1);

        // 4. The supervised reorganizer absorbs the same fault on its own
        //    thread: panic counted, backoff taken, pump resumed, round
        //    completed.
        let mut cfg = EngineConfig {
            background_reorg: true,
            ..EngineConfig::default()
        };
        cfg.window.initial = 8;
        cfg.window.min = 4;
        let e = Arc::new(engine(24, 2000, cfg));
        let mut h = e.spawn_reorganizer(Duration::from_millis(1)).unwrap();
        // Arm before the workload: the supervisor polls concurrently and
        // must hit the fault on its *first* build of the recommended
        // layout (background-mode queries never reach reorg_build).
        fp::arm_nth("reorg_build", 1);
        for i in 0..30 {
            let q = expr_query(&[10, 11, 12, 13], 14, (i % 5) * 100 - 200);
            e.run(Request::query(&q)).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while (h.status().panics < 1 || e.stats().layouts_created < 1) && Instant::now() < deadline
        {
            h.nudge();
            std::thread::sleep(Duration::from_millis(2));
        }
        let st = h.status();
        h.stop();
        fp::disarm_all();
        assert!(
            st.panics >= 1,
            "supervisor must have caught the panic: {st:?}"
        );
        assert!(
            e.stats().layouts_created >= 1,
            "supervisor must resume and finish the round: {:?}",
            e.stats()
        );
        let s = e.stats();
        assert!(s.reorg_panics >= 1, "stats: {s:?}");
        assert!(s.reorg_restarts >= 1, "stats: {s:?}");
        assert!(
            st.restarts >= 1 && st.last_backoff >= REORG_BACKOFF_BASE,
            "{st:?}"
        );
    }

    /// Every write path is panic-isolated, not only `insert`: a fault in a
    /// named relation's append or in an offline materialization surfaces
    /// typed and leaves the published state untouched.
    #[cfg(feature = "failpoints")]
    #[test]
    fn write_path_faults_are_isolated() {
        use h2o_storage::failpoints as fp;
        fp::disarm_all();

        // 1. `dim` has 16 rows: its tail chunk is partial and shared with
        //    the published snapshot, so the append clones it.
        let (e, _, _) = join_engine(64, 16, EngineConfig::default());
        let dim_rows = || e.db_snapshot().relation("dim").unwrap().rows();
        fp::arm_nth("cow_clone", 1);
        let err = e.insert_into("dim", &[vec![100, 1000]]);
        assert!(
            matches!(err, Err(EngineError::ExecutionPanicked { .. })),
            "clone fault must be typed: {err:?}"
        );
        assert_eq!(dim_rows(), 16, "no torn append");
        e.insert_into("dim", &[vec![101, 1010]]).unwrap();
        assert_eq!(dim_rows(), 17);

        // 2. An offline build that panics publishes nothing.
        let before = e.catalog().layout_ids();
        fp::arm_nth("reorg_build", 1);
        let err = e.materialize_now(&[AttrId(1), AttrId(2)]);
        assert!(
            matches!(err, Err(EngineError::ExecutionPanicked { .. })),
            "build fault must be typed: {err:?}"
        );
        assert_eq!(e.catalog().layout_ids(), before, "catalog unchanged");
        e.materialize_now(&[AttrId(1), AttrId(2)]).unwrap();
        assert_eq!(e.catalog().layout_ids().len(), before.len() + 1);
        fp::disarm_all();
    }

    // ---- multi-relation queries ----

    use h2o_expr::interpret_join;
    use h2o_storage::LogicalType;

    /// Engine whose primary is a fact relation `R(fk, v0, v1)` joined to a
    /// secondary `dim(k, tag)`. `fk = i % dim_rows`; `v1 = (i * 31) % 1000`
    /// scatters values so zone maps cannot prune (scanned-row counts stay
    /// exact for selectivity-feedback assertions).
    fn join_engine(
        fact_rows: usize,
        dim_rows: usize,
        config: EngineConfig,
    ) -> (H2oEngine, Arc<Schema>, Arc<Schema>) {
        let fact_schema = Schema::typed([
            ("fk", LogicalType::I64),
            ("v0", LogicalType::I64),
            ("v1", LogicalType::I64),
        ])
        .into_shared();
        let fact = Relation::columnar(
            fact_schema.clone(),
            vec![
                (0..fact_rows)
                    .map(|i| (i % dim_rows.max(1)) as Value)
                    .collect(),
                (0..fact_rows).map(|i| ((i * 7) % 1000) as Value).collect(),
                (0..fact_rows).map(|i| ((i * 31) % 1000) as Value).collect(),
            ],
        )
        .unwrap();
        let dim_schema =
            Schema::typed([("k", LogicalType::I64), ("tag", LogicalType::I64)]).into_shared();
        let dim = Relation::columnar(
            dim_schema.clone(),
            vec![
                (0..dim_rows).map(|i| i as Value).collect(),
                (0..dim_rows).map(|i| (i as Value) * 10).collect(),
            ],
        )
        .unwrap();
        let e = H2oEngine::new(fact, config);
        e.add_relation("dim", dim).unwrap();
        (e, fact_schema, dim_schema)
    }

    #[test]
    fn join_matches_interpreter_on_one_snapshot() {
        let (e, fs, ds) = join_engine(400, 16, EngineConfig::default());
        let b = Query::join(("R", fs.clone()), ("dim", ds.clone()));
        let v0 = b.col("v0").unwrap();
        let tag = b.col("tag").unwrap();
        let q = b
            .on("fk", "k")
            .unwrap()
            .filter_left(Conjunction::of([Predicate::lt(1u32, 500)]))
            .project([v0, tag])
            .unwrap();
        let out = e.run(Request::join(&q)).unwrap();
        let (db, got) = (&out.snapshot, out.result);
        let want =
            interpret_join(db.relation("R").unwrap(), db.relation("dim").unwrap(), &q).unwrap();
        assert_eq!(got.fingerprint(), want.fingerprint());
        let rep = out.report.join().unwrap();
        assert_eq!(rep.exec.output_pairs, got.rows());
        assert_eq!(e.stats().queries, 1);

        // A grouped rollup over the same join, same oracle.
        let b = Query::join(("R", fs), ("dim", ds));
        let v0 = b.col("v0").unwrap();
        let tag = b.col("tag").unwrap();
        let q = b
            .on("fk", "k")
            .unwrap()
            .grouped([tag], [Aggregate::sum(v0), Aggregate::count()])
            .unwrap();
        let out = e.run(Request::join(&q)).unwrap();
        let (db, got) = (&out.snapshot, out.result);
        let want =
            interpret_join(db.relation("R").unwrap(), db.relation("dim").unwrap(), &q).unwrap();
        assert_eq!(got, want, "grouped join output is sorted: bit-identical");
    }

    /// Lazy materialization never waits for the writer lock, for either
    /// request kind: with the lock held elsewhere, a join and a query that
    /// would each benefit from a pending group answer without building
    /// it, and the group stays pending.
    #[test]
    fn lazy_requests_skip_a_held_writer_lock() {
        let (e, fs, ds) = join_engine(4000, 16, EngineConfig::default());
        let spec = GroupSpec::new([AttrId(0), AttrId(1)].into_iter().collect::<AttrSet>());
        *e.pending.lock() = vec![spec.clone()];
        let b = Query::join(("R", fs), ("dim", ds));
        let v0 = b.col("v0").unwrap();
        let tag = b.col("tag").unwrap();
        let join = b.on("fk", "k").unwrap().project([v0, tag]).unwrap();
        let query =
            Query::project([Expr::col(1u32)], Conjunction::of([Predicate::lt(0u32, 8)])).unwrap();
        // Both requests would build `{fk, v0}` if they could.
        let snap = e.snapshot();
        for pat in [
            AccessPattern::of_join_side(&join, Side::Left, H2oEngine::DEFAULT_SELECTIVITY),
            AccessPattern::of(&query, H2oEngine::DEFAULT_SELECTIVITY),
        ] {
            let (_, cost) = e.plan_on(&snap, &pat).unwrap();
            assert!(e.best_pending(&snap, &pat, cost).is_some(), "{pat:?}");
        }

        let held = e.writer.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let j = e.run(Request::join(&join)).unwrap();
                let q = e.run(Request::query(&query)).unwrap();
                tx.send((j, q)).unwrap();
            });
            let answered = rx.recv_timeout(Duration::from_secs(3));
            drop(held);
            let (j, q) = answered.expect("a lazy request blocked on the writer lock");
            let db = &j.snapshot;
            let want = interpret_join(
                db.relation("R").unwrap(),
                db.relation("dim").unwrap(),
                &join,
            );
            assert_eq!(j.result.fingerprint(), want.unwrap().fingerprint());
            let want = interpret(q.snapshot.primary(), &query).unwrap();
            assert_eq!(q.result, want);
        });
        assert_eq!(e.pending().len(), 1, "the spec stays pending");
        let stats = e.stats();
        assert_eq!(stats.layouts_created, 0);
        assert_eq!(stats.reorg_time, Duration::ZERO);
    }

    /// Every path that builds a layout — a lazy fused query, a lazy join
    /// side, a background `maintain()` build and `materialize_now` — admits
    /// it the same way: one new layout, one publish, one counted build, the
    /// spec retired, and the bytes `reorg::materialize` builds from the
    /// same parent snapshot.
    #[test]
    fn every_build_path_admits_the_same_way() {
        type Path = fn(&H2oEngine, &JoinQuery, &Query);
        let paths: [(&str, bool, Path); 4] = [
            ("lazy query", false, |e, _, q| {
                let out = e.run(Request::query(q)).unwrap();
                assert_eq!(out.result, interpret(out.snapshot.primary(), q).unwrap());
            }),
            ("lazy join side", false, |e, j, _| {
                e.run(Request::join(j)).unwrap();
            }),
            ("maintain", true, |e, _, _| {
                assert_eq!(e.maintain().layouts_built, 1);
            }),
            ("materialize_now", false, |e, _, _| {
                e.materialize_now(&[AttrId(0), AttrId(1)]).unwrap();
            }),
        ];
        let attrs: AttrSet = [AttrId(0), AttrId(1)].into_iter().collect();
        for (name, background_reorg, path) in paths {
            let cfg = EngineConfig {
                background_reorg,
                ..EngineConfig::default()
            };
            let (e, fs, ds) = join_engine(4000, 16, cfg);
            *e.pending.lock() = vec![GroupSpec::new(attrs.clone())];
            let b = Query::join(("R", fs), ("dim", ds));
            let v0 = b.col("v0").unwrap();
            let tag = b.col("tag").unwrap();
            let join = b.on("fk", "k").unwrap().project([v0, tag]).unwrap();
            let query =
                Query::project([Expr::col(1u32)], Conjunction::of([Predicate::lt(0u32, 8)]))
                    .unwrap();
            let (parent, before) = (e.snapshot(), e.stats());
            path(&e, &join, &query);
            let (now, after) = (e.snapshot(), e.stats());
            assert_eq!(now.group_count(), parent.group_count() + 1, "{name}");
            assert_eq!(
                after.snapshots_published,
                before.snapshots_published + 1,
                "{name}"
            );
            assert_eq!(after.layouts_created, before.layouts_created + 1, "{name}");
            assert!(after.reorg_time > before.reorg_time, "{name}");
            assert_eq!(after.layouts_evicted, 0, "{name}");
            assert!(e.pending().is_empty(), "{name}");
            let id = now.find_exact(&attrs).expect(name);
            let want = reorg::materialize(&parent, &attrs.to_vec()).unwrap();
            assert_eq!(
                now.group(id).unwrap().collect_values(),
                want.collect_values(),
                "{name}"
            );
        }
    }

    /// Advice leaves the pending list by value: the first spec with the
    /// attribute set goes, and retiring an absent spec (one a concurrent
    /// adaptation round already replaced) is a no-op.
    #[test]
    fn retiring_advice_is_by_value_and_idempotent() {
        let e = engine(4, 10, EngineConfig::default());
        let spec = |ids: &[usize]| GroupSpec::new(ids.iter().copied().collect::<AttrSet>());
        *e.pending.lock() = vec![spec(&[0, 1]), spec(&[2]), spec(&[0, 1])];
        e.retire(&spec(&[0, 1]).attrs);
        let left: Vec<AttrSet> = e.pending().into_iter().map(|g| g.attrs).collect();
        assert_eq!(left, [spec(&[2]).attrs, spec(&[0, 1]).attrs]);
        e.retire(&spec(&[3]).attrs);
        e.retire(&spec(&[2]).attrs);
        e.retire(&spec(&[2]).attrs);
        assert_eq!(e.pending().len(), 1);
    }

    #[test]
    fn greedy_build_side_learns_from_observed_selectivity() {
        // Left: 1000 rows with a filter matching exactly 10 (sel 0.01).
        // Right: 100 rows, no filter (sel 1.0). The first run only has the
        // default estimate (0.5) for the left side — 500 estimated rows
        // against 100 — so it builds over the right. Execution observes
        // the true 0.01, and the second run flips the build side.
        let (e, fs, ds) = join_engine(1000, 100, EngineConfig::default());
        let b = Query::join(("R", fs), ("dim", ds));
        let v0 = b.col("v0").unwrap();
        let tag = b.col("tag").unwrap();
        let q = b
            .on("fk", "k")
            .unwrap()
            .filter_left(Conjunction::of([Predicate::lt(2u32, 10)]))
            .project([v0, tag])
            .unwrap();

        let out = e.run(Request::join(&q)).unwrap();
        let (first, r1) = (out.result, out.report.join().unwrap().clone());
        assert!(
            !r1.build_is_left,
            "default estimate must build right: {r1:?}"
        );
        assert!((r1.left_selectivity_estimate - 0.5).abs() < 1e-12);
        let obs = e.observed_join_selectivity(&q, Side::Left).unwrap();
        assert!((obs - 0.01).abs() < 1e-9, "observed {obs}");
        assert_eq!(
            e.observed_join_selectivity(&q, Side::Right),
            None,
            "no filter, no history"
        );

        let out = e.run(Request::join(&q)).unwrap();
        let (second, r2) = (out.result, out.report.join().unwrap().clone());
        assert!(
            r2.build_is_left,
            "observed selectivity must flip the build side: {r2:?}"
        );
        assert!((r2.left_selectivity_estimate - 0.01).abs() < 1e-9);
        // Build-side choice is invisible in the result.
        assert_eq!(first.fingerprint(), second.fingerprint());
    }

    #[test]
    fn single_queries_and_join_sides_keep_separate_histories() {
        // The same filter over `R`, once as a single-relation query and
        // once as a join side bound to `R`: one history key function, two
        // key spaces.
        let filter = Conjunction::of([Predicate::lt(1u32, 500)]);
        let single = Query::project([Expr::col(0u32)], filter.clone()).unwrap();
        let join = |fs: Arc<Schema>, ds: Arc<Schema>| {
            let b = Query::join(("R", fs), ("dim", ds));
            let tag = b.col("tag").unwrap();
            b.on("fk", "k")
                .unwrap()
                .filter_left(filter.clone())
                .project([tag])
                .unwrap()
        };

        let (e, fs, ds) = join_engine(400, 16, EngineConfig::default());
        let q = join(fs, ds);
        e.run(Request::query(&single)).unwrap();
        assert!(e.observed_selectivity(&single).is_some());
        assert_eq!(e.observed_join_selectivity(&q, Side::Left), None);

        let (e, fs, ds) = join_engine(400, 16, EngineConfig::default());
        let q = join(fs, ds);
        e.run(Request::join(&q)).unwrap();
        assert!(e.observed_join_selectivity(&q, Side::Left).is_some());
        assert_eq!(e.observed_selectivity(&single), None);
    }

    #[test]
    fn single_relation_outcome_resolves_every_bound_relation() {
        let (e, _fs, ds) = join_engine(100, 8, EngineConfig::default());
        let extra = Relation::columnar(ds, vec![vec![1, 2], vec![10, 20]]).unwrap();
        e.add_relation("extra", extra).unwrap();
        let q = expr_query(&[1], 2, 500);
        let out = e.run(Request::query(&q)).unwrap();
        let snap = &out.snapshot;
        assert_eq!(snap.relation_names(), vec!["R", "dim", "extra"]);
        assert!(Arc::ptr_eq(snap.relation("R").unwrap(), snap.primary()));
        assert_eq!(snap.relation("dim").unwrap().rows(), 8);
        assert_eq!(snap.relation("extra").unwrap().rows(), 2);
        assert!(snap.relation("nope").is_err());
        let want = interpret(snap.primary(), &q).unwrap();
        assert_eq!(out.result.fingerprint(), want.fingerprint());
    }

    #[test]
    fn forced_build_side_is_bit_identical_and_reported() {
        let (e, fs, ds) = join_engine(300, 8, EngineConfig::default());
        let b = Query::join(("R", fs), ("dim", ds));
        let v1 = b.col("v1").unwrap();
        let tag = b.col("tag").unwrap();
        let q = b
            .on("fk", "k")
            .unwrap()
            .filter_right(Conjunction::of([Predicate::lt(0u32, 6)]))
            .project([v1, tag])
            .unwrap();
        let a = e.run(Request::join(&q).build_side(Side::Left)).unwrap();
        assert!(a.report.join().unwrap().exec.build_is_left);
        let b = e.run(Request::join(&q).build_side(Side::Right)).unwrap();
        assert!(!b.report.join().unwrap().exec.build_is_left);
        assert_eq!(a.result.fingerprint(), b.result.fingerprint());
    }

    #[test]
    fn join_error_messages_are_stable() {
        let (e, fs, ds) = join_engine(50, 4, EngineConfig::default());
        // Unknown relation name, resolved at execution time.
        let b = Query::join(("R", fs.clone()), ("nope", ds.clone()));
        let v0 = b.col("v0").unwrap();
        let q = b.on("fk", "k").unwrap().project([v0]).unwrap();
        assert_eq!(
            e.run(Request::join(&q)).unwrap_err().to_string(),
            "invalid query: unknown relation: nope"
        );
        // The reserved primary name cannot be rebound.
        let dim = Relation::columnar(ds.clone(), vec![vec![], vec![]]).unwrap();
        assert_eq!(
            e.add_relation(PRIMARY_RELATION, dim)
                .unwrap_err()
                .to_string(),
            "relation binding error: \"R\" is the reserved primary relation name"
        );
        // A query typed against a schema other than the engine's binding.
        let other = Schema::typed([
            ("fk", LogicalType::I64),
            ("v0", LogicalType::F64),
            ("v1", LogicalType::I64),
        ])
        .into_shared();
        let b = Query::join(("R", other), ("dim", ds));
        let v1 = b.col("v1").unwrap();
        let q = b.on("fk", "k").unwrap().project([v1]).unwrap();
        let err = e.run(Request::join(&q)).unwrap_err().to_string();
        assert!(
            err.contains("typed against a different schema for relation R"),
            "{err}"
        );
        let _ = fs;
    }

    #[test]
    fn secondary_relations_are_snapshot_isolated() {
        let (e, _fs, ds) = join_engine(100, 8, EngineConfig::default());
        // Binding "dim" was one counted swap.
        assert_eq!(e.stats().snapshots_published, 1);
        assert_eq!(e.db_snapshot().relation_names(), vec!["R", "dim"]);
        let before = e.db_snapshot();
        e.insert_into("dim", &[vec![100, 1000], vec![101, 1010]])
            .unwrap();
        assert_eq!(e.stats().snapshots_published, 2);
        // The pre-insert snapshot still sees the old version; a fresh
        // resolution sees the new rows.
        assert_eq!(before.relation("dim").unwrap().rows(), 8);
        assert_eq!(e.db_snapshot().relation("dim").unwrap().rows(), 10);
        // Binding another relation counts one more swap and keeps both.
        let extra = Relation::columnar(ds, vec![vec![1], vec![10]]).unwrap();
        e.add_relation("extra", extra).unwrap();
        assert_eq!(e.stats().snapshots_published, 3);
        assert_eq!(e.db_snapshot().relation("dim").unwrap().rows(), 10);
        // Inserting into an unbound name is an error that publishes
        // nothing; into the primary name, an alias for `insert`.
        assert!(e.insert_into("nope", &[vec![1, 2]]).is_err());
        assert_eq!(e.stats().snapshots_published, 3);
        e.insert_into(PRIMARY_RELATION, &[vec![0, 0, 0]]).unwrap();
        assert_eq!(e.snapshot().rows(), 101);
        assert_eq!(e.stats().snapshots_published, 4);
    }

    #[test]
    fn every_outcome_report_matches_the_shim() {
        // Lazy mode: the hot cluster is materialized on the query path by
        // a fused reorganization query, and joins run in between.
        let mut cfg = EngineConfig::default();
        cfg.window.initial = 10;
        cfg.window.min = 4;
        let (e, fs, ds) = join_engine(4000, 16, cfg);
        let b = Query::join(("R", fs), ("dim", ds));
        let (v0, tag) = (b.col("v0").unwrap(), b.col("tag").unwrap());
        let join = b.on("fk", "k").unwrap().project([v0, tag]).unwrap();
        let mut created = 0;
        for i in 0..40 {
            if i % 10 == 5 {
                let out = e.run(Request::join(&join)).unwrap();
                assert_eq!(out.report.join().cloned(), e.last_join_report());
                assert_eq!(e.last_report(), None, "one slot, one request kind");
            } else {
                let q = expr_query(&[1, 2], 0, (i % 7) * 2 + 2);
                let out = e.run(Request::query(&q)).unwrap();
                assert_eq!(out.report.query().cloned(), e.last_report());
                assert_eq!(e.last_join_report(), None, "one slot, one request kind");
                created += out.report.query().unwrap().created_layout.map_or(0, |_| 1);
            }
        }
        assert!(created >= 1, "a fused reorganization query must have run");
    }

    #[test]
    fn join_workload_drives_adviser_to_key_payload_group() {
        // A join-heavy workload over the primary must make the adviser
        // materialize a group covering the key + payload columns it
        // gathers, exactly as a grouped workload does for its keys.
        let mut cfg = EngineConfig::default();
        cfg.window.initial = 8;
        cfg.window.min = 4;
        let fact_schema = Schema::with_width(20).into_shared();
        let mut cols = columns(20, 3000);
        for v in &mut cols[0] {
            *v = v.rem_euclid(16);
        }
        let fact = Relation::columnar(fact_schema.clone(), cols).unwrap();
        let e = H2oEngine::new(fact, cfg);
        let dim_schema =
            Schema::typed([("k", LogicalType::I64), ("tag", LogicalType::I64)]).into_shared();
        let dim = Relation::columnar(
            dim_schema.clone(),
            vec![(0..16).collect(), (0..16).map(|i| i * 10).collect()],
        )
        .unwrap();
        e.add_relation("dim", dim).unwrap();

        for i in 0..40i64 {
            let b = Query::join(("R", fact_schema.clone()), ("dim", dim_schema.clone()));
            let p1 = b.lcol("a1").unwrap();
            let p2 = b.lcol("a2").unwrap();
            let tag = b.rcol("tag").unwrap();
            let q = b
                .on("a0", "k")
                .unwrap()
                .filter_left(Conjunction::of([Predicate::lt(3u32, (i % 7) * 200 - 600)]))
                .project([p1, p2, tag])
                .unwrap();
            let out = e.run(Request::join(&q)).unwrap();
            let (db, got) = (&out.snapshot, out.result);
            let want =
                interpret_join(db.relation("R").unwrap(), db.relation("dim").unwrap(), &q).unwrap();
            assert_eq!(got.fingerprint(), want.fingerprint(), "join query {i}");
        }
        let stats = e.stats();
        assert!(stats.adaptations >= 1, "window must trigger adaptation");
        assert!(
            stats.layouts_created >= 1,
            "join workload must materialize a layout; stats: {stats:?}"
        );
        // Key {0} + payload {1,2} form the hot select cluster.
        assert!(
            some_layout_holds(&e.catalog(), &[0, 1, 2]),
            "expected a group covering join key + payload"
        );
    }
}
