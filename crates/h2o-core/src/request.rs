//! The unified request API: one engine entry point, composable options.
//!
//! [`H2oEngine::run`](crate::H2oEngine::run) replaces the historical
//! `execute_*` method family with a single entry taking a [`Request`] —
//! a query shape ([`Request::query`] or [`Request::join`]) plus an
//! [`ExecOptions`] bundle. Options **compose**: a deadline and a
//! selectivity hint on the same query, a caller-owned cancel token plus
//! a morsel budget, a forced join build side under a deadline — spellings
//! the old nine-method surface could not express.
//!
//! Every successful run returns an [`Outcome`]: the result rows, the
//! [`DbSnapshot`] they were computed against — one snapshot type for both
//! request kinds — so callers (differential tests, the `h2o-server` oracle
//! check) can re-derive the answer from the exact same data, and the
//! [`Report`] of what the engine did for this request (plan, layouts read,
//! layout created), which no concurrent request can overwrite. A failed
//! request returns only its typed error.

use crate::engine::{DbSnapshot, Report};
use h2o_exec::CancelToken;
use h2o_expr::{JoinQuery, Query, QueryResult, Side};
use std::time::Duration;

/// Composable per-request execution options. Construct with
/// [`ExecOptions::new`] (or `Default`) and chain the builder methods;
/// pass to [`Request::with_options`] or use the forwarding builders on
/// [`Request`] directly.
///
/// The `h2o-server` wire protocol mirrors this struct field-for-field
/// (its `opts` request object converts 1:1 via one conversion), so a
/// network client composes exactly the options an in-process caller can.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    pub(crate) selectivity_hint: Option<f64>,
    pub(crate) deadline: Option<Duration>,
    pub(crate) cancel: Option<CancelToken>,
    pub(crate) build_side: Option<Side>,
    pub(crate) morsel_budget: Option<u64>,
}

impl ExecOptions {
    /// No options: plan from observed history, no deadline, greedy build
    /// side, unbounded budget.
    pub fn new() -> ExecOptions {
        ExecOptions::default()
    }

    /// Plans with an explicit selectivity estimate instead of the
    /// engine's observed history (harnesses that control the workload
    /// know the true selectivity). Applies to single-relation queries;
    /// join sides keep their per-side observed history.
    pub fn hint(mut self, selectivity: f64) -> ExecOptions {
        self.selectivity_hint = Some(selectivity);
        self
    }

    /// Fails the request with [`EngineError::Timeout`] unless it
    /// completes within `timeout`, publishing nothing.
    ///
    /// [`EngineError::Timeout`]: crate::EngineError::Timeout
    pub fn deadline(mut self, timeout: Duration) -> ExecOptions {
        self.deadline = Some(timeout);
        self
    }

    /// Runs under a caller-owned [`CancelToken`]: any thread holding a
    /// clone can stop the request cooperatively
    /// ([`EngineError::Cancelled`]). Composes with [`Self::deadline`] /
    /// [`Self::budget`], which arm the same token.
    ///
    /// [`EngineError::Cancelled`]: crate::EngineError::Cancelled
    pub fn cancel(mut self, token: &CancelToken) -> ExecOptions {
        self.cancel = Some(token.clone());
        self
    }

    /// Forces the hash-join build side instead of the greedy
    /// selectivity-driven choice (the harness hook for comparing join
    /// orders). Applies to join requests; single-relation queries ignore
    /// it.
    pub fn build_side(mut self, side: Side) -> ExecOptions {
        self.build_side = Some(side);
        self
    }

    /// Caps the request's scan work at `units` morsel units (segment
    /// runs of at most
    /// [`CANCEL_CHECK_ROWS`](h2o_exec::CANCEL_CHECK_ROWS) rows each,
    /// across both join sides). A request over budget fails with
    /// [`EngineError::BudgetExhausted`], publishing nothing — the
    /// admission lever `h2o-server` uses so one heavy rollup cannot
    /// starve point queries.
    ///
    /// [`EngineError::BudgetExhausted`]: crate::EngineError::BudgetExhausted
    pub fn budget(mut self, units: u64) -> ExecOptions {
        self.morsel_budget = Some(units);
        self
    }
}

/// The query shape a [`Request`] carries.
pub(crate) enum RequestKind<'a> {
    Query(&'a Query),
    Join(&'a JoinQuery),
}

/// One unit of work for [`H2oEngine::run`](crate::H2oEngine::run): a
/// borrowed query shape plus its [`ExecOptions`].
///
/// ```
/// use h2o_core::Request;
/// use h2o_expr::{Conjunction, Expr, Predicate, Query};
/// use std::time::Duration;
///
/// let q = Query::project(
///     [Expr::col(1u32)],
///     Conjunction::of([Predicate::lt(0u32, 100)]),
/// )
/// .unwrap();
/// // Options compose: a deadline *and* a planning hint.
/// let req = Request::query(&q).deadline(Duration::from_secs(1)).hint(0.1);
/// # let _ = req;
/// ```
pub struct Request<'a> {
    pub(crate) kind: RequestKind<'a>,
    pub(crate) opts: ExecOptions,
}

impl<'a> Request<'a> {
    /// A single-relation request over the engine's primary relation.
    pub fn query(q: &'a Query) -> Request<'a> {
        Request {
            kind: RequestKind::Query(q),
            opts: ExecOptions::default(),
        }
    }

    /// A two-relation hash-join request (sides named per the query's
    /// relation bindings).
    pub fn join(q: &'a JoinQuery) -> Request<'a> {
        Request {
            kind: RequestKind::Join(q),
            opts: ExecOptions::default(),
        }
    }

    /// Replaces this request's options wholesale — the 1:1 entry the
    /// server's wire decoding uses.
    pub fn with_options(mut self, opts: ExecOptions) -> Request<'a> {
        self.opts = opts;
        self
    }

    /// See [`ExecOptions::hint`].
    pub fn hint(mut self, selectivity: f64) -> Request<'a> {
        self.opts = self.opts.hint(selectivity);
        self
    }

    /// See [`ExecOptions::deadline`].
    pub fn deadline(mut self, timeout: Duration) -> Request<'a> {
        self.opts = self.opts.deadline(timeout);
        self
    }

    /// See [`ExecOptions::cancel`].
    pub fn cancel(mut self, token: &CancelToken) -> Request<'a> {
        self.opts = self.opts.cancel(token);
        self
    }

    /// See [`ExecOptions::build_side`].
    pub fn build_side(mut self, side: Side) -> Request<'a> {
        self.opts = self.opts.build_side(side);
        self
    }

    /// See [`ExecOptions::budget`].
    pub fn budget(mut self, units: u64) -> Request<'a> {
        self.opts = self.opts.budget(units);
        self
    }
}

/// What [`H2oEngine::run`](crate::H2oEngine::run) returns: the result
/// rows, the snapshot they were computed against, and the request's own
/// report.
#[derive(Debug)]
pub struct Outcome {
    /// The query's result rows.
    pub result: QueryResult,
    /// The exact data version the result was computed from — the hook
    /// differential tests and the server's oracle check use to re-derive
    /// the answer on the same data. A join's is the one view both sides
    /// resolved against; a single-relation query's is the one it ran on
    /// (the one it published, after a fused reorganization).
    /// `Arc`-backed: returning it copies no data.
    pub snapshot: DbSnapshot,
    /// What the engine did for this request: a [`Report::Query`] for a
    /// single-relation query (strategy, layouts read, the layout a fused
    /// reorganization created), a [`Report::Join`] for a join (build side,
    /// per-side plans, cardinalities).
    pub report: Report,
}

impl Outcome {
    /// Consumes the outcome, keeping only the rows — for callers that
    /// never consult the snapshot.
    pub fn into_result(self) -> QueryResult {
        self.result
    }
}
