//! Operator generation: lowering a query + access plan into a compiled
//! operator, and executing compiled operators.
//!
//! [`compile`] is the analogue of the paper's source-template instantiation
//! (§3.4): it resolves every attribute reference against the plan's layouts
//! and selects/parameterizes the kernel. [`run`] is the analogue of
//! invoking the dynamically linked library: it binds raw group views and
//! runs the kernel's loops.

use crate::bind::{BoundAttr, GroupViews};
use crate::cancel::{CancelReason, CancelToken};
use crate::filter::CompiledFilter;
use crate::kernels;
use crate::parallel::{run_ranges, ExecPolicy};
use crate::plan::{AccessPlan, Strategy};
use crate::selvec::SelVec;
use crate::sink::SelectProgram;
use h2o_expr::typecheck::{self, QueryTypes};
use h2o_expr::{Query, QueryError, QueryResult};
use h2o_storage::{AttrId, ColumnGroup, LayoutCatalog, LayoutId, StorageError, Value};
use std::fmt;

/// Errors from operator compilation or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Underlying storage error (unknown layout, etc.).
    Storage(StorageError),
    /// The plan's layouts do not store an attribute the query needs.
    Unbound(AttrId),
    /// The query failed plan-time validation against the schema —
    /// typically [`QueryError::TypeMismatch`]. Nothing was compiled or
    /// scanned.
    Query(QueryError),
    /// The query's [`CancelToken`] was cancelled mid-scan. The partial
    /// result was discarded; nothing observable happened.
    Cancelled,
    /// The query's [`CancelToken`] deadline passed mid-scan. The partial
    /// result was discarded; nothing observable happened.
    DeadlineExpired,
    /// The query's [`CancelToken`] morsel budget ran out mid-scan. The
    /// partial result was discarded; nothing observable happened.
    BudgetExhausted,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Storage(e) => write!(f, "storage error: {e}"),
            ExecError::Unbound(a) => {
                write!(f, "plan does not cover attribute {a} required by the query")
            }
            ExecError::Query(e) => write!(f, "{e}"),
            ExecError::Cancelled => write!(f, "query cancelled"),
            ExecError::DeadlineExpired => write!(f, "query deadline expired"),
            ExecError::BudgetExhausted => write!(f, "query morsel budget exhausted"),
        }
    }
}

impl From<CancelReason> for ExecError {
    fn from(r: CancelReason) -> Self {
        match r {
            CancelReason::Cancelled => ExecError::Cancelled,
            CancelReason::DeadlineExpired => ExecError::DeadlineExpired,
            CancelReason::BudgetExhausted => ExecError::BudgetExhausted,
        }
    }
}

impl std::error::Error for ExecError {}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

impl From<QueryError> for ExecError {
    fn from(e: QueryError) -> Self {
        ExecError::Query(e)
    }
}

/// Per-execution counters a caller can collect alongside the result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Segment runs skipped by zone-map pruning
    /// ([`GroupViews::segments_skipped`]).
    pub segments_skipped: u64,
}

/// A fully generated operator: offset-resolved filter and select programs,
/// plus the plan that tells execution which groups to bind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledOp {
    plan: AccessPlan,
    filter: CompiledFilter,
    select: SelectProgram,
}

impl CompiledOp {
    /// The access plan the operator was generated for.
    pub fn plan(&self) -> &AccessPlan {
        &self.plan
    }

    /// The compiled filter.
    pub fn filter(&self) -> &CompiledFilter {
        &self.filter
    }

    /// The compiled select program.
    pub fn select(&self) -> &SelectProgram {
        &self.select
    }

    /// Re-parameterizes the operator with new predicate constants (in
    /// where-clause order). Cached operators are reused across queries that
    /// share a shape but differ in constants, exactly as the paper's
    /// generated functions take `val1`/`val2` as arguments.
    pub fn rebind_constants(&mut self, values: &[Value]) {
        self.filter.rebind_constants(values);
    }
}

/// The binding rule of every operator: resolves an attribute to the first
/// of `layouts` (plan slot order) whose group stores it.
pub(crate) fn plan_binder<'c>(
    catalog: &'c LayoutCatalog,
    layouts: &[LayoutId],
) -> Result<impl Fn(AttrId) -> Result<BoundAttr, ExecError> + 'c, ExecError> {
    let groups = layouts.iter().map(|&id| catalog.group(id));
    let groups: Vec<&ColumnGroup> = groups.collect::<Result<_, _>>()?;
    Ok(move |attr| {
        let found = groups
            .iter()
            .enumerate()
            .find_map(|(s, g)| Some((s, g.offset_of(attr)?)));
        let (slot, offset) = found.ok_or(ExecError::Unbound(attr))?;
        let (slot, offset) = (slot as u32, offset as u32);
        Ok(BoundAttr { slot, offset })
    })
}

/// Generates the operator for `query` over `plan`. Type checks the query
/// against the catalog's schema first ([`typecheck::check`]) and bakes the
/// resulting types into the generated programs: typed comparators with
/// key-mapped constants, typed arithmetic opcodes, typed aggregate ops,
/// grouped key types — so no kernel inner loop ever consults a type.
pub fn compile(
    catalog: &LayoutCatalog,
    plan: &AccessPlan,
    query: &Query,
) -> Result<CompiledOp, ExecError> {
    let checked = typecheck::check(query, catalog.schema())?;
    compile_checked(catalog, plan, query, &checked)
}

/// [`compile`] with the plan-time typing already in hand (the operator
/// cache computes it once per lookup for constant rebinding).
pub fn compile_checked(
    catalog: &LayoutCatalog,
    plan: &AccessPlan,
    query: &Query,
    checked: &QueryTypes,
) -> Result<CompiledOp, ExecError> {
    let bind = plan_binder(catalog, &plan.layouts)?;
    let filter = CompiledFilter::lower(query.filter(), &checked.predicates, &bind)?;
    let select = SelectProgram::lower(query.select_clause(), &checked.select, &bind)?;

    Ok(CompiledOp {
        plan: plan.clone(),
        filter,
        select,
    })
}

/// Everything an execution takes besides the operator and its data: the
/// parallelism policy and an optional cooperative-stop token.
#[derive(Debug, Clone, Copy)]
pub struct ExecCtx<'a> {
    /// How (and whether) scans split into morsels.
    pub policy: ExecPolicy,
    /// Cancellation / deadline / morsel-budget token. Every scan polls it
    /// per run (capped at
    /// [`CANCEL_CHECK_ROWS`](crate::cancel::CANCEL_CHECK_ROWS) rows) and at
    /// id-chunk boundaries; once it trips, partial results are
    /// **discarded** and the matching typed [`ExecError`] is returned. A
    /// token that never trips changes no result bit.
    pub cancel: Option<&'a CancelToken>,
}

impl ExecCtx<'_> {
    /// A context running under `policy`, with no stop token.
    pub fn new(policy: ExecPolicy) -> Self {
        ExecCtx {
            policy,
            cancel: None,
        }
    }

    /// The typed error for a tripped token. Drivers call this before
    /// starting (a tripped token runs nothing) and again before anything
    /// escapes: kernels running over a tripped token drain early and
    /// return garbage partials, which must never be observable.
    pub(crate) fn check(&self) -> Result<(), ExecError> {
        match self.cancel.and_then(|t| t.should_stop()) {
            Some(reason) => Err(reason.into()),
            None => Ok(()),
        }
    }

    /// [`Self::check`]s, then resolves `layouts` into views with the token
    /// attached.
    pub(crate) fn views<'c>(
        &self,
        catalog: &'c LayoutCatalog,
        layouts: &[LayoutId],
    ) -> Result<GroupViews<'c>, ExecError> {
        self.check()?;
        let mut views = GroupViews::resolve(catalog, layouts)?;
        if let Some(token) = self.cancel {
            views.set_cancel(token.clone());
        }
        Ok(views)
    }
}

/// Executes a compiled operator against the catalog — the one
/// single-relation entry point. Results are bit-identical for every
/// strategy, query shape and policy (see `crate::parallel`), and a serial
/// policy is bit-identical to the reference interpreter. Also returns the
/// execution counters (zone-map segment skips) the engine folds into
/// `EngineStats`.
pub fn run(
    catalog: &LayoutCatalog,
    op: &CompiledOp,
    ctx: &ExecCtx<'_>,
) -> Result<(QueryResult, ExecStats), ExecError> {
    let views = ctx.views(catalog, &op.plan.layouts)?;
    let result = scan(
        &views,
        op.plan.strategy,
        &op.filter,
        &op.select,
        &ctx.policy,
    );
    ctx.check()?;
    let segments_skipped = views.segments_skipped();
    Ok((result, ExecStats { segments_skipped }))
}

/// [`run`], serially (the paper-faithful single-threaded path).
pub fn execute(catalog: &LayoutCatalog, op: &CompiledOp) -> Result<QueryResult, ExecError> {
    execute_with_policy(catalog, op, &ExecPolicy::serial())
}

/// [`run`] under a parallelism policy, result only.
pub fn execute_with_policy(
    catalog: &LayoutCatalog,
    op: &CompiledOp,
    policy: &ExecPolicy,
) -> Result<QueryResult, ExecError> {
    execute_with_policy_stats(catalog, op, policy).map(|(r, _)| r)
}

/// [`run`] under a parallelism policy.
pub fn execute_with_policy_stats(
    catalog: &LayoutCatalog,
    op: &CompiledOp,
    policy: &ExecPolicy,
) -> Result<(QueryResult, ExecStats), ExecError> {
    run(catalog, op, &ExecCtx::new(*policy))
}

/// The scan driver over pre-resolved views. The strategies differ only in
/// the **source** of each range's [`Partial`](crate::sink::Partial) —
///
/// * fused: row range → partial, in one pass;
/// * selection-vector / column-major: row range → qualifying ids, stitched
///   in range order, then id chunk → partial (chunking by *qualifying*
///   rows keeps phase 2 balanced at any selectivity). The column-major
///   no-filter bare-column aggregate streams row ranges directly — no
///   selection vector exists to chunk;
///
/// — and the select shape's sink finishes the partials in range order.
/// Ranges come from [`run_ranges`]: one range under a serial policy, so
/// there is no separate serial path.
pub(crate) fn scan(
    views: &GroupViews<'_>,
    strategy: Strategy,
    filter: &CompiledFilter,
    select: &SelectProgram,
    policy: &ExecPolicy,
) -> QueryResult {
    let (rows, seg_rows) = (views.rows(), views.seg_rows());
    let columnar = strategy == Strategy::ColumnMajor;
    let streaming = columnar.then(|| select.streaming_cols(filter)).flatten();
    let parts = if strategy == Strategy::FusedVolcano {
        run_ranges(rows, seg_rows, policy, |r| {
            let mut part = select.partial();
            select.scan_range(views, filter, r, &mut part);
            part
        })
    } else if let Some(cols) = streaming {
        run_ranges(rows, seg_rows, policy, |r| {
            cols.iter()
                .map(|&(f, a)| kernels::colmajor::agg_full_column_range(views, a, f, r.clone()))
                .collect::<Vec<_>>()
                .into()
        })
    } else {
        let sel = stitch(run_ranges(rows, seg_rows, policy, |r| {
            kernels::qualifying_ids(columnar, views, filter, r)
        }));
        // Phase-2 kernels walk ids, not segment runs, so their
        // cancellation poll happens here at chunk boundaries; a tripped
        // token yields empty partials the caller discards.
        run_ranges(sel.len(), seg_rows, policy, |r| {
            if views.cancel_stopped() {
                return select.partial();
            }
            select.gather(views, &sel.ids()[r], columnar)
        })
    };
    select.finish(parts)
}

/// Stitches per-range selection vectors in range order (a single range's
/// vector is already the whole).
fn stitch(mut parts: Vec<SelVec>) -> SelVec {
    if parts.len() <= 1 {
        return parts.pop().unwrap_or_default();
    }
    let mut out = SelVec::with_capacity(parts.iter().map(|p| p.len()).sum());
    for part in &parts {
        out.extend_from(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_expr::{interpret, Aggregate, Conjunction, Expr, Predicate};
    use h2o_storage::{Relation, Schema};

    fn relation(partition: Vec<Vec<AttrId>>) -> Relation {
        relation_of(50, partition)
    }

    fn relation_of(rows: usize, partition: Vec<Vec<AttrId>>) -> Relation {
        let schema = Schema::with_width(6).into_shared();
        let cols: Vec<Vec<Value>> = (0..6)
            .map(|k| {
                (0..rows)
                    .map(|r| ((k as Value + 1) * 37 + r as Value * 13) % 101 - 50)
                    .collect()
            })
            .collect();
        Relation::partitioned(schema, cols, partition).unwrap()
    }

    /// A parallel policy whose 7-row morsels leave odd tails everywhere.
    fn odd_morsels() -> ExecPolicy {
        ExecPolicy {
            parallelism: Some(4),
            morsel_rows: 7,
            serial_threshold: 0,
        }
    }

    fn cancellable<'a>(policy: &ExecPolicy, token: &'a CancelToken) -> ExecCtx<'a> {
        ExecCtx {
            cancel: Some(token),
            ..ExecCtx::new(*policy)
        }
    }

    fn queries() -> Vec<Query> {
        vec![
            Query::project(
                [Expr::sum_of([AttrId(0), AttrId(1), AttrId(2)])],
                Conjunction::of([Predicate::lt(3u32, 10), Predicate::gt(4u32, -20)]),
            )
            .unwrap(),
            Query::project(
                [Expr::col(0u32), Expr::col(5u32).mul(Expr::lit(3))],
                Conjunction::of([Predicate::gt(1u32, 0)]),
            )
            .unwrap(),
            Query::aggregate(
                [
                    Aggregate::sum(Expr::sum_of([AttrId(1), AttrId(2)])),
                    Aggregate::max(Expr::col(3u32)),
                    Aggregate::count(),
                ],
                Conjunction::of([Predicate::le(0u32, 5)]),
            )
            .unwrap(),
            Query::aggregate([Aggregate::min(Expr::col(4u32))], Conjunction::always()).unwrap(),
            Query::grouped(
                [Expr::col(0u32)],
                [Aggregate::sum(Expr::col(1u32)), Aggregate::count()],
                Conjunction::of([Predicate::gt(2u32, 0)]),
            )
            .unwrap(),
            Query::grouped(
                [Expr::col(3u32).mul(Expr::lit(2)), Expr::col(4u32)],
                [Aggregate::max(Expr::sum_of([AttrId(0), AttrId(5)]))],
                Conjunction::always(),
            )
            .unwrap(),
        ]
    }

    /// All strategies over all layouts must equal the reference interpreter
    /// — on a populated and on a zero-row relation, serially and under odd
    /// morsel tails.
    #[test]
    fn differential_all_strategies_all_layouts() {
        let partitions: Vec<Vec<Vec<AttrId>>> = vec![
            (0..6).map(|i| vec![AttrId(i)]).collect(),   // columnar
            vec![(0u32..6).map(AttrId::from).collect()], // row-major
            vec![
                vec![AttrId(0), AttrId(1), AttrId(2)],
                vec![AttrId(3), AttrId(4)],
                vec![AttrId(5)],
            ], // groups
        ];
        for (partition, rows) in partitions
            .into_iter()
            .flat_map(|p| [(p.clone(), 50), (p, 0)])
        {
            let rel = relation_of(rows, partition);
            let layouts = rel.catalog().layout_ids();
            for q in queries() {
                let want = interpret(rel.catalog(), &q).unwrap();
                for strategy in Strategy::ALL {
                    let plan = AccessPlan::new(layouts.clone(), strategy);
                    let op = compile(rel.catalog(), &plan, &q).unwrap();
                    let got = execute(rel.catalog(), &op).unwrap();
                    assert_eq!(
                        got.fingerprint(),
                        want.fingerprint(),
                        "strategy {} rows {rows} query {q}",
                        strategy.name()
                    );
                    let par = execute_with_policy(rel.catalog(), &op, &odd_morsels()).unwrap();
                    assert_eq!(
                        par,
                        got,
                        "odd morsels: strategy {} rows {rows} query {q}",
                        strategy.name()
                    );
                }
            }
        }
    }

    #[test]
    fn cancel_token_discards_results_and_types_the_error() {
        let rel = relation(vec![(0u32..6).map(AttrId::from).collect()]);
        let layouts = rel.catalog().layout_ids();
        let policy = ExecPolicy::serial();
        for q in queries() {
            let want = interpret(rel.catalog(), &q).unwrap();
            for strategy in Strategy::ALL {
                let plan = AccessPlan::new(layouts.clone(), strategy);
                let op = compile(rel.catalog(), &plan, &q).unwrap();
                // A live token that never trips: bit-identical results.
                let live = CancelToken::new();
                let (got, _) = run(rel.catalog(), &op, &cancellable(&policy, &live)).unwrap();
                assert_eq!(got.fingerprint(), want.fingerprint());
                // Pre-cancelled: typed error, nothing runs.
                let cancelled = CancelToken::new();
                cancelled.cancel();
                assert_eq!(
                    run(rel.catalog(), &op, &cancellable(&policy, &cancelled)).unwrap_err(),
                    ExecError::Cancelled
                );
                // Expired deadline: the other typed error.
                let expired = CancelToken::with_deadline(std::time::Duration::ZERO);
                assert_eq!(
                    run(rel.catalog(), &op, &cancellable(&policy, &expired)).unwrap_err(),
                    ExecError::DeadlineExpired
                );
                // Zero morsel budget: stopped before the first run.
                let broke = CancelToken::new();
                broke.set_budget(0);
                assert_eq!(
                    run(rel.catalog(), &op, &cancellable(&policy, &broke)).unwrap_err(),
                    ExecError::BudgetExhausted
                );
                // A generous budget never trips: bit-identical results.
                let rich = CancelToken::new();
                rich.set_budget(1 << 20);
                let (got, _) = run(rel.catalog(), &op, &cancellable(&policy, &rich)).unwrap();
                assert_eq!(got.fingerprint(), want.fingerprint());
            }
        }
    }

    #[test]
    fn mid_scan_cancellation_is_observed_per_run() {
        // Cancel from inside the scan via a predicate view: arm a token,
        // then flip it after the first segment run by cancelling from
        // another thread while the scan spins. Deterministic variant:
        // trip the token, then verify a *fresh* scan still matches —
        // i.e. cancellation never corrupts shared state.
        let rel = relation(vec![(0u32..6).map(AttrId::from).collect()]);
        let q = &queries()[0];
        let plan = AccessPlan::new(rel.catalog().layout_ids(), Strategy::FusedVolcano);
        let op = compile(rel.catalog(), &plan, q).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let policy = ExecPolicy::serial();
        assert!(run(rel.catalog(), &op, &cancellable(&policy, &token)).is_err());
        let want = interpret(rel.catalog(), q).unwrap();
        let (got, _) = execute_with_policy_stats(rel.catalog(), &op, &policy).unwrap();
        assert_eq!(got.fingerprint(), want.fingerprint());
    }

    #[test]
    fn cancelled_reorg_never_yields_a_group() {
        use crate::reorg;
        let rel = relation(vec![(0u32..6).map(AttrId::from).collect()]);
        let q = Query::aggregate(
            [Aggregate::sum(Expr::col(1u32))],
            Conjunction::of([Predicate::gt(0u32, -100)]),
        )
        .unwrap();
        let attrs = [AttrId(0), AttrId(1)];
        for policy in [ExecPolicy::serial(), ExecPolicy::with_threads(4)] {
            let token = CancelToken::new();
            token.cancel();
            let err =
                reorg::reorg_and_execute(rel.catalog(), &attrs, &q, &cancellable(&policy, &token))
                    .unwrap_err();
            assert_eq!(err, ExecError::Cancelled);
            // A live token builds the identical group to the uncancelled path.
            let live = CancelToken::new();
            let (g, r) =
                reorg::reorg_and_execute(rel.catalog(), &attrs, &q, &cancellable(&policy, &live))
                    .unwrap();
            let (g0, r0) =
                reorg::reorg_and_execute(rel.catalog(), &attrs, &q, &ExecCtx::new(policy)).unwrap();
            assert_eq!(g.collect_values(), g0.collect_values());
            assert_eq!(r.fingerprint(), r0.fingerprint());
        }
    }

    #[test]
    fn unbound_attr_is_reported() {
        let rel = relation(vec![(0u32..6).map(AttrId::from).collect()]);
        let plan = AccessPlan::new(vec![], Strategy::FusedVolcano);
        let q = Query::project([Expr::col(0u32)], Conjunction::always()).unwrap();
        assert_eq!(
            compile(rel.catalog(), &plan, &q).unwrap_err(),
            ExecError::Unbound(AttrId(0))
        );
    }

    #[test]
    fn rebind_constants_changes_selection() {
        let rel = relation(vec![(0u32..6).map(AttrId::from).collect()]);
        let q = Query::aggregate(
            [Aggregate::count()],
            Conjunction::of([Predicate::lt(0u32, -1000)]),
        )
        .unwrap();
        let plan = AccessPlan::new(rel.catalog().layout_ids(), Strategy::FusedVolcano);
        let mut op = compile(rel.catalog(), &plan, &q).unwrap();
        assert_eq!(execute(rel.catalog(), &op).unwrap().row(0), &[0]);
        op.rebind_constants(&[1000]);
        assert_eq!(execute(rel.catalog(), &op).unwrap().row(0), &[50]);
    }
}
