//! Hash-join execution: morsel-parallel build + probe over segment runs,
//! specialized per execution strategy.
//!
//! The paper's evaluation is single-relation; this module extends each of
//! its three execution strategies (§3.3) to the two-table equi-join shape
//! ([`h2o_expr::JoinQuery`]) while preserving their cost structure:
//!
//! * **fused** — qualifying rows of each side are found by the one-pass
//!   scan's block walker (filter fused into the segment-run loop, no
//!   selection vector), and the probe folds them block by block;
//! * **selection-vector** — each side's where-clause materializes a
//!   per-morsel selection vector first (the Fig. 6 phase split), and the
//!   build gather / probe walk consume its ids;
//! * **column-major** — ids come from the DSM column-at-a-time filter.
//!
//! Both sides reuse the single-relation machinery end-to-end: zone-map
//! pruning via [`GroupViews::runs_pruned`], the vectorized selection
//! kernels, the range driver ([`run_ranges`]) and the select program's
//! sink ([`crate::sink`] — blocks concatenated, aggregate partials merged,
//! grouped tables merged, all in morsel order), so parallel join execution
//! is bit-identical to serial for a fixed build side.
//!
//! # Build, probe, and determinism
//!
//! [`run_join`] hash-partitions the **build** side: each morsel gathers
//! its qualifying rows' key and payload lanes in row order and hashes
//! every key once ([`hash_key`], a fixed-seed splitmix64 chain). The
//! per-morsel parts are inserted into one flat hash table ([`LaneMap`])
//! sequentially in morsel order — identical to a serial row-order build —
//! and folded into the probe prefilter, both with those same hashes. The
//! table gives each distinct key a dense id; a stable counting sort then
//! lays the payload rows out as one CSR row list, so key `id`'s build rows
//! are one contiguous slice in build-row order. Keys hash and compare as
//! **raw lane bits** (`f64` keys by bit pattern, dictionary keys by code —
//! the join gate guarantees a shared dictionary), matching
//! [`h2o_expr::interp::interpret_join`].
//!
//! Which side builds is the **caller's** choice ([`compile_join`]'s
//! `build_is_left`): the engine picks the side it observes to be smaller
//! after filtering (greedy, statistics-free — see the join path behind
//! `h2o_core::H2oEngine::run`), and an empty build side
//! short-circuits the probe scan entirely. Output *row order* depends on
//! the build side (pairs stream in probe-row order), so cross-build-side
//! comparisons use the order-independent
//! [`QueryResult::fingerprint`]; for a fixed build side, results are
//! bit-identical serial vs parallel, segmented vs monolithic.
//!
//! Joins participate in cooperative cancellation like single-relation
//! scans ([`crate::cancel`]): [`run_join`] attaches
//! [`ExecCtx::cancel`] to **both** the build and the probe views, so a
//! cancel, deadline expiry, or morsel-budget exhaustion is observed at
//! segment-run granularity in either phase. As everywhere else, the
//! contract is result-level: partials are drained and discarded, and the
//! driver returns a typed [`ExecError`] — nothing observable is
//! published from a stopped join.
//!
//! # The probe: one block pipeline
//!
//! Qualifying probe rows arrive 1K at a time (the last block of a range
//! may be shorter), from the walkers the scans already use: the fused
//! scan's block walker over the pruned segment runs, 1K-id chunks of the
//! selection vector otherwise. Every block runs five stages, for any key
//! width:
//!
//! 1. gather the key lanes, column by column;
//! 2. hash every key;
//! 3. test every key against the [`JoinFilter`] — the exact `[min, max]`
//!    range of each key column and a blocked bloom filter over the build
//!    keys, sized from the post-prune build cardinality — and compact the
//!    survivors into a list without a branch;
//! 4. resolve the survivors' key ids in the table, with the same hash;
//! 5. fold the hits, in ascending row order.
//!
//! The filter has no false negatives, so stage 3 drops only rows that
//! match nothing ([`JoinExecStats::probe_bloom_rejects`] counts them), and
//! stage 5 sees the hits in the order an unfiltered row walk would.
//!
//! # Fold plans: factorized join aggregation
//!
//! Stage 5 follows the operator's [`FoldPlan`], which [`compile_join`]
//! picks from the select clause and the build role. A sum over a join
//! splits into per-key partial sums, so an aggregate never needs the
//! joined stream when the sides it reads allow it:
//!
//! * [`FoldPlan::ProbeOnly`] — no select expression reads the build side,
//!   so a probe row's `n` matches are `n` identical tuples: the tuple
//!   folds once with multiplicity `n`
//!   ([`AggState::update_n`](h2o_expr::agg::AggState::update_n)).
//! * [`FoldPlan::BuildAggs`] — scalar aggregates that read only the build
//!   side: the build folds each key's rows into partial states, the probe
//!   only counts hits per key id, and the range end merges `partial ×
//!   hits` ([`AggState::merge_n`](h2o_expr::agg::AggState::merge_n)).
//! * [`FoldPlan::BuildGroups`] — group keys that read only the build
//!   side, aggregates only the probe side: the build resolves each key to
//!   its `(group, multiplicity)` list, the probe folds into a dense
//!   per-range state array, and only the groups some probe row reached
//!   enter the range's [`GroupedAggs`].
//! * [`FoldPlan::PerPair`] — everything else (projections, expressions
//!   that read both sides, and `F64` `sum`/`avg` over build values): each
//!   matched pair is stitched into one combined tuple and pushed
//!   through the select program's one per-row step, the one every scan
//!   source feeds ([`SelectProgram::push`], fetching `|a| tuple[a.offset]`).
//!
//! Every plan folds exactly what the per-pair walk folds: multiplicity
//! updates of `F64` sums add in sequence, the build-side partials are
//! restricted to accumulators that associate (wrapping sums, min/max,
//! counts), and `F64` sums over the build side keep the pairs' order — so
//! a serial run stays bit-identical to the interpreter.
//!
//! Build-side zone-map pruning comes with the scans: all three strategies
//! scan via [`GroupViews::runs_pruned`], so segment runs the
//! build filter's zone maps disprove are never read —
//! [`JoinExecStats::build_segments_skipped`] /
//! [`JoinExecStats::probe_segments_skipped`] report the per-side skips.

use crate::bind::{BoundAttr, GroupViews};
use crate::bloom::JoinFilter;
use crate::compile::{plan_binder, ExecCtx, ExecError};
use crate::filter::CompiledFilter;
use crate::kernels;
use crate::kernels::simd::BLOCK_ROWS;
use crate::parallel::{run_chunks, run_ranges, ExecPolicy};
use crate::plan::AccessPlan;
use crate::program::CompiledExpr;
use crate::sink::{table_for, Partial, SelectProgram};
use h2o_expr::agg::{AggFunc, AggOp, AggState};
use h2o_expr::lanemap::hash_key;
use h2o_expr::typecheck::{JoinTypes, SelectTypes, TypedPredicate};
use h2o_expr::{Expr, GroupedAggs, JoinQuery, LaneMap, QueryResult, Select, Side};
use h2o_storage::{AttrId, LayoutCatalog, LogicalType, Value};
use std::collections::HashMap;
use std::ops::Range;

/// One compiled side of a join: which groups to scan (the side's access
/// plan), the side's residual filter, and the offset-resolved key and
/// payload references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledJoinSide {
    plan: AccessPlan,
    filter: CompiledFilter,
    /// Bound key attributes, in `on` order.
    keys: Vec<BoundAttr>,
    /// `(bound attribute, combined-tuple position)` per payload value this
    /// side contributes to the stitched output tuple.
    payload: Vec<(BoundAttr, u32)>,
}

impl CompiledJoinSide {
    /// The side's access plan.
    pub fn plan(&self) -> &AccessPlan {
        &self.plan
    }

    /// The side's compiled residual filter.
    pub fn filter(&self) -> &CompiledFilter {
        &self.filter
    }

    /// Stage 1 of a block: the key lanes of `rows`, gathered column by
    /// column into `out`, row-major (`keys.len()` lanes per row).
    fn gather_keys(&self, views: &GroupViews<'_>, rows: &[u32], out: &mut Vec<Value>) {
        let w = self.keys.len();
        out.resize(rows.len() * w, 0);
        for (c, &k) in self.keys.iter().enumerate() {
            let col = views.accessor(k.slot);
            for (slot, &row) in out[c..].iter_mut().step_by(w).zip(rows) {
                *slot = col.value(row as usize, k.offset as usize);
            }
        }
    }

    /// Writes `row`'s payload lanes into their combined-tuple positions.
    #[inline(always)]
    fn stitch(&self, views: &GroupViews<'_>, row: usize, tuple: &mut [Value]) {
        for &(a, p) in &self.payload {
            tuple[p as usize] = views.get(a, row);
        }
    }
}

/// How the probe folds a probe row's matches into the select clause —
/// picked once per compiled operator by [`compile_join`] from the select
/// clause and the build role (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldPlan {
    /// Every matched (build row, probe row) pair is stitched into one
    /// combined tuple and pushed: projections, expressions that read both
    /// sides, and `F64` `sum`/`avg` over build values (whose fold order is
    /// pinned).
    PerPair,
    /// No select expression reads the build side: the probe tuple folds
    /// once, with its match count as the multiplicity.
    ProbeOnly,
    /// Scalar aggregates that read only the build side: per-key partial
    /// states folded at build time, hits counted per key id by the probe,
    /// `partial × hits` merged at the range end.
    BuildAggs,
    /// Group keys that read only the build side and aggregates that read
    /// only the probe side: each build key resolves to `(group,
    /// multiplicity)` pairs at build time, the probe folds into a dense
    /// per-range state array, and only the groups a probe row reached
    /// enter the range's table.
    BuildGroups,
}

/// A fully generated join operator: two compiled sides (already assigned
/// build/probe roles), plus the select program lowered against the
/// **combined tuple buffer** — every select expression's attributes are
/// resolved to positions in the stitched tuple, so the probe's inner loop
/// never consults a side or a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledJoinOp {
    build: CompiledJoinSide,
    probe: CompiledJoinSide,
    /// Whether the build side is the query's *left* relation.
    build_is_left: bool,
    select: SelectProgram,
    /// Width of the stitched combined tuple (= number of distinct
    /// combined-space attributes the select clause reads).
    tuple_width: usize,
    /// Shared key type per `on` pair (drives the probe prefilter's
    /// comparator-key range tests).
    key_types: Vec<LogicalType>,
    /// How the probe folds matches.
    plan: FoldPlan,
}

impl CompiledJoinOp {
    /// The build side.
    pub fn build(&self) -> &CompiledJoinSide {
        &self.build
    }

    /// The probe side.
    pub fn probe(&self) -> &CompiledJoinSide {
        &self.probe
    }

    /// Whether the build side is the query's left relation.
    pub fn build_is_left(&self) -> bool {
        self.build_is_left
    }

    /// The compiled side bound to the query's `side` relation.
    pub fn side(&self, side: Side) -> &CompiledJoinSide {
        let build_side = if self.build_is_left {
            Side::Left
        } else {
            Side::Right
        };
        if side == build_side {
            &self.build
        } else {
            &self.probe
        }
    }

    /// The compiled select program (combined-tuple offsets).
    pub fn select(&self) -> &SelectProgram {
        &self.select
    }

    /// How the probe folds matches into the select clause.
    pub fn fold_plan(&self) -> FoldPlan {
        self.plan
    }

    /// Re-parameterizes both sides' residual-filter constants (raw lane
    /// words, in each side's clause order) — operator-cache reuse, exactly
    /// as [`CompiledOp::rebind_constants`](crate::CompiledOp::rebind_constants).
    pub fn rebind_constants(&mut self, left: &[Value], right: &[Value]) {
        let (b, p) = if self.build_is_left {
            (left, right)
        } else {
            (right, left)
        };
        self.build.filter.rebind_constants(b);
        self.probe.filter.rebind_constants(p);
    }
}

/// Per-join execution counters: the post-filter cardinalities the engine
/// feeds back into its selectivity estimates (the greedy join-ordering
/// signal), plus zone-map skips across both sides.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinExecStats {
    /// Rows scanned on the build side.
    pub build_input_rows: usize,
    /// Build-side rows that survived the residual filter (hash-table
    /// entries).
    pub build_rows: usize,
    /// Rows scanned on the probe side.
    pub probe_input_rows: usize,
    /// Probe-side rows that survived the residual filter.
    pub probe_rows: usize,
    /// Matched (build row, probe row) pairs — the join's pre-aggregation
    /// output cardinality.
    pub output_pairs: usize,
    /// Build-side segment runs skipped by zone-map pruning.
    pub build_segments_skipped: u64,
    /// Probe-side segment runs skipped by zone-map pruning.
    pub probe_segments_skipped: u64,
    /// Qualifying probe rows whose hash lookup was skipped because the
    /// build filter (range or bloom) proved the key absent.
    pub probe_bloom_rejects: u64,
    /// Whether the build side was the query's left relation.
    pub build_is_left: bool,
}

/// Compiles one side: resolves its filter predicates, join keys and
/// payload attributes against the side's plan groups.
fn compile_side(
    catalog: &LayoutCatalog,
    plan: &AccessPlan,
    q: &JoinQuery,
    side: Side,
    preds: &[TypedPredicate],
    pos: &HashMap<AttrId, u32>,
) -> Result<CompiledJoinSide, ExecError> {
    let bind = plan_binder(catalog, &plan.layouts)?;
    let filter = CompiledFilter::lower(q.filter(side), preds, &bind)?;
    let keys = q
        .key_attrs(side)
        .into_iter()
        .map(&bind)
        .collect::<Result<Vec<_>, _>>()?;
    // Combined-tuple positions are assigned over the sorted combined
    // attribute set, so they are identical for either build-side choice.
    let mut payload = Vec::new();
    for (&combined, &p) in pos {
        let (s, local) = q.side_of(combined);
        if s == side {
            payload.push((bind(local)?, p));
        }
    }
    payload.sort_by_key(|&(_, p)| p);
    Ok(CompiledJoinSide {
        plan: plan.clone(),
        filter,
        keys,
        payload,
    })
}

/// Picks the probe's [`FoldPlan`] from the select clause, its typing and
/// the build side. A pure function of the compiled shape, so a cached
/// operator folds the same way on every execution.
fn fold_plan(q: &JoinQuery, types: &SelectTypes, build_is_left: bool) -> FoldPlan {
    let reads = |e: &Expr, side: Side| e.attrs().iter().any(|a| q.side_of(a).0 == side);
    let (build, probe) = if build_is_left {
        (Side::Left, Side::Right)
    } else {
        (Side::Right, Side::Left)
    };
    let select = q.select_clause();
    match select {
        Select::Project(_) => FoldPlan::PerPair,
        _ if !select.exprs().any(|e| reads(e, build)) => FoldPlan::ProbeOnly,
        Select::Aggregate(aggs)
            if aggs.iter().zip(&types.aggs).all(|(a, op)| {
                // An F64 sum of build values is not `partial × hits`
                // bit for bit: it keeps the pairs' fold order.
                let pinned =
                    op.ty == LogicalType::F64 && matches!(op.func, AggFunc::Sum | AggFunc::Avg);
                !pinned && !reads(&a.expr, probe)
            }) =>
        {
            FoldPlan::BuildAggs
        }
        Select::Grouped { keys, aggs }
            if !keys.iter().any(|k| reads(k, probe))
                && !aggs.iter().any(|a| reads(&a.expr, build)) =>
        {
            FoldPlan::BuildGroups
        }
        _ => FoldPlan::PerPair,
    }
}

/// Generates the join operator for `q` over one access plan per side.
/// `checked` is the join's plan-time typing ([`h2o_expr::check_join`]);
/// `build_is_left` assigns the build role (the caller's greedy ordering
/// decision). Results are invariant under `build_is_left` up to row order.
pub fn compile_join(
    left: &LayoutCatalog,
    right: &LayoutCatalog,
    left_plan: &AccessPlan,
    right_plan: &AccessPlan,
    q: &JoinQuery,
    checked: &JoinTypes,
    build_is_left: bool,
) -> Result<CompiledJoinOp, ExecError> {
    let select_attrs = q.select_clause().attrs();
    let tuple_width = select_attrs.len();
    let pos: HashMap<AttrId, u32> = select_attrs
        .iter()
        .enumerate()
        .map(|(i, a)| (a, i as u32))
        .collect();

    let lhs = compile_side(
        left,
        left_plan,
        q,
        Side::Left,
        &checked.left_predicates,
        &pos,
    )?;
    let rhs = compile_side(
        right,
        right_plan,
        q,
        Side::Right,
        &checked.right_predicates,
        &pos,
    )?;

    // Lower select expressions against combined-tuple positions: the
    // bound `offset` indexes the stitched buffer and `slot` is unused —
    // the probe pushes with the fetch `|a| tuple[a.offset]`.
    let select = SelectProgram::lower(q.select_clause(), &checked.select, |attr| {
        Ok(BoundAttr {
            slot: 0,
            offset: pos[&attr],
        })
    })?;

    let (build, probe) = if build_is_left {
        (lhs, rhs)
    } else {
        (rhs, lhs)
    };
    Ok(CompiledJoinOp {
        build,
        probe,
        build_is_left,
        select,
        tuple_width,
        key_types: checked.key_types.clone(),
        plan: fold_plan(q, &checked.select, build_is_left),
    })
}

/// One build range's qualifying rows, in row order: their key lanes
/// (`key width` per row), each key's [`hash_key`], and their payload
/// lanes (`payload width` per row).
#[derive(Default)]
struct BuildPart {
    keys: Vec<Value>,
    hashes: Vec<u64>,
    payload: Vec<Value>,
}

/// The per-key folds a [`FoldPlan`] prepares at build time.
enum BuildFolds {
    /// [`FoldPlan::PerPair`] and [`FoldPlan::ProbeOnly`] fold at the probe.
    None,
    /// [`FoldPlan::BuildAggs`]: the aggregates' states over each key's
    /// build rows, `aggs.len()` per key id.
    Partials(Vec<AggState>),
    /// [`FoldPlan::BuildGroups`]: key `id`'s `(group id, multiplicity)`
    /// pairs are `list[starts[id]..starts[id + 1]]`; `keys` holds the group
    /// key vectors by dense group id.
    Groups {
        keys: LaneMap,
        starts: Vec<u32>,
        list: Vec<(u32, u32)>,
    },
}

/// The build-side hash table: a [`LaneMap`] from raw-lane key vectors to
/// dense key ids, one CSR row list over the ids, and the fold plan's
/// per-key folds. Key `id`'s build rows are payload rows `starts[id]..
/// starts[id + 1]` of `rows`, in build (= morsel, then row) order.
struct JoinTable {
    keys: LaneMap,
    /// `keys.len() + 1` offsets into the payload rows.
    starts: Vec<u32>,
    /// Payload lanes of the qualifying build rows, `width` per row,
    /// grouped by key id.
    rows: Vec<Value>,
    width: usize,
    folds: BuildFolds,
}

impl JoinTable {
    /// Inserts the gathered build parts in range order with their
    /// precomputed hashes, lays the payloads out by key id with a stable
    /// counting sort, then prepares `op`'s per-key folds. `build_rows` is
    /// the observed post-prune build cardinality, which sizes the map
    /// (distinct keys can only be fewer).
    fn build(parts: &[BuildPart], op: &CompiledJoinOp, build_rows: usize) -> JoinTable {
        let key_width = op.build.keys.len();
        let width = op.build.payload.len();
        let mut keys = LaneMap::with_capacity(key_width, build_rows);
        let ids: Vec<u32> = parts
            .iter()
            .flat_map(|p| p.keys.chunks_exact(key_width).zip(&p.hashes))
            .map(|(key, &h)| keys.insert_hashed(key, h))
            .collect();
        let mut starts = vec![0u32; keys.len() + 1];
        for &id in &ids {
            starts[id as usize + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut rows = vec![0; build_rows * width];
        if width > 0 {
            let mut next = starts.clone();
            let payloads = parts.iter().flat_map(|p| p.payload.chunks_exact(width));
            for (payload, &id) in payloads.zip(&ids) {
                let at = next[id as usize] as usize * width;
                next[id as usize] += 1;
                rows[at..at + width].copy_from_slice(payload);
            }
        }
        let mut table = JoinTable {
            keys,
            starts,
            rows,
            width,
            folds: BuildFolds::None,
        };
        table.folds = table.fold_build(op);
        table
    }

    /// The payload-row indices of key `id`'s build rows.
    #[inline(always)]
    fn span(&self, id: u32) -> Range<usize> {
        self.starts[id as usize] as usize..self.starts[id as usize + 1] as usize
    }

    /// Writes build row `r`'s (of the CSR order) `payload` lanes into
    /// their combined-tuple positions.
    #[inline(always)]
    fn stitch(&self, r: usize, payload: &[(BoundAttr, u32)], tuple: &mut [Value]) {
        let lanes = &self.rows[r * self.width..(r + 1) * self.width];
        for (&v, &(_, p)) in lanes.iter().zip(payload) {
            tuple[p as usize] = v;
        }
    }

    /// Prepares the per-key folds of `op`'s plan over the laid-out build
    /// rows: each row's payload is stitched into a combined tuple and the
    /// select's build-side expressions evaluate against it.
    fn fold_build(&self, op: &CompiledJoinOp) -> BuildFolds {
        let mut tuple = vec![0; op.tuple_width];
        let ids = 0..self.keys.len() as u32;
        match (op.plan, &op.select) {
            (FoldPlan::BuildAggs, SelectProgram::Aggregate(aggs)) => {
                let mut partials = Vec::with_capacity(self.keys.len() * aggs.len());
                for id in ids {
                    let at = partials.len();
                    partials.extend(aggs.iter().map(|&(f, _)| AggState::new(f)));
                    for r in self.span(id) {
                        self.stitch(r, &op.build.payload, &mut tuple);
                        for (st, (_, e)) in partials[at..].iter_mut().zip(aggs) {
                            st.update(e.eval(|a| tuple[a.offset as usize]));
                        }
                    }
                }
                BuildFolds::Partials(partials)
            }
            (FoldPlan::BuildGroups, SelectProgram::Grouped { keys, .. }) => {
                let mut groups = LaneMap::new(keys.len());
                let mut key = vec![0; keys.len()];
                let mut starts = vec![0u32];
                let mut list: Vec<(u32, u32)> = Vec::new();
                // Per group, the index of its latest `list` entry.
                let mut latest: Vec<usize> = Vec::new();
                for id in ids {
                    let at = list.len();
                    for r in self.span(id) {
                        self.stitch(r, &op.build.payload, &mut tuple);
                        for (slot, k) in key.iter_mut().zip(keys) {
                            *slot = k.eval(|a| tuple[a.offset as usize]);
                        }
                        let g = groups.insert(&key);
                        match latest.get(g as usize) {
                            Some(&i) if i >= at => list[i].1 += 1,
                            _ => {
                                latest.resize(latest.len().max(g as usize + 1), 0);
                                latest[g as usize] = list.len();
                                list.push((g, 1));
                            }
                        }
                    }
                    starts.push(list.len() as u32);
                }
                BuildFolds::Groups {
                    keys: groups,
                    starts,
                    list,
                }
            }
            _ => BuildFolds::None,
        }
    }
}

/// Executes a compiled join — the one join entry point — returning the
/// result and the per-side cardinality counters.
///
/// Build and probe are each one source of the shared range driver
/// ([`run_ranges`]): morsels under a parallel policy, per-range partials
/// re-assembled in range order (see the module docs), so for a fixed
/// `build_is_left` the result is bit-identical across policies — and a
/// serial policy probes **one** range, so `F64` sums fold the same single
/// row-order chain as [`h2o_expr::interp::interpret_join`].
///
/// `ctx.cancel` is attached to both the build and the probe scan, each of
/// which polls it per segment run and charges the token's morsel budget, if
/// one is set; on a triggered token the partial build table / probe
/// accumulators are discarded and the typed [`ExecError`] for the stop
/// reason is returned.
pub fn run_join(
    left: &LayoutCatalog,
    right: &LayoutCatalog,
    op: &CompiledJoinOp,
    ctx: &ExecCtx<'_>,
) -> Result<(QueryResult, JoinExecStats), ExecError> {
    let (build_cat, probe_cat) = if op.build_is_left {
        (left, right)
    } else {
        (right, left)
    };
    let build_views = ctx.views(build_cat, &op.build.plan.layouts)?;
    let probe_views = ctx.views(probe_cat, &op.probe.plan.layouts)?;
    let policy = &ctx.policy;

    // Phase 1 — build: per-range gather of qualifying (key, hash,
    // payload) lanes in row order, then a sequential range-order insert
    // (identical to a serial row-order build, so the table — and every
    // downstream result — is independent of the parallelism policy).
    let key_width = op.build.keys.len();
    let build_rows_total = build_views.rows();
    let parts: Vec<BuildPart> = run_ranges(build_rows_total, build_views.seg_rows(), policy, |r| {
        let mut part = BuildPart::default();
        let mut keys = Vec::new();
        let build = &op.build;
        kernels::qualifying_blocks(
            build.plan.strategy,
            &build_views,
            &build.filter,
            r,
            |rows| {
                build.gather_keys(&build_views, rows, &mut keys);
                part.hashes
                    .extend(keys.chunks_exact(key_width).map(hash_key));
                part.keys.extend_from_slice(&keys);
                for &row in rows {
                    for &(a, _) in &build.payload {
                        part.payload.push(build_views.get(a, row as usize));
                    }
                }
            },
        );
        part
    });
    let build_qualifying: usize = parts.iter().map(|p| p.hashes.len()).sum();
    // The observed post-prune cardinality sizes both probe-phase
    // structures: the hash table's slot array and the bloom filter's
    // block count (a filter sized for the raw relation would waste cache
    // on heavily filtered builds).
    let table = JoinTable::build(&parts, op, build_qualifying);
    // Derive the probe prefilter from the gathered parts and their
    // hashes: one partial filter per chunk of build ranges, OR-merged in
    // chunk order (the merge is commutative, so the result is independent
    // of the policy). An empty build side needs none: its probe is
    // skipped below.
    let bloom = (build_qualifying > 0).then(|| {
        let new = || JoinFilter::with_capacity(build_qualifying, op.key_types.clone());
        let partials = run_chunks(&parts, policy, |chunk| {
            let mut f = new();
            for part in chunk {
                for (key, &h) in part.keys.chunks_exact(key_width).zip(&part.hashes) {
                    f.insert(key, h);
                }
            }
            f
        });
        let mut filter = new();
        for p in &partials {
            filter.merge(p);
        }
        filter
    });
    drop(parts);

    let mut stats = JoinExecStats {
        build_input_rows: build_rows_total,
        build_rows: build_qualifying,
        probe_input_rows: probe_views.rows(),
        build_is_left: op.build_is_left,
        ..JoinExecStats::default()
    };

    // Phase 2 — probe, feeding the select program's sink. An empty build
    // side short-circuits the probe scan entirely (greedy early-exit): no
    // partials finish as the empty-match result, which coincides with the
    // interpreter's conventions.
    let mut parts = Vec::new();
    if let Some(bloom) = &bloom {
        let probe = run_ranges(probe_views.rows(), probe_views.seg_rows(), policy, |r| {
            let mut probe = Probe::new(op, &table);
            let side = &op.probe;
            let qual = kernels::qualifying_blocks(
                side.plan.strategy,
                &probe_views,
                &side.filter,
                r,
                |rows| probe.block(&probe_views, bloom, rows),
            );
            let rejects = probe.rejects;
            let (part, pairs) = probe.finish();
            (part, qual, pairs, rejects)
        });
        for (part, qual, pairs, rejects) in probe {
            stats.probe_rows += qual;
            stats.output_pairs += pairs;
            stats.probe_bloom_rejects += rejects;
            parts.push(part);
        }
    }
    let result = op.select.finish(parts);
    ctx.check()?;
    stats.build_segments_skipped = build_views.segments_skipped();
    stats.probe_segments_skipped = probe_views.segments_skipped();
    Ok((result, stats))
}

/// [`run_join`] under a parallelism policy, no stop token.
pub fn execute_join_with_policy(
    left: &LayoutCatalog,
    right: &LayoutCatalog,
    op: &CompiledJoinOp,
    policy: &ExecPolicy,
) -> Result<(QueryResult, JoinExecStats), ExecError> {
    run_join(left, right, op, &ExecCtx::new(*policy))
}

/// What one probe range folds into, by [`FoldPlan`].
enum RangeFold<'a> {
    /// [`FoldPlan::PerPair`] and [`FoldPlan::ProbeOnly`]: the select
    /// program's partial, fed stitched tuples.
    Tuples(Partial),
    /// [`FoldPlan::BuildAggs`]: hits per build key id.
    KeyHits(Vec<u32>),
    /// [`FoldPlan::BuildGroups`]: `aggs.len()` states per group id, which
    /// groups a probe row reached, and one row's aggregate inputs.
    Groups {
        aggs: &'a [(AggOp, CompiledExpr)],
        states: Vec<AggState>,
        hit: Vec<bool>,
        vals: Vec<Value>,
    },
}

/// One probe range's running state: the block pipeline's buffers, the
/// range's fold, and its matched-pair and filter-reject counts.
struct Probe<'a> {
    op: &'a CompiledJoinOp,
    table: &'a JoinTable,
    /// The block's key lanes, row-major.
    keys: Vec<Value>,
    /// The block's key hashes.
    hashes: Vec<u64>,
    /// Block positions of the keys that passed the filter.
    survivors: Vec<u32>,
    /// `(block position, key id)` of the survivors the table holds.
    hits: Vec<(u32, u32)>,
    /// The stitched combined tuple.
    tuple: Vec<Value>,
    fold: RangeFold<'a>,
    pairs: usize,
    rejects: u64,
}

impl<'a> Probe<'a> {
    fn new(op: &'a CompiledJoinOp, table: &'a JoinTable) -> Probe<'a> {
        let fold = match (op.plan, &op.select, &table.folds) {
            (FoldPlan::BuildAggs, ..) => RangeFold::KeyHits(vec![0; table.keys.len()]),
            (
                FoldPlan::BuildGroups,
                SelectProgram::Grouped { aggs, .. },
                BuildFolds::Groups { keys, .. },
            ) => RangeFold::Groups {
                aggs,
                states: (0..keys.len())
                    .flat_map(|_| aggs.iter().map(|&(f, _)| AggState::new(f)))
                    .collect(),
                hit: vec![false; keys.len()],
                vals: vec![0; aggs.len()],
            },
            _ => RangeFold::Tuples(op.select.partial()),
        };
        Probe {
            op,
            table,
            keys: Vec::with_capacity(BLOCK_ROWS * op.probe.keys.len()),
            hashes: Vec::with_capacity(BLOCK_ROWS),
            survivors: Vec::with_capacity(BLOCK_ROWS),
            hits: Vec::with_capacity(BLOCK_ROWS),
            tuple: vec![0; op.tuple_width],
            fold,
            pairs: 0,
            rejects: 0,
        }
    }

    /// Runs the five stages (module docs) over one block of qualifying
    /// probe rows, ascending.
    fn block(&mut self, views: &GroupViews<'_>, filter: &JoinFilter, rows: &[u32]) {
        let (op, table) = (self.op, self.table);
        let w = op.probe.keys.len();
        // 1–2: gather and hash every key.
        op.probe.gather_keys(views, rows, &mut self.keys);
        self.hashes.clear();
        self.hashes.extend(self.keys.chunks_exact(w).map(hash_key));
        // 3: range and bloom test every key; survivors compact without a
        // branch (each position is written, and kept only if it passed).
        self.survivors.resize(rows.len(), 0);
        let mut kept = 0;
        for (i, (key, &h)) in self.keys.chunks_exact(w).zip(&self.hashes).enumerate() {
            self.survivors[kept] = i as u32;
            kept += usize::from(filter.in_range(key) & filter.test_hash(h));
        }
        self.rejects += (rows.len() - kept) as u64;
        // 4: the survivors' key ids.
        self.hits.clear();
        for &i in &self.survivors[..kept] {
            let i = i as usize;
            if let Some(id) = table
                .keys
                .get(&self.keys[i * w..(i + 1) * w], self.hashes[i])
            {
                self.hits.push((i as u32, id));
            }
        }
        // 5: fold, in ascending row order.
        match &mut self.fold {
            RangeFold::KeyHits(hits) => {
                for &(_, id) in &self.hits {
                    hits[id as usize] += 1;
                }
            }
            RangeFold::Tuples(acc) => {
                let per_pair = op.plan == FoldPlan::PerPair;
                for &(i, id) in &self.hits {
                    op.probe
                        .stitch(views, rows[i as usize] as usize, &mut self.tuple);
                    let span = table.span(id);
                    self.pairs += span.len();
                    if !per_pair {
                        op.select
                            .push(acc, |a| self.tuple[a.offset as usize], span.len() as u64);
                        continue;
                    }
                    for r in span {
                        table.stitch(r, &op.build.payload, &mut self.tuple);
                        op.select.push(acc, |a| self.tuple[a.offset as usize], 1);
                    }
                }
            }
            RangeFold::Groups {
                aggs,
                states,
                hit,
                vals,
            } => {
                let BuildFolds::Groups { starts, list, .. } = &table.folds else {
                    unreachable!("the group plan builds group lists");
                };
                let n = aggs.len();
                for &(i, id) in &self.hits {
                    op.probe
                        .stitch(views, rows[i as usize] as usize, &mut self.tuple);
                    for (v, (_, e)) in vals.iter_mut().zip(aggs.iter()) {
                        *v = e.eval(|a| self.tuple[a.offset as usize]);
                    }
                    let id = id as usize;
                    for &(g, mult) in &list[starts[id] as usize..starts[id + 1] as usize] {
                        let g = g as usize;
                        hit[g] = true;
                        self.pairs += mult as usize;
                        for (st, &v) in states[g * n..(g + 1) * n].iter_mut().zip(vals.iter()) {
                            st.update_n(v, u64::from(mult));
                        }
                    }
                }
            }
        }
    }

    /// The range's sink partial and matched-pair count.
    fn finish(self) -> (Partial, usize) {
        let table = self.table;
        match self.fold {
            RangeFold::Tuples(acc) => (acc, self.pairs),
            RangeFold::KeyHits(hits) => {
                let (SelectProgram::Aggregate(aggs), BuildFolds::Partials(partials)) =
                    (&self.op.select, &table.folds)
                else {
                    unreachable!("the build-aggregate plan builds partials");
                };
                let n = aggs.len();
                let mut states: Vec<AggState> =
                    aggs.iter().map(|&(f, _)| AggState::new(f)).collect();
                let mut pairs = 0;
                for (id, &h) in hits.iter().enumerate().filter(|(_, &h)| h > 0) {
                    pairs += h as usize * table.span(id as u32).len();
                    for (st, p) in states.iter_mut().zip(&partials[id * n..(id + 1) * n]) {
                        st.merge_n(p, u64::from(h));
                    }
                }
                (states.into(), pairs)
            }
            RangeFold::Groups {
                aggs, states, hit, ..
            } => {
                let (SelectProgram::Grouped { key_types, .. }, BuildFolds::Groups { keys, .. }) =
                    (&self.op.select, &table.folds)
                else {
                    unreachable!("the group plan builds group lists");
                };
                let n = aggs.len();
                let mut out: GroupedAggs = table_for(key_types, aggs);
                for (g, _) in hit.iter().enumerate().filter(|(_, &h)| h) {
                    out.merge_group(keys.key(g as u32), &states[g * n..(g + 1) * n]);
                }
                (out.into(), self.pairs)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::plan::Strategy;
    use h2o_expr::{check_join, interpret_join, Aggregate, Conjunction, Predicate, Query};
    use h2o_storage::{f64_lane, LogicalType, Relation, Schema};
    use std::sync::Arc;

    fn execute_join(
        left: &LayoutCatalog,
        right: &LayoutCatalog,
        op: &CompiledJoinOp,
    ) -> Result<QueryResult, ExecError> {
        execute_join_with_policy(left, right, op, &ExecPolicy::serial()).map(|(r, _)| r)
    }

    fn execute_join_with_policy_cancel(
        left: &LayoutCatalog,
        right: &LayoutCatalog,
        op: &CompiledJoinOp,
        policy: &ExecPolicy,
        token: &CancelToken,
    ) -> Result<(QueryResult, JoinExecStats), ExecError> {
        let ctx = ExecCtx {
            cancel: Some(token),
            ..ExecCtx::new(*policy)
        };
        run_join(left, right, op, &ctx)
    }

    fn photo_schema() -> Arc<Schema> {
        Schema::typed([
            ("objID", LogicalType::I64),
            ("ra", LogicalType::F64),
            ("flags", LogicalType::I64),
        ])
        .into_shared()
    }

    fn spec_schema() -> Arc<Schema> {
        Schema::typed([
            ("specObjID", LogicalType::I64),
            ("bestObjID", LogicalType::I64),
            ("z", LogicalType::F64),
        ])
        .into_shared()
    }

    /// photo: 40 rows, objID = i % 8 (duplicate keys), ra dyadic f64,
    /// flags ∈ 0..4. spec: 30 rows, bestObjID = i % 12 (4 dangle past the
    /// photo key domain), z dyadic f64.
    fn fixture(segmented: bool) -> (Relation, Relation) {
        fixture_of(segmented, 40, 30)
    }

    fn fixture_of(segmented: bool, photo_rows: Value, spec_rows: Value) -> (Relation, Relation) {
        let shift = if segmented { 3 } else { 20 };
        let photo_cols: Vec<Vec<Value>> = vec![
            (0..photo_rows).map(|i| i % 8).collect(),
            (0..photo_rows).map(|i| f64_lane(i as f64 * 0.25)).collect(),
            (0..photo_rows).map(|i| (i * 7) % 4).collect(),
        ];
        let spec_cols: Vec<Vec<Value>> = vec![
            (0..spec_rows).map(|i| 1000 + i).collect(),
            (0..spec_rows).map(|i| i % 12).collect(),
            (0..spec_rows)
                .map(|i| f64_lane(i as f64 * 0.5 - 4.0))
                .collect(),
        ];
        let photo = Relation::partitioned_with_shift(
            photo_schema(),
            photo_cols,
            vec![vec![AttrId(0)], vec![AttrId(1), AttrId(2)]],
            shift,
        )
        .unwrap();
        let spec = Relation::partitioned_with_shift(
            spec_schema(),
            spec_cols,
            vec![(0u32..3).map(AttrId::from).collect()],
            shift,
        )
        .unwrap();
        (photo, spec)
    }

    fn queries() -> Vec<JoinQuery> {
        let b = || Query::join(("photo", photo_schema()), ("spec", spec_schema()));
        let mut qs = Vec::new();
        // Projection with per-side filters.
        {
            let jb = b();
            let ra = jb.col("ra").unwrap();
            let z = jb.col("z").unwrap();
            qs.push(
                jb.on("objID", "bestObjID")
                    .unwrap()
                    .filter_left(Conjunction::of([Predicate::lt(2u32, 3)]))
                    .filter_right(Conjunction::of([Predicate::gt(0u32, 1004)]))
                    .project([ra, z])
                    .unwrap(),
            );
        }
        // Scalar aggregation over the join.
        {
            let jb = b();
            let ra = jb.col("ra").unwrap();
            let z = jb.col("z").unwrap();
            let flags = jb.col("flags").unwrap();
            qs.push(
                jb.on("objID", "bestObjID")
                    .unwrap()
                    .aggregate([
                        Aggregate::sum(ra.add(z)),
                        Aggregate::max(flags),
                        Aggregate::count(),
                    ])
                    .unwrap(),
            );
        }
        // Grouped rollup over a join with a filter.
        {
            let jb = b();
            let flags = jb.col("flags").unwrap();
            let z = jb.col("z").unwrap();
            qs.push(
                jb.on("objID", "bestObjID")
                    .unwrap()
                    .filter_right(Conjunction::of([Predicate::le(1u32, 9)]))
                    .grouped([flags], [Aggregate::sum(z), Aggregate::count()])
                    .unwrap(),
            );
        }
        qs
    }

    fn par_policy() -> ExecPolicy {
        ExecPolicy {
            parallelism: Some(4),
            morsel_rows: 8,
            serial_threshold: 0,
        }
    }

    /// 7-row morsels: odd tails on both sides of every fixture.
    fn odd_morsels() -> ExecPolicy {
        ExecPolicy {
            morsel_rows: 7,
            ..par_policy()
        }
    }

    #[test]
    fn differential_all_strategies_build_sides_and_policies() {
        // Populated, and with either side zero-row (empty build short
        // circuit / empty probe scan, per build side).
        let fixtures = [
            (false, 40, 30),
            (true, 40, 30),
            (true, 0, 30),
            (false, 40, 0),
        ];
        for (segmented, photo_rows, spec_rows) in fixtures {
            let (photo, spec) = fixture_of(segmented, photo_rows, spec_rows);
            for q in queries() {
                let checked = check_join(&q).unwrap();
                let want = interpret_join(photo.catalog(), spec.catalog(), &q).unwrap();
                for strategy in Strategy::ALL {
                    let lp = AccessPlan::new(photo.catalog().layout_ids(), strategy);
                    let rp = AccessPlan::new(spec.catalog().layout_ids(), strategy);
                    for build_is_left in [true, false] {
                        let op = compile_join(
                            photo.catalog(),
                            spec.catalog(),
                            &lp,
                            &rp,
                            &q,
                            &checked,
                            build_is_left,
                        )
                        .unwrap();
                        let serial = execute_join(photo.catalog(), spec.catalog(), &op).unwrap();
                        assert_eq!(
                            serial.fingerprint(),
                            want.fingerprint(),
                            "strategy {} build_is_left {build_is_left} segmented {segmented} \
                             query {q}",
                            strategy.name()
                        );
                        // Parallel is bit-identical (not just fingerprint-
                        // equal) for a fixed build side.
                        for policy in [par_policy(), odd_morsels()] {
                            let (par, _) = execute_join_with_policy(
                                photo.catalog(),
                                spec.catalog(),
                                &op,
                                &policy,
                            )
                            .unwrap();
                            assert_eq!(par.data(), serial.data());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stats_report_post_filter_cardinalities() {
        let (photo, spec) = fixture(false);
        let q = &queries()[0]; // photo.flags < 3, spec.specObjID > 1004
        let checked = check_join(q).unwrap();
        let lp = AccessPlan::new(photo.catalog().layout_ids(), Strategy::FusedVolcano);
        let rp = AccessPlan::new(spec.catalog().layout_ids(), Strategy::FusedVolcano);
        let op =
            compile_join(photo.catalog(), spec.catalog(), &lp, &rp, q, &checked, true).unwrap();
        let (_, stats) =
            execute_join_with_policy(photo.catalog(), spec.catalog(), &op, &ExecPolicy::serial())
                .unwrap();
        assert!(stats.build_is_left);
        assert_eq!(stats.build_input_rows, 40);
        assert_eq!(stats.build_rows, 30); // flags ∈ {0,1,2} on 3 of 4 rows
        assert_eq!(stats.probe_input_rows, 30);
        assert_eq!(stats.probe_rows, 25); // specObjID > 1004 drops 5
                                          // Same query, roles flipped: pair count is invariant.
        let flipped = compile_join(
            photo.catalog(),
            spec.catalog(),
            &lp,
            &rp,
            q,
            &checked,
            false,
        )
        .unwrap();
        let (_, fstats) = execute_join_with_policy(
            photo.catalog(),
            spec.catalog(),
            &flipped,
            &ExecPolicy::serial(),
        )
        .unwrap();
        assert_eq!(fstats.output_pairs, stats.output_pairs);
        assert_eq!(fstats.build_rows, stats.probe_rows);
        assert!(stats.output_pairs > 0);
    }

    #[test]
    fn fused_rollups_match_two_phase_and_bloom_counts_rejects() {
        let (photo, spec) = fixture(false);
        // Selects that read only one side: with the other side building,
        // the build payload is empty and the probe folds with
        // multiplicities.
        let jb = || Query::join(("photo", photo_schema()), ("spec", spec_schema()));
        let z = jb().col("z").unwrap();
        let flags = jb().col("flags").unwrap();
        let cases = [
            // Scalar aggregate over spec attrs only: photo builds.
            (
                jb().on("objID", "bestObjID")
                    .unwrap()
                    .aggregate([Aggregate::sum(z), Aggregate::count()])
                    .unwrap(),
                true,
            ),
            // Grouped rollup over photo attrs only: spec builds.
            (
                jb().on("objID", "bestObjID")
                    .unwrap()
                    .grouped([flags], [Aggregate::count()])
                    .unwrap(),
                false,
            ),
        ];
        for (q, build_is_left) in cases {
            let checked = check_join(&q).unwrap();
            let want = interpret_join(photo.catalog(), spec.catalog(), &q).unwrap();
            for strategy in Strategy::ALL {
                let lp = AccessPlan::new(photo.catalog().layout_ids(), strategy);
                let rp = AccessPlan::new(spec.catalog().layout_ids(), strategy);
                let op = compile_join(
                    photo.catalog(),
                    spec.catalog(),
                    &lp,
                    &rp,
                    &q,
                    &checked,
                    build_is_left,
                )
                .unwrap();
                assert_eq!(op.fold_plan(), FoldPlan::ProbeOnly);
                // The flipped roles put the select's attrs on the build
                // side: the F64 sum keeps the per-pair fold, the rollup
                // (build-side keys, a count) folds per build group.
                let flipped = compile_join(
                    photo.catalog(),
                    spec.catalog(),
                    &lp,
                    &rp,
                    &q,
                    &checked,
                    !build_is_left,
                )
                .unwrap();
                let want_plan = if q.select_clause().is_grouped() {
                    FoldPlan::BuildGroups
                } else {
                    FoldPlan::PerPair
                };
                assert_eq!(flipped.fold_plan(), want_plan);
                for policy in [ExecPolicy::serial(), par_policy()] {
                    let run = |op| {
                        execute_join_with_policy(photo.catalog(), spec.catalog(), op, &policy)
                            .unwrap()
                    };
                    let (fast, fstats) = run(&op);
                    let (slow, sstats) = run(&flipped);
                    assert_eq!(fast.fingerprint(), want.fingerprint());
                    assert_eq!(slow.fingerprint(), want.fingerprint());
                    assert_eq!(fstats.output_pairs, sstats.output_pairs);
                    // With photo building, spec rows with bestObjID in
                    // 8..12 fall outside the build key range [0, 7] and
                    // are rejected before the hash lookup.
                    if build_is_left {
                        assert!(fstats.probe_bloom_rejects >= 8, "stats {fstats:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_build_side_short_circuits_with_interpreter_shapes() {
        let (photo, spec) = fixture(false);
        let jb = || {
            Query::join(("photo", photo_schema()), ("spec", spec_schema()))
                .on("objID", "bestObjID")
                .unwrap()
                // No photo row matches: flags < 0 is empty.
                .filter_left(Conjunction::of([Predicate::lt(2u32, -1)]))
        };
        let ra = Query::join(("photo", photo_schema()), ("spec", spec_schema()))
            .col("ra")
            .unwrap();
        let z = Query::join(("photo", photo_schema()), ("spec", spec_schema()))
            .col("z")
            .unwrap();
        let shapes = [
            jb().project([ra.clone()]).unwrap(),
            jb().aggregate([Aggregate::sum(z.clone()), Aggregate::count()])
                .unwrap(),
            jb().grouped([ra], [Aggregate::count()]).unwrap(),
        ];
        for q in &shapes {
            let checked = check_join(q).unwrap();
            let want = interpret_join(photo.catalog(), spec.catalog(), q).unwrap();
            let lp = AccessPlan::new(photo.catalog().layout_ids(), Strategy::SelVector);
            let rp = AccessPlan::new(spec.catalog().layout_ids(), Strategy::SelVector);
            let op =
                compile_join(photo.catalog(), spec.catalog(), &lp, &rp, q, &checked, true).unwrap();
            let (got, stats) = execute_join_with_policy(
                photo.catalog(),
                spec.catalog(),
                &op,
                &ExecPolicy::serial(),
            )
            .unwrap();
            assert_eq!(got.fingerprint(), want.fingerprint(), "query {q}");
            assert_eq!(stats.build_rows, 0);
            // Early exit: the probe side was never scanned.
            assert_eq!(stats.probe_rows, 0);
            assert_eq!(stats.output_pairs, 0);
        }
    }

    #[test]
    fn rebind_constants_reparameterizes_both_sides() {
        let (photo, spec) = fixture(false);
        let q = &queries()[0];
        let checked = check_join(q).unwrap();
        let lp = AccessPlan::new(photo.catalog().layout_ids(), Strategy::ColumnMajor);
        let rp = AccessPlan::new(spec.catalog().layout_ids(), Strategy::ColumnMajor);
        let mut op =
            compile_join(photo.catalog(), spec.catalog(), &lp, &rp, q, &checked, true).unwrap();
        let before = execute_join(photo.catalog(), spec.catalog(), &op).unwrap();
        // Widen both filters to always-true ranges: more pairs survive.
        op.rebind_constants(&[i64::MAX], &[i64::MIN]);
        let after = execute_join(photo.catalog(), spec.catalog(), &op).unwrap();
        assert!(after.rows() > before.rows());
        // And rebinding back restores the original result exactly.
        op.rebind_constants(&[3], &[1004]);
        let again = execute_join(photo.catalog(), spec.catalog(), &op).unwrap();
        assert_eq!(again.data(), before.data());
    }

    #[test]
    fn cancel_token_stops_the_join_and_types_the_error() {
        for segmented in [false, true] {
            let (photo, spec) = fixture(segmented);
            for q in queries() {
                let checked = check_join(&q).unwrap();
                let want = interpret_join(photo.catalog(), spec.catalog(), &q).unwrap();
                for strategy in Strategy::ALL {
                    let lp = AccessPlan::new(photo.catalog().layout_ids(), strategy);
                    let rp = AccessPlan::new(spec.catalog().layout_ids(), strategy);
                    let op = compile_join(
                        photo.catalog(),
                        spec.catalog(),
                        &lp,
                        &rp,
                        &q,
                        &checked,
                        true,
                    )
                    .unwrap();
                    // A live token that never trips: bit-identical results.
                    let live = CancelToken::new();
                    let (got, _) = execute_join_with_policy_cancel(
                        photo.catalog(),
                        spec.catalog(),
                        &op,
                        &par_policy(),
                        &live,
                    )
                    .unwrap();
                    assert_eq!(got.fingerprint(), want.fingerprint());
                    // Pre-cancelled: typed error, nothing runs.
                    let cancelled = CancelToken::new();
                    cancelled.cancel();
                    let err = execute_join_with_policy_cancel(
                        photo.catalog(),
                        spec.catalog(),
                        &op,
                        &par_policy(),
                        &cancelled,
                    )
                    .unwrap_err();
                    assert_eq!(err, ExecError::Cancelled);
                    // Expired deadline observed mid-join (first poll is in
                    // the build scan): typed error.
                    let expired = CancelToken::with_deadline(std::time::Duration::ZERO);
                    let err = execute_join_with_policy_cancel(
                        photo.catalog(),
                        spec.catalog(),
                        &op,
                        &par_policy(),
                        &expired,
                    )
                    .unwrap_err();
                    assert_eq!(err, ExecError::DeadlineExpired);
                    // A budget of one run covers (part of) the build but
                    // never the probe: exhausted mid-join, typed error.
                    let broke = CancelToken::new();
                    broke.set_budget(1);
                    let err = execute_join_with_policy_cancel(
                        photo.catalog(),
                        spec.catalog(),
                        &op,
                        &ExecPolicy::serial(),
                        &broke,
                    )
                    .unwrap_err();
                    assert_eq!(err, ExecError::BudgetExhausted);
                }
            }
        }
    }

    #[test]
    fn unbound_side_attr_is_reported() {
        let (photo, spec) = fixture(false);
        let q = &queries()[0];
        let checked = check_join(q).unwrap();
        let lp = AccessPlan::new(vec![], Strategy::FusedVolcano);
        let rp = AccessPlan::new(spec.catalog().layout_ids(), Strategy::FusedVolcano);
        let err =
            compile_join(photo.catalog(), spec.catalog(), &lp, &rp, q, &checked, true).unwrap_err();
        assert!(matches!(err, ExecError::Unbound(_)));
    }
}
