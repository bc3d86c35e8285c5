//! Hash-join execution: morsel-parallel build + probe over segment runs.
//!
//! The paper's evaluation is single-relation; this module extends its
//! fused scan (§3.3) to the two-table equi-join shape
//! ([`h2o_expr::JoinQuery`]): the qualifying rows of each side are found
//! by the scan's block walker (filter fused into the segment-run loop, no
//! selection vector), the build gathers them a block at a time, and the
//! probe folds them block by block.
//!
//! Both sides reuse the single-relation machinery end-to-end: zone-map
//! pruning via
//! [`GroupViews::runs_pruned`](crate::GroupViews::runs_pruned), the
//! vectorized selection kernels, the range driver ([`run_ranges`]) and
//! the select program's
//! sink ([`crate::sink`] — blocks concatenated, aggregate partials merged,
//! grouped tables merged, all in morsel order). For a fixed build side, a
//! parallel join is therefore bit-identical to a serial one wherever the
//! fold does not depend on the morsel split: projections, integer sums,
//! min/max, counts, and `F64` sums of values whose partial sums are exact
//! (the dyadic grids every suite draws). A non-dyadic `F64` sum folds one
//! chain per probe morsel and merges the chains in morsel order, so its
//! last bits depend on the split (see [`AggState`]'s fold-order contract).
//!
//! # Build, probe, and determinism
//!
//! [`run_join`] indexes the **build** side: each morsel gathers its
//! qualifying rows' key and payload lanes column by column, in row order.
//! The per-morsel parts are indexed sequentially in morsel order
//! — identical to a serial row-order build — giving each distinct key a
//! dense id, by one of two key tiers:
//!
//! * the **rank index** (`rank.rs`) for a one-lane `I64` or `Dict`
//!   key whose build values are dense: a presence bitmap over
//!   `[min, max]` with a `u32` rank prefix per 64-bit word (12 bytes per
//!   64 key slots), taken whenever it is no larger than the slot array
//!   of the hash table it replaces. A key's id is its rank, so ids run in
//!   key order;
//! * otherwise the **hashed** tier: one flat hash table ([`LaneMap`],
//!   ids in first-appearance order) and the probe prefilter, both fed the
//!   same hashes — each key hashed once ([`hash_key`], a fixed-seed
//!   splitmix64 chain), by this tier alone.
//!
//! A stable counting sort then lays the payload out as one CSR row list,
//! column by column, so key `id`'s build rows are one contiguous span of
//! every payload column, in build-row order. No fold plan depends on the
//! order of the ids: a probe row's pairs take its key's span in build-row
//! order, and the per-key and per-group merges admit only accumulators
//! that associate and commute. Keys compare as **raw lane bits** (`f64`
//! keys by bit pattern, dictionary keys by code — the join gate
//! guarantees a shared dictionary), matching
//! [`h2o_expr::interp::interpret_join`].
//!
//! A build is a function of the build relation's rows and the build
//! filter's constants alone — the operator fixes the plan, keys, payload
//! and fold plan — so an operator **holds its last completed build** in a
//! slot its clones share (the operator cache's entry and every copy
//! handed out from it) and drops with them. [`run_join`] reuses it when
//! the build catalog's [`lineage`](LayoutCatalog::lineage) and
//! [`data_version`](LayoutCatalog::data_version) and the build filter's
//! bound constants all match what it was built from
//! ([`JoinExecStats::build_reused`]); otherwise it builds and, once the
//! build has completed without a stop, holds the new one in its place.
//! A reused build reports the counters its scan reported, so selectivity
//! feedback reads the same cardinalities either way.
//!
//! Which side builds is the **caller's** choice ([`compile_join`]'s
//! `build_is_left`): the engine picks the side it observes to be smaller
//! after filtering (greedy, statistics-free — see the join path behind
//! `h2o_core::H2oEngine::run`), and an empty build side
//! short-circuits the probe scan entirely. Output *row order* depends on
//! the build side (pairs stream in probe-row order), so cross-build-side
//! comparisons use the order-independent [`QueryResult::fingerprint`].
//!
//! Joins participate in cooperative cancellation like single-relation
//! scans ([`crate::cancel`]): [`run_join`] attaches
//! [`ExecCtx::cancel`] to **both** the build and the probe views, so a
//! cancel, deadline expiry, or morsel-budget exhaustion is observed at
//! segment-run granularity in either phase. As everywhere else, the
//! contract is result-level: partials are drained and discarded, and the
//! driver returns a typed [`ExecError`] — nothing observable is
//! published from a stopped join, and a stopped build is never held.
//!
//! # The probe: one block pipeline
//!
//! Qualifying probe rows arrive 1K at a time (the last block of a range
//! may be shorter), from the scan's block walker over the pruned segment
//! runs. Every block runs five stages, for any key width:
//!
//! 1. gather the key lanes, column by column, each stretch of rows in one
//!    segment piece from its slice ([`SlotAccessor`]);
//! 2. hash every key;
//! 3. test every key against the [`JoinFilter`] — the exact `[min, max]`
//!    range of each key column, in comparator-key space, and a blocked
//!    bloom filter over the build keys, sized by the distinct build keys
//!    — and compact the survivors into a list without a branch
//!    ([`JoinFilter::survivors`]);
//! 4. resolve the survivors' key ids in the table, with the same hash;
//! 5. fold the hits, in ascending row order.
//!
//! A rank-indexed build runs stages 2–4 as one lookup per key: the key's
//! bit rejects it exactly or its rank is its id, with no hash and no bloom
//! test, compacted without a branch. A hashed one-lane key still takes a
//! tier of its own: its hash is one mixer step, its filter loop is
//! compiled per key type with the column's range hoisted out of it, and
//! its table lookup compares each `[id, key]` slot inline. A wider key's
//! range test runs column by column, each column's type and range
//! hoisted the same way. Neither prefilter has false negatives, so only
//! rows that match nothing are dropped
//! ([`JoinExecStats::probe_bloom_rejects`] counts them), and stage 5 sees
//! the hits in the order an unfiltered row walk would.
//!
//! # Fold plans: factorized join aggregation
//!
//! Stage 5 follows the operator's [`FoldPlan`], which [`compile_join`]
//! picks from the select clause and the build role. A sum over a join
//! splits into per-key partial sums, so an aggregate never needs the
//! joined stream when the sides it reads allow it. The select program is
//! lowered against each attribute's own side — a probe attribute reads
//! its probe plan slot, a build attribute its lane of the CSR payload —
//! so no plan stitches a combined tuple:
//!
//! * [`FoldPlan::ProbeOnly`] — no select expression reads the build side,
//!   so a probe row's `n` matches are `n` identical rows: the block's hit
//!   rows fold through the select program's batch step once each, with
//!   multiplicity `n`.
//! * [`FoldPlan::BuildAggs`] — scalar aggregates that read only the build
//!   side: the probe only counts hits per key id, and the join sums every
//!   range's counts, then merges once: each reached key's build rows fold
//!   through the batch step with the key's hit count as their
//!   multiplicity — the key's partial state `× hits`, exact because the
//!   plan admits only accumulators that associate, and never materialized
//!   per key.
//! * [`FoldPlan::BuildGroups`] — group keys that read only the build
//!   side, aggregates only the probe side: the build resolves its group
//!   keys through the grouped pipeline's memo and each key id to its
//!   `(group, multiplicity)` list (one flat entry per key when every key
//!   reaches one group), and the probe folds its hit rows' aggregate
//!   columns ([`h2o_expr::agg::fold_column`]) into a dense per-range state
//!   array; only the groups some probe row reached enter the range's
//!   [`GroupedAggs`].
//! * [`FoldPlan::PerPair`] — everything else (projections, expressions
//!   that read both sides, and `F64` `sum`/`avg` over build values): the
//!   matched pairs are expanded in order, up to 1K at a time, and each
//!   batch folds through the batch step with probe lanes read from the
//!   probe views and build lanes from the payload.
//!
//! Every plan folds exactly what the per-pair walk folds: multiplicity
//! updates of `F64` sums add in sequence, the build-side partials are
//! restricted to accumulators that associate (wrapping sums, min/max,
//! counts), and `F64` sums over the build side keep the pairs' order — so
//! a serial run stays bit-identical to the interpreter.
//!
//! Build-side zone-map pruning comes with the scans: both sides
//! scan via [`GroupViews::runs_pruned`](crate::GroupViews::runs_pruned),
//! so segment runs the build filter's zone maps disprove are never read —
//! [`JoinExecStats::build_segments_skipped`] /
//! [`JoinExecStats::probe_segments_skipped`] report the per-side skips.
//! [`run_join_staged`] runs the same join and also reports the time of
//! every build and probe stage ([`JoinStages`]).

use crate::bind::{BoundAttr, GroupViews, SlotAccessor};
use crate::bloom::JoinFilter;
use crate::compile::{plan_binder, ExecCtx, ExecError};
use crate::filter::CompiledFilter;
use crate::kernels::grouped::GroupBlock;
use crate::kernels::simd::BLOCK_ROWS;
use crate::kernels::{self, eval_rows, gather_col, unbound};
use crate::parallel::{run_chunks, run_ranges, ExecPolicy};
use crate::plan::AccessPlan;
use crate::program::{eval_batch, CompiledExpr, Layout};
use crate::rank::RankIndex;
use crate::sink::{table_for, Partial, SelectProgram};
use h2o_expr::agg::{fold_column, AggFunc, AggOp, AggState};
use h2o_expr::lanemap::hash_key;
use h2o_expr::typecheck::{JoinTypes, SelectTypes};
use h2o_expr::{Expr, GroupedAggs, JoinQuery, LaneMap, QueryResult, Select, Side};
use h2o_storage::{AttrId, LayoutCatalog, LogicalType, Value};
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The plan slot of a build payload lane in the join's select program:
/// `BoundAttr { slot: BUILD_SLOT, offset: c }` reads payload column `c`
/// of the build row (every other slot is a probe plan slot).
const BUILD_SLOT: u32 = u32::MAX;

/// One compiled side of a join: which groups to scan (the side's access
/// plan), the side's residual filter, and the offset-resolved keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledJoinSide {
    plan: AccessPlan,
    filter: CompiledFilter,
    /// Bound key attributes, in `on` order.
    keys: Vec<BoundAttr>,
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
}

/// How the probe folds a probe row's matches into the select clause —
/// picked once per compiled operator by [`compile_join`] from the select
/// clause and the build role (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldPlan {
    /// Every matched (build row, probe row) pair folds through the select
    /// program, a block of pairs at a time: projections, expressions that
    /// read both sides, and `F64` `sum`/`avg` over build values (whose
    /// fold order is pinned).
    PerPair,
    /// No select expression reads the build side: each hit probe row folds
    /// once, with its match count as the multiplicity.
    ProbeOnly,
    /// Scalar aggregates that read only the build side: hits counted per
    /// key id by the probe, and each reached key's build rows folded once
    /// per join with its hit count as their multiplicity.
    BuildAggs,
    /// Group keys that read only the build side and aggregates that read
    /// only the probe side: each build key resolves to `(group,
    /// multiplicity)` pairs at build time, the probe folds into a dense
    /// per-range state array, and only the groups a probe row reached
    /// enter the range's table.
    BuildGroups,
}

/// A fully generated join operator: two compiled sides (already assigned
/// build/probe roles) and the select program, lowered against each
/// attribute's own side — a probe attribute to its probe plan slot and
/// offset, a build attribute to its lane of the build payload — so the
/// probe's inner loops never consult a side or a schema.
///
/// Clones share one build slot: the last build the operator completed,
/// reused while the build relation's rows and the build filter's constants
/// stay what it was built from (see the module docs).
#[derive(Debug, Clone)]
pub struct CompiledJoinOp {
    build: CompiledJoinSide,
    probe: CompiledJoinSide,
    /// Whether the build side is the query's *left* relation.
    build_is_left: bool,
    select: SelectProgram,
    /// The build-side attributes the select clause reads, bound on the
    /// build plan: payload column `c` holds `payload[c]`'s lanes.
    payload: Vec<BoundAttr>,
    /// Shared key type per `on` pair (drives the probe prefilter's
    /// comparator-key range tests).
    key_types: Vec<LogicalType>,
    /// How the probe folds matches.
    plan: FoldPlan,
    /// The last completed build, shared by every clone.
    slot: Arc<BuildSlot>,
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

    /// The compiled select program (probe attributes at their probe plan
    /// slot, build attributes at their build payload lane).
    pub fn select(&self) -> &SelectProgram {
        &self.select
    }

    /// How the probe folds matches into the select clause.
    pub fn fold_plan(&self) -> FoldPlan {
        self.plan
    }

    /// A copy that shares no build slot with this operator and holds no
    /// build: its first run scans the build side (a cold-build timing, a
    /// stop test that must meet a build scan).
    pub fn cold_copy(&self) -> CompiledJoinOp {
        CompiledJoinOp {
            slot: Arc::default(),
            ..self.clone()
        }
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
    /// Qualifying probe rows the prefilter proved to have no build key,
    /// so no table lookup ran for them: the range and bloom tests of a
    /// hashed build (which pass some absent keys on to the table), or the
    /// rank index, which rejects every absent key exactly.
    pub probe_bloom_rejects: u64,
    /// Whether the build side was the query's left relation.
    pub build_is_left: bool,
    /// Whether the join reused the operator's held build instead of
    /// scanning the build side; the build counters above are then the
    /// held build's, as a fresh scan would count them.
    pub build_reused: bool,
    /// Whether the build keys were indexed by rank (one dense integer
    /// lane) rather than hashed.
    pub rank_index: bool,
}

/// The stages of [`run_join`], in the order they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Each build range's qualifying rows: key and payload lanes.
    BuildGather,
    /// The keys into the key index, in range order: each key's hash and
    /// the hash table, or the rank index and each row's id.
    BuildInsert,
    /// The counting sort of the payload into the CSR row list.
    BuildCsr,
    /// The fold plan's per-key build folds.
    BuildFold,
    /// The hashed tier's probe prefilter over the build keys.
    BuildBloom,
    /// Probe stage 1 (with the walk that finds the block's rows).
    ProbeGather,
    /// Probe stage 2 (hashed tier).
    ProbeHash,
    /// Probe stage 3 (hashed tier).
    ProbeFilter,
    /// Probe stage 4; a rank-indexed build's one lookup for stages 2–4.
    ProbeResolve,
    /// Probe stage 5.
    ProbeFold,
    /// Each probe range's partial, the once-per-join merge and the sink's
    /// finish.
    ProbeFinish,
}

impl Stage {
    /// Every stage, in run order.
    pub const ALL: [Stage; 11] = [
        Stage::BuildGather,
        Stage::BuildInsert,
        Stage::BuildCsr,
        Stage::BuildFold,
        Stage::BuildBloom,
        Stage::ProbeGather,
        Stage::ProbeHash,
        Stage::ProbeFilter,
        Stage::ProbeResolve,
        Stage::ProbeFold,
        Stage::ProbeFinish,
    ];

    /// The stage's name in reports (`build.gather`, `probe.filter`, …).
    pub fn name(self) -> &'static str {
        [
            "build.gather",
            "build.insert",
            "build.csr",
            "build.fold",
            "build.bloom",
            "probe.gather",
            "probe.hash",
            "probe.filter",
            "probe.resolve",
            "probe.fold",
            "probe.finish",
        ][self as usize]
    }
}

/// Nanoseconds spent in each [`Stage`] by [`run_join_staged`], summed over
/// the workers (CPU time, not wall time, under a parallel policy) and
/// accumulated across the joins run with it.
#[derive(Debug, Default)]
pub struct JoinStages {
    ns: [AtomicU64; Stage::ALL.len()],
}

impl JoinStages {
    /// Nanoseconds spent in `stage`.
    pub fn ns(&self, stage: Stage) -> u64 {
        self.ns[stage as usize].load(Ordering::Relaxed)
    }
}

/// A lap timer over the stages: each [`Lap::mark`] charges the time since
/// the previous mark to a stage. Without [`JoinStages`] it reads no clock.
struct Lap<'s>(Option<(&'s JoinStages, Instant)>);

impl<'s> Lap<'s> {
    fn start(stages: Option<&'s JoinStages>) -> Lap<'s> {
        Lap(stages.map(|s| (s, Instant::now())))
    }

    #[inline(always)]
    fn mark(&mut self, stage: Stage) {
        if let Some((stages, at)) = &mut self.0 {
            let now = Instant::now();
            let ns = now.duration_since(*at).as_nanos() as u64;
            stages.ns[stage as usize].fetch_add(ns, Ordering::Relaxed);
            *at = now;
        }
    }
}

/// Compiles one side's residual filter and keys against its plan groups.
fn compile_side(
    plan: &AccessPlan,
    q: &JoinQuery,
    side: Side,
    checked: &JoinTypes,
    bind: impl Fn(AttrId) -> Result<BoundAttr, ExecError>,
) -> Result<CompiledJoinSide, ExecError> {
    let preds = match side {
        Side::Left => &checked.left_predicates,
        Side::Right => &checked.right_predicates,
    };
    Ok(CompiledJoinSide {
        plan: plan.clone(),
        filter: CompiledFilter::lower(q.filter(side), preds, &bind)?,
        keys: q
            .key_attrs(side)
            .into_iter()
            .map(&bind)
            .collect::<Result<_, _>>()?,
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
    let lbind = plan_binder(left, &left_plan.layouts)?;
    let rbind = plan_binder(right, &right_plan.layouts)?;
    let lhs = compile_side(left_plan, q, Side::Left, checked, &lbind)?;
    let rhs = compile_side(right_plan, q, Side::Right, checked, &rbind)?;
    let (build, probe, build_side) = if build_is_left {
        (lhs, rhs, Side::Left)
    } else {
        (rhs, lhs, Side::Right)
    };
    let bind_on = |side: Side, local| match side {
        Side::Left => lbind(local),
        Side::Right => rbind(local),
    };

    // The build attributes the select reads become the payload columns,
    // in combined-attribute order; a probe attribute binds on its plan.
    let mut payload = Vec::new();
    let mut lanes = Vec::new();
    for attr in q.select_clause().attrs().iter() {
        let (side, local) = q.side_of(attr);
        if side == build_side {
            lanes.push(attr);
            payload.push(bind_on(side, local)?);
        }
    }
    let select = SelectProgram::lower(q.select_clause(), &checked.select, |attr| {
        let (side, local) = q.side_of(attr);
        match lanes.iter().position(|&a| a == attr) {
            Some(c) => Ok(BoundAttr {
                slot: BUILD_SLOT,
                offset: c as u32,
            }),
            None => bind_on(side, local),
        }
    })?;
    Ok(CompiledJoinOp {
        build,
        probe,
        build_is_left,
        select,
        payload,
        key_types: checked.key_types.clone(),
        plan: fold_plan(q, &checked.select, build_is_left),
        slot: Arc::default(),
    })
}

/// Stage 1: the lanes of `keys` at the ascending `rows` into `out`,
/// column by column, row-major (`keys.len()` lanes per row).
fn gather_keys(
    slots: &[SlotAccessor<'_, '_>],
    keys: &[BoundAttr],
    rows: &[u32],
    out: &mut [Value],
) {
    match keys {
        &[k] => gather_col(slots, k, rows, out.iter_mut()),
        _ => {
            for (c, &k) in keys.iter().enumerate() {
                gather_col(slots, k, rows, out[c..].iter_mut().step_by(keys.len()));
            }
        }
    }
}

/// Stage 2: appends the [`hash_key`] of every `width`-lane key of `keys`.
fn hash_keys(keys: &[Value], width: usize, out: &mut Vec<u64>) {
    match width {
        1 => out.extend(keys.iter().map(|&k| hash_key(&[k]))),
        _ => out.extend(keys.chunks_exact(width).map(hash_key)),
    }
}

/// One build range's qualifying rows, in row order: their key lanes
/// (`key width` per row) and one column per payload attribute.
struct BuildPart {
    keys: Vec<Value>,
    payload: Vec<Vec<Value>>,
}

/// The hashed tier's view of one [`BuildPart`]: its key lanes and each
/// key's [`hash_key`].
type HashedKeys<'p> = (&'p [Value], Vec<u64>);

/// [`FoldPlan::BuildGroups`]'s build-side groups: key `id`'s `(group
/// id, multiplicity)` pairs are `list[starts[id]..starts[id + 1]]`, or
/// `list[id]` alone when `starts` is `None` (every key reaches one
/// group); `keys` holds the group key vectors by dense group id.
#[derive(Debug)]
struct GroupLists {
    keys: LaneMap,
    starts: Option<Vec<u32>>,
    list: Vec<(u32, u32)>,
}

/// The build keys' index: each distinct key vector's dense id.
#[derive(Debug)]
enum KeyIndex {
    /// A [`LaneMap`] (ids in first-appearance order) behind the probe
    /// prefilter over the same keys.
    Hashed { map: LaneMap, filter: JoinFilter },
    /// One dense integer lane: ids in key order, absent keys rejected by
    /// the same lookup.
    Ranked(RankIndex),
}

impl KeyIndex {
    /// Number of distinct build keys.
    fn len(&self) -> usize {
        match self {
            KeyIndex::Hashed { map, .. } => map.len(),
            KeyIndex::Ranked(index) => index.len(),
        }
    }
}

/// The build-side table: the key index, one CSR row list over the key
/// ids, and [`FoldPlan::BuildGroups`]'s group lists. Key `id`'s build
/// rows are CSR rows `starts[id]..starts[id + 1]`, in build (= morsel,
/// then row) order.
#[derive(Debug)]
struct JoinTable {
    keys: KeyIndex,
    /// `keys.len() + 1` offsets into the CSR rows.
    starts: Vec<u32>,
    /// The payload lanes of the CSR rows, column by column: lane `c` of
    /// CSR row `r` is `payload[c * rows + r]`.
    payload: Vec<Value>,
    /// Qualifying build rows.
    rows: usize,
    groups: Option<GroupLists>,
}

/// What a build was made from: the build relation's lineage and data
/// version (which name its rows) and the build filter with its bound
/// constants. The operator fixes everything else a build reads.
#[derive(Debug, PartialEq)]
struct BuildSource {
    lineage: u64,
    version: u64,
    filter: CompiledFilter,
}

/// A completed build: its table, its source, and the build-side counters
/// its scan reported.
#[derive(Debug)]
struct Build {
    source: BuildSource,
    table: JoinTable,
    stats: JoinExecStats,
}

/// A compiled join operator's one held build, shared by its clones (the
/// operator cache's entry and every copy handed out from it), and dropped
/// with the last of them.
#[derive(Debug, Default)]
struct BuildSlot(Mutex<Option<Arc<Build>>>);

impl BuildSlot {
    /// The held build, if it was made from `source`.
    fn get(&self, source: &BuildSource) -> Option<Arc<Build>> {
        let held = self.0.lock();
        held.as_ref().filter(|b| b.source == *source).cloned()
    }

    /// Holds `build` in place of the previous one, which is freed after
    /// the lock is released.
    fn put(&self, build: Arc<Build>) {
        let old = self.0.lock().replace(build);
        drop(old);
    }
}

/// The hashed tier's probe prefilter over the gathered parts' keys and
/// their hashes ([`HashedKeys`]), sized by the `distinct` keys the map holds (a filter
/// sized for the raw relation, or for duplicate keys, would waste cache):
/// one partial filter per chunk of build ranges, OR-merged in chunk order
/// (the merge is commutative, so the result is independent of the
/// policy).
fn prefilter(
    parts: &[HashedKeys<'_>],
    distinct: usize,
    op: &CompiledJoinOp,
    policy: &ExecPolicy,
    stages: Option<&JoinStages>,
) -> JoinFilter {
    let key_width = op.build.keys.len();
    let new = || JoinFilter::with_capacity(distinct, op.key_types.clone());
    let partials = run_chunks(parts, policy, |chunk| {
        let mut lap = Lap::start(stages);
        let mut f = new();
        for (keys, hashes) in chunk {
            for (key, &h) in keys.chunks_exact(key_width).zip(hashes) {
                f.insert(key, h);
            }
        }
        lap.mark(Stage::BuildBloom);
        f
    });
    let mut lap = Lap::start(stages);
    let mut filter = new();
    for p in &partials {
        filter.merge(p);
    }
    lap.mark(Stage::BuildBloom);
    filter
}

impl JoinTable {
    /// Indexes the gathered build parts' keys in range order, lays the
    /// payloads out by key id with a stable counting sort, then resolves
    /// the group plan's lists. `rows` is the observed post-prune build
    /// cardinality, which sizes the hashed tier's map (distinct keys can
    /// only be fewer) and bounds the rank index: a one-lane integer key
    /// takes the index when it is no larger than that map's slot array.
    fn build(
        parts: &[BuildPart],
        op: &CompiledJoinOp,
        rows: usize,
        policy: &ExecPolicy,
        stages: Option<&JoinStages>,
    ) -> JoinTable {
        let mut lap = Lap::start(stages);
        let key_width = op.build.keys.len();
        let lanes = || parts.iter().flat_map(|p| p.keys.iter().copied());
        let ranked = match op.key_types[..] {
            [ty] if ty != LogicalType::F64 && rows > 0 => {
                let (min, max) = lanes().fold((Value::MAX, Value::MIN), |(lo, hi), k| {
                    (lo.min(k), hi.max(k))
                });
                (RankIndex::bytes(min, max) <= LaneMap::slot_bytes(1, rows) as u64)
                    .then(|| RankIndex::new(min, max, lanes()))
            }
            _ => None,
        };
        let (keys, ids): (KeyIndex, Vec<u32>) = match ranked {
            Some(index) => {
                let ids = lanes().map(|k| index.lookup(k).1).collect();
                lap.mark(Stage::BuildInsert);
                (KeyIndex::Ranked(index), ids)
            }
            None => {
                // Only this tier reads key hashes: each key hashes once,
                // for the map insert and the prefilter alike.
                let hashed: Vec<HashedKeys<'_>> = parts
                    .iter()
                    .map(|p| {
                        let mut hashes = Vec::with_capacity(p.keys.len() / key_width);
                        hash_keys(&p.keys, key_width, &mut hashes);
                        (&p.keys[..], hashes)
                    })
                    .collect();
                let mut map = LaneMap::with_capacity(key_width, rows);
                let ids = hashed
                    .iter()
                    .flat_map(|(keys, hashes)| keys.chunks_exact(key_width).zip(hashes))
                    .map(|(key, &h)| map.insert_hashed(key, h))
                    .collect();
                lap.mark(Stage::BuildInsert);
                let filter = prefilter(&hashed, map.len(), op, policy, stages);
                lap = Lap::start(stages);
                (KeyIndex::Hashed { map, filter }, ids)
            }
        };
        let mut starts = vec![0u32; keys.len() + 1];
        for &id in &ids {
            starts[id as usize + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut payload = Vec::with_capacity(rows * op.payload.len());
        if ids.iter().enumerate().all(|(i, &id)| id as usize == i) {
            // Ids run 0, 1, 2, … in build order (every key distinct and
            // new, or ranked in ascending order): the CSR order is the
            // build order.
            for c in 0..op.payload.len() {
                parts
                    .iter()
                    .for_each(|p| payload.extend_from_slice(&p.payload[c]));
            }
        } else if !op.payload.is_empty() {
            let mut next = starts.clone();
            let at: Vec<u32> = ids
                .iter()
                .map(|&id| {
                    next[id as usize] += 1;
                    next[id as usize] - 1
                })
                .collect();
            payload.resize(rows * op.payload.len(), 0);
            for (c, out) in payload.chunks_exact_mut(rows).enumerate() {
                let lanes = parts.iter().flat_map(|p| &p.payload[c]);
                for (&v, &r) in lanes.zip(&at) {
                    out[r as usize] = v;
                }
            }
        }
        lap.mark(Stage::BuildCsr);
        let mut table = JoinTable {
            keys,
            starts,
            payload,
            rows,
            groups: None,
        };
        if let (FoldPlan::BuildGroups, SelectProgram::Grouped { keys, .. }) = (op.plan, &op.select)
        {
            table.groups = Some(table.group_lists(keys));
        }
        lap.mark(Stage::BuildFold);
        table
    }

    /// The CSR rows of key `id`.
    #[inline(always)]
    fn span(&self, id: u32) -> Range<usize> {
        self.starts[id as usize] as usize..self.starts[id as usize + 1] as usize
    }

    /// The build lane `a` (`BoundAttr { slot: BUILD_SLOT, offset: c }`,
    /// payload column `c`) of CSR row `r`.
    #[inline(always)]
    fn lane(&self, r: usize, a: BoundAttr) -> Value {
        self.payload[a.offset as usize * self.rows + r]
    }

    /// Resolves the group `keys` over the CSR rows into
    /// [`FoldPlan::BuildGroups`]'s per-key group lists.
    fn group_lists(&self, keys: &[CompiledExpr]) -> GroupLists {
        // Each CSR row's group id, resolved a block at a time through the
        // grouped pipeline (a dense memo for a narrow one-lane key, else
        // hash-then-probe).
        let mut groups = LaneMap::new(keys.len());
        let mut blk = GroupBlock::default();
        let mut group_of = Vec::with_capacity(self.rows);
        for lo in (0..self.rows).step_by(BLOCK_ROWS) {
            let n = BLOCK_ROWS.min(self.rows - lo);
            let keys: Vec<&CompiledExpr> = keys.iter().collect();
            let gather = |kbuf: &mut [Value]| {
                eval_batch(&keys, kbuf, Layout::Rows, 0..n, |i| {
                    move |a| self.lane(lo + i, a)
                })
            };
            let id = |key: &[Value], h| groups.insert_hashed(key, h);
            group_of.extend_from_slice(blk.resolve_with(keys.len(), n, gather, id));
        }
        let mut starts = vec![0u32];
        let mut list: Vec<(u32, u32)> = Vec::new();
        // Per group, the index of its latest `list` entry.
        let mut latest: Vec<usize> = vec![0; groups.len()];
        for id in 0..self.keys.len() as u32 {
            let at = list.len();
            for &g in &group_of[self.span(id)] {
                let i = latest[g as usize];
                if i >= at && list.get(i).is_some_and(|e| e.0 == g) {
                    list[i].1 += 1;
                } else {
                    latest[g as usize] = list.len();
                    list.push((g, 1));
                }
            }
            starts.push(list.len() as u32);
        }
        GroupLists {
            keys: groups,
            starts: (list.len() != self.keys.len()).then_some(starts),
            list,
        }
    }

    /// [`FoldPlan::BuildAggs`]'s one merge per join: `hits[id]` probe rows
    /// reached key `id` over every range, so each of the key's build rows
    /// folds through the select program's batch step `hits[id]` times —
    /// for the wrapping sums, min/max and counts the plan admits, exactly
    /// the key's partial state merged `hits[id]` times. Returns the
    /// aggregate states and the matched-pair count.
    fn merge_hits(&self, select: &SelectProgram, hits: &[u32]) -> (Partial, usize) {
        let (mut rows, mut mults) = (Vec::new(), Vec::new());
        for (id, &h) in hits.iter().enumerate().filter(|(_, &h)| h > 0) {
            let span = self.span(id as u32);
            mults.extend(std::iter::repeat_n(h, span.len()));
            rows.extend(span);
        }
        let (mut part, rows) = (select.partial(), &rows[..]);
        let eval = |es: &[&CompiledExpr], r: Range<usize>, out: &mut [Value], layout| {
            let rows = &rows[r];
            eval_batch(es, out, layout, 0..rows.len(), |i| {
                move |a| self.lane(rows[i], a)
            })
        };
        select.fold(&mut part, rows.len(), eval, Some(&mults));
        (part, mults.iter().map(|&m| m as usize).sum())
    }
}

/// Executes a compiled join — the one join entry point — returning the
/// result and the per-side cardinality counters.
///
/// Build and probe are each one source of the shared range driver
/// ([`run_ranges`]): morsels under a parallel policy, per-range partials
/// re-assembled in range order (see the module docs), so for a fixed
/// `build_is_left` the result does not depend on the policy wherever the
/// fold does not depend on the morsel split — and a serial policy probes
/// **one** range, so `F64` sums fold the same single row-order chain as
/// [`h2o_expr::interp::interpret_join`].
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
    join(left, right, op, ctx, None)
}

/// [`run_join`] that also charges the time of every [`Stage`] to
/// `stages` (one clock read per stage and block; `run_join` reads none).
pub fn run_join_staged(
    left: &LayoutCatalog,
    right: &LayoutCatalog,
    op: &CompiledJoinOp,
    ctx: &ExecCtx<'_>,
    stages: &JoinStages,
) -> Result<(QueryResult, JoinExecStats), ExecError> {
    join(left, right, op, ctx, Some(stages))
}

fn join(
    left: &LayoutCatalog,
    right: &LayoutCatalog,
    op: &CompiledJoinOp,
    ctx: &ExecCtx<'_>,
    stages: Option<&JoinStages>,
) -> Result<(QueryResult, JoinExecStats), ExecError> {
    let (build_cat, probe_cat) = if op.build_is_left {
        (left, right)
    } else {
        (right, left)
    };
    let build_views = ctx.views(build_cat, &op.build.plan.layouts)?;
    let probe_views = ctx.views(probe_cat, &op.probe.plan.layouts)?;
    let policy = &ctx.policy;

    // Phase 1 — build, or reuse the operator's held build when it was made
    // from these rows under this filter.
    let source = BuildSource {
        lineage: build_cat.lineage(),
        version: build_cat.data_version(),
        filter: op.build.filter.clone(),
    };
    let (build, build_reused) = match op.slot.get(&source) {
        Some(build) => (build, true),
        None => {
            let build = Arc::new(build_side(op, &build_views, source, policy, stages));
            // A stopped scan drains early: its table is partial, so only a
            // build that ran to completion is held.
            ctx.check()?;
            op.slot.put(build.clone());
            (build, false)
        }
    };
    let table = &build.table;
    let mut stats = JoinExecStats {
        probe_input_rows: probe_views.rows(),
        build_reused,
        ..build.stats
    };

    // Phase 2 — probe, feeding the select program's sink. An empty build
    // side short-circuits the probe scan entirely (greedy early-exit): no
    // partials finish as the empty-match result, which coincides with the
    // interpreter's conventions.
    let ranges = match table.rows {
        0 => Vec::new(),
        _ => run_ranges(probe_views.rows(), probe_views.seg_rows(), policy, |r| {
            let mut probe = Probe::new(op, table, probe_views.accessors());
            let side = &op.probe;
            let mut lap = Lap::start(stages);
            let qual = kernels::for_each_block(&probe_views, &side.filter, r, |rows| {
                probe.block(rows, &mut lap)
            });
            let rejects = probe.rejects;
            let (folded, pairs) = probe.finish();
            lap.mark(Stage::ProbeFinish);
            (folded, qual, pairs, rejects)
        }),
    };
    let mut lap = Lap::start(stages);
    let (mut parts, mut key_hits) = (Vec::new(), None::<Vec<u32>>);
    for (folded, qual, pairs, rejects) in ranges {
        stats.probe_rows += qual;
        stats.output_pairs += pairs;
        stats.probe_bloom_rejects += rejects;
        match (folded, &mut key_hits) {
            (Folded::Partial(part), _) => parts.push(part),
            (Folded::KeyHits(hits), None) => key_hits = Some(hits),
            (Folded::KeyHits(hits), Some(sum)) => {
                for (s, h) in sum.iter_mut().zip(hits) {
                    *s += h;
                }
            }
        }
    }
    if let Some(hits) = key_hits {
        let (part, pairs) = table.merge_hits(&op.select, &hits);
        stats.output_pairs += pairs;
        parts.push(part);
    }
    let result = op.select.finish(parts);
    lap.mark(Stage::ProbeFinish);
    ctx.check()?;
    stats.probe_segments_skipped = probe_views.segments_skipped();
    Ok((result, stats))
}

/// Phase 1: each build range's qualifying (key, payload) lanes gathered
/// in row order, then indexed in range order — identical to a
/// serial row-order build, so the table, and every downstream result, is
/// independent of the parallelism policy.
fn build_side(
    op: &CompiledJoinOp,
    views: &GroupViews<'_>,
    source: BuildSource,
    policy: &ExecPolicy,
    stages: Option<&JoinStages>,
) -> Build {
    let key_width = op.build.keys.len();
    let parts: Vec<BuildPart> = run_ranges(views.rows(), views.seg_rows(), policy, |r| {
        let mut lap = Lap::start(stages);
        let build = &op.build;
        let slots = views.accessors();
        let mut part = BuildPart {
            keys: Vec::new(),
            payload: vec![Vec::new(); op.payload.len()],
        };
        kernels::for_each_block(views, &build.filter, r, |rows| {
            let at = part.keys.len();
            part.keys.resize(at + rows.len() * key_width, 0);
            gather_keys(&slots, &build.keys, rows, &mut part.keys[at..]);
            for (col, &a) in part.payload.iter_mut().zip(&op.payload) {
                let at = col.len();
                col.resize(at + rows.len(), 0);
                gather_col(&slots, a, rows, col[at..].iter_mut());
            }
        });
        lap.mark(Stage::BuildGather);
        part
    });
    let rows: usize = parts.iter().map(|p| p.keys.len() / key_width).sum();
    let table = JoinTable::build(&parts, op, rows, policy, stages);
    Build {
        source,
        stats: JoinExecStats {
            build_input_rows: views.rows(),
            build_rows: rows,
            build_segments_skipped: views.segments_skipped(),
            build_is_left: op.build_is_left,
            rank_index: matches!(table.keys, KeyIndex::Ranked(_)),
            ..JoinExecStats::default()
        },
        table,
    }
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
    /// program's partial.
    Partial(Partial),
    /// [`FoldPlan::BuildAggs`]: hits per build key id.
    KeyHits(Vec<u32>),
    /// [`FoldPlan::BuildGroups`]: the build's group lists, `aggs.len()`
    /// states per group id, and which groups a probe row reached.
    Groups {
        key_types: &'a [LogicalType],
        aggs: &'a [(AggOp, CompiledExpr)],
        lists: &'a GroupLists,
        states: Vec<AggState>,
        hit: Vec<bool>,
    },
}

/// A probe range's contribution: a sink partial, or
/// [`FoldPlan::BuildAggs`]'s hits per key id, which the join sums over
/// its ranges before its one merge.
enum Folded {
    Partial(Partial),
    KeyHits(Vec<u32>),
}

/// One probe range's running state: the block pipeline's buffers, the
/// range's fold, and its matched-pair and filter-reject counts.
struct Probe<'a, 'v, 'g> {
    op: &'a CompiledJoinOp,
    table: &'a JoinTable,
    slots: Vec<SlotAccessor<'v, 'g>>,
    /// The block's key lanes, row-major.
    keys: Vec<Value>,
    /// The block's key hashes.
    hashes: Vec<u64>,
    /// Block positions of the keys that passed the filter.
    survivors: Vec<u32>,
    /// The probe rows the table holds a key of, and that key's id.
    hit_rows: Vec<u32>,
    hit_ids: Vec<u32>,
    /// The rows, group ids (or the pairs' CSR rows) and multiplicities a
    /// fold runs over.
    fold_rows: Vec<u32>,
    fold_ids: Vec<u32>,
    mults: Vec<u32>,
    /// One aggregate's input column over `fold_rows`.
    vals: Vec<Value>,
    fold: RangeFold<'a>,
    pairs: usize,
    rejects: u64,
}

impl<'a, 'v, 'g> Probe<'a, 'v, 'g> {
    fn new(
        op: &'a CompiledJoinOp,
        table: &'a JoinTable,
        slots: Vec<SlotAccessor<'v, 'g>>,
    ) -> Probe<'a, 'v, 'g> {
        let fold = match (op.plan, &op.select, &table.groups) {
            (FoldPlan::BuildAggs, ..) => RangeFold::KeyHits(vec![0; table.keys.len()]),
            (
                _,
                SelectProgram::Grouped {
                    key_types, aggs, ..
                },
                Some(lists),
            ) => RangeFold::Groups {
                key_types,
                aggs,
                lists,
                states: (0..lists.keys.len())
                    .flat_map(|_| aggs.iter().map(|&(f, _)| AggState::new(f)))
                    .collect(),
                hit: vec![false; lists.keys.len()],
            },
            _ => RangeFold::Partial(op.select.partial()),
        };
        Probe {
            op,
            table,
            slots,
            keys: Vec::with_capacity(BLOCK_ROWS * op.probe.keys.len()),
            hashes: Vec::with_capacity(BLOCK_ROWS),
            survivors: vec![0; BLOCK_ROWS],
            hit_rows: Vec::with_capacity(BLOCK_ROWS),
            hit_ids: Vec::with_capacity(BLOCK_ROWS),
            fold_rows: Vec::new(),
            fold_ids: Vec::new(),
            mults: Vec::with_capacity(BLOCK_ROWS),
            vals: Vec::new(),
            fold,
            pairs: 0,
            rejects: 0,
        }
    }

    /// Runs the five stages (module docs) over one block of qualifying
    /// probe rows, ascending. `lap` was last marked where the walk that
    /// found the block began, or at the previous block's end.
    fn block(&mut self, rows: &[u32], lap: &mut Lap) {
        let (op, table) = (self.op, self.table);
        let w = op.probe.keys.len();
        // 1: gather every key.
        self.keys.resize(rows.len() * w, 0);
        gather_keys(&self.slots, &op.probe.keys, rows, &mut self.keys);
        lap.mark(Stage::ProbeGather);
        match &table.keys {
            KeyIndex::Hashed { map, filter } => {
                // 2: hash every key.
                self.hashes.clear();
                hash_keys(&self.keys, w, &mut self.hashes);
                lap.mark(Stage::ProbeHash);
                // 3: range and bloom test every key.
                let kept = filter.survivors(&self.keys, &self.hashes, &mut self.survivors);
                self.rejects += (rows.len() - kept) as u64;
                lap.mark(Stage::ProbeFilter);
                // 4: the survivors' key ids.
                self.hit_rows.clear();
                self.hit_ids.clear();
                for &i in &self.survivors[..kept] {
                    let i = i as usize;
                    if let Some(id) = map.get(&self.keys[i * w..(i + 1) * w], self.hashes[i]) {
                        self.hit_rows.push(rows[i]);
                        self.hit_ids.push(id);
                    }
                }
            }
            KeyIndex::Ranked(index) => {
                // 2–4 in one lookup per key, compacted without a branch.
                self.hit_rows.resize(rows.len(), 0);
                self.hit_ids.resize(rows.len(), 0);
                let mut hits = 0;
                for (&row, &k) in rows.iter().zip(&self.keys) {
                    let (hit, id) = index.lookup(k);
                    self.hit_rows[hits] = row;
                    self.hit_ids[hits] = id;
                    hits += usize::from(hit);
                }
                self.hit_rows.truncate(hits);
                self.hit_ids.truncate(hits);
                self.rejects += (rows.len() - hits) as u64;
            }
        }
        lap.mark(Stage::ProbeResolve);
        // 5: fold, in ascending row order.
        if !self.hit_rows.is_empty() {
            self.fold();
        }
        lap.mark(Stage::ProbeFold);
    }

    /// Stage 5 over the block's hits.
    fn fold(&mut self) {
        let (op, table) = (self.op, self.table);
        let hits = self.hit_rows.iter().zip(&self.hit_ids);
        match &mut self.fold {
            RangeFold::KeyHits(counts) => {
                for &id in &self.hit_ids {
                    counts[id as usize] += 1;
                }
            }
            RangeFold::Partial(acc) if op.plan == FoldPlan::PerPair => {
                // The hits' matched pairs in order, a block at a time.
                let (probe, build) = (&mut self.fold_rows, &mut self.fold_ids);
                probe.clear();
                build.clear();
                for (&row, &id) in hits {
                    let mut span = table.span(id);
                    self.pairs += span.len();
                    while !span.is_empty() {
                        let take = span.len().min(BLOCK_ROWS - probe.len());
                        probe.extend(std::iter::repeat_n(row, take));
                        build.extend(span.start as u32..(span.start + take) as u32);
                        span.start += take;
                        if probe.len() == BLOCK_ROWS {
                            fold_pairs(op, table, &self.slots, probe, build, acc);
                            probe.clear();
                            build.clear();
                        }
                    }
                }
                fold_pairs(op, table, &self.slots, probe, build, acc);
            }
            RangeFold::Partial(acc) => {
                self.mults.clear();
                self.mults
                    .extend(self.hit_ids.iter().map(|&id| table.span(id).len() as u32));
                self.pairs += self.mults.iter().map(|&m| m as usize).sum::<usize>();
                let (slots, rows) = (&self.slots, &self.hit_rows);
                let eval = |es: &[&CompiledExpr], r: Range<usize>, out: &mut [Value], layout| {
                    eval_rows(slots, &rows[r], es, out, layout, unbound)
                };
                op.select.fold(acc, rows.len(), eval, Some(&self.mults));
            }
            RangeFold::Groups {
                aggs,
                lists: GroupLists { starts, list, .. },
                states,
                hit,
                ..
            } => {
                // Each hit row once per group its key reaches: with one
                // group per key, the hit rows themselves.
                self.fold_ids.clear();
                self.mults.clear();
                let rows = match starts {
                    None => {
                        for &id in &self.hit_ids {
                            let (g, m) = list[id as usize];
                            self.fold_ids.push(g);
                            self.mults.push(m);
                        }
                        &self.hit_rows
                    }
                    Some(starts) => {
                        self.fold_rows.clear();
                        for (&row, &id) in hits {
                            let (lo, hi) = (starts[id as usize], starts[id as usize + 1]);
                            for &(g, m) in &list[lo as usize..hi as usize] {
                                self.fold_rows.push(row);
                                self.fold_ids.push(g);
                                self.mults.push(m);
                            }
                        }
                        &self.fold_rows
                    }
                };
                for &g in &self.fold_ids {
                    hit[g as usize] = true;
                }
                self.pairs += self.mults.iter().map(|&m| m as usize).sum::<usize>();
                let n = aggs.len();
                self.vals.resize(rows.len(), 0);
                for (j, (f, e)) in aggs.iter().enumerate() {
                    if f.func != AggFunc::Count {
                        let (e, out) = (&[e], &mut self.vals);
                        eval_rows(&self.slots, rows, e, out, Layout::Columns, unbound);
                    }
                    let (ids, mults) = (&self.fold_ids, Some(&self.mults[..]));
                    fold_column(&mut states[j..], n, *f, ids, &self.vals, mults);
                }
            }
        }
    }

    /// The range's contribution and matched-pair count
    /// ([`FoldPlan::BuildAggs`] counts its pairs at the join's merge).
    fn finish(self) -> (Folded, usize) {
        match self.fold {
            RangeFold::Partial(acc) => (Folded::Partial(acc), self.pairs),
            RangeFold::KeyHits(hits) => (Folded::KeyHits(hits), 0),
            RangeFold::Groups {
                key_types,
                aggs,
                lists,
                states,
                hit,
            } => {
                let n = aggs.len();
                let mut out: GroupedAggs = table_for(key_types, aggs);
                for (g, _) in hit.iter().enumerate().filter(|(_, &h)| h) {
                    out.merge_group(lists.keys.key(g as u32), &states[g * n..(g + 1) * n]);
                }
                (Folded::Partial(out.into()), self.pairs)
            }
        }
    }
}

/// Folds a block of matched pairs — probe row `probe[i]` with CSR row
/// `build[i]` — through the select program's batch step: probe lanes read
/// from the probe slots, build lanes from the payload.
fn fold_pairs(
    op: &CompiledJoinOp,
    table: &JoinTable,
    slots: &[SlotAccessor<'_, '_>],
    probe: &[u32],
    build: &[u32],
    acc: &mut Partial,
) {
    let eval = |es: &[&CompiledExpr], r: Range<usize>, out: &mut [Value], layout| {
        let build = &build[r.clone()];
        eval_rows(slots, &probe[r], es, out, layout, |i, a| {
            table.lane(build[i] as usize, a)
        })
    };
    op.select.fold(acc, probe.len(), eval, None);
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
    fn differential_all_build_sides_and_policies() {
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
                let lp = AccessPlan::new(photo.catalog().layout_ids(), Strategy::FusedVolcano);
                let rp = AccessPlan::new(spec.catalog().layout_ids(), Strategy::FusedVolcano);
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
                        "build_is_left {build_is_left} segmented {segmented} query {q}"
                    );
                    // Parallel is bit-identical (not just fingerprint-
                    // equal) for a fixed build side.
                    for policy in [par_policy(), odd_morsels()] {
                        let (par, _) =
                            execute_join_with_policy(photo.catalog(), spec.catalog(), &op, &policy)
                                .unwrap();
                        assert_eq!(par.data(), serial.data());
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
            let lp = AccessPlan::new(photo.catalog().layout_ids(), Strategy::FusedVolcano);
            let rp = AccessPlan::new(spec.catalog().layout_ids(), Strategy::FusedVolcano);
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
                    execute_join_with_policy(photo.catalog(), spec.catalog(), op, &policy).unwrap()
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
            let lp = AccessPlan::new(photo.catalog().layout_ids(), Strategy::FusedVolcano);
            let rp = AccessPlan::new(spec.catalog().layout_ids(), Strategy::FusedVolcano);
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
        let lp = AccessPlan::new(photo.catalog().layout_ids(), Strategy::FusedVolcano);
        let rp = AccessPlan::new(spec.catalog().layout_ids(), Strategy::FusedVolcano);
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
                let lp = AccessPlan::new(photo.catalog().layout_ids(), Strategy::FusedVolcano);
                let rp = AccessPlan::new(spec.catalog().layout_ids(), Strategy::FusedVolcano);
                // Each stop meets a cold build: a fresh operator holds
                // none.
                let cold = || {
                    compile_join(
                        photo.catalog(),
                        spec.catalog(),
                        &lp,
                        &rp,
                        &q,
                        &checked,
                        true,
                    )
                    .unwrap()
                };
                // A live token that never trips: bit-identical results.
                let live = CancelToken::new();
                let (got, _) = execute_join_with_policy_cancel(
                    photo.catalog(),
                    spec.catalog(),
                    &cold(),
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
                    &cold(),
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
                    &cold(),
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
                    &cold(),
                    &ExecPolicy::serial(),
                    &broke,
                )
                .unwrap_err();
                assert_eq!(err, ExecError::BudgetExhausted);
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
