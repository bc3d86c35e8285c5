//! Hash-join execution: morsel-parallel build + probe over segment runs,
//! specialized per execution strategy.
//!
//! The paper's evaluation is single-relation; this module extends each of
//! its three execution strategies (§3.3) to the two-table equi-join shape
//! ([`h2o_expr::JoinQuery`]) while preserving their cost structure:
//!
//! * **fused** — qualifying rows of each side are found by the one-pass
//!   scan (filter fused into the segment-run loop, no selection vector);
//!   the probe is fused with the residual filter and the select-items, so
//!   a matched pair goes straight from hash lookup to output append;
//! * **selection-vector** — each side's where-clause materializes a
//!   per-morsel selection vector first (the Fig. 6 phase split), and the
//!   build gather / probe walk consume ids;
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
//! [`run_join`] hash-partitions the **build** side: each
//! morsel gathers its qualifying rows' key and payload lanes in row order,
//! and the per-morsel parts are inserted into one flat hash table
//! ([`LaneMap`]) sequentially in morsel order — identical to a serial
//! row-order build. The table gives each distinct key a dense id; a
//! stable counting sort then lays the payload rows out as one CSR row
//! list, so key `id`'s build rows are one contiguous slice in build-row
//! order. Keys hash ([`hash_key`], a fixed-seed splitmix64 chain) and
//! compare as **raw lane bits** (`f64` keys by bit pattern, dictionary
//! keys by code — the join gate guarantees a shared dictionary), matching
//! [`h2o_expr::interp::interpret_join`]. The probe side then streams: per
//! qualifying probe row, one hash lookup; per matched build row, the
//! combined tuple is stitched into a flat buffer and the select program
//! runs against it ([`SelectProgram::push`]: every bound attribute's
//! `offset` indexes the buffer).
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
//! # The probe fast path
//!
//! Two optimizations, always on, attack the probe loop's dominant costs
//! without changing a single output bit:
//!
//! * **Bloom-filtered probes** — when the build finishes, its qualifying
//!   keys derive a [`JoinFilter`]: a blocked
//!   bloom filter plus the exact `[min, max]` key range, built
//!   morsel-parallel over the gathered build parts and OR-merged
//!   deterministically, and **sized from the observed post-prune build
//!   cardinality** (the hash table reserves the same count, at most 50%
//!   load). Qualifying probe rows test the filter *before* the hash table
//!   — single-key probes batch eight keys and range-test them with the
//!   vectorized mask kernels ([`kernels::simd`]), multi-key probes test
//!   the range scalar; survivors hash their key once and take one
//!   blocked-bloom word probe with that hash, then (on a pass) the table
//!   lookup with the same hash. A filter miss proves the
//!   key has no build match, so low-match-rate probes skip the
//!   random-access lookup entirely ([`JoinExecStats::probe_bloom_rejects`]
//!   counts them). The filter has no false negatives and rejected rows
//!   fold nothing, so results are bit-identical to the interpreter's
//!   unfiltered nested loop.
//! * **Join-aggregate fusion** — when the build side contributes no
//!   select-clause attribute (its payload is empty), every build match
//!   of a probe row stitches the *same* combined tuple, so a scalar or
//!   grouped aggregate over the join folds the tuple once with the match
//!   count as a multiplicity
//!   ([`AggState::update_n`](h2o_expr::agg::AggState::update_n) /
//!   [`GroupedAggs::update_n`](h2o_expr::grouped::GroupedAggs::update_n))
//!   instead of once per pair — factorized aggregation: the joined
//!   stream is never materialized, and a row matching a thousand build
//!   entries costs one hash-table update. The multiplicity update is
//!   bit-identical to the repeated fold by construction (`F64` sums
//!   apply `n` sequential adds in row order), preserving the
//!   serial ≡ parallel ≡ interpreter fingerprint contract.
//!
//! Build-side zone-map pruning comes with the scans: all three strategies
//! scan via [`GroupViews::runs_pruned`], so segment runs the
//! build filter's zone maps disprove are never read —
//! [`JoinExecStats::build_segments_skipped`] /
//! [`JoinExecStats::probe_segments_skipped`] report the per-side skips.

use crate::bind::{BoundAttr, GroupViews};
use crate::bloom::JoinFilter;
use crate::compile::{plan_binder, ExecCtx, ExecError};
use crate::filter::{CompiledFilter, CompiledPred};
use crate::kernels::{self, simd};
use crate::parallel::{run_chunks, run_ranges, ExecPolicy};
use crate::plan::{AccessPlan, Strategy};
use crate::sink::{Partial, SelectProgram};
use h2o_expr::lanemap::hash_key;
use h2o_expr::typecheck::{JoinTypes, TypedPredicate};
use h2o_expr::{CmpOp, JoinQuery, LaneMap, QueryResult, Side};
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

    /// Collects this side's qualifying row ids for `range` according to
    /// its plan's strategy, invoking `f` per qualifying row in ascending
    /// row order; returns the qualifying count. This is the per-side
    /// "find the rows" half of both build and probe.
    fn for_qualifying<F: FnMut(usize)>(
        &self,
        views: &GroupViews<'_>,
        range: Range<usize>,
        mut f: F,
    ) -> usize {
        match self.plan.strategy {
            Strategy::FusedVolcano => {
                let mut n = 0usize;
                for run in views.runs_pruned(range, &self.filter) {
                    let start = run.start();
                    simd::RunFilter::resolve(&run, &self.filter).for_each_row(|i| {
                        n += 1;
                        f(start + i);
                    });
                }
                n
            }
            strategy => {
                let columnar = strategy == Strategy::ColumnMajor;
                let sel = kernels::qualifying_ids(columnar, views, &self.filter, range);
                for &id in sel.ids() {
                    f(id as usize);
                }
                sel.len()
            }
        }
    }
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
    /// Whether this operator is eligible for join-aggregate fusion: an
    /// aggregate/grouped select whose build side contributes no payload,
    /// so a probe row's matches collapse to one multiplicity update (see
    /// the module docs).
    fused: bool,
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

    /// Whether this operator folds probe matches with a multiplicity
    /// (join-aggregate fusion).
    pub fn fused(&self) -> bool {
        self.fused
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
    // bound `offset` indexes the stitched buffer, `slot` is unused
    // (`SelectProgram::push` semantics).
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
    // Fusion eligibility: an empty build payload means no select
    // expression reads a build-side attribute (group keys included), so a
    // probe row's matches are identical tuples and an aggregate/grouped
    // select folds them as one multiplicity update. Derived purely from
    // the compiled shape, so a cached operator carries the same flag for
    // every execution.
    let fused = build.payload.is_empty() && select.is_fold();
    Ok(CompiledJoinOp {
        build,
        probe,
        build_is_left,
        select,
        tuple_width,
        key_types: checked.key_types.clone(),
        fused,
    })
}

/// The build-side hash table: a [`LaneMap`] from raw-lane key vectors to
/// dense key ids, and one CSR row list over the ids. Key `id`'s build
/// rows are payload rows `starts[id]..starts[id + 1]` of `rows`, in build
/// (= morsel, then row) order.
struct JoinTable {
    keys: LaneMap,
    /// `keys.len() + 1` offsets into the payload rows.
    starts: Vec<u32>,
    /// Payload lanes of the qualifying build rows, `width` per row,
    /// grouped by key id.
    rows: Vec<Value>,
    width: usize,
}

impl JoinTable {
    /// Inserts the gathered build parts (`(keys, payloads, rows)` per
    /// range) in range order, then lays the payloads out by key id with a
    /// stable counting sort. `build_rows` is the observed post-prune build
    /// cardinality, which sizes the map (distinct keys can only be fewer).
    fn build(
        parts: &[(Vec<Value>, Vec<Value>, usize)],
        key_width: usize,
        width: usize,
        build_rows: usize,
    ) -> JoinTable {
        let mut keys = LaneMap::with_capacity(key_width, build_rows);
        let ids: Vec<u32> = parts
            .iter()
            .flat_map(|(k, _, n)| k.chunks_exact(key_width).take(*n))
            .map(|key| keys.insert(key))
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
            let payloads = parts
                .iter()
                .flat_map(|(_, p, n)| p.chunks_exact(width).take(*n));
            for (payload, &id) in payloads.zip(&ids) {
                let at = next[id as usize] as usize * width;
                next[id as usize] += 1;
                rows[at..at + width].copy_from_slice(payload);
            }
        }
        JoinTable {
            keys,
            starts,
            rows,
            width,
        }
    }

    /// The build rows of `key` (whose [`hash_key`] is `h`): the match
    /// count and their payload lanes, `width` per row. `None` when no
    /// build row has the key.
    #[inline]
    fn matches(&self, key: &[Value], h: u64) -> Option<(usize, &[Value])> {
        let id = self.keys.get(key, h)? as usize;
        let (s, e) = (self.starts[id] as usize, self.starts[id + 1] as usize);
        Some((e - s, &self.rows[s * self.width..e * self.width]))
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

    // Phase 1 — build: per-range gather of qualifying (key, payload)
    // lanes in row order, then a sequential range-order insert (identical
    // to a serial row-order build, so the table — and every downstream
    // result — is independent of the parallelism policy).
    let key_width = op.build.keys.len();
    let payload_width = op.build.payload.len();
    let build_rows_total = build_views.rows();
    let parts: Vec<(Vec<Value>, Vec<Value>, usize)> =
        run_ranges(build_rows_total, build_views.seg_rows(), policy, |r| {
            let mut keys: Vec<Value> = Vec::new();
            let mut pays: Vec<Value> = Vec::new();
            let n = op.build.for_qualifying(&build_views, r, |row| {
                for &k in &op.build.keys {
                    keys.push(build_views.get(k, row));
                }
                for &(a, _) in &op.build.payload {
                    pays.push(build_views.get(a, row));
                }
            });
            (keys, pays, n)
        });
    let build_qualifying: usize = parts.iter().map(|(_, _, n)| n).sum();
    // The observed post-prune cardinality sizes both probe-phase
    // structures: the hash table's slot array and the bloom filter's
    // block count (a filter sized for the raw relation would waste cache
    // on heavily filtered builds).
    let table = JoinTable::build(&parts, key_width, payload_width, build_qualifying);
    // Derive the probe prefilter from the gathered parts: one partial
    // filter per chunk of build ranges, OR-merged in chunk order (the
    // merge is commutative, so the result is independent of the policy).
    // An empty build side needs none: its probe is skipped below.
    let bloom = (build_qualifying > 0).then(|| {
        let partials = run_chunks(&parts, policy, |chunk| {
            let mut f = JoinFilter::with_capacity(build_qualifying, op.key_types.clone());
            for (keys, _, n) in chunk {
                for key in keys.chunks_exact(key_width).take(*n) {
                    f.insert(key);
                }
            }
            f
        });
        let mut filter = JoinFilter::with_capacity(build_qualifying, op.key_types.clone());
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
        for (part, qual, pairs, rejects) in probe_parts(&probe_views, op, &table, bloom, policy) {
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

/// The probe source: per range of the probe side and per qualifying probe
/// row, a build-filter test, then one hash lookup; per matched build row,
/// stitches the combined tuple buffer and pushes it into the range's sink
/// partial with a pair multiplicity (always `1` unless the operator is
/// [`CompiledJoinOp::fused`]). Returns, in range order, each range's
/// partial with its qualifying-row, matched-pair and filter-reject counts.
///
/// With a single-column key, qualifying rows batch eight at a time: the
/// exact `[min, max]` range is tested over the batched key lanes with the
/// vectorized mask kernels ([`simd::and_pred_masks`]), surviving lanes
/// take the blocked-bloom word probe and the lookup in lane (= ascending
/// row) order — the fold order is exactly an unfiltered row walk's, so
/// `F64` sums stay bit-identical. Multi-column keys test the range scalar
/// per row.
fn probe_parts(
    views: &GroupViews<'_>,
    op: &CompiledJoinOp,
    table: &JoinTable,
    filter: &JoinFilter,
    policy: &ExecPolicy,
) -> Vec<(Partial, usize, usize, u64)> {
    // Comparator-key range predicates for the vectorized single-key
    // prefilter. `CompiledPred.value` lives in cmp-key space, which is
    // exactly where `JoinFilter` keeps its ranges; the bound attr is
    // irrelevant when masking a contiguous batch.
    let range_preds: Option<[CompiledPred; 2]> = (op.probe.keys.len() == 1).then(|| {
        let (lo, hi) = filter.range(0);
        let attr = BoundAttr { slot: 0, offset: 0 };
        let ty = op.key_types[0];
        [
            CompiledPred {
                attr,
                op: CmpOp::Ge,
                ty,
                value: lo,
            },
            CompiledPred {
                attr,
                op: CmpOp::Le,
                ty,
                value: hi,
            },
        ]
    });
    run_ranges(views.rows(), views.seg_rows(), policy, |r| {
        let mut st = ProbeAcc {
            acc: op.select.partial(),
            buf: vec![0; op.tuple_width],
            pairs: 0,
            rejects: 0,
        };
        let mut key: Vec<Value> = vec![0; op.probe.keys.len()];
        // Batch buffers for the vectorized single-key prefilter.
        let mut rows_b = [0usize; simd::LANES];
        let mut keys_b = [0 as Value; simd::LANES];
        let mut blen = 0usize;
        let qual = op.probe.for_qualifying(views, r, |row| match &range_preds {
            Some(preds) => {
                keys_b[blen] = views.get(op.probe.keys[0], row);
                rows_b[blen] = row;
                blen += 1;
                if blen < simd::LANES {
                    return;
                }
                blen = 0;
                let mut masks = [u8::MAX];
                let col = simd::RunCol::contiguous(&keys_b[..]);
                simd::and_pred_masks(&col, &preds[0], &mut masks);
                simd::and_pred_masks(&col, &preds[1], &mut masks);
                let mut bits = masks[0] as u32;
                st.rejects += u64::from(simd::LANES as u32 - bits.count_ones());
                while bits != 0 {
                    let i = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    probe_one(views, op, table, filter, &mut st, &keys_b[i..=i], rows_b[i]);
                }
            }
            None => {
                for (slot, &k) in key.iter_mut().zip(&op.probe.keys) {
                    *slot = views.get(k, row);
                }
                if !filter.in_range(&key) {
                    st.rejects += 1;
                    return;
                }
                probe_one(views, op, table, filter, &mut st, &key, row);
            }
        });
        // Scalar tail: the last partial batch, range-tested per key.
        for i in 0..blen {
            let key = &keys_b[i..=i];
            if !filter.in_range(key) {
                st.rejects += 1;
                continue;
            }
            probe_one(views, op, table, filter, &mut st, key, rows_b[i]);
        }
        (st.acc, qual, st.pairs, st.rejects)
    })
}

/// One probe range's running state: the sink partial, the stitched
/// combined-tuple buffer, and the matched-pair and filter-reject counts.
struct ProbeAcc {
    acc: Partial,
    buf: Vec<Value>,
    pairs: usize,
    rejects: u64,
}

/// One probe of a range-tested `key` at probe row `row`. The key is
/// hashed once: the hash takes the bloom test, then the table lookup.
/// On a match, stitch the probe row's loop-invariant lanes, then push
/// per matched build row — or **once** with the match count as
/// multiplicity when the operator is fused (the build payload is empty,
/// so every match would stitch the identical tuple).
#[inline(always)]
fn probe_one(
    views: &GroupViews<'_>,
    op: &CompiledJoinOp,
    table: &JoinTable,
    filter: &JoinFilter,
    st: &mut ProbeAcc,
    key: &[Value],
    row: usize,
) {
    let h = hash_key(key);
    if !filter.test_hash(h) {
        st.rejects += 1;
        return;
    }
    let Some((n, payloads)) = table.matches(key, h) else {
        return;
    };
    for &(a, p) in &op.probe.payload {
        st.buf[p as usize] = views.get(a, row);
    }
    if op.fused {
        st.pairs += n;
        op.select.push(&mut st.acc, &st.buf, n as u64);
        return;
    }
    let width = table.width;
    for i in 0..n {
        let payload = &payloads[i * width..(i + 1) * width];
        for (&v, &(_, p)) in payload.iter().zip(&op.build.payload) {
            st.buf[p as usize] = v;
        }
        st.pairs += 1;
        op.select.push(&mut st.acc, &st.buf, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
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
        // the build payload is empty and the operator fuses.
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
                assert!(op.fused(), "one-sided aggregate select must fuse");
                // And the flipped roles put select attrs on the build
                // side, so fusion is off.
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
                if q.select_clause().is_grouped() {
                    assert!(!flipped.fused());
                }
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
