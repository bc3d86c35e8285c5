//! Specialized execution kernels — the output of the "operator generator".
//!
//! Each submodule is one of the paper's generated-code templates (§3.4):
//!
//! * [`fused`] — Fig. 5: one loop, predicates and select-items fused, no
//!   intermediate results (and the bare-column aggregate tiers);
//! * [`selvector`] — Fig. 6: `q1_sel_vector`, phase 1 of the two-phase
//!   plan, materializing a selection vector;
//! * [`colmajor`] — the pure column-store execution model of §2.1, with
//!   per-operator intermediate materialization.
//!
//! [`simd`] holds the chunked lane primitives (masked compares, masked
//! folds, id emission) the three strategies' inner loops share; see its
//! docs for the lane/tail contract that keeps vectorized results
//! bit-identical to scalar ones.
//!
//! Kernels operate on [`GroupViews`] (raw slices)
//! and offset-resolved programs; nothing in a per-tuple loop consults a
//! schema or expression tree. The fused scan and the
//! selection-vector strategy's phase 2 differ only in how they find the
//! qualifying rows: a [`RowSource`] hands each row to one per-row step
//! (`RowBody`) as a lane-fetch closure — `scan_rows` for a filtered row
//! range, `id_rows` for a chunk of qualifying ids — and the step is the
//! select program's ([`crate::sink::SelectProgram::push`]) or a
//! bare-column aggregate fold ([`fused::aggregate_range`]). These two
//! functions are the only place a plan's group count matters. Grouped
//! aggregation and both join sides take the same rows a block at a time
//! instead, from the block walker (`RowSource::for_each_block`, 1K row
//! ids per block): the `grouped` pipeline gathers a block's key and
//! aggregate-input columns, resolves all its group ids in one pass (a
//! dense memo or a hash-then-probe pass) and folds each aggregate column.

pub mod colmajor;
pub mod fused;
pub(crate) mod grouped;
pub mod selvector;
pub mod simd;

use crate::bind::{BoundAttr, GroupViews, SlotAccessor};
use crate::filter::CompiledFilter;
use crate::plan::Strategy;
use crate::selvec::SelVec;
use h2o_storage::{LogicalType, Value};
use simd::BLOCK_ROWS;
use std::ops::Range;

/// A per-row step: what one qualifying row does, given a closure that
/// fetches its lanes by bound attribute.
pub(crate) trait RowBody {
    fn row(&mut self, get: impl Fn(BoundAttr) -> Value);
}

/// Where a per-row step's qualifying rows come from, in ascending row
/// order.
#[derive(Debug)]
pub enum RowSource<'s> {
    /// The rows of a row range that pass a filter (the fused scan and the
    /// online reorganization's chunks).
    Scan(&'s CompiledFilter, Range<usize>),
    /// A chunk of qualifying ids (the selection-vector strategy's
    /// phase 2).
    Ids(&'s [u32]),
}

impl RowSource<'_> {
    /// Hands every row of the source to `body`.
    #[inline]
    pub(crate) fn for_each(&self, views: &GroupViews<'_>, body: &mut impl RowBody) {
        match self {
            RowSource::Scan(filter, range) => scan_rows(views, filter, range.clone(), body),
            RowSource::Ids(ids) => id_rows(views, ids, body),
        }
    }

    /// The block walker: hands the source's rows to `block` as row ids,
    /// ascending and up to [`BLOCK_ROWS`] at a time (a block may be
    /// shorter, never empty), and returns their count. A scan collects the
    /// rows of the fused walker ([`simd::RunFilter::for_each_row`]) over
    /// the pruned segment runs; an id chunk is cut into blocks as it is.
    /// The grouped-aggregation pipeline ([`grouped`]) and both join sides
    /// find their rows here.
    pub(crate) fn for_each_block(
        &self,
        views: &GroupViews<'_>,
        mut block: impl FnMut(&[u32]),
    ) -> usize {
        let (filter, range) = match self {
            RowSource::Ids(ids) => {
                ids.chunks(BLOCK_ROWS).for_each(block);
                return ids.len();
            }
            RowSource::Scan(filter, range) => (filter, range.clone()),
        };
        // A fixed buffer and a local fill count: the per-row append stays
        // in registers.
        let (mut ids, mut len, mut n) = ([0u32; BLOCK_ROWS], 0, 0);
        for run in views.runs_pruned(range, filter) {
            let start = run.start();
            simd::RunFilter::resolve(&run, filter).for_each_row(|i| {
                ids[len] = (start + i) as u32;
                len += 1;
                if len == BLOCK_ROWS {
                    block(&ids);
                    (n, len) = (n + len, 0);
                }
            });
        }
        if len > 0 {
            block(&ids[..len]);
        }
        n + len
    }
}

/// The qualifying rows of `range` under `strategy`, through the block
/// walker ([`RowSource::for_each_block`]): the fused scan's walker, or
/// the chunks of the range's selection vector ([`qualifying_ids`]).
/// Returns their count.
pub(crate) fn qualifying_blocks(
    strategy: Strategy,
    views: &GroupViews<'_>,
    filter: &CompiledFilter,
    range: Range<usize>,
    block: impl FnMut(&[u32]),
) -> usize {
    if strategy == Strategy::FusedVolcano {
        return RowSource::Scan(filter, range).for_each_block(views, block);
    }
    let sel = qualifying_ids(strategy == Strategy::ColumnMajor, views, filter, range);
    RowSource::Ids(sel.ids()).for_each_block(views, block)
}

/// The fused scan, for one column group or many: walks the pruned segment
/// runs of `range`, finds each run's qualifying rows with the block walker
/// ([`simd::RunFilter::for_each_row`]: 8-row chunk masks, 1K rows at a
/// time) and hands them to `body` in ascending row order. One slot slices
/// the row's tuple from the run once and fetches `tuple[offset]`, many
/// slots pick the run's slice of `attr.slot` per fetch, and `body` is
/// compiled once for each.
pub(crate) fn scan_rows(
    views: &GroupViews<'_>,
    filter: &CompiledFilter,
    range: Range<usize>,
    body: &mut impl RowBody,
) {
    let mut slots: Vec<(&[Value], usize)> = Vec::with_capacity(views.len());
    for run in views.runs_pruned(range, filter) {
        let rf = simd::RunFilter::resolve(&run, filter);
        slots.clear();
        slots.extend((0..views.len() as u32).map(|s| run.view(s)));
        match slots[..] {
            [(data, width)] => rf.for_each_row(|i| {
                let tuple = &data[i * width..(i + 1) * width];
                body.row(|a| tuple[a.offset as usize])
            }),
            ref many => rf.for_each_row(|i| {
                body.row(|a| {
                    let (data, width) = many[a.slot as usize];
                    data[i * width + a.offset as usize]
                })
            }),
        }
    }
}

/// The selection-vector source: hands the rows of an id chunk to `body`
/// in chunk order. One slot fetches the row's tuple once and reads
/// `tuple[offset]`; many slots read through one [`SlotAccessor`] each.
pub(crate) fn id_rows(views: &GroupViews<'_>, ids: &[u32], body: &mut impl RowBody) {
    let slots: Vec<SlotAccessor<'_, '_>> =
        (0..views.len() as u32).map(|s| views.accessor(s)).collect();
    match slots[..] {
        [slot] => {
            for &row in ids {
                let tuple = slot.tuple(row as usize);
                body.row(|a| tuple[a.offset as usize]);
            }
        }
        ref many => {
            for &row in ids {
                body.row(|a| many[a.slot as usize].value(row as usize, a.offset as usize));
            }
        }
    }
}

/// Phase 1 of the two id-based strategies over one row range: the
/// qualifying ids within `range`, ascending — by the one-pass conjunction
/// scan ([`selvector::build_selvec_range`]) or, when `columnar`, by
/// column-at-a-time refinement ([`colmajor::build_selvec_columnar_range`]).
pub(crate) fn qualifying_ids(
    columnar: bool,
    views: &GroupViews<'_>,
    filter: &CompiledFilter,
    range: Range<usize>,
) -> SelVec {
    if columnar {
        colmajor::build_selvec_columnar_range(views, filter, range)
    } else {
        selvector::build_selvec_range(views, filter, range)
    }
}

/// Typed accumulator micro-ops shared by the specialized (flat-slot)
/// aggregation tiers of every kernel. Each takes the loop-invariant
/// [`LogicalType`] by value; the type dispatch is a single predictable
/// branch the compiler unswitches out of the row loop, so the `I64` paths
/// compile to exactly the pre-typed code. Min/max accumulators live in
/// **comparator-key space** ([`LogicalType::cmp_key`] — identity for
/// `I64`), matching what [`h2o_expr::agg::AggState::from_parts`] expects.
#[inline(always)]
pub(crate) fn upd_max(ty: LogicalType, acc: &mut Value, v: Value) {
    let k = ty.cmp_key(v);
    if k > *acc {
        *acc = k;
    }
}

#[inline(always)]
pub(crate) fn upd_min(ty: LogicalType, acc: &mut Value, v: Value) {
    let k = ty.cmp_key(v);
    if k < *acc {
        *acc = k;
    }
}

#[inline(always)]
pub(crate) fn upd_sum(ty: LogicalType, acc: &mut Value, v: Value) {
    *acc = match ty {
        LogicalType::F64 => {
            h2o_storage::f64_lane(h2o_storage::lane_f64(*acc) + h2o_storage::lane_f64(v))
        }
        _ => acc.wrapping_add(v),
    };
}

#[cfg(test)]
pub(crate) mod testing {
    use crate::Strategy;
    use h2o_expr::interp::interpret_over;
    use h2o_expr::{Query, QueryResult};
    use h2o_storage::{f64_lane, AttrId, ColumnGroup, LayoutCatalog, LogicalType, Schema, Value};

    /// Runs `q` serially through `strategy` and through the interpreter:
    /// `(engine, interpreter)`, over 5 000 rows of `(a0: I64, a1: F64,
    /// a2: I64, a3: F64)`. Split, the plan reads two groups, `(a0, a1)` in
    /// 2K-row segments and `(a2, a3)` in 8K-row segments, so runs end at
    /// either group's segment ends and split into 1K-row blocks; otherwise
    /// it reads one group of all four in 2K-row segments. The doubles are
    /// non-dyadic: their sums depend on fold order.
    pub(crate) fn vs_interpreter(
        q: &Query,
        strategy: Strategy,
        split: bool,
    ) -> (QueryResult, QueryResult) {
        use LogicalType::{F64, I64};
        let rows = 5_000;
        let col = |f: &dyn Fn(usize) -> Value| (0..rows).map(f).collect::<Vec<Value>>();
        let a0 = col(&|i| (i * 7 % 5) as Value);
        let a1 = col(&|i| f64_lane((i % 41) as f64 / 10.0 - 1.7));
        let a2 = col(&|i| (i * 13 % 97) as Value);
        let a3 = col(&|i| f64_lane((i * 3 % 29) as f64 / 3.0));
        let group = |attrs: &[u32], cols: &[&[Value]], shift| {
            let types = attrs.iter().map(|a| [I64, F64][*a as usize % 2]).collect();
            let attrs = attrs.iter().map(|&a| AttrId(a)).collect();
            ColumnGroup::from_columns_typed(attrs, types, cols, shift).unwrap()
        };
        let groups = if split {
            vec![
                group(&[0, 1], &[&a0, &a1], 11),
                group(&[2, 3], &[&a2, &a3], 13),
            ]
        } else {
            vec![group(&[0, 1, 2, 3], &[&a0, &a1, &a2, &a3], 11)]
        };
        let want = interpret_over(&groups.iter().collect::<Vec<_>>(), q).unwrap();
        let schema = Schema::typed([("a0", I64), ("a1", F64), ("a2", I64), ("a3", F64)]);
        let mut catalog = LayoutCatalog::new(schema.into_shared(), rows);
        let ids = groups
            .into_iter()
            .map(|g| catalog.add_group(g).unwrap())
            .collect();
        let plan = crate::AccessPlan::new(ids, strategy);
        let op = crate::compile(&catalog, &plan, q).unwrap();
        let serial = crate::ExecCtx::new(crate::ExecPolicy::serial());
        (crate::run(&catalog, &op, &serial).unwrap().0, want)
    }
}
