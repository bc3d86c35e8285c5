//! Attribute binding: resolving logical attributes to physical slots.
//!
//! A compiled operator never touches attribute ids at run time. At compile
//! time every referenced attribute is resolved to a [`BoundAttr`] — *(which
//! group in the plan, at which offset)* — and at execution time the plan's
//! layout ids are resolved to [`GroupViews`]: per-slot, per-**chunk-slot**
//! raw slices over the groups' payloads. The per-tuple path is then pure
//! index arithmetic (a shift/mask locates the slice), which is what lets
//! the kernels match what the paper's generated C++ achieves.
//!
//! Because groups store segmented payloads ([`h2o_storage::ColumnGroup`]:
//! sealed segments plus an unsealed tail of chunk-aligned pieces), a scan
//! range is not one contiguous slice per group. Each slot's table holds one
//! slice per chunk slot, running from that chunk's first row to the end of
//! the piece holding it (a sealed segment, or a tail piece). Kernels
//! iterate **segment runs** ([`GroupViews::runs`]): maximal sub-ranges that
//! lie within a single segment of *every* bound group (segment capacities
//! are powers of two, so boundaries nest) and, inside an unsealed tail,
//! within a single piece. Within a run, [`SegRun::view`] hands back
//! exactly the old contiguous `(&[Value], width)` pair and the tight loops
//! are unchanged. Random access by row id (the block walker's consumers) goes
//! through [`GroupViews::get`] / [`SlotAccessor`], which add one shift, one
//! mask and one extra indexed load per access.

use crate::cancel::{CancelToken, CANCEL_CHECK_ROWS};
use crate::filter::{CompiledFilter, CompiledPred};
use h2o_storage::{
    ColumnGroup, LayoutCatalog, LayoutId, SegStats, StorageError, Value, DEFAULT_SEG_SHIFT,
};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// A physically resolved attribute reference: the `slot`-th group of the
/// access plan, at value-offset `offset` within each tuple of that group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoundAttr {
    pub slot: u32,
    pub offset: u32,
}

/// One bound group: one slice per chunk slot (from the chunk's first row
/// to the end of its piece) plus the shift/mask that maps a global row id
/// to (chunk slot, local row), and the zone-map statistics of its sealed
/// segments (indexed by `row >> seg_shift`; the unsealed tail has none).
struct SlotView<'a> {
    segs: Vec<&'a [Value]>,
    stats: Vec<&'a SegStats>,
    width: usize,
    shift: u32,
    mask: usize,
    seg_shift: u32,
}

/// Raw views over the groups of an access plan, in plan slot order.
///
/// Morsel-parallel execution shares one `GroupViews` by `&` across scoped
/// worker threads; it contains only shared slices over catalog-owned
/// payloads, so it is `Send + Sync` (checked at compile time below).
pub struct GroupViews<'a> {
    slots: Vec<SlotView<'a>>,
    rows: usize,
    /// Minimum segment shift across slots: runs split at this granularity,
    /// which nests inside every slot's segment boundaries (capacities are
    /// powers of two).
    min_shift: u32,
    /// Segment runs skipped by zone-map pruning ([`Self::runs_pruned`]).
    /// Relaxed: a statistic, shared by `&` across morsel workers.
    skipped: AtomicU64,
    /// Cooperative cancellation: when set, segment-run iteration caps runs
    /// at [`CANCEL_CHECK_ROWS`] rows and polls the token between runs, so
    /// every kernel observes cancellation without changing its
    /// tight loops. `None` (the default) costs nothing.
    cancel: Option<CancelToken>,
}

// Compile-time proof that views may be shared across morsel workers.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GroupViews<'static>>();
};

fn slot_of(g: &ColumnGroup) -> SlotView<'_> {
    let width = g.width();
    let chunk_values = g.chunk_rows() * width;
    let mut segs = Vec::with_capacity(g.rows().div_ceil(g.chunk_rows()));
    for piece in g.pieces() {
        segs.extend(
            (0..piece.len())
                .step_by(chunk_values)
                .map(|lo| &piece[lo..]),
        );
    }
    SlotView {
        segs,
        stats: (0..g.sealed_segment_count())
            .filter_map(|i| g.seg_stats(i))
            .collect(),
        width,
        shift: g.chunk_shift(),
        mask: g.chunk_rows() - 1,
        seg_shift: g.seg_shift(),
    }
}

impl<'a> GroupViews<'a> {
    /// Resolves `layouts` (plan slot order) against the catalog.
    ///
    /// Re-checks the engine-wide row-id capacity
    /// ([`h2o_storage::MAX_ROWS`]) before binding: every execution entry
    /// point funnels through here, and the block walker and the join hand
    /// rows on as `u32` ids, so a relation too large for them surfaces as
    /// a typed [`StorageError::RelationFull`] instead of a wrapped id
    /// downstream.
    pub fn resolve(
        catalog: &'a LayoutCatalog,
        layouts: &[LayoutId],
    ) -> Result<GroupViews<'a>, StorageError> {
        h2o_storage::check_row_capacity(catalog.rows())?;
        let mut slots = Vec::with_capacity(layouts.len());
        for &id in layouts {
            slots.push(slot_of(catalog.group(id)?));
        }
        Ok(Self::assemble(slots, catalog.rows()))
    }

    /// Builds views directly from group references (plan slot order).
    pub fn from_groups(groups: &[&'a ColumnGroup]) -> GroupViews<'a> {
        let rows = groups.first().map_or(0, |g| g.rows());
        debug_assert!(groups.iter().all(|g| g.rows() == rows));
        Self::assemble(groups.iter().map(|g| slot_of(g)).collect(), rows)
    }

    /// Builds views over raw row-major `(data, width)` payloads of `rows`
    /// tuples, one per plan slot (a chunk online reorganization stitched):
    /// one segment per slot, no zone maps, no stop token.
    pub(crate) fn from_slices(slots: &[(&'a [Value], usize)], rows: usize) -> GroupViews<'a> {
        let shift = rows.next_power_of_two().trailing_zeros();
        let slot = |&(data, width): &(&'a [Value], usize)| SlotView {
            segs: vec![data],
            stats: Vec::new(),
            width,
            shift,
            mask: (1 << shift) - 1,
            seg_shift: shift,
        };
        Self::assemble(slots.iter().map(slot).collect(), rows)
    }

    fn assemble(slots: Vec<SlotView<'a>>, rows: usize) -> GroupViews<'a> {
        let min_shift = slots
            .iter()
            .map(|s| s.seg_shift)
            .min()
            .unwrap_or(DEFAULT_SEG_SHIFT);
        GroupViews {
            slots,
            rows,
            min_shift,
            skipped: AtomicU64::new(0),
            cancel: None,
        }
    }

    /// Attaches a cancellation token: subsequent scans over these views
    /// poll it every [`CANCEL_CHECK_ROWS`] rows (see [`SegRuns`]). A
    /// kernel running over cancelled views drains quickly and returns a
    /// partial result; the execution driver must check the token and
    /// discard that result (see [`ExecCtx`](crate::compile::ExecCtx)).
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Number of tuples (identical across groups of one relation).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Values per tuple of plan slot `slot`'s group.
    #[inline]
    pub fn width(&self, slot: u32) -> usize {
        self.slots[slot as usize].width
    }

    /// Number of bound groups.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no groups are bound.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The segment granularity: no [`Self::runs`] run crosses a multiple
    /// of it, and over sealed segments runs starting at multiples of it
    /// never split (inside an unsealed tail they also end at piece ends,
    /// i.e. chunk boundaries). Schedulers align morsel boundaries to it
    /// ([`ExecPolicy::aligned_to`](crate::parallel::ExecPolicy::aligned_to)),
    /// so morsel shapes — and parallel fold order — do not depend on how
    /// the tail is chunked.
    #[inline]
    pub fn seg_rows(&self) -> usize {
        1usize << self.min_shift
    }

    /// Reads the value of `attr` for tuple `row`.
    #[inline(always)]
    pub fn get(&self, attr: BoundAttr, row: usize) -> Value {
        let s = &self.slots[attr.slot as usize];
        let seg = s.segs[row >> s.shift];
        seg[(row & s.mask) * s.width + attr.offset as usize]
    }

    /// A random-access cursor over one plan slot, for gather loops over
    /// row ids (resolves the slot once; each access is a shift, a mask and
    /// two indexed loads).
    #[inline]
    pub fn accessor(&self, slot: u32) -> SlotAccessor<'_, 'a> {
        let s = &self.slots[slot as usize];
        SlotAccessor {
            segs: &s.segs,
            width: s.width,
            shift: s.shift,
            mask: s.mask,
        }
    }

    /// One [`Self::accessor`] per plan slot, in slot order.
    pub fn accessors(&self) -> Vec<SlotAccessor<'_, 'a>> {
        (0..self.len() as u32).map(|s| self.accessor(s)).collect()
    }

    /// Splits `range` into maximal segment runs: each run lies within a
    /// single segment of every bound group, so [`SegRun::view`] can hand
    /// kernels one contiguous slice per slot. Runs are yielded in row
    /// order and cover `range` exactly.
    pub fn runs(&self, range: Range<usize>) -> SegRuns<'_, 'a> {
        debug_assert!(range.end <= self.rows);
        SegRuns {
            views: self,
            cur: range.start,
            end: range.end,
            preds: &[],
            window_end: range.start,
        }
    }

    /// [`Self::runs`] with **zone-map pruning**: runs whose sealed-segment
    /// statistics prove that some predicate of `filter` cannot match any
    /// row are skipped entirely (and counted — [`Self::segments_skipped`]).
    /// Sound for the whole conjunction even when a consumer evaluates the
    /// predicates in phases: a run pruned by *any* predicate contributes
    /// no qualifying rows. Runs over unsealed segments (the mutable tail,
    /// monolithic groups) are never pruned.
    pub fn runs_pruned<'v>(
        &'v self,
        range: Range<usize>,
        filter: &'v CompiledFilter,
    ) -> SegRuns<'v, 'a> {
        debug_assert!(range.end <= self.rows);
        SegRuns {
            views: self,
            cur: range.start,
            end: range.end,
            preds: filter.preds(),
            window_end: range.start,
        }
    }

    /// Whether the run starting at `start` (contained in one segment of
    /// every slot) is provably empty under `preds`.
    fn run_prunable(&self, start: usize, preds: &[CompiledPred]) -> bool {
        preds.iter().any(|p| {
            let s = &self.slots[p.attr.slot as usize];
            match s.stats.get(start >> s.seg_shift) {
                Some(stats) => !p.zone_can_match_stats(stats),
                None => false,
            }
        })
    }

    /// The first row past the piece holding `row`, minimised over slots:
    /// a sealed segment's end, or a tail piece's end.
    fn piece_end(&self, row: usize) -> usize {
        self.slots
            .iter()
            .map(|s| (row & !s.mask) + s.segs[row >> s.shift].len() / s.width)
            .min()
            .unwrap_or(usize::MAX)
    }

    /// Segment runs skipped by zone-map pruning over this view's lifetime
    /// (summed across all scans and morsel workers that shared it).
    pub fn segments_skipped(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }
}

/// Iterator over the segment runs of a row range (see [`GroupViews::runs`]
/// and [`GroupViews::runs_pruned`]).
pub struct SegRuns<'v, 'a> {
    views: &'v GroupViews<'a>,
    cur: usize,
    end: usize,
    /// Zone-map pruning predicates (empty for unpruned iteration).
    preds: &'v [CompiledPred],
    /// End of the current cancellation window: the run the iteration would
    /// yield if the tail were not chunked (at most [`CANCEL_CHECK_ROWS`]
    /// rows of one segment). A morsel-budget unit is charged once per
    /// window, however many piece runs it splits into.
    window_end: usize,
}

impl<'v, 'a> Iterator for SegRuns<'v, 'a> {
    type Item = SegRun<'v, 'a>;

    fn next(&mut self) -> Option<SegRun<'v, 'a>> {
        loop {
            if self.cur >= self.end {
                return None;
            }
            // Cooperative cancellation: poll between runs and stop
            // yielding. The consumer's partial result is discarded by the
            // driver, so "stop early" is always sound.
            if let Some(token) = self.views.cancel.as_ref() {
                if token.should_stop().is_some() {
                    self.cur = self.end;
                    return None;
                }
            }
            let gran = self.views.seg_rows();
            let boundary = ((self.cur >> self.views.min_shift) + 1) * gran;
            let seg_stop = boundary.min(self.end);
            if !self.preds.is_empty() && self.views.run_prunable(self.cur, self.preds) {
                // Pruning decisions and the skip counter stay per-segment:
                // jump the whole segment regardless of the cancel cap.
                self.views.skipped.fetch_add(1, Ordering::Relaxed);
                self.cur = seg_stop;
                continue;
            }
            // Inside an unsealed tail a run also ends where some slot's
            // piece ends (over sealed segments that is the segment end).
            let mut stop = seg_stop.min(self.views.piece_end(self.cur));
            // With a token attached, cap runs so the poll above happens at
            // least every `CANCEL_CHECK_ROWS` rows even inside one huge
            // segment. Results are bit-identical for any run shape: every
            // consumer folds runs in row order. Each cancellation window
            // charges one unit against the token's morsel budget (pruned
            // segments are free — no rows were scanned), so the budget a
            // query needs does not depend on how its tail is chunked.
            if let Some(token) = self.views.cancel.as_ref() {
                if self.cur >= self.window_end {
                    if !token.charge_unit() {
                        self.cur = self.end;
                        return None;
                    }
                    self.window_end = seg_stop.min(self.cur + CANCEL_CHECK_ROWS);
                }
                stop = stop.min(self.window_end);
            }
            let run = SegRun {
                views: self.views,
                start: self.cur,
                end: stop,
            };
            self.cur = stop;
            return Some(run);
        }
    }
}

/// One contiguous sub-range of a scan: all rows live in the same segment —
/// and, inside an unsealed tail, the same piece — of every bound group.
pub struct SegRun<'v, 'a> {
    views: &'v GroupViews<'a>,
    start: usize,
    end: usize,
}

impl<'a> SegRun<'_, 'a> {
    /// First global row id of the run.
    #[inline]
    pub fn start(&self) -> usize {
        self.start
    }

    /// The run's global row range.
    #[inline]
    pub fn range(&self) -> Range<usize> {
        self.start..self.end
    }

    /// Rows in the run.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the run is empty (never, for runs yielded by the iterator).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// The contiguous `(data, width)` slice of plan slot `slot` covering
    /// exactly this run's rows — local row `k` of the run is the tuple at
    /// `data[k*width..(k+1)*width]`.
    #[inline]
    pub fn view(&self, slot: u32) -> (&'a [Value], usize) {
        let s = &self.views.slots[slot as usize];
        let seg = s.segs[self.start >> s.shift];
        let lo = (self.start & s.mask) * s.width;
        let hi = lo + (self.end - self.start) * s.width;
        (&seg[lo..hi], s.width)
    }

    /// One bound attribute of the run as an **aligned strided lane view**
    /// `(data, stride)`: local row `k`'s value is `data[k * stride]`.
    ///
    /// For single-column groups the stride is 1 and the slice is exactly
    /// the run's contiguous lane array — the shape the vectorized kernels
    /// ([`crate::kernels::simd`]) chew through in fixed `[Value; 8]`
    /// chunks. Wider groups yield a strided view whose chunk loads the
    /// compiler lowers to gathers.
    #[inline]
    pub fn attr_view(&self, attr: BoundAttr) -> (&'a [Value], usize) {
        let s = &self.views.slots[attr.slot as usize];
        let n = self.end - self.start;
        if n == 0 {
            return (&[], s.width);
        }
        let seg = s.segs[self.start >> s.shift];
        let lo = (self.start & s.mask) * s.width + attr.offset as usize;
        // Tight bound: the last element the view may touch is local row
        // n-1, i.e. `lo + (n-1)*width`.
        (&seg[lo..lo + (n - 1) * s.width + 1], s.width)
    }
}

/// One slot's lanes over the rows of one piece ([`SlotAccessor::piece`]):
/// a row's value is one slice index, with no segment lookup.
#[derive(Clone, Copy)]
pub(crate) struct Piece<'a> {
    data: &'a [Value],
    /// The first row of `data`.
    base: usize,
    width: usize,
}

impl Piece<'_> {
    /// The first row past the piece.
    #[inline]
    pub(crate) fn end(&self) -> usize {
        self.base + self.data.len() / self.width
    }

    /// The value at `(row, offset)`, for a `row` of the piece.
    #[inline(always)]
    pub(crate) fn value(&self, row: usize, offset: usize) -> Value {
        self.data[(row - self.base) * self.width + offset]
    }

    /// The tuple of `row`, for a `row` of the piece.
    #[inline(always)]
    pub(crate) fn tuple(&self, row: usize) -> &[Value] {
        let at = (row - self.base) * self.width;
        &self.data[at..at + self.width]
    }
}

/// Random-access cursor over one plan slot (see [`GroupViews::accessor`]).
#[derive(Clone, Copy)]
pub struct SlotAccessor<'v, 'a> {
    segs: &'v [&'a [Value]],
    width: usize,
    shift: u32,
    mask: usize,
}

impl<'a> SlotAccessor<'_, 'a> {
    /// The value at `(row, offset)`.
    #[inline(always)]
    pub fn value(&self, row: usize, offset: usize) -> Value {
        self.segs[row >> self.shift][(row & self.mask) * self.width + offset]
    }

    /// Values per tuple of the slot's group.
    #[inline]
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// The piece holding `row` (a sealed segment or a tail piece), from
    /// `row`'s chunk to the piece's end.
    #[inline]
    pub(crate) fn piece(&self, row: usize) -> Piece<'a> {
        Piece {
            data: self.segs[row >> self.shift],
            base: row & !self.mask,
            width: self.width,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_storage::{AttrId, ColumnGroup, Relation, Schema};

    #[test]
    fn resolve_and_get() {
        let schema = Schema::with_width(3).into_shared();
        let rel = Relation::partitioned(
            schema,
            vec![vec![1, 2], vec![10, 20], vec![100, 200]],
            vec![vec![AttrId(0), AttrId(1)], vec![AttrId(2)]],
        )
        .unwrap();
        let ids = rel.catalog().layout_ids();
        let views = GroupViews::resolve(rel.catalog(), &ids).unwrap();
        assert_eq!(views.rows(), 2);
        assert_eq!(views.len(), 2);
        // a1 is offset 1 in slot 0; a2 is offset 0 in slot 1.
        assert_eq!(views.get(BoundAttr { slot: 0, offset: 1 }, 1), 20);
        assert_eq!(views.get(BoundAttr { slot: 1, offset: 0 }, 0), 100);
        let runs: Vec<_> = views.runs(0..2).collect();
        assert_eq!(runs.len(), 1);
        let (data, w) = runs[0].view(0);
        assert_eq!(w, 2);
        assert_eq!(data, &[1, 10, 2, 20]);
    }

    #[test]
    fn from_groups() {
        let g = ColumnGroup::from_columns(vec![AttrId(0)], &[&[5, 6, 7]]).unwrap();
        let views = GroupViews::from_groups(&[&g]);
        assert_eq!(views.rows(), 3);
        assert_eq!(views.get(BoundAttr { slot: 0, offset: 0 }, 2), 7);
        let acc = views.accessor(0);
        assert_eq!(acc.value(1, 0), 6);
    }

    #[test]
    fn runs_split_at_segment_boundaries() {
        // 10 rows at shift 2 (4 rows/segment): segments [0..4), [4..8), [8..10).
        let col: Vec<i64> = (0..10).collect();
        let g = ColumnGroup::from_columns_with_shift(vec![AttrId(0)], &[&col], 2).unwrap();
        let views = GroupViews::from_groups(&[&g]);
        assert_eq!(views.seg_rows(), 4);
        let ranges: Vec<_> = views.runs(1..10).map(|r| r.range()).collect();
        assert_eq!(ranges, vec![1..4, 4..8, 8..10]);
        // Each run's view is the matching contiguous piece.
        for run in views.runs(1..10) {
            let (data, w) = run.view(0);
            assert_eq!(w, 1);
            let want: Vec<i64> = run.range().map(|r| r as i64).collect();
            assert_eq!(data, want.as_slice());
        }
        // Runs cover exactly the requested range, in order.
        let covered: usize = views.runs(1..10).map(|r| r.len()).sum();
        assert_eq!(covered, 9);
        assert!(views.runs(3..3).next().is_none());
    }

    #[test]
    fn pieces_slice_one_segment_or_one_tail_chunk() {
        // 10 rows of (a, 10a) at shift 2: segments [0..4), [4..8), [8..10).
        let (a, b): (Vec<i64>, Vec<i64>) = (0..10).map(|r| (r, 10 * r)).unzip();
        let g =
            ColumnGroup::from_columns_with_shift(vec![AttrId(0), AttrId(1)], &[&a, &b], 2).unwrap();
        let views = GroupViews::from_groups(&[&g]);
        let piece = views.accessor(0).piece(6);
        assert_eq!(piece.end(), 8, "the segment [4..8)");
        assert_eq!([4, 6, 7].map(|r| piece.value(r, 1)), [40, 60, 70]);
        assert_eq!(piece.tuple(5), &[5, 50]);
        // 3 000 rows at shift 11: 1K-row chunks inside 2K-row segments.
        let c: Vec<i64> = (0..3_000).collect();
        let g = ColumnGroup::from_columns_with_shift(vec![AttrId(0)], &[&c], 11).unwrap();
        let views = GroupViews::from_groups(&[&g]);
        let acc = views.accessor(0);
        let piece = acc.piece(5);
        assert_eq!(piece.end(), 2_048, "a sealed segment is one piece");
        assert_eq!(
            [5, 1_023, 1_024, 2_047].map(|r| piece.value(r, 0)),
            [5, 1_023, 1_024, 2_047]
        );
        let piece = acc.piece(2_100);
        assert_eq!(piece.end(), 3_000, "the tail");
        assert_eq!([2_100, 2_999].map(|r| piece.value(r, 0)), [2_100, 2_999]);
    }

    #[test]
    fn mixed_segment_sizes_split_at_the_finest_granularity() {
        // One group at shift 1 (2 rows/seg), one monolithic (big shift):
        // run boundaries follow the finest segmentation, and both views
        // stay contiguous within every run.
        let c0: Vec<i64> = (0..6).collect();
        let c1: Vec<i64> = (100..106).collect();
        let fine = ColumnGroup::from_columns_with_shift(vec![AttrId(0)], &[&c0], 1).unwrap();
        let coarse = ColumnGroup::from_columns_with_shift(vec![AttrId(1)], &[&c1], 20).unwrap();
        let views = GroupViews::from_groups(&[&fine, &coarse]);
        assert_eq!(views.seg_rows(), 2);
        let ranges: Vec<_> = views.runs(0..6).map(|r| r.range()).collect();
        assert_eq!(ranges, vec![0..2, 2..4, 4..6]);
        for run in views.runs(0..6) {
            let (d0, _) = run.view(0);
            let (d1, _) = run.view(1);
            for k in 0..run.len() {
                assert_eq!(d0[k], (run.start() + k) as i64);
                assert_eq!(d1[k], (run.start() + k) as i64 + 100);
                assert_eq!(
                    views.get(BoundAttr { slot: 1, offset: 0 }, run.start() + k),
                    d1[k]
                );
            }
        }
    }

    #[test]
    fn runs_split_at_tail_piece_ends_but_seg_rows_stays_the_segment() {
        // 4 096-row segments, 1 024-row chunks. 1 500 rows load as a
        // 1 024-row head piece plus a 476-row chunk; appending 2 000 more
        // fills that chunk and adds two more pieces.
        let schema = Schema::with_width(2).into_shared();
        let cols: Vec<Vec<i64>> = vec![(0..1_500).collect(), (0..1_500).map(|r| -r).collect()];
        let mut cat = Relation::partitioned_with_shift(
            schema,
            cols,
            vec![vec![AttrId(0)], vec![AttrId(1)]],
            12,
        )
        .unwrap()
        .into_catalog();
        let batch: Vec<Vec<i64>> = (1_500..3_500).map(|r| vec![r, -r]).collect();
        cat.append_rows(&batch).unwrap();
        let views = GroupViews::resolve(&cat, &cat.layout_ids()).unwrap();
        assert_eq!(views.seg_rows(), 4_096);
        let ranges: Vec<_> = views.runs(0..3_500).map(|r| r.range()).collect();
        assert_eq!(
            ranges,
            vec![0..1_024, 1_024..2_048, 2_048..3_072, 3_072..3_500]
        );
        let ranges: Vec<_> = views.runs(100..3_100).map(|r| r.range()).collect();
        assert_eq!(
            ranges,
            vec![100..1_024, 1_024..2_048, 2_048..3_072, 3_072..3_100]
        );
        for run in views.runs(0..3_500) {
            let (d0, _) = run.view(0);
            let (d1, _) = run.attr_view(BoundAttr { slot: 1, offset: 0 });
            for k in 0..run.len() {
                let row = (run.start() + k) as i64;
                assert_eq!((d0[k], d1[k]), (row, -row));
            }
        }
        let acc = views.accessor(1);
        for row in [0, 1_023, 1_024, 1_499, 1_500, 3_499] {
            assert_eq!(acc.value(row, 0), -(row as i64));
            assert_eq!(views.get(BoundAttr { slot: 0, offset: 0 }, row), row as i64);
        }
    }

    #[test]
    fn resolve_unknown_layout_errors() {
        let schema = Schema::with_width(1).into_shared();
        let rel = Relation::columnar(schema, vec![vec![1]]).unwrap();
        assert!(GroupViews::resolve(rel.catalog(), &[LayoutId(99)]).is_err());
    }
}
