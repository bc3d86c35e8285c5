//! Column groups — the single physical layout primitive.
//!
//! A [`ColumnGroup`] stores a subset of the relation's attributes for *all*
//! tuples, row-major **within the group**: tuple `i`'s values occupy a
//! contiguous slice of `width()` values. The three layouts of the
//! paper (§3.1, Fig. 4) are all instances:
//!
//! * width 1 → a plain column (DSM),
//! * width = schema width → the row-major layout (NSM),
//! * anything in between → a "group of columns" vertical partition.
//!
//! Attributes are densely packed with no padding or per-tuple header, as in
//! the paper ("attributes are densely-packed and no additional space is left
//! for updates").
//!
//! # Segmented payloads
//!
//! The payload is **not** one monolithic array. Rows `0..k << seg_shift`
//! live in `Arc`-shared *sealed segments* of `1 << seg_shift` rows each
//! (`2^16 = 65 536` by default, [`DEFAULT_SEG_SHIFT`]): contiguous,
//! immutable, each with a zone map computed when it sealed. The remaining
//! rows form the unsealed *tail*, held as a short list of `Arc`-shared
//! **pieces**, each starting on a *chunk* boundary (`1 << chunk_shift`
//! rows, [`CHUNK_SHIFT`] capped at the segment size). A piece handed over
//! by a constructor or reorganization builder may span many chunks (the
//! frozen "head"); every later piece is one chunk, and appends only ever
//! write the last one. When the tail reaches a full segment its pieces are
//! concatenated once into a new sealed segment.
//!
//! Rows map to a piece by shift/mask, so point access costs one extra
//! indexed load over a monolithic array, while scans iterate contiguous
//! slices (`h2o-exec` binds one slice per chunk slot and runs its tight
//! loops over *segment runs*, which split at piece ends inside the tail).
//!
//! This is what makes copy-on-write appends cheap: cloning a group copies
//! only the piece pointer tables; appending then clones (at most) the
//! shared last chunk — fewer than `1 << chunk_shift` rows — so a write
//! batch against a snapshot-shared group costs O(batch + one chunk), not
//! O(tail) or O(relation) — see
//! [`LayoutCatalog::append_rows`](crate::catalog::LayoutCatalog::append_rows).
//!
//! # Construction
//!
//! A group comes from one of two sources, and both end in one private
//! `assemble` that records every sealed segment's zone map:
//!
//! * [`ColumnGroup::from_segments_typed`] adopts pre-built row-major
//!   segment payloads without a copy — the reorganization builders, which
//!   fill one output segment per morsel;
//! * [`ColumnGroup::from_columns_typed`] transposes whole columns — relation
//!   loading.
//!
//! There is no row-at-a-time builder; after construction a group grows only
//! through the append path.

use crate::error::StorageError;
use crate::types::{AttrId, LayoutId, LogicalType, Value, VALUE_BYTES};
use crate::AttrSet;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-attribute `(min, max)` lane statistics of one sealed segment, in
/// **comparator-key space** ([`LogicalType::cmp_key`]) and indexed by the
/// attribute's offset within the group. Zone-map pruning compares a
/// predicate's key-mapped constant against these bounds with plain integer
/// arithmetic, for every logical type.
pub type SegStats = Vec<(Value, Value)>;

/// Computes the per-offset key-space min/max of one segment payload.
fn stats_of(seg: &[Value], width: usize, types: &[LogicalType]) -> Arc<SegStats> {
    debug_assert_eq!(types.len(), width);
    let mut stats: SegStats = vec![(Value::MAX, Value::MIN); width];
    for tuple in seg.chunks_exact(width) {
        for ((lo, hi), (&v, &ty)) in stats.iter_mut().zip(tuple.iter().zip(types)) {
            let k = ty.cmp_key(v);
            if k < *lo {
                *lo = k;
            }
            if k > *hi {
                *hi = k;
            }
        }
    }
    Arc::new(stats)
}

/// Default log2 of rows per segment: 65 536-row segments. Large enough
/// that sequential scans are effectively contiguous (one boundary per 64K
/// rows) and that per-segment `Arc` overhead is noise.
pub const DEFAULT_SEG_SHIFT: u32 = 16;

/// log2 of rows per copy-on-write **chunk** of the unsealed tail: 1 024
/// rows. A group's effective chunk shift is `min(CHUNK_SHIFT, seg_shift)`,
/// so chunks always nest inside segments. An append against a
/// snapshot-shared group clones fewer than one chunk's rows.
pub const CHUNK_SHIFT: u32 = 10;

/// What one append did to a group's physical storage — the copy-on-write
/// accounting surfaced as `EngineStats::bytes_cloned_on_write` /
/// `segments_sealed` in `h2o-core`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendDelta {
    /// Payload bytes copied because a snapshot still shared the last tail
    /// chunk (the COW cost of the append; 0 once the chunk is unique).
    pub bytes_cloned: u64,
    /// Segments that became full (immutable from now on) during the append.
    pub segments_sealed: u64,
}

impl AppendDelta {
    /// Accumulates another delta into this one.
    pub fn absorb(&mut self, other: AppendDelta) {
        self.bytes_cloned += other.bytes_cloned;
        self.segments_sealed += other.segments_sealed;
    }
}

/// A materialized vertical partition of the relation.
#[derive(Debug, Clone)]
pub struct ColumnGroup {
    id: LayoutId,
    /// Attributes in physical order; the position of an attribute in this
    /// vector is its byte-offset/`VALUE_BYTES` within a tuple of the group.
    attrs: Vec<AttrId>,
    /// Logical type per attribute, parallel to `attrs`. Groups built by
    /// the untyped `from_columns{,_with_shift}` default to all-`I64`; the
    /// catalog verifies group types against the schema on admission.
    types: Vec<LogicalType>,
    /// Fast attribute → offset lookup.
    offsets: HashMap<AttrId, usize>,
    /// Same membership as `attrs`, as a bitset for coverage queries.
    attr_set: AttrSet,
    rows: usize,
    /// log2 of rows per segment.
    seg_shift: u32,
    /// Sealed segments: each exactly `1 << seg_shift` rows (`* width`
    /// values), row-major strided, immutable.
    sealed: Vec<Arc<Vec<Value>>>,
    /// Zone-map statistics, parallel to `sealed`, recorded when each
    /// segment sealed. `Arc`-shared so copy-on-write catalog clones copy
    /// only the pointer table.
    seg_stats: Vec<Arc<SegStats>>,
    /// The unsealed tail (rows `sealed.len() << seg_shift .. rows`) as
    /// pieces in row order, each starting on a chunk boundary. The first
    /// piece may hold any number of whole chunks (or be the only, partial,
    /// piece); every later piece holds one chunk — full, except possibly
    /// the last, the only piece appends write. Empty iff the tail is.
    tail: Vec<Arc<Vec<Value>>>,
}

impl ColumnGroup {
    /// Builds an all-`I64` group from per-attribute columns (default
    /// segment size). All columns must have the same length, and there
    /// must be exactly one column per attribute. The id is a placeholder
    /// until the catalog admits the group (see
    /// [`LayoutCatalog::add_group`](crate::catalog::LayoutCatalog::add_group)).
    pub fn from_columns(attrs: Vec<AttrId>, columns: &[&[Value]]) -> Result<Self, StorageError> {
        Self::from_columns_with_shift(attrs, columns, DEFAULT_SEG_SHIFT)
    }

    /// [`Self::from_columns`] with an explicit segment size (`1 << seg_shift`
    /// rows per segment). Small shifts exist for tests that want to
    /// exercise many segments without huge relations; a shift large enough
    /// that the whole relation fits one segment leaves everything in the
    /// unsealed tail (no zone maps).
    pub fn from_columns_with_shift(
        attrs: Vec<AttrId>,
        columns: &[&[Value]],
        seg_shift: u32,
    ) -> Result<Self, StorageError> {
        let types = vec![LogicalType::I64; attrs.len()];
        Self::from_columns_typed(attrs, types, columns, seg_shift)
    }

    /// [`Self::from_columns_with_shift`] with explicit per-attribute
    /// logical types (parallel to `attrs`) — the relation-loading path.
    /// The columns are transposed into row-major segment payloads.
    pub fn from_columns_typed(
        attrs: Vec<AttrId>,
        types: Vec<LogicalType>,
        columns: &[&[Value]],
        seg_shift: u32,
    ) -> Result<Self, StorageError> {
        if attrs.is_empty() || columns.is_empty() {
            return Err(StorageError::EmptyGroup);
        }
        if attrs.len() != columns.len() {
            return Err(StorageError::WidthMismatch {
                expected: attrs.len(),
                got: columns.len(),
            });
        }
        let rows = columns[0].len();
        for c in columns {
            if c.len() != rows {
                return Err(StorageError::RowCountMismatch {
                    expected: rows,
                    got: c.len(),
                });
            }
        }
        let width = attrs.len();
        let seg_rows = 1usize << seg_shift;
        let mut payloads = Vec::with_capacity(rows.div_ceil(seg_rows));
        let mut start = 0usize;
        while start < rows {
            let end = (start + seg_rows).min(rows);
            let mut seg = vec![0 as Value; (end - start) * width];
            for (off, col) in columns.iter().enumerate() {
                for (k, &v) in col[start..end].iter().enumerate() {
                    seg[k * width + off] = v;
                }
            }
            payloads.push(seg);
            start = end;
        }
        Self::from_segments_typed(LayoutId(u32::MAX), attrs, types, rows, payloads, seg_shift)
    }

    /// Assembles a group directly from pre-built segment payloads (the
    /// zero-copy path for reorganization builders that emit sealed
    /// segments), with per-attribute logical types parallel to `attrs`.
    /// Every payload except the last must hold exactly `1 << seg_shift`
    /// rows, the last must be non-empty, and together they must hold `rows`
    /// tuples of `attrs.len()` values.
    pub fn from_segments_typed(
        id: LayoutId,
        attrs: Vec<AttrId>,
        types: Vec<LogicalType>,
        rows: usize,
        payloads: Vec<Vec<Value>>,
        seg_shift: u32,
    ) -> Result<Self, StorageError> {
        if attrs.is_empty() {
            return Err(StorageError::EmptyGroup);
        }
        let width = attrs.len();
        let cap_rows = 1usize << seg_shift;
        for (i, p) in payloads.iter().enumerate() {
            let interior = i + 1 < payloads.len();
            let ok = p.len() % width == 0
                && if interior {
                    p.len() == cap_rows * width
                } else {
                    !p.is_empty() && p.len() <= cap_rows * width
                };
            if !ok {
                return Err(StorageError::BadSegment {
                    index: i,
                    expected: cap_rows,
                    got: p.len() / width,
                });
            }
        }
        let total: usize = payloads.iter().map(|p| p.len()).sum();
        if total != rows * width {
            return Err(StorageError::RowCountMismatch {
                expected: rows,
                got: total / width,
            });
        }
        Self::assemble(id, attrs, types, rows, payloads, seg_shift)
    }

    /// The one constructor every path funnels into: `payloads` are
    /// well-formed segments (all full but possibly the last, which may be
    /// empty), and the zone map of every full one is computed here. A
    /// partial last payload becomes the tail: its whole chunks stay in
    /// place as the head piece (no copy) and the fewer-than-one-chunk
    /// remainder moves into a first chunk.
    fn assemble(
        id: LayoutId,
        attrs: Vec<AttrId>,
        types: Vec<LogicalType>,
        rows: usize,
        mut payloads: Vec<Vec<Value>>,
        seg_shift: u32,
    ) -> Result<Self, StorageError> {
        if types.len() != attrs.len() {
            return Err(StorageError::WidthMismatch {
                expected: attrs.len(),
                got: types.len(),
            });
        }
        let (offsets, attr_set) = Self::index_attrs(&attrs)?;
        let width = attrs.len();
        let cap_values = (1usize << seg_shift) * width;
        let tail_payload = payloads.pop_if(|p| p.len() < cap_values);
        let seg_stats = payloads
            .iter()
            .map(|p| stats_of(p, width, &types))
            .collect();
        let mut group = ColumnGroup {
            id,
            attrs,
            types,
            offsets,
            attr_set,
            rows,
            seg_shift,
            sealed: payloads.into_iter().map(Arc::new).collect(),
            seg_stats,
            tail: Vec::new(),
        };
        if let Some(mut head) = tail_payload.filter(|p| !p.is_empty()) {
            let chunk_values = group.chunk_rows() * width;
            let whole = head.len() / chunk_values * chunk_values;
            if whole < head.len() {
                let mut chunk = Vec::with_capacity(chunk_values);
                chunk.extend_from_slice(&head[whole..]);
                head.truncate(whole);
                if !head.is_empty() {
                    group.tail.push(Arc::new(head));
                }
                group.tail.push(Arc::new(chunk));
            } else {
                group.tail.push(Arc::new(head));
            }
        }
        Ok(group)
    }

    fn index_attrs(attrs: &[AttrId]) -> Result<(HashMap<AttrId, usize>, AttrSet), StorageError> {
        if attrs.is_empty() {
            return Err(StorageError::EmptyGroup);
        }
        let mut offsets = HashMap::with_capacity(attrs.len());
        let mut attr_set = AttrSet::new();
        for (off, &a) in attrs.iter().enumerate() {
            if offsets.insert(a, off).is_some() {
                return Err(StorageError::DuplicateAttr(a));
            }
            attr_set.insert(a);
        }
        Ok((offsets, attr_set))
    }

    /// The layout id assigned by the catalog.
    #[inline]
    pub fn id(&self) -> LayoutId {
        self.id
    }

    /// Re-tags the group with a new id (used by the catalog on admission).
    pub(crate) fn set_id(&mut self, id: LayoutId) {
        self.id = id;
    }

    /// Attributes in physical order.
    #[inline]
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// Logical type per attribute, parallel to [`Self::attrs`].
    #[inline]
    pub fn types(&self) -> &[LogicalType] {
        &self.types
    }

    /// Logical type of the attribute stored at `offset`.
    #[inline]
    pub fn type_at(&self, offset: usize) -> LogicalType {
        self.types[offset]
    }

    /// The zone-map statistics of segment `seg`: per-offset `(min, max)`
    /// bounds in comparator-key space, present exactly for sealed
    /// segments. `None` means "cannot prune" (the unsealed tail, or an
    /// index past the payload).
    #[inline]
    pub fn seg_stats(&self, seg: usize) -> Option<&SegStats> {
        self.seg_stats.get(seg).map(|s| s.as_ref())
    }

    /// Membership bitset.
    #[inline]
    pub fn attr_set(&self) -> &AttrSet {
        &self.attr_set
    }

    /// Number of attributes stored per tuple (the group's *width*).
    #[inline]
    pub fn width(&self) -> usize {
        self.attrs.len()
    }

    /// Width of one tuple of this group in bytes.
    #[inline]
    pub fn tuple_bytes(&self) -> usize {
        self.width() * VALUE_BYTES
    }

    /// Number of tuples.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total payload size in bytes (feeds the I/O cost model).
    #[inline]
    pub fn bytes(&self) -> usize {
        self.rows * self.width() * VALUE_BYTES
    }

    /// log2 of rows per segment.
    #[inline]
    pub fn seg_shift(&self) -> u32 {
        self.seg_shift
    }

    /// Rows per (full) segment.
    #[inline]
    pub fn seg_rows(&self) -> usize {
        1usize << self.seg_shift
    }

    /// log2 of rows per tail chunk: `min(CHUNK_SHIFT, seg_shift)`.
    #[inline]
    pub fn chunk_shift(&self) -> u32 {
        CHUNK_SHIFT.min(self.seg_shift)
    }

    /// Rows per tail chunk.
    #[inline]
    pub fn chunk_rows(&self) -> usize {
        1usize << self.chunk_shift()
    }

    /// Number of payload segments: the sealed ones plus the unsealed tail,
    /// if any.
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + usize::from(!self.tail.is_empty())
    }

    /// Number of full (sealed, immutable-from-now-on) segments.
    pub fn sealed_segment_count(&self) -> usize {
        self.sealed.len()
    }

    /// The raw payload pieces in row order: every sealed segment, then the
    /// tail's pieces. Each piece starts on a chunk boundary
    /// ([`Self::chunk_shift`]) and tuples never straddle pieces; kernels
    /// resolve these once per scan and iterate contiguous runs.
    pub fn pieces(&self) -> impl Iterator<Item = &[Value]> {
        self.sealed.iter().chain(&self.tail).map(|s| s.as_slice())
    }

    /// Flattens the payload into one contiguous vector (tests, oracles and
    /// comparisons only — execution never needs the copy).
    pub fn collect_values(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.rows * self.width());
        for p in self.pieces() {
            out.extend_from_slice(p);
        }
        out
    }

    /// Whether the group stores `attr`.
    #[inline]
    pub fn contains(&self, attr: AttrId) -> bool {
        self.offsets.contains_key(&attr)
    }

    /// Offset of `attr` within a tuple of this group, if stored.
    #[inline]
    pub fn offset_of(&self, attr: AttrId) -> Option<usize> {
        self.offsets.get(&attr).copied()
    }

    /// Offset of `attr`, as an error if absent.
    pub fn try_offset_of(&self, attr: AttrId) -> Result<usize, StorageError> {
        self.offset_of(attr).ok_or(StorageError::AttrNotInGroup {
            attr,
            layout: self.id,
        })
    }

    /// The piece holding `row` and the value index of its tuple within it.
    #[inline]
    fn locate(&self, row: usize) -> (&[Value], usize) {
        let w = self.width();
        let seg = row >> self.seg_shift;
        if let Some(s) = self.sealed.get(seg) {
            return (s, (row & (self.seg_rows() - 1)) * w);
        }
        // Tail: a first piece of whole chunks, then one piece per chunk.
        let local = row - (self.sealed.len() << self.seg_shift);
        let head = self.tail[0].len() / w;
        if local < head {
            return (&self.tail[0], local * w);
        }
        let k = local - head;
        (
            &self.tail[1 + (k >> self.chunk_shift())],
            (k & (self.chunk_rows() - 1)) * w,
        )
    }

    /// The `row`-th tuple as a contiguous slice of `width()` values
    /// (tuples never straddle pieces).
    #[inline]
    pub fn tuple(&self, row: usize) -> &[Value] {
        let (piece, base) = self.locate(row);
        &piece[base..base + self.width()]
    }

    /// A single cell.
    #[inline]
    pub fn value(&self, row: usize, offset: usize) -> Value {
        let (piece, base) = self.locate(row);
        piece[base + offset]
    }

    /// Reads attribute `attr` of tuple `row` (slow path; kernels resolve the
    /// offset once and use [`Self::value`]).
    pub fn value_of(&self, row: usize, attr: AttrId) -> Result<Value, StorageError> {
        Ok(self.value(row, self.try_offset_of(attr)?))
    }

    /// Appends a batch of tuples given in **relation schema order**: each
    /// tuple is projected onto this group's attributes (`tuple[a.index()]`
    /// for every stored `a`) in one pass. The append path of the store —
    /// every live group receives the projection of each inserted tuple, so
    /// all layouts stay row-aligned; the caller
    /// ([`LayoutCatalog::append_rows`](crate::catalog::LayoutCatalog::append_rows))
    /// has validated every tuple's width, so this cannot fail.
    ///
    /// Copy-on-write granularity: only the tail's last chunk is ever
    /// written, so if a published snapshot still shares it, fewer than one
    /// chunk's rows are cloned (into a full-chunk allocation, so the rest
    /// of the batch does not reallocate); sealed segments and earlier
    /// pieces are never touched. A tail that reaches a full segment is
    /// concatenated once into a sealed segment with its zone map. The
    /// returned [`AppendDelta`] reports the bytes cloned and segments
    /// sealed.
    pub(crate) fn append_projected(&mut self, tuples: &[Vec<Value>]) -> AppendDelta {
        let mut delta = AppendDelta::default();
        let mut rest = tuples;
        while !rest.is_empty() {
            let room = self.open_chunk(&mut delta);
            let (now, later) = rest.split_at(room.min(rest.len()));
            let chunk = Arc::get_mut(self.tail.last_mut().expect("open chunk"))
                .expect("open chunk is unique");
            for t in now {
                chunk.extend(self.attrs.iter().map(|a| t[a.index()]));
            }
            self.rows += now.len();
            rest = later;
            if self.rows - (self.sealed.len() << self.seg_shift) == self.seg_rows() {
                self.seal_tail(&mut delta);
            }
        }
        delta
    }

    /// Makes the tail's last piece a uniquely owned, partially filled chunk
    /// and returns how many rows it still has room for (never past the
    /// segment end: chunks nest in segments). A full last piece gets a
    /// fresh chunk after it; a shared one is cloned — the copy-on-write
    /// step, fewer than one chunk's rows.
    fn open_chunk(&mut self, delta: &mut AppendDelta) -> usize {
        let w = self.width();
        let chunk_rows = self.chunk_rows();
        let filled = match self.tail.last_mut() {
            Some(last) if !(last.len() / w).is_multiple_of(chunk_rows) => {
                if Arc::get_mut(last).is_none() {
                    crate::failpoints::hit("cow_clone");
                    delta.bytes_cloned += (last.len() * VALUE_BYTES) as u64;
                    let mut copy = Vec::with_capacity(chunk_rows * w);
                    copy.extend_from_slice(last);
                    *last = Arc::new(copy);
                }
                last.len() / w
            }
            _ => {
                self.tail.push(Arc::new(Vec::with_capacity(chunk_rows * w)));
                0
            }
        };
        chunk_rows - filled
    }

    /// Seals a tail that holds exactly one segment's rows: a single piece
    /// is adopted as is, several are concatenated once; the zone map is
    /// recorded here, since the segment is immutable from now on.
    fn seal_tail(&mut self, delta: &mut AppendDelta) {
        crate::failpoints::hit("segment_seal");
        let seg = if self.tail.len() == 1 {
            self.tail.pop().expect("one piece")
        } else {
            let mut seg = Vec::with_capacity(self.seg_rows() * self.width());
            for p in self.tail.drain(..) {
                seg.extend_from_slice(&p);
            }
            Arc::new(seg)
        };
        self.seg_stats
            .push(stats_of(&seg, self.width(), &self.types));
        self.sealed.push(seg);
        delta.segments_sealed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<AttrId> {
        v.iter().map(|&i| AttrId(i)).collect()
    }

    /// An all-`I64` group adopting `payloads` as its segments.
    fn segments(
        attrs: &[u32],
        rows: usize,
        payloads: Vec<Vec<Value>>,
        seg_shift: u32,
    ) -> Result<ColumnGroup, StorageError> {
        let types = vec![LogicalType::I64; attrs.len()];
        ColumnGroup::from_segments_typed(LayoutId(0), ids(attrs), types, rows, payloads, seg_shift)
    }

    #[test]
    fn from_columns_strided_access() {
        // Two attributes, three tuples: (1,10), (2,20), (3,30).
        let g = ColumnGroup::from_columns(ids(&[4, 7]), &[&[1, 2, 3], &[10, 20, 30]]).unwrap();
        assert_eq!(g.width(), 2);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.tuple(1), &[2, 20]);
        assert_eq!(g.value(2, 1), 30);
        assert_eq!(g.offset_of(AttrId(7)), Some(1));
        assert_eq!(g.offset_of(AttrId(5)), None);
        assert_eq!(g.value_of(0, AttrId(4)).unwrap(), 1);
        assert_eq!(g.bytes(), 48);
        assert!(g.contains(AttrId(4)));
        assert!(!g.contains(AttrId(0)));
        assert_eq!(g.segment_count(), 1);
    }

    #[test]
    fn constructors_reject_bad_shapes() {
        assert!(matches!(
            ColumnGroup::from_columns(vec![], &[]),
            Err(StorageError::EmptyGroup)
        ));
        assert!(matches!(
            segments(&[], 0, vec![], 16),
            Err(StorageError::EmptyGroup)
        ));
        assert!(matches!(
            ColumnGroup::from_columns(ids(&[1, 1]), &[&[0], &[0]]),
            Err(StorageError::DuplicateAttr(_))
        ));
        assert!(matches!(
            segments(&[1], 2, vec![vec![0]], 16),
            Err(StorageError::RowCountMismatch { .. })
        ));
    }

    #[test]
    fn row_count_mismatch_is_row_denominated() {
        // Three rows expected, four rows of width-2 data supplied: the
        // message must speak in rows on both sides, not mix rows/values.
        let err = segments(&[0, 1], 3, vec![vec![0; 8]], 16).unwrap_err();
        assert_eq!(
            err,
            StorageError::RowCountMismatch {
                expected: 3,
                got: 4
            }
        );
        assert_eq!(
            err.to_string(),
            "row count mismatch: expected 3 rows, got 4"
        );
    }

    #[test]
    fn small_segments_shape_and_access() {
        // shift 1 → 2 rows per segment; 5 rows → segments of 2,2,1.
        let data: Vec<Value> = (0..10).collect();
        let evens: Vec<Value> = (0..5).map(|r| 2 * r).collect();
        let odds: Vec<Value> = (0..5).map(|r| 2 * r + 1).collect();
        let g = ColumnGroup::from_columns_with_shift(ids(&[0, 1]), &[&evens, &odds], 1).unwrap();
        assert_eq!(g.segment_count(), 3);
        assert_eq!(g.sealed_segment_count(), 2);
        assert_eq!(g.collect_values(), data);
        for row in 0..5 {
            assert_eq!(g.tuple(row), &[2 * row as Value, 2 * row as Value + 1]);
            assert_eq!(g.value(row, 1), 2 * row as Value + 1);
        }
        let col: Vec<Value> = (0..5).map(|r| g.value_of(r, AttrId(1)).unwrap()).collect();
        assert_eq!(col, odds);
    }

    /// Appends single-value tuples (schema order = group order here).
    fn append(g: &mut ColumnGroup, vals: &[Value]) -> AppendDelta {
        let batch: Vec<Vec<Value>> = vals.iter().map(|&v| vec![v]).collect();
        g.append_projected(&batch)
    }

    #[test]
    fn append_seals_and_reports_cow() {
        // 2 rows per segment (and per chunk).
        let mut g = ColumnGroup::from_columns_with_shift(ids(&[0]), &[&[7]], 1).unwrap();
        // Unique tail: no clone; second row fills → seals.
        let d = append(&mut g, &[8]);
        assert_eq!(
            d,
            AppendDelta {
                bytes_cloned: 0,
                segments_sealed: 1
            }
        );
        // Tail full → new segment, nothing cloned.
        let d = append(&mut g, &[9]);
        assert_eq!(d, AppendDelta::default());
        assert_eq!(g.rows(), 3);
        assert_eq!(g.segment_count(), 2);

        // Share the group (as a snapshot would): the next append must clone
        // only the one-row tail, never the sealed segment.
        let snapshot = g.clone();
        let d = append(&mut g, &[10]);
        assert_eq!(d.bytes_cloned, VALUE_BYTES as u64);
        assert_eq!(d.segments_sealed, 1);
        assert_eq!(g.collect_values(), vec![7, 8, 9, 10]);
        assert_eq!(
            snapshot.collect_values(),
            vec![7, 8, 9],
            "snapshot isolated"
        );
    }

    #[test]
    fn append_projects_schema_order_tuples_onto_the_group() {
        // Group over (a2, a0) of a 3-attribute relation.
        let mut g = ColumnGroup::from_columns(ids(&[2, 0]), &[&[30], &[10]]).unwrap();
        g.append_projected(&[vec![1, 2, 3], vec![4, 5, 6]]);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.collect_values(), vec![30, 10, 3, 1, 6, 4]);
    }

    #[test]
    fn constructor_tail_keeps_whole_chunks_in_place() {
        // 4 096-row segments, 1 024-row chunks; 2 500 rows → no sealed
        // segment, a 2 048-row head piece (the caller's allocation, not a
        // copy) and a 452-row first chunk.
        let data: Vec<Value> = (0..5_000).collect();
        let ptr = data.as_ptr();
        let g = segments(&[0, 1], 2_500, vec![data], 12).unwrap();
        assert_eq!(g.chunk_rows(), 1 << CHUNK_SHIFT);
        let pieces: Vec<&[Value]> = g.pieces().collect();
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0].len(), 2 * 2_048);
        assert_eq!(pieces[0].as_ptr(), ptr, "head adopted without a copy");
        assert_eq!(pieces[1].len(), 2 * 452);
        assert_eq!(g.collect_values(), (0..5_000).collect::<Vec<_>>());
        for row in [0, 2_047, 2_048, 2_499] {
            assert_eq!(g.tuple(row), &[2 * row as Value, 2 * row as Value + 1]);
        }
        // A tail of whole chunks is one piece and no chunk at all.
        let g = ColumnGroup::from_columns_with_shift(ids(&[0]), &[&[0; 2_048]], 12).unwrap();
        assert_eq!(g.pieces().count(), 1);
    }

    #[test]
    fn appends_clone_at_most_one_chunk_and_seal_by_concatenation() {
        // 4 096-row segments, 1 024-row chunks, starting from a head split
        // at a non-multiple of a chunk. Before every 37-row batch a
        // snapshot is pinned, so every batch pays the copy-on-write step.
        let start: Vec<Value> = (0..1_500).collect();
        let mut g = ColumnGroup::from_columns_with_shift(ids(&[0]), &[&start], 12).unwrap();
        let chunk_bytes = (g.chunk_rows() * VALUE_BYTES) as u64;
        let mut pinned = Vec::new();
        let mut next = start.len() as Value;
        let mut sealed = 0;
        while g.rows() < 2 * g.seg_rows() + 100 {
            pinned.push(g.clone());
            let batch: Vec<Value> = (next..next + 37).collect();
            let d = append(&mut g, &batch);
            next += 37;
            assert!(d.bytes_cloned < chunk_bytes, "cloned {}", d.bytes_cloned);
            sealed += d.segments_sealed;
            assert_eq!(sealed as usize, g.sealed_segment_count());
            // Tail pieces: a head of whole chunks, then single chunks.
            let tail: Vec<usize> = g
                .pieces()
                .skip(g.sealed_segment_count())
                .map(|p| p.len())
                .collect();
            assert!(tail.iter().skip(1).all(|&n| n <= g.chunk_rows()));
        }
        assert_eq!(sealed, 2);
        // Sealing concatenated the pieces into one contiguous segment with
        // the zone map a from-scratch build records.
        let whole =
            ColumnGroup::from_columns_with_shift(ids(&[0]), &[&g.collect_values()], 12).unwrap();
        for s in 0..2 {
            assert_eq!(g.pieces().nth(s).unwrap().len(), g.seg_rows());
            assert_eq!(g.seg_stats(s), whole.seg_stats(s));
        }
        assert_eq!(g.collect_values(), (0..next).collect::<Vec<_>>());
        // Every pinned snapshot still reads exactly its own rows.
        for snap in &pinned {
            assert_eq!(
                snap.collect_values(),
                (0..snap.rows() as Value).collect::<Vec<_>>()
            );
            for row in [0, snap.rows() / 2, snap.rows() - 1] {
                assert_eq!(snap.value(row, 0), row as Value);
            }
        }
    }

    #[test]
    fn from_columns_transposes() {
        let c0 = [1, 2, 3];
        let c1 = [10, 20, 30];
        let g = ColumnGroup::from_columns(ids(&[8, 9]), &[&c0, &c1]).unwrap();
        assert_eq!(g.tuple(0), &[1, 10]);
        assert_eq!(g.tuple(2), &[3, 30]);
        assert_eq!(g.value_of(1, AttrId(9)), Ok(20));
    }

    #[test]
    fn from_columns_rejects_ragged() {
        let c0 = [1, 2, 3];
        let c1 = [10, 20];
        assert!(matches!(
            ColumnGroup::from_columns(ids(&[0, 1]), &[&c0, &c1]),
            Err(StorageError::RowCountMismatch { .. })
        ));
    }

    #[test]
    fn from_columns_attr_column_count_mismatch_is_an_error_not_a_panic() {
        let c0 = [1, 2];
        let err = ColumnGroup::from_columns(ids(&[0, 1]), &[&c0]).unwrap_err();
        assert_eq!(
            err,
            StorageError::WidthMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn from_columns_with_small_segments_matches_default() {
        let cols: Vec<Vec<Value>> = vec![(0..23).collect(), (100..123).collect()];
        let refs: Vec<&[Value]> = cols.iter().map(|c| c.as_slice()).collect();
        let mono = ColumnGroup::from_columns(ids(&[0, 1]), &refs).unwrap();
        let seg = ColumnGroup::from_columns_with_shift(ids(&[0, 1]), &refs, 2).unwrap();
        assert_eq!(seg.segment_count(), 6);
        assert_eq!(mono.collect_values(), seg.collect_values());
    }

    #[test]
    fn width_one_group_is_a_column() {
        let g = ColumnGroup::from_columns(ids(&[3]), &[&[7, 8, 9]]).unwrap();
        assert_eq!(g.width(), 1);
        assert_eq!(g.collect_values(), vec![7, 8, 9]);
    }

    #[test]
    fn reading_a_missing_attr_errors() {
        let g = ColumnGroup::from_columns(ids(&[3]), &[&[7]]).unwrap();
        assert!(matches!(
            g.value_of(0, AttrId(0)),
            Err(StorageError::AttrNotInGroup { .. })
        ));
    }

    #[test]
    fn empty_relation_zero_rows() {
        let g = ColumnGroup::from_columns(ids(&[0, 1]), &[&[], &[]]).unwrap();
        assert_eq!(g.rows(), 0);
        assert_eq!(g.bytes(), 0);
        assert_eq!(g.segment_count(), 0);
        assert!(g.collect_values().is_empty());
    }

    #[test]
    fn zone_maps_recorded_for_sealed_segments_only() {
        // shift 1 → 2 rows/segment; 5 rows → sealed, sealed, tail.
        let c0: Vec<Value> = vec![5, 1, 9, 3, 7];
        let c1: Vec<Value> = vec![-2, -8, 0, 4, 6];
        let g = ColumnGroup::from_columns_with_shift(ids(&[0, 1]), &[&c0, &c1], 1).unwrap();
        assert_eq!(g.segment_count(), 3);
        assert_eq!(g.seg_stats(0).unwrap(), &vec![(1, 5), (-8, -2)]);
        assert_eq!(g.seg_stats(1).unwrap(), &vec![(3, 9), (0, 4)]);
        assert!(g.seg_stats(2).is_none(), "tail has no zone map");
        assert!(g.seg_stats(9).is_none());
        // The append path records identical stats as each segment seals.
        let mut g2 = ColumnGroup::from_columns_with_shift(ids(&[0, 1]), &[&[], &[]], 1).unwrap();
        let tuples: Vec<Vec<Value>> = c0.iter().zip(&c1).map(|(&a, &b)| vec![a, b]).collect();
        g2.append_projected(&tuples);
        assert_eq!(g2.seg_stats(0), g.seg_stats(0));
        assert_eq!(g2.seg_stats(1), g.seg_stats(1));
        assert!(g2.seg_stats(2).is_none());
    }

    #[test]
    fn zone_maps_use_comparator_keys_for_f64() {
        use crate::types::f64_lane;
        let vals = [3.5f64, -2.25, 0.5, 10.0];
        let col: Vec<Value> = vals.iter().map(|&x| f64_lane(x)).collect();
        let g =
            ColumnGroup::from_columns_typed(ids(&[0]), vec![LogicalType::F64], &[&col], 1).unwrap();
        // Segment 0 holds {3.5, -2.25}: min key is -2.25's, max is 3.5's.
        let (lo, hi) = g.seg_stats(0).unwrap()[0];
        assert_eq!(lo, LogicalType::F64.cmp_key(f64_lane(-2.25)));
        assert_eq!(hi, LogicalType::F64.cmp_key(f64_lane(3.5)));
        assert!(lo < hi);
        assert_eq!(g.type_at(0), LogicalType::F64);
    }

    #[test]
    fn append_seals_record_zone_maps() {
        let mut g = ColumnGroup::from_columns_with_shift(ids(&[0]), &[&[7]], 1).unwrap();
        assert!(g.seg_stats(0).is_none(), "tail starts unsealed");
        append(&mut g, &[3]); // seals segment 0
        assert_eq!(g.seg_stats(0).unwrap(), &vec![(3, 7)]);
        append(&mut g, &[100]); // new tail
        assert!(g.seg_stats(1).is_none());
        append(&mut g, &[-5]); // seals segment 1
        assert_eq!(g.seg_stats(1).unwrap(), &vec![(-5, 100)]);
    }

    #[test]
    fn typed_constructor_rejects_mismatched_type_count() {
        assert!(matches!(
            ColumnGroup::from_segments_typed(
                LayoutId(0),
                ids(&[0, 1]),
                vec![LogicalType::I64],
                1,
                vec![vec![1, 2]],
                4,
            ),
            Err(StorageError::WidthMismatch { .. })
        ));
        assert!(matches!(
            ColumnGroup::from_columns_typed(ids(&[0]), vec![], &[&[1]], 0),
            Err(StorageError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn from_segments_validates_shapes() {
        // Middle segment not full: a precise per-segment error, not a
        // (self-contradictory) total-row-count mismatch.
        assert_eq!(
            segments(&[0], 5, vec![vec![0, 1], vec![2], vec![3, 4]], 1).unwrap_err(),
            StorageError::BadSegment {
                index: 1,
                expected: 2,
                got: 1
            }
        );
        // Totals off with well-formed segments: row-count mismatch.
        assert_eq!(
            segments(&[0], 5, vec![vec![0, 1]], 1).unwrap_err(),
            StorageError::RowCountMismatch {
                expected: 5,
                got: 2
            }
        );
        // Valid: 2,2,1 rows at shift 1.
        let g = segments(&[0], 5, vec![vec![0, 1], vec![2, 3], vec![4]], 1).unwrap();
        assert_eq!(g.collect_values(), vec![0, 1, 2, 3, 4]);
    }
}
