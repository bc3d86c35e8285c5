//! The layout catalog — H2O's *Data Layout Manager* (paper Fig. 3).
//!
//! The catalog owns every materialized [`ColumnGroup`], maintains the
//! invariant that the union of live groups always covers the full schema
//! (so any query can be answered), and resolves attribute sets to
//! *covering sets* of groups.

use crate::attrset::AttrSet;
use crate::error::StorageError;
use crate::group::{AppendDelta, ColumnGroup};
use crate::schema::Schema;
use crate::types::{AttrId, LayoutId, Value, MAX_ROWS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A published, immutable view of the catalog. Readers clone the `Arc`
/// (O(1)) and keep querying that version for as long as they like; writers
/// build a new catalog value and atomically swap the published pointer.
/// Column-group payloads are themselves `Arc`-shared, so cloning a catalog
/// value copies only the group *table*, never the data.
pub type CatalogSnapshot = Arc<LayoutCatalog>;

/// Checks that a relation of `rows` tuples fits the engine-wide row-id
/// domain ([`MAX_ROWS`] — row ids are `u32` in every selection vector).
///
/// [`LayoutCatalog::append_rows`] enforces this on every write, and
/// execution re-checks it when binding views, so the guard is testable
/// with synthetic counts without materializing a 4-billion-row relation.
#[inline]
pub fn check_row_capacity(rows: usize) -> Result<(), StorageError> {
    if rows > MAX_ROWS {
        return Err(StorageError::RelationFull {
            rows,
            max: MAX_ROWS,
        });
    }
    Ok(())
}

/// Greedy cover of `attrs` by `groups` that prefers the **fewest groups**:
/// each step takes the group covering the most still-uncovered attributes,
/// ties to the least excess (stored attributes `attrs` does not need).
/// Fewer groups means fewer stitched slots per scanned tuple.
///
/// Returns positions into `groups` in pick order, or `None` when their
/// union misses an attribute of `attrs`. Greedy set cover is the standard
/// ln(n)-approximation; the paper's own search is heuristic for the same
/// NP-hardness reason (§3.2).
pub fn cover_fewest_groups(groups: &[&AttrSet], attrs: &AttrSet) -> Option<Vec<usize>> {
    greedy_cover(groups, attrs, |(c, e), (best_c, best_e)| {
        c > best_c || (c == best_c && e < best_e)
    })
}

/// Greedy cover of `attrs` by `groups` that prefers the **least excess
/// width**: each step takes the best covered-per-excess ratio, ties to the
/// most covered. Less excess means less wasted memory bandwidth (paper
/// §4.2.2, Fig. 11). Same contract as [`cover_fewest_groups`].
pub fn cover_least_excess(groups: &[&AttrSet], attrs: &AttrSet) -> Option<Vec<usize>> {
    greedy_cover(groups, attrs, |(c, e), (best_c, best_e)| {
        // c / (e + 1) against best_c / (best_e + 1), without floats.
        let (lhs, rhs) = (c * (best_e + 1), best_c * (e + 1));
        lhs > rhs || (lhs == rhs && c > best_c)
    })
}

/// The one greedy set-cover loop. `better(candidate, best)` compares
/// `(covered, excess)` scores; remaining ties go to the earliest position,
/// so only groups that intersect `attrs`, and their relative order, can
/// influence the result.
fn greedy_cover(
    groups: &[&AttrSet],
    attrs: &AttrSet,
    better: impl Fn((usize, usize), (usize, usize)) -> bool,
) -> Option<Vec<usize>> {
    let mut remaining = attrs.clone();
    let mut chosen = Vec::new();
    while !remaining.is_empty() {
        let mut best: Option<(usize, (usize, usize))> = None;
        for (i, g) in groups.iter().enumerate() {
            let covered = g.intersection_len(&remaining);
            if covered == 0 {
                continue;
            }
            let score = (covered, g.len() - covered);
            if best.is_none_or(|(_, b)| better(score, b)) {
                best = Some((i, score));
            }
        }
        let (i, _) = best?;
        remaining.difference_with(groups[i]);
        chosen.push(i);
    }
    Some(chosen)
}

/// The set of materialized layouts for one relation.
///
/// Groups are stored behind `Arc`s: cloning the catalog (the copy-on-write
/// step of every snapshot publish) duplicates only the id → group table.
/// Group payloads are segmented ([`ColumnGroup`]) and copied lazily at
/// chunk granularity, only by the one mutation that actually rewrites
/// them ([`Self::append_rows`] via `Arc::make_mut`, which clones at most
/// each group's shared last tail chunk).
#[derive(Debug, Clone)]
pub struct LayoutCatalog {
    schema: Arc<Schema>,
    rows: usize,
    groups: BTreeMap<LayoutId, Arc<ColumnGroup>>,
    next_id: u32,
    lineage: u64,
    data_version: u64,
}

/// The process-wide counter [`LayoutCatalog::data_version`] draws from.
static NEXT_DATA_VERSION: AtomicU64 = AtomicU64::new(0);

impl LayoutCatalog {
    /// Creates an empty catalog. The caller must add groups covering the
    /// whole schema before the catalog is usable for queries; prefer
    /// [`Relation`](crate::relation::Relation) constructors which do this.
    pub fn new(schema: Arc<Schema>, rows: usize) -> Self {
        static NEXT_LINEAGE: AtomicU64 = AtomicU64::new(0);
        LayoutCatalog {
            schema,
            rows,
            groups: BTreeMap::new(),
            next_id: 0,
            lineage: NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed),
            data_version: NEXT_DATA_VERSION.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Unique per [`Self::new`] in the process, kept by clones, appends and
    /// reorganizations: layout ids are numbered per lineage.
    pub fn lineage(&self) -> u64 {
        self.lineage
    }

    /// Names the catalog's rows: drawn from one process-wide counter by
    /// [`Self::new`] and by every non-empty [`Self::append_rows`], kept by
    /// clones, [`Self::add_group`] and [`Self::drop_group`] (a layout
    /// stores rows the catalog already has). Two catalogs with the same
    /// version hold the same rows, so anything derived from the rows alone
    /// — a join's build side — can be kept until the version moves; two
    /// clones that append different batches part versions.
    pub fn data_version(&self) -> u64 {
        self.data_version
    }

    /// The relation schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of tuples in the relation (identical across all groups).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of live groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Total bytes across all live groups (storage footprint; the paper
    /// notes the same data may be stored in more than one format).
    pub fn total_bytes(&self) -> usize {
        self.groups.values().map(|g| g.bytes()).sum()
    }

    /// Admits a group, assigning it a fresh [`LayoutId`]. The group must
    /// match the relation's row count and only reference schema attributes.
    pub fn add_group(&mut self, mut group: ColumnGroup) -> Result<LayoutId, StorageError> {
        if group.rows() != self.rows {
            return Err(StorageError::RowCountMismatch {
                expected: self.rows,
                got: group.rows(),
            });
        }
        for (&a, &ty) in group.attrs().iter().zip(group.types()) {
            if !self.schema.contains(a) {
                return Err(StorageError::UnknownAttr(a));
            }
            // Lane-type safety: a layout whose declared types contradict
            // the schema would make kernels misinterpret lane words.
            let expected = self.schema.type_of(a)?;
            if ty != expected {
                return Err(StorageError::GroupTypeMismatch {
                    attr: a,
                    expected,
                    got: ty,
                });
            }
        }
        let id = LayoutId(self.next_id);
        self.next_id += 1;
        group.set_id(id);
        self.groups.insert(id, Arc::new(group));
        Ok(id)
    }

    /// Drops a group. Fails with [`StorageError::WouldUncover`] if removing
    /// it would leave some attribute with no materialized layout — the
    /// catalog never allows data loss.
    pub fn drop_group(&mut self, id: LayoutId) -> Result<Arc<ColumnGroup>, StorageError> {
        let victim = self
            .groups
            .get(&id)
            .ok_or(StorageError::UnknownLayout(id))?;
        for &a in victim.attrs() {
            let still_covered = self.groups.values().any(|g| g.id() != id && g.contains(a));
            if !still_covered {
                return Err(StorageError::WouldUncover(a));
            }
        }
        Ok(self.groups.remove(&id).expect("checked above"))
    }

    /// Looks up a live group.
    pub fn group(&self, id: LayoutId) -> Result<&ColumnGroup, StorageError> {
        self.groups
            .get(&id)
            .map(|g| g.as_ref())
            .ok_or(StorageError::UnknownLayout(id))
    }

    /// Iterates over all live groups in id order.
    pub fn groups(&self) -> impl Iterator<Item = &ColumnGroup> {
        self.groups.values().map(|g| g.as_ref())
    }

    /// Ids of all live groups.
    pub fn layout_ids(&self) -> Vec<LayoutId> {
        self.groups.keys().copied().collect()
    }

    /// All groups that store `attr`.
    pub fn groups_for(&self, attr: AttrId) -> impl Iterator<Item = &ColumnGroup> {
        self.groups
            .values()
            .map(|g| g.as_ref())
            .filter(move |g| g.contains(attr))
    }

    /// Reads a single logical cell by searching any group that stores the
    /// attribute. O(groups) — a test/debug oracle, never used by execution.
    pub fn cell(&self, row: usize, attr: AttrId) -> Result<Value, StorageError> {
        let g = self
            .groups_for(attr)
            .next()
            .ok_or(StorageError::NoCover(attr))?;
        g.value_of(row, attr)
    }

    /// Finds a group whose attribute set is exactly `attrs`, if one exists
    /// (used to detect that a pending adaptation target already
    /// materialized).
    pub fn find_exact(&self, attrs: &AttrSet) -> Option<LayoutId> {
        self.groups
            .values()
            .find(|g| g.attr_set() == attrs)
            .map(|g| g.id())
    }

    /// Whether the live groups cover the entire schema (the catalog's core
    /// invariant once loading finishes).
    pub fn covers_schema(&self) -> bool {
        self.first_uncovered(&AttrSet::all(self.schema.len()))
            .is_none()
    }

    /// The first attribute of `attrs` that no live group stores, if any.
    pub fn first_uncovered(&self, attrs: &AttrSet) -> Option<AttrId> {
        attrs.iter().find(|&a| self.groups_for(a).next().is_none())
    }

    /// The layouts that serve `attrs`: [`cover_least_excess`] over the live
    /// groups in id order. This is the cover of the paths whose strategy is
    /// fixed — reorganization source stitching, the interpreter, the static
    /// baselines; the query planner prices both greedy covers and every
    /// strategy through `h2o_cost::CostModel::best_plan` instead.
    pub fn cover(&self, attrs: &AttrSet) -> Result<Vec<LayoutId>, StorageError> {
        let groups: Vec<&ColumnGroup> = self.groups().collect();
        let sets: Vec<&AttrSet> = groups.iter().map(|g| g.attr_set()).collect();
        match cover_least_excess(&sets, attrs) {
            Some(cover) => Ok(cover.into_iter().map(|i| groups[i].id()).collect()),
            None => Err(StorageError::NoCover(
                self.first_uncovered(attrs)
                    .expect("a failed cover misses an attribute"),
            )),
        }
    }

    /// Appends a batch of logical tuples (full schema order) to **every**
    /// live group, keeping all layouts row-aligned. This is the write path
    /// the paper leaves as future work ("updates might become quite
    /// expensive"); the cost is proportional to the number of coexisting
    /// layouts, which is exactly the trade-off an adaptive multi-layout
    /// store makes.
    ///
    /// Validate-then-mutate: every tuple's width and the row-id capacity
    /// are checked once up front, so a failure leaves the catalog
    /// untouched. Each group then takes one `Arc::make_mut` and one
    /// projection pass over the whole batch
    /// ([`ColumnGroup`]'s chunked tail).
    ///
    /// Returns the copy-on-write accounting: if a published snapshot still
    /// shares a group, `make_mut` copies only its piece pointer tables and
    /// the append clones at most its last tail *chunk* (never sealed
    /// segments or earlier pieces), so a batch against a shared catalog
    /// costs O(batch + one chunk per group) — independent of both the
    /// relation and the tail length.
    pub fn append_rows(&mut self, tuples: &[Vec<Value>]) -> Result<AppendDelta, StorageError> {
        let width = self.schema.len();
        if let Some(t) = tuples.iter().find(|t| t.len() != width) {
            return Err(StorageError::WidthMismatch {
                expected: width,
                got: t.len(),
            });
        }
        // Row ids are 32-bit engine-wide; refuse to grow past the domain
        // rather than let a selection vector silently wrap.
        check_row_capacity(self.rows + tuples.len())?;
        let mut delta = AppendDelta::default();
        if tuples.is_empty() {
            return Ok(delta);
        }
        for g in self.groups.values_mut() {
            delta.absorb(Arc::make_mut(g).append_projected(tuples));
        }
        self.rows += tuples.len();
        self.data_version = NEXT_DATA_VERSION.fetch_add(1, Ordering::Relaxed);
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::ColumnGroup;

    fn catalog_with(groups: &[&[u32]], rows: usize) -> LayoutCatalog {
        let max_attr = groups.iter().flat_map(|g| g.iter()).max().unwrap() + 1;
        let schema = Schema::with_width(max_attr as usize).into_shared();
        let mut cat = LayoutCatalog::new(schema, rows);
        for attrs in groups {
            let ids: Vec<AttrId> = attrs.iter().map(|&i| AttrId(i)).collect();
            let cols: Vec<Vec<i64>> = attrs
                .iter()
                .map(|&a| (0..rows as i64).map(|r| (a as i64) * 1000 + r).collect())
                .collect();
            let refs: Vec<&[i64]> = cols.iter().map(|c| c.as_slice()).collect();
            let g = ColumnGroup::from_columns(ids, &refs).unwrap();
            cat.add_group(g).unwrap();
        }
        cat
    }

    fn aset(ids: &[usize]) -> AttrSet {
        ids.iter().copied().collect()
    }

    #[test]
    fn row_capacity_guard() {
        // The guard is a pure function of the count, so the overflow side
        // is testable without materializing a 4-billion-row relation.
        assert_eq!(check_row_capacity(0), Ok(()));
        assert_eq!(check_row_capacity(MAX_ROWS), Ok(()));
        assert_eq!(
            check_row_capacity(MAX_ROWS + 1),
            Err(StorageError::RelationFull {
                rows: MAX_ROWS + 1,
                max: MAX_ROWS,
            })
        );
        // The append path consults the same guard (full-capacity appends
        // cannot be exercised directly; the unit above pins the boundary).
        let mut cat = catalog_with(&[&[0]], 2);
        assert!(cat.append_rows(&[vec![7]]).is_ok());
        assert_eq!(cat.rows(), 3);
    }

    #[test]
    fn add_and_lookup() {
        let cat = catalog_with(&[&[0, 1], &[2]], 4);
        assert_eq!(cat.group_count(), 2);
        assert!(cat.covers_schema());
        assert_eq!(cat.total_bytes(), (4 * 2 + 4) * 8);
        let l0 = cat.layout_ids()[0];
        assert_eq!(cat.group(l0).unwrap().width(), 2);
    }

    #[test]
    fn add_rejects_wrong_rows_and_unknown_attrs() {
        let mut cat = catalog_with(&[&[0, 1]], 4);
        let g = ColumnGroup::from_columns(vec![AttrId(0)], &[&[1, 2]]).unwrap();
        assert!(matches!(
            cat.add_group(g),
            Err(StorageError::RowCountMismatch { .. })
        ));
        let g = ColumnGroup::from_columns(vec![AttrId(99)], &[&[1, 2, 3, 4]]).unwrap();
        assert!(matches!(
            cat.add_group(g),
            Err(StorageError::UnknownAttr(_))
        ));
    }

    #[test]
    fn drop_preserves_coverage() {
        let mut cat = catalog_with(&[&[0, 1], &[1, 2], &[0]], 2);
        let ids = cat.layout_ids();
        // Dropping [0,1] is fine: 0 covered by [0], 1 covered by [1,2].
        cat.drop_group(ids[0]).unwrap();
        assert!(cat.covers_schema());
        // Dropping [1,2] now would uncover 1 and 2.
        let err = cat.drop_group(ids[1]).unwrap_err();
        assert!(matches!(err, StorageError::WouldUncover(_)));
        assert!(cat.covers_schema());
    }

    #[test]
    fn cover_single_group_preferred() {
        let groups = [aset(&[0]), aset(&[1]), aset(&[2]), aset(&[0, 1, 2])];
        let refs: Vec<&AttrSet> = groups.iter().collect();
        let want = aset(&[0, 1, 2]);
        assert_eq!(cover_fewest_groups(&refs, &want), Some(vec![3]));
        assert_eq!(cover_least_excess(&refs, &want), Some(vec![3]));
    }

    #[test]
    fn the_two_greedy_orders_disagree_on_a_wide_group() {
        // Wide group [0..9] vs two exact columns 0 and 1: for {0,1} the
        // fewest-groups order takes the wide group, the least-excess order
        // the two columns.
        let groups = [aset(&(0..10).collect::<Vec<_>>()), aset(&[0]), aset(&[1])];
        let refs: Vec<&AttrSet> = groups.iter().collect();
        let want = aset(&[0, 1]);
        assert_eq!(cover_fewest_groups(&refs, &want), Some(vec![0]));
        assert_eq!(cover_least_excess(&refs, &want), Some(vec![1, 2]));
        let cat = catalog_with(&[&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], &[0], &[1]], 2);
        let ids = cat.layout_ids();
        assert_eq!(cat.cover(&want).unwrap(), vec![ids[1], ids[2]]);
    }

    #[test]
    fn greedy_ties_go_to_the_earliest_group() {
        // {0,1} and {1,2} score alike for {0,1,2}: the earlier one is taken
        // first under both orders, and groups that miss `attrs` never shift
        // the result.
        let groups = [aset(&[7]), aset(&[1, 2]), aset(&[0, 1]), aset(&[0, 1])];
        let refs: Vec<&AttrSet> = groups.iter().collect();
        let want = aset(&[0, 1, 2]);
        assert_eq!(cover_fewest_groups(&refs, &want), Some(vec![1, 2]));
        assert_eq!(cover_least_excess(&refs, &want), Some(vec![1, 2]));
        assert_eq!(cover_fewest_groups(&refs, &AttrSet::new()), Some(vec![]));
    }

    #[test]
    fn cover_missing_attr_errors() {
        let cat = catalog_with(&[&[0, 1]], 2);
        assert_eq!(
            cat.cover(&aset(&[1, 5, 6])),
            Err(StorageError::NoCover(AttrId(5)))
        );
        assert_eq!(cat.first_uncovered(&aset(&[0, 1])), None);
        let refs = [cat.group(cat.layout_ids()[0]).unwrap().attr_set()];
        assert_eq!(cover_fewest_groups(&refs, &aset(&[5])), None);
    }

    #[test]
    fn find_exact() {
        let cat = catalog_with(&[&[0, 1], &[2, 3, 4]], 2);
        assert!(cat.find_exact(&aset(&[0, 1])).is_some());
        assert!(cat.find_exact(&aset(&[0])).is_none());
    }

    #[test]
    fn append_rows_updates_every_layout() {
        let mut cat = catalog_with(&[&[0, 1], &[1, 2], &[2]], 2);
        cat.append_rows(&[vec![7, 8, 9]]).unwrap();
        assert_eq!(cat.rows(), 3);
        for g in cat.groups() {
            assert_eq!(g.rows(), 3);
        }
        // The projection landed correctly in each layout.
        let ids = cat.layout_ids();
        assert_eq!(cat.group(ids[0]).unwrap().tuple(2), &[7, 8]);
        assert_eq!(cat.group(ids[1]).unwrap().tuple(2), &[8, 9]);
        assert_eq!(cat.group(ids[2]).unwrap().tuple(2), &[9]);
    }

    #[test]
    fn append_rows_rejects_wrong_width_atomically() {
        let mut cat = catalog_with(&[&[0, 1]], 2);
        // The bad tuple comes second: nothing of the batch may land.
        assert_eq!(
            cat.append_rows(&[vec![1, 2], vec![1]]).unwrap_err(),
            StorageError::WidthMismatch {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(cat.rows(), 2, "failed append must not change state");
        assert!(cat.groups().all(|g| g.rows() == 2));
    }

    #[test]
    fn append_after_clone_clones_only_tail_chunks() {
        // A clone (what publishing a snapshot does) shares every segment;
        // the next batch must clone exactly one tail chunk per group, not
        // the groups' whole payloads, and only once per batch.
        let mut cat = catalog_with(&[&[0, 1], &[2]], 4);
        let snapshot = cat.clone();
        let delta = cat.append_rows(&[vec![7, 8, 9], vec![1, 2, 3]]).unwrap();
        // Tails: 4 rows × (width 2 + width 1) values × 8 bytes.
        assert_eq!(delta.bytes_cloned, (4 * 3 * 8) as u64);
        // Next batch without a snapshot in between: everything is unique.
        let delta = cat.append_rows(&[vec![4, 5, 6]]).unwrap();
        assert_eq!(delta.bytes_cloned, 0);
        assert_eq!(cat.rows(), 7);
        assert_eq!(snapshot.rows(), 4, "clone keeps its own payloads");
        assert!(snapshot.groups().all(|g| g.rows() == 4));
    }

    #[test]
    fn append_rows_bulk() {
        let mut cat = catalog_with(&[&[0], &[1]], 1);
        cat.append_rows(&[vec![1, 2], vec![3, 4]]).unwrap();
        assert_eq!(cat.rows(), 3);
    }

    #[test]
    fn ids_are_never_reused() {
        let mut cat = catalog_with(&[&[0], &[0, 1]], 2);
        let first = cat.layout_ids()[0];
        cat.drop_group(first).unwrap();
        let g = ColumnGroup::from_columns(vec![AttrId(0)], &[&[0, 0]]).unwrap();
        let new_id = cat.add_group(g).unwrap();
        assert_ne!(new_id, first);
    }

    #[test]
    fn data_version_moves_with_the_rows_only() {
        let mut cat = catalog_with(&[&[0], &[0, 1]], 2);
        let v0 = cat.data_version();
        assert_ne!(
            catalog_with(&[&[0, 1]], 2).data_version(),
            v0,
            "fresh per new"
        );
        // Layouts store rows the catalog already has.
        let g = ColumnGroup::from_columns(vec![AttrId(1)], &[&[5, 6]]).unwrap();
        let id = cat.add_group(g).unwrap();
        assert_eq!(cat.data_version(), v0);
        cat.drop_group(id).unwrap();
        assert_eq!(cat.data_version(), v0);
        // An empty batch appends nothing; a failed one changes nothing.
        cat.append_rows(&[]).unwrap();
        assert!(cat.append_rows(&[vec![1]]).is_err());
        assert_eq!(cat.data_version(), v0);
        // Two clones that append different rows part versions.
        let (mut a, mut b) = (cat.clone(), cat.clone());
        assert_eq!((a.data_version(), b.data_version()), (v0, v0));
        a.append_rows(&[vec![1, 2]]).unwrap();
        b.append_rows(&[vec![3, 4]]).unwrap();
        assert!(a.data_version() != v0 && b.data_version() != v0);
        assert_ne!(a.data_version(), b.data_version());
        assert_eq!(cat.data_version(), v0, "the source keeps its version");
        assert_eq!(a.lineage(), b.lineage());
    }
}
