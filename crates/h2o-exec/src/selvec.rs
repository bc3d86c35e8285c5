//! Selection vectors: materialized lists of qualifying row ids.
//!
//! The column-oriented execution strategies materialize "vectors of matching
//! positions" (paper §3.3) between the filter phase and the
//! projection/aggregation phase. Row ids are `u32` — half the footprint of
//! `usize`, which matters because the selection vector is itself an
//! intermediate result whose materialization cost the paper charges to the
//! column-style plans.

use crate::bind::GroupViews;
use h2o_storage::{Value, MAX_ROWS};
use std::ops::Range;

/// A sorted list of qualifying row ids.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SelVec {
    ids: Vec<u32>,
}

impl SelVec {
    /// An empty selection vector.
    pub fn new() -> Self {
        SelVec { ids: Vec::new() }
    }

    /// An empty selection vector with capacity for `n` ids.
    pub fn with_capacity(n: usize) -> Self {
        SelVec {
            ids: Vec::with_capacity(n),
        }
    }

    /// The identity selection over `range` (no where-clause), charged as
    /// `range.len()` rows of scan work against the views' morsel budget
    /// ([`GroupViews::charge_scan`]); empty once the budget is exhausted
    /// (the execution driver discards the result and reports the typed
    /// error).
    ///
    /// # Panics
    ///
    /// Panics if `range.end` exceeds [`MAX_ROWS`]: row ids are `u32`, and
    /// `as u32` would otherwise wrap silently and enumerate the wrong
    /// ids. Storage enforces the same cap at append time
    /// ([`h2o_storage::check_row_capacity`]) and execution re-checks it when
    /// binding views, so a relation admitted by the engine can never trip
    /// this; the assert is the last line of defense for direct callers.
    pub fn identity(views: &GroupViews<'_>, range: Range<usize>) -> Self {
        assert!(
            range.end <= MAX_ROWS,
            "identity selection over {} rows exceeds the {MAX_ROWS}-row \
             engine capacity (row ids are 32-bit)",
            range.end
        );
        if !views.charge_scan(range.len()) {
            return SelVec::new();
        }
        SelVec {
            ids: (range.start as u32..range.end as u32).collect(),
        }
    }

    /// Wraps a pre-built id list (must be sorted strictly ascending).
    ///
    /// Sortedness is what lets [`Self::extend_from`] stitch morsel results
    /// by concatenation and lets consumers walk segments monotonically. The
    /// invariant is checked with `debug_assert!` in normal release builds
    /// (the check is O(n) on a hot construction path); under the
    /// `failpoints` validation feature — the build CI runs the fault-matrix
    /// suite with — it is promoted to a hard release-mode `assert!`.
    pub fn from_ids(ids: Vec<u32>) -> Self {
        #[cfg(feature = "failpoints")]
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        #[cfg(not(feature = "failpoints"))]
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        SelVec { ids }
    }

    /// Appends a row id (callers append in ascending order).
    #[inline(always)]
    pub fn push(&mut self, row: u32) {
        self.ids.push(row);
    }

    /// Appends all ids of `other` — the stitch step of morsel-parallel
    /// filter phases: per-range selection vectors (each ascending, over
    /// disjoint consecutive ranges) concatenate in morsel order into the
    /// exact vector a serial pass would build.
    ///
    /// Like [`Self::from_ids`], the ascending-stitch invariant is a
    /// `debug_assert!` normally and a hard `assert!` under the `failpoints`
    /// feature (the check here is O(1), but it only guards the seam — full
    /// validation lives in construction).
    #[inline]
    pub fn extend_from(&mut self, other: &SelVec) {
        let ascending = self
            .ids
            .last()
            .zip(other.ids.first())
            .is_none_or(|(&a, &b)| a < b);
        #[cfg(feature = "failpoints")]
        assert!(ascending, "stitched selection vectors must stay ascending");
        #[cfg(not(feature = "failpoints"))]
        debug_assert!(ascending, "stitched selection vectors must stay ascending");
        self.ids.extend_from_slice(&other.ids);
    }

    /// Number of qualifying rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no rows qualify.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The qualifying row ids.
    #[inline]
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Observed selectivity against a relation of `rows` tuples.
    pub fn selectivity(&self, rows: usize) -> f64 {
        if rows == 0 {
            0.0
        } else {
            self.ids.len() as f64 / rows as f64
        }
    }

    /// Gathers `column[id]` for every selected id into a fresh intermediate
    /// column — the materialization step of DSM processing (paper §2.1).
    ///
    /// The loop is written over fixed `[u32; 8]` id chunks with the bounds
    /// check hoisted to one `assert!` on the maximum id (ids are sorted, so
    /// the last id is the maximum), letting the compiler vectorize the
    /// index arithmetic and keep the loads unchecked.
    pub fn gather(&self, column: &[Value]) -> Vec<Value> {
        let Some(&max_id) = self.ids.last() else {
            return Vec::new();
        };
        assert!(
            (max_id as usize) < column.len(),
            "gather id {max_id} out of bounds for column of {} rows",
            column.len()
        );
        let mut out = Vec::with_capacity(self.ids.len());
        let mut chunks = self.ids.chunks_exact(8);
        for ch in &mut chunks {
            let ids: [u32; 8] = ch.try_into().unwrap();
            out.extend(ids.map(|i| column[i as usize]));
        }
        out.extend(chunks.remainder().iter().map(|&i| column[i as usize]));
        out
    }

    /// Footprint in bytes (an intermediate-result term for the cost model).
    pub fn bytes(&self) -> usize {
        self.ids.len() * std::mem::size_of::<u32>()
    }
}

impl FromIterator<u32> for SelVec {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        SelVec {
            ids: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity(rows: usize) -> SelVec {
        SelVec::identity(&GroupViews::from_groups(&[]), 0..rows)
    }

    #[test]
    fn identity_and_push() {
        let s = identity(4);
        assert_eq!(s.ids(), &[0, 1, 2, 3]);
        assert_eq!(s.len(), 4);
        let s = SelVec::identity(&GroupViews::from_groups(&[]), 2..5);
        assert_eq!(s.ids(), &[2, 3, 4]);
        let mut s = SelVec::new();
        s.push(1);
        s.push(5);
        assert_eq!(s.ids(), &[1, 5]);
        assert!(!s.is_empty());
        assert!(SelVec::new().is_empty());
    }

    #[test]
    fn extend_from_stitches_ranges() {
        let mut s = SelVec::from_ids(vec![0, 2]);
        s.extend_from(&SelVec::from_ids(vec![5, 6]));
        s.extend_from(&SelVec::new());
        assert_eq!(s.ids(), &[0, 2, 5, 6]);
    }

    #[test]
    fn gather_materializes_intermediate() {
        let col = [10, 20, 30, 40];
        let s = SelVec::from_ids(vec![0, 2, 3]);
        assert_eq!(s.gather(&col), vec![10, 30, 40]);
    }

    #[test]
    fn gather_crosses_chunk_boundaries() {
        // 19 ids: two full 8-id chunks plus a 3-id tail.
        let col: Vec<Value> = (0..40).map(|i| i * 100).collect();
        let ids: Vec<u32> = (0..19).map(|i| i * 2).collect();
        let s = SelVec::from_ids(ids.clone());
        let expect: Vec<Value> = ids.iter().map(|&i| col[i as usize]).collect();
        assert_eq!(s.gather(&col), expect);
        assert_eq!(SelVec::new().gather(&col), Vec::<Value>::new());
    }

    #[test]
    #[should_panic(expected = "engine capacity")]
    fn identity_rejects_rows_beyond_u32() {
        // Would previously truncate `rows as u32` and build a wrapped,
        // wrong id sequence. The guard fires before any allocation.
        let _ = identity(1usize << 33);
    }

    #[test]
    fn identity_accepts_max_rows_boundary_types() {
        // The cap itself is fine (can't allocate 16 GiB here, but the
        // guard must compare with <=, not <): probe the predicate directly.
        assert!(MAX_ROWS <= u32::MAX as usize);
        let s = identity(3);
        assert_eq!(s.ids(), &[0, 1, 2]);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    #[should_panic(expected = "ids must be sorted")]
    fn from_ids_rejects_unsorted_under_failpoints() {
        let _ = SelVec::from_ids(vec![3, 1, 2]);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    #[should_panic(expected = "must stay ascending")]
    fn extend_from_rejects_overlap_under_failpoints() {
        let mut s = SelVec::from_ids(vec![5, 9]);
        s.extend_from(&SelVec::from_ids(vec![7]));
    }

    #[test]
    fn selectivity() {
        let s = SelVec::from_ids(vec![0, 1]);
        assert!((s.selectivity(8) - 0.25).abs() < 1e-12);
        assert_eq!(SelVec::new().selectivity(0), 0.0);
    }

    #[test]
    fn bytes_footprint() {
        assert_eq!(identity(10).bytes(), 40);
    }
}
