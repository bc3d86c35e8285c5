//! Selection vectors: materialized lists of qualifying row ids.
//!
//! The column-major strategy materializes "vectors of matching positions"
//! (paper §3.3) between its column-at-a-time filter and its evaluation
//! phase, and its join sides walk them in 1K-id chunks. (The fused scan
//! holds one 1K-id block at a time instead, so the paper's two-phase
//! selection-vector plan needs no vector of its own.) Row ids are `u32` —
//! half the footprint of `usize`, which matters because the selection
//! vector is itself an intermediate result whose materialization cost the
//! paper charges to the column-style plans.

use crate::bind::GroupViews;
use h2o_storage::MAX_ROWS;
use std::ops::Range;

/// A sorted list of qualifying row ids.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SelVec {
    ids: Vec<u32>,
}

impl SelVec {
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
            return SelVec::default();
        }
        SelVec {
            ids: (range.start as u32..range.end as u32).collect(),
        }
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
    /// The ascending-stitch invariant is a `debug_assert!` normally and a
    /// hard `assert!` under the `failpoints` validation feature (the build
    /// CI runs the fault-matrix suite with).
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity(rows: usize) -> SelVec {
        SelVec::identity(&GroupViews::from_groups(&[]), 0..rows)
    }

    fn of(ids: &[u32]) -> SelVec {
        let mut s = SelVec::with_capacity(ids.len());
        ids.iter().for_each(|&id| s.push(id));
        s
    }

    #[test]
    fn identity_and_push() {
        let s = identity(4);
        assert_eq!(s.ids(), &[0, 1, 2, 3]);
        assert_eq!(s.len(), 4);
        let s = SelVec::identity(&GroupViews::from_groups(&[]), 2..5);
        assert_eq!(s.ids(), &[2, 3, 4]);
        let s = of(&[1, 5]);
        assert_eq!(s.ids(), &[1, 5]);
        assert!(!s.is_empty());
        assert!(SelVec::default().is_empty());
    }

    #[test]
    fn extend_from_stitches_ranges() {
        let mut s = of(&[0, 2]);
        s.extend_from(&of(&[5, 6]));
        s.extend_from(&SelVec::default());
        assert_eq!(s.ids(), &[0, 2, 5, 6]);
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
    #[should_panic(expected = "must stay ascending")]
    fn extend_from_rejects_overlap_under_failpoints() {
        let mut s = of(&[5, 9]);
        s.extend_from(&of(&[7]));
    }
}
