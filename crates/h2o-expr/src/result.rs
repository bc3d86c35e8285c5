//! Query results: row-major output blocks.
//!
//! Per the paper (§3.3): "All executions strategies materialize the output
//! results in memory using contiguous memory blocks in a row-major layout."
//! [`QueryResult`] is that block: a flat `Vec<Value>` of **lane words**
//! with a fixed width. Lanes are what fingerprints and differential tests
//! compare (bit-identical across strategies, `f64` bit patterns included);
//! [`QueryResult::render`] decodes them into typed [`Datum`]s for display,
//! given the output column types a plan-time
//! [`typecheck::check`](crate::typecheck::check) reports.

use crate::datum::Datum;
use h2o_storage::{Dictionary, LogicalType, Value};
use std::sync::Arc;

/// A materialized query result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    width: usize,
    data: Vec<Value>,
}

impl QueryResult {
    /// Creates an empty result with `width` values per row.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "result rows cannot be zero-width");
        QueryResult {
            width,
            data: Vec::new(),
        }
    }

    /// Creates an empty result pre-sized for `rows_hint` rows.
    pub fn with_capacity(width: usize, rows_hint: usize) -> Self {
        assert!(width > 0, "result rows cannot be zero-width");
        QueryResult {
            width,
            data: Vec::with_capacity(width * rows_hint),
        }
    }

    /// Wraps an existing row-major buffer.
    pub fn from_rows(width: usize, data: Vec<Value>) -> Self {
        assert!(width > 0 && data.len().is_multiple_of(width));
        QueryResult { width, data }
    }

    /// Values per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.data.len() / self.width
    }

    /// Whether the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends one output row.
    #[inline]
    pub fn push_row(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.width);
        self.data.extend_from_slice(row);
    }

    /// Appends `n` zeroed rows and returns their lanes, row-major, to be
    /// filled in place (a batch evaluates its output rows straight into
    /// the block).
    #[inline]
    pub fn extend_rows(&mut self, n: usize) -> &mut [Value] {
        let at = self.data.len();
        self.data.resize(at + n * self.width, 0);
        &mut self.data[at..]
    }

    /// Appends all rows of `other` (same width) — the stitch step of
    /// morsel-parallel projections: per-morsel result blocks concatenate in
    /// morsel order into the exact buffer a serial scan would produce.
    #[inline]
    pub fn append(&mut self, other: &QueryResult) {
        debug_assert_eq!(self.width, other.width);
        self.data.extend_from_slice(&other.data);
    }

    /// The `i`-th row.
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// The raw row-major buffer.
    pub fn data(&self) -> &[Value] {
        &self.data
    }

    /// Iterates over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[Value]> {
        self.data.chunks_exact(self.width)
    }

    /// Decodes row `i` into typed [`Datum`]s. `types` gives the output
    /// column types (from
    /// [`SelectTypes::output_types`](crate::typecheck::SelectTypes::output_types));
    /// `dicts` the per-column dictionary for `Dict` columns (`None`
    /// entries — or a short slice — decode codes as raw integers).
    pub fn row_datums(
        &self,
        i: usize,
        types: &[LogicalType],
        dicts: &[Option<Arc<Dictionary>>],
    ) -> Vec<Datum> {
        debug_assert_eq!(types.len(), self.width);
        self.row(i)
            .iter()
            .zip(types)
            .enumerate()
            .map(|(c, (&lane, &ty))| {
                Datum::from_lane(ty, lane, dicts.get(c).and_then(|d| d.as_deref()))
            })
            .collect()
    }

    /// Renders the whole result as text, one `(v1, v2, ...)` line per row,
    /// decoding each column per `types`/`dicts` (see
    /// [`Self::row_datums`]). The human-facing face of the lane block;
    /// everything mechanical (fingerprints, differential tests) stays on
    /// raw lanes.
    pub fn render(&self, types: &[LogicalType], dicts: &[Option<Arc<Dictionary>>]) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for i in 0..self.rows() {
            let row = self.row_datums(i, types, dicts);
            out.push('(');
            for (c, d) in row.iter().enumerate() {
                if c > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{d}");
            }
            out.push_str(")\n");
        }
        out
    }

    /// A stable fingerprint of the result **as a multiset of rows** (FNV-1a
    /// over sorted rows). Differential tests compare engines with this:
    /// projection order across layouts follows physical row order, which is
    /// identical for all layouts here, but sorting makes the check
    /// order-insensitive and therefore future-proof.
    pub fn fingerprint(&self) -> u64 {
        let mut rows: Vec<&[Value]> = self.iter_rows().collect();
        rows.sort_unstable();
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        for row in rows {
            for v in row {
                for b in v.to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(PRIME);
                }
            }
            h ^= 0xff;
            h = h.wrapping_mul(PRIME);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_rows() {
        let mut r = QueryResult::new(2);
        r.push_row(&[1, 2]);
        r.push_row(&[3, 4]);
        assert_eq!(r.rows(), 2);
        assert_eq!(r.width(), 2);
        assert_eq!(r.row(1), &[3, 4]);
        let rows: Vec<_> = r.iter_rows().collect();
        assert_eq!(rows, vec![&[1, 2][..], &[3, 4][..]]);
    }

    #[test]
    fn single_width_rows() {
        let mut r = QueryResult::with_capacity(1, 4);
        r.push_row(&[7]);
        r.push_row(&[9]);
        assert_eq!(r.data(), &[7, 9]);
        assert!(!r.is_empty());
    }

    #[test]
    fn append_concatenates_blocks() {
        let mut a = QueryResult::new(2);
        a.push_row(&[1, 2]);
        let mut b = QueryResult::new(2);
        b.push_row(&[3, 4]);
        b.push_row(&[5, 6]);
        a.append(&b);
        a.append(&QueryResult::new(2));
        assert_eq!(a.rows(), 3);
        assert_eq!(a.data(), &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn fingerprint_is_order_insensitive() {
        let mut a = QueryResult::new(2);
        a.push_row(&[1, 2]);
        a.push_row(&[3, 4]);
        let mut b = QueryResult::new(2);
        b.push_row(&[3, 4]);
        b.push_row(&[1, 2]);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_contents() {
        let mut a = QueryResult::new(1);
        a.push_row(&[1]);
        let mut b = QueryResult::new(1);
        b.push_row(&[2]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Row-boundary sensitivity: [1,2] as one row vs two rows.
        let mut c = QueryResult::new(2);
        c.push_row(&[1, 2]);
        let mut d = QueryResult::new(1);
        d.push_row(&[1]);
        d.push_row(&[2]);
        assert_ne!(c.fingerprint(), d.fingerprint());
    }

    #[test]
    fn from_rows_roundtrip() {
        let r = QueryResult::from_rows(3, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(r.rows(), 2);
        assert_eq!(r.row(0), &[1, 2, 3]);
    }

    #[test]
    #[should_panic]
    fn from_rows_rejects_ragged() {
        QueryResult::from_rows(2, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "zero-width")]
    fn zero_width_rejected() {
        QueryResult::new(0);
    }

    #[test]
    fn typed_rendering_decodes_lanes() {
        use h2o_storage::f64_lane;
        let d = Dictionary::with_labels(["STAR", "GALAXY"]);
        let mut r = QueryResult::new(3);
        r.push_row(&[1, f64_lane(2.5), f64_lane(-0.5)]);
        r.push_row(&[0, f64_lane(0.25), f64_lane(4.0)]);
        let types = [LogicalType::Dict, LogicalType::F64, LogicalType::F64];
        let dicts = [Some(Arc::new(d)), None, None];
        assert_eq!(
            r.row_datums(0, &types, &dicts),
            vec![Datum::from("GALAXY"), Datum::F64(2.5), Datum::F64(-0.5)]
        );
        let text = r.render(&types, &dicts);
        assert_eq!(text, "(\"GALAXY\", 2.5, -0.5)\n(\"STAR\", 0.25, 4.0)\n");
        // Fingerprints stay on raw lanes: rendering is presentation only.
        assert_eq!(r.fingerprint(), r.clone().fingerprint());
    }
}
