//! A relation = schema + the catalog of its materialized layouts.
//!
//! [`Relation`] is the unit the engine operates on. Constructors cover the
//! three starting points used in the paper's experiments: fully columnar
//! (Fig. 7 "relation R is initially stored in a column-major format"), fully
//! row-major (Fig. 9), or an arbitrary initial vertical partitioning.

use crate::catalog::LayoutCatalog;
use crate::error::StorageError;
use crate::group::ColumnGroup;
use crate::schema::Schema;
use crate::types::{AttrId, Value};
use crate::AttrSet;
use std::sync::Arc;

/// A relation with one or more coexisting physical layouts.
#[derive(Debug, Clone)]
pub struct Relation {
    catalog: LayoutCatalog,
}

impl Relation {
    /// Builds a relation stored **column-major**: one width-1 group per
    /// attribute. `columns[i]` holds the values of schema attribute `i`.
    pub fn columnar(schema: Arc<Schema>, columns: Vec<Vec<Value>>) -> Result<Self, StorageError> {
        let partition: Vec<Vec<AttrId>> = schema.attr_ids().map(|a| vec![a]).collect();
        Self::partitioned(schema, columns, partition)
    }

    /// Builds a relation stored **row-major**: a single group over the whole
    /// schema.
    pub fn row_major(schema: Arc<Schema>, columns: Vec<Vec<Value>>) -> Result<Self, StorageError> {
        let all: Vec<AttrId> = schema.attr_ids().collect();
        Self::partitioned(schema, columns, vec![all])
    }

    /// Builds a relation stored as an arbitrary set of column groups.
    /// `partition` must be a disjoint cover of the schema (each attribute in
    /// exactly one group); `columns` is indexed by schema attribute id.
    pub fn partitioned(
        schema: Arc<Schema>,
        columns: Vec<Vec<Value>>,
        partition: Vec<Vec<AttrId>>,
    ) -> Result<Self, StorageError> {
        Self::partitioned_with_shift(schema, columns, partition, crate::group::DEFAULT_SEG_SHIFT)
    }

    /// [`Self::partitioned`] with an explicit segment size (`1 << seg_shift`
    /// rows per payload segment). Small shifts let tests exercise many
    /// segments on tiny relations; a shift large enough that the whole
    /// relation fits one segment keeps everything in the unsealed tail
    /// (no sealed segments, so no zone maps).
    pub fn partitioned_with_shift(
        schema: Arc<Schema>,
        columns: Vec<Vec<Value>>,
        partition: Vec<Vec<AttrId>>,
        seg_shift: u32,
    ) -> Result<Self, StorageError> {
        if columns.len() != schema.len() {
            // One input column per schema attribute.
            return Err(StorageError::WidthMismatch {
                expected: schema.len(),
                got: columns.len(),
            });
        }
        let rows = columns.first().map_or(0, |c| c.len());
        for c in &columns {
            if c.len() != rows {
                return Err(StorageError::RowCountMismatch {
                    expected: rows,
                    got: c.len(),
                });
            }
        }
        let mut seen = AttrSet::new();
        for grp in &partition {
            for &a in grp {
                if !schema.contains(a) {
                    return Err(StorageError::UnknownAttr(a));
                }
                if !seen.insert(a) {
                    return Err(StorageError::DuplicateAttr(a));
                }
            }
        }
        if let Some(missing) = schema.attr_ids().find(|a| !seen.contains(*a)) {
            return Err(StorageError::NoCover(missing));
        }

        let mut catalog = LayoutCatalog::new(schema.clone(), rows);
        for attrs in partition {
            let refs: Vec<&[Value]> = attrs
                .iter()
                .map(|a| columns[a.index()].as_slice())
                .collect();
            let types = schema.types_for(&attrs)?;
            let g = ColumnGroup::from_columns_typed(attrs, types, &refs, seg_shift)?;
            catalog.add_group(g)?;
        }
        Ok(Relation { catalog })
    }

    /// Builds a row-major relation from tuples (mostly for tests/examples).
    pub fn from_rows(schema: Arc<Schema>, rows: &[Vec<Value>]) -> Result<Self, StorageError> {
        let width = schema.len();
        let mut columns = vec![Vec::with_capacity(rows.len()); width];
        for (i, r) in rows.iter().enumerate() {
            if r.len() != width {
                return Err(StorageError::WidthMismatch {
                    expected: width,
                    got: r.len(),
                });
            }
            for (c, &v) in r.iter().enumerate() {
                columns[c].push(v);
            }
            let _ = i;
        }
        Self::row_major(schema, columns)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        self.catalog.schema()
    }

    /// Number of tuples.
    pub fn rows(&self) -> usize {
        self.catalog.rows()
    }

    /// Immutable access to the layout catalog.
    pub fn catalog(&self) -> &LayoutCatalog {
        &self.catalog
    }

    /// Unwraps the relation into its catalog (the engine's snapshot
    /// publishing works on bare catalog values).
    pub fn into_catalog(self) -> LayoutCatalog {
        self.catalog
    }

    /// Reads a single logical cell by searching any group that stores the
    /// attribute. O(groups) — a test/debug oracle, never used by execution.
    pub fn cell(&self, row: usize, attr: AttrId) -> Result<Value, StorageError> {
        self.catalog.cell(row, attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols3() -> Vec<Vec<Value>> {
        vec![vec![1, 2, 3], vec![10, 20, 30], vec![100, 200, 300]]
    }

    #[test]
    fn columnar_layout_shape() {
        let r = Relation::columnar(Schema::with_width(3).into_shared(), cols3()).unwrap();
        assert_eq!(r.catalog().group_count(), 3);
        assert!(r.catalog().groups().all(|g| g.width() == 1));
        assert_eq!(r.cell(1, AttrId(2)).unwrap(), 200);
        assert!(r.catalog().covers_schema());
    }

    #[test]
    fn row_major_layout_shape() {
        let r = Relation::row_major(Schema::with_width(3).into_shared(), cols3()).unwrap();
        assert_eq!(r.catalog().group_count(), 1);
        let g = r.catalog().groups().next().unwrap();
        assert_eq!(g.width(), 3);
        assert_eq!(g.tuple(2), &[3, 30, 300]);
    }

    #[test]
    fn partitioned_layout() {
        let r = Relation::partitioned(
            Schema::with_width(3).into_shared(),
            cols3(),
            vec![vec![AttrId(0), AttrId(2)], vec![AttrId(1)]],
        )
        .unwrap();
        assert_eq!(r.catalog().group_count(), 2);
        assert_eq!(r.cell(0, AttrId(0)).unwrap(), 1);
        assert_eq!(r.cell(0, AttrId(1)).unwrap(), 10);
        assert_eq!(r.cell(0, AttrId(2)).unwrap(), 100);
    }

    #[test]
    fn partition_must_cover_and_be_disjoint() {
        let schema = Schema::with_width(3).into_shared();
        // Missing attribute 2.
        assert!(matches!(
            Relation::partitioned(
                schema.clone(),
                cols3(),
                vec![vec![AttrId(0)], vec![AttrId(1)]]
            ),
            Err(StorageError::NoCover(_))
        ));
        // Attribute 1 twice.
        assert!(matches!(
            Relation::partitioned(
                schema,
                cols3(),
                vec![vec![AttrId(0), AttrId(1)], vec![AttrId(1), AttrId(2)]]
            ),
            Err(StorageError::DuplicateAttr(_))
        ));
    }

    #[test]
    fn ragged_columns_rejected() {
        let schema = Schema::with_width(2).into_shared();
        let res = Relation::columnar(schema, vec![vec![1, 2], vec![1]]);
        assert!(matches!(res, Err(StorageError::RowCountMismatch { .. })));
    }

    #[test]
    fn from_rows_roundtrip() {
        let schema = Schema::with_width(2).into_shared();
        let r = Relation::from_rows(schema, &[vec![1, 2], vec![3, 4]]).unwrap();
        assert_eq!(r.rows(), 2);
        assert_eq!(r.cell(1, AttrId(0)).unwrap(), 3);
        assert_eq!(r.cell(1, AttrId(1)).unwrap(), 4);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let schema = Schema::with_width(2).into_shared();
        assert!(Relation::from_rows(schema, &[vec![1, 2], vec![3]]).is_err());
    }

    #[test]
    fn empty_relation() {
        let schema = Schema::with_width(2).into_shared();
        let r = Relation::columnar(schema, vec![vec![], vec![]]).unwrap();
        assert_eq!(r.rows(), 0);
        assert!(r.catalog().covers_schema());
    }
}
