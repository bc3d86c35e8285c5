//! # h2o-storage — physical data layouts for the H2O adaptive store
//!
//! This crate implements the storage substrate of H2O (Alagiannis, Idreos,
//! Ailamaki — SIGMOD 2014, §3.1): a relation whose attributes may be
//! materialized in **several physical layouts at the same time**:
//!
//! * **column-major** (DSM): each attribute in its own contiguous array,
//! * **row-major** (NSM): all attributes densely packed per tuple,
//! * **column groups**: vertical partitions storing a *subset* of the
//!   attributes row-major within the group.
//!
//! All three are represented by one physical structure, [`ColumnGroup`]: a
//! group of one attribute *is* a column, and a group of all attributes *is*
//! the row-major layout. This mirrors the paper's observation that columns
//! and rows are "the two extremes of the physical data layout design space".
//! A group is built from whole columns (relation loading) or adopted from
//! row-major segment payloads (reorganization); there is no row-at-a-time
//! builder, and [`LayoutCatalog::append_rows`] is the only way a group grows.
//!
//! The [`LayoutCatalog`] is the paper's *Data Layout Manager* (Fig. 3): it
//! owns every materialized group, guarantees the set of groups always covers
//! the full schema, and answers "which groups contain these attributes?".
//!
//! All attributes occupy a fixed-width 64-bit **lane word** (§3.1: "we
//! consider fixed length attributes"), interpreted per the schema's
//! [`LogicalType`]: `I64` integers (the paper's evaluation type), `F64`
//! doubles stored as their bit patterns, and `Dict` dictionary-encoded
//! strings ([`Dictionary`]) stored as dense codes. The fixed lane keeps
//! strided tuple access, segment layout, copy-on-write accounting and the
//! cache-miss cost model exact regardless of the mix of types.

pub mod attrset;
pub mod catalog;
pub mod dict;
pub mod error;
pub mod failpoints;
pub mod group;
pub mod relation;
pub mod schema;
pub mod types;

pub use attrset::AttrSet;
pub use catalog::{
    check_row_capacity, cover_fewest_groups, cover_least_excess, CatalogSnapshot, LayoutCatalog,
};
pub use dict::Dictionary;
pub use error::StorageError;
pub use group::{AppendDelta, ColumnGroup, SegStats, CHUNK_SHIFT, DEFAULT_SEG_SHIFT};
pub use relation::Relation;
pub use schema::{Attribute, Schema};
pub use types::{f64_lane, lane_f64, AttrId, LayoutId, LogicalType, Value, MAX_ROWS, VALUE_BYTES};
