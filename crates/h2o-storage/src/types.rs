//! Fundamental identifier and value types shared across the engine.

use std::fmt;

/// The physical **lane word** of the engine.
///
/// H2O's evaluation (SIGMOD 2014, §2.2 and §4) uses relations of fixed-width
/// attributes; we adopt a single 64-bit physical lane. Every attribute
/// occupies exactly [`VALUE_BYTES`] bytes in every layout, which is what
/// makes strided tuple access and the cache-miss cost model exact.
///
/// The lane is *typed* by the schema ([`LogicalType`]): an `I64` attribute
/// stores the integer directly, an `F64` attribute stores the IEEE-754 bit
/// pattern ([`f64_lane`]/[`lane_f64`]), and a `Dict` attribute stores a
/// dense dictionary code (see [`Dictionary`](crate::dict::Dictionary)).
/// Because every type occupies the same 64-bit word, segment layout,
/// copy-on-write accounting and the cost model are type-oblivious; only
/// comparisons and arithmetic consult the type.
pub type Value = i64;

/// Width of one stored value in bytes (used by the cost model).
pub const VALUE_BYTES: usize = std::mem::size_of::<Value>();

/// Maximum number of rows a relation may hold.
///
/// Selection vectors (`h2o-exec`'s `SelVec`) store row ids as `u32` —
/// half the footprint of `usize`, an intermediate-result cost the paper
/// charges to the column-style plans — so the engine-wide row-id domain is
/// `0..=u32::MAX - 1`. The cap is enforced at append time
/// ([`check_row_capacity`](crate::catalog::check_row_capacity)) and again
/// when execution binds views, so a relation can never silently wrap a
/// 32-bit row id and return wrong rows.
pub const MAX_ROWS: usize = u32::MAX as usize;

/// Re-encodes an `f64` as its lane word (the IEEE-754 bit pattern).
#[inline(always)]
pub fn f64_lane(x: f64) -> Value {
    x.to_bits() as Value
}

/// Decodes an `F64` lane word back into the `f64` it stores.
#[inline(always)]
pub fn lane_f64(v: Value) -> f64 {
    f64::from_bits(v as u64)
}

/// The logical type of one schema attribute, fixing how its 64-bit lane
/// words are interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LogicalType {
    /// Signed 64-bit integer (the paper's evaluation type; the default).
    #[default]
    I64,
    /// IEEE-754 double, stored as its bit pattern. Ordering follows
    /// [`f64::total_cmp`] everywhere (comparators, min/max aggregates,
    /// zone maps, grouped-key sorting), so NaNs and signed zeros order
    /// deterministically on every execution strategy.
    F64,
    /// Dictionary-encoded string: the lane word is a dense non-negative
    /// code into a per-attribute [`Dictionary`](crate::dict::Dictionary).
    /// Codes follow first-appearance order, so only `=` / `<>` predicates
    /// are meaningful (the planner rejects range predicates on `Dict`).
    Dict,
}

impl LogicalType {
    /// Short lowercase name for error messages and harness output.
    pub fn name(self) -> &'static str {
        match self {
            LogicalType::I64 => "i64",
            LogicalType::F64 => "f64",
            LogicalType::Dict => "dict",
        }
    }

    /// Whether arithmetic is defined over the type.
    pub fn is_numeric(self) -> bool {
        !matches!(self, LogicalType::Dict)
    }

    /// Maps a lane word to its **comparator key**: an `i64` whose native
    /// ordering equals the type's logical ordering. `I64`/`Dict` are the
    /// identity; `F64` uses the classic sign-magnitude fix-up, making
    /// integer comparison of keys exactly [`f64::total_cmp`] of the stored
    /// doubles (`-NaN < -inf < ... < -0.0 < +0.0 < ... < +inf < +NaN`).
    ///
    /// The mapping is an **involution** (`cmp_key(cmp_key(v)) == v`), so
    /// min/max accumulators and zone-map statistics can live entirely in
    /// key space and be decoded by applying the same function again. It is
    /// also a bijection, so `=`/`<>` are preserved. This is what keeps
    /// every ordering operation in the kernels a branch-free integer
    /// compare regardless of the attribute type.
    #[inline(always)]
    pub fn cmp_key(self, lane: Value) -> Value {
        match self {
            LogicalType::I64 | LogicalType::Dict => lane,
            // For non-negative bit patterns the mask is 0 (identity); for
            // negative ones it flips the 63 magnitude bits, reversing the
            // order of negative doubles while keeping them below zero.
            LogicalType::F64 => lane ^ (((lane >> 63) as u64) >> 1) as Value,
        }
    }
}

/// A logical attribute (column) of the relation, identified by its position
/// in the [`Schema`](crate::schema::Schema).
///
/// `AttrId` is a dense index, so attribute sets can be represented as
/// bitsets ([`AttrSet`](crate::attrset::AttrSet)) and per-attribute tables as
/// plain vectors.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(pub u32);

impl AttrId {
    /// The attribute's dense index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl From<u32> for AttrId {
    fn from(v: u32) -> Self {
        AttrId(v)
    }
}

impl From<usize> for AttrId {
    fn from(v: usize) -> Self {
        AttrId(u32::try_from(v).expect("attribute index exceeds u32"))
    }
}

/// Identifier of a materialized physical layout (a [`ColumnGroup`](crate::group::ColumnGroup)) inside
/// the [`LayoutCatalog`](crate::catalog::LayoutCatalog).
///
/// Layout ids are never reused: dropping a group retires its id. This lets
/// the adaptation layer keep references to historical layouts (e.g. in the
/// transformation-cost bookkeeping of Eq. 1) without ABA confusion.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LayoutId(pub u32);

impl LayoutId {
    /// The raw id value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for LayoutId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl fmt::Display for LayoutId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_id_roundtrip() {
        let a = AttrId::from(7usize);
        assert_eq!(a.index(), 7);
        assert_eq!(format!("{a}"), "a7");
        assert_eq!(format!("{a:?}"), "a7");
        assert_eq!(AttrId::from(7u32), a);
    }

    #[test]
    fn layout_id_display() {
        let l = LayoutId(3);
        assert_eq!(l.raw(), 3);
        assert_eq!(format!("{l}"), "L3");
    }

    #[test]
    fn value_is_eight_bytes() {
        assert_eq!(VALUE_BYTES, 8);
    }

    #[test]
    fn f64_lane_round_trips() {
        for x in [0.0, -0.0, 1.5, -273.15, f64::MAX, f64::MIN_POSITIVE] {
            assert_eq!(lane_f64(f64_lane(x)).to_bits(), x.to_bits());
        }
        assert!(lane_f64(f64_lane(f64::NAN)).is_nan());
    }

    #[test]
    fn cmp_key_orders_like_total_cmp() {
        let samples = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0000000000000002,
            3e17,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for &a in &samples {
            for &b in &samples {
                let ka = LogicalType::F64.cmp_key(f64_lane(a));
                let kb = LogicalType::F64.cmp_key(f64_lane(b));
                assert_eq!(ka.cmp(&kb), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn cmp_key_is_an_involution_and_identity_for_integers() {
        for v in [
            0,
            1,
            -1,
            i64::MAX,
            i64::MIN,
            f64_lane(-7.25),
            f64_lane(f64::NAN),
        ] {
            assert_eq!(
                LogicalType::F64.cmp_key(LogicalType::F64.cmp_key(v)),
                v,
                "involution"
            );
            assert_eq!(LogicalType::I64.cmp_key(v), v);
            assert_eq!(LogicalType::Dict.cmp_key(v), v);
        }
    }

    #[test]
    fn logical_type_names() {
        assert_eq!(LogicalType::I64.name(), "i64");
        assert_eq!(LogicalType::F64.name(), "f64");
        assert_eq!(LogicalType::Dict.name(), "dict");
        assert!(LogicalType::F64.is_numeric());
        assert!(!LogicalType::Dict.is_numeric());
        assert_eq!(LogicalType::default(), LogicalType::I64);
    }

    #[test]
    fn attr_id_ordering_follows_index() {
        assert!(AttrId(1) < AttrId(2));
        let mut v = vec![AttrId(5), AttrId(1), AttrId(3)];
        v.sort();
        assert_eq!(v, vec![AttrId(1), AttrId(3), AttrId(5)]);
    }
}
