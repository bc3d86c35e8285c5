//! Aggregate functions over expressions.
//!
//! The paper's micro-benchmarks aggregate to "minimize the number of tuples
//! returned from the DBMS" (§2.2); template (ii) is
//! `select max(a), max(b), ... from R where <predicates>`.

use crate::expr::Expr;
use h2o_storage::{f64_lane, lane_f64, LogicalType, Value};
use std::fmt;

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Sum,
    Min,
    Max,
    Count,
    /// Integer average: `sum / count` with truncation, `0` for empty input —
    /// deterministic so all execution strategies agree.
    Avg,
}

impl AggFunc {
    /// The SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Count => "count",
            AggFunc::Avg => "avg",
        }
    }
}

/// One aggregate select-item: `func(expr)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Aggregate {
    pub func: AggFunc,
    pub expr: Expr,
}

impl Aggregate {
    /// Creates an aggregate.
    pub fn new(func: AggFunc, expr: Expr) -> Self {
        Aggregate { func, expr }
    }

    /// `sum(expr)`.
    pub fn sum(expr: Expr) -> Self {
        Self::new(AggFunc::Sum, expr)
    }

    /// `max(expr)`.
    pub fn max(expr: Expr) -> Self {
        Self::new(AggFunc::Max, expr)
    }

    /// `min(expr)`.
    pub fn min(expr: Expr) -> Self {
        Self::new(AggFunc::Min, expr)
    }

    /// `count(*)` (the expression is ignored but kept for uniformity).
    pub fn count() -> Self {
        Self::new(AggFunc::Count, Expr::lit(1))
    }

    /// `avg(expr)`.
    pub fn avg(expr: Expr) -> Self {
        Self::new(AggFunc::Avg, expr)
    }
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.func.name(), self.expr)
    }
}

/// A fully typed aggregate operation: the function plus the logical type
/// of its input lanes. This is what compiled programs carry — the kernels'
/// inner loops dispatch on it once, outside the row loop.
///
/// `From<AggFunc>` supplies the `I64` default, so `AggState::new(AggFunc::
/// Sum)` keeps meaning what it always did for the paper's all-integer
/// relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AggOp {
    pub func: AggFunc,
    /// Type of the aggregate's *input* expression. Must be numeric except
    /// for `count`, whose input is ignored.
    pub ty: LogicalType,
}

impl AggOp {
    /// Creates a typed aggregate op.
    pub fn new(func: AggFunc, ty: LogicalType) -> Self {
        AggOp { func, ty }
    }

    /// The logical type of the aggregate's **output** lane: `count` is
    /// always `I64`; everything else preserves its input type.
    pub fn output_type(self) -> LogicalType {
        match self.func {
            AggFunc::Count => LogicalType::I64,
            _ => self.ty,
        }
    }
}

impl From<AggFunc> for AggOp {
    fn from(func: AggFunc) -> Self {
        AggOp {
            func,
            ty: LogicalType::I64,
        }
    }
}

/// Running state for one aggregate. Every execution strategy — interpreted,
/// volcano, vectorized, fused kernels — folds tuples through this same
/// accumulator, which is what guarantees identical results across layouts.
///
/// # Typed accumulation
///
/// `sum`/`avg` accumulate in the input's numeric domain (`i64` wrapping, or
/// IEEE-754 `f64` in fold order). `min`/`max` accumulate **comparator
/// keys** ([`LogicalType::cmp_key`]): the running extremum is kept in key
/// space where comparison is one integer instruction for every type, and
/// [`AggState::finish`] maps it back (the key function is an involution).
/// For `F64` this realizes `total_cmp` min/max exactly.
///
/// # The fold-order contract
///
/// Every accumulator except the `F64` sum is **associative and
/// commutative** in its lane domain — wrapping `i64` addition, key-space
/// `min`/`max`, counting — so kernels may fold qualifying values in any
/// order (including split across SIMD lanes) and still produce the exact
/// state a sequential row-order fold would. The `F64` sum is the one
/// exception: IEEE-754 addition does not associate (`(1e16 + 1.0) + 1.0 ≠
/// 1e16 + (1.0 + 1.0)`), so its fold order is pinned to **ascending row
/// order within a morsel, morsel order across morsels**. Vectorized
/// kernels therefore lane-split integer sums and min/max freely but keep
/// `F64` sums as one in-order scalar chain per morsel, vectorizing only
/// the qualifying-row scan around them (see `h2o-exec`'s
/// `kernels::simd`). The `f64_sum_fold_order_is_pinned` test nails the
/// contract down. A **serial** execution is one morsel — the single range
/// `0..rows` — for every source `h2o-exec` drives (scans, the fused
/// reorganization operator, and join probes alike), so "serial ≡
/// interpreter bit-for-bit" holds for `F64` sums on arbitrary values, and
/// it holds for joins too (`tests/joins.rs` pins it on non-dyadic data).
/// Within a range, every batch (a scan's 1K-row block, an id chunk, a
/// reorganization chunk) continues the range's states — [`Self::fold`],
/// or the per-column tier through [`Self::raw`] — instead of merging
/// per-batch partials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggState {
    op: AggOp,
    /// Sum accumulator in the input's lane domain (`f64` bit pattern for
    /// `F64` inputs).
    sum: Value,
    /// Running minimum in comparator-key space.
    min: Value,
    /// Running maximum in comparator-key space.
    max: Value,
    count: u64,
}

impl AggState {
    /// Fresh accumulator for `op` (a bare [`AggFunc`] defaults to `I64`
    /// input lanes).
    pub fn new<O: Into<AggOp>>(op: O) -> Self {
        AggState {
            op: op.into(),
            sum: 0, // 0i64, and also the bit pattern of +0.0f64
            min: Value::MAX,
            max: Value::MIN,
            count: 0,
        }
    }

    /// Folds one input lane. Only the fields the function needs are
    /// maintained — this runs once per (aggregate, qualifying tuple) in
    /// every kernel's inner loop, so a `max(..)` must cost a compare, not
    /// a compare plus three unrelated updates.
    #[inline(always)]
    pub fn update(&mut self, v: Value) {
        self.update_as(self.op, v)
    }

    /// [`Self::update`] through `op`, which must be this state's own: a
    /// caller folding a column of states that share one op passes it as a
    /// loop-invariant, so the function dispatch leaves the row loop
    /// ([`GroupedAggs::fold_block`](crate::GroupedAggs::fold_block)).
    #[inline(always)]
    pub(crate) fn update_as(&mut self, op: AggOp, v: Value) {
        debug_assert_eq!(op, self.op);
        match op.func {
            AggFunc::Sum => self.sum = add_sum(op.ty, self.sum, v),
            AggFunc::Min => {
                self.min = self.min.min(op.ty.cmp_key(v));
                self.count += 1;
            }
            AggFunc::Max => {
                self.max = self.max.max(op.ty.cmp_key(v));
                self.count += 1;
            }
            AggFunc::Count => self.count += 1,
            AggFunc::Avg => {
                self.sum = add_sum(op.ty, self.sum, v);
                self.count += 1;
            }
        }
    }

    /// [`Self::update_as`] `n` times (`n` at least one), bit for bit, at
    /// `O(1)` cost for every function but the `F64` sum: a wrapping
    /// integer sum adds `v * n`, min/max fold the extremum once, counts
    /// advance by `n`, and an `F64` sum adds `v` `n` times in sequence
    /// (one multiply would round differently). The multiplicity step of
    /// [`Self::fold`] and [`fold_column`].
    #[inline(always)]
    fn update_times(&mut self, op: AggOp, v: Value, n: u64) {
        debug_assert_eq!(op, self.op);
        debug_assert!(n > 0);
        match op.func {
            AggFunc::Sum => self.sum = add_n_to_sum(op.ty, self.sum, v, n),
            AggFunc::Min => {
                self.min = self.min.min(op.ty.cmp_key(v));
                self.count += n;
            }
            AggFunc::Max => {
                self.max = self.max.max(op.ty.cmp_key(v));
                self.count += n;
            }
            AggFunc::Count => self.count += n,
            AggFunc::Avg => {
                self.sum = add_n_to_sum(op.ty, self.sum, v, n);
                self.count += n;
            }
        }
    }

    /// Merges another accumulator. This is the combine step of parallel
    /// execution: each morsel folds its rows into a private `AggState` and
    /// the partials are merged in morsel order. The integer merge
    /// operations — wrapping sum, key-space min/max, count addition — are
    /// associative with `AggState::new` as identity, so any grouping of
    /// morsels yields the same final state as a single sequential fold.
    /// `f64` sums are merged in morsel order (the engine-wide float
    /// determinism convention: ordered sums within a morsel, merge order
    /// pinned by the scheduler; the workload generators draw doubles from
    /// dyadic grids so these sums are exact and association-independent —
    /// the differential tests assert bit-identical results).
    pub fn merge(&mut self, other: &AggState) {
        debug_assert_eq!(self.op, other.op);
        self.sum = add_sum(self.op.ty, self.sum, other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
    }

    /// Reconstructs an accumulator from a kernel's raw partial: `raw` is
    /// the specialized loop's accumulator value — the sum lane for
    /// `sum`/`avg`, the extremum **in comparator-key space** for
    /// `min`/`max` (identical to the raw lane for `I64`), ignored for
    /// `count` — and `count` the number of folded values, which a `sum`
    /// drops (it keeps none, as in [`Self::update`]), so the state is
    /// field-identical to the scalar fold's. Bridges the
    /// offset-specialized kernels — which accumulate into flat `Value`
    /// slots rather than `AggState`s — into the mergeable form the
    /// parallel driver combines.
    pub fn from_parts<O: Into<AggOp>>(op: O, raw: Value, count: u64) -> AggState {
        let mut st = AggState::new(op);
        if st.op.func != AggFunc::Sum {
            st.count = count;
        }
        match st.op.func {
            AggFunc::Sum | AggFunc::Avg => st.sum = raw,
            AggFunc::Min => st.min = raw,
            AggFunc::Max => st.max = raw,
            AggFunc::Count => {}
        }
        st
    }

    /// The inverse of [`Self::from_parts`]'s `raw` (`0` for `count`).
    pub fn raw(&self) -> Value {
        match self.op.func {
            AggFunc::Sum | AggFunc::Avg => self.sum,
            AggFunc::Min => self.min,
            AggFunc::Max => self.max,
            AggFunc::Count => 0,
        }
    }

    /// Finishes the aggregate into an output lane. Empty-input results are
    /// the zero lane for every function and type (`0` / `0.0` — SQL would
    /// say NULL; the engine has no nulls, and all strategies agree on this
    /// convention).
    pub fn finish(&self) -> Value {
        match self.op.func {
            AggFunc::Sum => self.sum,
            AggFunc::Count => self.count as Value,
            AggFunc::Min => {
                if self.count == 0 {
                    0
                } else {
                    // cmp_key is an involution: map the key back to a lane.
                    self.op.ty.cmp_key(self.min)
                }
            }
            AggFunc::Max => {
                if self.count == 0 {
                    0
                } else {
                    self.op.ty.cmp_key(self.max)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    0
                } else {
                    match self.op.ty {
                        LogicalType::F64 => f64_lane(lane_f64(self.sum) / self.count as f64),
                        _ => self.sum.wrapping_div(self.count as Value),
                    }
                }
            }
        }
    }

    /// Number of folded values (not maintained for `sum` accumulators,
    /// which do not need it).
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// The one sum step of every fold and merge: `acc + v` in `ty`'s lane
/// domain (an `F64` add on the bit patterns, a wrapping integer add
/// otherwise).
#[inline(always)]
fn add_sum(ty: LogicalType, acc: Value, v: Value) -> Value {
    match ty {
        LogicalType::F64 => f64_lane(lane_f64(acc) + lane_f64(v)),
        _ => acc.wrapping_add(v),
    }
}

/// `acc + v` added `n` times in `ty`'s lane domain: `v * n` for a wrapping
/// integer sum (the same bits modulo 2^64), `n` sequential additions for
/// `F64`, whose rounding makes `a + n*v` differ from `((a+v)+v)+…` — a
/// multiplicity fold must equal the per-pair loop bit for bit.
#[inline(always)]
fn add_n_to_sum(ty: LogicalType, acc: Value, v: Value, n: u64) -> Value {
    match ty {
        LogicalType::F64 => {
            let (mut a, x) = (lane_f64(acc), lane_f64(v));
            for _ in 0..n {
                a += x;
            }
            f64_lane(a)
        }
        _ => acc.wrapping_add(v.wrapping_mul(n as Value)),
    }
}

/// The grouped column fold: folds row `i` of one aggregate's input column
/// `col` into `states[ids[i] * stride]`, in row order, `mults[i]` times
/// when multiplicities are given (each at least one, bit-identical to that
/// many [`AggState::update`]s) and once otherwise. Every state it reaches
/// must have the op `op`, which is dispatched once per call, not per row,
/// so the row loop holds one function's step. A `count` never reads
/// `col`. Folding row by row in order keeps each state's `F64` sum one
/// chain, so the column folds bit-identically to the per-row updates.
///
/// Its callers are [`GroupedAggs::fold_block`](crate::GroupedAggs::fold_block),
/// the grouped half of every block pipeline (scan blocks, id chunks, the
/// join's hit rows and matched pairs), and the join's build-groups plan,
/// which folds its hit rows into the groups a build key reaches.
/// [`AggState::fold`] is the same fold into one state, the scalar half.
pub fn fold_column(
    states: &mut [AggState],
    stride: usize,
    op: AggOp,
    ids: &[u32],
    col: &[Value],
    mults: Option<&[u32]>,
) {
    with_const_func(op, |op| match (op.func, mults) {
        (AggFunc::Count, None) => {
            for &id in ids {
                states[id as usize * stride].update_as(op, 0);
            }
        }
        (AggFunc::Count, Some(m)) => {
            for (&id, &m) in ids.iter().zip(m) {
                states[id as usize * stride].update_times(op, 0, u64::from(m));
            }
        }
        (_, None) => {
            for (&id, &v) in ids.iter().zip(col) {
                states[id as usize * stride].update_as(op, v);
            }
        }
        (_, Some(m)) => {
            for ((&id, &v), &m) in ids.iter().zip(col).zip(m) {
                states[id as usize * stride].update_times(op, v, u64::from(m));
            }
        }
    });
}

/// Calls `f` with `op`, whose function is a constant at each of the five
/// call sites, so a row loop inside `f` is compiled once per aggregate
/// function and holds that function's step alone.
#[inline(always)]
fn with_const_func(op: AggOp, mut f: impl FnMut(AggOp)) {
    let with = |func| AggOp { func, ..op };
    match op.func {
        AggFunc::Sum => f(with(AggFunc::Sum)),
        AggFunc::Min => f(with(AggFunc::Min)),
        AggFunc::Max => f(with(AggFunc::Max)),
        AggFunc::Avg => f(with(AggFunc::Avg)),
        AggFunc::Count => f(with(AggFunc::Count)),
    }
}

impl AggState {
    /// [`fold_column`] into this one state: folds `n` rows, row `i`'s
    /// input `col[i]` in order, `mults[i]` times when multiplicities are
    /// given (each at least one) and once otherwise — bit-identical to
    /// that many [`Self::update`]s. A `count` reads no lane (`col` may be
    /// empty). The batch step of a scalar aggregate folds each input
    /// column this way, whatever source evaluated it.
    pub fn fold(&mut self, n: usize, col: &[Value], mults: Option<&[u32]>) {
        let mut st = *self;
        with_const_func(self.op, |op| match (op.func, mults) {
            (AggFunc::Count, None) => st.count += n as u64,
            (AggFunc::Count, Some(m)) => st.count += m.iter().map(|&m| u64::from(m)).sum::<u64>(),
            (_, None) => col.iter().for_each(|&v| st.update_as(op, v)),
            (_, Some(m)) => {
                for (&v, &m) in col.iter().zip(m) {
                    st.update_times(op, v, u64::from(m));
                }
            }
        });
        *self = st;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold(func: AggFunc, vals: &[Value]) -> Value {
        // Bare-AggFunc construction pins the I64 default.
        let mut s = AggState::new(func);
        for &v in vals {
            s.update(v);
        }
        s.finish()
    }

    #[test]
    fn basic_aggregates() {
        let vals = [3, -1, 7, 7, 0];
        assert_eq!(fold(AggFunc::Sum, &vals), 16);
        assert_eq!(fold(AggFunc::Min, &vals), -1);
        assert_eq!(fold(AggFunc::Max, &vals), 7);
        assert_eq!(fold(AggFunc::Count, &vals), 5);
        assert_eq!(fold(AggFunc::Avg, &vals), 3); // 16/5 truncated
    }

    #[test]
    fn empty_input_conventions() {
        for f in [
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Count,
            AggFunc::Avg,
        ] {
            assert_eq!(fold(f, &[]), 0, "{}", f.name());
        }
    }

    #[test]
    fn merge_equals_sequential_fold() {
        let vals = [5, -3, 12, 9, -20, 1];
        for f in [
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Count,
            AggFunc::Avg,
        ] {
            let mut left = AggState::new(f);
            let mut right = AggState::new(f);
            for &v in &vals[..3] {
                left.update(v);
            }
            for &v in &vals[3..] {
                right.update(v);
            }
            left.merge(&right);
            assert_eq!(left.finish(), fold(f, &vals), "{}", f.name());
        }
    }

    #[test]
    fn merge_with_empty_side_is_identity() {
        let vals = [4, -9, 2];
        for f in [
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Count,
            AggFunc::Avg,
        ] {
            let mut folded = AggState::new(f);
            for &v in &vals {
                folded.update(v);
            }
            // empty ∪ folded
            let mut left = AggState::new(f);
            left.merge(&folded);
            assert_eq!(left.finish(), folded.finish(), "{} left-identity", f.name());
            // folded ∪ empty
            let mut right = folded;
            right.merge(&AggState::new(f));
            assert_eq!(
                right.finish(),
                folded.finish(),
                "{} right-identity",
                f.name()
            );
        }
    }

    #[test]
    fn merge_is_associative_over_any_split() {
        let vals: Vec<Value> = (0..37).map(|i| (i * 31 % 17) - 8).collect();
        for f in [
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Count,
            AggFunc::Avg,
        ] {
            let want = fold(f, &vals);
            for chunk in [1usize, 2, 5, 7, 36, 64] {
                let mut total = AggState::new(f);
                for part in vals.chunks(chunk) {
                    let mut partial = AggState::new(f);
                    for &v in part {
                        partial.update(v);
                    }
                    total.merge(&partial);
                }
                assert_eq!(total.finish(), want, "{} chunk={chunk}", f.name());
            }
        }
    }

    #[test]
    fn from_parts_round_trips_specialized_accumulators() {
        // (func, raw accumulator, count, expected finish)
        let cases = [
            (AggFunc::Sum, 42, 3, 42),
            (AggFunc::Avg, 10, 4, 2),
            (AggFunc::Min, -7, 2, -7),
            (AggFunc::Max, 9, 2, 9),
            (AggFunc::Count, 0, 5, 5),
        ];
        for (f, raw, count, want) in cases {
            assert_eq!(
                AggState::from_parts(f, raw, count).finish(),
                want,
                "{}",
                f.name()
            );
        }
        // Empty partials carry the neutral accumulator and merge as identity.
        let empty_min = AggState::from_parts(AggFunc::Min, Value::MAX, 0);
        let mut real = AggState::from_parts(AggFunc::Min, 5, 1);
        real.merge(&empty_min);
        assert_eq!(real.finish(), 5);
        assert_eq!(empty_min.finish(), 0, "empty-input convention preserved");
    }

    #[test]
    fn avg_truncates_toward_zero() {
        assert_eq!(fold(AggFunc::Avg, &[-3, -4]), -3); // -7/2 = -3 (trunc)
    }

    fn fold_f64(func: AggFunc, vals: &[f64]) -> Value {
        let mut s = AggState::new(AggOp::new(func, LogicalType::F64));
        for &v in vals {
            s.update(f64_lane(v));
        }
        s.finish()
    }

    #[test]
    fn f64_aggregates() {
        let vals = [1.5, -2.25, 4.0, 0.25];
        assert_eq!(lane_f64(fold_f64(AggFunc::Sum, &vals)), 3.5);
        assert_eq!(lane_f64(fold_f64(AggFunc::Min, &vals)), -2.25);
        assert_eq!(lane_f64(fold_f64(AggFunc::Max, &vals)), 4.0);
        assert_eq!(fold_f64(AggFunc::Count, &vals), 4);
        assert_eq!(lane_f64(fold_f64(AggFunc::Avg, &vals)), 0.875);
        // Empty input: zero lane == +0.0 for every function.
        for f in [AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg] {
            assert_eq!(fold_f64(f, &[]), 0, "{}", f.name());
        }
    }

    #[test]
    fn f64_min_max_follow_total_cmp() {
        // total_cmp order: -NaN < -inf < -0.0 < +0.0 < +inf < +NaN.
        let vals = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let min = lane_f64(fold_f64(AggFunc::Min, &vals));
        let max = lane_f64(fold_f64(AggFunc::Max, &vals));
        assert_eq!(min, f64::NEG_INFINITY);
        assert!(max.is_nan(), "positive NaN is the total_cmp maximum");
        // Signed zeros are distinguished.
        let min0 = fold_f64(AggFunc::Min, &[0.0, -0.0]);
        assert_eq!(lane_f64(min0).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn f64_merge_matches_sequential_fold_on_dyadic_grid() {
        // Dyadic-grid doubles (k * 2^-10): sums are exact, so any morsel
        // split merges to the bit-identical total.
        let vals: Vec<f64> = (0..100)
            .map(|i| ((i * 37 % 83) as f64 - 41.0) / 1024.0)
            .collect();
        for f in [AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg] {
            let want = fold_f64(f, &vals);
            for chunk in [1usize, 3, 7, 64] {
                let mut total = AggState::new(AggOp::new(f, LogicalType::F64));
                for part in vals.chunks(chunk) {
                    let mut p = AggState::new(AggOp::new(f, LogicalType::F64));
                    for &v in part {
                        p.update(f64_lane(v));
                    }
                    total.merge(&p);
                }
                assert_eq!(total.finish(), want, "{} chunk={chunk}", f.name());
            }
        }
    }

    #[test]
    fn f64_sum_fold_order_is_pinned() {
        // 1e16 absorbs a lone 1.0 (1e16 + 1.0 == 1e16 in f64), but not
        // 2.0. A row-order fold of [1e16, 1.0, 1.0] must therefore yield
        // exactly 1e16, while the reassociated 1e16 + (1.0 + 1.0) would
        // yield 1e16 + 2. Any kernel that lane-splits an F64 sum breaks
        // this assertion — which is why none may (fold-order contract).
        let row_order = fold_f64(AggFunc::Sum, &[1e16, 1.0, 1.0]);
        assert_eq!(lane_f64(row_order), 1e16);
        let reassociated = 1e16 + (1.0 + 1.0);
        assert_ne!(lane_f64(row_order), reassociated);
        // Wrapping i64 sums, by contrast, are order-free: any permutation
        // and grouping gives the same bits.
        assert_eq!(
            fold(AggFunc::Sum, &[i64::MAX, 1, 5]),
            fold(AggFunc::Sum, &[5, 1, i64::MAX]),
        );
    }

    #[test]
    fn multiplicity_fold_is_bit_identical_to_repeated_update() {
        // One state folds a column with multiplicities (the join's
        // factorized folds), and without (every other batch): the same
        // state as one `update` per repetition, in order.
        let fold_vs_loop = |op: AggOp, col: &[Value], mults: Option<&[u32]>, ctx: &str| {
            let mut fused = AggState::new(op);
            fused.update(f64_lane(1e16));
            let mut looped = fused;
            fused.fold(col.len(), col, mults);
            for (i, &v) in col.iter().enumerate() {
                for _ in 0..mults.map_or(1, |m| m[i]) {
                    looped.update(v);
                }
            }
            assert_eq!(fused, looped, "{} {ctx}", op.func.name());
        };
        let funcs = [
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Count,
            AggFunc::Avg,
        ];
        // Integer functions, including the wrapping edge.
        for f in funcs {
            let op = AggOp::from(f);
            for v in [0 as Value, 7, -3, i64::MAX, i64::MIN] {
                for n in [1u32, 2, 5, 1000] {
                    fold_vs_loop(op, &[v], Some(&[n]), &format!("v={v} n={n}"));
                }
            }
            let col = [3, i64::MAX, -8, 1, i64::MIN, 0];
            fold_vs_loop(op, &col, None, "column");
            fold_vs_loop(op, &col, Some(&[1, 4, 2, 1, 3, 7]), "column x mults");
        }
        // F64 sums: repeated addition must keep the exact rounding of the
        // sequential loop (1e16 absorbs 1.0 once per add — a multiply
        // would not reproduce those bits).
        for f in funcs {
            let op = AggOp::new(f, LogicalType::F64);
            for v in [1.0f64, 0.1, -2.5e15, f64::NAN] {
                for n in [1u32, 3, 17] {
                    fold_vs_loop(op, &[f64_lane(v)], Some(&[n]), &format!("v={v} n={n}"));
                }
            }
            let col = [1.0, 0.1, -2.5e15, 3.0, 1e16].map(f64_lane);
            fold_vs_loop(op, &col, None, "f64 column");
            fold_vs_loop(op, &col, Some(&[3, 1, 2, 9, 1]), "f64 column x mults");
        }
    }

    #[test]
    fn agg_op_output_types() {
        assert_eq!(
            AggOp::new(AggFunc::Count, LogicalType::F64).output_type(),
            LogicalType::I64
        );
        assert_eq!(
            AggOp::new(AggFunc::Sum, LogicalType::F64).output_type(),
            LogicalType::F64
        );
        assert_eq!(AggOp::from(AggFunc::Min).ty, LogicalType::I64);
    }

    #[test]
    fn display() {
        let a = Aggregate::max(Expr::col(3u32));
        assert_eq!(a.to_string(), "max(a3)");
        assert_eq!(Aggregate::count().func, AggFunc::Count);
    }

    #[test]
    fn sum_wraps() {
        assert_eq!(fold(AggFunc::Sum, &[i64::MAX, 1]), i64::MIN);
    }
}
