//! Differential suite for the vectorized (chunked-SIMD) kernel loops.
//!
//! The `kernels::simd` rewrite must be **bit-identical** to the scalar
//! reference bodies it replaced, across every place results could diverge:
//! lane-chunk boundaries (`rows % 8`), segment-run boundaries, zone-map
//! pruned runs, the per-column tier and the batch step, column-at-a-time
//! and row-at-a-time evaluation, serial vs morsel-parallel execution,
//! `F64` fold order (including non-dyadic values whose sums are inexact),
//! and the capped runs a cancellation token induces at
//! `CANCEL_CHECK_ROWS` boundaries.

use h2o::exec::kernels::{self, fused};
use h2o::exec::{
    compile, execute, execute_with_policy, reorg, run, AccessPlan, BoundAttr, CancelToken, ExecCtx,
    ExecPolicy, GroupViews, Strategy,
};
use h2o::expr::agg::{AggOp, AggState};
use h2o::expr::{interpret, AggFunc, CmpOp};
use h2o::prelude::*;
use h2o::storage::{f64_lane, ColumnGroup, LogicalType};
use h2o_exec::filter::{CompiledFilter, CompiledPred};
use h2o_exec::program::CompiledExpr;
use proptest::prelude::*;

/// A two-attribute (I64, F64) group with a small segment shift so even
/// tiny relations span several sealed segments (and their zone maps).
fn build_group(rows: usize, shift: u32, seed: u64) -> h2o::storage::ColumnGroup {
    let c0: Vec<Value> = (0..rows)
        .map(|i| ((i as u64).wrapping_mul(seed | 1).wrapping_add(seed) % 37) as Value - 11)
        .collect();
    // Non-dyadic doubles: /10 is inexact in binary, so sums depend on fold
    // order — exactly what the F64 contract must survive.
    let c1: Vec<Value> = (0..rows)
        .map(|i| {
            let k = ((i as u64).wrapping_mul(seed ^ 0x9e37).wrapping_add(1) % 41) as i64 - 17;
            f64_lane(k as f64 / 10.0)
        })
        .collect();
    ColumnGroup::from_columns_typed(
        vec![AttrId(0), AttrId(1)],
        vec![LogicalType::I64, LogicalType::F64],
        &[&c0, &c1],
        shift,
    )
    .unwrap()
}

/// The type at offset `offset` of [`build_wide_group`] (and of
/// [`build_group`]'s two).
fn wide_type(offset: u32) -> LogicalType {
    if offset.is_multiple_of(2) {
        LogicalType::I64
    } else {
        LogicalType::F64
    }
}

/// A six-attribute group, `I64` at even offsets and non-dyadic `F64` at
/// odd ones: scattered aggregate columns in it take the per-row tier.
fn build_wide_group(rows: usize, shift: u32, seed: u64) -> h2o::storage::ColumnGroup {
    let cols: Vec<Vec<Value>> = (0..6u32)
        .map(|c| {
            (0..rows as u64)
                .map(|i| {
                    let k =
                        (i.wrapping_mul(seed | 1).wrapping_add(c as u64 * 977) % 53) as i64 - 20;
                    match wide_type(c) {
                        LogicalType::F64 => f64_lane(k as f64 / 10.0),
                        _ => k,
                    }
                })
                .collect()
        })
        .collect();
    let refs: Vec<&[Value]> = cols.iter().map(Vec::as_slice).collect();
    ColumnGroup::from_columns_typed(
        (0..6).map(AttrId).collect(),
        (0..6).map(wide_type).collect(),
        &refs,
        shift,
    )
    .unwrap()
}

/// Scalar reference for [`fused::aggregate_range`]: every row of the
/// range is tested with [`CompiledFilter::matches`] and folded per
/// aggregate through the segment-resolving accessor — no masks, blocks or
/// tiers.
fn aggregate_range_scalar(
    views: &GroupViews<'_>,
    filter: &CompiledFilter,
    aggs: &[(AggOp, CompiledExpr)],
    range: std::ops::Range<usize>,
) -> Vec<AggState> {
    let mut states: Vec<AggState> = aggs.iter().map(|(f, _)| AggState::new(*f)).collect();
    for row in range {
        let get = |a| views.get(a, row);
        if filter.matches(get) {
            for (st, (_, e)) in states.iter_mut().zip(aggs) {
                st.update(e.eval(get));
            }
        }
    }
    states
}

/// [`build_group`]'s two columns as two groups of one column each (a
/// column layout), at segment shift `shift`.
fn build_columns(rows: usize, shift: u32, seed: u64) -> Vec<ColumnGroup> {
    let g = build_group(rows, shift, seed);
    let cols = g.collect_values();
    (0..2u32)
        .map(|c| {
            let col: Vec<Value> = cols.iter().skip(c as usize).step_by(2).copied().collect();
            ColumnGroup::from_columns_typed(vec![AttrId(c)], vec![wide_type(c)], &[&col], shift)
                .unwrap()
        })
        .collect()
}

fn pred(offset: u32, op: CmpOp, ty: LogicalType, lane: Value) -> CompiledPred {
    CompiledPred::from_lane(BoundAttr { slot: 0, offset }, op, ty, lane)
}

const OPS: [CmpOp; 6] = [
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Eq,
    CmpOp::Ne,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The block walker agrees with the rows [`CompiledFilter::matches`]
    /// accepts, one row at a time, over arbitrary sub-ranges — including ranges that start and
    /// end mid-chunk, mid-segment, across a 1K-row block edge, and empty
    /// ones — for one predicate, two, or none. The walker's blocks are
    /// non-empty, at most 1K ids long, and concatenate to the whole.
    #[test]
    fn filter_builds_match_scalar(
        rows in 1usize..3000,
        shift in 3u32..12,
        seed in 0u64..5000,
        op_i in 0usize..6,
        op_f in 0usize..6,
        c_i in -12i64..12,
        c_f in -180i64..180,
        lo_frac in 0.0f64..1.0,
        hi_frac in 0.0f64..1.0,
        preds in 0usize..3,
    ) {
        let g = build_group(rows, shift, seed);
        let views = GroupViews::from_groups(&[&g]);
        let mut conj = vec![pred(0, OPS[op_i], LogicalType::I64, c_i)];
        conj.push(pred(1, OPS[op_f], LogicalType::F64, f64_lane(c_f as f64 / 10.0)));
        conj.truncate(preds);
        let filter = CompiledFilter::new(conj);
        let lo = (lo_frac * rows as f64) as usize;
        let hi = lo + (hi_frac * (rows - lo) as f64) as usize;
        let seg = 1usize << shift;
        let clamp = |r: std::ops::Range<usize>| r.start.min(rows)..r.end.min(rows);
        for range in [0..rows, lo..hi, clamp(1020..1030), clamp(seg - 3..seg + 5)] {
            let want: Vec<u32> = range
                .clone()
                .filter(|&r| filter.matches(|a| views.get(a, r)))
                .map(|r| r as u32)
                .collect();
            let mut got = Vec::new();
            let n = kernels::for_each_block(&views, &filter, range.clone(), |block| {
                assert!(!block.is_empty() && block.len() <= 1024, "{} ids", block.len());
                got.extend_from_slice(block);
            });
            prop_assert_eq!(n, want.len());
            prop_assert_eq!(&got, &want, "walker over {:?}", range);
        }
    }

    /// Bare-column aggregation leaves states field-identical to the
    /// scalar reference for every aggregate function over both lane types
    /// — over one group; over a wide group plus a narrow one at different
    /// segment shifts whose runs split into 1K-row blocks, in both tiers
    /// (the per-column tier and the batch step); and over a column layout
    /// (one column per slot) at segment shifts 3–11, where the tier folds
    /// any number of columns, unmasked without a filter: `count(*)` alone,
    /// `count` beside columns, and non-dyadic `F64` sums and averages,
    /// over sub-ranges that straddle segment edges.
    #[test]
    fn aggregate_folds_match_scalar(
        rows in 1usize..300,
        shift in 3u32..6,
        seed in 0u64..5000,
        op_i in 0usize..6,
        c_i in -12i64..12,
        func_i in 0usize..5,
        big_rows in 1usize..5000,
        wide_shift in 11u32..13,
        narrow_shift in 11u32..15,
        lo_frac in 0.0f64..1.0,
        hi_frac in 0.0f64..1.0,
        col_shift in 3u32..12,
    ) {
        let funcs = [AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Count, AggFunc::Avg];
        let f = funcs[func_i];
        let g = build_group(rows, shift, seed);
        let views = GroupViews::from_groups(&[&g]);
        for filter in [
            CompiledFilter::always(),
            CompiledFilter::new(vec![pred(0, OPS[op_i], LogicalType::I64, c_i)]),
        ] {
            let aggs = vec![
                (AggOp::new(f, LogicalType::I64), CompiledExpr::Col(BoundAttr { slot: 0, offset: 0 })),
                (AggOp::new(f, LogicalType::F64), CompiledExpr::Col(BoundAttr { slot: 0, offset: 1 })),
            ];
            let mut vec_states: Vec<AggState> = aggs.iter().map(|(f, _)| AggState::new(*f)).collect();
            fused::aggregate_range(&views, &filter, 0..rows, &aggs, &mut vec_states);
            let ref_states = aggregate_range_scalar(&views, &filter, &aggs, 0..rows);
            prop_assert_eq!(vec_states, ref_states, "fused {} filtered={}", f.name(), !filter.is_always_true());
        }
        // Two groups: the wide one (6 attributes, I64/F64 alternating) and
        // the narrow one (I64, F64), each at its own segment shift.
        let wide = build_wide_group(big_rows, wide_shift, seed);
        let narrow = build_group(big_rows, narrow_shift, seed ^ 0x5a);
        let two = GroupViews::from_groups(&[&wide, &narrow]);
        let col = |slot: u32, offset: u32| {
            (AggOp::new(f, wide_type(offset)), CompiledExpr::Col(BoundAttr { slot, offset }))
        };
        let sets = [
            // Adjacent offsets of one slot: the per-column tier.
            vec![col(0, 2), col(0, 3), col(0, 4)],
            vec![col(1, 1), col(1, 0)],
            // Scattered offsets of the wide group, and both groups: the
            // batch step.
            vec![col(0, 5), col(0, 0), col(0, 3)],
            vec![col(0, 1), col(1, 1), col(1, 0)],
        ];
        let filters = [
            CompiledFilter::always(),
            CompiledFilter::new(vec![CompiledPred::from_lane(
                BoundAttr { slot: 1, offset: 0 },
                OPS[op_i],
                LogicalType::I64,
                c_i,
            )]),
            CompiledFilter::new(vec![
                CompiledPred::from_lane(BoundAttr { slot: 0, offset: 0 }, CmpOp::Ne, LogicalType::I64, c_i),
                CompiledPred::from_lane(BoundAttr { slot: 1, offset: 1 }, CmpOp::Lt, LogicalType::F64, f64_lane(0.5)),
            ]),
        ];
        let lo = (lo_frac * big_rows as f64) as usize;
        let hi = lo + (hi_frac * (big_rows - lo) as f64) as usize;
        // Whole, arbitrary, and straddling the first block and 2K-row
        // segment ends.
        let ranges = [0..big_rows, lo..hi, 1000.min(big_rows)..2100.min(big_rows)];
        for aggs in &sets {
            for filter in &filters {
                for range in &ranges {
                    let mut got: Vec<AggState> = aggs.iter().map(|(f, _)| AggState::new(*f)).collect();
                    fused::aggregate_range(&two, filter, range.clone(), aggs, &mut got);
                    let want = aggregate_range_scalar(&two, filter, aggs, range.clone());
                    prop_assert_eq!(got, want, "two groups {} {:?} over {:?}", f.name(), aggs, range);
                }
            }
        }
        // A column layout: every column in a slot of width one.
        let columns = build_columns(big_rows, col_shift, seed);
        let cols = GroupViews::from_groups(&columns.iter().collect::<Vec<_>>());
        let own = |slot: u32, f: AggFunc| {
            (AggOp::new(f, wide_type(slot)), CompiledExpr::Col(BoundAttr { slot, offset: 0 }))
        };
        let count = (AggOp::from(AggFunc::Count), CompiledExpr::Col(BoundAttr { slot: 0, offset: 0 }));
        let sets = [
            vec![count.clone()],
            vec![own(0, f), count.clone(), own(1, f)],
            vec![own(1, AggFunc::Sum), own(1, AggFunc::Avg), own(0, f)],
        ];
        let seg = 1usize << col_shift;
        let clamp = |r: std::ops::Range<usize>| r.start.min(big_rows)..r.end.min(big_rows);
        let ranges = [0..big_rows, lo..hi, clamp(seg - 3..seg + 5), clamp(seg + 1..3 * seg - 1)];
        for aggs in &sets {
            for filter in &filters[..2] {
                for range in &ranges {
                    let mut got: Vec<AggState> = aggs.iter().map(|(f, _)| AggState::new(*f)).collect();
                    fused::aggregate_range(&cols, filter, range.clone(), aggs, &mut got);
                    let want = aggregate_range_scalar(&cols, filter, aggs, range.clone());
                    prop_assert_eq!(got, want, "columns {} {:?} over {:?}", f.name(), aggs, range);
                }
            }
        }
    }
}

/// Relation whose filter column is *sorted*, so sealed-segment zone maps
/// prune aggressively. `denom` scales the F64 column: a power of two keeps
/// every value (and every partial sum) on the dyadic grid where float
/// addition is exact in any order — required when asserting parallel
/// bit-identity, since morsel merges reassociate F64 sums. A non-dyadic
/// denominator (e.g. 10) makes sums fold-order-sensitive, which is exactly
/// what the serial-only bit-identity test wants to stress.
fn pruned_relation(rows: usize, denom: f64) -> Relation {
    let schema = Schema::typed([
        ("k", LogicalType::I64),
        ("x", LogicalType::F64),
        ("v", LogicalType::I64),
    ])
    .into_shared();
    let k: Vec<Value> = (0..rows as Value).collect();
    let x: Vec<Value> = (0..rows)
        .map(|i| f64_lane((i % 97) as f64 / denom))
        .collect();
    let v: Vec<Value> = (0..rows).map(|i| ((i * 31) % 101) as Value - 50).collect();
    Relation::partitioned_with_shift(
        schema,
        vec![k, x, v],
        vec![vec![AttrId(0), AttrId(1), AttrId(2)]],
        7,
    )
    .unwrap()
}

fn queries(rows: usize) -> Vec<Query> {
    let sel = |frac: f64| Conjunction::of([Predicate::lt(0u32, (rows as f64 * frac) as Value)]);
    vec![
        // Selective scans: most segments zone-pruned, chunk masks sparse.
        Query::aggregate([Aggregate::sum(Expr::col(2u32))], sel(0.01)).unwrap(),
        Query::aggregate(
            [
                Aggregate::sum(Expr::col(1u32)),
                Aggregate::min(Expr::col(1u32)),
                Aggregate::max(Expr::col(2u32)),
            ],
            sel(0.37),
        )
        .unwrap(),
        Query::project([Expr::col(2u32)], sel(0.11)).unwrap(),
        Query::grouped(
            [Expr::col(2u32).add(Expr::lit(1))],
            [Aggregate::sum(Expr::col(1u32))],
            sel(0.53),
        )
        .unwrap(),
        Query::aggregate([Aggregate::count()], Conjunction::always()).unwrap(),
    ]
}

/// The scan, serial and parallel, against the interpreter —
/// over a relation where zone maps prune most runs and the floats are
/// non-dyadic (so any fold-order deviation in an F64 sum shows up as a
/// fingerprint mismatch).
#[test]
fn strategies_agree_on_pruned_segmented_relation() {
    let rows = 4_000;
    let rel = pruned_relation(rows, 16.0);
    let layouts = rel.catalog().layout_ids();
    let policy = ExecPolicy {
        parallelism: Some(4),
        morsel_rows: 513,
        serial_threshold: 0,
    };
    for (qi, q) in queries(rows).iter().enumerate() {
        let want = interpret(rel.catalog(), q).unwrap();
        let plan = AccessPlan::new(layouts.clone(), Strategy::FusedVolcano);
        let op = compile(rel.catalog(), &plan, q).unwrap();
        let serial = execute(rel.catalog(), &op).unwrap();
        assert_eq!(
            serial.fingerprint(),
            want.fingerprint(),
            "serial query {qi}"
        );
        let parallel = execute_with_policy(rel.catalog(), &op, &policy).unwrap();
        assert_eq!(parallel, serial, "parallel query {qi}");
    }
}

/// A live (never-tripping) cancellation token caps segment runs at
/// `CANCEL_CHECK_ROWS` rows, exercising the vectorized loops over run
/// boundaries that don't align with segments or chunks. Results must stay
/// bit-identical to uncancelled execution. Uses a monolithic layout (one
/// huge segment) so the cap is what actually splits the scan.
#[test]
fn capped_runs_under_live_cancel_token_are_identical() {
    let rows = 100_000; // > CANCEL_CHECK_ROWS, not a multiple of it
    let schema = Schema::typed([("k", LogicalType::I64), ("x", LogicalType::F64)]).into_shared();
    let k: Vec<Value> = (0..rows).map(|i| ((i * 7) % 1000) as Value).collect();
    let x: Vec<Value> = (0..rows)
        .map(|i| f64_lane((i % 89) as f64 / 10.0))
        .collect();
    let rel =
        Relation::partitioned_with_shift(schema, vec![k, x], vec![vec![AttrId(0), AttrId(1)]], 30)
            .unwrap();
    let layouts = rel.catalog().layout_ids();
    let policy = ExecPolicy {
        parallelism: Some(1),
        morsel_rows: rows,
        serial_threshold: 0,
    };
    let q = Query::aggregate(
        [
            Aggregate::sum(Expr::col(1u32)),
            Aggregate::max(Expr::col(0u32)),
            Aggregate::count(),
        ],
        Conjunction::of([Predicate::lt(0u32, 100)]),
    )
    .unwrap();
    let plan = AccessPlan::new(layouts.clone(), Strategy::FusedVolcano);
    let op = compile(rel.catalog(), &plan, &q).unwrap();
    let plain = execute(rel.catalog(), &op).unwrap();
    let live = CancelToken::new();
    let ctx = ExecCtx {
        cancel: Some(&live),
        ..ExecCtx::new(policy)
    };
    let (capped, _) = run(rel.catalog(), &op, &ctx).unwrap();
    assert_eq!(capped, plain);
}

/// Serial F64 sums are bit-identical between the scan and the
/// interpreter even for non-dyadic inputs, where only exact row-order
/// folding can agree (the fold-order contract pins this).
#[test]
fn f64_sum_bit_identity_on_non_dyadic_values() {
    let rows = 3_001; // odd: chunk tails everywhere
    let q = Query::aggregate(
        [
            Aggregate::sum(Expr::col(1u32)),
            Aggregate::avg(Expr::col(1u32)),
        ],
        Conjunction::of([Predicate::gt(2u32, 0)]),
    )
    .unwrap();
    // Thirds as well as tenths: on these rows, merging the online
    // operator's per-chunk partials instead of continuing one fold chain
    // changes the bits only for thirds.
    for denom in [10.0, 3.0] {
        let rel = pruned_relation(rows, denom);
        let layouts = rel.catalog().layout_ids();
        let want = interpret(rel.catalog(), &q).unwrap();
        let plan = AccessPlan::new(layouts.clone(), Strategy::FusedVolcano);
        let op = compile(rel.catalog(), &plan, &q).unwrap();
        let got = execute(rel.catalog(), &op).unwrap();
        assert_eq!(
            got.data(),
            want.data(),
            "bit-level f64 divergence, /{denom}"
        );
        // Online reorganization folds all its stitched chunks in one
        // chain: with the filter attribute inside the new group, and
        // outside it.
        let serial = ExecCtx::new(ExecPolicy::serial());
        for targets in [vec![AttrId(2), AttrId(1)], vec![AttrId(1)]] {
            let (_, got) = reorg::reorg_and_execute(rel.catalog(), &targets, &q, &serial).unwrap();
            assert_eq!(
                got.data(),
                want.data(),
                "bit-level f64 divergence in online reorg into {targets:?}, /{denom}"
            );
        }
    }
}

/// The per-column tier at its edges: a 1K-row block with exactly a
/// quarter of its rows qualifying and one with a row fewer, under
/// aggregates over exactly `TIER_MAX_COLS` adjacent columns (the tier)
/// and one column more (the batch step).
/// Non-dyadic `F64` sums and averages leave every state field-identical
/// to the scalar reference, over the whole relation, a range that starts
/// mid-block, and one ending in the run's scalar tail.
#[test]
fn tier_edges_fold_f64_sums_like_the_scalar_reference() {
    let block = 1024;
    let rows = 2 * block + 5;
    let dense = block / 4;
    // Block 0 qualifies `dense` rows, block 1 one fewer, the 5-row tail 3.
    let flag: Vec<Value> = (0..rows)
        .map(|i| match i / block {
            0 => (i % block < dense) as Value,
            1 => (i % block < dense - 1) as Value,
            _ => (i % 2 == 0) as Value,
        })
        .collect();
    let width = fused::TIER_MAX_COLS + 1;
    let mut cols = vec![flag];
    for c in 0..width {
        let col = (0..rows).map(|i| f64_lane(((i * 7 + c * 13) % 97) as f64 / 10.0 - 4.1));
        cols.push(col.collect());
    }
    let refs: Vec<&[Value]> = cols.iter().map(Vec::as_slice).collect();
    let mut types = vec![LogicalType::I64];
    types.extend(std::iter::repeat_n(LogicalType::F64, width));
    let g =
        ColumnGroup::from_columns_typed((0..=width as u32).map(AttrId).collect(), types, &refs, 11)
            .unwrap();
    let views = GroupViews::from_groups(&[&g]);
    let flagged = CompiledFilter::new(vec![pred(0, CmpOp::Eq, LogicalType::I64, 1)]);
    for filter in [flagged, CompiledFilter::always()] {
        for func in [AggFunc::Sum, AggFunc::Avg] {
            for n in [fused::TIER_MAX_COLS, fused::TIER_MAX_COLS + 1] {
                let aggs: Vec<(AggOp, CompiledExpr)> = (1..=n as u32)
                    .map(|offset| {
                        let col = CompiledExpr::Col(BoundAttr { slot: 0, offset });
                        (AggOp::new(func, LogicalType::F64), col)
                    })
                    .collect();
                for range in [0..rows, 700..rows, 300..2 * block + 2] {
                    let mut got: Vec<AggState> =
                        aggs.iter().map(|(f, _)| AggState::new(*f)).collect();
                    fused::aggregate_range(&views, &filter, range.clone(), &aggs, &mut got);
                    let want = aggregate_range_scalar(&views, &filter, &aggs, range.clone());
                    assert_eq!(got, want, "{} over {n} columns, {range:?}", func.name());
                }
            }
        }
    }
}

/// Bare columns and column sums whose lanes lie in several slots are
/// evaluated a column at a time: projections (row-major output),
/// aggregate inputs (column-major tiles) and grouped keys, over a column
/// layout and over a mix of groups, at a segment shift that splits
/// batches at piece ends. The `F64` sums mix magnitudes so that any other
/// association or column order changes their bits, and some rows are all
/// `-0.0`, whose sum is `-0.0` only when it starts from its first column;
/// every answer must equal the interpreter's, bit for bit.
#[test]
fn column_at_a_time_evaluation_matches_the_interpreter() {
    use LogicalType::{F64, I64};
    let rows = 3_000;
    let types = [I64, F64, I64, F64, F64];
    let lane = |i: usize, a: usize| -> Value {
        if i % 10 == 3 && types[a] == F64 {
            return f64_lane(-0.0);
        }
        match a {
            0 => (i * 7 % 23) as Value - 11,
            1 => f64_lane((1 + i % 3) as f64 * 1e16 + (i % 7) as f64 / 10.0),
            2 => (i * 13 % 31) as Value,
            3 => f64_lane(1.0 + (i % 5) as f64 / 10.0),
            _ => f64_lane((i % 9) as f64 / 3.0 - 1.0),
        }
    };
    let cols: Vec<Vec<Value>> = (0..5)
        .map(|a| (0..rows).map(|i| lane(i, a)).collect())
        .collect();
    let schema = Schema::typed([
        ("a0", I64),
        ("a1", F64),
        ("a2", I64),
        ("a3", F64),
        ("a4", F64),
    ]);
    let schema = schema.into_shared();
    let columns = vec![
        vec![AttrId(0)],
        vec![AttrId(1)],
        vec![AttrId(2)],
        vec![AttrId(3)],
        vec![AttrId(4)],
    ];
    let mixed = vec![
        vec![AttrId(0), AttrId(1)],
        vec![AttrId(2), AttrId(3)],
        vec![AttrId(4)],
    ];
    let c = Expr::col::<u32>;
    let f = || Conjunction::of([Predicate::lt(0u32, 6)]);
    let queries = [
        Query::project([c(0), c(2), c(1), c(4)], f()).unwrap(),
        Query::project([c(1).add(c(3)).add(c(4))], Conjunction::always()).unwrap(),
        Query::project([c(0).add(c(2)), c(4).add(c(3)).add(c(1))], f()).unwrap(),
        Query::aggregate(
            [
                Aggregate::sum(c(1).add(c(3)).add(c(4))),
                Aggregate::max(c(0).add(c(2))),
                Aggregate::min(c(3).add(c(4))),
            ],
            f(),
        )
        .unwrap(),
        Query::grouped([c(0), c(2)], [Aggregate::sum(c(3).add(c(4)))], f()).unwrap(),
    ];
    for partition in [columns, mixed] {
        let rel =
            Relation::partitioned_with_shift(schema.clone(), cols.clone(), partition.clone(), 7)
                .unwrap();
        for q in &queries {
            let want = interpret(rel.catalog(), q).unwrap();
            let plan = AccessPlan::new(
                rel.catalog().cover(&q.all_attrs()).unwrap(),
                Strategy::FusedVolcano,
            );
            assert!(plan.layouts.len() > 1, "{q} reads several slots");
            let op = compile(rel.catalog(), &plan, q).unwrap();
            let got = execute(rel.catalog(), &op).unwrap();
            assert!(!got.is_empty());
            assert_eq!(got, want, "{partition:?} {q}");
        }
    }
}
