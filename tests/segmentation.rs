//! Segmented column-group storage invariants.
//!
//! Two families of guarantees:
//!
//! 1. **Transparency** — segmenting payloads is invisible to every consumer:
//!    a heavily segmented store and a monolithic (one-segment) store are
//!    bit-identical under arbitrary interleavings of append batches, scans
//!    through all three execution strategies, and reorganization.
//! 2. **O(batch) copy-on-write** — appending a small batch against a shared
//!    snapshot clones at most each group's tail segment, bounded by segment
//!    size, never by relation size (the whole point of the segmentation).

use h2o::core::{EngineConfig, H2oEngine};
use h2o::exec::{compile, execute, reorg, AccessPlan, Strategy as ExecStrategy};
use h2o::expr::interpret;
use h2o::prelude::*;
use h2o::storage::{LayoutCatalog, DEFAULT_SEG_SHIFT};
use proptest::prelude::*;

const VALUE_BYTES: u64 = 8;

fn columnar_engine(attrs: usize, rows: usize) -> H2oEngine {
    let schema = Schema::with_width(attrs).into_shared();
    let columns: Vec<Vec<i64>> = (0..attrs)
        .map(|a| {
            (0..rows)
                .map(|r| ((a * 37 + r * 13) % 1009) as i64 - 500)
                .collect()
        })
        .collect();
    let mut cfg = EngineConfig::default();
    // No adaptation interference: the window never completes.
    cfg.window.initial = 10_000;
    cfg.window.max = 10_000;
    H2oEngine::new(Relation::columnar(schema, columns).unwrap(), cfg)
}

/// With a ≥1M-row relation and 3 live layouts, a 1K-row insert clones at
/// most 2 segments per group — verified through the engine's
/// `bytes_cloned_on_write` counter, and cross-checked to be far below
/// relation size.
#[test]
fn small_batch_cow_cost_is_bounded_by_segment_size_not_relation_size() {
    // Not a multiple of the segment capacity, so every group has a
    // partially-filled tail segment for the append to clone.
    let rows = (1usize << 20) + 12_345;
    let attrs = 3; // columnar start → exactly 3 live layouts
    let e = columnar_engine(attrs, rows);
    assert_eq!(e.catalog().group_count(), 3);

    let before = e.snapshot();
    let batch: Vec<Vec<i64>> = (0..1024)
        .map(|i| vec![i as i64, -(i as i64), 2 * i as i64])
        .collect();
    e.insert(&batch).unwrap();

    let stats = e.stats();
    let seg_bytes = (1u64 << DEFAULT_SEG_SHIFT) * VALUE_BYTES; // one width-1 segment
    assert!(
        stats.bytes_cloned_on_write > 0,
        "the shared tails must be cloned"
    );
    assert!(
        stats.bytes_cloned_on_write <= attrs as u64 * 2 * seg_bytes,
        "a 1K-row batch must clone at most 2 segments per group, got {} bytes",
        stats.bytes_cloned_on_write
    );
    let relation_bytes = (rows * attrs) as u64 * VALUE_BYTES;
    assert!(
        stats.bytes_cloned_on_write * 10 < relation_bytes,
        "COW cost must be a small fraction of the relation ({} vs {relation_bytes})",
        stats.bytes_cloned_on_write
    );

    // Snapshot isolation is intact and the batch is fully visible.
    assert_eq!(before.rows(), rows);
    assert_eq!(e.catalog().rows(), rows + 1024);
    assert_eq!(e.catalog().cell(rows + 1023, AttrId(0)).unwrap(), 1023);
    assert_eq!(e.catalog().cell(rows + 1023, AttrId(2)).unwrap(), 2046);
}

#[test]
fn appends_crossing_a_segment_boundary_seal_segments() {
    let rows = (1usize << DEFAULT_SEG_SHIFT) - 10;
    let e = columnar_engine(3, rows);
    let batch: Vec<Vec<i64>> = (0..20).map(|i| vec![i; 3]).collect();
    e.insert(&batch).unwrap();
    let stats = e.stats();
    assert_eq!(stats.segments_sealed, 3, "each group's tail filled once");
    assert!(e.catalog().groups().all(|g| g.segment_count() == 2));
    assert!(e.catalog().groups().all(|g| g.sealed_segment_count() == 1));
}

#[test]
fn multi_segment_scans_match_the_interpreter_for_every_strategy() {
    // > one segment of rows, so every strategy crosses segment boundaries.
    let rows = (1usize << DEFAULT_SEG_SHIFT) + 1_000;
    let e = columnar_engine(4, rows);
    e.materialize_now(&[AttrId(0), AttrId(1), AttrId(2)])
        .unwrap();
    let queries = [
        Query::project(
            [Expr::sum_of([AttrId(0), AttrId(1)])],
            Conjunction::of([Predicate::lt(2u32, 0)]),
        )
        .unwrap(),
        Query::aggregate(
            [
                Aggregate::sum(Expr::col(0u32)),
                Aggregate::min(Expr::col(1u32)),
                Aggregate::max(Expr::col(2u32)),
                Aggregate::count(),
            ],
            Conjunction::of([Predicate::gt(3u32, -250)]),
        )
        .unwrap(),
        Query::aggregate([Aggregate::avg(Expr::col(3u32))], Conjunction::always()).unwrap(),
    ];
    let snap = e.snapshot();
    let layouts = snap.layout_ids();
    for q in &queries {
        let want = interpret(&snap, q).unwrap();
        assert_eq!(
            e.run(Request::query(q)).unwrap().result.fingerprint(),
            want.fingerprint(),
            "{q}"
        );
        for strategy in ExecStrategy::ALL {
            let plan = AccessPlan::new(layouts.clone(), strategy);
            let op = compile(&snap, &plan, q).unwrap();
            let got = execute(&snap, &op).unwrap();
            assert_eq!(
                got.fingerprint(),
                want.fingerprint(),
                "strategy {} query {q}",
                strategy.name()
            );
        }
    }
}

/// One step of the randomized interleaving applied to both stores.
#[derive(Debug, Clone)]
enum Op {
    /// Append a batch of tuples (values filled from the seed).
    Append(Vec<Vec<i64>>),
    /// Scan through one strategy: (strategy index, filter attr, threshold).
    Scan(usize, usize, i64),
    /// Materialize the attribute subset picked by the bitmask and admit it.
    Reorg(u8),
}

fn arb_ops(n_attrs: usize) -> impl Strategy<Value = Vec<Op>> {
    // (kind, batch, strategy, attr, threshold, mask) — the kind selector
    // dispatches which fields are used (the vendored proptest stand-in has
    // no `prop_oneof`).
    let step = (
        0u8..9,
        proptest::collection::vec(
            proptest::collection::vec(-1000i64..1000, n_attrs..=n_attrs),
            1..6,
        ),
        0usize..3,
        0usize..n_attrs,
        -1000i64..1000,
        1u8..15,
    )
        .prop_map(
            |(kind, batch, strategy, attr, threshold, mask)| match kind {
                0..=2 => Op::Append(batch),
                3..=6 => Op::Scan(strategy, attr, threshold),
                _ => Op::Reorg(mask),
            },
        );
    proptest::collection::vec(step, 1..12)
}

fn scan_query(n_attrs: usize, attr: usize, threshold: i64) -> Query {
    Query::project(
        (0..n_attrs).map(|i| Expr::col(i as u32)),
        Conjunction::of([Predicate::lt((attr % n_attrs) as u32, threshold)]),
    )
    .unwrap()
}

fn apply_scan(cat: &LayoutCatalog, strategy: usize, q: &Query) -> u64 {
    let plan = AccessPlan::new(cat.layout_ids(), ExecStrategy::ALL[strategy]);
    let op = compile(cat, &plan, q).unwrap();
    execute(cat, &op).unwrap().fingerprint()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A heavily segmented store (tiny segments, many boundaries) and a
    /// monolithic store (everything in one segment — the pre-segmentation
    /// representation) stay bit-identical under random interleavings of
    /// append batches, scans through all three strategies, and
    /// reorganization. Snapshots taken before every append stay frozen.
    #[test]
    fn segmented_and_monolithic_stores_are_bit_identical(
        n_attrs in 2usize..5,
        rows in 0usize..40,
        seg_shift in 1u32..4,
        ops in arb_ops(4),
    ) {
        let n_attrs = n_attrs.min(4);
        let schema = Schema::with_width(n_attrs).into_shared();
        let columns: Vec<Vec<i64>> = (0..n_attrs)
            .map(|a| (0..rows).map(|r| ((a * 31 + r * 7) % 173) as i64 - 80).collect())
            .collect();
        let partition: Vec<Vec<AttrId>> = (0..n_attrs).map(|a| vec![AttrId::from(a)]).collect();
        let mut seg = Relation::partitioned_with_shift(
            schema.clone(), columns.clone(), partition.clone(), seg_shift,
        ).unwrap().into_catalog();
        let mut mono = Relation::partitioned_with_shift(
            schema, columns, partition, 30, // whole store in one segment
        ).unwrap().into_catalog();

        // Snapshots a concurrent reader would hold across the writes.
        let mut pinned: Vec<(LayoutCatalog, usize)> = Vec::new();

        for op in &ops {
            match op {
                Op::Append(batch) => {
                    let batch: Vec<Vec<i64>> = batch
                        .iter()
                        .map(|t| t[..n_attrs].to_vec())
                        .collect();
                    pinned.push((seg.clone(), seg.rows()));
                    pinned.push((mono.clone(), mono.rows()));
                    seg.append_rows(&batch).unwrap();
                    mono.append_rows(&batch).unwrap();
                }
                Op::Scan(strategy, attr, threshold) => {
                    let q = scan_query(n_attrs, *attr, *threshold);
                    let a = apply_scan(&seg, *strategy, &q);
                    let b = apply_scan(&mono, *strategy, &q);
                    prop_assert_eq!(a, b, "scan diverged");
                    prop_assert_eq!(a, interpret(&mono, &q).unwrap().fingerprint());
                }
                Op::Reorg(mask) => {
                    let attrs: Vec<AttrId> = (0..n_attrs)
                        .filter(|&i| mask & (1 << i) != 0)
                        .map(AttrId::from)
                        .collect();
                    if attrs.is_empty() {
                        continue;
                    }
                    let ga = reorg::materialize(&seg, &attrs).unwrap();
                    let gb = reorg::materialize(&mono, &attrs).unwrap();
                    prop_assert_eq!(ga.collect_values(), gb.collect_values());
                    seg.add_group(ga, 0).unwrap();
                    mono.add_group(gb, 0).unwrap();
                }
            }
        }

        // Final state: same shape, same payloads, layout by layout.
        prop_assert_eq!(seg.rows(), mono.rows());
        prop_assert_eq!(seg.group_count(), mono.group_count());
        for (a, b) in seg.layout_ids().iter().zip(mono.layout_ids()) {
            prop_assert_eq!(
                seg.group(*a).unwrap().collect_values(),
                mono.group(b).unwrap().collect_values()
            );
        }
        // Pinned snapshots never moved (copy-on-write correctness).
        for (snap, rows_at_pin) in &pinned {
            prop_assert_eq!(snap.rows(), *rows_at_pin);
            for g in snap.groups() {
                prop_assert_eq!(g.rows(), *rows_at_pin);
            }
        }
    }
}
