//! Segmented column-group storage invariants.
//!
//! Three families of guarantees:
//!
//! 1. **Transparency** — segmenting payloads and chunking the unsealed tail
//!    are invisible to every consumer: a heavily segmented store, a store
//!    with four 1 024-row chunks per segment, and a monolithic
//!    (one-segment) store are bit-identical under arbitrary interleavings of
//!    append batches, scans, and
//!    reorganization.
//! 2. **O(batch) copy-on-write** — appending a small batch against a shared
//!    snapshot clones at most each group's last tail *chunk*, bounded by
//!    the chunk size, never by the tail, segment or relation size.
//! 3. **Chunk-blind accounting** — a tail appended chunk by chunk skips the
//!    same zone-map segments and needs the same morsel budget as the same
//!    rows loaded in one piece.

use h2o::core::{EngineConfig, H2oEngine};
use h2o::exec::{
    compile, execute, execute_with_policy, reorg, run, AccessPlan, CancelToken, ExecCtx, ExecError,
    ExecPolicy, Strategy as ExecStrategy,
};
use h2o::expr::interpret;
use h2o::prelude::*;
use h2o::storage::{LayoutCatalog, CHUNK_SHIFT, DEFAULT_SEG_SHIFT};
use proptest::prelude::*;

const VALUE_BYTES: u64 = 8;
const CHUNK_ROWS: u64 = 1 << CHUNK_SHIFT;

/// Rows `rows` of the test relations: attribute 0 is the row id (so zone
/// maps prune on it), the others cycle pseudo-randomly.
fn columns(attrs: usize, rows: std::ops::Range<usize>) -> Vec<Vec<i64>> {
    (0..attrs)
        .map(|a| {
            rows.clone()
                .map(|r| match a {
                    0 => r as i64,
                    _ => ((a * 37 + r * 13) % 1009) as i64 - 500,
                })
                .collect()
        })
        .collect()
}

/// The same rows as `columns`, tuple by tuple.
fn tuples(attrs: usize, rows: std::ops::Range<usize>) -> Vec<Vec<i64>> {
    let cols = columns(attrs, rows.clone());
    (0..rows.len())
        .map(|i| cols.iter().map(|c| c[i]).collect())
        .collect()
}

fn engine_over(relation: Relation) -> H2oEngine {
    let mut cfg = EngineConfig::default();
    // No adaptation interference: the window never completes.
    cfg.window.initial = 10_000;
    cfg.window.max = 10_000;
    H2oEngine::new(relation, cfg)
}

fn columnar_engine(attrs: usize, rows: usize) -> H2oEngine {
    let schema = Schema::with_width(attrs).into_shared();
    engine_over(Relation::columnar(schema, columns(attrs, 0..rows)).unwrap())
}

/// A columnar relation of `rows` rows at `seg_shift`.
fn columnar_with_shift(attrs: usize, rows: usize, seg_shift: u32) -> Relation {
    let schema = Schema::with_width(attrs).into_shared();
    let partition = (0..attrs).map(|a| vec![AttrId::from(a)]).collect();
    Relation::partitioned_with_shift(schema, columns(attrs, 0..rows), partition, seg_shift).unwrap()
}

/// With a ≥1M-row relation and 3 live layouts, a 1K-row insert clones at
/// most one tail chunk per group — verified through the engine's
/// `bytes_cloned_on_write` counter. The 12,345-row tail itself is never
/// copied, let alone the relation.
#[test]
fn small_batch_cow_cost_is_bounded_by_segment_size_not_relation_size() {
    // Not a multiple of the segment (or chunk) capacity, so every group
    // has a partially-filled last chunk for the append to clone.
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
    let chunk_bytes = CHUNK_ROWS * VALUE_BYTES; // one width-1 chunk
    assert!(
        stats.bytes_cloned_on_write > 0,
        "the shared last chunks must be cloned"
    );
    assert!(
        stats.bytes_cloned_on_write <= attrs as u64 * chunk_bytes,
        "a 1K-row batch must clone at most one chunk per group, got {} bytes",
        stats.bytes_cloned_on_write
    );

    // Snapshot isolation is intact and the batch is fully visible.
    assert_eq!(before.rows(), rows);
    assert_eq!(e.catalog().rows(), rows + 1024);
    assert_eq!(e.catalog().cell(rows + 1023, AttrId(0)).unwrap(), 1023);
    assert_eq!(e.catalog().cell(rows + 1023, AttrId(2)).unwrap(), 2046);
}

/// A reader pins a snapshot before every one of hundreds of 32-row
/// batches, so every batch pays the copy-on-write step — at every tail
/// length from a fresh head up to and past a seal, the bytes cloned stay
/// within one chunk per group, and every pinned snapshot still reads
/// exactly its own rows.
#[test]
fn pinned_snapshots_before_every_small_batch_clone_at_most_one_chunk_each() {
    let attrs = 6;
    let seg_shift = 14; // 16 chunks per segment
    let seg_rows = 1usize << seg_shift;
    let schema = Schema::with_width(attrs).into_shared();
    let partition: Vec<Vec<AttrId>> = [&[0u32][..], &[1, 2], &[3, 4, 5]]
        .iter()
        .map(|g| g.iter().map(|&a| AttrId(a)).collect())
        .collect();
    // One sealed segment plus a tail whose head ends mid-chunk.
    let start = seg_rows + 2_500;
    let e = engine_over(
        Relation::partitioned_with_shift(schema, columns(attrs, 0..start), partition, seg_shift)
            .unwrap(),
    );
    let bound: u64 = e
        .catalog()
        .groups()
        .map(|g| CHUNK_ROWS * g.width() as u64 * VALUE_BYTES)
        .sum();
    let end = 2 * seg_rows + 100;
    let mut pinned = Vec::new();
    let mut rows = start;
    while rows < end {
        pinned.push(e.snapshot());
        let before = e.stats();
        e.insert(&tuples(attrs, rows..rows + 32)).unwrap();
        rows += 32;
        let cloned = e.stats().bytes_cloned_on_write - before.bytes_cloned_on_write;
        assert!(
            cloned > 0 && cloned <= bound,
            "batch ending at row {rows}: cloned {cloned} bytes, bound {bound}"
        );
    }
    assert_eq!(e.stats().segments_sealed, 3, "each group sealed once");
    let now = e.snapshot();
    assert!(now.groups().all(|g| g.sealed_segment_count() == 2));
    let full: Vec<Vec<i64>> = now.groups().map(|g| g.collect_values()).collect();
    let cols = columns(attrs, 0..rows);
    for (g, want) in now.groups().zip(&full) {
        let expect: Vec<i64> = (0..rows)
            .flat_map(|r| g.attrs().iter().map(move |a| (a.index(), r)))
            .map(|(a, r)| cols[a][r])
            .collect();
        assert_eq!(want, &expect);
    }
    for snap in &pinned {
        let n = snap.rows();
        for (g, want) in snap.groups().zip(&full) {
            assert_eq!(g.rows(), n);
            assert_eq!(g.collect_values(), want[..n * g.width()]);
        }
    }
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
    // Default segments: > one segment of rows, so every scan crosses
    // segment boundaries.
    let default = columnar_engine(4, (1usize << DEFAULT_SEG_SHIFT) + 1_000);
    // Four chunks per segment: three sealed segments and a head split
    // mid-chunk, then snapshot-pinned batches that fill the tail chunk by
    // chunk and seal one more segment by concatenation.
    let chunked = engine_over(columnar_with_shift(4, 3 * 4_096 + 2_500, 12));
    let mut rows = 3 * 4_096 + 2_500;
    let mut pinned = Vec::new();
    for n in [300, 700, 1_024, 900] {
        pinned.push(chunked.snapshot());
        chunked.insert(&tuples(4, rows..rows + n)).unwrap();
        rows += n;
    }
    assert_eq!(chunked.stats().segments_sealed, 4);
    let parallel = ExecPolicy {
        parallelism: Some(2),
        morsel_rows: 1_000,
        serial_threshold: 0,
    };
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
    for e in [&default, &chunked] {
        // A reorganized layout: its tail is a head of whole chunks plus a
        // copied remainder, and the next batch appends chunks after it.
        e.materialize_now(&[AttrId(0), AttrId(1), AttrId(2)])
            .unwrap();
        let n = e.snapshot().rows();
        e.insert(&tuples(4, n..n + 1_500)).unwrap();
        let snap = e.snapshot();
        let layouts = snap.layout_ids();
        for q in &queries {
            let want = interpret(&snap, q).unwrap();
            assert_eq!(
                e.run(Request::query(q)).unwrap().result.fingerprint(),
                want.fingerprint(),
                "{q}"
            );
            let plan = AccessPlan::new(layouts.clone(), ExecStrategy::FusedVolcano);
            let op = compile(&snap, &plan, q).unwrap();
            let got = execute(&snap, &op).unwrap();
            assert_eq!(got.fingerprint(), want.fingerprint(), "query {q}");
            let got = execute_with_policy(&snap, &op, &parallel).unwrap();
            assert_eq!(got.fingerprint(), want.fingerprint(), "parallel query {q}");
        }
    }
    // Snapshots pinned across the chunked appends kept their rows.
    for snap in &pinned {
        let want = interpret(snap, &queries[2]).unwrap();
        let plan = AccessPlan::new(snap.layout_ids(), ExecStrategy::FusedVolcano);
        let op = compile(snap, &plan, &queries[2]).unwrap();
        assert_eq!(execute(snap, &op).unwrap(), want);
    }
}

/// The smallest morsel budget under which `op` completes.
fn min_budget(cat: &LayoutCatalog, op: &h2o::exec::CompiledOp, policy: ExecPolicy) -> u64 {
    (0..1_000)
        .find(|&b| {
            let token = CancelToken::new();
            token.set_budget(b);
            let ctx = ExecCtx {
                cancel: Some(&token),
                ..ExecCtx::new(policy)
            };
            match run(cat, op, &ctx) {
                Ok(_) => true,
                Err(ExecError::BudgetExhausted) => false,
                Err(e) => panic!("unexpected error {e}"),
            }
        })
        .expect("some budget suffices")
}

#[test]
fn chunked_tail_skips_the_same_segments_and_needs_the_same_budget_as_one_piece() {
    // 4 096-row segments, 1 024-row chunks; five sealed segments and a
    // 3 500-row tail. Loaded in one piece the tail is a 3 072-row head plus
    // one chunk; appended 100 rows at a time (a snapshot pinned before
    // each batch) it is four chunks.
    let total = 5 * 4_096 + 3_500;
    let one_piece = columnar_with_shift(3, total, 12).into_catalog();
    let mut chunked = columnar_with_shift(3, 3_000, 12).into_catalog();
    let mut pinned = Vec::new();
    let mut rows = 3_000;
    while rows < total {
        let n = 100.min(total - rows);
        pinned.push(chunked.clone());
        chunked.append_rows(&tuples(3, rows..rows + n)).unwrap();
        rows += n;
    }
    for (a, b) in one_piece.groups().zip(chunked.groups()) {
        assert_eq!(a.collect_values(), b.collect_values());
        assert_eq!(a.sealed_segment_count(), 5);
        assert_eq!(b.sealed_segment_count(), 5);
        let tail = |g: &h2o::storage::ColumnGroup| g.pieces().skip(5).count();
        assert_eq!((tail(a), tail(b)), (2, 4));
        for s in 0..5 {
            assert_eq!(a.seg_stats(s), b.seg_stats(s), "seal-time zone maps");
        }
    }
    // Bounds on the row id prune sealed segments (2–4, then 0–3) and
    // never the tail.
    let queries = [
        Query::aggregate(
            [Aggregate::sum(Expr::col(1u32)), Aggregate::count()],
            Conjunction::of([Predicate::lt(0u32, 5_000)]),
        )
        .unwrap(),
        Query::project(
            [Expr::col(2u32), Expr::col(0u32)],
            Conjunction::of([Predicate::gt(0u32, 18_000)]),
        )
        .unwrap(),
        Query::aggregate([Aggregate::max(Expr::col(2u32))], Conjunction::always()).unwrap(),
    ];
    let parallel = ExecPolicy {
        parallelism: Some(2),
        morsel_rows: 4_096,
        serial_threshold: 0,
    };
    for q in &queries {
        let want = interpret(&one_piece, q).unwrap();
        for policy in [ExecPolicy::serial(), parallel] {
            let plan = AccessPlan::new(one_piece.layout_ids(), ExecStrategy::FusedVolcano);
            let op = compile(&one_piece, &plan, q).unwrap();
            let (ra, sa) = run(&one_piece, &op, &ExecCtx::new(policy)).unwrap();
            let (rb, sb) = run(&chunked, &op, &ExecCtx::new(policy)).unwrap();
            let what = format!("{policy:?} query {q}");
            assert_eq!(ra, want, "{what}");
            assert_eq!(rb, want, "{what}");
            assert_eq!(sa.segments_skipped, sb.segments_skipped, "{what}");
            assert_eq!(
                min_budget(&one_piece, &op, policy),
                min_budget(&chunked, &op, policy),
                "{what}"
            );
        }
    }
    // The skip counters compared above are not vacuous.
    let plan = AccessPlan::new(chunked.layout_ids(), ExecStrategy::FusedVolcano);
    let op = compile(&chunked, &plan, &queries[0]).unwrap();
    let (_, stats) = run(&chunked, &op, &ExecCtx::new(ExecPolicy::serial())).unwrap();
    assert_eq!(stats.segments_skipped, 3);
    for snap in &pinned {
        assert!(snap.groups().all(|g| g.rows() == snap.rows()));
    }
}

/// One step of the randomized interleaving applied to both stores.
#[derive(Debug, Clone)]
enum Op {
    /// Append a batch of tuples (values filled from the seed).
    Append(Vec<Vec<i64>>),
    /// Append a generated batch of this many rows (crosses chunks and
    /// segments).
    Bulk(usize),
    /// Scan: (filter attr, threshold).
    Scan(usize, i64),
    /// Materialize the attribute subset picked by the bitmask and admit it.
    Reorg(u8),
}

fn arb_ops(n_attrs: usize) -> impl Strategy<Value = Vec<Op>> {
    // (kind, batch, attr, threshold, mask, bulk) — the kind
    // selector dispatches which fields are used (the vendored proptest
    // stand-in has no `prop_oneof`).
    let step = (
        0u8..10,
        proptest::collection::vec(
            proptest::collection::vec(-1000i64..1000, n_attrs..=n_attrs),
            1..6,
        ),
        0usize..n_attrs,
        -1000i64..1000,
        1u8..15,
        1usize..2_500,
    )
        .prop_map(|(kind, batch, attr, threshold, mask, bulk)| match kind {
            0..=1 => Op::Append(batch),
            2 => Op::Bulk(bulk),
            3..=6 => Op::Scan(attr, threshold),
            _ => Op::Reorg(mask),
        });
    proptest::collection::vec(step, 1..12)
}

fn scan_query(n_attrs: usize, attr: usize, threshold: i64) -> Query {
    Query::project(
        (0..n_attrs).map(|i| Expr::col(i as u32)),
        Conjunction::of([Predicate::lt((attr % n_attrs) as u32, threshold)]),
    )
    .unwrap()
}

fn apply_scan(cat: &LayoutCatalog, q: &Query) -> u64 {
    let plan = AccessPlan::new(cat.layout_ids(), ExecStrategy::FusedVolcano);
    let op = compile(cat, &plan, q).unwrap();
    execute(cat, &op).unwrap().fingerprint()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A segmented store — tiny segments (one chunk each), or 4 096-row
    /// segments of four chunks — and a monolithic store (everything in one
    /// segment's tail) stay bit-identical under random interleavings of
    /// append batches, scans, and
    /// reorganization. Snapshots taken before every append keep reading
    /// exactly their own rows.
    #[test]
    fn segmented_and_monolithic_stores_are_bit_identical(
        n_attrs in 2usize..5,
        rows in 0usize..40,
        shift_pick in 0u32..5,
        ops in arb_ops(4),
    ) {
        let n_attrs = n_attrs.min(4);
        // Picks 1..=3 are one-chunk segments; pick 4 is 12 (4 chunks per
        // segment), with enough rows that the head ends mid-chunk.
        let (seg_shift, rows) = match shift_pick {
            4 => (12, rows * 131),
            s => (s.max(1), rows),
        };
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
        let mut pinned: Vec<LayoutCatalog> = Vec::new();

        for op in &ops {
            match op {
                Op::Append(_) | Op::Bulk(_) => {
                    let batch: Vec<Vec<i64>> = match op {
                        Op::Append(b) => b.iter().map(|t| t[..n_attrs].to_vec()).collect(),
                        Op::Bulk(n) => (0..*n)
                            .map(|i| (0..n_attrs).map(|a| ((i * 17 + a * 5) % 401) as i64 - 200).collect())
                            .collect(),
                        _ => unreachable!(),
                    };
                    pinned.push(seg.clone());
                    pinned.push(mono.clone());
                    seg.append_rows(&batch).unwrap();
                    mono.append_rows(&batch).unwrap();
                }
                Op::Scan(attr, threshold) => {
                    let q = scan_query(n_attrs, *attr, *threshold);
                    let a = apply_scan(&seg, &q);
                    let b = apply_scan(&mono, &q);
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
                    seg.add_group(ga).unwrap();
                    mono.add_group(gb).unwrap();
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
        // Pinned snapshots never moved (copy-on-write correctness): every
        // layout reads exactly the prefix of the final payload it held.
        for snap in &pinned {
            let n = snap.rows();
            for g in snap.groups() {
                prop_assert_eq!(g.rows(), n);
                let now = seg.group(g.id()).unwrap().collect_values();
                prop_assert_eq!(g.collect_values(), now[..n * g.width()].to_vec());
            }
        }
    }
}
