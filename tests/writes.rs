//! Write-path integration: appends stay consistent across every layout and
//! across adaptation (the extension the paper leaves as future work).

use h2o::core::{EngineConfig, H2oEngine};
use h2o::expr::interpret;
use h2o::prelude::*;
use h2o::workload::synth::gen_columns;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn engine(n_attrs: usize, rows: usize, seed: u64) -> H2oEngine {
    let schema = Schema::with_width(n_attrs).into_shared();
    let relation = Relation::columnar(schema, gen_columns(n_attrs, rows, seed)).unwrap();
    let mut cfg = EngineConfig::default();
    cfg.window.initial = 6;
    cfg.window.min = 4;
    H2oEngine::new(relation, cfg)
}

#[test]
fn interleaved_reads_writes_and_adaptation_stay_consistent() {
    let e = engine(16, 1000, 21);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
    let hot_query = |v: i64| {
        Query::aggregate(
            [
                Aggregate::sum(Expr::sum_of([AttrId(0), AttrId(1), AttrId(2)])),
                Aggregate::count(),
            ],
            Conjunction::of([Predicate::lt(3u32, v)]),
        )
        .unwrap()
    };
    let mut expected_rows = 1000usize;
    for i in 0..60 {
        // Write a small batch every few queries.
        if i % 4 == 0 {
            let batch: Vec<Vec<i64>> = (0..3)
                .map(|_| (0..16).map(|_| rng.gen_range(-1000..1000)).collect())
                .collect();
            e.insert(&batch).unwrap();
            expected_rows += 3;
        }
        let q = hot_query(rng.gen_range(-1_000_000_000..1_000_000_000));
        let want = interpret(&e.catalog(), &q).unwrap();
        let got = e.run(Request::query(&q)).unwrap().result;
        assert_eq!(got.fingerprint(), want.fingerprint(), "query {i}");
        assert_eq!(e.catalog().rows(), expected_rows);
        // Every layout must stay row-aligned, including adaptively created
        // ones.
        assert!(e.catalog().groups().all(|g| g.rows() == expected_rows));
    }
    assert!(e.stats().rows_appended > 0);
}

#[test]
fn count_reflects_appends_through_any_layout() {
    let e = engine(8, 100, 9);
    // Force a tailored layout, then append, then count through it.
    e.materialize_now(&[AttrId(0), AttrId(4)]).unwrap();
    let q = Query::aggregate([Aggregate::count()], Conjunction::always()).unwrap();
    assert_eq!(e.run(Request::query(&q)).unwrap().result.row(0)[0], 100);
    e.insert(&vec![vec![0; 8]; 7]).unwrap();
    assert_eq!(e.run(Request::query(&q)).unwrap().result.row(0)[0], 107);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Appended values are exactly retrievable regardless of which layouts
    /// exist.
    #[test]
    fn appended_tuples_roundtrip(
        tuples in proptest::collection::vec(
            proptest::collection::vec(-1_000i64..1_000, 5..=5), 1..10),
        materialize_extra in any::<bool>(),
    ) {
        let e = engine(5, 20, 3);
        if materialize_extra {
            e.materialize_now(&[AttrId(1), AttrId(3)]).unwrap();
        }
        e.insert(&tuples).unwrap();
        let base = 20;
        for (i, t) in tuples.iter().enumerate() {
            for (a, &v) in t.iter().enumerate() {
                prop_assert_eq!(
                    e.catalog().cell(base + i, AttrId::from(a)).unwrap(),
                    v
                );
            }
        }
    }
}
