//! Property-based invariants over the storage and execution substrates.
#![allow(clippy::needless_range_loop)]

use h2o::cost::{AccessPattern, CostModel};
use h2o::exec::{
    compile, execute, reorg, AccessPlan, ExecCtx, ExecPolicy, Strategy as ExecStrategy,
};
use h2o::expr::interp::interpret_over;
use h2o::expr::interpret;
use h2o::prelude::*;
use h2o::storage::LayoutCatalog;
use proptest::prelude::*;

/// Strategy: a small relation as raw columns.
fn arb_columns() -> impl Strategy<Value = Vec<Vec<i64>>> {
    (1usize..6, 0usize..60).prop_flat_map(|(n_attrs, rows)| {
        proptest::collection::vec(
            proptest::collection::vec(-1000i64..1000, rows..=rows),
            n_attrs..=n_attrs,
        )
    })
}

/// Strategy: a random partition of `n` attributes (as index assignments).
fn arb_partition(n: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..n.max(1), n..=n)
}

fn build_partitioned(columns: &[Vec<i64>], assignment: &[usize]) -> Relation {
    let n = columns.len();
    let schema = Schema::with_width(n).into_shared();
    let mut groups: Vec<Vec<AttrId>> = Vec::new();
    let mut labels: Vec<usize> = Vec::new();
    for (attr, &block) in assignment.iter().enumerate() {
        match labels.iter().position(|&l| l == block) {
            Some(i) => groups[i].push(AttrId::from(attr)),
            None => {
                labels.push(block);
                groups.push(vec![AttrId::from(attr)]);
            }
        }
    }
    Relation::partitioned(schema, columns.to_vec(), groups).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reorganization preserves data: materializing any attribute subset
    /// from any partitioning yields exactly the source values.
    #[test]
    fn materialize_preserves_values(
        columns in arb_columns(),
        assignment_seed in arb_partition(6),
        pick in proptest::collection::vec(any::<bool>(), 6),
    ) {
        let n = columns.len();
        let rel = build_partitioned(&columns, &assignment_seed[..n]);
        let attrs: Vec<AttrId> = (0..n)
            .filter(|&i| pick[i])
            .map(AttrId::from)
            .collect();
        prop_assume!(!attrs.is_empty());
        let group = reorg::materialize(rel.catalog(), &attrs).unwrap();
        for (pos, &a) in attrs.iter().enumerate() {
            for row in 0..rel.rows() {
                prop_assert_eq!(group.value(row, pos), columns[a.index()][row]);
            }
        }
    }

    /// The same query over any physical partitioning equals the
    /// interpreter's answer.
    #[test]
    fn partitioning_is_transparent(
        columns in arb_columns(),
        assignment_seed in arb_partition(6),
        sel_value in -1000i64..1000,
    ) {
        let n = columns.len();
        let rel = build_partitioned(&columns, &assignment_seed[..n]);
        let q = Query::aggregate(
            [
                Aggregate::sum(Expr::col(0u32)),
                Aggregate::count(),
            ],
            Conjunction::of([Predicate::lt(AttrId::from(n - 1), sel_value)]),
        )
        .unwrap();
        let want = interpret(rel.catalog(), &q).unwrap();
        let plan = AccessPlan::new(rel.catalog().layout_ids(), ExecStrategy::FusedVolcano);
        let op = compile(rel.catalog(), &plan, &q).unwrap();
        let got = execute(rel.catalog(), &op).unwrap();
        prop_assert_eq!(got, want);
    }

    /// Fused reorganization = offline materialization + interpreter answer.
    #[test]
    fn online_reorg_equals_offline(
        columns in arb_columns(),
        sel_value in -1000i64..1000,
    ) {
        let n = columns.len();
        let schema = Schema::with_width(n).into_shared();
        let rel = Relation::columnar(schema, columns).unwrap();
        let attrs: Vec<AttrId> = (0..n).map(AttrId::from).collect();
        let q = Query::project(
            [Expr::col(0u32)],
            Conjunction::of([Predicate::gt(AttrId::from(n - 1), sel_value)]),
        )
        .unwrap();
        let serial = ExecCtx::new(ExecPolicy::serial());
        let (group, result) =
            reorg::reorg_and_execute(rel.catalog(), &attrs, &q, &serial).unwrap();
        let offline = reorg::materialize(rel.catalog(), &attrs).unwrap();
        prop_assert_eq!(group.collect_values(), offline.collect_values());
        let want = interpret(rel.catalog(), &q).unwrap();
        prop_assert_eq!(result.fingerprint(), want.fingerprint());
    }

    /// Interpreting over a tailored single group equals interpreting over
    /// the original columns (the oracle's soundness).
    #[test]
    fn tailored_group_is_transparent(
        columns in arb_columns(),
        sel_value in -1000i64..1000,
    ) {
        let n = columns.len();
        let schema = Schema::with_width(n).into_shared();
        let rel = Relation::columnar(schema.clone(), columns).unwrap();
        let q = Query::aggregate(
            [Aggregate::min(Expr::col(0u32))],
            Conjunction::of([Predicate::le(AttrId::from(n - 1), sel_value)]),
        )
        .unwrap();
        let attrs: Vec<AttrId> = q.all_attrs().to_vec();
        let group = reorg::materialize(rel.catalog(), &attrs).unwrap();
        let mut catalog = LayoutCatalog::new(schema, rel.rows());
        catalog.add_group(group).unwrap();
        let via_group = interpret(&catalog, &q).unwrap();
        let via_columns = interpret(rel.catalog(), &q).unwrap();
        prop_assert_eq!(via_group, via_columns);
    }

    /// Cost model sanity: non-negative, monotone in rows, and covering
    /// more attributes never costs less under the same plan shape.
    #[test]
    fn cost_model_sane(
        k in 1usize..10,
        sel in 0.0f64..1.0,
        rows in 1usize..1_000_000,
    ) {
        let model = CostModel;
        let attrs: AttrSet = (0..k).collect();
        let pat = AccessPattern {
            select: attrs.clone(),
            where_: AttrSet::new(),
            selectivity: sel,
            output_width: 1,
            select_ops: k,
            is_aggregate: true,
            is_grouped: false,
        };
        let groups = [&attrs];
        let c = model.best_plan(&pat, &groups, rows).unwrap().cost;
        prop_assert!(c.is_finite() && c >= 0.0);
        let c2 = model.best_plan(&pat, &groups, rows * 2).unwrap().cost;
        prop_assert!(c2 >= c);
    }

    /// The interpreter over an explicit cover equals the interpreter over
    /// the catalog's chosen cover.
    #[test]
    fn interpreter_cover_independence(
        columns in arb_columns(),
        assignment_seed in arb_partition(6),
    ) {
        let n = columns.len();
        let rel = build_partitioned(&columns, &assignment_seed[..n]);
        let q = Query::project(
            (0..n).map(|i| Expr::col(i as u32)),
            Conjunction::always(),
        )
        .unwrap();
        let via_catalog = interpret(rel.catalog(), &q).unwrap();
        let groups: Vec<_> = rel.catalog().groups().collect();
        let via_all = interpret_over(&groups, &q).unwrap();
        prop_assert_eq!(via_catalog.fingerprint(), via_all.fingerprint());
    }
}

/// EWMA selectivity-feedback invariants (the engine's `sel_history`).
///
/// The engine smooths observed selectivities with an EWMA (`est' =
/// (est + observed) / 2`). Two properties pin it down: under a stationary
/// workload the estimate converges geometrically toward the true
/// selectivity, and under *any* query/insert sequence it can never leave
/// `[0, 1]`.
mod selectivity_feedback {
    use super::*;
    use h2o::core::{EngineConfig, H2oEngine};

    fn quiet_config() -> EngineConfig {
        let mut cfg = EngineConfig::default();
        // No adaptation interference: the window never completes.
        cfg.window.initial = 10_000;
        cfg.window.max = 10_000;
        cfg
    }

    fn engine_from(columns: &[Vec<i64>]) -> H2oEngine {
        let schema = Schema::with_width(columns.len()).into_shared();
        let rel = Relation::columnar(schema, columns.to_vec()).unwrap();
        H2oEngine::new(rel, quiet_config())
    }

    /// Like `arb_columns` but guaranteed non-empty (at least one row).
    fn arb_filled_columns() -> impl Strategy<Value = Vec<Vec<i64>>> {
        (1usize..6, 1usize..60).prop_flat_map(|(n_attrs, rows)| {
            proptest::collection::vec(
                proptest::collection::vec(-1000i64..1000, rows..=rows),
                n_attrs..=n_attrs,
            )
        })
    }

    fn filter_query(n_attrs: usize, attr: usize, threshold: i64) -> Query {
        Query::project(
            [Expr::col((attr % n_attrs) as u32)],
            Conjunction::of([Predicate::lt((attr % n_attrs) as u32, threshold)]),
        )
        .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Stationary workload: the estimate halves its error every query,
        /// converging geometrically to the true selectivity — even when the
        /// history was seeded by an earlier phase with different data.
        #[test]
        fn ewma_converges_to_true_selectivity(
            columns in arb_filled_columns(),
            attr in 0usize..6,
            threshold in -1000i64..1000,
            shift in proptest::collection::vec(
                proptest::collection::vec(-1000i64..1000, 1..=6), 0..20),
            reps in 1usize..12,
        ) {
            let n = columns.len();
            let e = engine_from(&columns);
            let q = filter_query(n, attr, threshold);
            // Phase A seeds the history with the pre-shift selectivity.
            e.run(Request::query(&q)).unwrap();
            // Phase B: appended tuples change the true selectivity.
            let batch: Vec<Vec<i64>> = shift
                .iter()
                .map(|t| (0..n).map(|a| t[a % t.len()]).collect())
                .collect();
            if !batch.is_empty() {
                e.insert(&batch).unwrap();
            }
            let snap = e.snapshot();
            let truth =
                interpret(&snap, &q).unwrap().rows() as f64 / snap.rows() as f64;
            let mut err = (e.observed_selectivity(&q).unwrap() - truth).abs();
            for i in 0..reps {
                e.run(Request::query(&q)).unwrap();
                let est = e.observed_selectivity(&q).unwrap();
                let new_err = (est - truth).abs();
                prop_assert!(
                    new_err <= 0.5 * err + 1e-9,
                    "rep {i}: error must halve ({err} -> {new_err}, truth {truth})"
                );
                prop_assert!((0.0..=1.0).contains(&est));
                err = new_err;
            }
            prop_assert!(err <= 1.0 * 0.5f64.powi(reps as i32) + 1e-9);
        }

        /// Adversarial sequences — random filters, random constants,
        /// interleaved inserts, hint abuse — never push any stored estimate
        /// or any planning estimate outside [0, 1].
        #[test]
        fn ewma_stays_in_unit_interval_under_adversarial_sequences(
            columns in arb_filled_columns(),
            ops in proptest::collection::vec(
                (any::<bool>(), 0usize..6, -2000i64..2000, -10.0f64..10.0), 1..40),
        ) {
            let n = columns.len();
            let e = engine_from(&columns);
            for (do_insert, attr, threshold, hint) in ops {
                if do_insert {
                    e.insert(&[vec![threshold; n]]).unwrap();
                } else {
                    let q = filter_query(n, attr, threshold);
                    // Out-of-range hints must be clamped, not stored raw.
                    let req = if hint.is_finite() {
                        Request::query(&q).hint(hint)
                    } else {
                        Request::query(&q)
                    };
                    let out = e.run(req).unwrap();
                    let report = out.report.query().unwrap();
                    prop_assert!(
                        (0.0..=1.0).contains(&report.selectivity_estimate),
                        "planning estimate escaped [0,1]: {}",
                        report.selectivity_estimate
                    );
                    if let Some(est) = e.observed_selectivity(&q) {
                        prop_assert!(
                            (0.0..=1.0).contains(&est),
                            "stored estimate escaped [0,1]: {est}"
                        );
                    }
                }
            }
        }
    }
}

/// The wire decoders face input from outside the process: whatever they
/// are given, they return — a value or a typed [`WireError`] — and never
/// panic or exhaust the stack.
mod hostile_wire {
    use super::*;
    use h2o::expr::{join_from_json, query_from_json, query_to_json, Json, WireError};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::with_width(4).into_shared()
    }

    /// A valid query document to mutate.
    fn valid_doc() -> String {
        let q = Query::project(
            [Expr::sum_of([AttrId(0), AttrId(1)])],
            Conjunction::of([Predicate::lt(2u32, 7)]),
        )
        .unwrap();
        query_to_json(&q, &schema()).to_string()
    }

    /// Runs every decoder over `input`; the only acceptable outcomes are
    /// `Ok` and `Err(WireError)`.
    fn decode(input: &str) -> Result<(), WireError> {
        let doc = Json::parse(input)?;
        let schema = schema();
        let single = query_from_json(&doc, &schema).map(drop);
        let join = join_from_json(&doc, &|_| Some(schema.clone())).map(drop);
        single.and(join)
    }

    /// `depth` levels of `{"op":"+","lhs":…,"rhs":{"lit":1}}` around a
    /// literal, built directly (the parser's own cap would refuse it).
    fn nested_expr(depth: usize) -> Json {
        let lit = || Json::Obj(vec![("lit".to_string(), Json::Int(1))]);
        (0..depth).fold(lit(), |inner, _| {
            Json::Obj(vec![
                ("op".to_string(), Json::Str("+".to_string())),
                ("lhs".to_string(), inner),
                ("rhs".to_string(), lit()),
            ])
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes (lossily decoded) and strings of JSON
        /// punctuation, which reach deeper into the parser.
        #[test]
        fn arbitrary_input_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..200),
            tokens in proptest::collection::vec(0usize..12, 0..200),
        ) {
            const TOKENS: [&str; 12] = [
                "{", "}", "[", "]", "\"", ":", ",", "\\", "select", "-1", "e9", " ",
            ];
            let _ = decode(&String::from_utf8_lossy(&bytes));
            let _ = decode(&tokens.iter().map(|&t| TOKENS[t]).collect::<String>());
        }

        /// A valid document truncated anywhere, or with a byte replaced.
        #[test]
        fn mutated_documents_never_panic(cut in 0usize..400, byte in any::<u8>()) {
            let doc = valid_doc();
            prop_assert!(decode(&doc).is_err(), "a single-relation query is no join");
            let cut = cut % doc.len();
            prop_assert!(decode(&doc[..cut]).is_err(), "a strict prefix is no document");
            let mut mutated = doc.into_bytes();
            mutated[cut] = byte;
            let _ = decode(&String::from_utf8_lossy(&mutated));
        }

        /// Nesting is refused at a fixed depth, in the parser and in the
        /// expression decoder, long before recursion can hurt.
        #[test]
        fn nesting_is_capped(depth in 0usize..2_000) {
            for open in ["[", "{\"a\":"] {
                match Json::parse(&open.repeat(depth)) {
                    Err(WireError::Syntax { msg, .. }) => {
                        prop_assert_eq!(msg == "nesting too deep", depth > 128)
                    }
                    other => prop_assert!(false, "unterminated input parsed: {other:?}"),
                }
            }
            let doc = Json::Obj(vec![(
                "select".to_string(),
                Json::Arr(vec![nested_expr(depth)]),
            )]);
            match query_from_json(&doc, &schema()) {
                Ok(_) => prop_assert!(depth < 128),
                Err(e) => {
                    prop_assert!(depth >= 128);
                    prop_assert_eq!(
                        e.to_string(),
                        "malformed request: expression nesting too deep"
                    );
                }
            }
        }
    }

    /// Far past any stack: a million levels, once.
    #[test]
    fn a_million_levels_is_a_typed_error() {
        for open in ["[", "{\"a\":"] {
            let err = Json::parse(&open.repeat(1_000_000)).unwrap_err();
            assert!(err.to_string().ends_with("nesting too deep"), "got {err}");
        }
    }
}
