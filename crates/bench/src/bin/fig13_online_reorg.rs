//! Figure 13 — "Online vs Offline reorganization."
//!
//! Two new column groups (10 and 20 attributes) are created from a
//! 100-attribute relation while an aggregation query over the new group's
//! attributes runs. *Offline*: `materialize` the layout, then execute the
//! query on it. *Online*: H2O's fused operator does both in one pass — the
//! same stitch loop, running the query's scan kernel over each stitched
//! 1K-row chunk. Q1/Q2 start from a row-major relation, Q3/Q4 from
//! column-major. After one warm-up of each (checked against the
//! interpreter), the variants' `REPS` repetitions alternate, so neither
//! pays for running first; each column is their median.
//!
//! Expected shape: online wins everywhere; bigger gains from the row-major
//! source (paper: 38–61% from rows, 22–37% from columns).

use h2o_bench::{csv_header, fmt_s, time, Args};
use h2o_exec::reorg::{materialize, reorg_and_execute};
use h2o_exec::{compile, execute, AccessPlan, ExecCtx, ExecPolicy, Strategy};
use h2o_storage::{AttrId, LayoutCatalog, Relation, Schema};
use h2o_workload::micro::{QueryGen, Template};
use h2o_workload::synth::gen_columns;

/// Timed repetitions per variant and case.
const REPS: usize = 5;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let args = Args::parse(400_000, 100, 0);
    eprintln!("fig13: {} tuples x {} attrs", args.tuples, args.attrs);
    let schema = Schema::with_width(args.attrs).into_shared();
    let columns = gen_columns(args.attrs, args.tuples, args.seed);
    let row_rel = Relation::row_major(schema.clone(), columns.clone()).unwrap();
    let col_rel = Relation::columnar(schema, columns).unwrap();
    let mut gen = QueryGen::new(args.attrs, args.seed);
    let attrs10 = gen.random_attrs(10);
    let attrs20 = gen.random_attrs(20);

    csv_header(&[
        "query",
        "initial_layout",
        "group_width",
        "offline_seconds",
        "online_seconds",
        "improvement_pct",
    ]);

    let cases: [(&str, &Relation, &Vec<AttrId>, &str); 4] = [
        ("Q1", &row_rel, &attrs10, "row-major"),
        ("Q2", &row_rel, &attrs20, "row-major"),
        ("Q3", &col_rel, &attrs10, "column-major"),
        ("Q4", &col_rel, &attrs20, "column-major"),
    ];

    for (name, rel, attrs, initial) in cases {
        // The triggering query: aggregations over all the new group's
        // attributes, no where clause (as in the paper's setup).
        let (q, _) = QueryGen::build(Template::Aggregation, attrs, &[], 1.0);

        // Offline: build the group, then run the query on it as a second
        // step. Online: one fused pass.
        let offline = || {
            let group = materialize(rel.catalog(), attrs).unwrap();
            let mut catalog = LayoutCatalog::new(rel.schema().clone(), rel.rows());
            let id = catalog.add_group(group).unwrap();
            let plan = AccessPlan::new(vec![id], Strategy::FusedVolcano);
            let op = compile(&catalog, &plan, &q).unwrap();
            execute(&catalog, &op).unwrap()
        };
        let serial = ExecCtx::new(ExecPolicy::serial());
        let online = || reorg_and_execute(rel.catalog(), attrs, &q, &serial).unwrap();

        let (offline_result, _) = time(offline);
        let ((group, online_result), _) = time(online);
        assert_eq!(group.width(), attrs.len());
        // Cross-check correctness against the interpreter.
        let want = h2o_expr::interpret(rel.catalog(), &q).unwrap();
        assert_eq!(online_result.fingerprint(), want.fingerprint());
        assert_eq!(offline_result.fingerprint(), want.fingerprint());

        let (mut offline_s, mut online_s) = (Vec::new(), Vec::new());
        for _ in 0..REPS {
            offline_s.push(time(|| std::hint::black_box(offline())).1);
            online_s.push(time(|| std::hint::black_box(online())).1);
        }
        let (t_offline, t_online) = (median(offline_s), median(online_s));
        let improvement = (1.0 - t_online / t_offline) * 100.0;
        println!(
            "{name},{initial},{},{},{},{improvement:.1}",
            attrs.len(),
            fmt_s(t_offline),
            fmt_s(t_online)
        );
    }
}
