//! Figure 11 — "Accessing a subset of a column group."
//!
//! A 30-attribute column group exists; queries (aggregation with filter)
//! access only 5/10/15/20/25 of its attributes at selectivities
//! 1%/10%/50%/100%. Each query is compared against the *optimal* case — a
//! tailored group containing exactly the accessed attributes — and the
//! performance penalty is reported as a percentage.
//!
//! Expected shape: the fewer useful attributes, the higher the penalty
//! (paper: up to ~142% at 5/30), near-zero at 25/30.

use h2o_bench::{csv_header, time_hot, Args};
use h2o_exec::{compile, execute, AccessPlan, Strategy};
use h2o_expr::Query;
use h2o_storage::{AttrId, LayoutCatalog, Relation, Schema};
use h2o_workload::micro::{QueryGen, Template};
use h2o_workload::synth::gen_columns;

/// Stages `q` over a materialized group of exactly `attrs` and times it.
fn timed_on_group(source: &Relation, group_attrs: &[AttrId], q: &Query) -> f64 {
    let group = h2o_exec::reorg::materialize(source.catalog(), group_attrs).unwrap();
    let mut catalog = LayoutCatalog::new(source.schema().clone(), source.rows());
    let id = catalog.add_group(group).unwrap();
    let plan = AccessPlan::new(vec![id], Strategy::FusedVolcano);
    let op = compile(&catalog, &plan, q).unwrap();
    time_hot(5, || execute(&catalog, &op).unwrap())
}

fn main() {
    let args = Args::parse(300_000, 150, 0);
    eprintln!(
        "fig11: {} tuples x {} attrs, group of 30",
        args.tuples, args.attrs
    );
    let schema = Schema::with_width(args.attrs).into_shared();
    let columns = gen_columns(args.attrs, args.tuples, args.seed);
    let source = Relation::columnar(schema, columns).unwrap();
    let mut gen = QueryGen::new(args.attrs, args.seed);
    let group_attrs = gen.random_attrs(30);

    csv_header(&[
        "selectivity",
        "attrs_accessed",
        "group30_seconds",
        "optimal_seconds",
        "penalty_pct",
    ]);
    for sel in [0.01, 0.1, 0.5, 1.0] {
        for useful in [5usize, 10, 15, 20, 25] {
            // `useful` attributes of the group (first one filters).
            let accessed: Vec<AttrId> = group_attrs.iter().copied().take(useful).collect();
            let (q, _) =
                QueryGen::build(Template::Aggregation, &accessed[1..], &accessed[..1], sel);
            let t_group = timed_on_group(&source, &group_attrs, &q);
            let t_opt = timed_on_group(&source, &accessed, &q);
            let penalty = (t_group / t_opt - 1.0) * 100.0;
            println!("{sel},{useful},{:.6},{:.6},{penalty:.1}", t_group, t_opt);
        }
    }
}
