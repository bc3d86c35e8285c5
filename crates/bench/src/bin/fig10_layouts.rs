//! Figure 10 (a–f) — "Basic operators of H2O": behavior of the three data
//! layouts across query types.
//!
//! Panels (a–c): projections / aggregations / arithmetic expressions with
//! no where clause, sweeping the number of attributes accessed from 5 to
//! 145 (of 150). Panels (d–f): the same templates accessing 20 attributes
//! with one predicate, sweeping selectivity 0.1%–100%.
//!
//! Layouts, per the paper's setup: row-major (fused volcano), a column
//! group containing *exactly* the accessed attributes (fused volcano), and
//! column-major (DSM with selection vectors and intermediates). Group
//! creation cost is not measured ("the cost of creating each group of
//! columns layout is not considered").
//!
//! Expected shapes: (a) groups best at every width, row converging at
//! 100%; (b) pure columns best for aggregations; (c) groups beat columns
//! (intermediate materialization) and rows; (d–f) groups best across the
//! selectivity range for projections/expressions, columns competitive for
//! aggregations at low selectivity.

use h2o_bench::{csv_header, fmt_s, time_hot, Args};
use h2o_exec::{compile, execute, AccessPlan, Strategy};
use h2o_expr::Query;
use h2o_storage::{AttrId, LayoutCatalog, Relation, Schema};
use h2o_workload::micro::{QueryGen, Template};
use h2o_workload::synth::gen_columns;

/// Executes `q` on the row-major relation with the fused strategy.
fn run_row(rel: &Relation, q: &Query) -> f64 {
    let plan = AccessPlan::new(rel.catalog().layout_ids(), Strategy::FusedVolcano);
    let op = compile(rel.catalog(), &plan, q).unwrap();
    time_hot(3, || execute(rel.catalog(), &op).unwrap())
}

/// Executes `q` on the columnar relation with the DSM strategy.
fn run_column(rel: &Relation, q: &Query) -> f64 {
    let ids = rel.catalog().cover(&q.all_attrs()).unwrap();
    let plan = AccessPlan::new(ids, Strategy::ColumnMajor);
    let op = compile(rel.catalog(), &plan, q).unwrap();
    time_hot(3, || execute(rel.catalog(), &op).unwrap())
}

/// Executes `q` on a freshly materialized exact column group. The group
/// layout has "no unique execution strategy" (§3.3) — H2O picks per query —
/// so we report the better of the fused and selection-vector strategies.
fn run_group(source: &Relation, q: &Query) -> f64 {
    let attrs: Vec<AttrId> = q.all_attrs().to_vec();
    let group = h2o_exec::reorg::materialize(source.catalog(), &attrs).unwrap();
    let mut catalog = LayoutCatalog::new(source.schema().clone(), source.rows());
    let id = catalog.add_group(group, 0).unwrap();
    [Strategy::FusedVolcano, Strategy::SelVector]
        .into_iter()
        .map(|strategy| {
            let plan = AccessPlan::new(vec![id], strategy);
            let op = compile(&catalog, &plan, q).unwrap();
            time_hot(3, || execute(&catalog, &op).unwrap())
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let args = Args::parse(300_000, 150, 0);
    eprintln!("fig10: {} tuples x {} attrs", args.tuples, args.attrs);
    let schema = Schema::with_width(args.attrs).into_shared();
    let columns = gen_columns(args.attrs, args.tuples, args.seed);
    let col_rel = Relation::columnar(schema.clone(), columns.clone()).unwrap();
    let row_rel = Relation::row_major(schema, columns).unwrap();
    let mut gen = QueryGen::new(args.attrs, args.seed);

    csv_header(&[
        "panel",
        "template",
        "attrs",
        "selectivity",
        "row_seconds",
        "group_seconds",
        "column_seconds",
    ]);

    // Panels (a)-(c): attribute sweep, no where clause.
    let widths = [5, 15, 25, 45, 65, 85, 105, 125, 145];
    for (panel, template) in [
        ("a", Template::Projection),
        ("b", Template::Aggregation),
        ("c", Template::Expression),
    ] {
        for &k in &widths {
            let attrs = gen.random_attrs(k.min(args.attrs));
            let (q, _) = QueryGen::build(template, &attrs, &[], 1.0);
            let t_row = run_row(&row_rel, &q);
            let t_grp = run_group(&col_rel, &q);
            let t_col = run_column(&col_rel, &q);
            println!(
                "{panel},{},{k},1.0,{},{},{}",
                template.name(),
                fmt_s(t_row),
                fmt_s(t_grp),
                fmt_s(t_col)
            );
        }
    }

    // Panels (d)-(f): 20 attributes, selectivity sweep, one predicate on an
    // accessed attribute.
    let sels = [0.001, 0.01, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0];
    for (panel, template) in [
        ("d", Template::Projection),
        ("e", Template::Aggregation),
        ("f", Template::Expression),
    ] {
        let attrs = gen.random_attrs(20);
        for &sel in &sels {
            let (q, _) = QueryGen::build(template, &attrs[1..], &attrs[..1], sel);
            let t_row = run_row(&row_rel, &q);
            let t_grp = run_group(&col_rel, &q);
            let t_col = run_column(&col_rel, &q);
            println!(
                "{panel},{},20,{sel},{},{},{}",
                template.name(),
                fmt_s(t_row),
                fmt_s(t_grp),
                fmt_s(t_col)
            );
        }
    }
}
