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
//!
//! Every timed operator's answer is checked against the interpreter's
//! before it is timed.

use h2o_bench::{csv_header, fmt_s, time_hot, Args};
use h2o_exec::{compile, execute, AccessPlan, Strategy};
use h2o_expr::interp::interpret;
use h2o_expr::{Query, QueryResult};
use h2o_storage::{AttrId, LayoutCatalog, LayoutId, Relation, Schema};
use h2o_workload::micro::{QueryGen, Template};
use h2o_workload::synth::gen_columns;

/// Times `q` over `layouts` of `catalog` under `strategy`, after checking
/// its answer against `want` (the interpreter's).
fn timed(
    catalog: &LayoutCatalog,
    layouts: Vec<LayoutId>,
    strategy: Strategy,
    q: &Query,
    want: &QueryResult,
) -> f64 {
    let op = compile(catalog, &AccessPlan::new(layouts, strategy), q).unwrap();
    assert_eq!(
        &execute(catalog, &op).unwrap(),
        want,
        "{} {q}",
        strategy.name()
    );
    time_hot(3, || execute(catalog, &op).unwrap())
}

/// Executes `q` on the row-major relation with the fused strategy.
fn run_row(rel: &Relation, q: &Query, want: &QueryResult) -> f64 {
    let layouts = rel.catalog().layout_ids();
    timed(rel.catalog(), layouts, Strategy::FusedVolcano, q, want)
}

/// Executes `q` on the columnar relation with the DSM strategy.
fn run_column(rel: &Relation, q: &Query, want: &QueryResult) -> f64 {
    let layouts = rel.catalog().cover(&q.all_attrs()).unwrap();
    timed(rel.catalog(), layouts, Strategy::ColumnMajor, q, want)
}

/// Executes `q` on a freshly materialized exact column group with the
/// fused strategy. The paper's group layout has "no unique execution
/// strategy" (§3.3) and picks between the fused and selection-vector
/// plans per query; here both are one scan, the selection-vector plan
/// holding a morsel's ids where the fused scan holds a block's.
fn run_group(source: &Relation, q: &Query, want: &QueryResult) -> f64 {
    let attrs: Vec<AttrId> = q.all_attrs().to_vec();
    let group = h2o_exec::reorg::materialize(source.catalog(), &attrs).unwrap();
    let mut catalog = LayoutCatalog::new(source.schema().clone(), source.rows());
    let id = catalog.add_group(group).unwrap();
    timed(&catalog, vec![id], Strategy::FusedVolcano, q, want)
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
            let want = interpret(col_rel.catalog(), &q).unwrap();
            let t_row = run_row(&row_rel, &q, &want);
            let t_grp = run_group(&col_rel, &q, &want);
            let t_col = run_column(&col_rel, &q, &want);
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
            let want = interpret(col_rel.catalog(), &q).unwrap();
            let t_row = run_row(&row_rel, &q, &want);
            let t_grp = run_group(&col_rel, &q, &want);
            let t_col = run_column(&col_rel, &q, &want);
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
