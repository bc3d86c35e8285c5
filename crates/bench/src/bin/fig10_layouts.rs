//! Figure 10 (a–f) — "Basic operators of H2O": behavior of the three data
//! layouts across query types.
//!
//! Panels (a–c): projections / aggregations / arithmetic expressions with
//! no where clause, sweeping the number of attributes accessed from 5 to
//! 145 (of 150). Panels (d–f): the same templates accessing 20 attributes
//! with one predicate, sweeping selectivity 0.1%–100%.
//!
//! Layouts, per the paper's setup: row-major, a column group containing
//! *exactly* the accessed attributes, and column-major (one group per
//! attribute, reading exactly the accessed columns). All three run the one
//! fused kernel, so the curves differ only in layout (§4.1: "comparisons
//! purely reflect the differences in data layouts"); over the column
//! layout it folds bare-column aggregates and gathers bare columns and
//! column sums a column at a time, with block-sized vectors where the
//! paper's column-store materializes whole intermediate columns. Group
//! creation cost is not measured ("the cost of creating each group of
//! columns layout is not considered").
//!
//! Expected shapes: (a) groups best at every width, row converging at
//! 100%; (b) pure columns best for aggregations; (c) groups beat columns
//! and rows; (d–f) groups best across the selectivity range for
//! projections/expressions, columns competitive for aggregations at low
//! selectivity.
//!
//! Every timed operator's answer is checked against the interpreter's
//! before it is timed. Each cell is the median of 9 hot repetitions after
//! one warm-up, printed with its interquartile range (`*_iqr`).

use h2o_bench::{csv_header, fmt_s, time_hot_median, Args};
use h2o_exec::{compile, execute, AccessPlan, Strategy};
use h2o_expr::interp::interpret;
use h2o_expr::{Query, QueryResult};
use h2o_storage::{AttrId, LayoutCatalog, LayoutId, Relation, Schema};
use h2o_workload::micro::{QueryGen, Template};
use h2o_workload::synth::gen_columns;

/// Hot repetitions per cell.
const REPS: usize = 9;

/// The `(median, IQR)` seconds of `q` over `layouts` of `catalog`, after
/// checking its answer against `want` (the interpreter's).
fn timed(
    catalog: &LayoutCatalog,
    layouts: Vec<LayoutId>,
    q: &Query,
    want: &QueryResult,
) -> (f64, f64) {
    let op = compile(
        catalog,
        &AccessPlan::new(layouts, Strategy::FusedVolcano),
        q,
    )
    .unwrap();
    assert_eq!(&execute(catalog, &op).unwrap(), want, "{q}");
    time_hot_median(REPS, || execute(catalog, &op).unwrap())
}

/// Executes `q` on the row-major relation.
fn run_row(rel: &Relation, q: &Query, want: &QueryResult) -> (f64, f64) {
    timed(rel.catalog(), rel.catalog().layout_ids(), q, want)
}

/// Executes `q` on the columnar relation, reading the columns it needs.
fn run_column(rel: &Relation, q: &Query, want: &QueryResult) -> (f64, f64) {
    let layouts = rel.catalog().cover(&q.all_attrs()).unwrap();
    timed(rel.catalog(), layouts, q, want)
}

/// Executes `q` on a freshly materialized exact column group. The
/// paper's group layout has "no unique execution strategy" (§3.3) and
/// picks between the fused and selection-vector plans per query; here
/// both are one scan, the selection-vector plan holding a morsel's ids
/// where the fused scan holds a block's.
fn run_group(source: &Relation, q: &Query, want: &QueryResult) -> (f64, f64) {
    let attrs: Vec<AttrId> = q.all_attrs().to_vec();
    let group = h2o_exec::reorg::materialize(source.catalog(), &attrs).unwrap();
    let mut catalog = LayoutCatalog::new(source.schema().clone(), source.rows());
    let id = catalog.add_group(group).unwrap();
    timed(&catalog, vec![id], q, want)
}

/// The CSV cells of one row: each layout's median, then each IQR.
fn cells(times: [(f64, f64); 3]) -> String {
    let medians = times.iter().map(|t| fmt_s(t.0));
    let iqrs = times.iter().map(|t| fmt_s(t.1));
    medians.chain(iqrs).collect::<Vec<_>>().join(",")
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
        "row_iqr",
        "group_iqr",
        "column_iqr",
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
            let cells = cells([t_row, t_grp, t_col]);
            println!("{panel},{},{k},1.0,{cells}", template.name());
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
            let cells = cells([t_row, t_grp, t_col]);
            println!("{panel},{},20,{sel},{cells}", template.name());
        }
    }
}
