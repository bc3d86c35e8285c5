//! Figure 14 — "Generic Operator vs Generated Code."
//!
//! Q1 (aggregations) and Q2 (an arithmetic expression) access 20 of the
//! relation's 150 attributes. Each runs twice per layout (row-major and an
//! exact column group): once through the *generic operator* — the
//! tuple-at-a-time interpreter with per-node expression dispatch — and once
//! through the *generated code* — the specialized fused kernel plus the
//! measured time to generate it on an operator-cache miss (the paper
//! includes its 63–84 ms codegen time in the measurement; ours is
//! microseconds, because the kernels are monomorphized ahead of time).
//!
//! Both operators' answers are checked equal before timing.
//!
//! Expected shape: generated code wins by ~16% up to ~1.7× (interpretation
//! overhead removed).

use h2o_bench::{csv_header, fmt_s, time_hot, Args};
use h2o_exec::{execute, AccessPlan, CompileCostModel, OperatorCache, Strategy};
use h2o_expr::interp::interpret_over;
use h2o_expr::Query;
use h2o_storage::{ColumnGroup, LayoutCatalog, Relation, Schema};
use h2o_workload::micro::{QueryGen, Template};
use h2o_workload::synth::gen_columns;

/// Times `q` on a single group through both operator flavors; returns
/// `(generic, generated execution, generation)` seconds.
fn compare(
    schema: &std::sync::Arc<Schema>,
    rows: usize,
    group: &ColumnGroup,
    q: &Query,
) -> (f64, f64, f64) {
    // Generic operator: the interpreter.
    let want = interpret_over(&[group], q).unwrap();
    let t_generic = time_hot(3, || interpret_over(&[group], q).unwrap());

    // Generated code: compile + execute. The compile is one operator-cache
    // miss (amortized paths hit the cache; this measures the first-use
    // cost as the paper does).
    let mut catalog = LayoutCatalog::new(schema.clone(), rows);
    let id = catalog.add_group(group.clone()).unwrap();
    let plan = AccessPlan::new(vec![id], Strategy::FusedVolcano);
    let cache = OperatorCache::new(1, CompileCostModel::ZERO);
    let op = cache.get_or_compile(&catalog, &plan, q).unwrap();
    let t_compile = cache.stats().compile_time.as_secs_f64();
    assert_eq!(execute(&catalog, &op).unwrap(), want, "generated code");
    let t_exec = time_hot(3, || execute(&catalog, &op).unwrap());
    (t_generic, t_exec, t_compile)
}

fn main() {
    let args = Args::parse(400_000, 150, 0);
    eprintln!(
        "fig14: {} tuples x {} attrs, 20 accessed",
        args.tuples, args.attrs
    );
    let schema = Schema::with_width(args.attrs).into_shared();
    let columns = gen_columns(args.attrs, args.tuples, args.seed);
    let source = Relation::columnar(schema.clone(), columns.clone()).unwrap();
    let row_rel = Relation::row_major(schema.clone(), columns).unwrap();
    let mut gen = QueryGen::new(args.attrs, args.seed);
    let attrs = gen.random_attrs(20);

    // Q1: aggregation with filter; Q2: arithmetic expression with filter.
    let (q1, _) = QueryGen::build(Template::Aggregation, &attrs[1..], &attrs[..1], 0.4);
    let (q2, _) = QueryGen::build(Template::Expression, &attrs[1..], &attrs[..1], 0.4);

    // The exact 20-attribute group and the full row-major group.
    let exact = h2o_exec::reorg::materialize(source.catalog(), &attrs).unwrap();
    let row_group = row_rel.catalog().groups().next().unwrap();

    csv_header(&[
        "query",
        "layout",
        "generic_seconds",
        "generated_seconds",
        "compile_seconds",
        "speedup",
    ]);
    for (name, q) in [("Q1-agg", &q1), ("Q2-expr", &q2)] {
        for (layout, group) in [("row-major", row_group), ("column-group", &exact)] {
            let (t_gen, t_exec, t_compile) = compare(&schema, args.tuples, group, q);
            let t_code = t_exec + t_compile;
            println!(
                "{name},{layout},{},{},{t_compile:.9},{:.2}",
                fmt_s(t_gen),
                fmt_s(t_code),
                t_gen / t_code
            );
        }
    }
}
