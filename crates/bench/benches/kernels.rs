//! Criterion micro-benchmarks over the hot execution kernels.
//!
//! These are regression-tracking benches for the operator primitives (the
//! figure-level reproduction harness lives in `src/bin/fig*`): fused scans
//! per layout, selection-vector build/consume, column-at-a-time execution,
//! reorganization, and the interpreted-vs-compiled contrast.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use h2o_exec::{compile, execute, AccessPlan, ExecCtx, ExecPolicy, Strategy};
use h2o_expr::interp::interpret_over;
use h2o_storage::{AttrId, Relation, Schema};
use h2o_workload::micro::{QueryGen, Template};
use h2o_workload::synth::gen_columns;

const ROWS: usize = 100_000;
const ATTRS: usize = 40;

fn relations() -> (Relation, Relation) {
    let schema = Schema::with_width(ATTRS).into_shared();
    let columns = gen_columns(ATTRS, ROWS, 7);
    let col = Relation::columnar(schema.clone(), columns.clone()).unwrap();
    let row = Relation::row_major(schema, columns).unwrap();
    (col, row)
}

fn query() -> h2o_expr::Query {
    let attrs: Vec<AttrId> = (0u32..10).map(AttrId).collect();
    QueryGen::build(Template::Expression, &attrs[1..], &attrs[..1], 0.3).0
}

fn bench_strategies(c: &mut Criterion) {
    let (col_rel, row_rel) = relations();
    let q = query();
    let mut group = c.benchmark_group("strategy");
    group.throughput(Throughput::Elements(ROWS as u64));

    // Fused over the row-major layout.
    let plan = AccessPlan::new(row_rel.catalog().layout_ids(), Strategy::FusedVolcano);
    let op = compile(row_rel.catalog(), &plan, &q).unwrap();
    group.bench_function("fused_row_major", |b| {
        b.iter(|| execute(row_rel.catalog(), &op).unwrap())
    });

    // Sel-vector and DSM over the columnar layout.
    let cover = col_rel
        .catalog()
        .cover(
            &q.all_attrs(),
            h2o_storage::catalog::CoverPolicy::LeastExcessWidth,
        )
        .unwrap();
    let ids: Vec<_> = cover.into_iter().map(|(id, _)| id).collect();
    for strategy in [Strategy::SelVector, Strategy::ColumnMajor] {
        let plan = AccessPlan::new(ids.clone(), strategy);
        let op = compile(col_rel.catalog(), &plan, &q).unwrap();
        group.bench_with_input(
            BenchmarkId::new("columns", strategy.name()),
            &op,
            |b, op| b.iter(|| execute(col_rel.catalog(), op).unwrap()),
        );
    }
    group.finish();
}

fn bench_codegen_vs_interp(c: &mut Criterion) {
    let (col_rel, _) = relations();
    let q = query();
    let attrs: Vec<AttrId> = q.all_attrs().to_vec();
    let group = h2o_exec::reorg::materialize(col_rel.catalog(), &attrs).unwrap();
    let mut catalog = h2o_storage::LayoutCatalog::new(col_rel.schema().clone(), ROWS);
    let id = catalog.add_group(group, 0).unwrap();
    let plan = AccessPlan::new(vec![id], Strategy::FusedVolcano);
    let op = compile(&catalog, &plan, &q).unwrap();
    let g = catalog.group(id).unwrap();

    let mut bg = c.benchmark_group("codegen");
    bg.throughput(Throughput::Elements(ROWS as u64));
    bg.bench_function("generated_fused", |b| {
        b.iter(|| execute(&catalog, &op).unwrap())
    });
    bg.bench_function("generic_interpreter", |b| {
        b.iter(|| interpret_over(&[g], &q).unwrap())
    });
    bg.finish();
}

fn bench_reorg(c: &mut Criterion) {
    let (col_rel, row_rel) = relations();
    let attrs: Vec<AttrId> = (0u32..8).map(AttrId).collect();
    let q = QueryGen::build(Template::Aggregation, &attrs, &[], 1.0).0;
    let mut bg = c.benchmark_group("reorg");
    bg.throughput(Throughput::Elements(ROWS as u64));
    bg.bench_function("materialize_columnwise", |b| {
        b.iter(|| h2o_exec::reorg::materialize(col_rel.catalog(), &attrs).unwrap())
    });
    let serial = ExecCtx::new(ExecPolicy::serial());
    bg.bench_function("online_fused_from_rows", |b| {
        b.iter(|| {
            h2o_exec::reorg::reorg_and_execute(row_rel.catalog(), &attrs, &q, &serial).unwrap()
        })
    });
    bg.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_strategies, bench_codegen_vs_interp, bench_reorg
}
criterion_main!(benches);
