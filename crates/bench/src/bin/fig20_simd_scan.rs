//! Vectorized vs scalar-reference kernel scan throughput (beyond the
//! paper: the prototype's generated code is scalar, so this figure has no
//! paper analogue — it quantifies what the chunked-SIMD inner-loop rewrite
//! in `h2o_exec::kernels::simd` buys on top of specialization).
//!
//! For each execution strategy and several predicate selectivities, times
//! the strategy's hot filter/aggregate kernel twice over the same
//! `GroupViews`: once through the vectorized path the engine ships, once
//! through the retained `*_scalar` reference body (the exact
//! pre-vectorization loop), and reports rows/sec for both plus the
//! speedup. Data is uniform-random (zone maps cannot prune), so the
//! numbers isolate the inner loop itself.
//!
//! Correctness rides along: per (strategy, selectivity) the engine-level
//! serial, morsel-parallel, and interpreter results must be
//! fingerprint-identical — a throughput number for a wrong answer is
//! worthless (`tests/simd.rs` asserts the same identities in tier-1).
//!
//! Interpreting the numbers: the selection-vector build gains the most —
//! its scalar reference pays per-row slot indirection that the chunked
//! loop amortizes across 8-row masks. The fused and column-major scans
//! start from tighter scalar loops, so their factors are smaller and
//! shrink as selectivity grows (more qualifying rows means more time in
//! the shared gather/update code both paths run).

use h2o_bench::{time_hot, Args};
use h2o_exec::filter::{CompiledFilter, CompiledPred};
use h2o_exec::kernels::{colmajor, fused, selvector};
use h2o_exec::{
    compile, execute, execute_with_policy, AccessPlan, BoundAttr, CompiledExpr, ExecPolicy,
    GroupViews, Strategy,
};
use h2o_expr::agg::AggOp;
use h2o_expr::{interpret, AggFunc, Aggregate, CmpOp, Conjunction, Expr, Predicate, Query};
use h2o_storage::{LogicalType, Relation, Schema};
use h2o_workload::synth::{gen_columns, threshold_for_selectivity};

const SELECTIVITIES: [f64; 3] = [0.01, 0.1, 0.5];

fn main() {
    let args = Args::parse(4_000_000, 2, 3);
    let rows = args.tuples;
    let reps = args.queries.max(1);

    eprintln!("fig20: building {rows} x 2 row-major relation ...");
    let schema = Schema::with_width(2).into_shared();
    let columns = gen_columns(2, rows, args.seed);
    let rel = Relation::row_major(schema, columns).unwrap();
    let layouts = rel.catalog().layout_ids();
    let group = rel.catalog().group(layouts[0]).unwrap();
    let views = GroupViews::from_groups(&[group]);
    let off0 = group.offset_of(h2o_storage::AttrId(0)).unwrap() as u32;
    let off1 = group.offset_of(h2o_storage::AttrId(1)).unwrap() as u32;
    let parallel = ExecPolicy {
        parallelism: Some(4),
        morsel_rows: 65_536,
        serial_threshold: 0,
    };

    let mut entries = Vec::new();
    for sel in SELECTIVITIES {
        let threshold = threshold_for_selectivity(sel);
        // Kernel-level program: where a0 < t, and sum(a1) for the fused scan.
        let filter = CompiledFilter::new(vec![CompiledPred::from_lane(
            BoundAttr {
                slot: 0,
                offset: off0,
            },
            CmpOp::Lt,
            LogicalType::I64,
            threshold,
        )]);
        let aggs = vec![(
            AggOp::new(AggFunc::Sum, LogicalType::I64),
            CompiledExpr::Col(BoundAttr {
                slot: 0,
                offset: off1,
            }),
        )];
        // Engine-level twin of the same query, for the fingerprint gate.
        let query = Query::aggregate(
            [Aggregate::sum(Expr::col(1u32))],
            Conjunction::of([Predicate::lt(0u32, threshold)]),
        )
        .unwrap();
        let reference = interpret(rel.catalog(), &query).unwrap();

        for strategy in Strategy::ALL {
            // Symmetric timings: same views, same compiled program, only
            // the inner loop differs.
            let (simd_s, scalar_s) = match strategy {
                Strategy::FusedVolcano => (
                    time_hot(reps, || {
                        fused::aggregate_range(&views, &filter, &aggs, 0..rows)
                    }),
                    time_hot(reps, || {
                        fused::aggregate_range_scalar(&views, &filter, &aggs, 0..rows)
                    }),
                ),
                Strategy::SelVector => (
                    time_hot(reps, || {
                        selvector::build_selvec_range(&views, &filter, 0..rows)
                    }),
                    time_hot(reps, || {
                        selvector::build_selvec_range_scalar(&views, &filter, 0..rows)
                    }),
                ),
                Strategy::ColumnMajor => (
                    time_hot(reps, || {
                        colmajor::build_selvec_columnar_range(&views, &filter, 0..rows)
                    }),
                    time_hot(reps, || {
                        colmajor::build_selvec_columnar_range_scalar(&views, &filter, 0..rows)
                    }),
                ),
            };
            let simd_rps = rows as f64 / simd_s;
            let scalar_rps = rows as f64 / scalar_s;
            let speedup = scalar_s / simd_s;

            let plan = AccessPlan::new(layouts.clone(), strategy);
            let op = compile(rel.catalog(), &plan, &query).unwrap();
            let serial = execute(rel.catalog(), &op).unwrap();
            let par = execute_with_policy(rel.catalog(), &op, &parallel).unwrap();
            let parallel_identical = par == serial;

            eprintln!(
                "fig20: sel={sel:<4} {:<11} simd {:>6.1} Mrow/s  scalar {:>6.1} Mrow/s  {speedup:.2}x",
                strategy.name(),
                simd_rps / 1e6,
                scalar_rps / 1e6,
            );
            entries.push(format!(
                "{{\"strategy\":\"{}\",\"selectivity\":{sel},\
                 \"rows_per_s_simd\":{simd_rps:.0},\"rows_per_s_scalar\":{scalar_rps:.0},\
                 \"speedup\":{speedup:.4},\
                 \"serial_fingerprint\":\"{:x}\",\"parallel_fingerprint\":\"{:x}\",\
                 \"interp_fingerprint\":\"{:x}\",\"parallel_identical\":{parallel_identical}}}",
                strategy.name(),
                serial.fingerprint(),
                par.fingerprint(),
                reference.fingerprint(),
            ));
        }
    }

    println!(
        "{{\"bench\":\"fig20_simd_scan\",\"rows\":{rows},\"reps\":{reps},\"seed\":{},\"results\":[{}]}}",
        args.seed,
        entries.join(",")
    );
}
