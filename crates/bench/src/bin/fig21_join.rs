//! Hash-join throughput and greedy build-side ordering (beyond the paper:
//! the prototype is single-relation, so this figure has no paper analogue —
//! it quantifies the multi-relation extension of the adaptive layer).
//!
//! Two sweeps over a fact ⋈ dim equi-join (`R.fk = dim.k`, residual filter
//! on the fact side, one payload column projected from each side):
//!
//! * **exec** entries — for each (dim cardinality, filter selectivity,
//!   execution strategy), rows/sec of the serial hash join with the build
//!   side fixed to the cheaper (post-filter) input. Correctness rides
//!   along: serial, morsel-parallel and interpreter results must be
//!   fingerprint-identical per entry.
//! * **order** entries — for each (dim cardinality, selectivity), the
//!   engine runs the same join greedily (build side from its observed
//!   per-predicate selectivity history, warmed by one prior execution)
//!   and with the build side forced to the opposite, worst order. Both
//!   must be fingerprint-identical to the interpreter; the summed greedy
//!   time against the summed worst-order time is the figure's headline.
//! * **bloom** entries — a low-match-rate probe (1% of fact foreign keys
//!   hit the dimension; the misses sit *between* real keys, so the exact
//!   `[min,max]` range check cannot reject them) with the build-side
//!   join filter on vs off: skipping the hash lookup for provably-absent
//!   keys must pay for building and testing the filter.
//! * **fusion** entries — a grouped join-rollup over a duplicate-key
//!   dimension (each probe hit matches `dup` build rows) with the fused
//!   probe loop on vs off. Fusion collapses the `dup` identical
//!   aggregate updates per probe row into one multiplicity-weighted
//!   update.
//!
//! Interpreting the numbers: the ordering gap is widest where the sides
//! are most asymmetric (selectivity 0.5 against a small dimension — the
//! worst order builds a hash table over half the fact table); at
//! selectivity 0.01 the post-filter fact side is comparable to the
//! dimension and the two orders converge, which is why the sum, not each
//! point, is the number to read.

use h2o_bench::{time_hot, Args};
use h2o_core::{EngineConfig, H2oEngine, Request};
use h2o_exec::{
    compile_join, execute_join_with_policy, run_join, AccessPlan, ExecCtx, ExecPolicy, JoinOptions,
    Strategy,
};
use h2o_expr::{check_join, interpret_join, Aggregate, Conjunction, JoinQuery, Predicate, Side};
use h2o_storage::{LogicalType, Relation, Schema, Value};
use h2o_workload::{
    gen_columns, gen_fk_column, gen_fk_column_in_domain, gen_sparse_key_column,
    threshold_for_selectivity,
};

const SELECTIVITIES: [f64; 3] = [0.01, 0.1, 0.5];

fn fact_schema() -> std::sync::Arc<Schema> {
    Schema::typed([
        ("fk", LogicalType::I64),
        ("v0", LogicalType::I64),
        ("v1", LogicalType::I64),
    ])
    .into_shared()
}

fn dim_schema() -> std::sync::Arc<Schema> {
    Schema::typed([("k", LogicalType::I64), ("tag", LogicalType::I64)]).into_shared()
}

/// The swept join shape: project one payload column per side, residual
/// filter `v0 < t` on the fact side sized for `sel`.
/// `policy` with explicit join fast-path switches.
fn join_ctx(policy: &ExecPolicy, join: JoinOptions) -> ExecCtx<'static> {
    ExecCtx {
        join,
        ..ExecCtx::new(*policy)
    }
}

fn join_query(sel: f64) -> JoinQuery {
    let threshold = threshold_for_selectivity(sel);
    let jb = JoinQuery::builder(("R", fact_schema()), ("dim", dim_schema()))
        .on("fk", "k")
        .unwrap()
        .filter_left(Conjunction::of([Predicate::lt(1u32, threshold)]));
    let v1 = jb.lcol("v1").unwrap();
    let tag = jb.rcol("tag").unwrap();
    jb.project([v1, tag]).unwrap()
}

fn main() {
    let args = Args::parse(1_000_000, 3, 3);
    let rows = args.tuples;
    let reps = args.queries.max(1);
    let dim_cardinalities = [rows.div_ceil(64).max(1), rows.div_ceil(8).max(1)];

    eprintln!("fig21: {rows}-row fact, dim cardinalities {dim_cardinalities:?}");
    let fact_rest = gen_columns(2, rows, args.seed ^ 0x0fac);
    let parallel = ExecPolicy {
        parallelism: Some(4),
        morsel_rows: 65_536,
        serial_threshold: 0,
    };

    let mut entries = Vec::new();
    for dim_rows in dim_cardinalities {
        // Distinct, scattered dimension keys; ~90% of fact fks match.
        let keys: Vec<Value> = (0..dim_rows).map(|i| (i as Value) * 7 - 1000).collect();
        let tags: Vec<Value> = keys.iter().map(|k| k.wrapping_mul(3) + 1).collect();
        let fk = gen_fk_column(rows, &keys, 0.9, 0.2, args.seed);
        let fact_columns = vec![fk, fact_rest[0].clone(), fact_rest[1].clone()];
        let dim_columns = vec![keys, tags];
        let fact = Relation::columnar(fact_schema(), fact_columns.clone()).unwrap();
        let dim = Relation::columnar(dim_schema(), dim_columns.clone()).unwrap();
        let fact_layouts = fact.catalog().layout_ids();
        let dim_layouts = dim.catalog().layout_ids();

        for sel in SELECTIVITIES {
            let q = join_query(sel);
            let checked = check_join(&q).unwrap();
            let reference = interpret_join(fact.catalog(), dim.catalog(), &q).unwrap();
            // The cheaper (post-filter) input builds — the same greedy rule
            // the engine applies once its selectivity history has converged.
            let build_is_left = rows as f64 * sel <= dim_rows as f64;

            for strategy in Strategy::ALL {
                let lp = AccessPlan::new(fact_layouts.clone(), strategy);
                let rp = AccessPlan::new(dim_layouts.clone(), strategy);
                let op = compile_join(
                    fact.catalog(),
                    dim.catalog(),
                    &lp,
                    &rp,
                    &q,
                    &checked,
                    build_is_left,
                )
                .unwrap();
                let serial_s = time_hot(reps, || {
                    execute_join_with_policy(
                        fact.catalog(),
                        dim.catalog(),
                        &op,
                        &ExecPolicy::serial(),
                    )
                    .unwrap()
                });
                let (serial, _) = execute_join_with_policy(
                    fact.catalog(),
                    dim.catalog(),
                    &op,
                    &ExecPolicy::serial(),
                )
                .unwrap();
                let (par, _) =
                    execute_join_with_policy(fact.catalog(), dim.catalog(), &op, &parallel)
                        .unwrap();
                let parallel_identical = par == serial;
                let rps = (rows + dim_rows) as f64 / serial_s;

                eprintln!(
                    "fig21: dim={dim_rows:<7} sel={sel:<4} {:<11} {:>6.1} Mrow/s",
                    strategy.name(),
                    rps / 1e6,
                );
                entries.push(format!(
                    "{{\"kind\":\"exec\",\"strategy\":\"{}\",\"dim_rows\":{dim_rows},\
                     \"selectivity\":{sel},\"rows_per_s\":{rps:.0},\
                     \"serial_fingerprint\":\"{:x}\",\"parallel_fingerprint\":\"{:x}\",\
                     \"interp_fingerprint\":\"{:x}\",\"parallel_identical\":{parallel_identical}}}",
                    strategy.name(),
                    serial.fingerprint(),
                    par.fingerprint(),
                    reference.fingerprint(),
                ));
            }

            // Greedy vs worst-order, through the engine: one warm-up run
            // feeds the selectivity history, then both orders are timed on
            // the learned state.
            let engine = H2oEngine::new(
                Relation::columnar(fact_schema(), fact_columns.clone()).unwrap(),
                EngineConfig::non_adaptive(),
            );
            engine
                .add_relation(
                    "dim",
                    Relation::columnar(dim_schema(), dim_columns.clone()).unwrap(),
                )
                .unwrap();
            let _warm = engine.run(Request::join(&q)).unwrap();
            let greedy_s = time_hot(reps, || engine.run(Request::join(&q)).unwrap().result);
            let greedy = engine.run(Request::join(&q)).unwrap().result;
            let report = engine.last_join_report().expect("join just ran");
            let worst_side = if report.build_is_left {
                Side::Right
            } else {
                Side::Left
            };
            let worst_s = time_hot(reps, || {
                engine
                    .run(Request::join(&q).build_side(worst_side))
                    .unwrap()
                    .result
            });
            let worst = engine
                .run(Request::join(&q).build_side(worst_side))
                .unwrap()
                .result;
            let ratio = worst_s / greedy_s;
            eprintln!(
                "fig21: dim={dim_rows:<7} sel={sel:<4} order: greedy builds {} \
                 ({:.4}s) vs worst ({:.4}s) = {ratio:.2}x",
                if report.build_is_left { "fact" } else { "dim" },
                greedy_s,
                worst_s,
            );
            entries.push(format!(
                "{{\"kind\":\"order\",\"dim_rows\":{dim_rows},\"selectivity\":{sel},\
                 \"build_is_left\":{},\"greedy_s\":{greedy_s:.6},\"worst_s\":{worst_s:.6},\
                 \"greedy_over_worst\":{ratio:.4},\
                 \"greedy_fingerprint\":\"{:x}\",\"worst_fingerprint\":\"{:x}\",\
                 \"interp_fingerprint\":\"{:x}\"}}",
                report.build_is_left,
                greedy.fingerprint(),
                worst.fingerprint(),
                reference.fingerprint(),
            ));
        }
    }

    // Bloom sweep: 1% match rate with in-domain misses — every probe row
    // qualifies (no residual filter), so the filter's hash-lookup skips
    // are the entire difference between the two timings. The dimension is
    // deliberately small (rows/64): the timed execution includes the
    // build phase, which both arms pay identically, so a small build
    // keeps that shared cost from diluting the probe-side ratio.
    {
        let dim_rows = rows.div_ceil(64).max(1);
        let keys = gen_sparse_key_column(dim_rows, (dim_rows as u64) * 4, args.seed ^ 0xb100);
        let tags: Vec<Value> = keys.iter().map(|k| k.wrapping_mul(3) + 1).collect();
        let fk = gen_fk_column_in_domain(rows, &keys, 0.01, 0.2, args.seed ^ 0xb101);
        let fact = Relation::columnar(
            fact_schema(),
            vec![fk, fact_rest[0].clone(), fact_rest[1].clone()],
        )
        .unwrap();
        let dim = Relation::columnar(dim_schema(), vec![keys, tags]).unwrap();

        let jb = JoinQuery::builder(("R", fact_schema()), ("dim", dim_schema()))
            .on("fk", "k")
            .unwrap();
        let v1 = jb.lcol("v1").unwrap();
        let tag = jb.rcol("tag").unwrap();
        let q = jb.project([v1, tag]).unwrap();
        let checked = check_join(&q).unwrap();
        let reference = interpret_join(fact.catalog(), dim.catalog(), &q).unwrap();

        for strategy in Strategy::ALL {
            let lp = AccessPlan::new(fact.catalog().layout_ids(), strategy);
            let rp = AccessPlan::new(dim.catalog().layout_ids(), strategy);
            // The dimension builds: the fact side is the low-match probe.
            let op =
                compile_join(fact.catalog(), dim.catalog(), &lp, &rp, &q, &checked, false).unwrap();
            let off = JoinOptions {
                bloom: false,
                fuse: false,
            };
            let on = JoinOptions {
                bloom: true,
                fuse: false,
            };
            // Best of two interleaved rounds per arm: a scheduler hiccup
            // in one round cannot fake a speedup (or hide one) in the
            // ratio.
            let mut base_s = f64::INFINITY;
            let mut bloom_s = f64::INFINITY;
            for _ in 0..2 {
                base_s = base_s.min(time_hot(reps, || {
                    run_join(
                        fact.catalog(),
                        dim.catalog(),
                        &op,
                        &join_ctx(&ExecPolicy::serial(), off),
                    )
                    .unwrap()
                }));
                bloom_s = bloom_s.min(time_hot(reps, || {
                    run_join(
                        fact.catalog(),
                        dim.catalog(),
                        &op,
                        &join_ctx(&ExecPolicy::serial(), on),
                    )
                    .unwrap()
                }));
            }
            let (serial, stats) = run_join(
                fact.catalog(),
                dim.catalog(),
                &op,
                &join_ctx(&ExecPolicy::serial(), on),
            )
            .unwrap();
            let (par, _) =
                run_join(fact.catalog(), dim.catalog(), &op, &join_ctx(&parallel, on)).unwrap();
            let speedup = base_s / bloom_s;
            eprintln!(
                "fig21: bloom {:<11} 1% match: off {base_s:.4}s vs on {bloom_s:.4}s \
                 = {speedup:.2}x ({} rejects)",
                strategy.name(),
                stats.probe_bloom_rejects,
            );
            entries.push(format!(
                "{{\"kind\":\"bloom\",\"strategy\":\"{}\",\"dim_rows\":{dim_rows},\
                 \"match_rate\":0.01,\"base_s\":{base_s:.6},\"bloom_s\":{bloom_s:.6},\
                 \"speedup\":{speedup:.4},\"bloom_rejects\":{},\
                 \"serial_fingerprint\":\"{:x}\",\"parallel_fingerprint\":\"{:x}\",\
                 \"interp_fingerprint\":\"{:x}\",\"parallel_identical\":{}}}",
                strategy.name(),
                stats.probe_bloom_rejects,
                serial.fingerprint(),
                par.fingerprint(),
                reference.fingerprint(),
                par == serial,
            ));
        }
    }

    // Fusion sweep: a grouped rollup reading only fact attributes over a
    // dimension whose every key appears `dup` times — each probe hit
    // matches `dup` build rows, and the fused loop folds them as one
    // multiplicity-weighted update instead of `dup` identical ones.
    {
        let dup = 32usize;
        let distinct = rows.div_ceil(256).max(1);
        let dim_rows = distinct * dup;
        let uniq: Vec<Value> = (0..distinct).map(|i| (i as Value) * 7 - 1000).collect();
        let keys: Vec<Value> = (0..dim_rows).map(|i| uniq[i % distinct]).collect();
        let tags: Vec<Value> = keys.iter().map(|k| k.wrapping_mul(3) + 1).collect();
        let fk = gen_fk_column(rows, &uniq, 0.9, 0.2, args.seed ^ 0xf5ed);
        let grp: Vec<Value> = (0..rows).map(|i| ((i * 13) % 64) as Value).collect();
        let fact = Relation::columnar(fact_schema(), vec![fk, fact_rest[0].clone(), grp]).unwrap();
        let dim = Relation::columnar(dim_schema(), vec![keys, tags]).unwrap();

        let jb = JoinQuery::builder(("R", fact_schema()), ("dim", dim_schema()))
            .on("fk", "k")
            .unwrap();
        let g = jb.lcol("v1").unwrap();
        let v0 = jb.lcol("v0").unwrap();
        let q = jb
            .grouped([g], [Aggregate::sum(v0), Aggregate::count()])
            .unwrap();
        let checked = check_join(&q).unwrap();
        let reference = interpret_join(fact.catalog(), dim.catalog(), &q).unwrap();

        for strategy in Strategy::ALL {
            let lp = AccessPlan::new(fact.catalog().layout_ids(), strategy);
            let rp = AccessPlan::new(dim.catalog().layout_ids(), strategy);
            // The dimension builds; its payload is empty (the rollup reads
            // only fact attributes), so the probe loop fuses.
            let op =
                compile_join(fact.catalog(), dim.catalog(), &lp, &rp, &q, &checked, false).unwrap();
            assert!(op.fused(), "empty build payload must enable fusion");
            let off = JoinOptions {
                bloom: false,
                fuse: false,
            };
            let on = JoinOptions {
                bloom: true,
                fuse: true,
            };
            let base_s = time_hot(reps, || {
                run_join(
                    fact.catalog(),
                    dim.catalog(),
                    &op,
                    &join_ctx(&ExecPolicy::serial(), off),
                )
                .unwrap()
            });
            let fused_s = time_hot(reps, || {
                run_join(
                    fact.catalog(),
                    dim.catalog(),
                    &op,
                    &join_ctx(&ExecPolicy::serial(), on),
                )
                .unwrap()
            });
            let (serial, _) = run_join(
                fact.catalog(),
                dim.catalog(),
                &op,
                &join_ctx(&ExecPolicy::serial(), on),
            )
            .unwrap();
            let (par, _) =
                run_join(fact.catalog(), dim.catalog(), &op, &join_ctx(&parallel, on)).unwrap();
            let speedup = base_s / fused_s;
            eprintln!(
                "fig21: fusion {:<11} dup={dup}: two-phase {base_s:.4}s vs fused \
                 {fused_s:.4}s = {speedup:.2}x",
                strategy.name(),
            );
            entries.push(format!(
                "{{\"kind\":\"fusion\",\"strategy\":\"{}\",\"dim_rows\":{dim_rows},\
                 \"dup\":{dup},\"base_s\":{base_s:.6},\"fused_s\":{fused_s:.6},\
                 \"speedup\":{speedup:.4},\
                 \"serial_fingerprint\":\"{:x}\",\"parallel_fingerprint\":\"{:x}\",\
                 \"interp_fingerprint\":\"{:x}\",\"parallel_identical\":{}}}",
                strategy.name(),
                serial.fingerprint(),
                par.fingerprint(),
                reference.fingerprint(),
                par == serial,
            ));
        }
    }

    println!(
        "{{\"bench\":\"fig21_join\",\"rows\":{rows},\"reps\":{reps},\"seed\":{},\"results\":[{}]}}",
        args.seed,
        entries.join(",")
    );
}
