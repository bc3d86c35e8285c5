//! `join_steady`: a 500K x 8 fact relation joined to a 16K x 4 dimension in
//! four shapes that take different paths through `h2o-exec::join`.

use super::{Rep, Tracer};
use crate::embedded::{Embedded, Op, Shape};
use crate::gen::{jittered_threshold, mix, Rng};
use h2o_expr::{Aggregate, Conjunction, JoinBuilder, JoinQuery, Predicate};
use h2o_storage::{LogicalType, Relation, Schema, Value};
use h2o_workload::{gen_columns, gen_fk_column_in_domain, gen_key_column};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const FACT_ROWS: usize = 262_144;
pub const DIM_ROWS: usize = 16_384;
/// Rows of the dimension sharing one `kd` value.
const DUP: usize = 16;

pub const KINDS: [&str; 4] = [
    "proj_1pct_match",
    "agg_50pct_match",
    "fused_agg_dup_keys",
    "rollup_50pct_match",
];

/// `agg_50pct_match` appears twice so that the median request falls inside
/// its latency distribution, not between two kinds.
const ROTATION: [usize; 5] = [0, 1, 2, 1, 3];
const ROTATIONS_PER_PASS: usize = 3;

fn fact_schema() -> Arc<Schema> {
    Schema::typed(
        ["fk_lo", "fk_hi", "fk_dup", "v0", "v1", "v2", "v3", "g"].map(|n| (n, LogicalType::I64)),
    )
    .into_shared()
}

fn dim_schema() -> Arc<Schema> {
    Schema::typed(["k", "kd", "cat", "w"].map(|n| (n, LogicalType::I64))).into_shared()
}

fn builder() -> JoinBuilder {
    JoinQuery::builder(("R", fact_schema()), ("dim", dim_schema()))
}

fn build_query(kind: usize, rng: &mut Rng) -> JoinQuery {
    // Every shape filters the fact side at ~80% on v3 with its own
    // constant, so cached join operators are rebound, not replayed.
    let residual = Conjunction::of([Predicate::lt(6u32, jittered_threshold(rng, 0.8))]);
    match kind {
        // 1% of fact keys match and the misses lie between real keys, so
        // the bloom bits (not the key range) reject them before the probe.
        0 => {
            let jb = builder().on("fk_lo", "k").unwrap().filter_left(residual);
            let cols = [jb.lcol("v0").unwrap(), jb.rcol("w").unwrap()];
            jb.project(cols)
        }
        // Half the keys match and the build payload is read: the hash
        // probe and the payload fetch bound the time.
        1 => {
            let jb = builder().on("fk_hi", "k").unwrap().filter_left(residual);
            let aggs = [Aggregate::sum(jb.rcol("w").unwrap()), Aggregate::count()];
            jb.aggregate(aggs)
        }
        // Duplicate build keys and no build payload: the fused
        // join-aggregate path folds each hit with its multiplicity.
        2 => {
            let jb = builder().on("fk_dup", "kd").unwrap().filter_left(residual);
            let aggs = [Aggregate::sum(jb.lcol("v1").unwrap()), Aggregate::count()];
            jb.aggregate(aggs)
        }
        _ => {
            let jb = builder().on("fk_hi", "k").unwrap().filter_left(residual);
            let key = [jb.rcol("cat").unwrap()];
            let aggs = [Aggregate::sum(jb.lcol("v2").unwrap()), Aggregate::count()];
            jb.grouped(key, aggs)
        }
    }
    .expect("join templates are well-formed")
}

pub fn stream(seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(mix(seed, 0x701a));
    (0..ROTATIONS_PER_PASS)
        .flat_map(|_| ROTATION)
        .map(|kind| Op {
            kind,
            shape: Shape::Join(Box::new(build_query(kind, &mut rng))),
            hint: None,
        })
        .collect()
}

fn relations(seed: u64) -> (Relation, Relation) {
    // Unique even keys: odd values in between are in-range misses.
    let k: Vec<Value> = (0..DIM_ROWS as Value).map(|i| i * 14).collect();
    let kd_distinct: Vec<Value> = (0..(DIM_ROWS / DUP) as Value).map(|i| i * 6).collect();
    let kd: Vec<Value> = (0..DIM_ROWS)
        .map(|i| kd_distinct[i % kd_distinct.len()])
        .collect();
    let cat = gen_key_column(DIM_ROWS, 8, mix(seed, 0xca7));
    let w = gen_key_column(DIM_ROWS, 1000, mix(seed, 0x77));

    let mut fact = gen_columns(8, FACT_ROWS, mix(seed, 0xfac7));
    fact[0] = gen_fk_column_in_domain(FACT_ROWS, &k, 0.01, 0.2, mix(seed, 1));
    fact[1] = gen_fk_column_in_domain(FACT_ROWS, &k, 0.5, 0.2, mix(seed, 2));
    fact[2] = gen_fk_column_in_domain(FACT_ROWS, &kd_distinct, 0.25, 0.2, mix(seed, 3));
    fact[7] = gen_key_column(FACT_ROWS, 8, mix(seed, 4));
    (
        Relation::columnar(fact_schema(), fact).expect("fact columns match the schema"),
        Relation::columnar(dim_schema(), vec![k, kd, cat, w])
            .expect("dim columns match the schema"),
    )
}

pub fn join_steady(seed: u64, dur: Duration, tracer: Option<&mut Tracer>) -> Result<Rep, String> {
    let t0 = Instant::now();
    let (fact, dim) = relations(seed);
    let emb = Embedded::new(fact, 2, &KINDS, stream(seed));
    emb.engine
        .add_relation("dim", dim)
        .map_err(|e| format!("add dim: {e}"))?;
    emb.verify()?;
    emb.warm_up()?;
    let setup_s = t0.elapsed().as_secs_f64();
    super::steady_rep(emb, setup_s, dur, seed, tracer)
}
