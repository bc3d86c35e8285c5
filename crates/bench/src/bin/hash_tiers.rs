//! `hash_tiers` — the hash tier's cost per row, stage by stage.
//!
//! Not a paper figure: it measures the two block pipelines that run on
//! the flat hash table ([`h2o_expr::LaneMap`]), so a change to either can
//! say which stage it moved.
//!
//! * **Joins.** A dimension of 4K / 16K / 64K / 1M unique build keys (one
//!   lane, every 2nd value; or two lanes), probed by a 262,144-row fact
//!   side at 1% and 50% match; the misses lie between real keys, so the
//!   bloom bits or the rank bitmap reject them. Each cell runs three
//!   select shapes, one per factorized fold plan: `probe_only`
//!   (`sum(fact.v), count(*)`), `build_aggs` (`sum(dim.w), count(*)`)
//!   and `build_groups`
//!   (`sum(fact.v), count(*) group by dim.cat`, 8 groups). Every
//!   repetition runs [`h2o_exec::run_join_staged`] serially (the
//!   dimension builds) on a cold build, and the cell reports the median
//!   ns/row of each stage: build stages per build row, probe stages per
//!   probe row; `reused.probe.total` is the probe's total when the
//!   operator reuses the build it holds. The *stride* cells repeat the
//!   three shapes at 50% match over one-lane keys every 1st, 14th and
//!   256th value at 16K and 1M build keys (misses between keys, or past
//!   the last key at stride 1). Every cell records the key index its
//!   build chose: `rank` (dense one-lane keys) or `hashed`.
//! * **Grouped aggregation.** `sum(v), count(*) group by k` over 262,144
//!   rows with 8 / 4K / 64K / 262K distinct one-lane keys, or two-lane
//!   keys of the same cardinalities, through [`h2o_exec::run`] serially:
//!   the median ns/row end to end.
//!
//! Every cell's answer is checked against the interpreter before it is
//! timed. The binary prints one JSON document to stdout and a table to
//! stderr. Flags: `--quick` (4K / 16K build keys, stride cells at 4K, 32K
//! probe rows, 8 / 4K group keys, 3 repetitions — the CI smoke),
//! `--reps N`, `--seed N`.
//! To compare two builds, run each build's binary in its own process,
//! alternating them.

use h2o_exec::{
    compile, compile_join, run, run_join_staged, AccessPlan, CompiledJoinOp, ExecCtx, ExecPolicy,
    JoinStages, Stage, Strategy,
};
use h2o_expr::interp::interpret_join;
use h2o_expr::{check_join, interpret, Aggregate, Conjunction, Expr, JoinQuery, Query};
use h2o_storage::{LogicalType, Relation, Schema, Value};
use std::sync::Arc;
use std::time::Instant;

struct Opts {
    quick: bool,
    reps: usize,
    seed: u64,
}

impl Opts {
    fn parse() -> Opts {
        let mut opts = Opts {
            quick: false,
            reps: 0,
            seed: 42,
        };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = || -> u64 {
                let v = args
                    .next()
                    .unwrap_or_else(|| panic!("{flag} needs a value"));
                v.parse()
                    .unwrap_or_else(|_| panic!("bad value for {flag}: {v}"))
            };
            match flag.as_str() {
                "--quick" => opts.quick = true,
                "--reps" => opts.reps = value() as usize,
                "--seed" => opts.seed = value(),
                other => panic!("unknown argument {other} (expected --quick/--reps/--seed)"),
            }
        }
        if opts.reps == 0 {
            opts.reps = if opts.quick { 3 } else { 11 };
        }
        opts
    }
}

/// splitmix64: the data generator's only randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn schema(names: &[&str]) -> Arc<Schema> {
    Schema::typed(names.iter().map(|&n| (n, LogicalType::I64))).into_shared()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// How a cell's keys are laid out: one lane every `stride`-th value, or
/// (`lanes == 2`) an even high lane and a low lane.
#[derive(Clone, Copy)]
struct Keys {
    lanes: usize,
    stride: Value,
}

impl Keys {
    /// Build key `i` of `n`; `miss` makes it a key no build row holds:
    /// between real keys, or past the last one when they are adjacent.
    fn key(self, i: usize, n: usize, miss: bool) -> [Value; 2] {
        let (i, m) = (i as Value, Value::from(miss));
        match (self.lanes, self.stride) {
            (1, 1) => [i + m * n as Value, 0],
            (1, s) => [i * s + m, 0],
            _ => [(i >> 6) * 2 + m, i & 63],
        }
    }
}

/// The dimension (`k0`, `k1`, `w`, `cat`) and fact (`f0`, `f1`, `v`)
/// relations of one join cell.
fn join_relations(
    build_keys: usize,
    probe_rows: usize,
    shape: Keys,
    match_rate: f64,
    rng: &mut Rng,
) -> (Relation, Relation) {
    let keys: Vec<[Value; 2]> = (0..build_keys)
        .map(|i| shape.key(i, build_keys, false))
        .collect();
    let dim = vec![
        keys.iter().map(|k| k[0]).collect(),
        keys.iter().map(|k| k[1]).collect(),
        (0..build_keys).map(|_| rng.below(1000) as Value).collect(),
        (0..build_keys).map(|_| rng.below(8) as Value).collect(),
    ];
    let fks: Vec<[Value; 2]> = (0..probe_rows)
        .map(|_| {
            let hit = (rng.next() >> 11) as f64 / (1u64 << 53) as f64 <= match_rate;
            shape.key(rng.below(build_keys), build_keys, !hit)
        })
        .collect();
    let fact = vec![
        fks.iter().map(|k| k[0]).collect(),
        fks.iter().map(|k| k[1]).collect(),
        (0..probe_rows)
            .map(|_| rng.below(10_000) as Value)
            .collect(),
    ];
    (
        Relation::columnar(schema(&["k0", "k1", "w", "cat"]), dim).expect("dim columns"),
        Relation::columnar(schema(&["f0", "f1", "v"]), fact).expect("fact columns"),
    )
}

/// The cell's query of `shape`, dimension on the left.
fn join_query(shape: &str, lanes: usize) -> JoinQuery {
    let jb = JoinQuery::builder(
        ("dim", schema(&["k0", "k1", "w", "cat"])),
        ("fact", schema(&["f0", "f1", "v"])),
    )
    .on("k0", "f0")
    .expect("key");
    let jb = if lanes == 2 {
        jb.on("k1", "f1").expect("key")
    } else {
        jb
    };
    let col = |c: &str| jb.col(c).expect("column");
    let (v, w, cat) = (col("v"), col("w"), col("cat"));
    match shape {
        "probe_only" => jb.aggregate([Aggregate::sum(v), Aggregate::count()]),
        "build_aggs" => jb.aggregate([Aggregate::sum(w), Aggregate::count()]),
        _ => jb.grouped([cat], [Aggregate::sum(v), Aggregate::count()]),
    }
    .expect("join shapes are well-formed")
}

/// Times one join cell: the median ns/row of every stage over `reps`
/// repetitions on a cold build each (after one warm-up), then the probe's
/// total over `reps` repetitions that reuse the held build, its answer
/// checked first. Also returns whether the build took the rank index.
fn join_cell(
    dim: &Relation,
    fact: &Relation,
    q: &JoinQuery,
    reps: usize,
) -> (Vec<(String, f64)>, bool) {
    let checked = check_join(q).expect("join typechecks");
    let (d, f) = (dim.catalog(), fact.catalog());
    let dplan = AccessPlan::new(d.layout_ids(), Strategy::FusedVolcano);
    let fplan = AccessPlan::new(f.layout_ids(), Strategy::FusedVolcano);
    let op = compile_join(d, f, &dplan, &fplan, q, &checked, true).expect("join compiles");
    let ctx = ExecCtx::new(ExecPolicy::serial());
    let want = interpret_join(d, f, q).expect("interpreter");
    let mut ranked = false;
    let mut run = |op: &CompiledJoinOp, reused: bool| {
        let stages = JoinStages::default();
        let (got, stats) = run_join_staged(d, f, op, &ctx, &stages).expect("join runs");
        assert_eq!(
            got.data(),
            want.data(),
            "join {q} differs from the interpreter"
        );
        assert_eq!(stats.build_reused, reused);
        ranked = stats.rank_index;
        stages
    };
    let cold: Vec<JoinStages> = (0..=reps).map(|_| run(&op.cold_copy(), false)).collect();
    run(&op, false);
    let reused: Vec<JoinStages> = (0..reps).map(|_| run(&op, true)).collect();
    let cold = &cold[1..];
    let (build_rows, probe_rows) = (d.rows() as f64, f.rows() as f64);
    let per_row = |s: Stage| {
        if s.name().starts_with("build") {
            build_rows
        } else {
            probe_rows
        }
    };
    let mut out: Vec<(String, f64)> = Stage::ALL
        .iter()
        .map(|&s| {
            let ns = cold.iter().map(|r| r.ns(s) as f64 / per_row(s)).collect();
            (s.name().to_string(), median(ns))
        })
        .collect();
    let total = |runs: &[JoinStages], side: &str, rows: f64| {
        let totals = runs
            .iter()
            .map(|r| {
                let stages = Stage::ALL.iter().filter(|s| s.name().starts_with(side));
                stages.map(|&s| r.ns(s)).sum::<u64>() as f64 / rows
            })
            .collect();
        median(totals)
    };
    for (side, rows) in [("build", build_rows), ("probe", probe_rows)] {
        out.push((format!("{side}.total"), total(cold, side, rows)));
    }
    out.push((
        "reused.probe.total".to_string(),
        total(&reused, "probe", probe_rows),
    ));
    (out, ranked)
}

/// Times `sum(v), count(*) group by k` over `rows` rows with `keys`
/// distinct keys of `lanes` lanes: the median ns/row end to end.
fn grouped_cell(rows: usize, keys: usize, lanes: usize, reps: usize, rng: &mut Rng) -> f64 {
    let shape = Keys { lanes, stride: 2 };
    let ks: Vec<[Value; 2]> = (0..rows)
        .map(|_| shape.key(rng.below(keys), keys, false))
        .collect();
    let cols = vec![
        ks.iter().map(|k| k[0]).collect(),
        ks.iter().map(|k| k[1]).collect(),
        (0..rows).map(|_| rng.below(10_000) as Value).collect(),
    ];
    let rel = Relation::columnar(schema(&["k0", "k1", "v"]), cols).expect("grouped columns");
    let group_by: Vec<Expr> = (0..lanes as u32).map(Expr::col).collect();
    let q = Query::grouped(
        group_by,
        [Aggregate::sum(Expr::col(2u32)), Aggregate::count()],
        Conjunction::always(),
    )
    .expect("grouped query");
    let catalog = rel.catalog();
    let plan = AccessPlan::new(catalog.layout_ids(), Strategy::FusedVolcano);
    let op = compile(catalog, &plan, &q).expect("grouped compiles");
    let ctx = ExecCtx::new(ExecPolicy::serial());
    let want = interpret(catalog, &q).expect("interpreter");
    let (got, _) = run(catalog, &op, &ctx).expect("grouped runs");
    assert_eq!(got, want, "grouped {q} differs from the interpreter");
    let ns = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(run(catalog, &op, &ctx).expect("grouped runs"));
            t0.elapsed().as_nanos() as f64 / rows as f64
        })
        .collect();
    median(ns)
}

fn json_map(fields: &[(String, f64)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v:.3}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() {
    let opts = Opts::parse();
    let mut rng = Rng(opts.seed);
    let (build_sizes, probe_rows, group_keys, group_rows): (&[usize], usize, &[usize], usize) =
        if opts.quick {
            (&[4_096, 16_384], 32_768, &[8, 4_096], 32_768)
        } else {
            (
                &[4_096, 16_384, 65_536, 1 << 20],
                262_144,
                &[8, 4_096, 65_536, 262_144],
                262_144,
            )
        };
    let stride_sizes: &[usize] = if opts.quick {
        &[4_096]
    } else {
        &[16_384, 1 << 20]
    };
    // (build keys, match, key layout): the main grid, then the stride
    // cells.
    let mut cells = Vec::new();
    for &build_keys in build_sizes {
        for match_rate in [0.01, 0.5] {
            for lanes in [1, 2] {
                cells.push((build_keys, match_rate, Keys { lanes, stride: 2 }));
            }
        }
    }
    for &build_keys in stride_sizes {
        for stride in [1, 14, 256] {
            cells.push((build_keys, 0.5, Keys { lanes: 1, stride }));
        }
    }
    let mut joins = Vec::new();
    eprintln!(
        "join cell (build keys, match, lanes, stride, shape, index): \
         build / probe / reused probe ns per row"
    );
    for (build_keys, match_rate, keys) in cells {
        let (dim, fact) = join_relations(build_keys, probe_rows, keys, match_rate, &mut rng);
        let (lanes, stride) = (keys.lanes, keys.stride);
        for shape in ["probe_only", "build_aggs", "build_groups"] {
            // A 1M-key build is 4x the probe: fewer repetitions.
            let reps = if build_keys > probe_rows {
                opts.reps.div_ceil(3)
            } else {
                opts.reps
            };
            let q = join_query(shape, lanes);
            let (stages, ranked) = join_cell(&dim, &fact, &q, reps.max(1));
            let index = if ranked { "rank" } else { "hashed" };
            let total = |key: &str| {
                stages
                    .iter()
                    .find(|(k, _)| k == key)
                    .map_or(0.0, |(_, v)| *v)
            };
            eprintln!(
                "  {build_keys:>8} {match_rate:>5} {lanes} {stride:>4} {shape:<13} {index:<6} \
                 {:>8.2} / {:>6.2} / {:>6.2}",
                total("build.total"),
                total("probe.total"),
                total("reused.probe.total")
            );
            joins.push(format!(
                "{{\"build_keys\":{build_keys},\"probe_rows\":{probe_rows},\
                 \"match\":{match_rate},\"lanes\":{lanes},\"stride\":{stride},\
                 \"shape\":\"{shape}\",\"index\":\"{index}\",\"reps\":{reps},\
                 \"checked\":true,\"ns_per_row\":{}}}",
                json_map(&stages)
            ));
        }
    }
    let mut grouped = Vec::new();
    eprintln!("grouped cell (keys, lanes): ns per row");
    for &keys in group_keys {
        for lanes in [1, 2] {
            let ns = grouped_cell(group_rows, keys, lanes, opts.reps, &mut rng);
            eprintln!("  {keys:>8} {lanes} {ns:>8.2}");
            grouped.push(format!(
                "{{\"keys\":{keys},\"rows\":{group_rows},\"lanes\":{lanes},\
                 \"reps\":{},\"checked\":true,\"ns_per_row\":{ns:.3}}}",
                opts.reps
            ));
        }
    }
    println!(
        "{{\"bin\":\"hash_tiers\",\"quick\":{},\"seed\":{},\"join\":[{}],\"grouped\":[{}]}}",
        opts.quick,
        opts.seed,
        joins.join(","),
        grouped.join(",")
    );
}
