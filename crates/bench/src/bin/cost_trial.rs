//! `cost_trial` — what the scan costs, cell by cell.
//!
//! Not a paper figure: the measured side of the cost model's plan prices
//! (ROADMAP items 4(a) and 6). A 200,000-row × 40-attribute relation is
//! stored three ways — row-major (one group), column-major (one group per
//! attribute) and, per query, one group of exactly the attributes it
//! reads — and each layout runs four select shapes over 2 / 8 / 20 / 39
//! adjacent attributes at 0.1 / 1 / 10 / 50 / 100 % selectivity:
//!
//! * `projection` — `select a1, ..., aw`;
//! * `aggregation` — `select max(a1), ..., max(aw)`;
//! * `expression` — `select a1 + ... + aw`;
//! * `grouped` — `select a0, sum(a1), ..., sum(a(w-1)), count(*) group
//!   by a0` over a 64-value key `a0`.
//!
//! The filter is `a1 < c`, with `c` picked for the selectivity; the 100 %
//! cells have no filter at all. The one strategy, the fused scan, runs
//! every cell serially over the layout's groups: its answer is checked
//! against the interpreter first (the warm-up), then it is timed once per
//! round, and the cell reports its median milliseconds under `ms.fused`.
//!
//! The binary prints one JSON document to stdout and a table to stderr.
//! Flags: `--quick` (10,000 rows, 2 / 8 / 39 attributes, 1 % and 100 %,
//! one round — the CI smoke), `--reps N` (rounds, default 9),
//! `--seed N`. Timings of one build move by up to 2.4× between processes
//! on a shared host, so compare two builds by alternating their binaries
//! one process at a time and taking per-cell medians across processes.
//! glibc's dynamic mmap threshold adds more: a cell whose result block
//! is near 32 MB ran 3–4× apart between runs of one engine build, so the
//! runs in `results/COST_39.json` fix it with
//! `GLIBC_TUNABLES=glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=4294967296`.

use h2o_exec::reorg::materialize;
use h2o_exec::{compile, execute, AccessPlan, Strategy};
use h2o_expr::interp::interpret;
use h2o_expr::Query;
use h2o_storage::{AttrId, LayoutCatalog, LayoutId, Relation, Schema};
use h2o_workload::micro::{QueryGen, Template};
use h2o_workload::synth::{gen_columns, gen_key_column};
use std::time::Instant;

const ATTRS: usize = 40;
const KEYS: u64 = 64;

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
            opts.reps = if opts.quick { 1 } else { 9 };
        }
        opts
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The cell's query over attributes `a1..=aw` (the grouped shape keys on
/// `a0` and sums `a1..a(w-1)`), filtered on `a1` unless `selectivity` is 1.
fn query(shape: &str, width: usize, selectivity: f64) -> Query {
    let attrs: Vec<AttrId> = (1..=width as u32).map(AttrId).collect();
    let filter: &[AttrId] = if selectivity < 1.0 { &attrs[..1] } else { &[] };
    let template = match shape {
        "projection" => Template::Projection,
        "aggregation" => Template::Aggregation,
        "expression" => Template::Expression,
        _ => {
            let sums = &attrs[..width - 1];
            return QueryGen::build_grouped(&[AttrId(0)], sums, filter, selectivity).0;
        }
    };
    QueryGen::build(template, &attrs, filter, selectivity).0
}

/// The scan's median milliseconds for `q` over `layouts` of `catalog`,
/// after checking its answer against the interpreter's.
fn cell(catalog: &LayoutCatalog, layouts: &[LayoutId], q: &Query, reps: usize) -> f64 {
    let want = interpret(catalog, q).expect("interpreter");
    let plan = AccessPlan::new(layouts.to_vec(), Strategy::FusedVolcano);
    let op = compile(catalog, &plan, q).unwrap();
    let got = execute(catalog, &op).unwrap();
    assert_eq!(got, want, "the scan differs from the interpreter on {q}");
    let ms = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(execute(catalog, &op).unwrap());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(ms)
}

fn main() {
    let opts = Opts::parse();
    let (rows, widths, sels): (usize, &[usize], &[f64]) = if opts.quick {
        (10_000, &[2, 8, 39], &[0.01, 1.0])
    } else {
        (200_000, &[2, 8, 20, 39], &[0.001, 0.01, 0.1, 0.5, 1.0])
    };
    let schema = Schema::with_width(ATTRS).into_shared();
    let mut columns = gen_columns(ATTRS, rows, opts.seed);
    columns[0] = gen_key_column(rows, KEYS, opts.seed);
    let row = Relation::row_major(schema.clone(), columns.clone()).unwrap();
    let col = Relation::columnar(schema, columns).unwrap();
    eprintln!(
        "cost_trial: {rows} x {ATTRS}, {} rounds; cell (layout, shape, width, selectivity): \
         median ms",
        opts.reps
    );
    let mut cells = Vec::new();
    for layout in ["row", "column", "group"] {
        for shape in ["projection", "aggregation", "expression", "grouped"] {
            for &width in widths {
                for &sel in sels {
                    let q = query(shape, width, sel);
                    let attrs = q.all_attrs();
                    let (catalog, layouts) = match layout {
                        "row" => (row.catalog().clone(), row.catalog().layout_ids()),
                        "column" => (col.catalog().clone(), col.catalog().cover(&attrs).unwrap()),
                        _ => {
                            let group = materialize(row.catalog(), &attrs.to_vec()).unwrap();
                            let mut catalog = LayoutCatalog::new(row.schema().clone(), rows);
                            let id = catalog.add_group(group).unwrap();
                            (catalog, vec![id])
                        }
                    };
                    let ms = cell(&catalog, &layouts, &q, opts.reps);
                    eprintln!("  {layout:<6} {shape:<11} {width:>2} {sel:>5} {ms:8.3}");
                    cells.push(format!(
                        "{{\"layout\":\"{layout}\",\"shape\":\"{shape}\",\"width\":{width},\
                         \"selectivity\":{sel},\"checked\":true,\"ms\":{{\"fused\":{ms:.4}}}}}"
                    ));
                }
            }
        }
    }
    println!(
        "{{\"bin\":\"cost_trial\",\"quick\":{},\"seed\":{},\"rows\":{rows},\"attrs\":{ATTRS},\
         \"reps\":{},\"cells\":[{}]}}",
        opts.quick,
        opts.seed,
        opts.reps,
        cells.join(",")
    );
}
