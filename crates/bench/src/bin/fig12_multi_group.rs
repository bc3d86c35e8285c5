//! Figure 12 — "Accessing more than one group of columns."
//!
//! A 25-attribute aggregation-with-filter query is answered from 1 to 5
//! column groups whose union contains exactly the needed attributes (e.g.
//! 2 groups = 10 + 15 attributes, as in the paper). Response times are
//! normalized by the single-group case.
//!
//! Expected shape: multiple groups impose little overhead (≤ ~1.3×), and
//! at high selectivity splitting the filter group from the payload groups
//! can even dip below 1.0 for highly selective queries.

use h2o_bench::{csv_header, time_hot, Args};
use h2o_exec::{compile, execute, AccessPlan, Strategy};
use h2o_expr::Query;
use h2o_storage::{AttrId, LayoutCatalog, Relation, Schema};
use h2o_workload::micro::{QueryGen, Template};
use h2o_workload::synth::gen_columns;

/// Splits `attrs` into `k` contiguous chunks (first chunk = 10 attrs for
/// k = 2, mirroring the paper's example; otherwise near-even).
fn split(attrs: &[AttrId], k: usize) -> Vec<Vec<AttrId>> {
    match k {
        1 => vec![attrs.to_vec()],
        2 => vec![attrs[..10].to_vec(), attrs[10..].to_vec()],
        _ => {
            let per = attrs.len().div_ceil(k);
            attrs.chunks(per).map(|c| c.to_vec()).collect()
        }
    }
}

fn timed_on_groups(source: &Relation, parts: &[Vec<AttrId>], q: &Query) -> f64 {
    let mut catalog = LayoutCatalog::new(source.schema().clone(), source.rows());
    let mut ids = Vec::new();
    for part in parts {
        let group = h2o_exec::reorg::materialize(source.catalog(), part).unwrap();
        ids.push(catalog.add_group(group).unwrap());
    }
    // H2O picks the best execution strategy per (layout, query); report
    // best-of for each configuration (fused Fig. 5 vs sel-vector Fig. 6).
    [Strategy::FusedVolcano, Strategy::SelVector]
        .into_iter()
        .map(|strategy| {
            let plan = AccessPlan::new(ids.clone(), strategy);
            let op = compile(&catalog, &plan, q).unwrap();
            time_hot(5, || execute(&catalog, &op).unwrap())
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let args = Args::parse(300_000, 150, 0);
    eprintln!(
        "fig12: {} tuples x {} attrs, 25-attr query",
        args.tuples, args.attrs
    );
    let schema = Schema::with_width(args.attrs).into_shared();
    let columns = gen_columns(args.attrs, args.tuples, args.seed);
    let source = Relation::columnar(schema, columns).unwrap();
    let mut gen = QueryGen::new(args.attrs, args.seed);
    let attrs = gen.random_attrs(25);

    csv_header(&[
        "selectivity",
        "groups",
        "seconds",
        "normalized_vs_single_group",
    ]);
    for sel in [0.01, 0.1, 0.5, 1.0] {
        let (q, _) = QueryGen::build(Template::Aggregation, &attrs[1..], &attrs[..1], sel);
        let baseline = timed_on_groups(&source, &split(&attrs, 1), &q);
        println!("{sel},1,{baseline:.6},1.000");
        for k in 2..=5 {
            let t = timed_on_groups(&source, &split(&attrs, k), &q);
            println!("{sel},{k},{t:.6},{:.3}", t / baseline);
        }
    }
}
