//! Figures 1 and 2 — "DBMS-C vs DBMS-R: the 'optimal' DBMS changes with
//! the workload."
//!
//! The paper runs two commercial systems; per the README's crate map
//! (`h2o-core`: "the static row/column-store baselines") the substitution is
//! our own column-store and row-store engines (the same substitution the
//! paper itself makes for every later experiment). A select-(project-)
//! aggregate query sweeps projectivity from 2% to 100% at three selectivity
//! levels: 100% (no where clause, Fig. 2a), 40% (Fig. 1 / Fig. 2b) and 1%
//! (Fig. 2c).
//!
//! Expected shape: the column engine wins at low projectivity; with a where
//! clause the row engine overtakes it past a crossover as more attributes
//! are accessed.

use h2o_bench::{csv_header, fmt_s, time_hot, Args};
use h2o_core::{StaticEngine, StaticKind};
use h2o_storage::{AttrId, Schema};
use h2o_workload::micro::{QueryGen, Template};
use h2o_workload::synth::gen_columns;

fn main() {
    // 1M × 100 spills the cache hierarchy on a container-class machine,
    // which is what exposes the paper's bandwidth-driven crossover (the
    // paper used 50M × 250 on a 128 GB server).
    let args = Args::parse(1_000_000, 100, 0);
    eprintln!(
        "fig01+02: {} tuples x {} attrs (DBMS-C := column engine, DBMS-R := row engine)",
        args.tuples, args.attrs
    );

    let schema = Schema::with_width(args.attrs).into_shared();
    let columns = gen_columns(args.attrs, args.tuples, args.seed);
    let col_engine =
        StaticEngine::new(schema.clone(), columns.clone(), StaticKind::ColumnStore).unwrap();
    let row_engine = StaticEngine::new(schema, columns, StaticKind::RowStore).unwrap();

    csv_header(&[
        "figure",
        "selectivity",
        "projectivity_pct",
        "attrs_accessed",
        "dbms_c_seconds",
        "dbms_r_seconds",
        "winner",
    ]);

    // (figure label, selectivity; None = no where clause)
    let panels: [(&str, Option<f64>); 3] = [
        ("fig2a", None),
        ("fig1/fig2b", Some(0.4)),
        ("fig2c", Some(0.01)),
    ];
    let projectivities = [2, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100];

    for (label, sel) in panels {
        for pct in projectivities {
            let k = ((args.attrs * pct) / 100).max(1);
            let attrs: Vec<AttrId> = (0..k as u32).map(AttrId).collect();
            // Aggregations minimize result-set overhead (§2.2); the where
            // clause (when present) filters on the accessed attributes.
            let (query, _) = match sel {
                None => QueryGen::build(Template::Aggregation, &attrs, &[], 1.0),
                Some(s) => {
                    let filters: Vec<AttrId> = attrs.iter().copied().take(2).collect();
                    QueryGen::build(Template::Aggregation, &attrs, &filters, s)
                }
            };
            let t_col = time_hot(3, || col_engine.execute(&query).unwrap());
            let t_row = time_hot(3, || row_engine.execute(&query).unwrap());
            let winner = if t_col < t_row { "DBMS-C" } else { "DBMS-R" };
            println!(
                "{label},{},{pct},{k},{},{},{winner}",
                sel.map_or("none".to_string(), |s| format!("{s}")),
                fmt_s(t_col),
                fmt_s(t_row),
            );
        }
    }
}
