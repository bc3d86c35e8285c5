//! # h2o-workload — data and query generators for the evaluation
//!
//! Deterministic (seeded) generators reproducing the workloads of the
//! paper's evaluation (SIGMOD 2014 §4):
//!
//! * [`synth`] — wide integer relations ("each tuple contains N attributes
//!   with integers randomly distributed in [−10⁹, 10⁹]") and
//!   selectivity-controlled predicates over them;
//! * [`micro`] — the three §4.2.1 query templates: projections,
//!   aggregations, arithmetic expressions, with and without where clauses —
//!   plus the grouped-aggregation template
//!   ([`QueryGen::build_grouped`](micro::QueryGen::build_grouped), beyond
//!   the paper) over low-cardinality key columns
//!   ([`synth::gen_key_column`]);
//! * [`sequence`] — the query *sequences* of the adaptation experiments:
//!   the Fig. 7 class-pool workload, the Fig. 9 shifting workload, and an
//!   oscillating stress sequence;
//! * [`skyserver`] — a synthetic stand-in for the SDSS SkyServer
//!   "PhotoObjAll" workload of Fig. 8 (wide table, clustered skewed
//!   access, drift), since the real data/query logs are not redistributable
//!   (see the README's crate map) — plus the photo↔spec **join**
//!   workload ([`skyserver::skyserver_join_workload`], beyond the paper)
//!   over foreign-key columns with controllable match rate and skew
//!   ([`synth::gen_fk_column`]).
//!
//! Every generator takes an explicit seed; identical seeds produce
//! identical workloads across runs and platforms.

pub mod micro;
pub mod sequence;
pub mod skyserver;
pub mod synth;

pub use micro::{QueryGen, Template};
pub use sequence::{fig7_sequence, fig9_sequence, oscillating_sequence, TimedQuery};
pub use skyserver::{
    skyserver_grouped_workload, skyserver_join_workload, skyserver_schema, skyserver_workload,
    specobj_schema, AttrDomain, SkyServerJoin, SkyServerSpec, TYPE_LABELS,
};
pub use synth::{
    f64_threshold_for_selectivity, gen_columns, gen_columns_with_keys, gen_dict_column,
    gen_f64_column, gen_fk_column, gen_fk_column_in_domain, gen_key_column,
    threshold_for_selectivity, F64_GRID, VALUE_MAX, VALUE_MIN,
};
