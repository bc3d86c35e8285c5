//! A synthetic SkyServer ("PhotoObjAll") workload — with genuine types.
//!
//! Fig. 8 evaluates H2O against AutoPart on "a subset of the PhotoObjAll
//! table which is the most commonly used and 250 of the SkyServer
//! queries". The real SDSS data and query logs are not redistributable, so
//! this module generates a stand-in that preserves the properties that
//! drive the experiment (the README's crate map lists it as "SkyServer-like"):
//!
//! * a **wide table** whose attributes form semantic clusters
//!   (astrometry, per-band photometry, per-band shape, flags) — real
//!   SkyServer queries overwhelmingly access attributes *within* clusters;
//! * **skewed cluster popularity** (a few hot clusters, a long tail);
//! * **drift**: cluster popularity changes over the 250-query sequence, so
//!   a single offline partitioning cannot be optimal throughout — the
//!   effect Fig. 8 measures;
//! * **real attribute types**: the hot PhotoObjAll attributes are not
//!   integers. Positions (`ra`, `dec`, direction cosines), magnitudes and
//!   shape parameters are `F64` (drawn from realistic domains on the
//!   dyadic grid of [`crate::synth`], so float sums stay exact and
//!   bit-identical under any morsel split); the object classification
//!   `type` is a dictionary-encoded label (`"STAR"`, `"GALAXY"`, ...);
//!   `status`/`clean` are small integer flag domains. Queries are
//!   generated type-consistently — `f64` thresholds against `f64`
//!   attributes, label equality against `type`, same-type arithmetic — so
//!   the engine's strict no-coercion typing admits every one of them.

use crate::micro::Template;
use crate::sequence::TimedQuery;
use crate::synth::{
    f64_threshold_for_selectivity, gen_columns, gen_dict_column, gen_f64_column,
    threshold_for_selectivity,
};
use h2o_expr::{Aggregate, Conjunction, Expr, JoinQuery, Predicate, Query};
use h2o_storage::{AttrId, LogicalType, Schema, Value};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The object-classification labels of the `type` column (PhotoObjAll's
/// categorical object classes).
pub const TYPE_LABELS: [&str; 6] = [
    "UNKNOWN",
    "STAR",
    "GALAXY",
    "COSMIC_RAY",
    "GHOST",
    "KNOWNOBJ",
];

/// The value domain one attribute's data is drawn from (and predicates
/// are generated against).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrDomain {
    /// Uniform `i64` in the paper's `[−10⁹, 10⁹)` range.
    I64Uniform,
    /// Small categorical integer domain `[0, card)` (flag columns).
    I64Card(i64),
    /// Dyadic-grid `f64` uniform in `[lo, hi)`.
    F64Uniform(f64, f64),
    /// Dictionary-encoded labels (uniform over [`TYPE_LABELS`]).
    DictLabels,
}

impl AttrDomain {
    fn logical(self) -> LogicalType {
        match self {
            AttrDomain::I64Uniform | AttrDomain::I64Card(_) => LogicalType::I64,
            AttrDomain::F64Uniform(..) => LogicalType::F64,
            AttrDomain::DictLabels => LogicalType::Dict,
        }
    }
}

/// The synthetic PhotoObjAll schema plus its semantic clusters and
/// per-attribute domains.
#[derive(Debug, Clone)]
pub struct SkyServerSpec {
    pub schema: Arc<Schema>,
    /// Named attribute clusters (astrometry, photometry per band, ...).
    pub clusters: Vec<(String, Vec<AttrId>)>,
    /// Attributes commonly used in predicates (`type`, `status`, `clean`,
    /// `modelMag_r`).
    pub predicate_attrs: Vec<AttrId>,
    /// Data/predicate domain per attribute, indexed by attribute id.
    pub domains: Vec<AttrDomain>,
}

impl SkyServerSpec {
    /// The domain of `attr`.
    pub fn domain(&self, attr: AttrId) -> AttrDomain {
        self.domains[attr.index()]
    }

    /// Builds one `attr <op> constant` predicate of (approximately) the
    /// requested selectivity, typed per the attribute's domain, plus the
    /// selectivity it actually realizes. Label choice for dictionary
    /// attributes draws from `rng`.
    pub fn predicate_for(
        &self,
        attr: AttrId,
        selectivity: f64,
        rng: &mut SmallRng,
    ) -> (Predicate, f64) {
        match self.domain(attr) {
            AttrDomain::I64Uniform => (
                Predicate::lt(attr, threshold_for_selectivity(selectivity)),
                selectivity,
            ),
            AttrDomain::I64Card(card) => {
                // Bucket-granular: at least one bucket always qualifies.
                let t = ((selectivity * card as f64).round() as Value).clamp(1, card);
                (Predicate::lt(attr, t), t as f64 / card as f64)
            }
            AttrDomain::F64Uniform(lo, hi) => (
                Predicate::lt(attr, f64_threshold_for_selectivity(selectivity, lo, hi)),
                selectivity,
            ),
            AttrDomain::DictLabels => {
                // Equality on one uniformly drawn label.
                let label = *TYPE_LABELS.choose(rng).unwrap();
                (Predicate::eq(attr, label), 1.0 / TYPE_LABELS.len() as f64)
            }
        }
    }

    /// Generates the relation's columns (lane-encoded per domain),
    /// deterministically from `seed`. Dictionary labels are interned into
    /// the schema's shared dictionaries.
    pub fn gen_columns(&self, rows: usize, seed: u64) -> Vec<Vec<Value>> {
        // One bulk i64 pass keeps the integer columns identical in
        // distribution to the pre-typed generator; typed columns replace
        // their slots.
        let mut columns = gen_columns(self.schema.len(), rows, seed);
        for (i, domain) in self.domains.iter().enumerate() {
            let attr = AttrId::from(i);
            let col_seed = seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9);
            match *domain {
                AttrDomain::I64Uniform => {}
                AttrDomain::I64Card(card) => {
                    for v in &mut columns[i] {
                        *v = v.rem_euclid(card);
                    }
                }
                AttrDomain::F64Uniform(lo, hi) => {
                    columns[i] = gen_f64_column(rows, lo, hi, col_seed);
                }
                AttrDomain::DictLabels => {
                    let dict = self.schema.dictionary(attr).expect("dict attr");
                    columns[i] = gen_dict_column(rows, dict, &TYPE_LABELS, col_seed);
                }
            }
        }
        columns
    }
}

/// Builds the synthetic PhotoObjAll schema (64 attributes, typed).
pub fn skyserver_schema() -> SkyServerSpec {
    let bands = ["u", "g", "r", "i", "z"];
    let mut cols: Vec<(String, AttrDomain)> = Vec::new();
    let mut clusters: Vec<(String, Vec<AttrId>)> = Vec::new();

    let mut push_cluster =
        |label: &str, attrs: Vec<(String, AttrDomain)>, cols: &mut Vec<(String, AttrDomain)>| {
            let ids: Vec<AttrId> = attrs
                .into_iter()
                .map(|(name, d)| {
                    cols.push((name, d));
                    AttrId::from(cols.len() - 1)
                })
                .collect();
            clusters.push((label.to_string(), ids));
        };

    use AttrDomain::*;
    let i64u = |n: &str| (n.to_string(), I64Uniform);
    push_cluster(
        "astrometry",
        vec![
            i64u("objID"),
            i64u("run"),
            i64u("rerun"),
            i64u("camcol"),
            i64u("field"),
            i64u("obj"),
            i64u("mode"),
            ("ra".into(), F64Uniform(0.0, 360.0)),
            ("dec".into(), F64Uniform(-90.0, 90.0)),
            ("raErr".into(), F64Uniform(0.0, 1.0)),
            ("decErr".into(), F64Uniform(0.0, 1.0)),
            ("cx".into(), F64Uniform(-1.0, 1.0)),
            ("cy".into(), F64Uniform(-1.0, 1.0)),
            ("cz".into(), F64Uniform(-1.0, 1.0)),
            i64u("htmID"),
        ],
        &mut cols,
    );
    for band in bands {
        push_cluster(
            &format!("photometry_{band}"),
            vec![
                (format!("psfMag_{band}"), F64Uniform(10.0, 30.0)),
                (format!("psfMagErr_{band}"), F64Uniform(0.0, 1.0)),
                (format!("petroMag_{band}"), F64Uniform(10.0, 30.0)),
                (format!("petroMagErr_{band}"), F64Uniform(0.0, 1.0)),
                (format!("modelMag_{band}"), F64Uniform(10.0, 30.0)),
                (format!("modelMagErr_{band}"), F64Uniform(0.0, 1.0)),
            ],
            &mut cols,
        );
    }
    for band in bands {
        push_cluster(
            &format!("shape_{band}"),
            vec![
                (format!("rowc_{band}"), F64Uniform(0.0, 2048.0)),
                (format!("colc_{band}"), F64Uniform(0.0, 2048.0)),
                (format!("petroRad_{band}"), F64Uniform(0.0, 30.0)),
            ],
            &mut cols,
        );
    }
    push_cluster(
        "flags",
        vec![
            ("type".into(), DictLabels),
            ("status".into(), I64Card(16)),
            i64u("flags"),
            ("clean".into(), I64Card(2)),
        ],
        &mut cols,
    );

    let domains: Vec<AttrDomain> = cols.iter().map(|(_, d)| *d).collect();
    let schema = Schema::typed(cols.into_iter().map(|(n, d)| (n, d.logical()))).into_shared();
    // Pre-intern the label set so predicates can reference any label even
    // against an empty relation.
    if let Ok(ty) = schema.attr_by_name("type") {
        let dict = schema.dictionary(ty).expect("type is dictionary-encoded");
        for l in TYPE_LABELS {
            dict.intern(l);
        }
    }
    let predicate_attrs = vec![
        schema.attr_by_name("type").unwrap(),
        schema.attr_by_name("status").unwrap(),
        schema.attr_by_name("clean").unwrap(),
        schema.attr_by_name("modelMag_r").unwrap(),
    ];
    SkyServerSpec {
        schema,
        clusters,
        predicate_attrs,
        domains,
    }
}

/// Splits `attrs` into the largest same-numeric-type subset usable as an
/// arithmetic expression (`f64` wins ties — it is the hot SkyServer case)
/// and the full numeric subset (for aggregation templates).
fn numeric_split(spec: &SkyServerSpec, attrs: &[AttrId]) -> (Vec<AttrId>, Vec<AttrId>) {
    let mut ints = Vec::new();
    let mut floats = Vec::new();
    for &a in attrs {
        match spec.domain(a).logical() {
            LogicalType::I64 => ints.push(a),
            LogicalType::F64 => floats.push(a),
            LogicalType::Dict => {}
        }
    }
    let expr_side = if floats.len() >= ints.len() {
        floats.clone()
    } else {
        ints.clone()
    };
    let mut numeric = floats;
    numeric.extend(ints);
    numeric.sort_unstable();
    (expr_side, numeric)
}

/// Instantiates a type-consistent template query over `attrs`, filtered by
/// one predicate on `filter_attr`. Returns the query and its expected
/// selectivity.
fn build_typed(
    spec: &SkyServerSpec,
    template: Template,
    attrs: &[AttrId],
    filter_attr: AttrId,
    selectivity: f64,
    rng: &mut SmallRng,
) -> (Query, f64) {
    let (pred, sel) = spec.predicate_for(filter_attr, selectivity, rng);
    let filter = Conjunction::of([pred]);
    let (expr_attrs, numeric) = numeric_split(spec, attrs);
    let q = match template {
        // Arithmetic needs ≥2 same-type operands; fall through to
        // aggregation, then projection, as the attribute mix allows.
        Template::Expression if expr_attrs.len() >= 2 => {
            Query::project([Expr::sum_of(expr_attrs)], filter)
        }
        Template::Aggregation | Template::Expression if !numeric.is_empty() => Query::aggregate(
            numeric.iter().map(|&a| Aggregate::max(Expr::Col(a))),
            filter,
        ),
        _ => Query::project(attrs.iter().map(|&a| Expr::Col(a)), filter),
    }
    .expect("generated query shape is valid");
    (q, sel)
}

/// Generates the full Fig. 8 setup: schema, data columns, and a 250-query
/// drifting workload.
///
/// The sequence has three phases with different hot clusters (e.g. an
/// astrometry-heavy phase, a photometry-heavy phase, a shape-heavy phase);
/// within each phase cluster choice is skewed ~80/20.
pub fn skyserver_workload(
    rows: usize,
    n_queries: usize,
    seed: u64,
) -> (SkyServerSpec, Vec<Vec<Value>>, Vec<TimedQuery>) {
    let spec = skyserver_schema();
    let columns = spec.gen_columns(rows, seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_5eed);

    // Phase → (hot clusters, warm clusters).
    let phase_hots: [&[usize]; 3] = [
        &[0, 1, 3],  // astrometry + photometry u/r
        &[2, 3, 11], // photometry g/r + flags
        &[6, 7, 8],  // shape u/g/r
    ];
    let phase_len = n_queries.div_ceil(3);

    let mut out = Vec::with_capacity(n_queries);
    for qi in 0..n_queries {
        let phase = (qi / phase_len).min(2);
        let hot = phase_hots[phase];
        // 80% hot cluster, 20% any cluster.
        let cluster_idx = if rng.gen_bool(0.8) {
            *hot.choose(&mut rng).unwrap()
        } else {
            rng.gen_range(0..spec.clusters.len())
        };
        let (_, cluster_attrs) = &spec.clusters[cluster_idx % spec.clusters.len()];

        // Query shape: mostly aggregations and expressions over a subset of
        // the cluster, sometimes spanning two clusters (joins of concepts,
        // e.g. photometry + astrometry).
        let mut attrs: Vec<AttrId> = cluster_attrs.clone();
        if rng.gen_bool(0.3) {
            let other = &spec.clusters[rng.gen_range(0..spec.clusters.len())].1;
            attrs.extend(other.iter().copied());
        }
        attrs.shuffle(&mut rng);
        let k = rng.gen_range(2..=attrs.len().min(10));
        attrs.truncate(k);
        attrs.sort_unstable();
        attrs.dedup();

        let template = match rng.gen_range(0..10) {
            0..=4 => Template::Aggregation,
            5..=7 => Template::Expression,
            _ => Template::Projection,
        };
        let selectivity = *[0.01, 0.05, 0.1, 0.3].choose(&mut rng).unwrap();
        let filter_attr = *spec.predicate_attrs.choose(&mut rng).unwrap();
        let (query, selectivity) =
            build_typed(&spec, template, &attrs, filter_attr, selectivity, &mut rng);
        out.push(TimedQuery { query, selectivity });
    }
    (spec, columns, out)
}

/// The [`skyserver_workload`] setup with **grouped analytics** mixed in
/// (beyond the paper, which stops at select-project-aggregate): roughly
/// 40% of the queries become grouped aggregations keyed on the categorical
/// flag columns — the dictionary-encoded `type` (8→6 object classes),
/// `status` (16 buckets) and `clean` (2) — rolling up the same hot numeric
/// attributes (`select type, sum(modelMag_r), ..., count(*) ... group by
/// type` — the canonical SkyServer object-class rollup). The rest of the
/// drifting cluster structure is identical to the plain workload, so
/// adaptation experiments compare directly.
pub fn skyserver_grouped_workload(
    rows: usize,
    n_queries: usize,
    seed: u64,
) -> (SkyServerSpec, Vec<Vec<Value>>, Vec<TimedQuery>) {
    let (spec, columns, plain) = skyserver_workload(rows, n_queries, seed);
    let key_attrs = [
        spec.schema.attr_by_name("type").unwrap(),
        spec.schema.attr_by_name("status").unwrap(),
        spec.schema.attr_by_name("clean").unwrap(),
    ];
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9209_6b65);
    let out = plain
        .into_iter()
        .map(|tq| {
            if !rng.gen_bool(0.4) {
                return tq;
            }
            // Re-shape into a grouped rollup over the same hot attributes,
            // keyed on one or two flag columns. Measures must be numeric
            // (sum over a dictionary code is ill-typed by design).
            let mut keys = vec![*key_attrs.choose(&mut rng).unwrap()];
            if rng.gen_bool(0.25) {
                let second = *key_attrs.choose(&mut rng).unwrap();
                if second != keys[0] {
                    keys.push(second);
                }
            }
            let agg_attrs: Vec<AttrId> = tq
                .query
                .select_clause()
                .attrs()
                .iter()
                .filter(|a| !keys.contains(a) && spec.domain(*a).logical().is_numeric())
                .take(6)
                .collect();
            if agg_attrs.is_empty() {
                return tq;
            }
            let mut aggs: Vec<Aggregate> = agg_attrs
                .iter()
                .map(|&a| Aggregate::sum(Expr::Col(a)))
                .collect();
            aggs.push(Aggregate::count());
            let query = Query::grouped(
                keys.into_iter().map(Expr::Col),
                aggs,
                tq.query.filter().clone(),
            )
            .expect("grouped rollup is valid");
            TimedQuery {
                query,
                selectivity: tq.selectivity,
            }
        })
        .collect();
    (spec, columns, out)
}

/// The synthetic "SpecObjAll" companion table of the join workload: the
/// spectroscopic catalog whose `bestObjID` column is a foreign key into
/// PhotoObjAll's `objID` ([`crate::synth::gen_fk_column`] — controllable
/// match rate and skew), plus the hot spectro measures (redshift `z` and
/// its error, velocity dispersion) and a small `specClass` flag domain.
pub fn specobj_schema() -> Arc<Schema> {
    Schema::typed([
        ("specObjID", LogicalType::I64),
        ("bestObjID", LogicalType::I64),
        ("z", LogicalType::F64),
        ("zErr", LogicalType::F64),
        ("velDisp", LogicalType::F64),
        ("specClass", LogicalType::I64),
    ])
    .into_shared()
}

/// The full SkyServer **join** workload: the PhotoObjAll stand-in (bound
/// under the engine's primary relation name `"R"`), a SpecObjAll stand-in
/// (bound as `"spec"`), and a query sequence of photo↔spec two-table
/// lookups plus grouped rollups over the join.
#[derive(Debug, Clone)]
pub struct SkyServerJoin {
    /// The photo side (schema, clusters, domains) — see
    /// [`skyserver_schema`].
    pub photo: SkyServerSpec,
    /// PhotoObjAll columns, lane-encoded per domain.
    pub photo_columns: Vec<Vec<Value>>,
    /// The spec side's schema ([`specobj_schema`]).
    pub spec_schema: Arc<Schema>,
    /// SpecObjAll columns; `bestObjID` references `photo_columns`'s
    /// `objID` values.
    pub spec_columns: Vec<Vec<Value>>,
    /// The join queries, type-consistent against both schemas.
    pub queries: Vec<JoinQuery>,
}

/// Generates the photo↔spec join workload: `n_queries` joins on
/// `objID = bestObjID`, ~35% grouped rollups (`group by type, sum(z),
/// count(*)` — the canonical object-class × redshift rollup), the rest
/// two-table lookups projecting hot photo attributes next to the matched
/// redshift, filtered on one side at a time so per-side selectivities
/// differ (which is what exercises the greedy build-side choice).
/// `match_rate`/`skew` parameterize the foreign-key column.
pub fn skyserver_join_workload(
    photo_rows: usize,
    spec_rows: usize,
    n_queries: usize,
    match_rate: f64,
    skew: f64,
    seed: u64,
) -> SkyServerJoin {
    let photo = skyserver_schema();
    let photo_columns = photo.gen_columns(photo_rows, seed);
    let obj_id = photo.schema.attr_by_name("objID").unwrap();

    let spec_schema = specobj_schema();
    let mut spec_columns = crate::synth::gen_columns(spec_schema.len(), spec_rows, seed ^ 0x5bec);
    spec_columns[1] = crate::synth::gen_fk_column(
        spec_rows,
        &photo_columns[obj_id.index()],
        match_rate,
        skew,
        seed,
    );
    spec_columns[2] = gen_f64_column(spec_rows, 0.0, 7.0, seed ^ 2);
    spec_columns[3] = gen_f64_column(spec_rows, 0.0, 1.0, seed ^ 3);
    spec_columns[4] = gen_f64_column(spec_rows, 0.0, 850.0, seed ^ 4);
    for v in &mut spec_columns[5] {
        *v = v.rem_euclid(6);
    }

    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6a6f_696e); // "join"
    let z_attr = spec_schema.attr_by_name("z").unwrap();
    let mut queries = Vec::with_capacity(n_queries);
    for _ in 0..n_queries {
        let b = JoinQuery::builder(("R", photo.schema.clone()), ("spec", spec_schema.clone()));
        let selectivity = *[0.01, 0.05, 0.1, 0.3].choose(&mut rng).unwrap();
        let q = if rng.gen_bool(0.35) {
            // Grouped rollup over the join, keyed on the photo object
            // class, rolling up the matched spectra.
            let key = b.lcol("type").unwrap();
            let z = b.rcol("z").unwrap();
            let filter_attr = *photo.predicate_attrs.choose(&mut rng).unwrap();
            let (pred, _) = photo.predicate_for(filter_attr, selectivity, &mut rng);
            b.on("objID", "bestObjID")
                .unwrap()
                .filter_left(Conjunction::of([pred]))
                .grouped([key], [Aggregate::sum(z), Aggregate::count()])
                .unwrap()
        } else {
            // Two-table lookup: hot photo attributes next to the matched
            // redshift, filtered on one side at a time.
            let ra = b.lcol("ra").unwrap();
            let dec = b.lcol("dec").unwrap();
            let mag = b.lcol("modelMag_r").unwrap();
            let z = b.rcol("z").unwrap();
            let b = b.on("objID", "bestObjID").unwrap();
            let b = if rng.gen_bool(0.5) {
                let filter_attr = *photo.predicate_attrs.choose(&mut rng).unwrap();
                let (pred, _) = photo.predicate_for(filter_attr, selectivity, &mut rng);
                b.filter_left(Conjunction::of([pred]))
            } else {
                b.filter_right(Conjunction::of([Predicate::lt(
                    z_attr,
                    f64_threshold_for_selectivity(selectivity, 0.0, 7.0),
                )]))
            };
            b.project([ra, dec, mag, z]).unwrap()
        };
        queries.push(q);
    }
    SkyServerJoin {
        photo,
        photo_columns,
        spec_schema,
        spec_columns,
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_storage::lane_f64;

    #[test]
    fn schema_shape_and_types() {
        let spec = skyserver_schema();
        assert_eq!(spec.schema.len(), 64);
        assert_eq!(spec.clusters.len(), 12);
        // Clusters partition the schema.
        let total: usize = spec.clusters.iter().map(|(_, a)| a.len()).sum();
        assert_eq!(total, 64);
        assert_eq!(spec.predicate_attrs.len(), 4);
        // The hot attributes carry their real types.
        let ty_of = |n: &str| {
            spec.schema
                .type_of(spec.schema.attr_by_name(n).unwrap())
                .unwrap()
        };
        assert_eq!(ty_of("ra"), LogicalType::F64);
        assert_eq!(ty_of("dec"), LogicalType::F64);
        assert_eq!(ty_of("modelMag_r"), LogicalType::F64);
        assert_eq!(ty_of("rowc_g"), LogicalType::F64);
        assert_eq!(ty_of("type"), LogicalType::Dict);
        assert_eq!(ty_of("status"), LogicalType::I64);
        assert_eq!(ty_of("objID"), LogicalType::I64);
        // The type dictionary is pre-seeded with every label.
        let type_attr = spec.schema.attr_by_name("type").unwrap();
        let dict = spec.schema.dictionary(type_attr).unwrap();
        assert_eq!(dict.len(), TYPE_LABELS.len());
        assert_eq!(dict.code("GALAXY"), Some(2));
    }

    #[test]
    fn generated_data_respects_domains() {
        let spec = skyserver_schema();
        let cols = spec.gen_columns(500, 7);
        assert_eq!(cols.len(), 64);
        let idx = |n: &str| spec.schema.attr_by_name(n).unwrap().index();
        for &lane in &cols[idx("ra")] {
            assert!((0.0..360.0).contains(&lane_f64(lane)));
        }
        for &lane in &cols[idx("dec")] {
            assert!((-90.0..90.0).contains(&lane_f64(lane)));
        }
        for &code in &cols[idx("type")] {
            assert!((0..TYPE_LABELS.len() as Value).contains(&code));
        }
        for &v in &cols[idx("status")] {
            assert!((0..16).contains(&v));
        }
        for &v in &cols[idx("clean")] {
            assert!((0..2).contains(&v));
        }
        // i64 columns keep the paper's wide uniform domain.
        assert!(cols[idx("objID")].iter().any(|v| v.abs() > 1_000_000));
        // Deterministic.
        assert_eq!(cols, spec.gen_columns(500, 7));
    }

    #[test]
    fn workload_is_deterministic_type_checked_and_well_formed() {
        let (spec, cols, w1) = skyserver_workload(1000, 250, 7);
        let (_, _, w2) = skyserver_workload(1000, 250, 7);
        assert_eq!(w1.len(), 250);
        assert_eq!(cols.len(), spec.schema.len());
        assert_eq!(cols[0].len(), 1000);
        for (a, b) in w1.iter().zip(&w2) {
            assert_eq!(a.query, b.query);
        }
        for tq in &w1 {
            assert!(!tq.query.all_attrs().is_empty());
            assert!(tq.query.all_attrs().len() <= 15);
            // Every generated query passes the engine's strict type gate.
            h2o_expr::typecheck::check(&tq.query, &spec.schema)
                .unwrap_or_else(|e| panic!("ill-typed generated query {}: {e}", tq.query));
            assert!(tq.selectivity > 0.0 && tq.selectivity <= 1.0);
        }
        // The workload genuinely exercises f64 filters and dict equality.
        let f64_filters = w1
            .iter()
            .filter(|tq| {
                tq.query
                    .filter()
                    .predicates()
                    .iter()
                    .any(|p| matches!(p.value, h2o_expr::Datum::F64(_)))
            })
            .count();
        let dict_filters = w1
            .iter()
            .filter(|tq| {
                tq.query
                    .filter()
                    .predicates()
                    .iter()
                    .any(|p| matches!(p.value, h2o_expr::Datum::Str(_)))
            })
            .count();
        assert!(f64_filters > 30, "f64 filters: {f64_filters}");
        assert!(dict_filters > 30, "dict filters: {dict_filters}");
    }

    #[test]
    fn workload_queries_select_rows_against_generated_data() {
        let (spec, cols, w) = skyserver_workload(800, 60, 13);
        let rel = h2o_storage::Relation::columnar(spec.schema.clone(), cols).unwrap();
        let matching = w
            .iter()
            .take(40)
            .filter(|tq| {
                !h2o_expr::interpret(rel.catalog(), &tq.query)
                    .unwrap()
                    .is_empty()
            })
            .count();
        assert!(matching >= 25, "most queries select rows, got {matching}");
    }

    #[test]
    fn workload_exhibits_drift() {
        let (_, _, w) = skyserver_workload(100, 240, 3);
        // Popularity of shape-cluster attributes must be much higher in the
        // last phase than in the first.
        let spec = skyserver_schema();
        let shape_attrs: h2o_storage::AttrSet = spec
            .clusters
            .iter()
            .filter(|(n, _)| n.starts_with("shape"))
            .flat_map(|(_, a)| a.iter().copied())
            .collect();
        let hits = |range: std::ops::Range<usize>| -> usize {
            w[range]
                .iter()
                .filter(|tq| tq.query.all_attrs().intersects(&shape_attrs))
                .count()
        };
        let early = hits(0..80);
        let late = hits(160..240);
        assert!(
            late > early * 2,
            "drift expected: early {early}, late {late}"
        );
    }

    #[test]
    fn grouped_workload_mixes_typed_rollups() {
        let (spec, cols, w) = skyserver_grouped_workload(500, 200, 13);
        assert_eq!(w.len(), 200);
        // A substantial fraction of the sequence is grouped, keyed on flags.
        let grouped: Vec<_> = w
            .iter()
            .filter(|tq| tq.query.select_clause().is_grouped())
            .collect();
        assert!(
            grouped.len() >= 40 && grouped.len() <= 120,
            "grouped share ~40%: {}",
            grouped.len()
        );
        let type_attr = spec.schema.attr_by_name("type").unwrap();
        let status_attr = spec.schema.attr_by_name("status").unwrap();
        let clean_attr = spec.schema.attr_by_name("clean").unwrap();
        let flags: h2o_storage::AttrSet =
            [type_attr, clean_attr, status_attr].into_iter().collect();
        let mut dict_keyed = 0;
        for tq in &grouped {
            for k in tq.query.group_by() {
                assert!(k.attrs().is_subset(&flags), "keys come from flag columns");
                if k.attrs().contains(type_attr) {
                    dict_keyed += 1;
                }
            }
            // Measures are numeric: every grouped query passes the type
            // gate (sum over the dict column would be rejected).
            h2o_expr::typecheck::check(&tq.query, &spec.schema).unwrap();
        }
        assert!(dict_keyed >= 10, "dict-keyed rollups: {dict_keyed}");
        // End-to-end: the rollups select rows and produce per-class groups.
        let rel = h2o_storage::Relation::columnar(spec.schema.clone(), cols).unwrap();
        let non_empty = grouped
            .iter()
            .take(20)
            .filter(|tq| {
                !h2o_expr::interpret(rel.catalog(), &tq.query)
                    .unwrap()
                    .is_empty()
            })
            .count();
        assert!(non_empty >= 15, "rollups aggregate rows: {non_empty}");
        // Deterministic.
        let (_, _, w2) = skyserver_grouped_workload(500, 200, 13);
        for (a, b) in w.iter().zip(&w2) {
            assert_eq!(a.query, b.query);
        }
    }

    #[test]
    fn join_workload_is_deterministic_typed_and_joins_rows() {
        let w = skyserver_join_workload(600, 400, 80, 0.8, 0.3, 7);
        assert_eq!(w.queries.len(), 80);
        assert_eq!(w.photo_columns.len(), w.photo.schema.len());
        assert_eq!(w.spec_columns.len(), w.spec_schema.len());
        // Deterministic. (Compare query structure, not relation bindings —
        // `Schema`'s Debug includes a name map with unordered iteration.)
        let w2 = skyserver_join_workload(600, 400, 80, 0.8, 0.3, 7);
        let shape = |q: &JoinQuery| {
            format!(
                "{:?} {:?} {:?} {:?} {:?} {:?}",
                q.on(),
                q.filter(h2o_expr::Side::Left),
                q.filter(h2o_expr::Side::Right),
                q.projections(),
                q.aggregates(),
                q.group_by(),
            )
        };
        for (a, b) in w.queries.iter().zip(&w2.queries) {
            assert_eq!(shape(a), shape(b));
        }
        assert_eq!(w.photo_columns, w2.photo_columns);
        assert_eq!(w.spec_columns, w2.spec_columns);
        // Every query passes the join type gate, binds the expected
        // relation names, and joins on objID = bestObjID.
        let obj_id = w.photo.schema.attr_by_name("objID").unwrap();
        let best = w.spec_schema.attr_by_name("bestObjID").unwrap();
        let mut grouped = 0;
        let mut right_filtered = 0;
        for q in &w.queries {
            h2o_expr::check_join(q).unwrap_or_else(|e| panic!("ill-typed join: {e}"));
            assert_eq!(q.left().name(), "R");
            assert_eq!(q.right().name(), "spec");
            assert_eq!(q.on(), &[(obj_id, best)]);
            if q.select_clause().is_grouped() {
                grouped += 1;
            }
            if !q.filter(h2o_expr::Side::Right).is_always_true() {
                right_filtered += 1;
            }
        }
        assert!(
            (15..=45).contains(&grouped),
            "grouped share ~35%: {grouped}"
        );
        assert!(
            right_filtered >= 15,
            "spec-side filters occur: {right_filtered}"
        );
        // End-to-end: the joins produce rows against the generated data.
        let photo_rel =
            h2o_storage::Relation::columnar(w.photo.schema.clone(), w.photo_columns.clone())
                .unwrap();
        let spec_rel =
            h2o_storage::Relation::columnar(w.spec_schema.clone(), w.spec_columns.clone()).unwrap();
        let non_empty = w
            .queries
            .iter()
            .take(20)
            .filter(|q| {
                !h2o_expr::interpret_join(photo_rel.catalog(), spec_rel.catalog(), q)
                    .unwrap()
                    .is_empty()
            })
            .count();
        assert!(non_empty >= 12, "joins select rows: {non_empty}");
    }

    #[test]
    fn queries_cluster_locally() {
        // Most queries should touch few clusters (access locality).
        let (spec, _, w) = skyserver_workload(100, 100, 9);
        let mut within = 0;
        for tq in &w {
            let attrs = tq.query.select_clause().attrs();
            let clusters_touched = spec
                .clusters
                .iter()
                .filter(|(_, ids)| ids.iter().any(|a| attrs.contains(*a)))
                .count();
            if clusters_touched <= 2 {
                within += 1;
            }
        }
        assert!(within >= 85, "cluster locality: {within}/100");
    }
}
