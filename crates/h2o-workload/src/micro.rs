//! The three micro-benchmark query templates of §4.2.1.
//!
//! > i. "select a, b, ..., from R where `<predicates>`" for projections
//! > ii. "select max(a), max(b), ..., from R where `<predicates>`" for
//! >     aggregations
//! > iii. "select a + b + ... from R where `<predicates>`" for arithmetic
//! >      expressions

use crate::synth::{per_predicate_selectivity, threshold_for_selectivity};
use h2o_expr::{Aggregate, Conjunction, Expr, Predicate, Query};
use h2o_storage::AttrId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Which of the paper's templates to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// Template (i): plain projections.
    Projection,
    /// Template (ii): one `max` aggregate per attribute.
    Aggregation,
    /// Template (iii): a single left-deep sum expression.
    Expression,
}

impl Template {
    /// All templates, for sweeps.
    pub const ALL: [Template; 3] = [
        Template::Projection,
        Template::Aggregation,
        Template::Expression,
    ];

    /// Harness label.
    pub fn name(self) -> &'static str {
        match self {
            Template::Projection => "projection",
            Template::Aggregation => "aggregation",
            Template::Expression => "expression",
        }
    }
}

/// Seeded generator of template queries over an `n_attrs`-wide relation.
#[derive(Debug)]
pub struct QueryGen {
    n_attrs: usize,
    rng: SmallRng,
}

impl QueryGen {
    /// Creates a generator for a relation of `n_attrs` attributes.
    pub fn new(n_attrs: usize, seed: u64) -> Self {
        QueryGen {
            n_attrs,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Draws `k` distinct random attributes.
    pub fn random_attrs(&mut self, k: usize) -> Vec<AttrId> {
        assert!(
            k <= self.n_attrs,
            "cannot draw {k} of {} attrs",
            self.n_attrs
        );
        let mut ids: Vec<u32> = (0..self.n_attrs as u32).collect();
        ids.shuffle(&mut self.rng);
        ids.truncate(k);
        ids.sort_unstable();
        ids.into_iter().map(AttrId).collect()
    }

    /// Builds a where-clause of `preds.len()` `<` predicates with overall
    /// selectivity `selectivity` (assuming independent uniform columns).
    pub fn filter_with_selectivity(preds: &[AttrId], selectivity: f64) -> Conjunction {
        if preds.is_empty() {
            return Conjunction::always();
        }
        let per = per_predicate_selectivity(selectivity, preds.len());
        let threshold = threshold_for_selectivity(per);
        preds.iter().map(|&a| Predicate::lt(a, threshold)).collect()
    }

    /// Instantiates a template over explicit attributes with an optional
    /// filter. `filter_attrs` may overlap `attrs` (the paper's §2.2 setup
    /// uses the same attributes in both clauses). Returns the query and the
    /// expected selectivity.
    pub fn build(
        template: Template,
        attrs: &[AttrId],
        filter_attrs: &[AttrId],
        selectivity: f64,
    ) -> (Query, f64) {
        assert!(!attrs.is_empty());
        let filter = Self::filter_with_selectivity(filter_attrs, selectivity);
        let sel = if filter_attrs.is_empty() {
            1.0
        } else {
            selectivity
        };
        let q = match template {
            Template::Projection => {
                Query::project(attrs.iter().map(|&a| Expr::Col(a)), filter).unwrap()
            }
            Template::Aggregation => {
                Query::aggregate(attrs.iter().map(|&a| Aggregate::max(Expr::Col(a))), filter)
                    .unwrap()
            }
            Template::Expression => {
                Query::project([Expr::sum_of(attrs.iter().copied())], filter).unwrap()
            }
        };
        (q, sel)
    }

    /// Random template query: `k` random attributes, `n_preds` of them
    /// reused as filter predicates (paper §2.2: the filtered attributes are
    /// among the accessed ones).
    pub fn random(
        &mut self,
        template: Template,
        k: usize,
        n_preds: usize,
        selectivity: f64,
    ) -> (Query, f64) {
        let attrs = self.random_attrs(k);
        let filter_attrs: Vec<AttrId> = attrs.iter().copied().take(n_preds).collect();
        Self::build(template, &attrs, &filter_attrs, selectivity)
    }

    /// The grouped-aggregation template (beyond the paper's i–iii):
    /// `select <keys>, sum(a), ..., count(*) from R where <preds> group by
    /// <keys>`. Key attributes should reference low-cardinality columns
    /// (see [`crate::synth::gen_key_column`]) for the grouping to be
    /// meaningful. Returns the query and the expected selectivity.
    pub fn build_grouped(
        key_attrs: &[AttrId],
        agg_attrs: &[AttrId],
        filter_attrs: &[AttrId],
        selectivity: f64,
    ) -> (Query, f64) {
        assert!(!key_attrs.is_empty(), "grouped template needs a key");
        let filter = Self::filter_with_selectivity(filter_attrs, selectivity);
        let sel = if filter_attrs.is_empty() {
            1.0
        } else {
            selectivity
        };
        let mut aggs: Vec<Aggregate> = agg_attrs
            .iter()
            .map(|&a| Aggregate::sum(Expr::Col(a)))
            .collect();
        aggs.push(Aggregate::count());
        let q = Query::grouped(key_attrs.iter().map(|&a| Expr::Col(a)), aggs, filter).unwrap();
        (q, sel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn templates_have_expected_shapes() {
        let attrs = [AttrId(1), AttrId(3), AttrId(5)];
        let (p, s) = QueryGen::build(Template::Projection, &attrs, &[], 0.5);
        assert!(!p.select_clause().is_aggregate());
        assert_eq!(p.select_clause().output_width(), 3);
        assert_eq!(s, 1.0, "no filter means selectivity 1");

        let (a, _) = QueryGen::build(Template::Aggregation, &attrs, &[AttrId(1)], 0.2);
        assert!(a.select_clause().is_aggregate());
        assert_eq!(a.aggregates().len(), 3);
        assert_eq!(a.where_attrs().len(), 1);

        let (e, s) = QueryGen::build(Template::Expression, &attrs, &[AttrId(5)], 0.3);
        assert_eq!(e.select_clause().output_width(), 1);
        assert_eq!(e.select_clause().attrs().len(), 3);
        assert!((s - 0.3).abs() < 1e-12);
    }

    #[test]
    fn grouped_template_shape() {
        let keys = [AttrId(0)];
        let aggs = [AttrId(2), AttrId(4)];
        let (q, s) = QueryGen::build_grouped(&keys, &aggs, &[AttrId(2)], 0.25);
        assert!(q.select_clause().is_grouped());
        assert_eq!(q.group_by().len(), 1);
        assert_eq!(q.aggregates().len(), 3, "sum per attr + count(*)");
        assert_eq!(q.select_clause().output_width(), 4);
        assert!((s - 0.25).abs() < 1e-12);
        // Keys are select-clause attributes (hot for the adviser).
        assert!(q.select_clause().attrs().contains(AttrId(0)));
    }

    #[test]
    fn random_attrs_distinct_sorted_deterministic() {
        let mut g1 = QueryGen::new(50, 9);
        let mut g2 = QueryGen::new(50, 9);
        let a1 = g1.random_attrs(10);
        let a2 = g2.random_attrs(10);
        assert_eq!(a1, a2);
        assert_eq!(a1.len(), 10);
        assert!(a1.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn random_query_filter_attrs_within_accessed() {
        let mut g = QueryGen::new(30, 5);
        let (q, _) = g.random(Template::Expression, 8, 2, 0.4);
        assert!(q.where_attrs().is_subset(&q.select_clause().attrs()));
        assert_eq!(q.where_attrs().len(), 2);
    }

    #[test]
    fn multi_predicate_selectivity_composes() {
        let attrs: Vec<AttrId> = (0u32..3).map(AttrId).collect();
        let c = QueryGen::filter_with_selectivity(&attrs, 0.125);
        assert_eq!(c.len(), 3);
        // Each predicate should be ~0.5 selective: threshold near 0.
        for p in c.predicates() {
            let h2o_expr::Datum::I64(v) = p.value else {
                panic!("synth filters are i64: {:?}", p.value)
            };
            assert!(v.abs() < 10_000_000, "threshold {v}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot draw")]
    fn too_many_attrs_panics() {
        QueryGen::new(3, 0).random_attrs(5);
    }
}
