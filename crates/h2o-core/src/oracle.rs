//! The optimal-layout oracle.
//!
//! Fig. 7 plots a fourth curve: "the performance we would get for each
//! single query if we had a perfectly tailored data layout as well as the
//! most appropriate code to access the data (without including the cost of
//! creating the data layout). We did this manually assuming ... perfect
//! workload knowledge and ample time to prepare the layout for each query."
//!
//! [`prepare`] builds exactly that: a column group containing precisely the
//! query's attributes plus a fused compiled operator over it. The
//! preparation cost is deliberately *outside* the object so harnesses can
//! time [`OracleQuery::run`] alone.

use h2o_exec::{compile, execute, AccessPlan, CompiledOp, ExecError, Strategy};
use h2o_expr::{Query, QueryResult};
use h2o_storage::{AttrId, LayoutCatalog, Relation};

/// A query pre-staged on its perfect layout.
pub struct OracleQuery {
    catalog: LayoutCatalog,
    op: CompiledOp,
}

/// Builds the perfect layout for `q` (an exact-attribute column group
/// stitched from `relation`'s current layouts) and compiles the fused
/// operator over it.
pub fn prepare(relation: &Relation, q: &Query) -> Result<OracleQuery, ExecError> {
    let attrs: Vec<AttrId> = q.all_attrs().to_vec();
    let group = h2o_exec::reorg::materialize(relation.catalog(), &attrs)?;
    let mut catalog = LayoutCatalog::new(relation.schema().clone(), relation.rows());
    let id = catalog.add_group(group)?;
    let plan = AccessPlan::new(vec![id], Strategy::FusedVolcano);
    let op = compile(&catalog, &plan, q)?;
    Ok(OracleQuery { catalog, op })
}

impl OracleQuery {
    /// Executes the staged query (this is the part harnesses time).
    pub fn run(&self) -> Result<QueryResult, ExecError> {
        execute(&self.catalog, &self.op)
    }

    /// Re-stages the operator for another query over the **same attribute
    /// set** (e.g. the next query of the same workload class, differing in
    /// predicate constants). The expensive tailored layout is reused;
    /// only the operator is regenerated.
    pub fn restage(&mut self, q: &Query) -> Result<(), ExecError> {
        let plan = self.op.plan().clone();
        self.op = compile(&self.catalog, &plan, q)?;
        Ok(())
    }

    /// Bytes of the tailored layout (for reporting).
    pub fn layout_bytes(&self) -> usize {
        self.catalog.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_expr::{interpret, Aggregate, Conjunction, Expr, Predicate};
    use h2o_storage::{Schema, Value};

    #[test]
    fn oracle_matches_reference() {
        let schema = Schema::with_width(8).into_shared();
        let cols: Vec<Vec<Value>> = (0..8)
            .map(|k| {
                (0..200)
                    .map(|r| ((k * 7 + r * 3) % 101) as Value - 50)
                    .collect()
            })
            .collect();
        let rel = Relation::columnar(schema, cols).unwrap();
        let queries = [
            Query::project(
                [Expr::sum_of([AttrId(0), AttrId(2)])],
                Conjunction::of([Predicate::gt(5u32, 0)]),
            )
            .unwrap(),
            Query::aggregate([Aggregate::min(Expr::col(7u32))], Conjunction::always()).unwrap(),
        ];
        for q in &queries {
            let oracle = prepare(&rel, q).unwrap();
            let got = oracle.run().unwrap();
            let want = interpret(rel.catalog(), q).unwrap();
            assert_eq!(got.fingerprint(), want.fingerprint());
            assert!(oracle.layout_bytes() > 0);
        }
    }

    #[test]
    fn oracle_layout_is_exactly_the_query_footprint() {
        let schema = Schema::with_width(10).into_shared();
        let cols: Vec<Vec<Value>> = (0..10).map(|_| vec![0; 50]).collect();
        let rel = Relation::columnar(schema, cols).unwrap();
        let q = Query::aggregate(
            [Aggregate::sum(Expr::col(3u32))],
            Conjunction::of([Predicate::lt(6u32, 1)]),
        )
        .unwrap();
        let oracle = prepare(&rel, &q).unwrap();
        // 2 attributes × 8 bytes × 50 rows.
        assert_eq!(oracle.layout_bytes(), 2 * 8 * 50);
    }
}
