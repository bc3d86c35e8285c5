//! Static baseline engines: the row-store and column-store H2O is compared
//! against.
//!
//! "We compare H2O against a column-store implementation and a row-store
//! implementation. In both cases, we use our own engines which share the
//! same design principles and much of the code base with H2O; thus these
//! comparisons purely reflect the differences in data layouts and access
//! patterns." (§4.1)
//!
//! * [`StaticKind::RowStore`] — single full-width group, read through its
//!   one group (§3.3 "Row-major").
//! * [`StaticKind::ColumnStore`] — one group per attribute, reading
//!   exactly the referenced columns (§3.3 "Column-major"), which the fused
//!   kernel folds and gathers a column at a time.
//!
//! Both run H2O's one kernel and operator cache; the only difference is
//! the fixed layout — exactly the experimental isolation the paper argues
//! for ("comparisons purely reflect the differences in data layouts").

use h2o_exec::{
    execute as exec_execute, AccessPlan, CompileCostModel, ExecError, OperatorCache, Strategy,
};
use h2o_expr::{Query, QueryResult};
use h2o_storage::{LayoutId, Relation, Schema, StorageError, Value};
use std::sync::Arc;

/// Which fixed design the static engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticKind {
    RowStore,
    ColumnStore,
}

impl StaticKind {
    /// Human-readable name for harness output.
    pub fn name(self) -> &'static str {
        match self {
            StaticKind::RowStore => "row-store",
            StaticKind::ColumnStore => "column-store",
        }
    }
}

/// A fixed-layout engine. It executes serially, like the
/// paper's single-threaded baselines.
pub struct StaticEngine {
    relation: Relation,
    kind: StaticKind,
    opcache: OperatorCache,
}

impl StaticEngine {
    /// Builds the engine from raw columns, laying the data out according to
    /// `kind`.
    pub fn new(
        schema: Arc<Schema>,
        columns: Vec<Vec<Value>>,
        kind: StaticKind,
    ) -> Result<Self, StorageError> {
        let relation = match kind {
            StaticKind::RowStore => Relation::row_major(schema, columns)?,
            StaticKind::ColumnStore => Relation::columnar(schema, columns)?,
        };
        Ok(StaticEngine {
            relation,
            kind,
            opcache: OperatorCache::new(256, CompileCostModel::ZERO),
        })
    }

    /// The engine kind.
    pub fn kind(&self) -> StaticKind {
        self.kind
    }

    /// The underlying relation.
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// The fixed plan this engine uses for a query.
    pub fn plan(&self, q: &Query) -> Result<AccessPlan, ExecError> {
        let catalog = self.relation.catalog();
        match self.kind {
            StaticKind::RowStore => {
                // The row-store always scans its single full-width layout.
                let all: Vec<LayoutId> = catalog.layout_ids();
                Ok(AccessPlan::new(all, Strategy::FusedVolcano))
            }
            StaticKind::ColumnStore => {
                // The column-store reads exactly the referenced columns.
                let ids = catalog.cover(&q.all_attrs())?;
                Ok(AccessPlan::new(ids, Strategy::FusedVolcano))
            }
        }
    }

    /// Executes a query with the engine's fixed layout.
    pub fn execute(&self, q: &Query) -> Result<QueryResult, ExecError> {
        let plan = self.plan(q)?;
        let op = self
            .opcache
            .get_or_compile(self.relation.catalog(), &plan, q)?;
        exec_execute(self.relation.catalog(), &op)
    }

    /// Operator-cache statistics.
    pub fn opcache_stats(&self) -> h2o_exec::opcache::CacheStats {
        self.opcache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_expr::{interpret, Aggregate, Conjunction, Expr, Predicate};
    use h2o_storage::AttrId;

    fn cols(n: usize, rows: usize) -> Vec<Vec<Value>> {
        (0..n)
            .map(|k| {
                (0..rows)
                    .map(|r| ((k * 997 + r * 13) % 501) as Value - 250)
                    .collect()
            })
            .collect()
    }

    fn engines(n: usize, rows: usize) -> (StaticEngine, StaticEngine) {
        let schema = Schema::with_width(n).into_shared();
        let row = StaticEngine::new(schema.clone(), cols(n, rows), StaticKind::RowStore).unwrap();
        let col = StaticEngine::new(schema, cols(n, rows), StaticKind::ColumnStore).unwrap();
        (row, col)
    }

    #[test]
    fn row_and_column_agree_with_interpreter() {
        let (row, col) = engines(10, 400);
        let queries = [
            Query::project(
                [Expr::sum_of([AttrId(0), AttrId(1), AttrId(2)])],
                Conjunction::of([Predicate::lt(3u32, 0), Predicate::gt(4u32, -200)]),
            )
            .unwrap(),
            Query::aggregate(
                [
                    Aggregate::max(Expr::col(5u32)),
                    Aggregate::sum(Expr::col(6u32)),
                    Aggregate::count(),
                ],
                Conjunction::of([Predicate::le(7u32, 100)]),
            )
            .unwrap(),
            Query::project([Expr::col(9u32)], Conjunction::always()).unwrap(),
            Query::grouped(
                [Expr::col(0u32)],
                [Aggregate::sum(Expr::col(1u32)), Aggregate::count()],
                Conjunction::of([Predicate::gt(2u32, 0)]),
            )
            .unwrap(),
        ];
        for q in &queries {
            let want = interpret(row.relation().catalog(), q).unwrap();
            assert_eq!(row.execute(q).unwrap().fingerprint(), want.fingerprint());
            assert_eq!(col.execute(q).unwrap().fingerprint(), want.fingerprint());
        }
    }

    #[test]
    fn bare_count_star_without_a_filter() {
        // No attribute referenced: the column store reads no column.
        let (row, col) = engines(4, 3_000);
        let q = Query::aggregate([Aggregate::count()], Conjunction::always()).unwrap();
        assert!(col.plan(&q).unwrap().layouts.is_empty());
        for engine in [&row, &col] {
            assert_eq!(engine.execute(&q).unwrap().data(), &[3_000]);
        }
    }

    #[test]
    fn plans_reflect_fixed_designs() {
        let (row, col) = engines(6, 50);
        let q = Query::project([Expr::col(2u32)], Conjunction::always()).unwrap();
        let rp = row.plan(&q).unwrap();
        assert_eq!(rp.strategy, Strategy::FusedVolcano);
        assert_eq!(rp.layouts.len(), 1, "row store has one wide layout");
        let cp = col.plan(&q).unwrap();
        assert_eq!(cp.strategy, Strategy::FusedVolcano);
        assert_eq!(cp.layouts.len(), 1, "only the referenced column");
    }

    #[test]
    fn column_store_reads_only_needed_columns() {
        let (_, col) = engines(20, 30);
        let q = Query::aggregate(
            [
                Aggregate::sum(Expr::col(3u32)),
                Aggregate::sum(Expr::col(9u32)),
            ],
            Conjunction::of([Predicate::gt(15u32, 0)]),
        )
        .unwrap();
        let plan = col.plan(&q).unwrap();
        assert_eq!(plan.layouts.len(), 3);
    }

    #[test]
    fn operator_cache_shared_across_queries() {
        let (row, _) = engines(4, 50);
        let q1 = Query::aggregate(
            [Aggregate::count()],
            Conjunction::of([Predicate::lt(0u32, 5)]),
        )
        .unwrap();
        let q2 = Query::aggregate(
            [Aggregate::count()],
            Conjunction::of([Predicate::lt(0u32, 90)]),
        )
        .unwrap();
        row.execute(&q1).unwrap();
        row.execute(&q2).unwrap();
        let stats = row.opcache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn kind_names() {
        assert_eq!(StaticKind::RowStore.name(), "row-store");
        assert_eq!(StaticKind::ColumnStore.name(), "column-store");
    }
}
