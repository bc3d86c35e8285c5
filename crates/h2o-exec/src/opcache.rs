//! The operator cache.
//!
//! "To minimize the overhead of code generation, H2O stores newly generated
//! operators into a cache. If the same operator is requested by a future
//! query, H2O accesses it directly from the cache." (§3.4)
//!
//! Cache keys deliberately exclude the where-clause constants: the paper's
//! generated functions take `val1`/`val2` as *arguments* (Fig. 5), so two
//! queries differing only in constants share one operator. On a hit the
//! cached operator is cloned and re-parameterized.
//!
//! A cached join operator also carries the one build it last completed
//! (its key index, CSR payload, build-group lists and build counters), in
//! a slot the entry shares with every clone handed out from it, so the
//! next query of the shape skips the build scan when the build relation's
//! lineage and data version and the build filter's constants are
//! unchanged ([`crate::join`]'s module docs). The build goes when the
//! entry is evicted, invalidated or cleared and its last clone finishes.
//!
//! # Compile time
//!
//! The paper generates C++ and invokes an external compiler: "the
//! compilation overhead in our experiments varies from 10 to 150 ms and
//! depends on the query complexity ... in all experiments, the compilation
//! overhead is included in the query execution time" (§4). Our kernels are
//! ahead-of-time monomorphized, so instantiating one costs microseconds.
//! That real cost is all a miss pays; [`CacheStats::compile_time`] is its
//! measured wall time.

use crate::compile::{CompiledOp, ExecError};
use crate::join::CompiledJoinOp;
use crate::plan::AccessPlan;
use h2o_expr::{Conjunction, JoinQuery, Query, Select, Side};
use h2o_storage::{LayoutCatalog, LayoutId, Value};
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Carries nothing and selects nothing; kept because `benchmark/` (frozen)
/// builds its caches and engine configs with `CompileCostModel::ZERO`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileCostModel;

impl CompileCostModel {
    /// The only value.
    pub const ZERO: CompileCostModel = CompileCostModel;
}

/// Cache key: query *shape* (constants excluded from the filter) and plan
/// (layouts and strategy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OperatorKey(u64);

impl OperatorKey {
    /// Builds the key for `(query, plan)`.
    pub fn new(query: &Query, plan: &AccessPlan) -> OperatorKey {
        let mut h = DefaultHasher::new();
        hash_shape(&mut h, query.select_clause(), [query.filter()]);
        plan.hash(&mut h);
        OperatorKey(h.finish())
    }

    /// Builds the key for a join `(query, side catalogs, side plans, build
    /// role)`. Shape means: both sides' catalog lineages (layout ids are
    /// numbered per lineage, so a relation rebound under the same name
    /// with a new partitioning keys apart from the old one, even for an
    /// operator compiled against the old binding after the rebind), key
    /// pairs, the query shape of [`Self::new`] with one filter per side,
    /// both plans, and the build-side choice (the build role changes the
    /// generated operator, not just its parameters).
    pub fn for_join(
        query: &JoinQuery,
        [left, right]: [&LayoutCatalog; 2],
        left_plan: &AccessPlan,
        right_plan: &AccessPlan,
        build_is_left: bool,
    ) -> OperatorKey {
        let mut h = DefaultHasher::new();
        left.lineage().hash(&mut h);
        right.lineage().hash(&mut h);
        query.on().hash(&mut h);
        let filters = [Side::Left, Side::Right].map(|side| query.filter(side));
        hash_shape(&mut h, query.select_clause(), filters);
        left_plan.hash(&mut h);
        right_plan.hash(&mut h);
        build_is_left.hash(&mut h);
        OperatorKey(h.finish())
    }
}

/// Hashes a query's shape: the select clause whole (constants in select
/// expressions are part of the generated code, and a grouped and a scalar
/// aggregation over the same aggregates must not share an operator), then
/// each filter's predicate attributes and operators — constants excluded,
/// each filter delimited so predicates cannot slide between them.
fn hash_shape<'a>(
    h: &mut DefaultHasher,
    select: &Select,
    filters: impl IntoIterator<Item = &'a Conjunction>,
) {
    select.hash(h);
    for filter in filters {
        for p in filter.predicates() {
            p.attr.hash(h);
            p.op.hash(h);
        }
        u64::MAX.hash(h);
    }
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Total measured wall time of operator compilation (misses only).
    pub compile_time: Duration,
}

/// Number of lock shards. A small power of two: enough that concurrent
/// queries (engines sharing one cache, morsel workers compiling plans)
/// rarely contend on the same shard, cheap enough that `len`/`clear`
/// iteration stays trivial.
const SHARDS: usize = 8;

/// One cached operator: a single-relation scan or a two-relation join.
/// Both kinds share one key space; a key that finds the other kind is a
/// miss (and the compiled operator replaces the entry).
#[derive(Debug, Clone)]
enum CachedOp {
    Scan(CompiledOp),
    Join(CompiledJoinOp),
}

impl CachedOp {
    fn scan(&self) -> Option<&CompiledOp> {
        match self {
            CachedOp::Scan(op) => Some(op),
            CachedOp::Join(_) => None,
        }
    }

    fn join(&self) -> Option<&CompiledJoinOp> {
        match self {
            CachedOp::Join(op) => Some(op),
            CachedOp::Scan(_) => None,
        }
    }

    /// Whether the operator's plan reads `layout` — either side's, for a
    /// join.
    fn reads(&self, layout: LayoutId) -> bool {
        match self {
            CachedOp::Scan(op) => op.plan().layouts.contains(&layout),
            CachedOp::Join(op) => {
                op.build().plan().layouts.contains(&layout)
                    || op.probe().plan().layouts.contains(&layout)
            }
        }
    }
}

/// A bounded, thread-safe operator cache holding scan and join operators
/// in one map.
///
/// The cache is `Send + Sync` by construction: the entry map is split into
/// `SHARDS` (8) independently locked shards keyed by the operator key's hash,
/// and the counters are atomics — so concurrent lookups from parallel
/// queries serialize only when they collide on a shard, never on a single
/// global lock.
#[derive(Debug)]
pub struct OperatorCache {
    shards: [Mutex<HashMap<OperatorKey, CachedOp>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    /// Total measured compile time, in nanoseconds.
    compile_nanos: AtomicU64,
    /// Total capacity across all shards and both operator kinds. Enforced
    /// before each insert by summing shard sizes; under concurrent misses
    /// the bound is approximate (a racing insert may briefly overshoot by
    /// one).
    capacity: usize,
}

// Compile-time proof the cache may be shared across worker threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<OperatorCache>();
};

impl OperatorCache {
    /// Creates a cache holding up to `capacity` operators. The second
    /// parameter is inert; `benchmark/` (frozen) passes it.
    pub fn new(capacity: usize, _: CompileCostModel) -> Self {
        OperatorCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            compile_nanos: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    fn shard(&self, key: OperatorKey) -> &Mutex<HashMap<OperatorKey, CachedOp>> {
        &self.shards[key.0 as usize % SHARDS]
    }

    /// Returns the operator for `(query, plan)`, generating it on miss. The
    /// returned operator already carries this query's predicate constants.
    /// The query is type-checked against the catalog's schema on every
    /// lookup (hit or miss) — the check is what
    /// resolves typed constants (`f64`s, dictionary labels) into the lane
    /// words a cached operator is re-parameterized with, and an ill-typed
    /// query must be rejected even when its shape is cached.
    pub fn get_or_compile(
        &self,
        catalog: &LayoutCatalog,
        plan: &AccessPlan,
        query: &Query,
    ) -> Result<CompiledOp, ExecError> {
        let checked =
            h2o_expr::typecheck::check(query, catalog.schema()).map_err(ExecError::Query)?;
        self.get_or_compile_checked(catalog, plan, query, &checked)
    }

    /// [`Self::get_or_compile`] with the plan-time typing already in hand —
    /// callers that validated the query as their own admission gate (the
    /// engine) pass the result through instead of re-checking per lookup.
    pub fn get_or_compile_checked(
        &self,
        catalog: &LayoutCatalog,
        plan: &AccessPlan,
        query: &Query,
        checked: &h2o_expr::QueryTypes,
    ) -> Result<CompiledOp, ExecError> {
        let key = OperatorKey::new(query, plan);
        let constants: Vec<Value> = checked.predicate_lanes();
        if let Some(mut op) = self.lookup(key, CachedOp::scan) {
            op.rebind_constants(&constants);
            return Ok(op);
        }
        let started = Instant::now();
        let op = crate::compile::compile_checked(catalog, plan, query, checked)?;
        self.insert(key, CachedOp::Scan(op.clone()), started);
        Ok(op)
    }

    /// Returns the join operator for `(query, side plans, build role)`,
    /// generating it on miss — the join counterpart of
    /// [`Self::get_or_compile_checked`]. The caller's
    /// plan-time typing provides the constants a cached operator is
    /// re-parameterized with.
    #[allow(clippy::too_many_arguments)]
    pub fn get_or_compile_join(
        &self,
        left: &LayoutCatalog,
        right: &LayoutCatalog,
        left_plan: &AccessPlan,
        right_plan: &AccessPlan,
        query: &JoinQuery,
        checked: &h2o_expr::JoinTypes,
        build_is_left: bool,
    ) -> Result<CompiledJoinOp, ExecError> {
        let key = OperatorKey::for_join(query, [left, right], left_plan, right_plan, build_is_left);
        let left_lanes: Vec<Value> = checked.predicate_lanes(Side::Left);
        let right_lanes: Vec<Value> = checked.predicate_lanes(Side::Right);
        if let Some(mut op) = self.lookup(key, CachedOp::join) {
            op.rebind_constants(&left_lanes, &right_lanes);
            return Ok(op);
        }
        let started = Instant::now();
        let op = crate::join::compile_join(
            left,
            right,
            left_plan,
            right_plan,
            query,
            checked,
            build_is_left,
        )?;
        self.insert(key, CachedOp::Join(op.clone()), started);
        Ok(op)
    }

    /// A copy of the operator cached under `key` if it is of the kind
    /// `kind` selects, counted as a hit.
    fn lookup<T: Clone>(&self, key: OperatorKey, kind: fn(&CachedOp) -> Option<&T>) -> Option<T> {
        let op = self.shard(key).lock().get(&key).and_then(kind).cloned();
        if op.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        op
    }

    /// Accounts for a compile that began at `started`, makes room and
    /// caches its operator.
    fn insert(&self, key: OperatorKey, op: CachedOp, started: Instant) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.compile_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.evict_to_capacity(key);
        self.shard(key).lock().insert(key, op);
    }

    /// Simple random-ish eviction: drop an arbitrary entry (from the
    /// target shard if it has one, else from any non-empty shard). The
    /// paper does not specify an eviction policy; capacity pressure only
    /// arises in adversarial workloads.
    fn evict_to_capacity(&self, incoming: OperatorKey) {
        while self.len() >= self.capacity {
            let evicted = std::iter::once(self.shard(incoming))
                .chain(&self.shards)
                .any(|shard| {
                    let mut entries = shard.lock();
                    let victim = entries.keys().next().copied();
                    victim.is_some_and(|v| entries.remove(&v).is_some())
                });
            if !evicted {
                break;
            }
        }
    }

    /// Keeps only the operators `keep` accepts.
    fn retain(&self, keep: impl Fn(&CachedOp) -> bool) {
        for shard in &self.shards {
            shard.lock().retain(|_, op| keep(op));
        }
    }

    /// Drops every operator whose plan reads `layout` — required when a
    /// layout is dropped from the catalog. Join operators are dropped when
    /// *either* side's plan reads it.
    pub fn invalidate_layout(&self, layout: LayoutId) {
        self.retain(|op| !op.reads(layout));
    }

    /// Clears the cache.
    pub fn clear(&self) {
        self.retain(|_| false);
    }

    /// Number of cached operators (single-relation and join).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            compile_time: Duration::from_nanos(self.compile_nanos.load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute;
    use crate::plan::Strategy;
    use h2o_expr::{Aggregate, Conjunction, Expr, Predicate};
    use h2o_storage::{AttrId, Relation, Schema};

    fn rel() -> Relation {
        let schema = Schema::with_width(3).into_shared();
        let cols = (0..3)
            .map(|k| (0..20).map(|r| (k * 100 + r) as Value).collect())
            .collect();
        Relation::columnar(schema, cols).unwrap()
    }

    fn count_below(v: Value) -> Query {
        Query::aggregate(
            [Aggregate::count()],
            Conjunction::of([Predicate::lt(0u32, v)]),
        )
        .unwrap()
    }

    #[test]
    fn same_shape_different_constants_hits() {
        let rel = rel();
        let cache = OperatorCache::new(16, CompileCostModel::ZERO);
        let plan = AccessPlan::new(rel.catalog().layout_ids(), Strategy::FusedVolcano);
        let op1 = cache
            .get_or_compile(rel.catalog(), &plan, &count_below(5))
            .unwrap();
        let op2 = cache
            .get_or_compile(rel.catalog(), &plan, &count_below(11))
            .unwrap();
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
        // And the rebinding is effective:
        assert_eq!(execute(rel.catalog(), &op1).unwrap().row(0), &[5]);
        assert_eq!(execute(rel.catalog(), &op2).unwrap().row(0), &[11]);
    }

    #[test]
    fn different_shape_misses() {
        let rel = rel();
        let cache = OperatorCache::new(16, CompileCostModel::ZERO);
        let plan = AccessPlan::new(rel.catalog().layout_ids(), Strategy::FusedVolcano);
        cache
            .get_or_compile(rel.catalog(), &plan, &count_below(5))
            .unwrap();
        let other = Query::aggregate(
            [Aggregate::sum(Expr::col(1u32))],
            Conjunction::of([Predicate::lt(0u32, 5)]),
        )
        .unwrap();
        cache.get_or_compile(rel.catalog(), &plan, &other).unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn different_layouts_miss() {
        let rel = rel();
        let cache = OperatorCache::new(16, CompileCostModel::ZERO);
        let ids = rel.catalog().layout_ids();
        let q = count_below(5);
        cache
            .get_or_compile(
                rel.catalog(),
                &AccessPlan::new(ids.clone(), Strategy::FusedVolcano),
                &q,
            )
            .unwrap();
        cache
            .get_or_compile(
                rel.catalog(),
                &AccessPlan::new(vec![ids[0]], Strategy::FusedVolcano),
                &q,
            )
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn compile_time_is_measured_on_misses_only() {
        let rel = rel();
        let cache = OperatorCache::new(16, CompileCostModel::ZERO);
        let plan = AccessPlan::new(rel.catalog().layout_ids(), Strategy::FusedVolcano);
        assert_eq!(cache.stats().compile_time, Duration::ZERO);
        cache
            .get_or_compile(rel.catalog(), &plan, &count_below(5))
            .unwrap();
        let after_miss = cache.stats().compile_time;
        assert!(after_miss > Duration::ZERO);
        cache
            .get_or_compile(rel.catalog(), &plan, &count_below(7))
            .unwrap();
        assert_eq!(cache.stats().compile_time, after_miss);
    }

    #[test]
    fn invalidate_layout_drops_dependents() {
        let rel = rel();
        let cache = OperatorCache::new(16, CompileCostModel::ZERO);
        let ids = rel.catalog().layout_ids();
        let plan = AccessPlan::new(ids.clone(), Strategy::FusedVolcano);
        cache
            .get_or_compile(rel.catalog(), &plan, &count_below(5))
            .unwrap();
        assert_eq!(cache.len(), 1);
        cache.invalidate_layout(ids[0]);
        assert!(cache.is_empty());
    }

    #[test]
    fn shared_across_threads() {
        // The sharded cache serves concurrent lookups; every thread sees
        // correct operators and the counters account for every access.
        let rel = rel();
        let cache = OperatorCache::new(64, CompileCostModel::ZERO);
        let threads = 4;
        let per_thread = 25;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per_thread {
                        let plan =
                            AccessPlan::new(rel.catalog().layout_ids(), Strategy::FusedVolcano);
                        let op = cache
                            .get_or_compile(rel.catalog(), &plan, &count_below(5))
                            .unwrap();
                        assert_eq!(execute(rel.catalog(), &op).unwrap().row(0), &[5]);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, (threads * per_thread) as u64);
        assert_eq!(cache.len(), 1, "one operator per plan and shape");
    }

    fn join_fixture() -> (Relation, Relation) {
        let dim = Schema::typed([
            ("k", h2o_storage::LogicalType::I64),
            ("tag", h2o_storage::LogicalType::I64),
        ])
        .into_shared();
        let fact = Schema::typed([
            ("fk", h2o_storage::LogicalType::I64),
            ("v", h2o_storage::LogicalType::I64),
        ])
        .into_shared();
        let dim_rel = Relation::columnar(
            dim,
            vec![
                (0..8).collect(),
                (0..8).map(|i| (i * 10) as Value).collect(),
            ],
        )
        .unwrap();
        let fact_rel = Relation::columnar(
            fact,
            vec![(0..32).map(|i| i % 8).collect(), (0..32).collect()],
        )
        .unwrap();
        (dim_rel, fact_rel)
    }

    fn join_count_below(dim: &Relation, fact: &Relation, v: i64) -> h2o_expr::JoinQuery {
        Query::join(
            ("dim", dim.catalog().schema().clone()),
            ("fact", fact.catalog().schema().clone()),
        )
        .on("k", "fk")
        .unwrap()
        .filter_right(Conjunction::of([Predicate::lt(1u32, v)]))
        .aggregate([Aggregate::count()])
        .unwrap()
    }

    #[test]
    fn join_same_shape_different_constants_hits() {
        let (dim, fact) = join_fixture();
        let cache = OperatorCache::new(16, CompileCostModel::ZERO);
        let dplan = AccessPlan::new(dim.catalog().layout_ids(), Strategy::FusedVolcano);
        let fplan = AccessPlan::new(fact.catalog().layout_ids(), Strategy::FusedVolcano);
        let q1 = join_count_below(&dim, &fact, 5);
        let c1 = h2o_expr::check_join(&q1).unwrap();
        let op1 = cache
            .get_or_compile_join(
                dim.catalog(),
                fact.catalog(),
                &dplan,
                &fplan,
                &q1,
                &c1,
                true,
            )
            .unwrap();
        let q2 = join_count_below(&dim, &fact, 11);
        let c2 = h2o_expr::check_join(&q2).unwrap();
        let op2 = cache
            .get_or_compile_join(
                dim.catalog(),
                fact.catalog(),
                &dplan,
                &fplan,
                &q2,
                &c2,
                true,
            )
            .unwrap();
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
        // And the per-side rebinding is effective: every fact row matches a
        // dim row, so the count is the number of rows below the cutoff.
        let serial = crate::ExecPolicy::serial();
        let run = |op: &CompiledJoinOp| {
            crate::execute_join_with_policy(dim.catalog(), fact.catalog(), op, &serial)
        };
        let (r1, s1) = run(&op1).unwrap();
        let (r2, s2) = run(&op2).unwrap();
        assert_eq!(r1.row(0), &[5]);
        assert_eq!(r2.row(0), &[11]);
        // The hit shares the entry's held build: only the probe side's
        // constant moved, so the second query skips the build scan.
        assert!(!s1.build_reused && s2.build_reused);
        // The build goes with the entry.
        cache.clear();
        let op3 = cache
            .get_or_compile_join(
                dim.catalog(),
                fact.catalog(),
                &dplan,
                &fplan,
                &q2,
                &c2,
                true,
            )
            .unwrap();
        let (r3, s3) = run(&op3).unwrap();
        assert_eq!((r3.row(0), s3.build_reused), (&[11][..], false));
    }

    #[test]
    fn join_flipped_build_side_misses() {
        let (dim, fact) = join_fixture();
        let cache = OperatorCache::new(16, CompileCostModel::ZERO);
        let dplan = AccessPlan::new(dim.catalog().layout_ids(), Strategy::FusedVolcano);
        let fplan = AccessPlan::new(fact.catalog().layout_ids(), Strategy::FusedVolcano);
        let q = join_count_below(&dim, &fact, 5);
        let c = h2o_expr::check_join(&q).unwrap();
        for build_is_left in [true, false] {
            cache
                .get_or_compile_join(
                    dim.catalog(),
                    fact.catalog(),
                    &dplan,
                    &fplan,
                    &q,
                    &c,
                    build_is_left,
                )
                .unwrap();
        }
        // The build role changes the generated operator, not just its
        // parameters — flipping it must not hit.
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn invalidate_layout_drops_join_dependents_on_either_side() {
        let (dim, fact) = join_fixture();
        let cache = OperatorCache::new(16, CompileCostModel::ZERO);
        let dplan = AccessPlan::new(dim.catalog().layout_ids(), Strategy::FusedVolcano);
        let fplan = AccessPlan::new(fact.catalog().layout_ids(), Strategy::FusedVolcano);
        let q = join_count_below(&dim, &fact, 5);
        let c = h2o_expr::check_join(&q).unwrap();
        cache
            .get_or_compile_join(dim.catalog(), fact.catalog(), &dplan, &fplan, &q, &c, true)
            .unwrap();
        assert_eq!(cache.len(), 1);
        // Invalidating a probe-side (fact) layout must drop the join op too.
        cache.invalidate_layout(fact.catalog().layout_ids()[0]);
        assert!(cache.is_empty());
    }

    #[test]
    fn eviction_respects_capacity() {
        let rel = rel();
        let cache = OperatorCache::new(2, CompileCostModel::ZERO);
        let ids = rel.catalog().layout_ids();
        let plan = AccessPlan::new(ids.clone(), Strategy::FusedVolcano);
        cache
            .get_or_compile(rel.catalog(), &plan, &count_below(5))
            .unwrap();
        assert!(cache.len() <= 2);
    }

    /// Compiles `q` over the join fixture with the given build role.
    fn join_op(
        cache: &OperatorCache,
        dim: &Relation,
        fact: &Relation,
        q: &h2o_expr::JoinQuery,
        build_is_left: bool,
    ) -> CompiledJoinOp {
        let dplan = AccessPlan::new(dim.catalog().layout_ids(), Strategy::FusedVolcano);
        let fplan = AccessPlan::new(fact.catalog().layout_ids(), Strategy::FusedVolcano);
        let c = h2o_expr::check_join(q).unwrap();
        cache
            .get_or_compile_join(
                dim.catalog(),
                fact.catalog(),
                &dplan,
                &fplan,
                q,
                &c,
                build_is_left,
            )
            .unwrap()
    }

    #[test]
    fn a_rebound_catalog_with_the_same_layout_ids_misses() {
        let (dim, fact) = join_fixture();
        let cache = OperatorCache::new(16, CompileCostModel::ZERO);
        let q = join_count_below(&dim, &fact, 5);
        join_op(&cache, &dim, &fact, &q, true);
        // Pair B: the same names and layout ids (L0, L1), but `dim`'s
        // columns stored the other way round.
        let schema = dim.catalog().schema().clone();
        let cols = vec![(0..8).collect(), (0..8).map(|i| i * 10).collect()];
        let swapped = vec![vec![AttrId(1)], vec![AttrId(0)]];
        let rebound = Relation::partitioned(schema, cols, swapped).unwrap();
        assert_eq!(rebound.catalog().layout_ids(), dim.catalog().layout_ids());
        let op = join_op(&cache, &rebound, &fact, &q, true);
        assert_eq!(
            cache.stats().misses,
            2,
            "pair B must not reuse pair A's operator"
        );
        let serial = crate::ExecPolicy::serial();
        let (r, _) =
            crate::execute_join_with_policy(rebound.catalog(), fact.catalog(), &op, &serial)
                .unwrap();
        assert_eq!(r.row(0), &[5]);
        // A clone keeps its lineage, so every version of pair A still hits.
        let dim_version = dim.catalog().clone();
        let plan = |c: &LayoutCatalog| AccessPlan::new(c.layout_ids(), Strategy::FusedVolcano);
        let checked = h2o_expr::check_join(&q).unwrap();
        let (dplan, fplan) = (plan(&dim_version), plan(fact.catalog()));
        cache
            .get_or_compile_join(
                &dim_version,
                fact.catalog(),
                &dplan,
                &fplan,
                &q,
                &checked,
                true,
            )
            .unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn capacity_counts_scan_and_join_operators() {
        let rel = rel();
        let (dim, fact) = join_fixture();
        let cache = OperatorCache::new(2, CompileCostModel::ZERO);
        let q = join_count_below(&dim, &fact, 5);
        join_op(&cache, &dim, &fact, &q, true);
        join_op(&cache, &dim, &fact, &q, false);
        assert_eq!(cache.len(), 2);
        let plan = AccessPlan::new(rel.catalog().layout_ids(), Strategy::FusedVolcano);
        cache
            .get_or_compile(rel.catalog(), &plan, &count_below(5))
            .unwrap();
        assert_eq!(cache.len(), 2, "a scan evicts a join at capacity");
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn invalidate_layout_drops_both_kinds() {
        let rel = rel();
        let (dim, fact) = join_fixture();
        let cache = OperatorCache::new(16, CompileCostModel::ZERO);
        let plan = AccessPlan::new(rel.catalog().layout_ids(), Strategy::FusedVolcano);
        cache
            .get_or_compile(rel.catalog(), &plan, &count_below(5))
            .unwrap();
        join_op(&cache, &dim, &fact, &join_count_below(&dim, &fact, 5), true);
        assert_eq!(cache.len(), 2);
        // Layout ids are per catalog: both plans read an `L0`.
        let shared = rel.catalog().layout_ids()[0];
        assert_eq!(fact.catalog().layout_ids()[0], shared);
        cache.invalidate_layout(shared);
        assert!(cache.is_empty());
    }

    #[test]
    fn a_key_holding_the_other_kind_is_a_miss() {
        let rel = rel();
        let (dim, fact) = join_fixture();
        let cache = OperatorCache::new(16, CompileCostModel::ZERO);
        let scan_plan = AccessPlan::new(rel.catalog().layout_ids(), Strategy::FusedVolcano);
        let scan = count_below(5);
        let q = join_count_below(&dim, &fact, 5);
        // Plant the other kind under each lookup's key.
        let dplan = AccessPlan::new(dim.catalog().layout_ids(), Strategy::FusedVolcano);
        let fplan = AccessPlan::new(fact.catalog().layout_ids(), Strategy::FusedVolcano);
        let join_key =
            OperatorKey::for_join(&q, [dim.catalog(), fact.catalog()], &dplan, &fplan, true);
        let scan_key = OperatorKey::new(&scan, &scan_plan);
        let other = OperatorCache::new(16, CompileCostModel::ZERO);
        let planted_scan = other
            .get_or_compile(rel.catalog(), &scan_plan, &scan)
            .unwrap();
        let planted_join = join_op(&other, &dim, &fact, &q, true);
        cache
            .shard(join_key)
            .lock()
            .insert(join_key, CachedOp::Scan(planted_scan));
        cache
            .shard(scan_key)
            .lock()
            .insert(scan_key, CachedOp::Join(planted_join));

        let op = join_op(&cache, &dim, &fact, &q, true);
        let serial = crate::ExecPolicy::serial();
        let (r, _) =
            crate::execute_join_with_policy(dim.catalog(), fact.catalog(), &op, &serial).unwrap();
        assert_eq!(r.row(0), &[5]);
        let op = cache
            .get_or_compile(rel.catalog(), &scan_plan, &scan)
            .unwrap();
        assert_eq!(execute(rel.catalog(), &op).unwrap().row(0), &[5]);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 2);
        // The compiled operators replaced the planted ones: now both hit.
        join_op(&cache, &dim, &fact, &q, true);
        cache
            .get_or_compile(rel.catalog(), &scan_plan, &scan)
            .unwrap();
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.len(), 2);
    }
}
