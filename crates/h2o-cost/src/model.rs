//! The cost model proper: Eq. 2 (plan cost), transformation cost, and the
//! best cover of one pattern over a configuration — the per-query term of
//! Eq. 1, which the adviser (`h2o-adapt`) sums over its monitoring window.

use crate::pattern::AccessPattern;
use h2o_exec::Strategy;
use h2o_storage::{AttrSet, VALUE_BYTES};

// Machine characteristics the model is parameterized on: order-of-magnitude
// values for a commodity x86 server. Only their *ratios* matter for plan
// and configuration ranking.

/// Cache line size in bytes.
const CACHE_LINE_BYTES: f64 = 64.0;

/// Cost of one last-level cache miss, in seconds (~memory latency).
const CACHE_MISS_SECONDS: f64 = 80e-9;

/// Per-value CPU work for touching/processing one attribute value, in
/// seconds (branch + arithmetic in a compiled kernel).
const CPU_VALUE_SECONDS: f64 = 1.2e-9;

/// Per-tuple cost of reading from one *additional* group in the same pass
/// (tuple stitching across groups: extra address streams defeat the
/// prefetcher and add pointer arithmetic), in seconds.
const CPU_STITCH_SECONDS: f64 = 2.5e-9;

/// Per-operator CPU work for one expression opcode, in seconds.
const CPU_OP_SECONDS: f64 = 0.8e-9;

/// Number of cache lines covering `bytes` of contiguous data.
fn lines(bytes: f64) -> f64 {
    (bytes / CACHE_LINE_BYTES).ceil().max(0.0)
}

/// An abstract layout: just its attribute set. Width in bytes follows from
/// the fixed 8-byte attribute size. Used both for materialized groups and
/// for *candidate* groups the adaptation mechanism is still evaluating.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupSpec {
    pub attrs: AttrSet,
}

impl GroupSpec {
    /// Creates a spec over an attribute set.
    pub fn new(attrs: AttrSet) -> Self {
        GroupSpec { attrs }
    }

    /// Width of one tuple of this group, bytes.
    pub fn width_bytes(&self) -> f64 {
        (self.attrs.len() * VALUE_BYTES) as f64
    }

    /// Total size for `rows` tuples, bytes.
    pub fn bytes(&self, rows: usize) -> f64 {
        self.width_bytes() * rows as f64
    }
}

/// An abstract plan: the groups it reads and the strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSpec {
    pub strategy: Strategy,
    pub groups: Vec<GroupSpec>,
}

/// Which role a relation plays in a hash join. The build side is scanned
/// once into a hash table (insert + payload copy per qualifying tuple); the
/// probe side streams against that table (one probe per qualifying tuple).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinRole {
    Build,
    Probe,
}

/// Hash-table probe: key hash + bucket compare. Shared by grouped
/// aggregation (every qualifying tuple folds through a table) and the
/// probe side of a hash join.
const HASH_PROBE_OPS: f64 = 8.0;

/// Hash-table insert: the probe work plus bucket append and amortized
/// growth. Charged per qualifying build-side tuple.
const HASH_INSERT_OPS: f64 = 12.0;

/// Join-filter build: one hash of the key lanes plus a blocked-bloom word
/// OR and the range min/max fold. Charged per qualifying build-side tuple
/// (the filter is derived from the same gathered parts the table is built
/// from, so there is no extra scan).
const BLOOM_BUILD_OPS: f64 = 2.0;

/// Join-filter test: the range compares plus one blocked-bloom word
/// probe, paid per qualifying probe-side tuple *before* the hash lookup.
/// Deliberately priced below [`HASH_PROBE_OPS`]: the filter touches one
/// cache-resident word where the table probe takes a random access.
const BLOOM_TEST_OPS: f64 = 2.0;

/// The H2O cost model. Data is memory-resident (hot runs, as in the
/// paper's experiments), so the I/O side of Eq. 2's `max(IO, CPU)` is zero
/// and every per-layout term is its CPU term.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel;

impl CostModel {
    // ------------------------------------------------------------------
    // Cache-miss primitives (the CPU side of Eq. 2)
    // ------------------------------------------------------------------

    /// Expected cache lines touched per tuple when `accessed` attributes of
    /// a `width_bytes`-wide tuple are read.
    ///
    /// * Narrow tuples (`width <= line`): consecutive tuples share lines, so
    ///   a scan streams the whole group — `width/line` lines per tuple
    ///   amortized.
    /// * Wide tuples: the tuple spans `m = width/line` lines and the
    ///   `accessed` attributes hit `m * (1 - (1 - 1/m)^accessed)` distinct
    ///   lines in expectation (uniform placement) — the standard
    ///   occupancy/"balls into bins" estimate used by HYRISE-style models.
    fn lines_per_tuple(&self, width_bytes: f64, accessed: usize) -> f64 {
        if accessed == 0 || width_bytes <= 0.0 {
            return 0.0;
        }
        if width_bytes <= CACHE_LINE_BYTES {
            width_bytes / CACHE_LINE_BYTES
        } else {
            let m = width_bytes / CACHE_LINE_BYTES;
            m * (1.0 - (1.0 - 1.0 / m).powi(accessed as i32))
        }
    }

    /// Expected cache misses for a full sequential scan of a group.
    pub fn scan_misses(&self, rows: usize, width_bytes: f64, accessed: usize) -> f64 {
        rows as f64 * self.lines_per_tuple(width_bytes, accessed)
    }

    /// Expected cache misses for gathering `selected` of `rows` tuples
    /// (positional access through a selection vector). Each selected tuple
    /// pays at least one full line; capped by the full-scan cost, which a
    /// dense gather degenerates to.
    pub fn gather_misses(
        &self,
        selected: f64,
        rows: usize,
        width_bytes: f64,
        accessed: usize,
    ) -> f64 {
        if accessed == 0 {
            return 0.0;
        }
        // A sparse gather pays at least one line per selected tuple; a dense
        // gather degenerates to the sequential scan cost.
        let per_tuple = self.lines_per_tuple(width_bytes, accessed).max(1.0);
        (selected * per_tuple).min(self.scan_misses(rows, width_bytes, accessed))
    }

    /// Cost of materializing `bytes` of intermediate results in memory,
    /// priced in cache-line transfers so it is commensurable with the scan
    /// and gather miss costs (write-allocate: every written line is a
    /// miss).
    pub fn materialize(&self, bytes: f64) -> f64 {
        lines(bytes) * CACHE_MISS_SECONDS
    }

    // ------------------------------------------------------------------
    // Eq. 2: plan cost
    // ------------------------------------------------------------------

    /// Estimated cost of executing a query with `pat`'s access pattern
    /// using `plan`, over a relation of `rows` tuples.
    ///
    /// Implements `q(L) = Σ cost_CPU` per layout (see [`CostModel`] on the
    /// I/O term), plus strategy-specific intermediate-result and
    /// output-materialization terms.
    pub fn plan_cost(&self, pat: &AccessPattern, plan: &PlanSpec, rows: usize) -> f64 {
        let n = rows as f64;
        let selected = n * pat.selectivity;
        let miss = CACHE_MISS_SECONDS;
        let needed = pat.all_attrs();

        // Output materialization (row-major result block, §3.3). Grouped
        // output has one row per distinct key; with no cardinality
        // statistics the model prices the upper bound (`selected` rows).
        let out_bytes = if pat.is_aggregate {
            (pat.output_width * VALUE_BYTES) as f64
        } else {
            selected * (pat.output_width * VALUE_BYTES) as f64
        };
        // Grouped aggregation pays one hash-table probe (key hash + bucket
        // compare + accumulator update) per qualifying tuple. The charge is
        // strategy-independent — all three strategies fold through the same
        // table — so relative plan choice stays driven by scan/gather
        // costs, exactly as for scalar aggregates.
        let group_cost = if pat.is_grouped {
            selected * (HASH_PROBE_OPS + pat.output_width as f64) * CPU_OP_SECONDS
        } else {
            0.0
        };
        let out_cost = self.materialize(out_bytes) + group_cost;

        match plan.strategy {
            Strategy::FusedVolcano => {
                // One pass over every group; all accessed attributes of a
                // group are charged at scan rate (predicates force the
                // stream regardless of selectivity).
                let mut total = 0.0;
                let mut active_groups = 0usize;
                for g in &plan.groups {
                    let acc_where = g.attrs.intersection_len(&pat.where_);
                    let acc_all = g.attrs.intersection_len(&needed);
                    if acc_all == 0 {
                        continue;
                    }
                    active_groups += 1;
                    total += self.scan_misses(rows, g.width_bytes(), acc_all) * miss
                        + n * acc_where as f64 * CPU_VALUE_SECONDS;
                }
                // Stitching across multiple groups in the same pass.
                total += n * active_groups.saturating_sub(1) as f64 * CPU_STITCH_SECONDS;
                // Select-item compute only for qualifying tuples.
                total += selected * pat.select_ops as f64 * CPU_OP_SECONDS;
                total + out_cost
            }
            Strategy::SelVector => {
                let mut total = 0.0;
                // Phase 1: full scan of groups holding where attributes.
                for g in &plan.groups {
                    let acc = g.attrs.intersection_len(&pat.where_);
                    if acc == 0 {
                        continue;
                    }
                    total += self.scan_misses(rows, g.width_bytes(), acc) * miss
                        + n * acc as f64 * CPU_VALUE_SECONDS;
                }
                // Selection-vector materialization (u32 ids).
                if pat.has_filter() {
                    total += self.materialize(selected * 4.0);
                }
                // Phase 2: gather from groups holding select attributes.
                let mut gather_groups = 0usize;
                for g in &plan.groups {
                    let acc = g.attrs.intersection_len(&pat.select);
                    if acc == 0 {
                        continue;
                    }
                    gather_groups += 1;
                    let misses = self.gather_misses(selected, rows, g.width_bytes(), acc);
                    total += misses * miss + selected * acc as f64 * CPU_VALUE_SECONDS;
                }
                total += selected * gather_groups.saturating_sub(1) as f64 * CPU_STITCH_SECONDS;
                total += selected * pat.select_ops as f64 * CPU_OP_SECONDS;
                total + out_cost
            }
            Strategy::ColumnMajor => {
                // Column-at-a-time processing reads each attribute through
                // whatever group physically stores it; on non-unit-width
                // groups every per-attribute pass pays strided access.
                let width_of = |attr: h2o_storage::AttrId| -> f64 {
                    plan.groups
                        .iter()
                        .find(|g| g.attrs.contains(attr))
                        .map(|g| g.width_bytes())
                        .unwrap_or(VALUE_BYTES as f64)
                };
                let col_width = VALUE_BYTES as f64;
                let mut total = 0.0;
                // Predicates: first predicate scans its column fully; each
                // further predicate gathers candidates and materializes the
                // intermediate candidate column.
                for (i, attr) in pat.where_.iter().enumerate() {
                    let w = width_of(attr);
                    if i == 0 {
                        total += self.scan_misses(rows, w, 1) * miss + n * CPU_VALUE_SECONDS;
                    } else {
                        let misses = self.gather_misses(selected, rows, w, 1);
                        let cpu = misses * miss + selected * CPU_VALUE_SECONDS;
                        total += cpu + self.materialize(selected * col_width);
                    }
                }
                // Source column reads: one gather per select attribute.
                for attr in pat.select.iter() {
                    let misses = self.gather_misses(selected, rows, width_of(attr), 1);
                    total += misses * miss + selected * CPU_VALUE_SECONDS;
                }
                // Intermediate materializations: one fresh column per
                // operator beyond the raw loads (§2.1: "a+b+c results into
                // the materialization of two intermediate columns"), each
                // both written and re-read.
                let intermediates = pat.select_ops.saturating_sub(pat.select.len());
                total += intermediates as f64 * 2.0 * self.materialize(selected * col_width);
                total += selected * pat.select_ops as f64 * CPU_OP_SECONDS;
                total + out_cost
            }
        }
    }

    /// Estimated cost of one **side** of a hash join executed with `plan`:
    /// the side's scan/filter/gather cost ([`Self::plan_cost`] over the
    /// side pattern — see [`AccessPattern::of_join_side`]) plus the
    /// role-specific hash work per qualifying tuple. The build side pays a
    /// table insert, the payload copy (the pattern's `output_width`
    /// values), and the join-filter build; the probe side pays the
    /// join-filter test plus a table probe. Output materialization of the
    /// *joined* result is already inside `plan_cost`'s output term.
    ///
    /// The asymmetry (insert + copy > probe) is what makes pricing both
    /// orders worthwhile: building on the smaller post-filter side wins,
    /// which is exactly the greedy selectivity-driven ordering the engine
    /// applies — no cardinality statistics, only observed selectivity.
    pub fn join_side_cost(
        &self,
        pat: &AccessPattern,
        plan: &PlanSpec,
        rows: usize,
        role: JoinRole,
    ) -> f64 {
        let selected = rows as f64 * pat.selectivity;
        let hash_ops = match role {
            JoinRole::Build => HASH_INSERT_OPS + BLOOM_BUILD_OPS + pat.output_width as f64,
            JoinRole::Probe => HASH_PROBE_OPS + BLOOM_TEST_OPS,
        };
        self.plan_cost(pat, plan, rows) + selected * hash_ops * CPU_OP_SECONDS
    }

    /// The best (minimum) plan cost over all strategies for a fixed group
    /// set — what the adaptation mechanism assumes the query processor will
    /// achieve ("H2O evaluates the alternative execution strategies and
    /// selects the most appropriate one", §3.3).
    pub fn best_cost(&self, pat: &AccessPattern, groups: &[GroupSpec], rows: usize) -> f64 {
        Strategy::ALL
            .iter()
            .map(|&strategy| {
                self.plan_cost(
                    pat,
                    &PlanSpec {
                        strategy,
                        groups: groups.to_vec(),
                    },
                    rows,
                )
            })
            .fold(f64::INFINITY, f64::min)
    }

    // ------------------------------------------------------------------
    // Transformation cost and covers (the terms of Eq. 1)
    // ------------------------------------------------------------------

    /// `T(C_{i-1}, C_i)` for materializing one new group: stream-read the
    /// source groups that must be stitched and stream-write the target.
    ///
    /// Reorganization is a pure sequential producer/consumer pass, so its
    /// line transfers overlap with prefetching far better than a query's
    /// (which interleaves predicate work); the `SEQ_OVERLAP` factor
    /// calibrates the miss price accordingly — without it the model
    /// overprices builds ~2× relative to queries and lazy materialization
    /// never amortizes within a realistic window.
    pub fn transform_cost(&self, rows: usize, target: &GroupSpec, sources: &[GroupSpec]) -> f64 {
        const SEQ_OVERLAP: f64 = 0.25;
        let n = rows as f64;
        let read_bytes: f64 = sources
            .iter()
            .filter(|s| s.attrs.intersects(&target.attrs))
            .map(|s| s.bytes(rows))
            .sum();
        let write_bytes = target.bytes(rows);
        let misses = lines(read_bytes) + lines(write_bytes);
        misses * CACHE_MISS_SECONDS * SEQ_OVERLAP
            + n * target.attrs.len() as f64 * CPU_VALUE_SECONDS
    }

    /// Greedy cover of `attrs` by the groups of `partition`; returns
    /// indices into `partition`. (The abstract-configuration counterpart of
    /// the catalog's cover; greedy for the same NP-hardness reason.)
    pub fn cover_abstract(partition: &[GroupSpec], attrs: &AttrSet) -> Option<Vec<usize>> {
        let mut remaining = attrs.clone();
        let mut chosen = Vec::new();
        while !remaining.is_empty() {
            let best = partition
                .iter()
                .enumerate()
                .filter(|(i, g)| !chosen.contains(i) && g.attrs.intersects(&remaining))
                .max_by_key(|(_, g)| g.attrs.intersection_len(&remaining))?;
            remaining.difference_with(&best.1.attrs);
            chosen.push(best.0);
        }
        Some(chosen)
    }

    /// Greedy cover preferring the **least excess width** (narrowest
    /// tailored groups) — the abstract counterpart of the catalog's
    /// `LeastExcessWidth` policy. Essential when configurations overlap: a
    /// full-width group covers everything in one step, but the cheaper
    /// plan usually reads the narrow groups.
    pub fn cover_abstract_min_excess(
        partition: &[GroupSpec],
        attrs: &AttrSet,
    ) -> Option<Vec<usize>> {
        let mut remaining = attrs.clone();
        let mut chosen = Vec::new();
        while !remaining.is_empty() {
            let best = partition
                .iter()
                .enumerate()
                .filter(|(i, g)| !chosen.contains(i) && g.attrs.intersects(&remaining))
                .max_by(|(_, a), (_, b)| {
                    let ca = a.attrs.intersection_len(&remaining);
                    let cb = b.attrs.intersection_len(&remaining);
                    let ea = a.attrs.len() - ca;
                    let eb = b.attrs.len() - cb;
                    // Maximize coverage-per-excess (integer-safe form).
                    (ca * (eb + 1)).cmp(&(cb * (ea + 1))).then(ca.cmp(&cb))
                })?;
            remaining.difference_with(&best.1.attrs);
            chosen.push(best.0);
        }
        Some(chosen)
    }

    /// The cheapest cost over the cover alternatives of `config` for one
    /// pattern: both cover policies are priced with their best strategies
    /// and the minimum wins (mirroring the engine's plan enumeration).
    /// Returns `(cost, chosen cover indices)` or `None` if uncovered.
    pub fn best_cover_cost(
        &self,
        pat: &AccessPattern,
        config: &[GroupSpec],
        rows: usize,
    ) -> Option<(f64, Vec<usize>)> {
        let needed = pat.all_attrs();
        let a = Self::cover_abstract(config, &needed)?;
        let b = Self::cover_abstract_min_excess(config, &needed)?;
        let mut best: Option<(f64, Vec<usize>)> = None;
        let mut seen_first: Option<&[usize]> = None;
        for cover in [&a, &b] {
            if seen_first == Some(cover.as_slice()) {
                continue;
            }
            seen_first = Some(cover.as_slice());
            let groups: Vec<GroupSpec> = cover.iter().map(|&i| config[i].clone()).collect();
            let cost = self.best_cost(pat, &groups, rows);
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, cover.clone()));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aset(ids: &[usize]) -> AttrSet {
        ids.iter().copied().collect()
    }

    fn spec(ids: &[usize]) -> GroupSpec {
        GroupSpec::new(aset(ids))
    }

    fn pattern(select: &[usize], where_: &[usize], sel: f64) -> AccessPattern {
        AccessPattern {
            select: aset(select),
            where_: aset(where_),
            selectivity: sel,
            output_width: 1,
            select_ops: select.len().max(1),
            is_aggregate: true,
            is_grouped: false,
        }
    }

    const ROWS: usize = 1_000_000;

    #[test]
    fn narrow_access_prefers_columns_over_row_major() {
        // Query touching 3 of 150 attrs: columnar layouts must cost less
        // than the full row-major group (Figs. 1–2's low-projectivity side).
        let m = CostModel;
        let pat = pattern(&[0, 1, 2], &[3], 0.4);
        let columns: Vec<GroupSpec> = (0..150).map(|i| spec(&[i])).collect();
        let needed_cols: Vec<GroupSpec> = [0, 1, 2, 3].iter().map(|&i| spec(&[i])).collect();
        let row: Vec<GroupSpec> = vec![spec(&(0..150).collect::<Vec<_>>())];
        let col_cost = m.best_cost(&pat, &needed_cols, ROWS);
        let row_cost = m.best_cost(&pat, &row, ROWS);
        assert!(
            col_cost < row_cost,
            "columns {col_cost} should beat row-major {row_cost} at low projectivity"
        );
        let _ = columns;
    }

    #[test]
    fn wide_access_prefers_row_major_over_columns() {
        // Query touching 120 of 150 attrs with an expression: row-major
        // fused must cost less than column-at-a-time (the crossover of
        // Figs. 1–2 at high projectivity).
        let m = CostModel;
        let attrs: Vec<usize> = (0..120).collect();
        let mut pat = pattern(&attrs, &[120], 0.4);
        pat.select_ops = 239; // left-deep sum over 120 columns
        pat.is_aggregate = false;
        pat.output_width = 1;
        let row = vec![spec(&(0..150).collect::<Vec<_>>())];
        let cols: Vec<GroupSpec> = (0..121).map(|i| spec(&[i])).collect();
        let row_fused = m.plan_cost(
            &pat,
            &PlanSpec {
                strategy: Strategy::FusedVolcano,
                groups: row,
            },
            ROWS,
        );
        let col_dsm = m.plan_cost(
            &pat,
            &PlanSpec {
                strategy: Strategy::ColumnMajor,
                groups: cols,
            },
            ROWS,
        );
        assert!(
            row_fused < col_dsm,
            "row fused {row_fused} should beat columnar {col_dsm} at high projectivity"
        );
    }

    #[test]
    fn exact_group_is_at_least_as_good_as_row_major() {
        let m = CostModel;
        let pat = pattern(&[0, 1, 2, 3, 4], &[5], 0.1);
        let exact = vec![spec(&[0, 1, 2, 3, 4, 5])];
        let row = vec![spec(&(0..150).collect::<Vec<_>>())];
        assert!(m.best_cost(&pat, &exact, ROWS) < m.best_cost(&pat, &row, ROWS));
    }

    #[test]
    fn selectivity_lowers_selvector_cost() {
        let m = CostModel;
        let groups = vec![spec(&[0, 1, 2]), spec(&[3])];
        let plan = |sel: f64| {
            m.plan_cost(
                &pattern(&[0, 1, 2], &[3], sel),
                &PlanSpec {
                    strategy: Strategy::SelVector,
                    groups: groups.clone(),
                },
                ROWS,
            )
        };
        assert!(plan(0.01) < plan(0.5));
        assert!(plan(0.5) < plan(1.0));
    }

    #[test]
    fn grouped_queries_cost_more_than_scalar_but_choose_the_same_layouts() {
        let m = CostModel;
        let scalar = pattern(&[0, 1], &[2], 0.5);
        let grouped = AccessPattern {
            is_grouped: true,
            is_aggregate: false,
            output_width: 2,
            ..scalar.clone()
        };
        let narrow = vec![spec(&[0, 1, 2])];
        let wide = vec![spec(&(0..150).collect::<Vec<_>>())];
        // The hash probe makes grouped strictly costlier on the same plan...
        assert!(m.best_cost(&grouped, &narrow, ROWS) > m.best_cost(&scalar, &narrow, ROWS));
        // ...but layout preference is unchanged: the charge is
        // strategy/layout-independent.
        assert!(m.best_cost(&grouped, &narrow, ROWS) < m.best_cost(&grouped, &wide, ROWS));
    }

    #[test]
    fn cost_monotone_in_rows() {
        let m = CostModel;
        let groups = vec![spec(&[0, 1])];
        let pat = pattern(&[0, 1], &[], 1.0);
        let c1 = m.best_cost(&pat, &groups, 1000);
        let c2 = m.best_cost(&pat, &groups, 10_000);
        assert!(c2 > c1);
        assert!(c1 >= 0.0);
    }

    #[test]
    fn lines_rounds_up() {
        assert_eq!(lines(1.0), 1.0);
        assert_eq!(lines(64.0), 1.0);
        assert_eq!(lines(65.0), 2.0);
        assert_eq!(lines(0.0), 0.0);
    }

    #[test]
    fn transform_cost_scales_with_width() {
        let m = CostModel;
        let sources = vec![spec(&(0..100).collect::<Vec<_>>())];
        let t_small = m.transform_cost(ROWS, &spec(&[0, 1, 2]), &sources);
        let t_big = m.transform_cost(ROWS, &(spec(&(0..50).collect::<Vec<_>>())), &sources);
        assert!(t_big > t_small);
        assert!(t_small > 0.0);
    }

    #[test]
    fn join_build_costs_more_than_probe() {
        // Same side, same plan: the build role pays insert + payload copy,
        // the probe role only the table probe.
        let m = CostModel;
        let pat = pattern(&[0, 1], &[2], 0.5);
        let groups = vec![spec(&[0, 1, 2])];
        let plan = PlanSpec {
            strategy: Strategy::SelVector,
            groups,
        };
        let build = m.join_side_cost(&pat, &plan, ROWS, JoinRole::Build);
        let probe = m.join_side_cost(&pat, &plan, ROWS, JoinRole::Probe);
        assert!(
            build > probe,
            "build {build} must exceed probe {probe} on the same side"
        );
    }

    #[test]
    fn join_ordering_prefers_selective_build_side() {
        // Two sides with very different observed selectivity: under every
        // strategy, building on the selective (small post-filter) side is
        // cheaper — the greedy ordering rule the engine applies.
        let m = CostModel;
        let selective = pattern(&[0, 1], &[2], 0.05);
        let broad = pattern(&[0, 1], &[2], 0.8);
        for &strategy in Strategy::ALL.iter() {
            let plan = PlanSpec {
                strategy,
                groups: vec![spec(&[0, 1, 2])],
            };
            let side = |pat, role| m.join_side_cost(pat, &plan, ROWS, role);
            let order_a = side(&selective, JoinRole::Build) + side(&broad, JoinRole::Probe);
            let order_b = side(&broad, JoinRole::Build) + side(&selective, JoinRole::Probe);
            assert!(
                order_a < order_b,
                "{strategy:?}: selective build {order_a} must beat broad build {order_b}"
            );
        }
    }

    #[test]
    fn join_side_cost_prefers_key_payload_group() {
        // A join side reading keys {0} + payload {1} behind a filter on {2}:
        // under every strategy and role, a tailored key+payload group beats
        // the wide row-major group — the gradient the adviser follows
        // toward join-shaped column groups.
        let m = CostModel;
        let pat = pattern(&[0, 1], &[2], 0.2);
        let plan = |strategy, groups| PlanSpec { strategy, groups };
        for &strategy in Strategy::ALL.iter() {
            for role in [JoinRole::Build, JoinRole::Probe] {
                let tailored = plan(strategy, vec![spec(&[0, 1, 2])]);
                let wide = plan(strategy, vec![spec(&(0..150).collect::<Vec<_>>())]);
                let narrow_cost = m.join_side_cost(&pat, &tailored, ROWS, role);
                let wide_cost = m.join_side_cost(&pat, &wide, ROWS, role);
                assert!(
                    narrow_cost < wide_cost,
                    "{strategy:?} {role:?}: {narrow_cost} vs {wide_cost}"
                );
            }
        }
    }

    #[test]
    fn cover_abstract_finds_minimal_cover() {
        let partition = vec![spec(&[0, 1]), spec(&[2, 3]), spec(&[0, 1, 2, 3])];
        let cover = CostModel::cover_abstract(&partition, &aset(&[0, 3])).unwrap();
        assert_eq!(cover, vec![2]);
        assert!(CostModel::cover_abstract(&partition, &aset(&[9])).is_none());
    }

    #[test]
    fn min_excess_cover_prefers_narrow_groups() {
        // Wide group covers everything; narrow groups cover exactly.
        let partition = vec![
            spec(&(0..30).collect::<Vec<_>>()),
            spec(&[0, 1]),
            spec(&[2]),
        ];
        let max_cover = CostModel::cover_abstract(&partition, &aset(&[0, 1, 2])).unwrap();
        assert_eq!(max_cover, vec![0], "max-cover takes the wide group");
        let min_excess =
            CostModel::cover_abstract_min_excess(&partition, &aset(&[0, 1, 2])).unwrap();
        assert_eq!(min_excess, vec![1, 2], "min-excess takes the narrow groups");
    }

    #[test]
    fn best_cover_cost_picks_the_cheaper_alternative() {
        // A narrow-attribute query against a config holding both a wide
        // group and tailored narrow groups: the best cover must not be
        // forced onto the wide group.
        let m = CostModel;
        let config = vec![
            spec(&(0..150).collect::<Vec<_>>()),
            spec(&[0, 1, 2]),
            spec(&[3]),
        ];
        let pat = pattern(&[0, 1, 2], &[3], 0.3);
        let (cost, cover) = m.best_cover_cost(&pat, &config, ROWS).unwrap();
        assert!(
            cover.contains(&1),
            "expected the tailored group in {cover:?}"
        );
        let wide_only = m.best_cost(&pat, &config[..1], ROWS);
        assert!(cost < wide_only);
        // Uncoverable pattern yields None.
        assert!(m
            .best_cover_cost(&pattern(&[999], &[], 1.0), &config, ROWS)
            .is_none());
    }
}
