//! The cost model proper: Eq. 2 (plan cost), transformation cost, and the
//! best plan of one pattern over a configuration — what the query planner
//! runs and the per-query term of Eq. 1, which the adviser (`h2o-adapt`)
//! sums over its monitoring window.

use crate::pattern::AccessPattern;
use h2o_storage::{cover_fewest_groups, cover_least_excess, AttrSet, VALUE_BYTES};

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

/// Width in bytes of one tuple of a group over `attrs`.
fn width_bytes(attrs: &AttrSet) -> f64 {
    (attrs.len() * VALUE_BYTES) as f64
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

    /// Total size for `rows` tuples, bytes.
    pub fn bytes(&self, rows: usize) -> f64 {
        width_bytes(&self.attrs) * rows as f64
    }
}

/// The plan [`CostModel::best_plan`] picks for one pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct PricedPlan {
    /// Its Eq. 2 cost.
    pub cost: f64,
    /// The groups it reads, as positions in the configuration, in the
    /// order the cover picked them (the order the cost was summed in).
    pub cover: Vec<usize>,
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

/// Join-filter build: one blocked-bloom word OR per key, from the hash
/// the table insert already computed. Charged per qualifying build-side
/// tuple (the filter is filled from the same gathered parts the table is
/// built from, so there is no extra scan).
const BLOOM_BUILD_OPS: f64 = 2.0;

/// Join-filter test: one blocked-bloom word probe, paid per qualifying
/// probe-side tuple *before* the hash lookup.
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
    /// over `groups`, on a relation of `rows` tuples.
    ///
    /// Implements `q(L) = Σ cost_CPU` per layout (see [`CostModel`] on the
    /// I/O term), plus intermediate-result and output-materialization
    /// terms. The scan is priced as the cheapest of three formulas: one
    /// pass (Fig. 5), two phases (Fig. 6) and a column at a time (§2.1).
    /// It runs every plan with the one walker, but folds its rows a
    /// block at a time — the two-phase plan with a block for its selection
    /// vector — and over a column layout a column at a time, so each of the
    /// three prices one of its shapes (ROADMAP item 6 re-derives them).
    pub fn plan_cost(&self, pat: &AccessPattern, groups: &[&AttrSet], rows: usize) -> f64 {
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
        // the same under each formula — every shape folds through the same
        // table — so relative plan choice stays driven by scan/gather
        // costs, exactly as for scalar aggregates.
        let group_cost = if pat.is_grouped {
            selected * (HASH_PROBE_OPS + pat.output_width as f64) * CPU_OP_SECONDS
        } else {
            0.0
        };
        let out_cost = self.materialize(out_bytes) + group_cost;

        // One pass over every group; all accessed attributes of a
        // group are charged at scan rate (predicates force the
        // stream regardless of selectivity).
        let mut total = 0.0;
        let mut active_groups = 0usize;
        for g in groups {
            let acc_where = g.intersection_len(&pat.where_);
            let acc_all = g.intersection_len(&needed);
            if acc_all == 0 {
                continue;
            }
            active_groups += 1;
            total += self.scan_misses(rows, width_bytes(g), acc_all) * miss
                + n * acc_where as f64 * CPU_VALUE_SECONDS;
        }
        // Stitching across multiple groups in the same pass.
        total += n * active_groups.saturating_sub(1) as f64 * CPU_STITCH_SECONDS;
        // Select-item compute only for qualifying tuples.
        total += selected * pat.select_ops as f64 * CPU_OP_SECONDS;
        let one_pass = total + out_cost;
        // Two phases (Fig. 6): the scan folds its rows a 1K-row block at
        // a time, the two-phase plan with a block for its selection
        // vector (ROADMAP item 4(b) re-prices the scan).
        let mut total = 0.0;
        // Phase 1: full scan of groups holding where attributes.
        for g in groups {
            let acc = g.intersection_len(&pat.where_);
            if acc == 0 {
                continue;
            }
            total += self.scan_misses(rows, width_bytes(g), acc) * miss
                + n * acc as f64 * CPU_VALUE_SECONDS;
        }
        // Selection-vector materialization (u32 ids).
        if pat.has_filter() {
            total += self.materialize(selected * 4.0);
        }
        // Phase 2: gather from groups holding select attributes.
        let mut gather_groups = 0usize;
        for g in groups {
            let acc = g.intersection_len(&pat.select);
            if acc == 0 {
                continue;
            }
            gather_groups += 1;
            let misses = self.gather_misses(selected, rows, width_bytes(g), acc);
            total += misses * miss + selected * acc as f64 * CPU_VALUE_SECONDS;
        }
        total += selected * gather_groups.saturating_sub(1) as f64 * CPU_STITCH_SECONDS;
        total += selected * pat.select_ops as f64 * CPU_OP_SECONDS;
        let two_phase = total + out_cost;
        let columns = self.column_at_a_time(pat, groups, rows) + out_cost;
        one_pass.min(two_phase).min(columns)
    }

    /// [`Self::plan_cost`]'s column-at-a-time price without its output
    /// term: the formula of the column-store execution model (§2.1), each
    /// attribute read through whatever group stores it, every predicate
    /// past the first and every operator past the raw loads paying a
    /// materialized intermediate column. The scan no longer builds those
    /// intermediates (it reads a column layout a column at a time with
    /// block-sized vectors), but the formula keeps every plan the model
    /// chose while it did; ROADMAP item 6 re-derives it.
    fn column_at_a_time(&self, pat: &AccessPattern, groups: &[&AttrSet], rows: usize) -> f64 {
        let n = rows as f64;
        let selected = n * pat.selectivity;
        let miss = CACHE_MISS_SECONDS;
        // On non-unit-width groups every per-attribute pass pays strided
        // access.
        let width_of = |attr: h2o_storage::AttrId| -> f64 {
            groups
                .iter()
                .find(|g| g.contains(attr))
                .map(|g| width_bytes(g))
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
        // Intermediate materializations: one fresh column per operator
        // beyond the raw loads (§2.1: "a+b+c results into the
        // materialization of two intermediate columns"), each both
        // written and re-read.
        let intermediates = pat.select_ops.saturating_sub(pat.select.len());
        total += intermediates as f64 * 2.0 * self.materialize(selected * col_width);
        total += selected * pat.select_ops as f64 * CPU_OP_SECONDS;
        total
    }

    /// Estimated cost of one **side** of a hash join whose own plan costs
    /// `plan_cost` (the side's scan/filter/gather cost, [`Self::plan_cost`]
    /// over the side pattern — see [`AccessPattern::of_join_side`]) plus
    /// the role-specific hash work per qualifying tuple. The build side pays a
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
        plan_cost: f64,
        rows: usize,
        role: JoinRole,
    ) -> f64 {
        let selected = rows as f64 * pat.selectivity;
        let hash_ops = match role {
            JoinRole::Build => HASH_INSERT_OPS + BLOOM_BUILD_OPS + pat.output_width as f64,
            JoinRole::Probe => HASH_PROBE_OPS + BLOOM_TEST_OPS,
        };
        plan_cost + selected * hash_ops * CPU_OP_SECONDS
    }

    /// The cheapest plan for `pat` over the groups of `config` — the one
    /// decision the query planner executes, the adviser prices, the lazy
    /// "can it benefit" check compares and AutoPart sums ("H2O evaluates
    /// the alternative execution strategies and selects the most
    /// appropriate one", §3.3).
    ///
    /// The candidates are the two greedy covers of the pattern's attributes
    /// ([`cover_fewest_groups`], then [`cover_least_excess`] if it
    /// differs), each priced by [`Self::plan_cost`]; the first strictly
    /// cheapest wins. The narrowest single group holding every
    /// attribute needs no candidate of its own: when one exists, it is the
    /// whole fewest-groups cover (most covered, then least excess, then
    /// earliest).
    ///
    /// Both covers depend only on the groups that intersect the pattern's
    /// attributes and on their relative order, so pricing that subsequence
    /// of `config` gives the same plan (as positions in the subsequence).
    /// `None` when `config` does not cover the pattern.
    pub fn best_plan(
        &self,
        pat: &AccessPattern,
        config: &[&AttrSet],
        rows: usize,
    ) -> Option<PricedPlan> {
        let needed = pat.all_attrs();
        let fewest = cover_fewest_groups(config, &needed)?;
        let least_excess = cover_least_excess(config, &needed).filter(|c| *c != fewest);
        let covers = [Some(fewest), least_excess];

        let mut best: Option<(f64, usize)> = None;
        let mut groups = Vec::new();
        for (k, cover) in covers.iter().enumerate() {
            let Some(cover) = cover else { continue };
            groups.clear();
            groups.extend(cover.iter().map(|&i| config[i]));
            let cost = self.plan_cost(pat, &groups, rows);
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, k));
            }
        }
        let (cost, k) = best?;
        let cover = covers.into_iter().nth(k)??;
        Some(PricedPlan { cost, cover })
    }

    // ------------------------------------------------------------------
    // Transformation cost (the other term of Eq. 1)
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aset(ids: &[usize]) -> AttrSet {
        ids.iter().copied().collect()
    }

    fn span(n: usize) -> AttrSet {
        AttrSet::all(n)
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

    /// [`CostModel::best_plan`] over `config`, which must cover `pat`.
    fn best(m: &CostModel, pat: &AccessPattern, config: &[AttrSet], rows: usize) -> PricedPlan {
        let refs: Vec<&AttrSet> = config.iter().collect();
        m.best_plan(pat, &refs, rows)
            .expect("config covers the pattern")
    }

    #[test]
    fn narrow_access_prefers_columns_over_row_major() {
        // Query touching 3 of 150 attrs: columnar layouts must cost less
        // than the full row-major group (Figs. 1–2's low-projectivity side).
        let m = CostModel;
        let pat = pattern(&[0, 1, 2], &[3], 0.4);
        let columns: Vec<AttrSet> = (0..150).map(|i| aset(&[i])).collect();
        let col_cost = best(&m, &pat, &columns, ROWS).cost;
        let row_cost = best(&m, &pat, &[span(150)], ROWS).cost;
        assert!(
            col_cost < row_cost,
            "columns {col_cost} should beat row-major {row_cost} at low projectivity"
        );
    }

    #[test]
    fn wide_access_prefers_row_major_over_columns() {
        // Query touching 120 of 150 attrs with an expression: the row-major
        // plan must cost less than the best price over the column layout
        // (the crossover of Figs. 1–2 at high projectivity).
        let m = CostModel;
        let attrs: Vec<usize> = (0..120).collect();
        let mut pat = pattern(&attrs, &[120], 0.4);
        pat.select_ops = 239; // left-deep sum over 120 columns
        pat.is_aggregate = false;
        pat.output_width = 1;
        let row = span(150);
        let cols: Vec<AttrSet> = (0..121).map(|i| aset(&[i])).collect();
        let col_refs: Vec<&AttrSet> = cols.iter().collect();
        let row_cost = m.plan_cost(&pat, &[&row], ROWS);
        let col_cost = m.plan_cost(&pat, &col_refs, ROWS);
        assert!(
            row_cost < col_cost,
            "row-major {row_cost} should beat columnar {col_cost} at high projectivity"
        );
    }

    #[test]
    fn exact_group_is_at_least_as_good_as_row_major() {
        let m = CostModel;
        let pat = pattern(&[0, 1, 2, 3, 4], &[5], 0.1);
        let exact = best(&m, &pat, &[aset(&[0, 1, 2, 3, 4, 5])], ROWS);
        assert!(exact.cost < best(&m, &pat, &[span(150)], ROWS).cost);
    }

    #[test]
    fn selectivity_lowers_fused_cost() {
        let m = CostModel;
        let (a, b) = (aset(&[0, 1, 2]), aset(&[3]));
        let plan = |sel: f64| m.plan_cost(&pattern(&[0, 1, 2], &[3], sel), &[&a, &b], ROWS);
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
        let narrow = [aset(&[0, 1, 2])];
        let wide = [span(150)];
        let cost = |pat, config: &[AttrSet]| best(&m, pat, config, ROWS).cost;
        // The hash probe makes grouped strictly costlier on the same plan...
        assert!(cost(&grouped, &narrow) > cost(&scalar, &narrow));
        // ...but layout preference is unchanged: the charge is
        // layout-independent.
        assert!(cost(&grouped, &narrow) < cost(&grouped, &wide));
    }

    #[test]
    fn cost_monotone_in_rows() {
        let m = CostModel;
        let groups = [aset(&[0, 1])];
        let pat = pattern(&[0, 1], &[], 1.0);
        let c1 = best(&m, &pat, &groups, 1000).cost;
        let c2 = best(&m, &pat, &groups, 10_000).cost;
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
        let sources = vec![GroupSpec::new(span(100))];
        let t_small = m.transform_cost(ROWS, &GroupSpec::new(aset(&[0, 1, 2])), &sources);
        let t_big = m.transform_cost(ROWS, &GroupSpec::new(span(50)), &sources);
        assert!(t_big > t_small);
        assert!(t_small > 0.0);
    }

    #[test]
    fn join_build_costs_more_than_probe() {
        // Same side, same plan: the build role pays insert + payload copy,
        // the probe role only the table probe.
        let m = CostModel;
        let pat = pattern(&[0, 1], &[2], 0.5);
        let plan = m.plan_cost(&pat, &[&aset(&[0, 1, 2])], ROWS);
        let build = m.join_side_cost(&pat, plan, ROWS, JoinRole::Build);
        let probe = m.join_side_cost(&pat, plan, ROWS, JoinRole::Probe);
        assert!(
            build > probe,
            "build {build} must exceed probe {probe} on the same side"
        );
    }

    #[test]
    fn join_ordering_prefers_selective_build_side() {
        // Two sides with very different observed selectivity: building on
        // the selective (small post-filter) side is cheaper — the greedy
        // ordering rule the engine applies.
        let m = CostModel;
        let selective = pattern(&[0, 1], &[2], 0.05);
        let broad = pattern(&[0, 1], &[2], 0.8);
        let group = aset(&[0, 1, 2]);
        let side = |pat, role| {
            let plan = m.plan_cost(pat, &[&group], ROWS);
            m.join_side_cost(pat, plan, ROWS, role)
        };
        let order_a = side(&selective, JoinRole::Build) + side(&broad, JoinRole::Probe);
        let order_b = side(&broad, JoinRole::Build) + side(&selective, JoinRole::Probe);
        assert!(
            order_a < order_b,
            "selective build {order_a} must beat broad build {order_b}"
        );
    }

    #[test]
    fn join_side_cost_prefers_key_payload_group() {
        // A join side reading keys {0} + payload {1} behind a filter on {2}:
        // in either role, a tailored key+payload group beats
        // the wide row-major group — the gradient the adviser follows
        // toward join-shaped column groups.
        let m = CostModel;
        let pat = pattern(&[0, 1], &[2], 0.2);
        let (tailored, wide) = (aset(&[0, 1, 2]), span(150));
        for role in [JoinRole::Build, JoinRole::Probe] {
            let side = |g| m.join_side_cost(&pat, m.plan_cost(&pat, &[g], ROWS), ROWS, role);
            let (narrow_cost, wide_cost) = (side(&tailored), side(&wide));
            assert!(
                narrow_cost < wide_cost,
                "{role:?}: {narrow_cost} vs {wide_cost}"
            );
        }
    }

    #[test]
    fn best_plan_picks_the_cheaper_cover() {
        // A narrow-attribute query against a config holding both a wide
        // group and tailored narrow groups: the fewest-groups cover is the
        // wide group, the least-excess cover the tailored ones, and the
        // plan must not be forced onto the wide group.
        let m = CostModel;
        let config = [span(150), aset(&[0, 1, 2]), aset(&[3])];
        let pat = pattern(&[0, 1, 2], &[3], 0.3);
        let plan = best(&m, &pat, &config, ROWS);
        assert_eq!(plan.cover, vec![1, 2]);
        let wide_only = best(&m, &pat, &config[..1], ROWS);
        assert_eq!(wide_only.cover, vec![0]);
        assert!(plan.cost < wide_only.cost);
        // The cost is the chosen plan's, bit for bit.
        let refs = [&config[1], &config[2]];
        let again = m.plan_cost(&pat, &refs, ROWS);
        assert_eq!(plan.cost.to_bits(), again.to_bits());
        // Uncoverable pattern yields None.
        let refs: Vec<&AttrSet> = config.iter().collect();
        assert!(m
            .best_plan(&pattern(&[999], &[], 1.0), &refs, ROWS)
            .is_none());
    }

    #[test]
    fn best_plan_ignores_groups_outside_the_footprint() {
        // Groups that miss every attribute of the pattern cannot move the
        // plan: what the adviser's memo relies on.
        let m = CostModel;
        let pat = pattern(&[0, 1], &[2], 0.2);
        let config = [
            aset(&[0, 1]),
            aset(&[7, 8]),
            aset(&[2]),
            aset(&[0, 1, 2, 9]),
        ];
        let full = best(&m, &pat, &config, ROWS);
        let relevant = [config[0].clone(), config[2].clone(), config[3].clone()];
        let sub = best(&m, &pat, &relevant, ROWS);
        let back = [0, 2, 3];
        assert_eq!(
            full.cover,
            sub.cover.iter().map(|&i| back[i]).collect::<Vec<_>>()
        );
        assert_eq!(full.cost.to_bits(), sub.cost.to_bits());
        // A pattern touching no attribute is served by the empty cover.
        let count_star = pattern(&[], &[], 1.0);
        assert!(best(&m, &count_star, &config, ROWS).cover.is_empty());
    }
}
