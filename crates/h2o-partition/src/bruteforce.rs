//! Exact optimal vertical partitioning by exhaustive enumeration.
//!
//! Enumerates every set partition of the attributes (restricted-growth
//! strings, Bell-number many — the paper's "a table with 10 attributes can
//! be vertically partitioned into 115975 different partitions" is exactly
//! B(10)) and returns the cheapest under the cost model. Feasible to about
//! 10–12 attributes; used as the oracle that validates the heuristics.

use crate::partition_cost;
use h2o_cost::{AccessPattern, CostModel};
use h2o_storage::AttrSet;

/// Hard cap: B(12) ≈ 4.2M partitions is the most we are willing to walk.
const MAX_ATTRS: usize = 12;

/// Finds the exact optimal fragmentation of `0..n_attrs` for `workload`.
/// Returns `(partition, cost)`.
///
/// # Panics
///
/// Panics if `n_attrs > 12` — use [`AutoPart`](crate::AutoPart) beyond
/// oracle scale.
pub fn brute_force(
    model: &CostModel,
    workload: &[AccessPattern],
    n_attrs: usize,
    rows: usize,
) -> (Vec<AttrSet>, f64) {
    assert!(
        n_attrs <= MAX_ATTRS,
        "brute force is an oracle for <= {MAX_ATTRS} attributes"
    );
    if n_attrs == 0 {
        return (Vec::new(), 0.0);
    }

    // Restricted-growth-string enumeration: rgs[i] = block of attribute i,
    // with rgs[i] <= 1 + max(rgs[..i]).
    let mut rgs = vec![0usize; n_attrs];
    let mut best: Option<(Vec<AttrSet>, f64)> = None;

    loop {
        // Materialize this partition.
        let blocks = rgs.iter().copied().max().unwrap_or(0) + 1;
        let mut parts: Vec<AttrSet> = vec![AttrSet::new(); blocks];
        for (attr, &b) in rgs.iter().enumerate() {
            parts[b].insert(attr.into());
        }
        let cost = partition_cost(model, workload, &parts, rows);
        if best.as_ref().is_none_or(|(_, c)| cost < *c) {
            best = Some((parts, cost));
        }

        // Advance the restricted growth string.
        let mut i = n_attrs - 1;
        loop {
            let max_prefix = rgs[..i].iter().copied().max().map_or(0, |m| m + 1);
            if i == 0 {
                // rgs[0] is always 0; enumeration complete.
                return best.expect("at least one partition");
            }
            if rgs[i] < max_prefix {
                rgs[i] += 1;
                for slot in rgs.iter_mut().skip(i + 1) {
                    *slot = 0;
                }
                break;
            }
            i -= 1;
        }
    }
}

/// The number of set partitions of `n` elements (Bell number), computed
/// with the Bell triangle. Used in tests to confirm full enumeration.
pub fn bell_number(n: usize) -> u64 {
    if n == 0 {
        return 1;
    }
    let mut row = vec![1u64];
    for _ in 1..n {
        let mut next = Vec::with_capacity(row.len() + 1);
        next.push(*row.last().unwrap());
        for &x in &row {
            next.push(next.last().unwrap() + x);
        }
        row = next;
    }
    *row.last().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{is_valid_partition, AutoPart};

    fn aset(ids: &[usize]) -> AttrSet {
        ids.iter().copied().collect()
    }

    fn pattern(select: &[usize], where_: &[usize], sel: f64) -> AccessPattern {
        AccessPattern {
            select: aset(select),
            where_: aset(where_),
            selectivity: sel,
            output_width: 1,
            select_ops: (2 * select.len()).saturating_sub(1).max(1),
            is_aggregate: false,
            is_grouped: false,
        }
    }

    #[test]
    fn bell_numbers_match_oeis() {
        // OEIS A000110 — includes the paper's 115975 for n = 10.
        let expect = [1u64, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975];
        for (n, &want) in expect.iter().enumerate() {
            assert_eq!(bell_number(n), want, "B({n})");
        }
    }

    #[test]
    fn enumeration_visits_every_partition() {
        // Count partitions by running brute force with a cost function that
        // can't distinguish them... instead, instrument indirectly: verify
        // optimal over 4 attrs beats AutoPart never (i.e., is <=) and is
        // valid; the count check uses a custom walk below.
        let mut count = 0u64;
        // Re-run the same RGS walk to count.
        let n = 5;
        let mut rgs = vec![0usize; n];
        'outer: loop {
            count += 1;
            let mut i = n - 1;
            loop {
                let max_prefix = rgs[..i].iter().copied().max().map_or(0, |m| m + 1);
                if i == 0 {
                    break 'outer;
                }
                if rgs[i] < max_prefix {
                    rgs[i] += 1;
                    for slot in rgs.iter_mut().skip(i + 1) {
                        *slot = 0;
                    }
                    break;
                }
                i -= 1;
            }
        }
        assert_eq!(count, bell_number(5));
    }

    #[test]
    fn oracle_result_is_valid_and_not_worse_than_autopart() {
        let model = CostModel;
        let w = vec![
            pattern(&[0, 1], &[2], 0.3),
            pattern(&[0, 1], &[2], 0.3),
            pattern(&[3], &[4], 0.01),
            pattern(&[0, 1, 3], &[2], 0.5),
        ];
        let rows = 200_000;
        let (opt, opt_cost) = brute_force(&model, &w, 6, rows);
        assert!(is_valid_partition(&opt, 6));
        let ap = AutoPart;
        let heuristic = ap.partition(&w, 6, rows);
        let h_cost = ap.cost(&w, &heuristic, rows);
        assert!(
            opt_cost <= h_cost + 1e-12,
            "oracle {opt_cost} must not exceed heuristic {h_cost}"
        );
    }

    #[test]
    fn oracle_groups_coaccessed_attrs() {
        let model = CostModel;
        // Strong signal: {0,1,2} always together with a filter on 3.
        let w: Vec<AccessPattern> = (0..8).map(|_| pattern(&[0, 1, 2], &[3], 0.2)).collect();
        let (opt, _) = brute_force(&model, &w, 5, 500_000);
        let f0 = opt.iter().find(|p| p.contains(0usize.into())).unwrap();
        assert!(
            aset(&[0, 1, 2]).is_subset(f0),
            "optimal must co-locate the hot cluster: {opt:?}"
        );
    }

    #[test]
    fn zero_and_one_attrs() {
        let model = CostModel;
        let (p0, c0) = brute_force(&model, &[], 0, 100);
        assert!(p0.is_empty());
        assert_eq!(c0, 0.0);
        let (p1, _) = brute_force(&model, &[], 1, 100);
        assert_eq!(p1, vec![aset(&[0])]);
    }

    #[test]
    #[should_panic(expected = "oracle")]
    fn too_many_attrs_panics() {
        brute_force(&CostModel, &[], 13, 100);
    }
}
