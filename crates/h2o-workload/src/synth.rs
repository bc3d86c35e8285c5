//! Synthetic relation generation and selectivity-controlled predicates.
//!
//! # Float domains are dyadic grids
//!
//! Every generated `f64` value is an integer multiple of [`F64_GRID`]
//! (2⁻¹⁰). Values from such a grid with bounded magnitude sum **exactly**
//! in `f64` (no rounding at any intermediate, for any association order up
//! to ~2⁵³ total significand bits), so the engine's ordered-sum convention
//! yields bit-identical results no matter how a scan is split into
//! morsels — which is what the differential suites assert. Real
//! instrument data (SkyServer's positions and magnitudes) is
//! fixed-precision too, so the grid costs no realism.

use h2o_storage::{f64_lane, Dictionary, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Lower bound of generated values (inclusive) — the paper's data range.
pub const VALUE_MIN: Value = -1_000_000_000;
/// Upper bound of generated values (exclusive).
pub const VALUE_MAX: Value = 1_000_000_000;

/// Grid step of generated doubles: 2⁻¹⁰ (see module docs).
pub const F64_GRID: f64 = 1.0 / 1024.0;

/// Generates one `f64` column: `rows` lane-encoded doubles drawn uniformly
/// from the dyadic grid `{lo + k·2⁻¹⁰ | k ≥ 0} ∩ [lo, hi)`,
/// deterministically from `seed`. `lo` itself should sit on the grid
/// (whole numbers and multiples of small powers of two do).
pub fn gen_f64_column(rows: usize, lo: f64, hi: f64, seed: u64) -> Vec<Value> {
    let steps = (((hi - lo) / F64_GRID) as u64).max(1);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6636_3464); // "f64d"
    (0..rows)
        .map(|_| f64_lane(lo + rng.gen_range(0..steps) as f64 * F64_GRID))
        .collect()
}

/// Generates one dictionary-encoded column: `labels` are interned into
/// `dict` (first-appearance order) and `rows` codes are drawn uniformly,
/// deterministically from `seed`.
pub fn gen_dict_column(rows: usize, dict: &Dictionary, labels: &[&str], seed: u64) -> Vec<Value> {
    assert!(!labels.is_empty(), "dictionary column needs labels");
    let codes: Vec<Value> = labels.iter().map(|l| dict.intern(l)).collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6469_6374); // "dict"
    (0..rows)
        .map(|_| codes[rng.gen_range(0..codes.len())])
        .collect()
}

/// The grid-aligned threshold `v` such that `attr < v` has selectivity `s`
/// over data uniform on the dyadic grid of `[lo, hi)`.
pub fn f64_threshold_for_selectivity(s: f64, lo: f64, hi: f64) -> f64 {
    let s = s.clamp(0.0, 1.0);
    let steps = (((hi - lo) / F64_GRID) as u64).max(1);
    lo + (s * steps as f64).round() * F64_GRID
}

/// Generates `n_attrs` columns of `rows` values uniformly distributed in
/// `[VALUE_MIN, VALUE_MAX)`, deterministically from `seed`.
pub fn gen_columns(n_attrs: usize, rows: usize, seed: u64) -> Vec<Vec<Value>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n_attrs)
        .map(|_| {
            (0..rows)
                .map(|_| rng.gen_range(VALUE_MIN..VALUE_MAX))
                .collect()
        })
        .collect()
}

/// Generates one group-**key** column: `rows` values uniformly distributed
/// in `[0, cardinality)`, deterministically from `seed`. Uniform data in
/// the paper's `[−10⁹, 10⁹)` range is effectively all-distinct, so grouped
/// workloads draw their keys from dedicated low-cardinality columns.
pub fn gen_key_column(rows: usize, cardinality: u64, seed: u64) -> Vec<Value> {
    let card = cardinality.max(1) as Value;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6b65_7973); // "keys"
    (0..rows).map(|_| rng.gen_range(0..card)).collect()
}

/// Generates one foreign-**key** column referencing `parent` key values,
/// with controllable match rate and skew — the join-workload companion of
/// [`gen_key_column`].
///
/// Each of the `rows` values is, with probability `match_rate`, drawn from
/// `parent` (so it joins); otherwise it is a *miss* — a sentinel distinct
/// from every parent value (`2·10⁹ + i`, outside the generated
/// [`VALUE_MIN`]`..`[`VALUE_MAX`] domain), so the realized match rate of
/// an equi-join on this column is `match_rate` exactly in expectation.
/// Matching draws are skewed toward a *hot* prefix of `parent` (its first
/// ~10%): with probability `skew` the draw comes from the hot prefix,
/// otherwise uniformly from all of `parent`. `skew = 0.0` is uniform;
/// `skew = 1.0` hammers the hot keys only — the knob for testing
/// hash-join behaviour under heavy key repetition.
pub fn gen_fk_column(
    rows: usize,
    parent: &[Value],
    match_rate: f64,
    skew: f64,
    seed: u64,
) -> Vec<Value> {
    assert!(!parent.is_empty(), "foreign keys need parent keys");
    let match_rate = match_rate.clamp(0.0, 1.0);
    let skew = skew.clamp(0.0, 1.0);
    let hot = parent.len().div_ceil(10);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x666b_6579); // "fkey"
    (0..rows)
        .map(|i| {
            if rng.gen_bool(match_rate) {
                let idx = if rng.gen_bool(skew) {
                    rng.gen_range(0..hot)
                } else {
                    rng.gen_range(0..parent.len())
                };
                parent[idx]
            } else {
                2_000_000_000 + i as Value
            }
        })
        .collect()
}

/// [`gen_fk_column`] with **in-domain** misses: instead of out-of-range
/// sentinels, each miss is an *odd* value uniformly drawn from inside
/// `parent`'s `[min, max]` key span. Every value of `parent` must be
/// even (e.g. a doubled [`gen_key_column`]); the misses then provably never
/// join while remaining indistinguishable from matches to a range
/// check — the regime that exercises a bloom filter's hash bits rather
/// than its range guard. `match_rate` and `skew` behave exactly as in
/// [`gen_fk_column`].
pub fn gen_fk_column_in_domain(
    rows: usize,
    parent: &[Value],
    match_rate: f64,
    skew: f64,
    seed: u64,
) -> Vec<Value> {
    assert!(!parent.is_empty(), "foreign keys need parent keys");
    assert!(
        parent.iter().all(|v| v % 2 == 0),
        "in-domain misses require even (sparse) parent keys"
    );
    let match_rate = match_rate.clamp(0.0, 1.0);
    let skew = skew.clamp(0.0, 1.0);
    let hot = parent.len().div_ceil(10);
    let lo = *parent.iter().min().unwrap();
    let hi = *parent.iter().max().unwrap();
    let gaps = ((hi - lo) / 2).max(1);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x696e_646f); // "indo"
    (0..rows)
        .map(|_| {
            if rng.gen_bool(match_rate) {
                let idx = if rng.gen_bool(skew) {
                    rng.gen_range(0..hot)
                } else {
                    rng.gen_range(0..parent.len())
                };
                parent[idx]
            } else {
                lo + rng.gen_range(0..gaps) * 2 + 1
            }
        })
        .collect()
}

/// [`gen_columns`] with the first `key_attrs` columns replaced by
/// low-cardinality key columns (`[0, cardinality)`); the remaining columns
/// keep the paper's uniform `[−10⁹, 10⁹)` distribution.
pub fn gen_columns_with_keys(
    n_attrs: usize,
    rows: usize,
    seed: u64,
    key_attrs: usize,
    cardinality: u64,
) -> Vec<Vec<Value>> {
    let mut cols = gen_columns(n_attrs, rows, seed);
    for (k, col) in cols.iter_mut().take(key_attrs).enumerate() {
        *col = gen_key_column(rows, cardinality, seed.wrapping_add(k as u64));
    }
    cols
}

/// The threshold `v` such that `attr < v` has selectivity `s` over data
/// uniform in `[VALUE_MIN, VALUE_MAX)`.
pub fn threshold_for_selectivity(s: f64) -> Value {
    let s = s.clamp(0.0, 1.0);
    let span = (VALUE_MAX - VALUE_MIN) as f64;
    VALUE_MIN + (span * s) as Value
}

/// Per-predicate selectivity so that a conjunction of `k` independent
/// predicates has overall selectivity `s` ("we generate the filter
/// conditions so as the selectivity remains the same for all queries",
/// §2.2).
pub fn per_predicate_selectivity(s: f64, k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    s.clamp(0.0, 1.0).powf(1.0 / k as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_in_range() {
        let a = gen_columns(3, 100, 42);
        let b = gen_columns(3, 100, 42);
        assert_eq!(a, b);
        let c = gen_columns(3, 100, 43);
        assert_ne!(a, c);
        for col in &a {
            assert_eq!(col.len(), 100);
            assert!(col.iter().all(|&v| (VALUE_MIN..VALUE_MAX).contains(&v)));
        }
    }

    #[test]
    fn key_columns_have_requested_cardinality() {
        let col = gen_key_column(10_000, 16, 3);
        assert!(col.iter().all(|&v| (0..16).contains(&v)));
        let distinct: std::collections::HashSet<Value> = col.iter().copied().collect();
        assert_eq!(distinct.len(), 16, "all 16 buckets hit at 10K rows");
        assert_eq!(col, gen_key_column(10_000, 16, 3), "deterministic");
        // Degenerate cardinalities clamp to one bucket.
        assert!(gen_key_column(100, 0, 1).iter().all(|&v| v == 0));

        let cols = gen_columns_with_keys(4, 500, 9, 2, 8);
        assert!(cols[0].iter().all(|&v| (0..8).contains(&v)));
        assert!(cols[1].iter().all(|&v| (0..8).contains(&v)));
        assert!(cols[2].iter().any(|&v| v.abs() > 1_000_000));
        assert_ne!(cols[0], cols[1], "key columns use distinct seeds");
    }

    #[test]
    fn fk_columns_respect_match_rate_and_skew() {
        let parent: Vec<Value> = (0..1000).map(|i| i * 7 - 3500).collect();
        let parents: std::collections::HashSet<Value> = parent.iter().copied().collect();
        let fk = gen_fk_column(20_000, &parent, 0.8, 0.0, 11);
        assert_eq!(
            fk,
            gen_fk_column(20_000, &parent, 0.8, 0.0, 11),
            "deterministic"
        );
        let matched = fk.iter().filter(|v| parents.contains(v)).count() as f64 / fk.len() as f64;
        assert!((matched - 0.8).abs() < 0.02, "match rate: {matched}");
        // Misses are sentinels no parent can collide with.
        assert!(fk
            .iter()
            .filter(|v| !parents.contains(v))
            .all(|&v| v >= 2_000_000_000));

        // Skew concentrates the matches on the hot 10% prefix of the
        // parent keys.
        let hot: std::collections::HashSet<Value> = parent[..100].iter().copied().collect();
        let hot_share = |skew: f64| {
            let fk = gen_fk_column(20_000, &parent, 1.0, skew, 5);
            fk.iter().filter(|v| hot.contains(v)).count() as f64 / fk.len() as f64
        };
        assert!((hot_share(0.0) - 0.1).abs() < 0.02, "uniform baseline");
        assert!(hot_share(0.9) > 0.85, "skewed draws hit the hot prefix");
        // Edge cases: no matches, and everything matches one parent.
        assert!(gen_fk_column(100, &parent, 0.0, 0.5, 1)
            .iter()
            .all(|&v| v >= 2_000_000_000));
        assert!(gen_fk_column(100, &[42], 1.0, 1.0, 1)
            .iter()
            .all(|&v| v == 42));
    }

    #[test]
    fn in_domain_misses_stay_inside_the_parent_key_range() {
        let parent: Vec<Value> = gen_key_column(1_000, 4_096, 3)
            .into_iter()
            .map(|v| v * 2)
            .collect();
        assert!(parent.iter().all(|&v| v % 2 == 0), "sparse keys are even");
        let parents: std::collections::HashSet<Value> = parent.iter().copied().collect();
        let lo = *parent.iter().min().unwrap();
        let hi = *parent.iter().max().unwrap();

        let fk = gen_fk_column_in_domain(20_000, &parent, 0.2, 0.0, 7);
        assert_eq!(
            fk,
            gen_fk_column_in_domain(20_000, &parent, 0.2, 0.0, 7),
            "deterministic"
        );
        let matched = fk.iter().filter(|v| parents.contains(v)).count() as f64 / fk.len() as f64;
        assert!((matched - 0.2).abs() < 0.02, "match rate: {matched}");
        // The whole point: misses are odd values *between* real parent
        // keys, so a `[min,max]` range check alone cannot reject them —
        // only the bloom bits can.
        for &v in fk.iter().filter(|v| !parents.contains(v)) {
            assert!(v % 2 != 0, "miss {v} collides with the even key domain");
            assert!((lo..=hi).contains(&v), "miss {v} escaped [{lo},{hi}]");
        }
    }

    #[test]
    fn threshold_hits_requested_selectivity() {
        let cols = gen_columns(1, 200_000, 7);
        for s in [0.01, 0.1, 0.4, 0.9] {
            let t = threshold_for_selectivity(s);
            let observed = cols[0].iter().filter(|&&v| v < t).count() as f64 / cols[0].len() as f64;
            assert!(
                (observed - s).abs() < 0.01,
                "requested {s}, observed {observed}"
            );
        }
        assert_eq!(threshold_for_selectivity(0.0), VALUE_MIN);
        assert_eq!(threshold_for_selectivity(1.0), VALUE_MAX);
    }

    #[test]
    fn conjunction_selectivity_composes() {
        let s = per_predicate_selectivity(0.25, 2);
        assert!((s * s - 0.25).abs() < 1e-12);
        assert_eq!(per_predicate_selectivity(0.5, 0), 1.0);
    }

    #[test]
    fn f64_columns_sit_on_the_dyadic_grid() {
        use h2o_storage::lane_f64;
        let col = gen_f64_column(5000, 10.0, 30.0, 3);
        assert_eq!(col, gen_f64_column(5000, 10.0, 30.0, 3), "deterministic");
        for &lane in &col {
            let x = lane_f64(lane);
            assert!((10.0..30.0).contains(&x));
            let k = (x - 10.0) / F64_GRID;
            assert_eq!(k, k.round(), "grid-aligned: {x}");
        }
        // Exactness: summing in any chunking is bit-identical.
        let serial: f64 = col.iter().map(|&l| lane_f64(l)).sum();
        for chunk in [7usize, 64, 1024] {
            let chunked: f64 = col
                .chunks(chunk)
                .map(|c| c.iter().map(|&l| lane_f64(l)).sum::<f64>())
                .sum();
            assert_eq!(serial.to_bits(), chunked.to_bits(), "chunk={chunk}");
        }
    }

    #[test]
    fn f64_threshold_hits_requested_selectivity() {
        use h2o_storage::lane_f64;
        let col = gen_f64_column(100_000, 0.0, 360.0, 11);
        for s in [0.05, 0.3, 0.8] {
            let t = f64_threshold_for_selectivity(s, 0.0, 360.0);
            let observed =
                col.iter().filter(|&&l| lane_f64(l) < t).count() as f64 / col.len() as f64;
            assert!((observed - s).abs() < 0.01, "requested {s}, got {observed}");
        }
        assert_eq!(f64_threshold_for_selectivity(0.0, -90.0, 90.0), -90.0);
        assert_eq!(f64_threshold_for_selectivity(1.0, -90.0, 90.0), 90.0);
    }

    #[test]
    fn dict_columns_intern_and_draw_uniformly() {
        let d = Dictionary::new();
        let labels = ["STAR", "GALAXY", "QSO"];
        let col = gen_dict_column(3000, &d, &labels, 5);
        assert_eq!(d.len(), 3);
        assert!(col.iter().all(|&c| (0..3).contains(&c)));
        for code in 0..3 {
            let n = col.iter().filter(|&&c| c == code).count();
            assert!(n > 700, "label {code} drawn {n} times");
        }
        assert_eq!(col, gen_dict_column(3000, &Dictionary::new(), &labels, 5));
    }
}
