//! Key-tier differential suite for the join's specialized paths: **the
//! key tiers, the column-at-a-time folds and a reused build never change
//! an answer.**
//!
//! A one-lane key hashes, range-tests and looks up through loops compiled
//! per key type — or, when it is an integer whose build values are dense,
//! resolves through the rank index with no hash at all; the probe folds
//! its hits column by column; the build-aggregate plan merges once per
//! join over the hit counts of every probe range. This suite holds each
//! of them to [`interpret_join`] for every key family the tiers tell apart
//! — `F64` keys (negatives, both zeros, two NaN payloads; the filter's
//! range is kept in comparator-key space), `I64` keys at `i64::MIN` /
//! `i64::MAX`, dense `I64` keys next to either end (where `key − min`
//! wraps), negative keys, a single key, dictionary codes, two domains at
//! and just past the rank index's size limit, and a two-lane key —
//! across every fold plan × build side × policy (segmented
//! and monolithic, for the families that differ in key type or width),
//! each policy on a cold build and the last run on a reused one. Whichever side probes, one policy cuts it into at least 5 ranges
//! (up to 38), so the build-aggregate merge sums several ranges' hit
//! counts. Every family reaches all four fold plans (asserted), one group
//! per build key and several, and a build whose keys are all distinct.

use h2o::exec::{compile_join, run_join, AccessPlan, ExecCtx, ExecPolicy, FoldPlan, Strategy};
use h2o::expr::LaneMap;
use h2o::expr::{check_join, interpret_join, JoinBuilder, JoinQuery};
use h2o::prelude::*;
use h2o::storage::{f64_lane, Dictionary, LogicalType};
use std::collections::BTreeSet;
use std::sync::Arc;

const LEFT_ROWS: usize = 160;
const RIGHT_ROWS: usize = 1_200;

/// One key family: the lane type of each key column, the keys both sides
/// draw from, keys only the probe side holds (inside the build's key
/// range, so only the bloom bits, the table or the rank bitmap can reject
/// them, or just outside it), whether a build of every left row takes the
/// rank index, and whether the family runs on both layouts. Segments only
/// change which rows qualify, so the families that differ from another
/// only in their key values run on the monolithic layout.
struct Family {
    name: &'static str,
    types: Vec<LogicalType>,
    keys: Vec<Vec<Value>>,
    misses: Vec<Vec<Value>>,
    dict: Option<Arc<Dictionary>>,
    ranked: bool,
    both_layouts: bool,
}

/// The widest span of one-lane keys a build of all [`LEFT_ROWS`] rows
/// indexes by rank: 12 index bytes per 64 key slots, no more bytes than
/// the hashed tier's slot array for that many rows.
fn rank_limit() -> Value {
    (LaneMap::slot_bytes(1, LEFT_ROWS) / 12 * 64) as Value
}

/// A one-lane `I64` family of key values, on the monolithic layout.
fn int_family(name: &'static str, keys: &[Value], misses: &[Value], ranked: bool) -> Family {
    let one = |ks: &[Value]| ks.iter().map(|&k| vec![k]).collect();
    Family {
        name,
        types: vec![LogicalType::I64],
        keys: one(keys),
        misses: one(misses),
        dict: None,
        ranked,
        both_layouts: false,
    }
}

fn f64_keys(bits: &[u64]) -> Vec<Value> {
    bits.iter().map(|&b| f64_lane(f64::from_bits(b))).collect()
}

fn families() -> Vec<Family> {
    let floats = f64_keys(&[
        (-2.5e10f64).to_bits(),
        (-1.5f64).to_bits(),
        (-0.0f64).to_bits(),
        0.0f64.to_bits(),
        1.5f64.to_bits(),
        3.25f64.to_bits(),
        0x7FF8_0000_0000_0001, // NaN with a payload
        0x7FF8_DEAD_0000_0000, // another NaN payload
        f64::INFINITY.to_bits(),
    ]);
    let float_misses = f64_keys(&[
        (-1.25f64).to_bits(),
        0.5f64.to_bits(),
        0x7FF8_0000_0000_0003,
    ]);
    let ints = vec![i64::MIN, i64::MIN + 1, -7, 0, 5, i64::MAX - 1, i64::MAX];
    let dict = Dictionary::new().into_shared();
    let labels = ["ash", "birch", "cedar", "elm", "fir", "oak", "pine"];
    let codes: Vec<Value> = labels.iter().map(|l| dict.intern(l)).collect();
    let dict_miss = dict.intern("maple");
    let one = |ks: &[Value]| ks.iter().map(|&k| vec![k]).collect::<Vec<_>>();
    let (min, max) = (i64::MIN, i64::MAX);
    let limit = rank_limit();
    vec![
        Family {
            name: "f64",
            types: vec![LogicalType::F64],
            keys: one(&floats),
            misses: one(&float_misses),
            dict: None,
            ranked: false,
            both_layouts: true,
        },
        Family {
            both_layouts: true,
            ..int_family("i64-edges", &ints, &[1, -6, i64::MAX - 2], false)
        },
        // Dense keys at either end of the domain: `min − 1` and `max + 1`
        // wrap to the other end.
        int_family(
            "i64-near-min",
            &[min, min + 1, min + 3, min + 64, min + 100],
            &[min + 2, min + 65, max, min + 101],
            true,
        ),
        int_family(
            "i64-near-max",
            &[max - 100, max - 64, max - 3, max - 1, max],
            &[max - 2, max - 63, max - 101, min],
            true,
        ),
        int_family(
            "negative",
            &[-50, -49, -30, -7, -1],
            &[-48, -8, -51, 0],
            true,
        ),
        int_family("single-key", &[42], &[41, 43], true),
        // Spans of exactly the size limit and one key past it.
        int_family(
            "at-rank-limit",
            &[0, 1, 64, 1_000, limit / 2, limit - 2, limit - 1],
            &[2, limit - 3, -1, limit],
            true,
        ),
        int_family(
            "past-rank-limit",
            &[0, 1, 64, 1_000, limit / 2, limit - 1, limit],
            &[2, limit - 2, -1, limit + 1],
            false,
        ),
        Family {
            name: "dict",
            types: vec![LogicalType::Dict],
            keys: one(&codes[..6]),
            misses: one(&[codes[6], dict_miss]),
            dict: Some(dict),
            ranked: true,
            both_layouts: true,
        },
        Family {
            name: "two-lane",
            types: vec![LogicalType::F64, LogicalType::I64],
            keys: floats
                .iter()
                .enumerate()
                .map(|(i, &f)| vec![f, (i % 3) as Value - 1])
                .collect(),
            misses: vec![vec![floats[0], 7], vec![float_misses[1], 0]],
            dict: None,
            ranked: false,
            both_layouts: true,
        },
    ]
}

/// Key column names, then `g1` (a function of the key: one group per
/// key), `g2` (the row index mod 3: several groups per key), `v` (integers
/// whose sums wrap), `f` (dyadic doubles, exact in any fold order) and
/// `id` (the row index).
fn schema(fam: &Family, prefix: &str) -> Arc<Schema> {
    let mut cols: Vec<(String, LogicalType)> = fam
        .types
        .iter()
        .enumerate()
        .map(|(i, &t)| (format!("{prefix}k{i}"), t))
        .collect();
    for (c, t) in [
        ("g1", LogicalType::I64),
        ("g2", LogicalType::I64),
        ("v", LogicalType::I64),
        ("f", LogicalType::F64),
        ("id", LogicalType::I64),
    ] {
        cols.push((format!("{prefix}{c}"), t));
    }
    let mut schema = Schema::typed(cols);
    if let Some(dict) = &fam.dict {
        schema = schema.with_shared_dictionary(&format!("{prefix}k0"), dict.clone());
    }
    schema.into_shared()
}

/// `rows` rows whose key is `key(i)`: a key index into `fam.keys`, or a
/// probe-only miss.
fn columns(fam: &Family, rows: usize, key: impl Fn(usize) -> Option<usize>) -> Vec<Vec<Value>> {
    let width = fam.types.len();
    let keys: Vec<(Option<usize>, &Vec<Value>)> = (0..rows)
        .map(|i| match key(i) {
            Some(k) => (Some(k), &fam.keys[k]),
            None => (None, &fam.misses[i % fam.misses.len()]),
        })
        .collect();
    let mut cols: Vec<Vec<Value>> = (0..width)
        .map(|c| keys.iter().map(|(_, k)| k[c]).collect())
        .collect();
    cols.push(
        keys.iter()
            .map(|(k, _)| k.map_or(9, |k| (k % 4) as Value))
            .collect(),
    );
    cols.push((0..rows).map(|i| (i % 3) as Value).collect());
    cols.push(
        (0..rows)
            .map(|i| [i64::MAX, 3, i64::MIN + 5, -11, i64::MAX / 3][i % 5])
            .collect(),
    );
    cols.push(
        (0..rows)
            .map(|i| f64_lane((i % 16) as f64 * 0.25 - 2.0))
            .collect(),
    );
    cols.push((0..rows as Value).collect());
    cols
}

/// Left row `i`'s key index: the first `n` rows hold every key once, in
/// order; later rows repeat keys in runs.
fn left_key(n: usize, i: usize) -> usize {
    if i < n {
        i
    } else {
        (i / 3 + i % 5) % n
    }
}

/// Right row `i`'s key index, or `None` for a probe-only miss.
fn right_key(n: usize, i: usize) -> Option<usize> {
    (i % 7 != 3).then_some((i * 5 + i / 11) % n)
}

/// Both relations of a family, monolithic or in 64-row segments split
/// over two column groups per side.
fn relations(fam: &Family, segmented: bool) -> (Relation, Relation) {
    let n = fam.keys.len();
    let left = columns(fam, LEFT_ROWS, |i| Some(left_key(n, i)));
    let right = columns(fam, RIGHT_ROWS, |i| right_key(n, i));
    let make = |schema: Arc<Schema>, cols: Vec<Vec<Value>>| {
        let width = cols.len() as u32;
        let (shift, groups) = if segmented {
            let split = fam.types.len() as u32 + 1;
            let groups = vec![
                (0..split).map(AttrId::from).collect(),
                (split..width).map(AttrId::from).collect(),
            ];
            (6, groups)
        } else {
            (20, (0..width).map(|a| vec![AttrId(a)]).collect())
        };
        Relation::partitioned_with_shift(schema, cols, groups, shift).unwrap()
    };
    (make(schema(fam, "l"), left), make(schema(fam, "r"), right))
}

/// The suite's select clauses over one family: together, for the two
/// build sides, they take every fold plan.
fn queries(fam: &Family) -> Vec<(&'static str, JoinQuery)> {
    let on = || {
        let mut b: JoinBuilder =
            JoinQuery::builder(("l", schema(fam, "l")), ("r", schema(fam, "r")));
        for i in 0..fam.types.len() {
            b = b.on(&format!("lk{i}"), &format!("rk{i}")).unwrap();
        }
        b
    };
    let col = |b: &JoinBuilder, c: &str| b.col(c).unwrap();
    let mut out = Vec::new();
    let b = on();
    let cols = ["lv", "rf", "lk0", "rid"].map(|c| col(&b, c));
    let q = b.project(cols);
    out.push(("project", q.unwrap()));
    let b = on();
    let (rv, rf) = (col(&b, "rv"), col(&b, "rf"));
    let q = b.aggregate([
        Aggregate::sum(rv.clone()),
        Aggregate::min(rv.clone()),
        Aggregate::max(rf.clone()),
        Aggregate::avg(rv),
        Aggregate::count(),
    ]);
    out.push(("right-ints", q.unwrap()));
    let b = on();
    let rf = col(&b, "rf");
    let q = b.aggregate([
        Aggregate::sum(rf.clone()),
        Aggregate::avg(rf),
        Aggregate::count(),
    ]);
    out.push(("right-f64-sums", q.unwrap()));
    let b = on();
    let (lg1, rv, rf) = (col(&b, "lg1"), col(&b, "rv"), col(&b, "rf"));
    let q = b.grouped(
        [lg1],
        [Aggregate::sum(rv), Aggregate::max(rf), Aggregate::count()],
    );
    out.push(("group-by-left-key-group", q.unwrap()));
    let b = on();
    let (lg2, lk0, rf, rv) = (col(&b, "lg2"), col(&b, "lk0"), col(&b, "rf"), col(&b, "rv"));
    let q = b.grouped([lg2, lk0], [Aggregate::sum(rf), Aggregate::min(rv)]);
    out.push(("group-by-left-row-group", q.unwrap()));
    let b = on();
    let (rg2, rv) = (col(&b, "rg2"), col(&b, "rv"));
    let q = b.grouped([rg2], [Aggregate::sum(rv), Aggregate::count()]);
    out.push(("group-by-right", q.unwrap()));
    let b = on();
    let (lv, rv) = (col(&b, "lv"), col(&b, "rv"));
    let q = b.aggregate([Aggregate::sum(lv.add(rv)), Aggregate::count()]);
    out.push(("both-sides", q.unwrap()));
    // Only the first rows of the left side: each key once.
    let b = on().filter_left(Conjunction::of([Predicate::lt(
        (fam.types.len() + 4) as u32,
        fam.keys.len() as Value,
    )]));
    let lv = col(&b, "lv");
    let q = b.aggregate([
        Aggregate::sum(lv.clone()),
        Aggregate::max(lv),
        Aggregate::count(),
    ]);
    out.push(("left-distinct-keys", q.unwrap()));
    out
}

fn policies() -> Vec<(&'static str, ExecPolicy)> {
    let p = |threads: usize, morsel: usize| ExecPolicy {
        parallelism: Some(threads),
        morsel_rows: morsel,
        serial_threshold: 0,
    };
    vec![
        ("serial", ExecPolicy::serial()),
        ("four-workers", p(4, 256)),
        ("tiny-morsels", p(4, 32)),
        ("odd-morsels", p(3, 199)),
    ]
}

#[test]
fn key_tiers_and_column_folds_match_the_interpreter() {
    for fam in families() {
        let mut plans = BTreeSet::new();
        let layouts: &[bool] = if fam.both_layouts {
            &[false, true]
        } else {
            &[false]
        };
        for &segmented in layouts {
            let (left, right) = relations(&fam, segmented);
            let (lc, rc) = (left.catalog(), right.catalog());
            for (shape, q) in queries(&fam) {
                let checked = check_join(&q).unwrap();
                let want = interpret_join(lc, rc, &q).unwrap();
                assert!(want.rows() > 0, "{} {shape} must match something", fam.name);
                let lplan = AccessPlan::new(lc.layout_ids(), Strategy::FusedVolcano);
                let rplan = AccessPlan::new(rc.layout_ids(), Strategy::FusedVolcano);
                for build_is_left in [true, false] {
                    let op =
                        compile_join(lc, rc, &lplan, &rplan, &q, &checked, build_is_left).unwrap();
                    plans.insert(format!("{:?}", op.fold_plan()));
                    let label = format!(
                        "{} {shape} segmented={segmented} build_is_left={build_is_left} \
                         plan={:?}",
                        fam.name,
                        op.fold_plan()
                    );
                    let mut serial = None;
                    // Each policy on a cold build — the serial one on
                    // the operator itself, which then holds it — and
                    // the last policy again on the held build.
                    let (_, last) = policies().pop().unwrap();
                    let runs = policies()
                        .into_iter()
                        .enumerate()
                        .map(|(i, (pname, policy))| {
                            let op = if i == 0 { op.clone() } else { op.cold_copy() };
                            (pname, policy, op)
                        })
                        .chain([("reused", last, op.clone())]);
                    for (pname, policy, op) in runs {
                        let (got, stats) = run_join(lc, rc, &op, &ExecCtx::new(policy)).unwrap();
                        assert_eq!(stats.build_reused, pname == "reused", "{label} {pname}");
                        // Building the left side, pairs stream in the
                        // interpreter's order: the bytes match.
                        if build_is_left {
                            assert_eq!(got.data(), want.data(), "{label} {pname}");
                        } else {
                            assert_eq!(got.fingerprint(), want.fingerprint(), "{label} {pname}");
                        }
                        match &serial {
                            None => serial = Some((got, stats)),
                            Some((s, st)) => {
                                assert_eq!(got.data(), s.data(), "{label} {pname}");
                                assert_eq!(stats.output_pairs, st.output_pairs, "{label} {pname}");
                                assert_eq!(
                                    stats.probe_bloom_rejects, st.probe_bloom_rejects,
                                    "{label} {pname}"
                                );
                                assert_eq!(stats.rank_index, st.rank_index, "{label} {pname}");
                            }
                        }
                    }
                }
            }
        }
        let all: BTreeSet<String> = ["BuildAggs", "BuildGroups", "PerPair", "ProbeOnly"]
            .map(String::from)
            .into();
        assert_eq!(plans, all, "{} reaches every fold plan", fam.name);
    }
}

/// With the left side building all its rows, each family takes its
/// expected key tier. Most probe-only misses lie inside the build's key
/// range, so a hashed build rejects them by their bloom bits or the table
/// misses them, and the rank index rejects every one; either way every
/// miss is a row no pair counts. A negative `F64` key tested against its
/// raw lane bits instead of its comparator key would fall outside the
/// range and lose its pairs.
#[test]
fn every_probe_row_with_a_build_key_is_counted() {
    for fam in families() {
        let (left, right) = relations(&fam, true);
        let (lc, rc) = (left.catalog(), right.catalog());
        let (_, q) = queries(&fam).swap_remove(1);
        let checked = check_join(&q).unwrap();
        let lplan = AccessPlan::new(lc.layout_ids(), Strategy::FusedVolcano);
        let rplan = AccessPlan::new(rc.layout_ids(), Strategy::FusedVolcano);
        let op = compile_join(lc, rc, &lplan, &rplan, &q, &checked, true).unwrap();
        assert_eq!(op.fold_plan(), FoldPlan::ProbeOnly);
        let (_, stats) = run_join(lc, rc, &op, &ExecCtx::new(ExecPolicy::serial())).unwrap();
        // Naive pair count: left rows per key times right rows per key.
        let n = fam.keys.len();
        let mut per_key = vec![0; n];
        for row in 0..LEFT_ROWS {
            per_key[left_key(n, row)] += 1;
        }
        let hits: Vec<usize> = (0..RIGHT_ROWS)
            .filter_map(|row| right_key(n, row))
            .collect();
        let pairs: usize = hits.iter().map(|&k| per_key[k]).sum();
        let hit_rows = hits.len();
        assert_eq!(stats.output_pairs, pairs, "{}", fam.name);
        assert_eq!(stats.probe_rows, RIGHT_ROWS, "{}", fam.name);
        assert_eq!(stats.rank_index, fam.ranked, "{}: key tier", fam.name);
        assert!(
            stats.probe_bloom_rejects as usize <= RIGHT_ROWS - hit_rows,
            "{}: the filter rejected a row with a build key",
            fam.name
        );
        if fam.ranked {
            // The rank index rejects every row without a build key.
            assert_eq!(
                stats.probe_bloom_rejects as usize,
                RIGHT_ROWS - hit_rows,
                "{}",
                fam.name
            );
        }
    }
}
