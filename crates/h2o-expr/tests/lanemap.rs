//! `LaneMap` and `GroupedAggs` against reference structures.
//!
//! The engine ≡ interpreter differentials cannot catch a bug in the flat
//! raw-lane table on their own: the interpreter folds grouped queries
//! through the same `GroupedAggs`. So this suite holds `LaneMap` to a std
//! `HashMap` and `GroupedAggs` to a naive `BTreeMap` fold, over key sets
//! chosen to hurt a hash table: strides of `2^32` and `2^k`, signed zeros,
//! NaN payloads and infinities, two-lane keys with swapped lanes, growth
//! across many resize boundaries, and a merge whose partial forces a
//! resize partway through.
//!
//! Every case is a pure function of `H2O_STRESS_SEED` (fixed default), so
//! a failure replays with the same value. Release builds run ten times
//! the cases of debug builds, on tables up to 64K keys.

use h2o_expr::agg::{AggFunc, AggOp, AggState};
use h2o_expr::lanemap::hash_key;
use h2o_expr::{GroupedAggs, LaneMap, QueryResult};
use h2o_storage::{f64_lane, LogicalType, Value};
use std::collections::{BTreeMap, HashMap};

/// Fixed default; `H2O_STRESS_SEED` overrides so CI failures replay.
fn stress_seed() -> u64 {
    std::env::var("H2O_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xBEEF_CAFE)
}

/// Cases per property, and the largest key count a growth case reaches.
fn scale() -> (u64, usize) {
    if cfg!(debug_assertions) {
        (40, 4_096)
    } else {
        (400, 65_536)
    }
}

/// splitmix64: the cases must not depend on any crate's generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `F64` lanes of signed zeros, several NaN payloads and the infinities.
fn f64_specials() -> Vec<Value> {
    [
        0.0f64.to_bits(),
        (-0.0f64).to_bits(),
        f64::NAN.to_bits(),
        0x7FF0_0000_0000_0001,
        0x7FF8_0000_0000_0001,
        0xFFF8_0000_0000_0000,
        0xFFFF_FFFF_FFFF_FFFF,
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
    ]
    .into_iter()
    .map(|b| f64_lane(f64::from_bits(b)))
    .collect()
}

/// The key families, as a pool of `width`-lane keys for family `family`.
/// Family 4 (two lanes only) holds each pair in both lane orders.
fn key_pool(rng: &mut Rng, family: usize, width: usize, n: usize) -> Vec<Vec<Value>> {
    let shift = rng.below(64) as u32;
    let lane = |rng: &mut Rng, i: usize| -> Value {
        match family {
            // Strides of 2^32: the low half of every lane is zero.
            0 => (i as Value).wrapping_shl(32),
            // Strides of 2^k for a random k.
            1 => (i as Value).wrapping_shl(shift),
            // Specials, with 0 and the integer extremes.
            2 => {
                let sp = f64_specials();
                let ints = [0, -1, 1, Value::MIN, Value::MAX];
                let j = rng.below(sp.len() + ints.len());
                if j < sp.len() {
                    sp[j]
                } else {
                    ints[j - sp.len()]
                }
            }
            // Small dense integers: many duplicates.
            3 => rng.below(n.max(2) / 2 + 1) as Value - 3,
            _ => rng.next() as Value,
        }
    };
    if family == 4 && width == 2 {
        let mut pool = Vec::with_capacity(n);
        while pool.len() < n {
            let (a, b) = (rng.below(64) as Value, rng.below(64) as Value);
            pool.push(vec![a, b]);
            pool.push(vec![b, a]);
        }
        return pool;
    }
    (0..n)
        .map(|i| (0..width).map(|l| lane(rng, i * width + l)).collect())
        .collect()
}

/// `LaneMap` agrees with a std `HashMap` over every key family: the id of
/// every insert (existing keys keep theirs, new keys take the next dense
/// id), `len`, `key(id)`, and `get` of inserted and absent keys.
#[test]
fn lane_map_matches_a_std_hash_map() {
    let seed = stress_seed();
    let (cases, max_keys) = scale();
    for case in 0..cases {
        let mut rng = Rng(seed ^ case.wrapping_mul(0xA24B_AED4_963E_E407));
        let family = (case % 5) as usize;
        let width = if family == 4 { 2 } else { 1 + rng.below(3) };
        let n = 1 + rng.below(max_keys / 8);
        let pool = key_pool(&mut rng, family, width, n);
        let ctx = format!("case {case} family {family} width {width} (H2O_STRESS_SEED={seed})");
        let mut map = if rng.below(2) == 0 {
            LaneMap::new(width)
        } else {
            LaneMap::with_capacity(width, rng.below(n + 1))
        };
        let mut reference: HashMap<Vec<Value>, u32> = HashMap::new();
        for _ in 0..n * 2 {
            let key = &pool[rng.below(pool.len())];
            let next = reference.len() as u32;
            let want = *reference.entry(key.clone()).or_insert(next);
            assert_eq!(map.insert(key), want, "{ctx}: insert {key:?}");
        }
        assert_eq!(map.len(), reference.len(), "{ctx}");
        for (key, &id) in &reference {
            assert_eq!(map.key(id), &key[..], "{ctx}: key of id {id}");
            assert_eq!(map.get(key, hash_key(key)), Some(id), "{ctx}: get {key:?}");
        }
        for _ in 0..64 {
            let absent: Vec<Value> = (0..width).map(|_| rng.next() as Value).collect();
            let want = reference.get(&absent).copied();
            assert_eq!(map.get(&absent, hash_key(&absent)), want, "{ctx}: absent");
        }
    }
}

/// Growth across every power-of-two boundary up to the release size:
/// after each resize, every key inserted so far keeps its id.
#[test]
fn lane_map_ids_survive_every_resize() {
    let (_, max_keys) = scale();
    for (shift, width) in [(32u32, 1usize), (12, 2), (0, 3)] {
        let key = |i: usize| -> Vec<Value> {
            (0..width)
                .map(|l| ((i + l) as Value).wrapping_shl(shift))
                .collect()
        };
        let mut map = LaneMap::new(width);
        for i in 0..max_keys {
            assert_eq!(map.insert(&key(i)), i as u32);
            if (i + 1).is_power_of_two() {
                for j in 0..=i {
                    let k = key(j);
                    assert_eq!(map.get(&k, hash_key(&k)), Some(j as u32), "shift {shift}");
                }
            }
        }
    }
}

/// A naive grouped fold: a `BTreeMap` keyed by the comparator keys (so its
/// order is the typed ascending key order) of one `AggState` per op.
struct NaiveGroups {
    key_types: Vec<LogicalType>,
    ops: Vec<AggOp>,
    map: BTreeMap<Vec<Value>, Vec<AggState>>,
}

impl NaiveGroups {
    fn update_n(&mut self, key: &[Value], vals: &[Value], n: u64) {
        if n == 0 {
            return;
        }
        let ck: Vec<Value> = key
            .iter()
            .zip(&self.key_types)
            .map(|(&k, ty)| ty.cmp_key(k))
            .collect();
        let ops = &self.ops;
        let states = self
            .map
            .entry(ck)
            .or_insert_with(|| ops.iter().map(|&op| AggState::new(op)).collect());
        for _ in 0..n {
            for (st, &v) in states.iter_mut().zip(vals) {
                st.update(v);
            }
        }
    }

    fn finish(&self) -> QueryResult {
        let width = self.key_types.len() + self.ops.len();
        let mut out = QueryResult::with_capacity(width, self.map.len());
        for (ck, states) in &self.map {
            // cmp_key is an involution: map the comparator key back.
            let mut row: Vec<Value> = ck
                .iter()
                .zip(&self.key_types)
                .map(|(&c, ty)| ty.cmp_key(c))
                .collect();
            row.extend(states.iter().map(AggState::finish));
            out.push_row(&row);
        }
        out
    }
}

/// Folds one tuple `n` times through the block fold, as the join's
/// factorized plans do (a one-row block with multiplicity `n`); `n = 0`
/// folds nothing and creates no group.
fn fold_n(t: &mut GroupedAggs, key: &[Value], vals: &[Value], n: u64) {
    if n > 0 {
        let id = t.id(key);
        t.fold_block(&[id], vals, Some(&[n as u32]));
    }
}

/// `GroupedAggs` equals the naive fold over every key family, for one
/// table and for the same rows split into partials and merged in order.
/// One merge takes a small target and a partial with many new keys, so
/// the target grows partway through the merge. Aggregate inputs are
/// small dyadic `F64`s and integers, so every fold order sums exactly.
#[test]
fn grouped_aggs_match_a_naive_fold() {
    let seed = stress_seed();
    let (cases, max_keys) = scale();
    let funcs = [
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Count,
        AggFunc::Avg,
    ];
    for case in 0..cases {
        let mut rng = Rng(seed ^ case.wrapping_mul(0x9FB2_1C65_1E98_DF25));
        let family = (case % 5) as usize;
        let width = if family == 4 { 2 } else { 1 + rng.below(3) };
        let key_types: Vec<LogicalType> = (0..width)
            .map(|_| {
                if family == 2 || rng.below(2) == 0 {
                    LogicalType::F64
                } else {
                    LogicalType::I64
                }
            })
            .collect();
        let ops: Vec<AggOp> = (0..rng.below(4))
            .map(|_| {
                let ty = if rng.below(2) == 0 {
                    LogicalType::F64
                } else {
                    LogicalType::I64
                };
                AggOp::new(funcs[rng.below(funcs.len())], ty)
            })
            .collect();
        let n = 1 + rng.below(max_keys / 8);
        let pool = key_pool(&mut rng, family, width, n);
        let rows: Vec<(Vec<Value>, Vec<Value>, u64)> = (0..n * 2)
            .map(|_| {
                let key = pool[rng.below(pool.len())].clone();
                let vals = ops
                    .iter()
                    .map(|op| {
                        let v = rng.below(64) as i64 - 32;
                        match op.ty {
                            LogicalType::F64 => f64_lane(v as f64 * 0.25),
                            _ => v,
                        }
                    })
                    .collect();
                (key, vals, rng.below(4) as u64)
            })
            .collect();
        let ctx = format!("case {case} family {family} width {width} (H2O_STRESS_SEED={seed})");

        let mut naive = NaiveGroups {
            key_types: key_types.clone(),
            ops: ops.clone(),
            map: BTreeMap::new(),
        };
        let mut whole = GroupedAggs::new(key_types.clone(), ops.clone());
        for (key, vals, n) in &rows {
            naive.update_n(key, vals, *n);
            if *n == 1 {
                whole.update(key, vals);
            } else {
                fold_n(&mut whole, key, vals, *n);
            }
        }
        let want = naive.finish();
        assert_eq!(whole.groups(), want.rows(), "{ctx}");
        assert_eq!(whole.finish(), want, "{ctx}: one table");

        // Morsel-style partials merged in order.
        let chunk = 1 + rng.below(rows.len());
        let mut merged = GroupedAggs::new(key_types.clone(), ops.clone());
        for part in rows.chunks(chunk) {
            let mut partial = GroupedAggs::new(key_types.clone(), ops.clone());
            for (key, vals, n) in part {
                fold_n(&mut partial, key, vals, *n);
            }
            merged.merge(partial);
        }
        assert_eq!(merged.finish(), want, "{ctx}: chunks of {chunk}");

        // A few rows into a small target, then one partial with the rest:
        // the target grows while it merges.
        let head = rows.len().min(3);
        let mut small = GroupedAggs::new(key_types.clone(), ops.clone());
        let mut rest = GroupedAggs::new(key_types.clone(), ops.clone());
        for (i, (key, vals, n)) in rows.iter().enumerate() {
            let t = if i < head { &mut small } else { &mut rest };
            fold_n(t, key, vals, *n);
        }
        let before = small.groups();
        small.merge(rest);
        assert!(small.groups() >= before, "{ctx}");
        assert_eq!(small.finish(), want, "{ctx}: merge into a small table");
    }
}
