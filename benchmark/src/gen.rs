//! Seeded input generation shared by the workloads. The program under
//! test receives only the generated inputs, never the seed.

use h2o_expr::QueryResult;
use h2o_storage::Value;
use h2o_workload::{threshold_for_selectivity, VALUE_MAX, VALUE_MIN};

/// SplitMix64: small, fast, and stable across platforms and toolchains, so
/// a seed names the same request stream forever.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent seed for one purpose (`salt`) of one run.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut r = Rng::new(seed ^ salt.wrapping_mul(0xd6e8_feb8_6659_fd93));
    r.next_u64()
}

/// The `<` threshold for selectivity `base` jittered by ±10%: every
/// request carries its own constant, so the operator cache must rebind
/// rather than replay, while the work per request stays within a tenth.
pub fn jittered_threshold(rng: &mut Rng, base: f64) -> Value {
    threshold_for_selectivity(base * (0.9 + 0.2 * rng.unit()))
}

/// A column rising with the row number across the whole value domain plus
/// a little noise — what a timestamp or an auto-increment key looks like,
/// and the shape zone maps can prune on.
pub fn clustered_column(rows: usize, rng: &mut Rng) -> Vec<Value> {
    let step = (VALUE_MAX - VALUE_MIN) / rows.max(1) as Value;
    (0..rows as Value)
        .map(|i| VALUE_MIN + i * step + (rng.next_u64() % step.max(1) as u64) as Value)
        .collect()
}

/// Folds one result into a running fingerprint. Order-sensitive over the
/// raw lane words (the engine's row order is deterministic), and cheap
/// enough to keep inside the measured window.
pub fn fold_result(fp: u64, r: &QueryResult) -> u64 {
    let mut h = fold_word(fp, r.width() as u64);
    for &v in r.data() {
        h = fold_word(h, v as u64);
    }
    h
}

pub fn fold_word(fp: u64, word: u64) -> u64 {
    (fp ^ word)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(29)
}

pub fn fold_bytes(fp: u64, bytes: &[u8]) -> u64 {
    let mut h = fp;
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = fold_word(h, u64::from_le_bytes(w));
    }
    fold_word(h, bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = Rng::new(43);
        assert_ne!(a[0], r.next_u64());
        assert_ne!(mix(42, 1), mix(42, 2));
        let mut r = Rng::new(7);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
    }

    #[test]
    fn clustered_column_is_sorted_and_in_domain() {
        let c = clustered_column(10_000, &mut Rng::new(1));
        assert!(c.windows(2).all(|w| w[0] <= w[1]));
        assert!(c[0] >= VALUE_MIN && *c.last().unwrap() < VALUE_MAX);
    }

    #[test]
    fn folding_is_order_sensitive() {
        let a = QueryResult::from_rows(1, vec![1, 2]);
        let b = QueryResult::from_rows(1, vec![2, 1]);
        assert_ne!(fold_result(0, &a), fold_result(0, &b));
        assert_eq!(fold_result(5, &a), fold_result(5, &a));
        assert_ne!(fold_bytes(0, b"ab"), fold_bytes(0, b"ba"));
    }
}
