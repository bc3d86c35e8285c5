//! The join build's dense-key index: a presence bitmap with a rank prefix.
//!
//! A one-lane integer key whose build values crowd a narrow `[min, max]`
//! needs no hashing to find its id. [`RankIndex`] keeps one bit per value
//! of `[min, max]` and, per 64-bit word, the number of build keys in the
//! words before it — 12 bytes per 64 key slots. A probe key `k` at offset
//! `o = k − min` (wrapping, so an offset below `min` lands far past the
//! span) is present iff bit `o` is set, and its id is its rank, the number
//! of build keys below it: `ranks[o / 64] + popcount(word & below(o))`.
//! One lookup both rejects a missing key — exactly, with no false
//! positives — and resolves a present one, so the index replaces the hash
//! table *and* its bloom prefilter. Ids run in key order, not first
//! appearance; the join's fold plans do not depend on id order (see
//! `join.rs`).

use h2o_storage::Value;

/// Index bytes per 64-bit word of the bitmap: the word and its `u32` rank.
const BYTES_PER_WORD: u64 = 12;

/// Distinct one-lane keys to dense ids in key order. See the module docs.
#[derive(Debug)]
pub(crate) struct RankIndex {
    min: Value,
    /// The presence bitmap, then one all-zero word that every offset past
    /// the bitmap reads, so a lookup never branches.
    words: Vec<u64>,
    /// Per word, the set bits in the words before it.
    ranks: Vec<u32>,
}

impl RankIndex {
    /// Bytes of an index over keys spanning `[min, max]`.
    pub(crate) fn bytes(min: Value, max: Value) -> u64 {
        Self::words(min, max) * BYTES_PER_WORD
    }

    /// Bitmap words covering `[min, max]`.
    fn words(min: Value, max: Value) -> u64 {
        (max.wrapping_sub(min) as u64 >> 6) + 1
    }

    /// Indexes `keys`, every one of which lies in `[min, max]`; duplicates
    /// are one key.
    pub(crate) fn new(min: Value, max: Value, keys: impl IntoIterator<Item = Value>) -> RankIndex {
        let words = Self::words(min, max) as usize;
        let mut bits = vec![0u64; words + 1];
        for k in keys {
            let o = k.wrapping_sub(min) as u64;
            bits[(o >> 6) as usize] |= 1 << (o & 63);
        }
        let mut seen = 0u32;
        let ranks = bits
            .iter()
            .map(|w| {
                let r = seen;
                seen += w.count_ones();
                r
            })
            .collect();
        RankIndex {
            min,
            words: bits,
            ranks,
        }
    }

    /// Number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        let last = self.words.len() - 1;
        self.ranks[last] as usize
    }

    /// Whether `k` is a build key, and its id if it is (the id is garbage
    /// when it is not) — computed without a branch.
    #[inline(always)]
    pub(crate) fn lookup(&self, k: Value) -> (bool, u32) {
        let o = k.wrapping_sub(self.min) as u64;
        let w = ((o >> 6) as usize).min(self.words.len() - 1);
        let (word, bit) = (self.words[w], 1u64 << (o & 63));
        (
            word & bit != 0,
            self.ranks[w] + (word & (bit - 1)).count_ones(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ids are ranks in key order; every other value, in range or not, is
    /// absent.
    #[test]
    fn ids_are_ranks_and_misses_are_exact() {
        for (min, keys) in [
            (-5, vec![-5, 0, 3, 63, 64, 200]),
            (
                Value::MAX - 70,
                vec![Value::MAX, Value::MAX - 70, Value::MAX - 1],
            ),
            (
                Value::MIN,
                vec![Value::MIN, Value::MIN + 64, Value::MIN + 1],
            ),
            (7, vec![7]),
        ] {
            let max = *keys.iter().max().unwrap();
            let idx = RankIndex::new(min, max, keys.iter().copied().chain(keys.clone()));
            let mut sorted = keys.clone();
            sorted.sort();
            assert_eq!(idx.len(), sorted.len());
            for (rank, &k) in sorted.iter().enumerate() {
                assert_eq!(idx.lookup(k), (true, rank as u32), "key {k}");
            }
            let probes = [
                min.wrapping_sub(1),
                max.wrapping_add(1),
                Value::MIN,
                Value::MAX,
            ];
            for k in probes
                .into_iter()
                .chain(min..=max.min(min.saturating_add(300)))
            {
                if !keys.contains(&k) {
                    assert!(!idx.lookup(k).0, "key {k} is absent");
                }
            }
        }
    }

    #[test]
    fn twelve_bytes_per_64_key_slots() {
        assert_eq!(RankIndex::bytes(0, 0), 12);
        assert_eq!(RankIndex::bytes(0, 63), 12);
        assert_eq!(RankIndex::bytes(0, 64), 24);
        // join_steady's dimension keys: 16,384 multiples of 14.
        assert_eq!(RankIndex::bytes(0, 16_383 * 14), 3_584 * 12);
        assert_eq!(RankIndex::bytes(Value::MIN, Value::MAX), (1 << 58) * 12);
    }
}
