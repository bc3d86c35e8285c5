//! The join probe prefilter: a blocked bloom filter over the build keys'
//! hashes (Putze, Sanders and Singler, "Cache-, Hash-, and Space-Efficient
//! Bloom Filters", WEA 2007).
//!
//! When a hashed build finishes, it fills a [`JoinFilter`] from the key
//! hashes ([`hash_key`]) its table insert already computed. The probe
//! then tests each qualifying row's key hash against the filter
//! **before** the hash table: a bloom miss proves the key has no build
//! match, so the (cache-hostile) random-access lookup is skipped
//! entirely. In low-match-rate regimes — a foreign-key column full of
//! values that never hit the build side — most probe rows never touch the
//! table.
//!
//! The structure is *one-sided*: it can say "definitely absent" but never
//! "present", so testing it cannot change which pairs match — results
//! are bit-identical to an unfiltered probe (the probe loop's fold order
//! is untouched; only dead lookups are elided).
//!
//! The filter is an array of register-sized (`u64`) blocks: one
//! cache-friendly word probe tests two bits derived from [`hash_key`], the
//! fixed-seed splitmix64 chain over the raw key lanes. The build table
//! ([`h2o_expr::LaneMap`]) hashes the same bits with the same function, so
//! a probe hashes its key once and uses the hash for both the bloom test
//! and the table lookup. Nothing here depends on the key's width or type.
//!
//! [`hash_key`]: h2o_expr::lanemap::hash_key

/// Target bloom bits per inserted key. With two probe bits per key in
/// one block, 12 bits/key keeps the false-positive rate in the low
/// percents — cheap insurance, since a false positive merely falls
/// through to the hash lookup the filter would otherwise skip.
const BITS_PER_KEY: usize = 12;

/// The probe prefilter: a blocked bloom filter over key hashes. See the
/// module docs for the no-false-negative contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinFilter {
    /// Register-sized bloom blocks; length is a power of two.
    blocks: Vec<u64>,
    /// `blocks.len() - 1`, for masking the block index.
    mask: u64,
}

impl JoinFilter {
    /// Fresh filter sized for about `keys` insertions. Sizing from the
    /// build's *distinct* keys (not the raw relation size, nor its
    /// duplicate keys) keeps the filter compact.
    pub fn with_capacity(keys: usize) -> JoinFilter {
        let blocks = (keys.max(1) * BITS_PER_KEY)
            .div_ceil(u64::BITS as usize)
            .next_power_of_two();
        JoinFilter {
            blocks: vec![0; blocks],
            mask: blocks as u64 - 1,
        }
    }

    /// Block index and two-bit mask for a key hash. The block comes from
    /// the hash's low bits, the bits within the block from its high bits,
    /// so the two are independent for any power-of-two block count.
    #[inline(always)]
    fn slots(&self, h: u64) -> (usize, u64) {
        let block = (h & self.mask) as usize;
        let bits = (1u64 << ((h >> 32) & 63)) | (1u64 << ((h >> 38) & 63));
        (block, bits)
    }

    /// Inserts the key whose hash is `h` — the hash the build already
    /// computed for its table insert. Duplicates are harmless.
    #[inline]
    pub fn insert(&mut self, h: u64) {
        let (block, bits) = self.slots(h);
        self.blocks[block] |= bits;
    }

    /// Whether a key whose hash is `h` might have been inserted. A
    /// `false` proves absence; a `true` falls through to the hash
    /// table, which the caller probes with the same `h`.
    #[inline(always)]
    pub fn test_hash(&self, h: u64) -> bool {
        let (block, bits) = self.slots(h);
        self.blocks[block] & bits == bits
    }

    /// Stage 3 of the join probe, over one block of key hashes: writes
    /// the block positions of the hashes that pass [`Self::test_hash`] to
    /// the front of `out`, ascending, and returns their count. Each
    /// position is written and kept only if it passed, so the loop has no
    /// branch.
    pub fn survivors(&self, hashes: &[u64], out: &mut [u32]) -> usize {
        debug_assert!(out.len() >= hashes.len());
        let mut kept = 0;
        for (i, &h) in hashes.iter().enumerate() {
            out[kept] = i as u32;
            kept += usize::from(self.test_hash(h));
        }
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_expr::lanemap::hash_key;
    use h2o_storage::{f64_lane, Value};

    fn contains(f: &JoinFilter, key: &[Value]) -> bool {
        f.test_hash(hash_key(key))
    }

    #[test]
    fn no_false_negatives_ever() {
        let keys: Vec<Vec<Value>> = (0..500)
            .map(|i| vec![i * 37 % 211 - 50, f64_lane((i % 13) as f64 * 0.25)])
            .collect();
        let mut f = JoinFilter::with_capacity(keys.len());
        for k in &keys {
            f.insert(hash_key(k));
        }
        for k in &keys {
            assert!(contains(&f, k), "inserted key {k:?} must test present");
        }
    }

    #[test]
    fn survivors_keep_exactly_the_passing_positions_in_order() {
        // Every third key, the block's last one (999) among them.
        let mut f = JoinFilter::with_capacity(334);
        for k in 0..334 {
            f.insert(hash_key(&[k * 3]));
        }
        let hashes: Vec<u64> = (0..1_000).map(|k| hash_key(&[k])).collect();
        let mut out = vec![0; hashes.len()];
        let kept = f.survivors(&hashes, &mut out);
        let want: Vec<u32> = (0..hashes.len() as u32)
            .filter(|&i| f.test_hash(hashes[i as usize]))
            .collect();
        assert_eq!(&out[..kept], &want[..]);
        assert!(kept >= 334 && kept < hashes.len());
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = JoinFilter::with_capacity(0);
        for k in [0, 1, -1, Value::MAX, Value::MIN] {
            assert!(!contains(&f, &[k]));
        }
    }

    #[test]
    fn misses_are_mostly_filtered() {
        // Sparse keys (even values): odd values are misses between real
        // keys. The FPR should be far below 1.
        let mut f = JoinFilter::with_capacity(1000);
        for i in 0..1000 {
            f.insert(hash_key(&[i * 2]));
        }
        let false_pos = (0..1000).filter(|&i| contains(&f, &[i * 2 + 1])).count();
        assert!(
            false_pos < 200,
            "blocked bloom FPR too high: {false_pos}/1000"
        );
        assert!(f.blocks.len() * 64 >= 1000 * BITS_PER_KEY);
    }
}
