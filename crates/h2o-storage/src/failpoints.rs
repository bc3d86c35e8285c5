//! Deterministic fault-injection sites ("failpoints") for chaos testing.
//!
//! The fault-tolerance layer (panic isolation in the morsel scheduler,
//! typed `ExecutionPanicked` errors, the supervised reorganizer) is only
//! trustworthy if it is exercised against *real* panics at the places
//! where a panic would be most damaging: mid-append (a half-mutated COW
//! catalog clone), mid-seal (a segment boundary), mid-reorganization (a
//! half-built layout), at catalog publish, and inside a morsel worker.
//! This module plants named failpoints at exactly those sites.
//!
//! ## Zero cost when disabled
//!
//! Everything here is gated behind the `failpoints` cargo feature. With
//! the feature **off** (the default), [`hit`] is an empty `#[inline]`
//! function: call sites compile to nothing and the production hot path is
//! untouched. With the
//! feature **on** but no site armed, each call is one relaxed atomic
//! load.
//!
//! ## Determinism
//!
//! A site fires in one of two modes:
//!
//! * **nth-hit** (`arm_nth`): the site panics on exactly its `n`-th
//!   hit (process-wide counter), then disarms itself — precise unit-test
//!   control.
//! * **probability** (`arm_probability` / `arm_all_probability`):
//!   hit `n` of a site panics iff `splitmix64(seed, site, n)` falls
//!   below a threshold derived from `p`. The decision depends only on
//!   `(seed, site, hit index)` — *not* on thread timing — so a seeded
//!   chaos run injects a reproducible fault schedule even under
//!   concurrency (`arm_from_env` reads the seed from `H2O_FAULT_SEED`).
//!
//! (The arming API only exists with the feature on, so the names above
//! are plain text, not links, in a default-featured doc build.)
//!
//! Fired failpoints panic with a message starting with
//! [`PANIC_PREFIX`], so test harnesses can tell an injected fault from a
//! genuine bug.

/// All known failpoint site names, in dependency order.
///
/// * `segment_seal` — a tail reaching a full segment, just before its
///   chunks are concatenated into the sealed segment
///   ([`crate::ColumnGroup`] append path).
/// * `cow_clone` — the copy-on-write clone of a shared last tail chunk
///   (at most once per group per append batch).
/// * `catalog_publish` — just before an engine swaps a new catalog
///   version into the published slot.
/// * `morsel_start` — a worker claiming a morsel in the parallel
///   scheduler (and the serial fallback's per-morsel loop).
/// * `reorg_build` — the start of materializing a new column group
///   during (online or background) reorganization.
pub const SITE_NAMES: [&str; 5] = [
    "segment_seal",
    "cow_clone",
    "catalog_publish",
    "morsel_start",
    "reorg_build",
];

/// Injected-fault panic payloads start with this prefix.
pub const PANIC_PREFIX: &str = "h2o failpoint";

/// Signals a named failpoint. No-op unless the `failpoints` feature is
/// enabled *and* the site has been armed.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn hit(_site: &'static str) {}

#[cfg(feature = "failpoints")]
pub use imp::hit;
#[cfg(feature = "failpoints")]
pub use imp::{
    arm_all_probability, arm_from_env, arm_nth, arm_probability, disarm_all, fired, fired_total,
    hits,
};

#[cfg(feature = "failpoints")]
mod imp {
    use super::{PANIC_PREFIX, SITE_NAMES};
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

    const MODE_OFF: u8 = 0;
    const MODE_NTH: u8 = 1;
    const MODE_PROB: u8 = 2;

    /// Fast-path gate: no site is armed while this is false.
    static ARMED: AtomicBool = AtomicBool::new(false);

    struct Site {
        hits: AtomicU64,
        fired: AtomicU64,
        mode: AtomicU8,
        /// `MODE_NTH`: the 1-based hit index to fire on.
        /// `MODE_PROB`: a `u64` threshold; hit `n` fires iff
        /// `mix(seed, site, n) < threshold`.
        param: AtomicU64,
        seed: AtomicU64,
    }

    #[allow(clippy::declare_interior_mutable_const)]
    const SITE_INIT: Site = Site {
        hits: AtomicU64::new(0),
        fired: AtomicU64::new(0),
        mode: AtomicU8::new(MODE_OFF),
        param: AtomicU64::new(0),
        seed: AtomicU64::new(0),
    };
    static SITES: [Site; SITE_NAMES.len() + TEST_SITES.len()] =
        [SITE_INIT; SITE_NAMES.len() + TEST_SITES.len()];

    fn index(site: &str) -> usize {
        SITE_NAMES
            .iter()
            .chain(&TEST_SITES)
            .position(|s| *s == site)
            .unwrap_or_else(|| panic!("unknown failpoint site {site:?}"))
    }

    /// `splitmix64` finalizer — decisions depend only on the inputs, not
    /// on scheduling.
    fn mix(seed: u64, site: usize, n: u64) -> u64 {
        let mut z = seed
            .wrapping_add((site as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(n.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Signals a named failpoint; panics if the site's armed schedule
    /// says this hit should fail.
    #[inline]
    pub fn hit(site: &'static str) {
        if !ARMED.load(Ordering::Relaxed) {
            return;
        }
        hit_slow(site);
    }

    #[cold]
    fn hit_slow(site: &'static str) {
        let s = &SITES[index(site)];
        let n = s.hits.fetch_add(1, Ordering::Relaxed) + 1;
        let fire = match s.mode.load(Ordering::Relaxed) {
            MODE_NTH if n == s.param.load(Ordering::Relaxed) => {
                // One-shot: disarm so the retry after recovery passes.
                s.mode.store(MODE_OFF, Ordering::Relaxed);
                true
            }
            MODE_NTH => false,
            MODE_PROB => {
                mix(s.seed.load(Ordering::Relaxed), index(site), n)
                    < s.param.load(Ordering::Relaxed)
            }
            _ => false,
        };
        if fire {
            s.fired.fetch_add(1, Ordering::Relaxed);
            panic!("{PANIC_PREFIX} '{site}' fired (hit {n})");
        }
    }

    /// Arms `site` to panic on exactly its `n`-th hit from now
    /// (1-based, counted from the site's current hit count), then
    /// disarm itself.
    pub fn arm_nth(site: &str, n: u64) {
        assert!(n >= 1, "nth-hit failpoints are 1-based");
        let s = &SITES[index(site)];
        let base = s.hits.load(Ordering::Relaxed);
        s.param.store(base + n, Ordering::Relaxed);
        s.mode.store(MODE_NTH, Ordering::Relaxed);
        ARMED.store(true, Ordering::Relaxed);
    }

    /// Arms `site` to panic on each hit independently with probability
    /// `p`, deterministically derived from `seed` and the hit index.
    pub fn arm_probability(site: &str, seed: u64, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let s = &SITES[index(site)];
        let threshold = if p >= 1.0 {
            u64::MAX
        } else {
            (p * u64::MAX as f64) as u64
        };
        s.seed.store(seed, Ordering::Relaxed);
        s.param.store(threshold, Ordering::Relaxed);
        s.mode.store(MODE_PROB, Ordering::Relaxed);
        ARMED.store(true, Ordering::Relaxed);
    }

    /// Arms every site in [`SITE_NAMES`] with probability `p` under one
    /// seed (each site still draws independently).
    pub fn arm_all_probability(seed: u64, p: f64) {
        for site in SITE_NAMES {
            arm_probability(site, seed, p);
        }
    }

    /// Arms all sites from the `H2O_FAULT_SEED` environment variable
    /// (probability `p` per hit). Returns the seed used, or `None` when
    /// the variable is unset or unparsable (sites stay disarmed).
    pub fn arm_from_env(p: f64) -> Option<u64> {
        let seed = std::env::var("H2O_FAULT_SEED").ok()?.trim().parse().ok()?;
        arm_all_probability(seed, p);
        Some(seed)
    }

    /// Disarms every site and clears hit/fired counters.
    pub fn disarm_all() {
        ARMED.store(false, Ordering::Relaxed);
        for s in &SITES {
            s.mode.store(MODE_OFF, Ordering::Relaxed);
            s.hits.store(0, Ordering::Relaxed);
            s.fired.store(0, Ordering::Relaxed);
            s.param.store(0, Ordering::Relaxed);
            s.seed.store(0, Ordering::Relaxed);
        }
    }

    /// Total times `site` has been reached since the last [`disarm_all`].
    pub fn hits(site: &str) -> u64 {
        SITES[index(site)].hits.load(Ordering::Relaxed)
    }

    /// Times `site` has fired (panicked) since the last [`disarm_all`].
    pub fn fired(site: &str) -> u64 {
        SITES[index(site)].fired.load(Ordering::Relaxed)
    }

    /// Total injected faults across all sites.
    pub fn fired_total() -> u64 {
        SITES.iter().map(|s| s.fired.load(Ordering::Relaxed)).sum()
    }

    /// Sites only this module's unit tests reach: arming them cannot fire
    /// inside another test that appends, seals or schedules concurrently.
    #[cfg(test)]
    pub(super) const TEST_SITES: [&str; 2] = ["test_nth", "test_probability"];
    #[cfg(not(test))]
    const TEST_SITES: [&str; 0] = [];
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::imp::TEST_SITES;
    use super::*;

    // Failpoint state is process-global, so exercise everything in one
    // test. It arms only the test-only sites, which no other code
    // reaches: the crate's other tests append and seal (hitting the real
    // sites) concurrently under the parallel harness, and never fire.
    #[test]
    fn schedules_are_deterministic_and_resettable() {
        let [nth, prob] = TEST_SITES;
        disarm_all();

        // nth-hit: fires on exactly the 3rd hit, then disarms.
        arm_nth(nth, 3);
        hit(nth);
        hit(nth);
        let err = std::panic::catch_unwind(|| hit(nth)).expect_err("third hit must fire");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.starts_with(PANIC_PREFIX), "got {msg:?}");
        assert_eq!(fired(nth), 1);
        hit(nth); // disarmed after firing
        assert_eq!(fired(nth), 1);
        assert_eq!(hits(nth), 4);

        // nth-hit counts from the current hit count, so re-arming with
        // n=1 fires on the very next hit.
        arm_nth(nth, 1);
        assert!(std::panic::catch_unwind(|| hit(nth)).is_err());

        // Probability mode: the schedule is a pure function of
        // (seed, site, hit index) — replaying the same seed over the
        // same hit range fires at the same hit indices.
        let schedule = |seed: u64| -> Vec<u64> {
            disarm_all();
            arm_probability(prob, seed, 0.2);
            (1..=64)
                .filter(|_| std::panic::catch_unwind(|| hit(prob)).is_err())
                .collect()
        };
        let a = schedule(0xDEADBEEF);
        let b = schedule(0xDEADBEEF);
        assert_eq!(a, b, "same seed, same fault schedule");
        assert!(!a.is_empty(), "p=0.2 over 64 hits should fire");
        let c = schedule(7);
        assert_ne!(a, c, "different seeds diverge");

        disarm_all();
        assert_eq!(fired_total(), 0);
        for site in SITE_NAMES.into_iter().chain(TEST_SITES) {
            hit(site); // disarmed: counts but never fires
            assert_eq!(fired(site), 0);
        }
    }
}
