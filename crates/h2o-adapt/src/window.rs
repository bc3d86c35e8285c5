//! The dynamic monitoring window.
//!
//! "H2O uses a dynamic window of N queries to monitor the access patterns
//! of the incoming queries. ... The monitoring window is not static but it
//! adapts when significant changes in the statistics happen. ... H2O
//! detects workload shifts by comparing new queries with queries observed
//! in the previous query window. It examines whether the input query access
//! pattern is new or if it has been observed with low frequency. New access
//! patterns are an indication that there might be a shift in the workload.
//! In this case, the adaptation window decreases to progressively
//! orchestrate a new adaptation phase while when the workload is stable,
//! H2O increases the adaptation window." (§3.2)
//!
//! The paper gives only those directions; how far the window moves is
//! fixed by the constants below. A caller sets the window's bounds.

use h2o_cost::AccessPattern;
use h2o_storage::AttrSet;
use std::collections::VecDeque;

/// A detected shift multiplies the window size by this (floored, never
/// below `min`).
const SHRINK_FACTOR: f64 = 0.5;

/// Growth per adaptation round while the workload is stable (capped at
/// `max`).
const GROW_STEP: usize = 5;

/// A query whose Jaccard similarity to a retained pattern is at least this
/// counts that pattern as similar.
const NOVELTY_THRESHOLD: f64 = 0.3;

/// Consecutive novel queries that fire shift detection (debounces
/// oscillating workloads); also the number of similar retained patterns
/// that make a query familiar.
const SHIFT_VOTES: usize = 3;

/// The window's size bounds, in queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowConfig {
    /// Initial window size.
    pub initial: usize,
    /// Lower bound the window may shrink to.
    pub min: usize,
    /// Upper bound the window may grow to; also how many patterns are
    /// retained for shift detection.
    pub max: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            initial: 20,
            min: 4,
            max: 200,
        }
    }
}

impl WindowConfig {
    /// A fixed-size window — the "static window" baseline of Fig. 9. With
    /// `min == max` the window cannot resize, so it never looks for shifts.
    pub fn fixed(size: usize) -> Self {
        WindowConfig {
            initial: size,
            min: size,
            max: size,
        }
    }
}

/// The attribute footprint of one pattern (`select ∪ where`) with its
/// size, kept beside every retained pattern so shift detection compares
/// bitsets without building a set per comparison.
#[derive(Debug, Clone)]
struct Footprint {
    attrs: AttrSet,
    len: usize,
}

impl Footprint {
    fn of(pat: &AccessPattern) -> Self {
        let attrs = pat.all_attrs();
        Footprint {
            len: attrs.len(),
            attrs,
        }
    }

    /// Jaccard similarity of two footprints — "it examines whether the
    /// input query access pattern is new or if it has been observed"
    /// (§3.2). Two empty footprints are identical (1.0).
    fn similarity(&self, other: &Footprint) -> f64 {
        let inter = self.attrs.intersection_len(&other.attrs);
        let union = self.len + other.len - inter;
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }
}

/// The sliding window of recent query access patterns.
#[derive(Debug, Clone)]
pub struct MonitoringWindow {
    config: WindowConfig,
    /// Retained patterns, oldest first, each with its footprint.
    patterns: VecDeque<(AccessPattern, Footprint)>,
    /// Current adaptive window size (queries between adaptation rounds).
    size: usize,
    /// Queries observed since the last adaptation round.
    since_adapt: usize,
    /// Consecutive novel queries seen.
    novel_streak: usize,
    /// Total shifts detected (statistics).
    shifts_detected: u64,
}

impl MonitoringWindow {
    /// Creates a window with the given configuration.
    pub fn new(config: WindowConfig) -> Self {
        assert!(config.min >= 1 && config.min <= config.initial && config.initial <= config.max);
        MonitoringWindow {
            size: config.initial,
            config,
            patterns: VecDeque::new(),
            since_adapt: 0,
            novel_streak: 0,
            shifts_detected: 0,
        }
    }

    /// Current window size (queries between adaptation evaluations).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of recorded patterns available for analysis.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether no patterns are recorded yet.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The recorded patterns, oldest first.
    pub fn patterns(&self) -> impl Iterator<Item = &AccessPattern> {
        self.patterns.iter().map(|(p, _)| p)
    }

    /// The patterns of the *current adaptation window* (the most recent
    /// `size()` observations) — what the adviser reasons over. The full
    /// retained history (up to `max`) is longer; it serves novelty
    /// detection, which must survive window shrinks.
    pub fn snapshot(&self) -> Vec<AccessPattern> {
        let start = self.patterns.len().saturating_sub(self.size);
        self.patterns().skip(start).cloned().collect()
    }

    /// Queries observed since the last adaptation round.
    pub fn since_adapt(&self) -> usize {
        self.since_adapt
    }

    /// Total workload shifts detected so far.
    pub fn shifts_detected(&self) -> u64 {
        self.shifts_detected
    }

    /// Whether `pat` is *novel* relative to the recorded history: the paper
    /// asks "whether the input query access pattern is new or if it has
    /// been observed with low frequency". A pattern is novel while fewer
    /// than `SHIFT_VOTES` similar patterns exist in the window — a lone
    /// earlier occurrence of the same new pattern does not make it
    /// familiar, but a recurring workload class is never novel. The
    /// bound is intentionally *not* relative to the window length: after a
    /// shift shrinks the window, a short history must not make returning
    /// classes look novel (that feedback loop would pin the window at its
    /// minimum).
    pub fn is_novel(&self, pat: &AccessPattern) -> bool {
        self.is_novel_footprint(&Footprint::of(pat))
    }

    fn is_novel_footprint(&self, fp: &Footprint) -> bool {
        // A window that cannot resize has no shift reaction, so nothing is
        // novel to it and it skips the comparisons.
        if self.patterns.is_empty() || self.config.min == self.config.max {
            return false;
        }
        // The bound must be at least `SHIFT_VOTES`: the first few queries
        // of a genuinely new phase land in history and must not make each
        // other look familiar before the votes accumulate. A recurring
        // class (≥ SHIFT_VOTES occurrences across the retained history)
        // is never novel.
        self.similar(fp) < SHIFT_VOTES.min(self.patterns.len())
    }

    /// How many retained patterns are at least `NOVELTY_THRESHOLD`
    /// similar to `fp`.
    fn similar(&self, fp: &Footprint) -> usize {
        self.patterns
            .iter()
            .filter(|(_, p)| p.similarity(fp) >= NOVELTY_THRESHOLD)
            .count()
    }

    /// Records one query's access pattern. Returns `true` if this
    /// observation completed an adaptation interval — i.e. the engine
    /// should run an adaptation round now.
    pub fn observe(&mut self, pat: AccessPattern) -> bool {
        // Shift detection before inserting (compare against history only).
        let fp = Footprint::of(&pat);
        if self.is_novel_footprint(&fp) {
            self.novel_streak += 1;
            if self.novel_streak >= SHIFT_VOTES {
                self.on_shift();
                self.novel_streak = 0;
            }
        } else {
            self.novel_streak = 0;
        }

        self.patterns.push_back((pat, fp));
        while self.patterns.len() > self.config.max {
            self.patterns.pop_front();
        }
        self.since_adapt += 1;
        self.since_adapt >= self.size
    }

    /// Marks an adaptation round as completed; while the workload is stable
    /// the window grows by `GROW_STEP` (capped at `max`).
    pub fn adaptation_done(&mut self) {
        self.since_adapt = 0;
        self.size = (self.size + GROW_STEP).min(self.config.max);
    }

    /// Shift reaction: shrink the window so the next adaptation happens
    /// sooner. The retained pattern history is deliberately *not* trimmed:
    /// novelty detection needs it to recognize returning classes, otherwise
    /// a shrunken window makes familiar queries look novel and the window
    /// pins itself at the minimum. The adviser already sees only the last
    /// `size` patterns via [`Self::snapshot`].
    fn on_shift(&mut self) {
        self.shifts_detected += 1;
        let new_size = ((self.size as f64) * SHRINK_FACTOR).floor() as usize;
        self.size = new_size.max(self.config.min);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_storage::AttrSet;

    fn pat(attrs: &[usize]) -> AccessPattern {
        AccessPattern {
            select: attrs.iter().copied().collect(),
            where_: AttrSet::new(),
            selectivity: 1.0,
            output_width: attrs.len(),
            select_ops: attrs.len(),
            is_aggregate: true,
            is_grouped: false,
        }
    }

    #[test]
    fn observe_triggers_adaptation_at_window_size() {
        let mut w = MonitoringWindow::new(WindowConfig {
            initial: 3,
            min: 2,
            max: 10,
        });
        assert!(!w.observe(pat(&[0])));
        assert!(!w.observe(pat(&[0])));
        assert!(w.observe(pat(&[0])), "third query completes the interval");
        w.adaptation_done();
        assert_eq!(w.since_adapt(), 0);
    }

    #[test]
    fn window_grows_while_stable() {
        let cfg = WindowConfig {
            initial: 4,
            min: 2,
            max: 4 + 2 * GROW_STEP - 1,
        };
        let mut w = MonitoringWindow::new(cfg);
        assert_eq!(w.size(), 4);
        w.adaptation_done();
        assert_eq!(w.size(), 4 + GROW_STEP);
        w.adaptation_done();
        assert_eq!(w.size(), cfg.max, "capped at max");
        w.adaptation_done();
        assert_eq!(w.size(), cfg.max, "stays at max");
    }

    #[test]
    fn shift_shrinks_window() {
        let cfg = WindowConfig {
            initial: 16,
            min: 4,
            max: 32,
        };
        let mut w = MonitoringWindow::new(cfg);
        for _ in 0..8 {
            w.observe(pat(&[0, 1, 2]));
        }
        assert_eq!(w.size(), 16);
        // Disjoint access pattern: novel. SHIFT_VOTES in a row fire the
        // shift.
        for _ in 1..SHIFT_VOTES {
            w.observe(pat(&[50, 51]));
            assert_eq!(w.size(), 16, "fewer novel queries are not yet a shift");
        }
        w.observe(pat(&[50, 51]));
        assert_eq!(w.size(), 8, "shift halves the window");
        assert_eq!(w.shifts_detected(), 1);
    }

    #[test]
    fn similar_queries_reset_novel_streak() {
        let mut w = MonitoringWindow::new(WindowConfig::default());
        for _ in 0..5 {
            w.observe(pat(&[0, 1, 2]));
        }
        // Distinct disjoint patterns, so each one stays novel.
        let mut novel = (10..).step_by(10).map(|a| pat(&[a, a + 1]));
        for _ in 1..SHIFT_VOTES {
            w.observe(novel.next().unwrap());
        }
        w.observe(pat(&[0, 1, 2])); // familiar: resets the streak
        for _ in 1..SHIFT_VOTES {
            w.observe(novel.next().unwrap());
        }
        assert_eq!(
            w.shifts_detected(),
            0,
            "oscillation must not trigger a shift"
        );
        w.observe(novel.next().unwrap());
        assert_eq!(w.shifts_detected(), 1, "an unbroken streak does");
    }

    #[test]
    fn fixed_window_never_shifts() {
        let mut w = MonitoringWindow::new(WindowConfig::fixed(30));
        for _ in 0..10 {
            w.observe(pat(&[0]));
        }
        for _ in 0..15 {
            w.observe(pat(&[90, 91]));
        }
        assert_eq!(w.size(), 30);
        assert_eq!(w.shifts_detected(), 0);
        assert!(!w.is_novel(&pat(&[70])), "nothing is novel to it");
        w.adaptation_done();
        assert_eq!(w.size(), 30);
    }

    #[test]
    fn history_bounded_by_max() {
        let cfg = WindowConfig {
            initial: 4,
            min: 2,
            max: 6,
        };
        let mut w = MonitoringWindow::new(cfg);
        for i in 0..20 {
            w.observe(pat(&[i % 3]));
        }
        assert!(w.len() <= 6);
    }

    #[test]
    fn shrink_drops_old_history() {
        let cfg = WindowConfig {
            initial: 8,
            min: 4,
            max: 32,
        };
        let mut w = MonitoringWindow::new(cfg);
        for _ in 0..12 {
            w.observe(pat(&[0, 1]));
        }
        for _ in 0..SHIFT_VOTES {
            w.observe(pat(&[40, 41]));
        }
        assert_eq!(w.shifts_detected(), 1);
        assert_eq!(w.size(), 4);
        // History is retained (novelty detection needs it), but the
        // adviser's view shrinks with the window.
        assert!(w.len() > 4, "full history retained");
        assert!(w.snapshot().len() <= 4, "adviser sees only the new window");
    }

    #[test]
    fn empty_window_nothing_is_novel() {
        let w = MonitoringWindow::new(WindowConfig::default());
        assert!(!w.is_novel(&pat(&[7])));
        assert!(w.is_empty());
    }

    #[test]
    fn footprint_similarity_is_jaccard() {
        let sim =
            |a: &[usize], b: &[usize]| Footprint::of(&pat(a)).similarity(&Footprint::of(&pat(b)));
        // {0,1} vs {1,2}: intersection 1, union 3.
        assert!((sim(&[0, 1], &[1, 2]) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(sim(&[0, 1], &[0, 1]), 1.0);
        assert_eq!(sim(&[0], &[70]), 0.0);
        assert_eq!(sim(&[], &[]), 1.0, "two empty footprints are identical");
        assert_eq!(sim(&[], &[3]), 0.0);
        // The where clause is part of the footprint.
        let mut filtered = pat(&[0]);
        filtered.where_ = [1usize].into_iter().collect();
        assert_eq!(
            Footprint::of(&filtered).similarity(&Footprint::of(&pat(&[0, 1]))),
            1.0
        );
    }

    /// Jaccard similarity as shift detection computed it before
    /// footprints were kept: both sets rebuilt from the patterns on every
    /// comparison.
    fn rebuilt_similarity(a: &AccessPattern, b: &AccessPattern) -> f64 {
        let (a, b) = (a.all_attrs(), b.all_attrs());
        let inter = a.intersection_len(&b);
        let union = a.len() + b.len() - inter;
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }

    /// Xorshift64: a seeded stream for the randomized tests.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    #[test]
    fn kept_footprints_count_the_same_similar_patterns_as_rebuilt_sets() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let cfg = WindowConfig {
            max: 64,
            ..WindowConfig::default()
        };
        let mut w = MonitoringWindow::new(cfg);
        let mut empty = 0;
        for _ in 0..2_000 {
            // Small attribute domain so similarities land on both sides of
            // the threshold; one pattern in eight touches nothing at all.
            let mut p = pat(&[]);
            if rng.below(8) != 0 {
                p.select = (0..rng.below(4)).map(|_| rng.below(10)).collect();
                p.where_ = (0..rng.below(3)).map(|_| rng.below(10)).collect();
            }
            empty += usize::from(p.all_attrs().is_empty());
            let want = w
                .patterns()
                .filter(|q| rebuilt_similarity(q, &p) >= NOVELTY_THRESHOLD)
                .count();
            assert_eq!(w.similar(&Footprint::of(&p)), want);
            let bound = SHIFT_VOTES.min(w.len());
            assert_eq!(w.is_novel(&p), !w.is_empty() && want < bound);
            w.observe(p);
        }
        assert!(empty > 100, "empty footprints must be exercised: {empty}");
        assert!(w.shifts_detected() > 0, "the sequence must shift");
    }

    /// The window as it was while its dynamics were settable: the 7-field
    /// `WindowConfig` and the `MonitoringWindow` that read it, copied
    /// verbatim (minus the accessors the differential does not call).
    /// Kept as the oracle the constant-driven window must match step for
    /// step.
    mod reference {
        use super::super::Footprint;
        use h2o_cost::AccessPattern;
        use std::collections::VecDeque;

        /// Tuning knobs for the dynamic window.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub struct WindowConfig {
            /// Initial (and reset) window size in queries.
            pub initial: usize,
            /// Lower bound the window may shrink to.
            pub min: usize,
            /// Upper bound the window may grow to.
            pub max: usize,
            /// Multiplicative shrink on a detected shift (e.g. `0.5` halves the
            /// remaining distance to the next adaptation).
            pub shrink_factor: f64,
            /// Additive growth per stable adaptation round.
            pub grow_step: usize,
            /// A query whose best Jaccard similarity against the recorded patterns
            /// is below this threshold counts as *new* (shift evidence).
            pub novelty_threshold: f64,
            /// Number of consecutive novel queries required to fire shift
            /// detection (debounces oscillating workloads).
            pub shift_votes: usize,
        }

        impl Default for WindowConfig {
            fn default() -> Self {
                WindowConfig {
                    initial: 20,
                    min: 4,
                    max: 200,
                    shrink_factor: 0.5,
                    grow_step: 5,
                    novelty_threshold: 0.3,
                    shift_votes: 3,
                }
            }
        }

        impl WindowConfig {
            /// A fixed-size window (disables all dynamics) — the "static window"
            /// baseline of Fig. 9.
            pub fn fixed(size: usize) -> Self {
                WindowConfig {
                    initial: size,
                    min: size,
                    max: size,
                    shrink_factor: 1.0,
                    grow_step: 0,
                    novelty_threshold: 0.0,
                    shift_votes: usize::MAX,
                }
            }
        }

        /// The sliding window of recent query access patterns.
        #[derive(Debug, Clone)]
        pub struct MonitoringWindow {
            config: WindowConfig,
            /// Retained patterns, oldest first, each with its footprint.
            patterns: VecDeque<(AccessPattern, Footprint)>,
            /// Current adaptive window size (queries between adaptation rounds).
            size: usize,
            /// Queries observed since the last adaptation round.
            since_adapt: usize,
            /// Consecutive novel queries seen.
            novel_streak: usize,
            /// Total shifts detected (statistics).
            shifts_detected: u64,
        }

        impl MonitoringWindow {
            /// Creates a window with the given configuration.
            pub fn new(config: WindowConfig) -> Self {
                assert!(
                    config.min >= 1 && config.min <= config.initial && config.initial <= config.max
                );
                MonitoringWindow {
                    size: config.initial,
                    config,
                    patterns: VecDeque::new(),
                    since_adapt: 0,
                    novel_streak: 0,
                    shifts_detected: 0,
                }
            }

            /// Current window size (queries between adaptation evaluations).
            pub fn size(&self) -> usize {
                self.size
            }

            /// The recorded patterns, oldest first.
            pub fn patterns(&self) -> impl Iterator<Item = &AccessPattern> {
                self.patterns.iter().map(|(p, _)| p)
            }

            /// The patterns of the *current adaptation window* (the most recent
            /// `size()` observations) — what the adviser reasons over. The full
            /// retained history (up to `max`) is longer; it serves novelty
            /// detection, which must survive window shrinks.
            pub fn snapshot(&self) -> Vec<AccessPattern> {
                let start = self.patterns.len().saturating_sub(self.size);
                self.patterns().skip(start).cloned().collect()
            }

            /// Total workload shifts detected so far.
            pub fn shifts_detected(&self) -> u64 {
                self.shifts_detected
            }

            fn is_novel_footprint(&self, fp: &Footprint) -> bool {
                if self.patterns.is_empty() {
                    return false;
                }
                // The bound must be at least `shift_votes`: the first few queries
                // of a genuinely new phase land in history and must not make each
                // other look familiar before the votes accumulate. A recurring
                // class (≥ shift_votes occurrences across the retained history)
                // is never novel.
                self.similar(fp) < self.config.shift_votes.min(self.patterns.len())
            }

            /// How many retained patterns are at least `novelty_threshold`
            /// similar to `fp`.
            fn similar(&self, fp: &Footprint) -> usize {
                self.patterns
                    .iter()
                    .filter(|(_, p)| p.similarity(fp) >= self.config.novelty_threshold)
                    .count()
            }

            /// Records one query's access pattern. Returns `true` if this
            /// observation completed an adaptation interval — i.e. the engine
            /// should run an adaptation round now.
            pub fn observe(&mut self, pat: AccessPattern) -> bool {
                // Shift detection before inserting (compare against history only).
                let fp = Footprint::of(&pat);
                if self.is_novel_footprint(&fp) {
                    self.novel_streak += 1;
                    if self.novel_streak >= self.config.shift_votes {
                        self.on_shift();
                        self.novel_streak = 0;
                    }
                } else {
                    self.novel_streak = 0;
                }

                self.patterns.push_back((pat, fp));
                while self.patterns.len() > self.config.max {
                    self.patterns.pop_front();
                }
                self.since_adapt += 1;
                self.since_adapt >= self.size
            }

            /// Marks an adaptation round as completed; while the workload is stable
            /// the window grows by `grow_step` (capped at `max`).
            pub fn adaptation_done(&mut self) {
                self.since_adapt = 0;
                self.size = (self.size + self.config.grow_step).min(self.config.max);
            }

            /// Shift reaction: shrink the window so the next adaptation happens
            /// sooner. The retained pattern history is deliberately *not* trimmed:
            /// novelty detection needs it to recognize returning classes, otherwise
            /// a shrunken window makes familiar queries look novel and the window
            /// pins itself at the minimum. The adviser already sees only the last
            /// `size` patterns via [`Self::snapshot`].
            fn on_shift(&mut self) {
                self.shifts_detected += 1;
                let new_size = ((self.size as f64) * self.config.shrink_factor).floor() as usize;
                self.size = new_size.max(self.config.min);
            }
        }
    }

    /// A seeded query stream of at least `len` patterns in phases of
    /// 10–300 queries. Each phase draws from its own pool of 2–5 classes
    /// over an 8-attribute slice of a 48-attribute domain, so a phase
    /// switch usually brings novel patterns; one phase in four also
    /// replays the previous phase's pool (oscillation), and one query in
    /// sixteen is noise from anywhere in the domain.
    fn phased_stream(seed: u64, len: usize) -> Vec<AccessPattern> {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let draw = |rng: &mut Rng, base: usize, span: usize| {
            let mut p = pat(&[]);
            p.select = (0..1 + rng.below(4))
                .map(|_| base + rng.below(span))
                .collect();
            p.where_ = (0..rng.below(3)).map(|_| base + rng.below(span)).collect();
            p.selectivity = rng.below(1_000) as f64 / 1_000.0;
            p.output_width = p.select.len();
            p
        };
        let mut out = Vec::with_capacity(len + 300);
        let mut prev: Vec<AccessPattern> = Vec::new();
        while out.len() < len {
            let base = rng.below(40);
            let pool: Vec<AccessPattern> = (0..2 + rng.below(4))
                .map(|_| draw(&mut rng, base, 8))
                .collect();
            let oscillate = !prev.is_empty() && rng.below(4) == 0;
            for _ in 0..10 + rng.below(291) {
                let p = if rng.below(16) == 0 {
                    draw(&mut rng, 0, 48)
                } else if oscillate && rng.below(2) == 0 {
                    prev[rng.below(prev.len())].clone()
                } else {
                    pool[rng.below(pool.len())].clone()
                };
                out.push(p);
            }
            prev = pool;
        }
        out
    }

    #[test]
    fn constant_dynamics_match_the_settable_window_step_for_step() {
        let old_default = reference::WindowConfig::default();
        let cases = [
            (WindowConfig::default(), old_default),
            (
                WindowConfig {
                    initial: 30,
                    min: 5,
                    max: 60,
                },
                reference::WindowConfig {
                    initial: 30,
                    min: 5,
                    max: 60,
                    shrink_factor: 0.5,
                    grow_step: 5,
                    ..old_default
                },
            ),
            (WindowConfig::fixed(20), reference::WindowConfig::fixed(20)),
            (WindowConfig::fixed(30), reference::WindowConfig::fixed(30)),
        ];
        let seeds = if cfg!(debug_assertions) { 6 } else { 48 };
        for (cfg, old_cfg) in cases {
            let (mut shifts, mut grew, mut rounds) = (0, false, 0);
            for seed in 0..seeds {
                let mut new = MonitoringWindow::new(cfg);
                let mut old = reference::MonitoringWindow::new(old_cfg);
                for (step, p) in phased_stream(seed, 2_000).into_iter().enumerate() {
                    let at = format!("{cfg:?}, seed {seed}, step {step}");
                    let due = new.observe(p.clone());
                    assert_eq!(due, old.observe(p), "{at}: observe");
                    if due {
                        new.adaptation_done();
                        old.adaptation_done();
                        rounds += 1;
                    }
                    assert_eq!(new.size(), old.size(), "{at}: size");
                    assert_eq!(new.shifts_detected(), old.shifts_detected(), "{at}");
                    assert_eq!(new.snapshot(), old.snapshot(), "{at}: snapshot");
                    grew |= new.size() > cfg.initial;
                }
                shifts += new.shifts_detected();
            }
            // The stream must drive each window through what it can do.
            assert!(rounds > seeds * 10, "{cfg:?}: {rounds} rounds");
            if cfg.min == cfg.max {
                assert_eq!(shifts, 0, "{cfg:?}");
            } else {
                assert!(shifts >= seeds, "{cfg:?}: {shifts} shifts");
                assert!(grew, "{cfg:?} never grew");
            }
        }
    }
}
