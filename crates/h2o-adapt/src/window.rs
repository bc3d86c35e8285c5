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

use h2o_cost::AccessPattern;
use h2o_storage::AttrSet;
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
    /// than two similar patterns exist in the window — a lone earlier
    /// occurrence of the same new pattern does not make it familiar, but a
    /// recurring workload class (seen twice or more) is never novel. The
    /// bound is intentionally *not* relative to the window length: after a
    /// shift shrinks the window, a short history must not make returning
    /// classes look novel (that feedback loop would pin the window at its
    /// minimum).
    pub fn is_novel(&self, pat: &AccessPattern) -> bool {
        self.is_novel_footprint(&Footprint::of(pat))
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
            ..WindowConfig::default()
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
            max: 10,
            grow_step: 3,
            ..WindowConfig::default()
        };
        let mut w = MonitoringWindow::new(cfg);
        assert_eq!(w.size(), 4);
        w.adaptation_done();
        assert_eq!(w.size(), 7);
        w.adaptation_done();
        assert_eq!(w.size(), 10);
        w.adaptation_done();
        assert_eq!(w.size(), 10, "capped at max");
    }

    #[test]
    fn shift_shrinks_window() {
        let cfg = WindowConfig {
            initial: 16,
            min: 4,
            max: 32,
            shrink_factor: 0.5,
            novelty_threshold: 0.3,
            shift_votes: 2,
            ..WindowConfig::default()
        };
        let mut w = MonitoringWindow::new(cfg);
        for _ in 0..8 {
            w.observe(pat(&[0, 1, 2]));
        }
        assert_eq!(w.size(), 16);
        // Disjoint access pattern: novel. Two votes fire the shift.
        w.observe(pat(&[50, 51]));
        assert_eq!(w.size(), 16, "one novel query is not yet a shift");
        w.observe(pat(&[50, 51]));
        assert_eq!(w.size(), 8, "shift halves the window");
        assert_eq!(w.shifts_detected(), 1);
    }

    #[test]
    fn similar_queries_reset_novel_streak() {
        let cfg = WindowConfig {
            shift_votes: 2,
            ..WindowConfig::default()
        };
        let mut w = MonitoringWindow::new(cfg);
        for _ in 0..5 {
            w.observe(pat(&[0, 1, 2]));
        }
        w.observe(pat(&[50, 51])); // novel
        w.observe(pat(&[0, 1, 2])); // familiar: resets streak
        w.observe(pat(&[50, 51])); // novel again, streak = 1
        assert_eq!(
            w.shifts_detected(),
            0,
            "oscillation must not trigger a shift"
        );
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
        w.adaptation_done();
        assert_eq!(w.size(), 30);
    }

    #[test]
    fn history_bounded_by_max() {
        let cfg = WindowConfig {
            initial: 4,
            min: 2,
            max: 6,
            ..WindowConfig::default()
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
            initial: 16,
            min: 4,
            max: 32,
            shrink_factor: 0.25,
            novelty_threshold: 0.3,
            shift_votes: 1,
            ..WindowConfig::default()
        };
        let mut w = MonitoringWindow::new(cfg);
        for _ in 0..12 {
            w.observe(pat(&[0, 1]));
        }
        w.observe(pat(&[40, 41])); // immediate shift (1 vote)
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

    #[test]
    fn kept_footprints_count_the_same_similar_patterns_as_rebuilt_sets() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
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
            if next(8) != 0 {
                p.select = (0..next(4)).map(|_| next(10)).collect();
                p.where_ = (0..next(3)).map(|_| next(10)).collect();
            }
            empty += usize::from(p.all_attrs().is_empty());
            let want = w
                .patterns()
                .filter(|q| rebuilt_similarity(q, &p) >= cfg.novelty_threshold)
                .count();
            assert_eq!(w.similar(&Footprint::of(&p)), want);
            let bound = cfg.shift_votes.min(w.len());
            assert_eq!(w.is_novel(&p), !w.is_empty() && want < bound);
            w.observe(p);
        }
        assert!(empty > 100, "empty footprints must be exercised: {empty}");
        assert!(w.shifts_detected() > 0, "the sequence must shift");
    }
}
