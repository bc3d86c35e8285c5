//! Thread-shared adaptation state.
//!
//! The concurrent engine executes queries through `&self`, so the two
//! pieces of adaptation state that every query touches — the monitoring
//! window and the adviser's advice queue — live behind interior
//! mutability here. Both are deliberately coarse single mutexes: a window
//! observation is a few comparisons against at most `WindowConfig::max`
//! patterns, and the advice queue holds a handful of [`GroupSpec`]s, so
//! neither lock is ever held for meaningful time relative to a scan.

use crate::window::{MonitoringWindow, WindowConfig};
use h2o_cost::{AccessPattern, GroupSpec};
use parking_lot::Mutex;

/// A [`MonitoringWindow`] shareable across query threads.
///
/// Every method takes `&self`; the window itself is unchanged — this is a
/// locking shell, so the single-threaded window logic (and its tests) stay
/// the authority on shift detection and sizing.
#[derive(Debug)]
pub struct SharedWindow {
    inner: Mutex<MonitoringWindow>,
}

impl SharedWindow {
    /// Creates a shared window with the given configuration.
    pub fn new(config: WindowConfig) -> Self {
        SharedWindow {
            inner: Mutex::new(MonitoringWindow::new(config)),
        }
    }

    /// Records one query's access pattern; returns `true` when this
    /// observation completes an adaptation interval.
    pub fn observe(&self, pat: AccessPattern) -> bool {
        self.inner.lock().observe(pat)
    }

    /// The patterns of the current adaptation window (what the adviser
    /// reasons over).
    pub fn snapshot(&self) -> Vec<AccessPattern> {
        self.inner.lock().snapshot()
    }

    /// Current window size (queries between adaptation evaluations).
    pub fn size(&self) -> usize {
        self.inner.lock().size()
    }

    /// Number of recorded patterns available for analysis.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether no patterns are recorded yet.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Total workload shifts detected so far.
    pub fn shifts_detected(&self) -> u64 {
        self.inner.lock().shifts_detected()
    }

    /// Marks an adaptation round as completed (grows the window while the
    /// workload is stable).
    pub fn adaptation_done(&self) {
        self.inner.lock().adaptation_done()
    }
}

/// The queue of layouts the adviser has recommended but the engine has not
/// yet materialized — the hand-off point between the monitoring/advice side
/// and the (possibly background) reorganizer.
///
/// Specs are identified by their attribute sets. Removal is by value, not
/// by index: a concurrent adaptation round may replace the queue between a
/// reader's `get` and its `remove`, and a by-value remove degrades to a
/// harmless no-op in that race instead of evicting the wrong spec.
#[derive(Debug, Default)]
pub struct AdviceQueue {
    inner: Mutex<Vec<GroupSpec>>,
}

impl AdviceQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        AdviceQueue::default()
    }

    /// Whether the queue holds no advice.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Number of queued specs.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// A copy of the queued specs.
    pub fn get(&self) -> Vec<GroupSpec> {
        self.inner.lock().clone()
    }

    /// Replaces the queue with a fresh recommendation.
    pub fn replace(&self, specs: Vec<GroupSpec>) {
        *self.inner.lock() = specs;
    }

    /// Removes the first spec with this attribute set; returns whether one
    /// was present.
    pub fn remove(&self, spec: &GroupSpec) -> bool {
        let mut q = self.inner.lock();
        match q.iter().position(|g| g.attrs == spec.attrs) {
            Some(i) => {
                q.remove(i);
                true
            }
            None => false,
        }
    }

    /// Keeps only the specs for which `keep` returns `true`.
    pub fn retain(&self, keep: impl FnMut(&GroupSpec) -> bool) {
        self.inner.lock().retain(keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_storage::AttrSet;

    fn spec(ids: &[usize]) -> GroupSpec {
        GroupSpec::new(ids.iter().copied().collect::<AttrSet>())
    }

    #[test]
    fn queue_replace_get_remove() {
        let q = AdviceQueue::new();
        assert!(q.is_empty());
        q.replace(vec![spec(&[0, 1]), spec(&[2])]);
        assert_eq!(q.len(), 2);
        assert!(q.remove(&spec(&[2])));
        assert!(!q.remove(&spec(&[2])), "second removal is a no-op");
        let left = q.get();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].attrs, spec(&[0, 1]).attrs);
        assert!(q.remove(&left[0]));
        assert!(q.is_empty() && q.get().is_empty());
    }

    #[test]
    fn queue_retain() {
        let q = AdviceQueue::new();
        q.replace(vec![spec(&[0]), spec(&[1]), spec(&[0, 1])]);
        q.retain(|g| g.attrs.len() == 1);
        assert_eq!(q.len(), 2);
        q.retain(|_| false);
        assert!(q.is_empty());
    }

    #[test]
    fn shared_window_is_observable_through_shared_refs() {
        let w = SharedWindow::new(WindowConfig {
            initial: 3,
            min: 2,
            max: 10,
        });
        let pat = AccessPattern {
            select: [0usize, 1].into_iter().collect(),
            where_: AttrSet::new(),
            selectivity: 1.0,
            output_width: 2,
            select_ops: 2,
            is_aggregate: true,
            is_grouped: false,
        };
        assert!(!w.observe(pat.clone()));
        assert!(!w.observe(pat.clone()));
        assert!(w.observe(pat), "third observation completes the interval");
        w.adaptation_done();
        assert_eq!(w.snapshot().len(), 3);
        assert!(!w.is_empty());
        assert_eq!(w.len(), 3);
        assert_eq!(w.shifts_detected(), 0);
        assert!(w.size() >= 3);
    }

    #[test]
    fn shared_window_from_threads() {
        let w = SharedWindow::new(WindowConfig::default());
        std::thread::scope(|s| {
            for t in 0..4 {
                let w = &w;
                s.spawn(move || {
                    for i in 0..50 {
                        let pat = AccessPattern {
                            select: [(t + i) % 7].into_iter().collect(),
                            where_: AttrSet::new(),
                            selectivity: 0.5,
                            output_width: 1,
                            select_ops: 1,
                            is_aggregate: false,
                            is_grouped: false,
                        };
                        w.observe(pat);
                    }
                });
            }
        });
        assert_eq!(w.len().min(200), w.len(), "history stays bounded");
    }
}
