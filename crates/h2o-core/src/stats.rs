//! Engine statistics.

use std::time::Duration;

/// Counters the engine maintains across its lifetime. These power the
/// benchmark harness' reporting (e.g. Fig. 8 splits layout-creation time
/// from query-execution time) and the engine's own introspection API.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries executed.
    pub queries: u64,
    /// Adaptation rounds run (adviser invocations).
    pub adaptations: u64,
    /// Adaptation rounds that produced at least one candidate.
    pub recommendations: u64,
    /// Layouts materialized, by any path: fused with a query (lazy),
    /// background `maintain()` builds, or explicit `materialize_now`.
    pub layouts_created: u64,
    /// Always 0: no path evicts a layout. Kept because the frozen
    /// benchmark harness reads it.
    pub layouts_evicted: u64,
    /// Tuples appended through the write path.
    pub rows_appended: u64,
    /// Payload bytes cloned by copy-on-write appends: when a published
    /// snapshot still shares a group's last tail chunk, the batch clones
    /// that one chunk. Bounded by (groups × one 1 024-row chunk) per batch
    /// — *not* by tail or relation size — which is the invariant the
    /// segmented-storage tests pin down.
    pub bytes_cloned_on_write: u64,
    /// Payload segments sealed (filled to capacity, immutable from then
    /// on) by the append path.
    pub segments_sealed: u64,
    /// Sealed-segment runs skipped by zone-map pruning: scans consult the
    /// per-attribute min/max statistics recorded when a segment seals and
    /// skip whole segments no predicate of the conjunction can match in.
    pub segments_skipped: u64,
    /// Qualifying join-probe rows whose hash lookup was skipped because
    /// the build-side join filter (blocked bloom + exact key range)
    /// proved the key absent.
    pub probe_bloom_rejects: u64,
    /// Workload shifts detected by the monitoring window.
    pub shifts_detected: u64,
    /// `DbSnapshot`s atomically published (appends, relation bindings,
    /// layout creations, drops — each is one swap readers pick up).
    pub snapshots_published: u64,
    /// Wall-clock time spent building layouts, by the same paths as
    /// [`Self::layouts_created`]. A fused build's time includes answering
    /// its triggering query.
    pub reorg_time: Duration,
    /// Wall-clock time spent running the adviser.
    pub advise_time: Duration,
    /// Queries whose execution panicked. The panic is isolated — caught at
    /// the engine boundary and surfaced as
    /// [`EngineError::ExecutionPanicked`](crate::EngineError) — so the
    /// engine stays fully usable afterwards.
    pub queries_panicked: u64,
    /// Queries stopped early because their
    /// [`CancelToken`](h2o_exec::CancelToken) was cancelled.
    pub queries_cancelled: u64,
    /// Queries stopped early because their deadline expired
    /// ([`EngineError::Timeout`](crate::EngineError)).
    pub queries_timed_out: u64,
    /// Queries stopped early because their morsel budget ran out
    /// ([`EngineError::BudgetExhausted`](crate::EngineError)).
    pub queries_budget_exhausted: u64,
    /// Maintenance rounds that panicked inside the supervised reorganizer
    /// thread (each is caught; the thread never dies).
    pub reorg_panics: u64,
    /// Times the supervised reorganizer resumed pumping after a panic
    /// (post-backoff restarts).
    pub reorg_restarts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = EngineStats::default();
        assert_eq!(s.queries, 0);
        assert_eq!(s.layouts_created, 0);
        assert_eq!(s.bytes_cloned_on_write, 0);
        assert_eq!(s.segments_sealed, 0);
        assert_eq!(s.segments_skipped, 0);
        assert_eq!(s.probe_bloom_rejects, 0);
        assert_eq!(s.snapshots_published, 0);
        assert_eq!(s.reorg_time, Duration::ZERO);
        assert_eq!(s.queries_panicked, 0);
        assert_eq!(s.queries_cancelled, 0);
        assert_eq!(s.queries_timed_out, 0);
        assert_eq!(s.reorg_panics, 0);
        assert_eq!(s.reorg_restarts, 0);
    }
}
