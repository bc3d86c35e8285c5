//! Engine configuration.

use h2o_adapt::WindowConfig;
use h2o_exec::parallel::{DEFAULT_MORSEL_ROWS, DEFAULT_SERIAL_THRESHOLD};
use h2o_exec::{CompileCostModel, ExecPolicy};
use std::time::Duration;

/// Everything about the adaptive engine a caller can set. The defaults
/// reproduce the paper's setup scaled to this environment — with one
/// deliberate deviation: intra-query parallelism defaults to all available
/// cores, where the paper's prototype is single-threaded (use
/// [`EngineConfig::single_threaded`] for paper-faithful comparisons, as
/// the figure-reproduction binaries do). "Hands-free" means no field is
/// *required*; the adviser's and the cost model's constants are not
/// fields at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Dynamic monitoring window configuration (§3.2). The paper's Fig. 7
    /// run starts at 20 queries.
    pub window: WindowConfig,
    /// Inert; `benchmark/` (frozen) sets it in its struct literals.
    pub compile_cost: CompileCostModel,
    /// Operator cache capacity (number of generated operators retained).
    pub opcache_capacity: usize,
    /// Master switch for the adaptation mechanism. With `false` the engine
    /// degenerates to a fixed-layout engine with cost-based strategy choice
    /// (useful for ablations).
    pub adaptive: bool,
    /// Storage budget in bytes for *all* layouts together, or `None` for
    /// unlimited. When an adaptive build — lazy (fused with a query) or
    /// background (`maintain()`) — would exceed the budget, the engine
    /// first evicts least-recently-used redundant layouts; if no layout
    /// can be evicted safely, the build is skipped. An explicit
    /// [`H2oEngine::materialize_now`](crate::H2oEngine::materialize_now)
    /// is never budgeted. (The paper motivates this: "there is not enough
    /// space to store these alternatives" is exactly why H2O cannot
    /// prepare every layout.)
    pub space_budget_bytes: Option<usize>,
    /// Intra-query worker threads (morsel-driven parallelism — a deviation
    /// from the paper's single-threaded prototype; see
    /// `h2o_exec::parallel`). `None` uses the host's available
    /// parallelism; `Some(1)` forces the paper-faithful serial path.
    pub parallelism: Option<usize>,
    /// Rows per morsel for parallel scans.
    pub morsel_rows: usize,
    /// Serial fallback: relations with at most this many rows always
    /// execute on the calling thread, so tiny scans never pay fork/join
    /// overhead.
    pub parallel_row_threshold: usize,
    /// Moves adaptive reorganization off the query path. With `false` (the
    /// default, the paper's behavior) a query that benefits from a pending
    /// layout materializes it *while answering* through the fused
    /// reorganization operator. With `true` queries never reorganize:
    /// adaptation rounds and layout builds run only inside
    /// [`H2oEngine::maintain`](crate::H2oEngine::maintain) — typically
    /// pumped by a background reorganizer thread
    /// ([`H2oEngine::spawn_reorganizer`](crate::H2oEngine::spawn_reorganizer))
    /// — which builds new groups from a snapshot and atomically publishes
    /// them while in-flight queries keep reading their own snapshots.
    pub background_reorg: bool,
    /// Default per-query deadline. When set, every
    /// [`H2oEngine::run`](crate::H2oEngine::run) call runs under an
    /// implicit [`CancelToken`](h2o_exec::CancelToken) armed with this
    /// timeout and fails with
    /// [`EngineError::Timeout`](crate::EngineError::Timeout) once it
    /// expires. Requests that set any stop-control option themselves — a
    /// deadline, a cancel token or a morsel budget
    /// ([`ExecOptions`](crate::ExecOptions)) — opt out of the implicit
    /// deadline. `None` (the default) never times queries out.
    pub query_deadline: Option<Duration>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            window: WindowConfig::default(),
            compile_cost: CompileCostModel::ZERO,
            opcache_capacity: 256,
            adaptive: true,
            space_budget_bytes: None,
            parallelism: None,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            parallel_row_threshold: DEFAULT_SERIAL_THRESHOLD,
            background_reorg: false,
            query_deadline: None,
        }
    }
}

impl EngineConfig {
    /// A configuration with adaptation disabled (static-layout ablation).
    pub fn non_adaptive() -> Self {
        EngineConfig {
            adaptive: false,
            ..EngineConfig::default()
        }
    }

    /// A configuration pinned to the paper's single-threaded execution
    /// model (useful for reproducing the paper's absolute numbers).
    pub fn single_threaded() -> Self {
        EngineConfig {
            parallelism: Some(1),
            ..EngineConfig::default()
        }
    }

    /// The execution-parallelism policy these knobs describe; handed to
    /// `h2o-exec` on every scan and reorganization.
    pub fn exec_policy(&self) -> ExecPolicy {
        ExecPolicy {
            parallelism: self.parallelism,
            morsel_rows: self.morsel_rows.max(1),
            serial_threshold: self.parallel_row_threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = EngineConfig::default();
        assert!(c.adaptive);
        assert_eq!(c.window.initial, 20);
        assert_eq!(c.query_deadline, None, "no implicit deadline by default");
    }

    #[test]
    fn presets() {
        assert!(!EngineConfig::non_adaptive().adaptive);
        assert!(!EngineConfig::default().background_reorg);
        assert_eq!(EngineConfig::single_threaded().parallelism, Some(1));
    }

    #[test]
    fn exec_policy_reflects_knobs() {
        let mut c = EngineConfig {
            parallelism: Some(4),
            morsel_rows: 1000,
            parallel_row_threshold: 50,
            ..EngineConfig::default()
        };
        let p = c.exec_policy();
        assert_eq!(p.threads(), 4);
        assert_eq!(p.morsel_rows, 1000);
        assert!(p.is_serial_for(50));
        assert!(!p.is_serial_for(5000));
        // morsel_rows = 0 is clamped rather than dividing by zero.
        c.morsel_rows = 0;
        assert_eq!(c.exec_policy().morsel_rows, 1);
    }
}
