//! Engine configuration.

use h2o_adapt::WindowConfig;
use h2o_exec::{CompileCostModel, ExecPolicy};

/// Everything about the adaptive engine a caller can set. The defaults
/// reproduce the paper's setup scaled to this environment — with one
/// deliberate deviation: intra-query parallelism defaults to all available
/// cores, where the paper's prototype is single-threaded (use
/// [`EngineConfig::single_threaded`] for paper-faithful comparisons, as
/// the figure-reproduction binaries do). "Hands-free" means no field is
/// *required*, and every field has a caller outside the tests: seven
/// settable values (the window's three, then `opcache_capacity`,
/// `adaptive`, `parallelism` and `background_reorg`). The adviser's and
/// the cost model's constants, the morsel shape and the join fast paths
/// are not fields at all.
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
    /// degenerates to a fixed-layout engine with cost-based cover choice
    /// (useful for ablations).
    pub adaptive: bool,
    /// Intra-query worker threads (morsel-driven parallelism — a deviation
    /// from the paper's single-threaded prototype; see
    /// `h2o_exec::parallel`). `None` uses the host's available
    /// parallelism; `Some(1)` forces the paper-faithful serial path.
    pub parallelism: Option<usize>,
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
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            window: WindowConfig::default(),
            compile_cost: CompileCostModel::ZERO,
            opcache_capacity: 256,
            adaptive: true,
            parallelism: None,
            background_reorg: false,
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

    /// The execution-parallelism policy handed to `h2o-exec` on every
    /// scan and reorganization: [`Self::parallelism`] workers over the
    /// default morsel shape ([`ExecPolicy::default`]).
    pub fn exec_policy(&self) -> ExecPolicy {
        ExecPolicy {
            parallelism: self.parallelism,
            ..ExecPolicy::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_exec::parallel::{DEFAULT_MORSEL_ROWS, DEFAULT_SERIAL_THRESHOLD};

    #[test]
    fn defaults() {
        let c = EngineConfig::default();
        assert!(c.adaptive);
        assert_eq!(c.window.initial, 20);
    }

    /// Every settable value, by name. A new field fails to compile here
    /// until it is added — and counted in [`EngineConfig`]'s docs, which
    /// keep the settable values at seven.
    #[test]
    fn settable_values_are_the_documented_seven() {
        let EngineConfig {
            window: WindowConfig { initial, min, max },
            compile_cost: _, // inert
            opcache_capacity,
            adaptive,
            parallelism,
            background_reorg,
        } = EngineConfig::default();
        assert_eq!((initial, min, max), (20, 4, 200));
        assert_eq!(opcache_capacity, 256);
        assert!(adaptive);
        assert_eq!(parallelism, None);
        assert!(!background_reorg);
    }

    #[test]
    fn presets() {
        assert!(!EngineConfig::non_adaptive().adaptive);
        assert!(!EngineConfig::default().background_reorg);
        assert_eq!(EngineConfig::single_threaded().parallelism, Some(1));
    }

    #[test]
    fn exec_policy_keeps_the_default_morsel_shape() {
        let c = EngineConfig {
            parallelism: Some(4),
            ..EngineConfig::default()
        };
        let p = c.exec_policy();
        assert_eq!(p.threads(), 4);
        assert_eq!(p.morsel_rows, DEFAULT_MORSEL_ROWS);
        assert_eq!(p.serial_threshold, DEFAULT_SERIAL_THRESHOLD);
        assert!(p.is_serial_for(DEFAULT_SERIAL_THRESHOLD));
        assert!(!p.is_serial_for(2 * DEFAULT_MORSEL_ROWS + 1));
        assert_eq!(EngineConfig::default().exec_policy(), ExecPolicy::default());
    }
}
