//! # h2o-exec — the execution kernel and on-the-fly operator generation
//!
//! This crate is H2O's *Operator Generator* and execution engine (SIGMOD
//! 2014 §3.3–§3.4). The paper generates C++ source per (query shape, layout
//! combination), compiles it with an external compiler and dynamically links
//! it; the performance substance of that design is:
//!
//! 1. **no interpretation overhead** — the per-tuple inner loop contains
//!    only the work of the query, with operator/expression dispatch resolved
//!    *outside* the loop;
//! 2. **layout-tailored access patterns** — a different loop per layout
//!    combination (a scan over one group or several, a column at a time
//!    over a column layout's arrays);
//! 3. **an operator cache** amortizing generation cost across queries.
//!
//! We reproduce (1) and (2) with *monomorphized kernels*: compiled Rust
//! loops specialized by shape ([`kernels`]), selected at run time by
//! compiling a [`Query`](h2o_expr::Query) + [`AccessPlan`]
//! into a [`CompiledOp`] of flat, offset-resolved
//! programs. (3) is the [`OperatorCache`]; a miss
//! pays the real cost of instantiating a kernel (microseconds, against the
//! paper's 10–150 ms external compiler, §4) and the cache reports the
//! measured total.
//!
//! The paper's operator generator picks among three access strategies
//! (§3.3); this crate runs one, [`Strategy::FusedVolcano`](plan::Strategy):
//! one pass over one or more groups, predicates pushed into the scan,
//! select-items computed per 1K-row block of qualifying tuples, no
//! intermediate results (Fig. 5). The other two are this pass with a
//! different unit of work. The two-phase selection-vector plan (Fig. 6)
//! found its rows with the same walker and folded them through the same
//! batch step, holding a morsel's ids where the scan holds a block's. The
//! column-at-a-time plan of a column layout (§2.1) kept one strength, a
//! loop over one contiguous array; the scan keeps it with block-sized
//! vectors (see [`kernels`]), so nothing needs whole-morsel intermediate
//! columns.
//!
//! # Morsel-driven parallelism (deviation from the paper)
//!
//! The paper's prototype executes every query on a single thread. This
//! reproduction adds **morsel-driven intra-query parallelism** ([`parallel`])
//! on top of the unchanged kernel loops: a scan is split into fixed-size
//! morsels of consecutive rows, a pool of scoped worker threads claims
//! morsels greedily off a shared atomic counter, and the per-morsel partial
//! results are re-assembled deterministically by the select shape's
//! **sink** ([`sink`]) —
//!
//! * **projections**: per-morsel [`QueryResult`](h2o_expr::QueryResult)
//!   blocks concatenated in morsel (= physical row) order;
//! * **aggregates**: per-morsel
//!   [`AggState`](h2o_expr::agg::AggState) partials merged in morsel order
//!   (wrapping sums, min/max and counts are associative);
//! * **grouped aggregates**: per-morsel tables merged in morsel order.
//!
//! There is **one execution path** per operator kind — [`run`] for
//! single-relation operators, [`run_join`] for joins,
//! [`reorg::reorg_and_execute`] for the fused reorganization operator —
//! each taking an [`ExecCtx`] (policy, optional stop token). The fused reorganization operator has no query loop of its
//! own: it stitches the new group in 1K-row chunks with
//! [`reorg::materialize`]'s loop and runs the scan kernels' fused source
//! over each chunk. A serial policy is the same driver over the single
//! range `0..rows` ([`parallel::run_ranges`]), so parallel execution returns
//! **bit-identical** results to serial for every layout, and serial
//! execution is bit-identical to the reference interpreter; the top-level
//! differential tests assert both. ([`execute`], [`execute_with_policy`],
//! [`execute_with_policy_stats`] and [`execute_join_with_policy`] are
//! one-line conveniences over the two `run`s.) [`ExecPolicy`] carries the
//! morsel shape (`parallelism`, `morsel_rows`, and a serial-fallback row
//! threshold so tiny relations never pay fork/join overhead). The engine
//! in `h2o-core` sets only `parallelism` (`EngineConfig::parallelism`) and
//! keeps the default morsel size and threshold; the bit-identity suites
//! construct policies with other shapes directly.

pub mod bind;
pub mod bloom;
pub mod cancel;
pub mod compile;
pub mod filter;
pub mod join;
pub mod kernels;
pub mod opcache;
pub mod parallel;
pub mod plan;
pub mod program;
mod rank;
pub mod reorg;
pub mod sink;

pub use bind::{BoundAttr, GroupViews, SegRun, SlotAccessor};
pub use bloom::JoinFilter;
pub use cancel::{CancelReason, CancelToken, CANCEL_CHECK_ROWS};
pub use compile::{
    compile, compile_checked, execute, execute_with_policy, execute_with_policy_stats, run,
    CompiledOp, ExecCtx, ExecError, ExecStats,
};
pub use filter::CompiledFilter;
pub use join::{
    compile_join, execute_join_with_policy, run_join, run_join_staged, CompiledJoinOp,
    CompiledJoinSide, FoldPlan, JoinExecStats, JoinStages, Stage,
};
pub use opcache::{CompileCostModel, OperatorCache, OperatorKey};
pub use parallel::ExecPolicy;
pub use plan::{AccessPlan, Strategy};
pub use program::CompiledExpr;
pub use sink::SelectProgram;
