//! # h2o-cost — the H2O cost model
//!
//! Implements the paper's two cost formulas (SIGMOD 2014 §3.2, §3.5):
//!
//! * **Eq. 2 — query cost**: `q(L) = Σ_i max(cost_IO_i, cost_CPU_i)` over
//!   the layouts `L` a plan reads, assuming disk I/O and CPU overlap. Data
//!   is memory-resident here, as in the paper's experiments, so the I/O
//!   term is zero and only the CPU term is modelled. It is estimated from
//!   **data cache misses** ("they can provide a
//!   good indication regarding the expected execution cost of query plans"),
//!   following the HYRISE-style cache-line model the paper cites, plus
//!   per-value compute and intermediate-result materialization terms.
//! * **Eq. 1 — configuration cost**:
//!   `cost(W, C_i) = Σ_j q_j(C_i) + T(C_{i-1}, C_i)` — the cost of a whole
//!   monitoring window under a candidate layout configuration, including
//!   the transformation cost `T` of materializing the new layouts. This is
//!   the objective the adaptation mechanism minimizes. The model supplies
//!   its terms — `q_j` of one pattern under its best plan
//!   ([`CostModel::best_plan`]) and `T` of one new group
//!   ([`CostModel::transform_cost`]); the window sum, with amortization,
//!   is the adviser's (`h2o-adapt`), and exists only there.
//!
//! [`CostModel::best_plan`] is the one place a cover is chosen: the query planner runs the plan it returns, and the adviser,
//! the engine's lazy "can it benefit" check and AutoPart price exactly
//! that plan.
//!
//! The model is deliberately *relative*: its job is to rank alternatives
//! (plans in the query processor, candidate configurations in the
//! adaptation mechanism), not to predict wall-clock seconds; its machine
//! parameters are constants at the top of [`model`].

pub mod model;
pub mod pattern;

pub use model::{CostModel, GroupSpec, JoinRole, PricedPlan};
pub use pattern::AccessPattern;
