//! # h2o-adapt — H2O's adaptation mechanism
//!
//! The continuous-adaptation half of the system (SIGMOD 2014 §3.2):
//!
//! * [`MonitoringWindow`] — the dynamic window of the last N query access
//!   patterns. The window *shrinks* when workload-shift detection fires
//!   (new access patterns unlike recent history) to force an earlier
//!   adaptation phase, and *grows back* while the workload is stable
//!   (Fig. 9's static-vs-dynamic window experiment).
//! * [`AffinityMatrix`] — attribute-affinity statistics in the style of
//!   Navathe et al., kept **separately for the select and the where
//!   clause** ("differentiating between attributes in the select and the
//!   where clause allows H2O to consider appropriate data layouts according
//!   to the query access patterns").
//! * [`Adviser`] — candidate layout generation and selection: seeds the
//!   search with the narrowest per-query groups, iteratively merges groups
//!   while the Eq. 1 objective improves, and keeps only candidates whose
//!   benefit over the window amortizes their transformation cost.
//!
//! The adviser only *recommends* layouts; materialization is lazy and
//! happens inside the engine (`h2o-core`) when a query actually benefits.
//! Everything here is single-threaded: the concurrent engine keeps the
//! window and its list of recommended groups behind one mutex each.

pub mod adviser;
pub mod affinity;
pub mod window;

pub use adviser::{Adviser, Recommendation};
pub use affinity::AffinityMatrix;
pub use window::{MonitoringWindow, WindowConfig};
