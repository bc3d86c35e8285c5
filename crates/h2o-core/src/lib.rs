//! # h2o-core — the H2O adaptive engine
//!
//! The top of the stack: the engine of Fig. 3 in the paper, wiring together
//!
//! * the **Data Layout Manager** (`h2o-storage`'s catalog),
//! * the **Query Processor** ([`engine::H2oEngine::run`]): per query it
//!   enumerates `(covering layout set, execution strategy)` alternatives,
//!   prices them with the Eq. 2 cost model, and runs the winner through the
//!   **Operator Generator** (`h2o-exec`'s compile + operator cache),
//! * the **Adaptation Mechanism**: the dynamic monitoring window triggers
//!   the adviser periodically; recommended layouts become *pending* and are
//!   materialized **lazily** — the first query that can benefit from a
//!   pending layout executes through the fused reorganize-and-answer
//!   operator, paying the creation cost once while answering its own query
//!   (§3.2 "Data Reorganization").
//!
//! The crate also provides the two static baseline engines used throughout
//! the paper's evaluation ([`baseline::StaticEngine`]) — a row-store and a
//! column-store sharing this very code base, exactly as the paper's own
//! comparison does ("we use our own engines which share the same design
//! principles and much of the code base with H2O") — and the *optimal*
//! oracle ([`oracle`]) that answers each query from a perfectly tailored
//! layout (Fig. 7's fourth curve).

pub mod baseline;
pub mod config;
pub mod engine;
pub mod oracle;
pub mod request;
pub mod stats;

pub use baseline::{StaticEngine, StaticKind};
pub use config::EngineConfig;
pub use engine::{
    DbSnapshot, EngineError, H2oEngine, JoinReport, MaintenanceReport, QueryReport,
    ReorganizerHandle, ReorganizerStatus, Report, PRIMARY_RELATION, REORG_BACKOFF_BASE,
    REORG_BACKOFF_CAP,
};
pub use h2o_exec::{CancelReason, CancelToken};
pub use request::{ExecOptions, Outcome, Request};
pub use stats::EngineStats;
