//! # h2o-server — a line-delimited JSON query front end over the
//! concurrent H2O engine
//!
//! The engine built by the crates below this one is embeddable: callers
//! link `h2o-core` and call [`H2oEngine::run`](h2o_core::H2oEngine::run)
//! with a [`Request`](h2o_core::Request). This crate puts that same
//! entry point behind a TCP socket so external clients can drive the
//! adaptive store while the background reorganizer churns layouts
//! underneath — the serving shape the paper's "queries as advice"
//! design implies (§3.2: workload arrives one query at a time, and the
//! system adapts online).
//!
//! Design points, all deliberately boring:
//!
//! * **Thread-per-connection over a blocking accept loop.** No async
//!   runtime — the build is offline/vendored-only, and the engine's
//!   morsel parallelism already saturates cores; session threads just
//!   block on [`H2oEngine::run`](h2o_core::H2oEngine::run).
//! * **One protocol↔engine conversion.** The wire `"opts"` object
//!   mirrors [`ExecOptions`](h2o_core::ExecOptions) field-for-field;
//!   [`protocol::options_from_json`] is the only place the two meet.
//! * **Typed errors end-to-end.** Every failure renders as
//!   `{"err":{"kind":...,"msg":...}}` where `msg` reuses the
//!   rendered-message taxonomy of `WireError`/`EngineError` verbatim —
//!   see [`ServerError`].
//! * **Admission control.** A bounded in-flight count plus a bounded
//!   wait queue; excess load is shed with a typed `"overloaded"` error
//!   instead of queuing without bound ([`admission`]).
//! * **Prepared statements.** Per-session, rebound positionally per
//!   `"exec"`; the rebound query keeps its plan shape so the engine's
//!   operator cache serves repeat executions without recompiling.
//! * **Graceful shutdown.** [`ServerHandle::shutdown`] drains in-flight
//!   requests, joins every session, and stops the supervised
//!   reorganizer the server owns.
//!
//! See `crates/h2o-server/README.md` for the protocol reference.

pub mod admission;
pub mod error;
pub mod protocol;
pub mod server;

pub use admission::{Admission, Permit};
pub use error::ServerError;
pub use protocol::{options_from_json, Statement, WireRequest};
pub use server::{Server, ServerConfig, ServerHandle, ServerStats};
