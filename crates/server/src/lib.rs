//! # sprout-server
//!
//! A concurrent query service around [`sprout::SproutDb`]: an offline
//! HTTP/1.1 server on `std::net` (no external dependencies) with a small
//! wire protocol for registering tuple-independent tables, submitting
//! conjunctive queries with `conf()`, and streaming ranked answers.
//!
//! The point of the crate is the robustness layer, not the protocol:
//!
//! * **Admission control** — a bounded scheduler multiplexes every query
//!   over *one* shared worker-thread budget; each admitted query gets a
//!   morsel-budget share of it ([`admission`]).
//! * **Overload shedding** — full queue → `429`, queue timeout → `503`,
//!   both with `Retry-After`; the server never falls over, it says no.
//! * **Graceful degradation** — per-request deadlines and memory budgets
//!   ride the engine's governor; anytime-bounds queries return the best
//!   bracket reached at the deadline instead of failing.
//! * **Panic isolation** — a panic in any request handler (injected or
//!   real) becomes a well-formed `500`, never a dead server.
//! * **Graceful shutdown** — [`SproutServer::shutdown`] drains in-flight
//!   queries and answer streams, rejecting new work with `503`.
//! * **Observability** — `GET /metrics` renders the process-wide `pdb-obs`
//!   registry (admission gauges, per-stage latency histograms, sheds by
//!   code, deterministic engine counter totals) as Prometheus text;
//!   `GET /debug/queries` lists in-flight queries plus a ring of recent
//!   ones; `POST /query` accepts `"explain": "plan"` (describe the chosen
//!   plan without executing) and `"explain": "analyze"` (execute with span
//!   tracing and append a trailer line carrying the plan, the executed span
//!   tree, and the counter set).
//!
//! Because the engine is bitwise-deterministic at every pool size, answers
//! served under any admission schedule are bitwise-identical to
//! [`sprout::SproutDb::query_with_options`] run directly — the integration
//! tests and `sprout_bench`'s `serve_mixed` workload assert exactly that.
//!
//! ```no_run
//! use sprout_server::{ServerConfig, SproutServer};
//!
//! let db = sprout::SproutDb::new();
//! let server = SproutServer::bind(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! println!("serving on {}", server.addr());
//! server.shutdown();
//! ```

pub mod admission;
pub mod error;
pub mod http;
pub mod json;
pub mod metrics;
pub mod proto;
pub mod server;

pub use admission::{AdmissionControl, Admit, Lease, ShedInfo};
pub use error::WireError;
pub use json::Json;
pub use metrics::ServerMetrics;
pub use proto::{QueryRequest, TableSpec};
pub use server::{ServerConfig, SproutServer};
