//! # sprout-plan
//!
//! Query plans for confidence computation: the lazy, eager and hybrid plans
//! of Section V.B (Fig. 7) and the MystiQ-style safe plans of Fig. 2 that the
//! paper compares against.
//!
//! * [`stats`] — per-table statistics and selectivity estimation.
//! * [`join_order`] — greedy cost-based join ordering (what the host engine's
//!   optimizer does for SPROUT) and the query-tree-driven join order that
//!   safe plans are restricted to.
//! * [`placement`] — the operator-placement rules of Section V.B: restricting
//!   a signature to the tables of a subplan and splitting propagation steps
//!   that are not yet valid (Example V.6).
//! * [`lazy`] — lazy plans: compute the answer tuples under the best join
//!   order, sort once, run the confidence operator at the very end.
//! * [`eager`] — eager plans: aggregate after each table and after each join,
//!   following the query tree (Fig. 7 (a)).
//! * [`hybrid`] — hybrid plans: push the per-table aggregations of a chosen
//!   subset of relations below the joins and finish lazily (Fig. 7 (b)).
//! * [`fallback`] — fallback plans for unsafe queries: lazy joins, then
//!   per-tuple read-once factorization (exact) or anytime dissociation
//!   bounds, under an [`ApproxPolicy`].
//! * [`safe`] — MystiQ plans: the extensional safe plan, which is the eager
//!   plan's tree walk with MystiQ's join order (deepest subtree first) and
//!   either the stable or the log-space probability aggregation (Section
//!   VII). Same operators, pool and governor as the other plans.
//! * [`planner`] — a small facade choosing and executing plans under one
//!   [`QueryOptions`] bundle, reporting the timings the benchmark harness
//!   consumes.
//! * [`explain`] — the planner's decision procedure as data (EXPLAIN),
//!   without executing.

pub mod eager;
pub mod error;
pub mod explain;
pub mod fallback;
pub mod hybrid;
pub mod join_order;
pub mod lazy;
pub mod placement;
pub mod planner;
pub mod safe;
pub mod stats;

pub use error::{PlanError, PlanResult};
pub use explain::{ExplainPath, ExplainScan, PlanExplain};
pub use fallback::FallbackPlan;
pub use pdb_conf::{ApproxPolicy, ApproxResult, ConfMethod, TupleConfidence};
pub use pdb_govern::{
    Counter, ExecContext, GovernorBuilder, QueryGovernor, QueryObs, SpanGuard, SpanNode,
    SproutError, Stage,
};
pub use pdb_par::Pool;
pub use planner::{ExplainMode, PlanKind, PlanReport, Planner, QueryOptions};
