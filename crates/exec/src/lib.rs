//! # pdb-exec
//!
//! The relational execution engine the SPROUT operator plugs into. The paper
//! extends PostgreSQL; this crate provides the equivalent substrate as an
//! in-memory engine:
//!
//! * [`annotated`] — intermediate results that carry, per source relation,
//!   the variable (`V`) and probability (`P`) columns of the paper's data
//!   model. Keeping the variables is exactly what allows *any* join order to
//!   be used (Section V, "Preserving the variables during query evaluation is
//!   sufficient to understand the relationships between tuples in the query
//!   answer").
//! * [`ops`] — scans, selections, projections, natural joins, sorts and
//!   duplicate elimination over annotated results. A join indexes its
//!   smaller side in a flat chained index on its key cells' hash, computed
//!   and compared where the cells lie ([`key::join_row_hash`],
//!   [`key::join_equal`]), and streams the larger side through it; a sort
//!   normalizes its keys into `u64` runs ([`key`]), packs each row's
//!   range-compressed key into one machine word and radix-sorts that; duplicate elimination
//!   is sort-based. Every hot-path operator has one governed spelling,
//!   `op_ctx(input…, pool, ctx)`, plus a bare `op(input…)` convenience on
//!   the default pool. The join emits exactly what the nested loop of its
//!   definition would, in the same order; the tests hold it to that loop.
//! * [`KeyRuns`] — the grouping shell every aggregation shares: rows sorted
//!   on normalized keys, cut into runs on the sorted packed words, one
//!   output row per run, its buffers charged to the memory budget. An input
//!   that arrives in key order is recognised by one pass over adjacent rows
//!   and builds no keys; one that is its own output but for the lineage
//!   keeps its data arena. The one-scan confidence operator, the multi-scan
//!   pre-aggregations and the eager plan's aggregations differ only in the
//!   fold they run per run.
//! * [`columnar`] — the columnar fast path of the base-table scans:
//!   vectorized fused scan-filter-project over
//!   [`pdb_storage::ColumnarTable`]s with zone-map chunk skipping,
//!   bitwise-identical to the row-at-a-time scan. [`ops`] dispatches on the
//!   catalog's [`pdb_storage::StorageBacking`].
//! * [`extensional`] — how a MystiQ-style safe plan (Fig. 2) combines the
//!   probabilities of duplicates: the stable complement-product or MystiQ's
//!   fragile log-space emulation. The plans themselves run on [`ops`] and
//!   [`KeyRuns`] like every other plan; there is no extensional relation
//!   type.
//! * [`pipeline`] — evaluation of a conjunctive query under an explicit join
//!   order (with late string materialization on columnar backings),
//!   producing the annotated answer the confidence-computation operator
//!   consumes.

pub mod annotated;
pub mod columnar;
pub mod error;
pub mod extensional;
pub mod fixtures;
pub mod kernel;
pub mod key;
pub mod ops;
pub mod pipeline;
mod runs;

pub use annotated::{Annotated, AnnotatedRow, RowRef};
pub use columnar::ColumnarScanStats;
pub use error::{ExecError, ExecResult};
pub use pdb_govern::{ExecContext, GovernorBuilder, QueryGovernor, SproutError, Stage};
pub use pipeline::{evaluate_join_order, evaluate_join_order_ctx};
pub use runs::KeyRuns;
