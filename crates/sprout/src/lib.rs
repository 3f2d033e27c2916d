//! # sprout
//!
//! The public facade of the SPROUT reproduction: scalable processing of
//! uncertain tables (Olteanu, Huang, Koch — ICDE 2009).
//!
//! A [`SproutDb`] owns a catalog of tuple-independent probabilistic tables,
//! their key / functional-dependency declarations, and a planner. Queries are
//! conjunctive queries without self-joins extended with the paper's `conf()`
//! aggregation: the answer of [`SproutDb::query`] is the set of distinct
//! answer tuples paired with their exact confidences.
//!
//! ```
//! use sprout::{SproutDb, PlanKind};
//! use pdb_exec::fixtures;
//! use pdb_query::cq::intro_query_q;
//!
//! // The Fig. 1 toy database with the TPC-H-style key declarations.
//! let db = SproutDb::from_catalog(fixtures::fig1_catalog_with_keys());
//! let report = db.query(&intro_query_q(), PlanKind::Lazy).unwrap();
//! assert_eq!(report.confidences.len(), 1);
//! assert!((report.confidences[0].1 - 0.0028).abs() < 1e-9);
//! ```
//!
//! Everything a query runs under beyond its plan kind — governor, fallback
//! policy, worker pool, seed, frontier cap, collector — is one
//! [`QueryOptions`] bundle, the [`Planner`]'s configuration, which
//! [`SproutDb::query_with_options`] and [`SproutDb::explain_with_options`]
//! hand to the planner unchanged.
//!
//! The crate re-exports the building blocks (queries, signatures, plans,
//! the confidence operator, the options bundle) so downstream users can drop
//! to the lower level when they need to.

use std::sync::Arc;

pub use pdb_conf::{ConfError, ConfidenceOperator, ConfidenceResult, Strategy};
pub use pdb_exec::ExecError;
pub use pdb_query::QueryError;
pub use pdb_query::{
    CompareOp, ConjunctiveQuery, FdSet, FunctionalDependency, Predicate, RelationAtom, Signature,
};
pub use pdb_storage::StorageError;
pub use pdb_storage::{
    total_f64_cmp, Catalog, DataType, ProbTable, Schema, Table, Tuple, Value, Variable,
};
pub use sprout_plan::{
    ApproxPolicy, ApproxResult, ConfMethod, Counter, ExecContext, ExplainMode, ExplainPath,
    ExplainScan, FallbackPlan, GovernorBuilder, PlanError, PlanExplain, PlanKind, PlanReport,
    PlanResult, Planner, Pool, QueryGovernor, QueryObs, QueryOptions, SpanGuard, SpanNode,
    SproutError, Stage, TupleConfidence,
};

/// A probabilistic database with the SPROUT confidence-computation engine on
/// top.
#[derive(Debug)]
pub struct SproutDb {
    catalog: Arc<Catalog>,
}

impl SproutDb {
    /// An empty database. Like [`SproutDb::from_catalog`], it sets the
    /// process's glibc heap thresholds on first use.
    pub fn new() -> SproutDb {
        SproutDb::from_catalog(Catalog::new())
    }

    /// Wraps an existing catalog.
    ///
    /// The first database a process creates also sets glibc's malloc
    /// thresholds for the whole process (64-bit Linux with glibc only):
    /// blocks under 32 MiB come from the heap instead of fresh mappings,
    /// and up to 128 MiB of freed heap top is kept instead of returned to
    /// the kernel. Queries then reuse the arenas the previous query freed
    /// instead of faulting them in again, and every thread of the process,
    /// not only the engine's, may hold that much freed memory.
    pub fn from_catalog(catalog: Catalog) -> SproutDb {
        keep_freed_query_heap();
        SproutDb {
            catalog: Arc::new(catalog),
        }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Registers a tuple-independent table.
    ///
    /// # Errors
    /// Fails if the name is already taken.
    pub fn register_table(&self, name: impl Into<String>, table: ProbTable) -> PlanResult<()> {
        self.catalog
            .register_table(name, table)
            .map_err(PlanError::from)
    }

    /// Declares a key (which the planner turns into functional dependencies).
    ///
    /// # Errors
    /// Fails on unknown tables or columns.
    pub fn declare_key(&self, table: &str, attrs: &[&str]) -> PlanResult<()> {
        self.catalog
            .declare_key(table, attrs)
            .map_err(PlanError::from)
    }

    /// Declares a functional dependency `table: lhs → rhs`.
    ///
    /// # Errors
    /// Fails on unknown tables or columns.
    pub fn declare_fd(&self, table: &str, lhs: &[&str], rhs: &[&str]) -> PlanResult<()> {
        self.catalog
            .declare_fd(table, lhs, rhs)
            .map_err(PlanError::from)
    }

    /// Whether `query` admits exact confidence computation in polynomial time
    /// under the declared dependencies (i.e. has a hierarchical FD-reduct).
    pub fn is_tractable(&self, query: &ConjunctiveQuery) -> bool {
        Planner::new(&self.catalog, &QueryOptions::default()).is_tractable(query)
    }

    /// The signature the confidence operator uses for `query`.
    ///
    /// # Errors
    /// Fails if the query is intractable.
    pub fn signature(&self, query: &ConjunctiveQuery) -> PlanResult<Signature> {
        Planner::new(&self.catalog, &QueryOptions::default()).signature(query)
    }

    /// Executes `query` with the given plan kind, returning the full report
    /// (confidences, tuple counts, timings).
    ///
    /// # Errors
    /// Fails if the query is intractable or a referenced table is missing.
    pub fn query(&self, query: &ConjunctiveQuery, kind: PlanKind) -> PlanResult<PlanReport> {
        Planner::new(&self.catalog, &QueryOptions::default()).execute(query, kind)
    }

    /// Executes `query` under a full [`QueryOptions`] bundle — the entry
    /// point the server's admission scheduler uses. Everything beyond the
    /// plan kind rides in the bundle (see [`QueryOptions`]): the governor,
    /// the fallback policy for unsafe queries, the worker pool, the fallback's
    /// seed and frontier cap, and the collector. Queries with a safe plan and
    /// no governor interruption answer bitwise as by [`Self::query`].
    ///
    /// # Errors
    /// Returns the full [`PlanError`] taxonomy (so callers can map, e.g.,
    /// [`PlanError::UnsafeQuery`]'s blocking attribute pair and
    /// [`PlanError::Governed`]'s interruption kind to typed wire errors).
    pub fn query_with_options(
        &self,
        query: &ConjunctiveQuery,
        opts: &QueryOptions,
    ) -> PlanResult<PlanReport> {
        Planner::new(&self.catalog, opts)
            .execute(query, opts.kind.clone().unwrap_or(PlanKind::Lazy))
    }

    /// Explains what [`Self::query`] would do for `query` under the given
    /// plan kind — safe plan vs. fallback, signature, join order, per-scan
    /// backing and pushdowns — without executing anything.
    ///
    /// # Errors
    /// Fails like planning would: unknown relations, or an unsafe query with
    /// no approximation policy.
    pub fn explain(&self, query: &ConjunctiveQuery, kind: PlanKind) -> PlanResult<PlanExplain> {
        Planner::new(&self.catalog, &QueryOptions::default()).explain(query, kind)
    }

    /// Explains under a full [`QueryOptions`] bundle — the planner
    /// [`Self::query_with_options`] executes with, so the explained decision
    /// (notably safe vs. fallback under the bundle's policy) matches
    /// execution exactly.
    ///
    /// # Errors
    /// See [`Self::explain`].
    pub fn explain_with_options(
        &self,
        query: &ConjunctiveQuery,
        opts: &QueryOptions,
    ) -> PlanResult<PlanExplain> {
        Planner::new(&self.catalog, opts)
            .explain(query, opts.kind.clone().unwrap_or(PlanKind::Lazy))
    }

    /// Executes `query` ignoring all declared functional dependencies — the
    /// "no FDs" configuration of the Fig. 13 experiment.
    ///
    /// # Errors
    /// Fails if the query is intractable without the dependencies.
    pub fn query_without_fds(
        &self,
        query: &ConjunctiveQuery,
        kind: PlanKind,
    ) -> PlanResult<PlanReport> {
        Planner::without_fds(&self.catalog, &QueryOptions::default()).execute(query, kind)
    }
}

/// Sets glibc's allocator, once per process, to keep the heap a query frees
/// for the next query. Every query allocates its arenas — answer rows,
/// lineage, sort keys, join indexes — and frees them when it ends. By
/// default glibc returns a freed top of the heap to the kernel once it
/// passes a threshold that adapts to the largest freed block, and serves
/// blocks above another adaptive threshold from fresh mappings, so each
/// query faults its arenas in page by page again: ≈ 10 400, 17 000–18 800
/// and 14 000–14 900 minor faults per steady-state pass of the benchmark's
/// `scan_conf`, `join_plans` and `unsafe_bounds` (SF 0.1, 0.05, 0.01).
/// Setting either threshold alone turns the adaptation off and faults
/// more. Both together, blocks under 32 MiB (glibc's 64-bit maximum) from
/// the heap and up to 128 MiB of free heap top kept, take all three to
/// ≈ 0, on one engine thread and on two. 16 / 128 MiB and 32 / 96 MiB do
/// too, at the same peak RSS; 32 / 64 MiB leaves `join_plans` at ≈ 20 000
/// faults per pass and 8 / 128 MiB at ≈ 3 800, so the pinned pair keeps
/// a margin on both sides. The cost is the freed memory held: +5 to +15 MB
/// of peak RSS on those workloads and +17 MB on the concurrent server
/// workload `serve_mixed`. Reused scratch in the operators would make
/// this unnecessary.
#[cfg(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64"))]
fn keep_freed_query_heap() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        // SAFETY: the binding matches glibc's `int mallopt(int, int)`, which
        // only sets malloc parameters, under the allocator's own lock, and
        // may be called at any time.
        let set = unsafe {
            [
                mallopt(M_MMAP_THRESHOLD, 32 << 20),
                mallopt(M_TRIM_THRESHOLD, 128 << 20),
            ]
        };
        // `mallopt` returns 1 on success, 0 for a value it rejects.
        debug_assert_eq!(set, [1, 1], "glibc rejected a malloc threshold");
    });
}

/// Other allocators and targets keep their own defaults.
#[cfg(not(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64")))]
fn keep_freed_query_heap() {}

impl Default for SproutDb {
    fn default() -> Self {
        SproutDb::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_exec::fixtures;
    use pdb_query::cq::{intro_query_q, intro_query_q_prime};
    use pdb_storage::tuple;

    #[test]
    fn facade_runs_the_guiding_query_end_to_end() {
        let db = SproutDb::from_catalog(fixtures::fig1_catalog_with_keys());
        assert!(db.is_tractable(&intro_query_q()));
        let report = db.query(&intro_query_q(), PlanKind::Lazy).unwrap();
        assert_eq!(report.confidences[0].0, tuple!["1995-01-10"]);
        assert!((report.confidences[0].1 - 0.0028).abs() < 1e-9);
        let sig = db.signature(&intro_query_q()).unwrap();
        assert_eq!(sig.to_string(), "(Cust (Ord Item*)*)*");
    }

    #[test]
    fn manual_registration_and_fd_declarations() {
        let db = SproutDb::new();
        db.register_table("Cust", fixtures::fig1_cust()).unwrap();
        db.register_table("Ord", fixtures::fig1_ord()).unwrap();
        db.register_table("Item", fixtures::fig1_item()).unwrap();
        db.declare_key("Cust", &["ckey"]).unwrap();
        db.declare_fd("Ord", &["okey"], &["ckey", "odate"]).unwrap();
        assert!(db.is_tractable(&intro_query_q_prime()));
        let report = db.query(&intro_query_q_prime(), PlanKind::Lazy).unwrap();
        assert!((report.confidences[0].1 - 0.0028).abs() < 1e-9);
        // Duplicate registration is rejected.
        assert!(db.register_table("Cust", fixtures::fig1_cust()).is_err());
        assert!(db.declare_key("Cust", &["nope"]).is_err());
    }

    #[test]
    fn without_fds_the_hard_query_is_rejected() {
        let db = SproutDb::from_catalog(fixtures::fig1_catalog_with_keys());
        assert!(db
            .query_without_fds(&intro_query_q_prime(), PlanKind::Lazy)
            .is_err());
        // Q itself works without FDs, just with more scans.
        let report = db
            .query_without_fds(&intro_query_q(), PlanKind::Lazy)
            .unwrap();
        assert!((report.confidences[0].1 - 0.0028).abs() < 1e-9);
    }

    fn bounds(eps: f64) -> QueryOptions {
        QueryOptions {
            policy: Some(ApproxPolicy::Bounds { eps }),
            ..QueryOptions::default()
        }
    }

    #[test]
    fn policy_turns_the_unsafe_rejection_into_brackets() {
        // Without FDs Q' has no safe plan: the plain path errors with the
        // blocking pair, the policy path produces brackets containing the
        // true confidence.
        let db = SproutDb::from_catalog(fixtures::fig1_catalog());
        let q = intro_query_q_prime();
        assert!(db.query(&q, PlanKind::Lazy).is_err());
        let err = db
            .query_with_options(&q, &QueryOptions::default())
            .unwrap_err();
        assert!(matches!(err, PlanError::UnsafeQuery { .. }));
        let report = db.query_with_options(&q, &bounds(1e-9)).unwrap();
        let brackets = report.approx.unwrap();
        assert_eq!(brackets.len(), 1);
        assert!(brackets[0].lo <= 0.0028 + 1e-12 && 0.0028 <= brackets[0].hi + 1e-12);
    }

    #[test]
    fn a_policy_leaves_safe_queries_exact() {
        let db = SproutDb::from_catalog(fixtures::fig1_catalog_with_keys());
        let exact = db.query(&intro_query_q(), PlanKind::Lazy).unwrap();
        let report = db
            .query_with_options(&intro_query_q(), &bounds(1e-6))
            .unwrap();
        assert!(report.approx.is_none());
        assert_eq!(report.confidences.len(), 1);
        assert_eq!(
            report.confidences[0].1.to_bits(),
            exact.confidences[0].1.to_bits()
        );
    }

    #[test]
    fn options_bundle_is_bitwise_stable_across_pool_sizes() {
        let db = SproutDb::from_catalog(fixtures::fig1_catalog());
        let q = intro_query_q_prime();
        let direct = db.query_with_options(&q, &bounds(1e-9)).unwrap();
        for threads in [1, 4] {
            let opts = QueryOptions {
                pool: Some(Pool::new(threads)),
                ..bounds(1e-9)
            };
            let report = db.query_with_options(&q, &opts).unwrap();
            assert_eq!(report.confidences.len(), direct.confidences.len());
            for (a, b) in report.confidences.iter().zip(&direct.confidences) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn governor_rides_in_the_options_bundle() {
        let db = SproutDb::from_catalog(fixtures::fig1_catalog_with_keys());
        let exact = db.query(&intro_query_q(), PlanKind::Lazy).unwrap();
        let gov = QueryGovernor::builder().build();
        let opts = QueryOptions {
            governor: Some(gov.clone()),
            ..QueryOptions::default()
        };
        let governed = db.query_with_options(&intro_query_q(), &opts).unwrap();
        assert_eq!(
            governed.confidences[0].1.to_bits(),
            exact.confidences[0].1.to_bits()
        );
        assert!(gov.checkpoints_seen() > 0);
        gov.cancel();
        match db.query_with_options(&intro_query_q(), &opts) {
            Err(PlanError::Governed(SproutError::Cancelled { .. })) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn default_database_is_empty() {
        let db = SproutDb::default();
        assert!(db.catalog().table_names().is_empty());
        assert!(db.query(&intro_query_q(), PlanKind::Lazy).is_err());
    }
}
