//! The public confidence-computation operator.
//!
//! [`ConfidenceOperator`] bundles a query signature with the machinery that
//! evaluates it over a lineage-annotated answer. The default
//! [`Strategy::Auto`] runs the signature's scan schedule (Section V.C): one
//! pre-aggregation scan per part that lacks the 1scan property, then the
//! streaming one-scan algorithm — a single scan when the schedule is empty.
//! The other strategies exist for testing, ablation benchmarks, and the
//! worked examples; the tests' brute-force oracle is the dev-only
//! `pdb-testkit`'s.

use std::fmt;
use std::sync::Arc;

use pdb_exec::Annotated;
use pdb_govern::{ExecContext, QueryObs, Stage};
use pdb_par::Pool;
use pdb_query::Signature;
use pdb_storage::Tuple;

use crate::error::ConfResult;
use crate::grp::grp_confidences_with;
use crate::multi_scan::multi_scan_confidences_ctx;
use crate::one_scan::{one_scan_confidences_ctx, SplitPolicy};

/// The evaluation strategy of the operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// The scan schedule: one scan if the signature has the 1scan property,
    /// pre-aggregation scans before it otherwise.
    #[default]
    Auto,
    /// Force the streaming one-scan algorithm (fails on non-1scan signatures).
    OneScan,
    /// The declarative GRP-sequence semantics of Fig. 5.
    GrpSemantics,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Strategy::Auto => "auto",
            Strategy::OneScan => "one-scan",
            Strategy::GrpSemantics => "grp-semantics",
        };
        f.write_str(s)
    }
}

/// The result of confidence computation: every distinct answer tuple paired
/// with its exact confidence, ordered by tuple.
pub type ConfidenceResult = Vec<(Tuple, f64)>;

/// A confidence-computation operator `[s]` for a fixed signature `s`.
///
/// The operator carries the worker pool its evaluation may fan out on
/// (bags of duplicate answer tuples are independent) and the
/// [`ExecContext`] — governor and observability collector — every scan it
/// runs observes; results are identical at every pool size, so the pool is
/// a pure performance knob.
#[derive(Debug, Clone)]
pub struct ConfidenceOperator {
    signature: Signature,
    pool: Pool,
    ctx: ExecContext,
}

impl ConfidenceOperator {
    /// Creates an operator for the given signature, using the default worker
    /// pool (`SPROUT_THREADS`, or the machine's available parallelism).
    pub fn new(signature: Signature) -> Self {
        ConfidenceOperator::with_pool(signature, Pool::from_env())
    }

    /// Creates an operator with an explicit worker pool.
    pub fn with_pool(signature: Signature, pool: Pool) -> Self {
        ConfidenceOperator {
            signature,
            pool,
            ctx: ExecContext::unbounded(),
        }
    }

    /// Attaches a per-query observability collector: subsequent
    /// [`compute`](Self::compute) calls tally bag counters into it (and
    /// record spans when the collector has tracing enabled).
    pub fn with_obs(mut self, obs: Arc<QueryObs>) -> Self {
        self.ctx = self.ctx.with_obs(obs);
        self
    }

    /// Sets the execution context: subsequent [`compute`](Self::compute)
    /// calls observe its governor's cancellation token, deadline and memory
    /// budget at every bag-boundary checkpoint, returning
    /// [`ConfError::Governed`](crate::ConfError::Governed) when interrupted,
    /// and tally bag counters into its collector.
    pub fn with_ctx(mut self, ctx: ExecContext) -> Self {
        self.ctx = ctx;
        self
    }

    /// The operator's signature.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The worker pool the operator evaluates on.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Number of scans the operator needs (Proposition V.10).
    pub fn scans(&self) -> usize {
        self.signature.scan_count()
    }

    /// Computes the distinct answer tuples and their confidences.
    ///
    /// # Errors
    /// Fails if the signature references relations missing from the answer,
    /// or if [`Strategy::OneScan`] is forced on a non-1scan signature.
    pub fn compute(&self, answer: &Annotated, strategy: Strategy) -> ConfResult<ConfidenceResult> {
        let pool = &self.pool.for_items(answer.len());
        let policy = SplitPolicy::default();
        let ctx = &self.ctx;
        let _span = ctx.span_with("conf", strategy.to_string());
        match strategy {
            Strategy::Auto => {
                multi_scan_confidences_ctx(answer, &self.signature, pool, policy, ctx)
            }
            Strategy::OneScan => {
                one_scan_confidences_ctx(answer, &self.signature, pool, policy, ctx)
            }
            // The declarative reference checks the governor once on entry;
            // it exists for testing and tiny inputs only.
            Strategy::GrpSemantics => {
                ctx.checkpoint(Stage::Confidence, "conf.bag", 0)?;
                grp_confidences_with(answer, &self.signature, pool)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_exec::fixtures::{fig1_catalog, fig1_catalog_with_keys};
    use pdb_exec::pipeline::evaluate_join_order;
    use pdb_query::cq::intro_query_q;
    use pdb_query::reduct::query_signature;
    use pdb_query::FdSet;
    use pdb_testkit::brute_force_confidences;

    fn order(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn all_strategies_agree_on_the_intro_query() {
        let catalog = fig1_catalog_with_keys();
        let q = intro_query_q();
        let answer = evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
        let fds = FdSet::from_catalog_decls(&catalog.fds());
        let op = ConfidenceOperator::new(query_signature(&q, &fds).unwrap());
        assert_eq!(op.scans(), 1);
        let oracle = brute_force_confidences(&answer);
        assert_eq!(oracle.len(), 1);
        assert!((oracle[0].1 - 0.0028).abs() < 1e-12);
        for strategy in [Strategy::Auto, Strategy::OneScan, Strategy::GrpSemantics] {
            let conf = op.compute(&answer, strategy).unwrap();
            assert_eq!(conf.len(), 1, "{strategy}");
            assert_eq!(conf[0].0, oracle[0].0, "{strategy}");
            assert!((conf[0].1 - oracle[0].1).abs() < 1e-9, "{strategy}");
        }
    }

    #[test]
    fn auto_falls_back_to_multi_scan() {
        let catalog = fig1_catalog();
        let q = intro_query_q().boolean_version();
        let answer = evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
        let op = ConfidenceOperator::new(query_signature(&q, &FdSet::empty()).unwrap());
        assert_eq!(op.scans(), 3);
        let conf = op.compute(&answer, Strategy::Auto).unwrap();
        assert!((conf[0].1 - 0.0028).abs() < 1e-9);
        // Forcing one-scan on this signature is an error.
        assert!(op.compute(&answer, Strategy::OneScan).is_err());
    }

    #[test]
    fn strategy_display_names() {
        assert_eq!(Strategy::Auto.to_string(), "auto");
        assert_eq!(Strategy::OneScan.to_string(), "one-scan");
        assert_eq!(Strategy::default(), Strategy::Auto);
    }
}
