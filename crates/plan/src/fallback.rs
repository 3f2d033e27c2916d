//! Fallback plans for unsafe queries: when no safe plan exists (the
//! FD-reduct is not hierarchical), SPROUT can still compute the lineage of
//! every answer tuple and attack the per-tuple DNFs directly. The fallback
//! plan joins under the optimizer's preferred order exactly like a lazy plan,
//! then replaces the signature-driven confidence operator with the intensional
//! evaluator chain: read-once factorization first (exact when it succeeds),
//! anytime dissociation bounds otherwise.
//!
//! Which chain is allowed is the caller's [`ApproxPolicy`]:
//! [`ApproxPolicy::Exact`] admits only the read-once path and errors on
//! tuples whose lineage is provably not read-once, while
//! [`ApproxPolicy::Bounds`] refines `[lo, hi]` brackets until they are
//! tighter than `eps` (or the governor's deadline fires, which returns the
//! best bounds so far instead of an error).

use std::sync::Arc;

use pdb_conf::{anytime_confidences_ctx, AnytimeConfig, ApproxPolicy, ApproxResult};
use pdb_exec::{evaluate_join_order_ctx, Annotated};
use pdb_govern::{ExecContext, QueryObs};
use pdb_par::Pool;
use pdb_query::ConjunctiveQuery;
use pdb_storage::Catalog;

use crate::error::PlanResult;
use crate::join_order::greedy_join_order;

/// A fallback plan: the lazy join pipeline with an intensional (read-once /
/// anytime-bounds) confidence stage on top, for queries with no safe plan.
#[derive(Debug, Clone)]
pub struct FallbackPlan {
    query: ConjunctiveQuery,
    join_order: Vec<String>,
    config: AnytimeConfig,
    pool: Pool,
    ctx: ExecContext,
}

impl FallbackPlan {
    /// Builds a fallback plan for `query`. No hierarchy check is performed —
    /// the plan is valid for *every* conjunctive query; it is simply slower
    /// (and possibly approximate) where a safe plan would have been exact.
    ///
    /// # Errors
    /// Fails if the join order cannot be derived (unknown relations).
    pub fn build(
        query: &ConjunctiveQuery,
        catalog: &Catalog,
        policy: ApproxPolicy,
    ) -> PlanResult<FallbackPlan> {
        let join_order = greedy_join_order(query, catalog)?;
        Ok(FallbackPlan {
            query: query.clone(),
            join_order,
            config: AnytimeConfig::new(policy),
            pool: Pool::from_env(),
            ctx: ExecContext::unbounded(),
        })
    }

    /// Attaches a per-query observability collector: the pipeline and the
    /// intensional confidence stage tally deterministic counters (including
    /// the Shannon-frontier leaf count) into it. Pure telemetry — the bounds
    /// stay bitwise-identical.
    pub fn with_obs(mut self, obs: Arc<QueryObs>) -> Self {
        self.ctx = self.ctx.with_obs(obs);
        self
    }

    /// Sets the execution context. The relational pipeline observes its
    /// governor at every morsel checkpoint; the confidence stage at every bag
    /// and refinement-round checkpoint. Under [`ApproxPolicy::Bounds`] a
    /// *deadline* during refinement degrades to the best bounds so far
    /// instead of an error; cancellation always aborts. Both stages tally
    /// deterministic counters into its collector.
    pub fn with_ctx(mut self, ctx: ExecContext) -> Self {
        self.ctx = ctx;
        self
    }

    /// Sets the worker pool the plan fans out on. Results are
    /// bitwise-identical at every pool size.
    pub fn with_pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Sets the seed of the refinement tie-breaker (results are
    /// deterministic per seed at every pool size).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Caps the structural charge of each tuple's Shannon-expansion frontier
    /// (`None` removes the cap): 80 bytes a leaf, 24 a clause and 8 a
    /// variable occurrence, ≈ 2–3× what the leaves occupy (see
    /// [`AnytimeConfig::frontier_budget`](pdb_conf::AnytimeConfig::frontier_budget)).
    /// Refinement that would outgrow the cap stops and returns the current —
    /// wider but valid — bounds; the same charge is also held against an
    /// attached governor's arena budget.
    pub fn with_frontier_budget(mut self, bytes: Option<usize>) -> Self {
        self.config.frontier_budget = bytes;
        self
    }

    /// The join order the plan uses.
    pub fn join_order(&self) -> &[String] {
        &self.join_order
    }

    /// The plan's approximation policy.
    pub fn policy(&self) -> ApproxPolicy {
        self.config.policy
    }

    /// Computes the lineage-annotated answer tuples (duplicates included).
    ///
    /// # Errors
    /// Fails on execution errors (missing tables/columns) and on governor
    /// interruption.
    pub fn answer_tuples(&self, catalog: &Catalog) -> PlanResult<Annotated> {
        Ok(evaluate_join_order_ctx(
            &self.query,
            catalog,
            &self.join_order,
            &self.pool,
            &self.ctx,
        )?)
    }

    /// Runs the intensional confidence stage on a precomputed answer.
    ///
    /// # Errors
    /// Fails with [`ConfError::NotReadOnce`](pdb_conf::ConfError::NotReadOnce)
    /// under [`ApproxPolicy::Exact`] when some tuple's lineage is provably
    /// not read-once, and on governor cancellation.
    pub fn confidences(&self, answer: &Annotated) -> PlanResult<ApproxResult> {
        let pool = self.pool.for_items(answer.len());
        let _span = self.ctx.span("conf.bounds");
        anytime_confidences_ctx(answer, &self.config, &pool, &self.ctx)
            .map_err(crate::PlanError::from)
    }

    /// Executes the plan: answer tuples, then the intensional stage.
    ///
    /// # Errors
    /// Fails on execution or confidence errors (see
    /// [`confidences`](Self::confidences)).
    pub fn execute(&self, catalog: &Catalog) -> PlanResult<ApproxResult> {
        let answer = self.answer_tuples(catalog)?;
        self.confidences(&answer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lazy::LazyPlan;
    use pdb_conf::ConfMethod;
    use pdb_exec::fixtures::{fig1_catalog, fig1_catalog_with_keys};
    use pdb_query::cq::{intro_query_q, intro_query_q_prime};
    use pdb_query::FdSet;

    #[test]
    fn fallback_is_exact_on_the_unsafe_intro_query() {
        // Q' has no safe plan without the key FDs, but its lineage over the
        // Fig. 1 instance factors read-once: the fallback must be exact.
        let catalog = fig1_catalog();
        let plan = FallbackPlan::build(&intro_query_q_prime(), &catalog, ApproxPolicy::Exact)
            .unwrap()
            .with_pool(Pool::new(2));
        let result = plan.execute(&catalog).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result[0].method, ConfMethod::ReadOnce);
        assert_eq!(result[0].lo, result[0].hi);
        assert!((result[0].value() - 0.0028).abs() < 1e-12);
    }

    #[test]
    fn fallback_bounds_bracket_the_safe_plan_answer() {
        let catalog = fig1_catalog_with_keys();
        let q = intro_query_q();
        let exact = LazyPlan::build(&q, &FdSet::from_catalog_decls(&catalog.fds()), &catalog)
            .unwrap()
            .execute(&catalog)
            .unwrap();
        let approx = FallbackPlan::build(&q, &catalog, ApproxPolicy::Bounds { eps: 1e-9 })
            .unwrap()
            .execute(&catalog)
            .unwrap();
        assert_eq!(approx.len(), exact.len());
        for (bracket, (tuple, p)) in approx.iter().zip(exact.iter()) {
            assert_eq!(&bracket.tuple, tuple);
            assert!(
                bracket.lo <= p + 1e-12 && *p <= bracket.hi + 1e-12,
                "[{}, {}] must bracket {p}",
                bracket.lo,
                bracket.hi
            );
        }
    }

    #[test]
    fn fallback_uses_the_optimizer_join_order() {
        let catalog = fig1_catalog_with_keys();
        let plan = FallbackPlan::build(&intro_query_q(), &catalog, ApproxPolicy::Exact).unwrap();
        let lazy = LazyPlan::build(
            &intro_query_q(),
            &FdSet::from_catalog_decls(&catalog.fds()),
            &catalog,
        )
        .unwrap();
        assert_eq!(plan.join_order(), lazy.join_order());
    }
}
