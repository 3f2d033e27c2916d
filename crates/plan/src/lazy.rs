//! Lazy plans: compute the answer tuples under the optimizer's preferred join
//! order and run the confidence-computation operator once, at the very top of
//! the plan (Fig. 7 (c)).

use pdb_conf::{ConfidenceOperator, ConfidenceResult, Strategy};
use pdb_exec::{evaluate_join_order_ctx, Annotated};
use pdb_govern::ExecContext;
use pdb_par::Pool;
use pdb_query::reduct::FdReduct;
use pdb_query::{ConjunctiveQuery, FdSet, Signature};
use pdb_storage::Catalog;

use crate::error::{PlanError, PlanResult};
use crate::join_order::greedy_join_order;

/// A lazy plan: a join order plus the top-level confidence operator.
#[derive(Debug, Clone)]
pub struct LazyPlan {
    query: ConjunctiveQuery,
    join_order: Vec<String>,
    signature: Signature,
    pool: Pool,
    ctx: ExecContext,
}

impl LazyPlan {
    /// Builds a lazy plan for `query` using the functional dependencies in
    /// `fds` and the catalog's statistics for join ordering.
    ///
    /// # Errors
    /// Fails with [`PlanError::UnsafeQuery`] (naming the blocking attribute
    /// pair) if the FD-reduct is not hierarchical.
    pub fn build(query: &ConjunctiveQuery, fds: &FdSet, catalog: &Catalog) -> PlanResult<LazyPlan> {
        let reduct = FdReduct::compute(query, fds);
        let status = reduct.hierarchy();
        if !status.is_hierarchical() {
            return Err(PlanError::unsafe_query(query, &status));
        }
        let signature = reduct.signature()?;
        let join_order = greedy_join_order(query, catalog)?;
        Ok(LazyPlan {
            query: query.clone(),
            join_order,
            signature,
            pool: Pool::from_env(),
            ctx: ExecContext::unbounded(),
        })
    }

    /// Sets the execution context the relational pipeline and the confidence
    /// operator run under: they observe its governor's cancellation token,
    /// deadline and memory budget at every morsel/chunk/bag checkpoint
    /// (returning [`PlanError::Governed`] when interrupted) and tally
    /// deterministic counters into its collector. Answers are
    /// bitwise-identical with or without either.
    pub fn with_ctx(mut self, ctx: ExecContext) -> Self {
        self.ctx = ctx;
        self
    }

    /// Sets the worker pool the plan fans out on — the whole relational
    /// pipeline (scans, filters, projections, joins) *and* the top-level
    /// confidence operator (the default is [`Pool::from_env`]). Results are
    /// bitwise-identical at every pool size.
    pub fn with_pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// The join order the plan uses.
    pub fn join_order(&self) -> &[String] {
        &self.join_order
    }

    /// The signature of the top-level confidence operator.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// Number of scans the confidence operator needs (Proposition V.10).
    pub fn scans(&self) -> usize {
        self.signature.scan_count()
    }

    /// Computes the lineage-annotated answer tuples (duplicates included).
    /// The relational pipeline fans out on the plan's pool; the answer is
    /// bitwise-identical at every pool size.
    ///
    /// # Errors
    /// Fails on execution errors (missing tables/columns).
    pub fn answer_tuples(&self, catalog: &Catalog) -> PlanResult<Annotated> {
        Ok(evaluate_join_order_ctx(
            &self.query,
            catalog,
            &self.join_order,
            &self.pool,
            &self.ctx,
        )?)
    }

    /// Executes the plan: answer tuples first, then one confidence
    /// computation at the top.
    ///
    /// # Errors
    /// Fails on execution or confidence-computation errors.
    pub fn execute(&self, catalog: &Catalog) -> PlanResult<ConfidenceResult> {
        let answer = self.answer_tuples(catalog)?;
        self.confidences(&answer)
    }

    /// Runs only the confidence-computation stage on a precomputed answer.
    ///
    /// # Errors
    /// Fails on confidence-computation errors.
    pub fn confidences(&self, answer: &Annotated) -> PlanResult<ConfidenceResult> {
        ConfidenceOperator::with_pool(self.signature.clone(), self.pool)
            .with_ctx(self.ctx.clone())
            .compute(answer, Strategy::Auto)
            .map_err(PlanError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_exec::fixtures::{fig1_catalog, fig1_catalog_with_keys};
    use pdb_query::cq::{intro_query_q, intro_query_q_prime};
    use pdb_storage::tuple;

    #[test]
    fn lazy_plan_on_intro_query_matches_the_paper() {
        let catalog = fig1_catalog_with_keys();
        let fds = FdSet::from_catalog_decls(&catalog.fds());
        let plan = LazyPlan::build(&intro_query_q(), &fds, &catalog).unwrap();
        // Better (lazy) join order: the selective Cust first (Section I).
        assert_eq!(plan.join_order()[0], "Cust");
        assert_eq!(plan.scans(), 1);
        let result = plan.execute(&catalog).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result[0].0, tuple!["1995-01-10"]);
        assert!((result[0].1 - 0.0028).abs() < 1e-12);
    }

    #[test]
    fn lazy_plan_without_fds_uses_more_scans_but_is_exact() {
        let catalog = fig1_catalog();
        let plan = LazyPlan::build(&intro_query_q(), &FdSet::empty(), &catalog).unwrap();
        assert!(plan.scans() >= 2);
        let result = plan.execute(&catalog).unwrap();
        assert!((result[0].1 - 0.0028).abs() < 1e-12);
    }

    #[test]
    fn q_prime_is_intractable_without_fds_but_planable_with_them() {
        let catalog = fig1_catalog_with_keys();
        let q = intro_query_q_prime();
        match LazyPlan::build(&q, &FdSet::empty(), &catalog) {
            Err(PlanError::UnsafeQuery { attr_a, attr_b, .. }) => {
                assert!(!attr_a.is_empty() && !attr_b.is_empty());
            }
            other => panic!("expected UnsafeQuery, got {other:?}"),
        }
        let fds = FdSet::from_catalog_decls(&catalog.fds());
        let plan = LazyPlan::build(&q, &fds, &catalog).unwrap();
        let result = plan.execute(&catalog).unwrap();
        // Q and Q' have the same answer under the FD (Section I).
        assert!((result[0].1 - 0.0028).abs() < 1e-12);
    }
}
