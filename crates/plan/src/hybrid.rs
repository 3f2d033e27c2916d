//! Hybrid plans: push part of the confidence computation below the joins and
//! finish lazily (Fig. 7 (b), Section VII experiment 2).
//!
//! The hybrid plans evaluated in the paper "first avoid eager aggregation on
//! large tables … and then push down aggregations between unselective joins".
//! This implementation supports exactly that shape: a configurable subset of
//! relations is aggregated immediately after its scan (`[R*]` pushed to the
//! leaf), the joins then run in the optimizer's order, and the remaining
//! confidence computation happens at the top with the correspondingly
//! simplified signature (each pushed `R*` replaced by the bare `R`).
//!
//! The joins are the lazy pipeline's walk with its semi-join reduction on
//! (see [`pdb_exec::pipeline`]): every scan after the first keeps only the
//! rows whose join keys the running result holds, before a pushed
//! aggregation runs. Q18's `[Item*]` aggregates the line items of one
//! customer's orders, not the whole table. The answer tuples, their lineage
//! and their order are those of the unreduced walk.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

use pdb_conf::multi_scan::apply_pre_aggregation_ctx;
use pdb_conf::{ConfidenceOperator, ConfidenceResult, SplitPolicy, Strategy};
use pdb_exec::pipeline::evaluate_join_order_with;
use pdb_exec::Annotated;
use pdb_govern::{ExecContext, QueryObs};
use pdb_par::Pool;
use pdb_query::reduct::FdReduct;
use pdb_query::{ConjunctiveQuery, FdSet, Signature};
use pdb_storage::Catalog;

use crate::error::{PlanError, PlanResult};
use crate::join_order::greedy_join_order;

/// A hybrid plan: per-table aggregation pushdown plus a lazy tail.
#[derive(Debug, Clone)]
pub struct HybridPlan {
    query: ConjunctiveQuery,
    join_order: Vec<String>,
    pushed: BTreeSet<String>,
    top_signature: Signature,
    pool: Pool,
    ctx: ExecContext,
}

impl HybridPlan {
    /// Builds a hybrid plan that pushes the aggregation of the given
    /// relations below the joins.
    ///
    /// # Errors
    /// Fails with [`PlanError::UnsafeQuery`] (naming the blocking attribute
    /// pair) if the FD-reduct is not hierarchical.
    pub fn build(
        query: &ConjunctiveQuery,
        fds: &FdSet,
        catalog: &Catalog,
        push_down: &[&str],
    ) -> PlanResult<HybridPlan> {
        let reduct = FdReduct::compute(query, fds);
        let status = reduct.hierarchy();
        if !status.is_hierarchical() {
            return Err(PlanError::unsafe_query(query, &status));
        }
        let signature = reduct.signature()?;
        let pushed: BTreeSet<String> = push_down
            .iter()
            .filter(|t| signature.contains_table(t))
            .map(|t| t.to_string())
            .collect();
        // After a relation has been aggregated at its leaf, its variable
        // column holds one representative per group: the top operator treats
        // it as unstarred.
        let top_signature = signature.reduce_starred_tables(&pushed);
        let join_order = greedy_join_order(query, catalog)?;
        Ok(HybridPlan {
            query: query.clone(),
            join_order,
            pushed,
            top_signature,
            pool: Pool::from_env(),
            ctx: ExecContext::unbounded(),
        })
    }

    /// Attaches a per-query observability collector: the pipeline, the
    /// pushed-down aggregations, and the top-level confidence operator tally
    /// deterministic counters into it. Pure telemetry — the answer stays
    /// bitwise-identical.
    pub fn with_obs(mut self, obs: Arc<QueryObs>) -> Self {
        self.ctx = self.ctx.with_obs(obs);
        self
    }

    /// Sets the execution context the relational pipeline, the pushed-down
    /// aggregations and the top-level confidence operator run under: they
    /// observe its governor's cancellation token, deadline and memory budget
    /// at every morsel/chunk/bag checkpoint (returning
    /// [`PlanError::Governed`] when interrupted) and tally deterministic
    /// counters into its collector. Answers are bitwise-identical with or
    /// without either.
    pub fn with_ctx(mut self, ctx: ExecContext) -> Self {
        self.ctx = ctx;
        self
    }

    /// Sets the worker pool the whole plan fans out on — the relational
    /// pipeline, the pushed-down aggregations, and the top-level confidence
    /// operator (the default is [`Pool::from_env`]). Results are
    /// bitwise-identical at every pool size.
    pub fn with_pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// The relations whose aggregation is pushed below the joins.
    pub fn pushed_down(&self) -> &BTreeSet<String> {
        &self.pushed
    }

    /// The signature of the top-level operator after the pushdowns.
    pub fn top_signature(&self) -> &Signature {
        &self.top_signature
    }

    /// Executes the plan.
    ///
    /// # Errors
    /// Fails on execution or confidence-computation errors.
    pub fn execute(&self, catalog: &Catalog) -> PlanResult<ConfidenceResult> {
        let answer = self.answer_tuples(catalog)?;
        self.confidences(&answer)
    }

    /// Runs only the top-level confidence computation on a precomputed
    /// (partially aggregated) answer.
    ///
    /// # Errors
    /// Fails on confidence-computation errors.
    pub fn confidences(&self, answer: &Annotated) -> PlanResult<ConfidenceResult> {
        ConfidenceOperator::with_pool(self.top_signature.clone(), self.pool)
            .with_ctx(self.ctx.clone())
            .compute(answer, Strategy::Auto)
            .map_err(PlanError::from)
    }

    /// Evaluates the joins with the configured pushdowns, producing the
    /// (partially aggregated) annotated answer: the lazy pipeline's join walk
    /// with the pushed-down `[R*]` operator after a pushed relation's scan.
    ///
    /// # Errors
    /// Fails on execution errors.
    pub fn answer_tuples(&self, catalog: &Catalog) -> PlanResult<Annotated> {
        evaluate_join_order_with(
            &self.query,
            catalog,
            &self.join_order,
            &self.pool,
            &self.ctx,
            true,
            |rel_name, scanned| {
                if !self.pushed.contains(rel_name) {
                    return Ok(scanned);
                }
                // One row per distinct projected tuple, carrying a
                // representative variable and the group's probability.
                let step_sig = Signature::star(Signature::table(rel_name.to_string()));
                Ok(apply_pre_aggregation_ctx(
                    Cow::Owned(scanned),
                    &step_sig,
                    &self.pool,
                    SplitPolicy::default(),
                    &self.ctx,
                )?)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lazy::LazyPlan;
    use pdb_exec::fixtures::{fig1_catalog, fig1_catalog_with_keys};
    use pdb_query::cq::intro_query_q;
    use pdb_storage::tuple;

    #[test]
    fn hybrid_plan_with_item_pushdown_matches_the_paper_confidence() {
        let catalog = fig1_catalog_with_keys();
        let fds = FdSet::from_catalog_decls(&catalog.fds());
        let plan = HybridPlan::build(&intro_query_q(), &fds, &catalog, &["Item"]).unwrap();
        assert!(plan.pushed_down().contains("Item"));
        // Pushing Item's star below makes the top signature star-free on Item.
        assert_eq!(plan.top_signature().to_string(), "(Cust (Ord Item)*)*");
        let result = plan.execute(&catalog).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result[0].0, tuple!["1995-01-10"]);
        assert!((result[0].1 - 0.0028).abs() < 1e-12);
    }

    #[test]
    fn hybrid_agrees_with_lazy_for_every_pushdown_choice() {
        let catalog = fig1_catalog();
        let mut q = intro_query_q();
        q.predicates.clear();
        let lazy = LazyPlan::build(&q, &FdSet::empty(), &catalog)
            .unwrap()
            .execute(&catalog)
            .unwrap();
        for push in [
            vec![],
            vec!["Item"],
            vec!["Ord"],
            vec!["Item", "Cust"],
            vec!["Item", "Ord", "Cust"],
        ] {
            let plan = HybridPlan::build(&q, &FdSet::empty(), &catalog, &push).unwrap();
            let result = plan.execute(&catalog).unwrap();
            assert_eq!(result.len(), lazy.len(), "pushdown {push:?}");
            for ((t1, p1), (t2, p2)) in result.iter().zip(lazy.iter()) {
                assert_eq!(t1, t2);
                assert!(
                    (p1 - p2).abs() < 1e-9,
                    "pushdown {push:?} tuple {t1}: {p1} vs {p2}"
                );
            }
        }
    }

    #[test]
    fn unknown_pushdown_tables_are_ignored() {
        let catalog = fig1_catalog();
        let plan =
            HybridPlan::build(&intro_query_q(), &FdSet::empty(), &catalog, &["Nation"]).unwrap();
        assert!(plan.pushed_down().is_empty());
    }
}
