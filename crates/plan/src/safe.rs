//! MystiQ-style safe plans (Fig. 2): the extensional baseline.
//!
//! Safe plans compute probabilities with standard relational operators only:
//! joins multiply tuple probabilities and *independent projections* `π^ind`
//! eliminate duplicates by combining their probabilities. Correctness hinges
//! on a restrictive join order that follows the hierarchy of the query — the
//! very restriction SPROUT lifts. The plan keeps no variable columns, exactly
//! as MystiQ is configured for tuple-independent databases, and optionally
//! uses MystiQ's numerically fragile log-space aggregation so the benchmark
//! harness can reproduce the runtime failures reported in Section VII.

use std::collections::BTreeSet;

use pdb_conf::ConfidenceResult;
use pdb_exec::extensional::{
    filter_ext, independent_project, natural_join_ext, scan_ext, ExtRelation, ProbAggregation,
};
use pdb_query::reduct::FdReduct;
use pdb_query::{ConjunctiveQuery, FdSet, QueryTree};
use pdb_storage::Catalog;

use crate::eager::{interface_attributes, kept_attributes, leaf_scan_attributes};
use crate::error::{PlanError, PlanResult};

/// A MystiQ-style safe plan.
#[derive(Debug, Clone)]
pub struct SafePlan {
    query: ConjunctiveQuery,
    tree: QueryTree,
    aggregation: ProbAggregation,
}

impl SafePlan {
    /// Builds a safe plan using the numerically stable probability
    /// aggregation.
    ///
    /// # Errors
    /// Fails with [`PlanError::UnsafeQuery`] if the query has no hierarchical
    /// FD-reduct (no safe plan exists).
    pub fn build(query: &ConjunctiveQuery, fds: &FdSet) -> PlanResult<SafePlan> {
        SafePlan::build_with_aggregation(query, fds, ProbAggregation::Stable)
    }

    /// Builds a safe plan with an explicit probability aggregation mode.
    ///
    /// # Errors
    /// Fails with [`PlanError::UnsafeQuery`] (naming the blocking attribute
    /// pair) if the query has no hierarchical FD-reduct.
    pub fn build_with_aggregation(
        query: &ConjunctiveQuery,
        fds: &FdSet,
        aggregation: ProbAggregation,
    ) -> PlanResult<SafePlan> {
        let reduct = FdReduct::compute(query, fds);
        let status = reduct.hierarchy();
        if !status.is_hierarchical() {
            return Err(PlanError::unsafe_query(query, &status));
        }
        Ok(SafePlan {
            query: query.clone(),
            tree: reduct.tree()?,
            aggregation,
        })
    }

    /// The query tree the safe plan follows.
    pub fn tree(&self) -> &QueryTree {
        &self.tree
    }

    /// Executes the safe plan.
    ///
    /// # Errors
    /// Fails with [`PlanError::MystiqRuntimeError`] if the log-space
    /// aggregation overflows, mirroring the runtime errors of Section VII.
    pub fn execute(&self, catalog: &Catalog) -> PlanResult<ConfidenceResult> {
        let head: BTreeSet<String> = self.query.head_set();
        let result = self.eval_node(&self.tree, &BTreeSet::new(), &head, catalog)?;
        // Restore the head's column order; the groups are already singletons,
        // so the stable aggregation is an exact no-op here.
        let result = independent_project(&result, &self.query.head, ProbAggregation::Stable)
            .map_err(|_| PlanError::MystiqRuntimeError(self.query.to_string()))?;
        let mut out: ConfidenceResult =
            result.rows().iter().map(|(t, p)| (t.clone(), *p)).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    fn eval_node(
        &self,
        node: &QueryTree,
        needed_above: &BTreeSet<String>,
        head: &BTreeSet<String>,
        catalog: &Catalog,
    ) -> PlanResult<ExtRelation> {
        match node {
            QueryTree::Leaf { relation, .. } => {
                let atom = self.query.relation(relation).ok_or_else(|| {
                    PlanError::Query(pdb_query::QueryError::UnknownRelation(relation.clone()))
                })?;
                let table = catalog.table(relation)?;
                let scan_attrs =
                    leaf_scan_attributes(&self.query, atom, table.schema(), needed_above, head);
                let mut scanned = scan_ext(&table, &scan_attrs)?;
                for pred in self.query.predicates_for(relation) {
                    scanned = filter_ext(&scanned, pred)?;
                }
                let keep = kept_attributes(scanned.schema(), needed_above, head);
                self.project_ind(&scanned, &keep)
            }
            QueryTree::Inner { children, .. } => {
                // MystiQ's restrictive order: the deepest (least selective)
                // subtrees are joined first.
                let mut ordered: Vec<&QueryTree> = children.iter().collect();
                ordered.sort_by_key(|c| std::cmp::Reverse(c.depth()));
                let mut evaluated = Vec::with_capacity(ordered.len());
                for child in ordered {
                    let child_rels: BTreeSet<String> = child.relations().into_iter().collect();
                    let child_needed = interface_attributes(&self.query, &child_rels);
                    evaluated.push(self.eval_node(child, &child_needed, head, catalog)?);
                }
                let mut joined = evaluated.remove(0);
                for child in &evaluated {
                    joined = natural_join_ext(&joined, child)?;
                }
                let keep = kept_attributes(joined.schema(), needed_above, head);
                self.project_ind(&joined, &keep)
            }
        }
    }

    fn project_ind(&self, input: &ExtRelation, attrs: &[String]) -> PlanResult<ExtRelation> {
        independent_project(input, attrs, self.aggregation)
            .map_err(|_| PlanError::MystiqRuntimeError(self.query.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lazy::LazyPlan;
    use pdb_exec::fixtures::{fig1_catalog, fig1_catalog_with_keys};
    use pdb_query::cq::{intro_query_q, intro_query_q_prime};
    use pdb_storage::tuple;

    #[test]
    fn safe_plan_reproduces_the_fig2_result() {
        let catalog = fig1_catalog();
        let plan = SafePlan::build(&intro_query_q(), &FdSet::empty()).unwrap();
        let result = plan.execute(&catalog).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result[0].0, tuple!["1995-01-10"]);
        assert!((result[0].1 - 0.0028).abs() < 1e-9);
    }

    #[test]
    fn safe_plan_agrees_with_lazy_plan_without_selections() {
        let catalog = fig1_catalog();
        let mut q = intro_query_q();
        q.predicates.clear();
        let safe = SafePlan::build(&q, &FdSet::empty())
            .unwrap()
            .execute(&catalog)
            .unwrap();
        let lazy = LazyPlan::build(&q, &FdSet::empty(), &catalog)
            .unwrap()
            .execute(&catalog)
            .unwrap();
        assert_eq!(safe.len(), lazy.len());
        for ((t1, p1), (t2, p2)) in safe.iter().zip(lazy.iter()) {
            assert_eq!(t1, t2);
            assert!((p1 - p2).abs() < 1e-9, "{t1}: safe {p1} vs lazy {p2}");
        }
    }

    #[test]
    fn non_hierarchical_queries_have_no_safe_plan() {
        assert!(matches!(
            SafePlan::build(&intro_query_q_prime(), &FdSet::empty()),
            Err(PlanError::UnsafeQuery { .. })
        ));
        // With the key FDs a (FD-reduct-based) plan exists.
        let catalog = fig1_catalog_with_keys();
        let fds = FdSet::from_catalog_decls(&catalog.fds());
        let plan = SafePlan::build(&intro_query_q_prime(), &fds).unwrap();
        let result = plan.execute(&catalog).unwrap();
        assert!((result[0].1 - 0.0028).abs() < 1e-9);
    }

    #[test]
    fn log_space_aggregation_is_close_on_small_inputs() {
        let catalog = fig1_catalog();
        let plan = SafePlan::build_with_aggregation(
            &intro_query_q(),
            &FdSet::empty(),
            ProbAggregation::MystiqLog,
        )
        .unwrap();
        let result = plan.execute(&catalog).unwrap();
        assert_eq!(result.len(), 1);
        // The 1.001 fudge factor introduces a visible but small bias.
        assert!((result[0].1 - 0.0028).abs() < 0.05);
    }
}
