//! MystiQ-style safe plans (Fig. 2): the extensional baseline.
//!
//! Safe plans compute probabilities with standard relational operators only:
//! joins multiply tuple probabilities and *independent projections* `π^ind`
//! eliminate duplicates by combining their probabilities. Correctness hinges
//! on a restrictive join order that follows the hierarchy of the query — the
//! very restriction SPROUT lifts.
//!
//! The eager plan is this safe plan with the variable columns kept (Section
//! V), and the variable columns do not enter the arithmetic: a join's
//! propagation multiplies its children's probabilities and an aggregation
//! combines a run of duplicates exactly as `π^ind` does. So a [`SafePlan`] is
//! an [`EagerPlan`] walked with MystiQ's two choices — an inner node joins
//! its deepest subtree first, and duplicates combine under the plan's
//! [`ProbAggregation`], optionally MystiQ's numerically fragile log-space
//! emulation so the benchmark harness can reproduce the runtime failures
//! reported in Section VII. It runs on the same operators, pool and governed
//! context as every other plan; what the paper's MystiQ-vs-eager comparison
//! then measures is the join order.

use pdb_conf::ConfidenceResult;
use pdb_exec::extensional::ProbAggregation;
use pdb_exec::ExecError;
use pdb_govern::ExecContext;
use pdb_par::Pool;
use pdb_query::{ConjunctiveQuery, FdSet, QueryTree};
use pdb_storage::Catalog;

use crate::eager::EagerPlan;
use crate::error::{PlanError, PlanResult};

/// A MystiQ-style safe plan.
#[derive(Debug, Clone)]
pub struct SafePlan {
    walk: EagerPlan,
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
        let walk = EagerPlan::build_as(query, fds, deepest_first, aggregation)?;
        Ok(SafePlan { walk })
    }

    /// Replaces the execution context — governor and collector — the plan's
    /// operators and aggregations run under.
    pub fn with_ctx(mut self, ctx: ExecContext) -> Self {
        self.walk = self.walk.with_ctx(ctx);
        self
    }

    /// Sets the worker pool the plan's operators and aggregations fan out on
    /// (the default is [`Pool::from_env`]). Results are identical at every
    /// pool size.
    pub fn with_pool(mut self, pool: Pool) -> Self {
        self.walk = self.walk.with_pool(pool);
        self
    }

    /// The query tree the safe plan follows.
    pub fn tree(&self) -> &QueryTree {
        self.walk.tree()
    }

    /// Executes the safe plan.
    ///
    /// # Errors
    /// Fails with [`PlanError::MystiqRuntimeError`] if the log-space
    /// aggregation overflows, mirroring the runtime errors of Section VII;
    /// every other error — an unknown column, a governor interruption, an
    /// isolated worker panic — surfaces as itself.
    pub fn execute(&self, catalog: &Catalog) -> PlanResult<ConfidenceResult> {
        self.walk.execute(catalog).map_err(|e| match e {
            PlanError::Exec(ExecError::Aggregation(overflow)) => {
                PlanError::MystiqRuntimeError(format!("{}: {overflow}", self.walk.query))
            }
            other => other,
        })
    }
}

/// MystiQ's restrictive order: the deepest (least selective) subtrees are
/// joined first; subtrees of equal depth keep the tree's order.
fn deepest_first(children: &[QueryTree]) -> Vec<&QueryTree> {
    let mut ordered: Vec<&QueryTree> = children.iter().collect();
    ordered.sort_by_key(|c| std::cmp::Reverse(c.depth()));
    ordered
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

    #[test]
    fn a_log_space_overflow_and_nothing_else_is_a_mystiq_runtime_error() {
        use crate::planner::{PlanKind, Planner, QueryOptions};
        use pdb_govern::{GovernorBuilder, SproutError};
        use pdb_storage::{DataType, ProbTable, Schema, Variable};

        // One group of 200 000 near-certain rows: Σ log₁₀₀₀₀(1.001 − p)
        // drives the power to a hard zero.
        let rows = 200_000u64;
        let mut table = ProbTable::new(
            Schema::from_pairs(&[("g", DataType::Int), ("x", DataType::Int)]).unwrap(),
        );
        for i in 0..rows {
            table
                .insert(tuple![0i64, i as i64], Variable(i), 0.9999)
                .unwrap();
        }
        let catalog = Catalog::new();
        catalog.register_table("R", table).unwrap();
        let q = ConjunctiveQuery::build(&[("R", &["g", "x"])], &["g"], vec![]).unwrap();

        for threads in [1usize, 8] {
            let opts = QueryOptions {
                pool: Some(Pool::new(threads)),
                ..QueryOptions::default()
            };
            let planner = Planner::new(&catalog, &opts);
            match planner.execute(&q, PlanKind::MystiqLogSpace) {
                Err(PlanError::MystiqRuntimeError(message)) => assert!(
                    message.contains("group of 200000 duplicates"),
                    "{threads} threads: {message}"
                ),
                other => panic!("{threads} threads: expected MystiqRuntimeError, got {other:?}"),
            }
            let stable = planner.execute(&q, PlanKind::Mystiq).unwrap().confidences;
            assert_eq!(stable, vec![(tuple![0i64], 1.0)], "{threads} threads");

            // An interruption of the same plan stays an interruption.
            let cancelled = GovernorBuilder::new().build();
            cancelled.cancel();
            let governed = QueryOptions {
                governor: Some(cancelled),
                ..opts
            };
            assert!(matches!(
                Planner::new(&catalog, &governed).execute(&q, PlanKind::MystiqLogSpace),
                Err(PlanError::Governed(SproutError::Cancelled { .. }))
            ));
        }

        // And a selection on a column the table lacks stays an unknown column.
        let nope = pdb_query::Predicate::new("R", "nope", pdb_query::CompareOp::Gt, 0i64);
        let q = ConjunctiveQuery::build(&[("R", &["g", "nope"])], &["g"], vec![nope]).unwrap();
        let plan = SafePlan::build(&q, &FdSet::empty()).unwrap();
        assert!(matches!(
            plan.execute(&catalog),
            Err(PlanError::Exec(ExecError::UnknownColumn(column))) if column == "nope"
        ));
    }
}
