//! Eager plans: aggregate after each table and after each join, following the
//! structure of the query tree (Fig. 7 (a)).
//!
//! An eager plan mirrors the safe plan of Fig. 2, except that variable
//! columns are kept, so every intermediate aggregation is an instance of the
//! paper's operator with a signature placed per Section V.B. Each node of the
//! FD-reduct's query tree is evaluated to a relation with exactly one lineage
//! column (the representative variable and probability of the aggregated
//! group); joins between such relations multiply probabilities implicitly
//! through the next aggregation's propagation step.
//!
//! Every intermediate exists once. A node's last join writes only the
//! columns needed above it or in the head
//! ([`ops::natural_join_project_ctx`]), and the walk owns what it
//! aggregates: the aggregation moves each group's first row inside its
//! input's data arena, shrinks the arena to the groups and writes only a
//! fresh lineage arena (see [`KeyRuns`]).
//!
//! **Semi-join reduction.** Before the tree is joined, each leaf is scanned
//! and aggregated once, in [`greedy_join_order`]'s order, with an `IN`
//! filter on every join attribute an earlier leaf produced: that leaf's
//! distinct keys (the smallest set, if several did), a one-pass word set
//! over a columnar table ([`pdb_exec::kernel::WordTest::set`]). A filter is built
//! only when its set is below half the column's exact distinct count
//! ([`Predicate::semi_join`], the rule the hybrid plan's join walk uses
//! too); an empty set ends the walk with the empty answer. Answers stay
//! bitwise-identical: a filter attribute is in every group key up to the
//! node where the two leaves meet, so the filter drops whole groups the
//! join there drops anyway, and every other group sees the same rows in the
//! same order. NULL never matches, in `IN` or a join.
//!
//! The MystiQ plan ([`crate::safe`]) *is* that safe plan, so it is this
//! module's tree walk too. The two families differ in two values an
//! [`EagerPlan`] holds: the order an inner node joins its children in (a
//! `ChildOrder`) and how a run of duplicates combines its probabilities (a
//! [`ProbAggregation`]).

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use pdb_conf::ConfidenceResult;
use pdb_exec::extensional::{mystiq_log_aggregate, AggregationError, ProbAggregation};
use pdb_exec::{ops, Annotated, ExecResult, KeyRuns};
use pdb_govern::{Counter, ExecContext, QueryObs, Stage};
use pdb_lineage::independent_or;
use pdb_par::Pool;
use pdb_query::reduct::FdReduct;
use pdb_query::{ConjunctiveQuery, FdSet, Predicate, QueryTree, RelationAtom};
use pdb_storage::{Catalog, Schema, Tuple, Variable};

use crate::error::{PlanError, PlanResult};
use crate::join_order::greedy_join_order;

/// An eager plan for a hierarchical (FD-reduct) query.
#[derive(Debug, Clone)]
pub struct EagerPlan {
    pub(crate) query: ConjunctiveQuery,
    tree: QueryTree,
    pool: Pool,
    ctx: ExecContext,
    child_order: ChildOrder,
    aggregation: ProbAggregation,
}

impl EagerPlan {
    /// Builds an eager plan.
    ///
    /// # Errors
    /// Fails with [`PlanError::UnsafeQuery`] (naming the blocking attribute
    /// pair) if the FD-reduct is not hierarchical.
    pub fn build(query: &ConjunctiveQuery, fds: &FdSet) -> PlanResult<EagerPlan> {
        EagerPlan::build_as(query, fds, tree_order, ProbAggregation::Stable)
    }

    /// Builds the plan of the family the two values describe: an inner node
    /// joins its children in `child_order`, and every aggregation combines a
    /// run's probabilities under `aggregation` (an overflowing
    /// [`ProbAggregation::MystiqLog`] group fails [`EagerPlan::execute`]
    /// with [`pdb_exec::ExecError::Aggregation`]).
    pub(crate) fn build_as(
        query: &ConjunctiveQuery,
        fds: &FdSet,
        child_order: ChildOrder,
        aggregation: ProbAggregation,
    ) -> PlanResult<EagerPlan> {
        let reduct = FdReduct::compute(query, fds);
        let status = reduct.hierarchy();
        if !status.is_hierarchical() {
            return Err(PlanError::unsafe_query(query, &status));
        }
        Ok(EagerPlan {
            query: query.clone(),
            tree: reduct.tree()?,
            pool: Pool::from_env(),
            ctx: ExecContext::unbounded(),
            child_order,
            aggregation,
        })
    }

    /// Attaches a per-query observability collector: scans, joins, and the
    /// per-node aggregations tally deterministic counters into it. Pure
    /// telemetry — the answer stays bitwise-identical.
    pub fn with_obs(mut self, obs: Arc<QueryObs>) -> Self {
        self.ctx = self.ctx.with_obs(obs);
        self
    }

    /// Sets the execution context the plan's scans, projections, joins and
    /// per-node aggregations run under: they observe its governor's
    /// cancellation token, deadline and memory budget at every morsel/chunk
    /// checkpoint (returning [`PlanError::Governed`] when interrupted) and
    /// tally deterministic counters into its collector. Answers are
    /// bitwise-identical with or without either.
    pub fn with_ctx(mut self, ctx: ExecContext) -> Self {
        self.ctx = ctx;
        self
    }

    /// Sets the worker pool the plan's scans, filters, projections, joins
    /// *and per-node aggregations* fan out on (the default is
    /// [`Pool::from_env`]). Results are identical at every pool size.
    pub fn with_pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// The query tree driving the plan.
    pub fn tree(&self) -> &QueryTree {
        &self.tree
    }

    /// Executes the plan, producing the distinct answer tuples and their
    /// confidences.
    ///
    /// # Errors
    /// Fails on execution errors.
    pub fn execute(&self, catalog: &Catalog) -> PlanResult<ConfidenceResult> {
        let ctx = &self.ctx;
        let head: BTreeSet<String> = self.query.head_set();
        let Some(mut leaves) = self.scan_leaves(catalog, &head)? else {
            return Ok(Vec::new());
        };
        let (result, _) = self.eval_node(&self.tree, &BTreeSet::new(), &head, &mut leaves)?;
        // The root aggregation groups by the head attributes; its single
        // lineage column holds the confidence of each distinct tuple. The
        // projection restores the head's column order — on the plan's pool
        // and under its context, like every other operator of the plan —
        // and moves a result that already has it.
        let pool = self.pool.for_items(result.len());
        let result = result.into_projection_ctx(&self.query.head, &pool, ctx)?;
        let mut out: Vec<(Tuple, f64)> = result
            .iter()
            .map(|r| (r.data_tuple(), r.lineage[0].1))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Scans and aggregates every leaf once, in the greedy join order, each
    /// scan filtered by the key sets of the leaves before it (see the module
    /// docs). A leaf keeps its interface attributes and the head's; `None`
    /// when a key set comes out empty, so the answer is empty.
    fn scan_leaves(
        &self,
        catalog: &Catalog,
        head: &BTreeSet<String>,
    ) -> PlanResult<Option<BTreeMap<String, Annotated>>> {
        let order = greedy_join_order(&self.query, catalog)?;
        let reductions = reductions(&self.query, &order);
        // Every (leaf, attribute) a later scan is filtered by, and once the
        // leaf is scanned, its distinct keys as an `IN` filter.
        let mut keys: BTreeMap<(&str, &str), Option<Predicate>> = (reductions.iter().flatten())
            .flat_map(|(a, sources)| sources.iter().map(move |s| ((*s, *a), None)))
            .collect();
        let mut leaves = BTreeMap::new();
        for (relation, reductions) in order.iter().zip(&reductions) {
            let atom = self.query.relation(relation).expect("in the query");
            let table = catalog.backing(relation)?;
            let needed = interface_attributes(&self.query, &BTreeSet::from([relation.clone()]));
            let keep = leaf_scan_attributes(atom, table.schema(), &needed, head);
            // A single-table walk reads no statistics, as its order did not.
            let stats = (!reductions.is_empty()).then(|| catalog.table_stats(relation));
            let stats = stats.transpose()?;
            let filters: Vec<Predicate> = (reductions.iter())
                .filter_map(|(a, sources)| {
                    let set = (sources.iter())
                        .filter_map(|s| keys[&(*s, *a)].as_ref())
                        .min_by_key(|set| set.alternatives.len())?;
                    Predicate::semi_join(stats.as_ref()?, relation, a, set.constants().cloned())
                })
                .collect();
            let mut predicates = self.query.predicates_for(relation);
            predicates.extend(&filters);
            // One fused scan-filter-project, gated on the base table's
            // size; predicates are evaluated on the table's own columns, so
            // only the kept ones are materialised, and a columnar backing's
            // zone maps prune before any row is decoded. The result is
            // identical across backings.
            let scanned = ops::scan_filter_project_backing_ctx(
                &table,
                relation,
                &predicates,
                &keep,
                &self.pool.for_items(table.len()),
                &self.ctx,
            )?;
            let aggregated = self.aggregate_single_column(scanned)?;
            for ((_, a), set) in keys.iter_mut().filter(|((s, _), _)| s == relation) {
                let Ok(c) = aggregated.column_index(a) else {
                    continue;
                };
                let column = aggregated.iter().map(|r| r.data[c].clone());
                let members = Predicate::is_in(relation, *a, column);
                if members.constant.is_null() {
                    return Ok(None); // no key, so no answer
                }
                *set = Some(members);
            }
            leaves.insert(relation.clone(), aggregated);
        }
        Ok(Some(leaves))
    }

    /// Evaluates one node of the query tree into a relation with a single
    /// lineage column, aggregated per (attributes needed above ∪ head); a
    /// leaf comes aggregated from `leaves`.
    fn eval_node(
        &self,
        node: &QueryTree,
        needed_above: &BTreeSet<String>,
        head: &BTreeSet<String>,
        leaves: &mut BTreeMap<String, Annotated>,
    ) -> PlanResult<(Annotated, String)> {
        let ctx = &self.ctx;
        match node {
            QueryTree::Leaf { relation, .. } => {
                let leaf = leaves.remove(relation).expect("every leaf is scanned");
                Ok((leaf, relation.clone()))
            }
            QueryTree::Inner { children, .. } => {
                // Every child subtree keeps its *interface* attributes: the
                // original query's join attributes it shares with relations
                // outside the subtree. This is what the safe-plan projections
                // of Fig. 2 keep, and — because functionally determined
                // attributes are constant within each group — it groups
                // exactly as the FD-reduct's labels prescribe.
                let mut evaluated = Vec::with_capacity(children.len());
                for child in (self.child_order)(children) {
                    let child_rels: BTreeSet<String> = child.relations().into_iter().collect();
                    let child_needed = interface_attributes(&self.query, &child_rels);
                    evaluated.push(self.eval_node(child, &child_needed, head, leaves)?);
                }
                // The first child in that order is the representative; the
                // others join onto it left to right.
                let mut evaluated = evaluated.into_iter().peekable();
                let (mut joined, representative) =
                    evaluated.next().expect("an inner node has children");
                while let Some((child, _)) = evaluated.next() {
                    let join_pool = self.pool.for_items(joined.len().max(child.len()));
                    joined = if evaluated.peek().is_some() {
                        ops::natural_join_ctx(&joined, &child, &join_pool, ctx)?
                    } else {
                        // The last join writes only what the node keeps.
                        let names = joined.join_names(&child);
                        let keep = kept_attributes(names, needed_above, head);
                        ops::natural_join_project_ctx(&joined, &child, &keep, &join_pool, ctx)?
                    };
                }
                let aggregated = self.aggregate_joined(joined, &representative)?;
                Ok((aggregated, representative))
            }
        }
    }

    /// Aggregates `input` to one row per distinct data tuple through the
    /// engine's grouping shell ([`KeyRuns`]): rows are sorted on the data
    /// columns and then the variables of `order_cols`, and every run of
    /// equal data collapses to its first row with lineage column `slot` —
    /// the only one kept — set to `fold(input, rows)`. Output rows come in
    /// ascending key order. The aggregation owns `input` and compacts its
    /// data arena in place; only the lineage arena is written afresh.
    /// Identical at every pool size; checkpoints `eager.aggregate` once per
    /// [`ops::SEQ_CHECK_EVERY`] runs, on the global run index.
    ///
    /// # Errors
    /// Fails with [`PlanError::Governed`] when the governor interrupts or
    /// when a fold panics (isolated as a `WorkerPanic` of
    /// [`Stage::Aggregate`]), and with the first error a fold returns.
    fn aggregate(
        &self,
        input: Annotated,
        order_cols: &[usize],
        slot: usize,
        fold: impl Fn(&Annotated, &[u32]) -> ExecResult<(Variable, f64)> + Sync,
    ) -> PlanResult<Annotated> {
        let ctx = &self.ctx;
        let pool = self.pool.for_items(input.len());
        let runs = KeyRuns::build(&input, &[], order_cols, Stage::Aggregate, &pool, ctx)?;
        // The run count is a function of the input rows alone, so it is a
        // deterministic counter.
        ctx.tally(Counter::EagerGroups, runs.len() as u64);
        let checked_fold = |input: &Annotated, run: usize, rows: &[u32]| {
            if run.is_multiple_of(ops::SEQ_CHECK_EVERY) {
                let index = run / ops::SEQ_CHECK_EVERY;
                ctx.checkpoint(Stage::Aggregate, "eager.aggregate", index)?;
            }
            fold(input, rows)
        };
        Ok(runs.collapse(
            Cow::Owned(input),
            &[slot],
            slot,
            Stage::Aggregate,
            &pool,
            ctx,
            checked_fold,
        )?)
    }

    /// Aggregates a single-relation input: one output row per distinct
    /// data tuple, whose lineage is the minimal variable of the group and
    /// the independent-or of the group's distinct variables (the `[R*]`
    /// operator on top of a base-table scan).
    ///
    /// A run is sorted by variable with ties in input order, so its
    /// distinct variables are visited ascending, the *last* input row of a
    /// variable supplies its probability, and the representative is the
    /// first row's variable. Under [`ProbAggregation::Stable`] the
    /// probability is [`independent_or`] — `1 − Π(1 − p)` seeded with `1.0`.
    ///
    /// MystiQ keeps no variable column, but on a tuple-independent table —
    /// one variable per row, ascending in row order, as the TPC-H catalogs
    /// number them — a run sorted by variable is the run in input order with
    /// every row counted once: MystiQ's `π^ind` over a scan.
    fn aggregate_single_column(&self, input: Annotated) -> PlanResult<Annotated> {
        self.aggregate(input, &[0], 0, |input, rows| {
            let pair = |r: u32| input.row(r as usize).lineage[0];
            let last_of_variable = rows
                .chunk_by(|&a, &b| pair(a).0 == pair(b).0)
                .map(|same| pair(same[same.len() - 1]).1);
            Ok((pair(rows[0]).0, self.combine(last_of_variable)?))
        })
    }

    /// Aggregates the join of already-aggregated children: per row the
    /// probability is the product of the children's probabilities, left to
    /// right (propagation — the extensional join of a safe plan); per group
    /// of duplicate data tuples the rows describe independent events and
    /// combine in join-emit order (the stable sort keeps it). The surviving
    /// lineage column is the representative child's, carrying the minimum
    /// of its variables.
    fn aggregate_joined(&self, input: Annotated, representative: &str) -> PlanResult<Annotated> {
        let rep_idx = input.relation_index(representative)?;
        self.aggregate(input, &[], rep_idx, |input, rows| {
            let lineage = |r: u32| input.row(r as usize).lineage;
            let rep_var = rows
                .iter()
                .map(|&r| lineage(r)[rep_idx].0)
                .min()
                .expect("runs are non-empty");
            let row_probs = rows
                .iter()
                .map(|&r| lineage(r).iter().map(|(_, p)| *p).product::<f64>());
            Ok((rep_var, self.combine(row_probs)?))
        })
    }

    /// Combines the probabilities of one run's rows, which the plan's shape
    /// makes independent events.
    fn combine(&self, probs: impl Iterator<Item = f64>) -> Result<f64, AggregationError> {
        match self.aggregation {
            ProbAggregation::Stable => Ok(independent_or(probs)),
            ProbAggregation::MystiqLog => mystiq_log_aggregate(&probs.collect::<Vec<_>>()),
        }
    }
}

/// The order an inner node of the query tree joins its children in; the
/// first child of the order is the node's representative.
pub(crate) type ChildOrder = fn(&[QueryTree]) -> Vec<&QueryTree>;

/// The eager plan's [`ChildOrder`]: the query tree's own.
fn tree_order(children: &[QueryTree]) -> Vec<&QueryTree> {
    children.iter().collect()
}

/// The join attributes of `query` that occur both inside and outside the
/// given set of relations — the columns a subplan over exactly those
/// relations must keep for joins still to come (what the safe-plan
/// projections of Fig. 2 keep; the MystiQ plan uses the same rule).
pub(crate) fn interface_attributes(
    query: &ConjunctiveQuery,
    subtree: &BTreeSet<String>,
) -> BTreeSet<String> {
    query
        .join_attributes()
        .into_iter()
        .filter(|a| {
            let inside = query
                .relations
                .iter()
                .any(|r| subtree.contains(&r.name) && r.has_attribute(a));
            let outside = query
                .relations
                .iter()
                .any(|r| !subtree.contains(&r.name) && r.has_attribute(a));
            inside && outside
        })
        .collect()
}

/// The semi-join reduction of leaves scanned in `order`: for each leaf, each
/// of its attributes an earlier leaf also has, with those earlier leaves in
/// scan order. The leaf's scan filters the attribute by the smallest of
/// their key sets.
pub(crate) fn reductions<'a>(
    query: &'a ConjunctiveQuery,
    order: &'a [String],
) -> Vec<Vec<(&'a str, Vec<&'a str>)>> {
    let atoms: Vec<&RelationAtom> = order.iter().filter_map(|r| query.relation(r)).collect();
    (0..atoms.len())
        .map(|i| {
            (atoms[i].attributes.iter())
                .filter_map(|a| {
                    let sources: Vec<&str> = (atoms[..i].iter())
                        .filter(|s| s.has_attribute(a))
                        .map(|s| s.name.as_str())
                        .collect();
                    (!sources.is_empty()).then_some((a.as_str(), sources))
                })
                .collect()
        })
        .collect()
}

/// The attributes a leaf scan of `atom` keeps, in the atom's order: those
/// physically present in `schema` that are needed above the leaf or in the
/// head. Predicate columns are not among them unless they are needed too —
/// the fused scan evaluates predicates on the table, not on its output.
pub(crate) fn leaf_scan_attributes(
    atom: &RelationAtom,
    schema: &Schema,
    needed_above: &BTreeSet<String>,
    head: &BTreeSet<String>,
) -> Vec<String> {
    atom.attributes
        .iter()
        .filter(|a| schema.contains(a) && (needed_above.contains(*a) || head.contains(*a)))
        .cloned()
        .collect()
}

/// The columns of a node's output, in the order `names` lists them, that it
/// keeps: those needed above it or in the head.
fn kept_attributes<'a>(
    names: impl Iterator<Item = &'a str>,
    needed_above: &BTreeSet<String>,
    head: &BTreeSet<String>,
) -> Vec<String> {
    names
        .filter(|a| needed_above.contains(*a) || head.contains(*a))
        .map(|s| s.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_exec::fixtures::{fig1_catalog, fig1_catalog_with_keys};
    use pdb_query::cq::{intro_query_q, intro_query_q_prime};
    use pdb_storage::tuple;

    #[test]
    fn eager_plan_matches_the_paper_confidence() {
        let catalog = fig1_catalog();
        let plan = EagerPlan::build(&intro_query_q(), &FdSet::empty()).unwrap();
        let result = plan.execute(&catalog).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result[0].0, tuple!["1995-01-10"]);
        assert!((result[0].1 - 0.0028).abs() < 1e-12);
    }

    #[test]
    fn eager_plan_with_fds_handles_q_prime() {
        let catalog = fig1_catalog_with_keys();
        let fds = FdSet::from_catalog_decls(&catalog.fds());
        let plan = EagerPlan::build(&intro_query_q_prime(), &fds).unwrap();
        let result = plan.execute(&catalog).unwrap();
        assert_eq!(result.len(), 1);
        assert!((result[0].1 - 0.0028).abs() < 1e-12);
    }

    #[test]
    fn eager_plan_agrees_with_lazy_plan_on_wider_queries() {
        use crate::lazy::LazyPlan;
        let catalog = fig1_catalog();
        let mut q = intro_query_q();
        q.predicates.clear();
        let eager = EagerPlan::build(&q, &FdSet::empty()).unwrap();
        let lazy = LazyPlan::build(&q, &FdSet::empty(), &catalog).unwrap();
        let e = eager.execute(&catalog).unwrap();
        let l = lazy.execute(&catalog).unwrap();
        assert_eq!(e.len(), l.len());
        for ((t1, p1), (t2, p2)) in e.iter().zip(l.iter()) {
            assert_eq!(t1, t2);
            assert!((p1 - p2).abs() < 1e-9, "{t1}: eager {p1} vs lazy {p2}");
        }
    }

    #[test]
    fn eager_plan_is_bitwise_identical_across_thread_counts() {
        // The per-node aggregations group through sort-key runs that are
        // identical at every pool size, so the answer (tuples, confidences)
        // is bitwise-identical too.
        let catalog = fig1_catalog();
        let q = intro_query_q();
        let reference = EagerPlan::build(&q, &FdSet::empty())
            .unwrap()
            .with_pool(Pool::sequential())
            .execute(&catalog)
            .unwrap();
        for threads in [1usize, 2, 4, 8] {
            let result = EagerPlan::build(&q, &FdSet::empty())
                .unwrap()
                .with_pool(Pool::new(threads))
                .execute(&catalog)
                .unwrap();
            assert_eq!(result.len(), reference.len(), "{threads} threads");
            for ((t1, p1), (t2, p2)) in reference.iter().zip(result.iter()) {
                assert_eq!(t1, t2, "{threads} threads");
                assert_eq!(p1.to_bits(), p2.to_bits(), "{threads} threads: {t1}");
            }
        }
    }

    #[test]
    fn parallel_aggregation_handles_long_runs() {
        // Five runs of ~820 rows each: long enough that the key build, the
        // sort and the collapse genuinely fan out, with every run's rows
        // spread over all the input chunks.
        use pdb_query::{ConjunctiveQuery, RelationAtom};
        use pdb_storage::{DataType, ProbTable, Schema, Value, Variable};

        let schema = Schema::from_pairs(&[("g", DataType::Int), ("x", DataType::Int)]).unwrap();
        let mut table = ProbTable::new(schema);
        let rows = 4 * 1024 + 7;
        for i in 0..rows {
            table
                .insert(
                    tuple![Value::Int((i % 5) as i64), Value::Int((i % 97) as i64)],
                    Variable(i as u64),
                    0.25,
                )
                .unwrap();
        }
        let catalog = Catalog::new();
        catalog.register_table("R", table).unwrap();
        let q = ConjunctiveQuery::new(
            vec![RelationAtom::new("R", &["g", "x"])],
            vec!["g".to_string()],
            vec![],
        )
        .unwrap();
        let reference = EagerPlan::build(&q, &FdSet::empty())
            .unwrap()
            .with_pool(Pool::sequential())
            .execute(&catalog)
            .unwrap();
        assert_eq!(reference.len(), 5);
        for threads in [2usize, 8] {
            let result = EagerPlan::build(&q, &FdSet::empty())
                .unwrap()
                .with_pool(Pool::new(threads))
                .execute(&catalog)
                .unwrap();
            assert_eq!(result.len(), reference.len());
            for ((t1, p1), (t2, p2)) in reference.iter().zip(result.iter()) {
                assert_eq!(t1, t2);
                assert_eq!(p1.to_bits(), p2.to_bits(), "{t1}");
            }
        }
    }

    #[test]
    fn a_reduction_filter_never_removes_a_row_the_join_matches() {
        // Each leaf aggregated without its reduction filters, joined with
        // the leaves its filters came from, joins exactly as the reduced
        // leaf does: every row the filters removed lacked a partner.
        let catalog = fig1_catalog();
        let q = intro_query_q();
        let plan = EagerPlan::build(&q, &FdSet::empty()).unwrap();
        let head = q.head_set();
        let leaves = plan.scan_leaves(&catalog, &head).unwrap().unwrap();
        let order = greedy_join_order(&q, &catalog).unwrap();
        let mut removed = 0;
        for (relation, reductions) in order.iter().zip(reductions(&q, &order)) {
            let table = catalog.backing(relation).unwrap();
            let needed = interface_attributes(&q, &BTreeSet::from([relation.clone()]));
            let atom = q.relation(relation).unwrap();
            let keep = leaf_scan_attributes(atom, table.schema(), &needed, &head);
            let predicates = q.predicates_for(relation);
            let scanned = ops::scan_filter_project_backing_ctx(
                &table,
                relation,
                &predicates,
                &keep,
                &Pool::sequential(),
                &ExecContext::unbounded(),
            )
            .unwrap();
            let unreduced = plan.aggregate_single_column(scanned).unwrap();
            let reduced = &leaves[relation];
            removed += unreduced.len() - reduced.len();
            let sources: BTreeSet<&str> = reductions.into_iter().flat_map(|(_, s)| s).collect();
            let join = |leaf: &Annotated| {
                (sources.iter()).fold(leaf.clone(), |joined, s| {
                    ops::natural_join(&joined, &leaves[*s]).unwrap()
                })
            };
            assert_eq!(join(&unreduced), join(reduced), "{relation}");
        }
        assert!(removed > 0, "the fixture's filters remove rows");
    }

    #[test]
    fn non_hierarchical_query_is_rejected() {
        assert!(matches!(
            EagerPlan::build(&intro_query_q_prime(), &FdSet::empty()),
            Err(PlanError::UnsafeQuery { .. })
        ));
    }

    #[test]
    fn boolean_query_reduces_to_one_row() {
        let catalog = fig1_catalog();
        let q = intro_query_q().boolean_version();
        let plan = EagerPlan::build(&q, &FdSet::empty()).unwrap();
        let result = plan.execute(&catalog).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result[0].0, Tuple::empty());
        assert!((result[0].1 - 0.0028).abs() < 1e-12);
    }
}
