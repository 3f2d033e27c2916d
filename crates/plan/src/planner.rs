//! The planner facade: choose a plan kind, execute it, and report the
//! measurements the paper's evaluation section is built from (time to compute
//! the answer tuples vs. time to compute the probabilities, number of answer
//! tuples vs. distinct tuples, number of scans).
//!
//! A [`Planner`] is configured by one [`QueryOptions`] bundle, given at
//! construction and read by [`Planner::explain`] and [`Planner::execute`]
//! alike: the pool, the fallback policy, its seed and frontier cap, and the
//! governor and collector, which every plan receives as one
//! [`ExecContext`]. The `sprout` facade re-exports the bundle and passes a
//! caller's straight through.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pdb_conf::{ApproxPolicy, ApproxResult, ConfidenceResult};
use pdb_exec::extensional::ProbAggregation;
use pdb_govern::{Counter, ExecContext, QueryGovernor, QueryObs};
use pdb_par::Pool;
use pdb_query::reduct::FdReduct;
use pdb_query::{ConjunctiveQuery, FdSet, Signature};
use pdb_storage::Catalog;

use crate::eager::{self, EagerPlan};
use crate::error::{PlanError, PlanResult};
use crate::explain::{ExplainPath, ExplainScan, PlanExplain};
use crate::fallback::FallbackPlan;
use crate::hybrid::HybridPlan;
use crate::join_order::greedy_join_order;
use crate::lazy::LazyPlan;
use crate::safe::SafePlan;

/// The plan families compared throughout Section VII.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanKind {
    /// Lazy plan: best join order, confidence computation at the very end.
    Lazy,
    /// Eager plan: aggregation after each table and each join.
    Eager,
    /// Hybrid plan: aggregations of the listed relations pushed to the
    /// leaves, lazy tail.
    Hybrid(Vec<String>),
    /// MystiQ safe plan (extensional), with the numerically stable
    /// aggregation.
    Mystiq,
    /// MystiQ safe plan with the original log-space aggregation that fails on
    /// large duplicate groups (Section VII).
    MystiqLogSpace,
}

impl fmt::Display for PlanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanKind::Lazy => write!(f, "lazy"),
            PlanKind::Eager => write!(f, "eager"),
            PlanKind::Hybrid(pushed) => write!(f, "hybrid({})", pushed.join(",")),
            PlanKind::Mystiq => write!(f, "mystiq"),
            PlanKind::MystiqLogSpace => write!(f, "mystiq-log"),
        }
    }
}

/// The outcome of executing a plan, with the measurements the benchmark
/// harness reports.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Which plan was executed.
    pub kind: PlanKind,
    /// Distinct answer tuples with their confidences.
    pub confidences: ConfidenceResult,
    /// Number of answer tuples before duplicate elimination (lazy plans
    /// only; other plans eliminate duplicates as they go).
    pub answer_tuples: Option<usize>,
    /// Number of distinct answer tuples.
    pub distinct_tuples: usize,
    /// Wall-clock time spent computing (and materialising) the answer tuples.
    pub tuple_time: Duration,
    /// Wall-clock time spent computing confidences.
    pub confidence_time: Duration,
    /// Number of scans the confidence operator needed (lazy/hybrid plans).
    pub scans: Option<usize>,
    /// The signature of the top-level confidence operator, if the plan has
    /// one.
    pub signature: Option<Signature>,
    /// Per-tuple confidence *brackets* when the query had no safe plan and
    /// the planner fell back to the intensional evaluators (`None` on the
    /// exact plan families). `confidences` then holds each bracket's
    /// [`value`](pdb_conf::TupleConfidence::value).
    pub approx: Option<ApproxResult>,
}

impl PlanReport {
    /// Total wall-clock time.
    pub fn total_time(&self) -> Duration {
        self.tuple_time + self.confidence_time
    }
}

/// What [`QueryOptions::explain`] asks a caller to render, if anything.
///
/// `Plan` callers usually skip execution entirely and call
/// [`Planner::explain`] instead; carrying the mode in [`QueryOptions`] lets
/// multiplexing callers (the server) thread one options bundle through
/// admission, execution, and response rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainMode {
    /// Describe the chosen plan without executing.
    Plan,
    /// Execute, and report the plan plus the observed span tree and counters.
    Analyze,
}

/// The planner's configuration: plan kind, governor, approximation policy,
/// worker pool, the anytime frontier's memory cap and the collector, in one
/// bundle that [`Planner::explain`] and [`Planner::execute`] both read.
///
/// Because every engine path is bitwise-deterministic at every pool size, two
/// runs with the same `kind`/`policy`/`seed`/`frontier_budget` produce
/// identical answers regardless of `pool` and regardless of whether a
/// governor interrupted neither of them.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Plan family; `None` means [`PlanKind::Lazy`], the SPROUT default.
    pub kind: Option<PlanKind>,
    /// Governor observed at every morsel/chunk/bag checkpoint: the plan
    /// returns [`PlanError::Governed`] when it interrupts, and worker panics
    /// are isolated into [`pdb_govern::SproutError::WorkerPanic`]. The MystiQ
    /// plans run on the eager plan's operators and are governed the same way.
    pub governor: Option<QueryGovernor>,
    /// Fallback policy for unsafe queries: when the chosen plan kind fails
    /// with [`PlanError::UnsafeQuery`], the planner retries with a
    /// [`FallbackPlan`] under the policy (read-once factorization, then
    /// anytime dissociation bounds if the policy allows them). Queries *with*
    /// a safe plan are unaffected. `None` keeps the exact-only behaviour
    /// (unsafe queries error with the blocking attribute pair).
    pub policy: Option<ApproxPolicy>,
    /// Worker pool every plan fans out on; `None` reads `SPROUT_THREADS`
    /// when a plan runs. Results are bitwise-identical at every pool size,
    /// which is what lets an admission scheduler hand queries different
    /// thread shares without changing their answers.
    pub pool: Option<Pool>,
    /// Seed of the fallback's refinement tie-breaker (deterministic per seed
    /// at every pool size).
    pub seed: u64,
    /// Frontier memory cap override: `Some(Some(bytes))` caps, `Some(None)`
    /// removes the default cap, `None` keeps the default. The charge is 80
    /// bytes a leaf, 24 a clause and 8 a variable occurrence, ≈ 2–3× what the
    /// leaves occupy (see
    /// [`AnytimeConfig::frontier_budget`](pdb_conf::AnytimeConfig::frontier_budget));
    /// refinement that would outgrow the cap degrades to wider-but-valid
    /// bounds instead of erroring.
    pub frontier_budget: Option<Option<usize>>,
    /// Per-query observability collector: when set, every stage tallies its
    /// deterministic counters into it and — when the collector has tracing
    /// enabled — the planner records `plan` / `plan.tuples` /
    /// `plan.confidence` spans around each phase. Pure telemetry — answers
    /// are bitwise-identical with or without it.
    pub obs: Option<Arc<QueryObs>>,
    /// Explain mode the caller wants rendered alongside (or instead of) the
    /// result. Wire frontends consult it; the engine executes identically
    /// either way.
    pub explain: Option<ExplainMode>,
}

/// Plans and executes queries over a catalog under one [`QueryOptions`]
/// bundle, using the catalog's declared keys and functional dependencies to
/// refine signatures.
#[derive(Debug)]
pub struct Planner<'a> {
    catalog: &'a Catalog,
    opts: &'a QueryOptions,
    use_fds: bool,
}

impl<'a> Planner<'a> {
    /// A planner that exploits the catalog's functional dependencies.
    pub fn new(catalog: &'a Catalog, opts: &'a QueryOptions) -> Planner<'a> {
        Planner {
            catalog,
            opts,
            use_fds: true,
        }
    }

    /// A planner that ignores functional dependencies (used by the Fig. 13
    /// ablation).
    pub fn without_fds(catalog: &'a Catalog, opts: &'a QueryOptions) -> Planner<'a> {
        Planner {
            use_fds: false,
            ..Planner::new(catalog, opts)
        }
    }

    /// The dependency set the planner uses.
    pub fn fds(&self) -> FdSet {
        if self.use_fds {
            FdSet::from_catalog_decls(&self.catalog.fds())
        } else {
            FdSet::empty()
        }
    }

    /// Whether `query` is tractable for exact computation under the
    /// available dependencies (i.e. has a hierarchical FD-reduct).
    pub fn is_tractable(&self, query: &ConjunctiveQuery) -> bool {
        FdReduct::compute(query, &self.fds()).is_hierarchical()
    }

    /// The signature the confidence operator would use for `query`.
    ///
    /// # Errors
    /// Fails if the query is intractable.
    pub fn signature(&self, query: &ConjunctiveQuery) -> PlanResult<Signature> {
        FdReduct::compute(query, &self.fds())
            .signature()
            .map_err(PlanError::from)
    }

    /// Explains what executing `query` with the chosen plan kind *would* do,
    /// without executing: safe plan vs. intensional fallback, the top-level
    /// signature and scan count, the greedy join order, each relation's
    /// storage backing and pushed-down predicates, and the approximation
    /// policy in force. The decision procedure is exactly
    /// [`execute`](Self::execute)'s — a query that would fall back here falls
    /// back there.
    ///
    /// # Errors
    /// Fails with [`PlanError::UnsafeQuery`] if the query has no safe plan
    /// and no approximation policy is set, and on unknown relations.
    pub fn explain(&self, query: &ConjunctiveQuery, kind: PlanKind) -> PlanResult<PlanExplain> {
        let fds = self.fds();
        let reduct = FdReduct::compute(query, &fds);
        let tractable = reduct.is_hierarchical();
        let path = if tractable {
            ExplainPath::Safe
        } else if self.opts.policy.is_some() {
            ExplainPath::Fallback
        } else {
            return Err(PlanError::unsafe_query(query, &reduct.hierarchy()));
        };
        let signature = match path {
            ExplainPath::Safe => Some(reduct.signature()?),
            ExplainPath::Fallback => None,
        };
        let join_order = greedy_join_order(query, self.catalog)?;
        // Eager and MystiQ plans scan their leaves in the greedy order, each
        // reduced by the key sets of the leaves before it; a hybrid plan's
        // scans are reduced by the running result, the join of every
        // relation before them.
        let reductions = match (path, &kind) {
            (
                ExplainPath::Safe,
                PlanKind::Eager | PlanKind::Mystiq | PlanKind::MystiqLogSpace | PlanKind::Hybrid(_),
            ) => eager::reductions(query, &join_order),
            _ => vec![Vec::new(); join_order.len()],
        };
        let hybrid = matches!(kind, PlanKind::Hybrid(_));
        let scan_details = (join_order.iter().zip(reductions).enumerate())
            .map(|(step, (rel, reductions))| {
                let table = self.catalog.backing(rel)?;
                Ok(ExplainScan {
                    relation: rel.clone(),
                    backing: match &table {
                        pdb_storage::StorageBacking::Row(_) => "row",
                        pdb_storage::StorageBacking::Columnar(_) => "columnar",
                    },
                    rows: table.len(),
                    pushdowns: query
                        .predicates_for(rel)
                        .iter()
                        .map(|p| p.to_string())
                        .collect(),
                    reductions: (reductions.into_iter())
                        .map(|(a, sources)| {
                            let keys = if hybrid {
                                join_order[..step].join(" ⋈ ")
                            } else {
                                sources.join(", ")
                            };
                            format!("{rel}.{a} ⊆ keys({keys})")
                        })
                        .collect(),
                })
            })
            .collect::<PlanResult<Vec<_>>>()?;
        Ok(PlanExplain {
            kind,
            path,
            tractable,
            scans: signature.as_ref().map(|s| s.scan_count()),
            signature: signature.map(|s| s.to_string()),
            join_order,
            scan_details,
            policy: match path {
                ExplainPath::Fallback => self.opts.policy,
                ExplainPath::Safe => None,
            },
            uses_fds: self.use_fds,
        })
    }

    /// Executes `query` with the chosen plan kind and reports timings. When
    /// the options set an approximation policy
    /// ([`QueryOptions::policy`]) and the query has no safe plan, the planner falls back to the intensional evaluators
    /// instead of erroring, and the report's `approx` field is `Some`.
    ///
    /// # Errors
    /// Fails with [`PlanError::UnsafeQuery`] if the query has no safe plan
    /// and no approximation policy is set, if a table is missing, or (for
    /// [`PlanKind::MystiqLogSpace`]) the aggregation overflows.
    pub fn execute(&self, query: &ConjunctiveQuery, kind: PlanKind) -> PlanResult<PlanReport> {
        let ctx = self.ctx();
        let _span = ctx.span_with("plan", kind.to_string());
        let report = match self.execute_exact(query, kind.clone()) {
            Err(PlanError::UnsafeQuery { .. }) if self.opts.policy.is_some() => {
                self.execute_fallback(query, kind)
            }
            other => other,
        }?;
        ctx.tally(Counter::AnswerRows, report.distinct_tuples as u64);
        Ok(report)
    }

    /// The pool every plan runs on: the options' pool, else the
    /// `SPROUT_THREADS` default.
    fn pool(&self) -> Pool {
        self.opts.pool.unwrap_or_else(Pool::from_env)
    }

    /// The options' governor and collector, as every plan takes them.
    fn ctx(&self) -> ExecContext {
        let ctx = (self.opts.governor.as_ref())
            .map_or_else(ExecContext::unbounded, ExecContext::governed);
        match &self.opts.obs {
            Some(obs) => ctx.with_obs(Arc::clone(obs)),
            None => ctx,
        }
    }

    /// Runs one planner phase under its trace span and returns its result with
    /// the wall-clock time it took.
    fn timed<T>(
        &self,
        site: &'static str,
        phase: impl FnOnce() -> PlanResult<T>,
    ) -> PlanResult<(T, Duration)> {
        let _span = self.ctx().span(site);
        let start = Instant::now();
        let out = phase()?;
        Ok((out, start.elapsed()))
    }

    fn execute_exact(&self, query: &ConjunctiveQuery, kind: PlanKind) -> PlanResult<PlanReport> {
        let fds = self.fds();
        match &kind {
            PlanKind::Lazy => {
                let plan = LazyPlan::build(query, &fds, self.catalog)?
                    .with_pool(self.pool())
                    .with_ctx(self.ctx());
                let (answer, tuple_time) =
                    self.timed("plan.tuples", || plan.answer_tuples(self.catalog))?;
                let (confidences, confidence_time) =
                    self.timed("plan.confidence", || plan.confidences(&answer))?;
                Ok(PlanReport {
                    kind,
                    answer_tuples: Some(answer.len()),
                    distinct_tuples: confidences.len(),
                    confidences,
                    tuple_time,
                    confidence_time,
                    scans: Some(plan.scans()),
                    signature: Some(plan.signature().clone()),
                    approx: None,
                })
            }
            PlanKind::Eager => {
                let plan = EagerPlan::build(query, &fds)?
                    .with_pool(self.pool())
                    .with_ctx(self.ctx());
                self.execute_fused(kind, || plan.execute(self.catalog))
            }
            PlanKind::Hybrid(pushed) => {
                let pushed_refs: Vec<&str> = pushed.iter().map(|s| s.as_str()).collect();
                let plan = HybridPlan::build(query, &fds, self.catalog, &pushed_refs)?
                    .with_pool(self.pool())
                    .with_ctx(self.ctx());
                let (answer, tuple_time) =
                    self.timed("plan.tuples", || plan.answer_tuples(self.catalog))?;
                let (confidences, confidence_time) =
                    self.timed("plan.confidence", || plan.confidences(&answer))?;
                Ok(PlanReport {
                    kind,
                    answer_tuples: Some(answer.len()),
                    distinct_tuples: confidences.len(),
                    confidences,
                    tuple_time,
                    confidence_time,
                    scans: Some(plan.top_signature().scan_count()),
                    signature: Some(plan.top_signature().clone()),
                    approx: None,
                })
            }
            PlanKind::Mystiq | PlanKind::MystiqLogSpace => {
                let aggregation = if kind == PlanKind::MystiqLogSpace {
                    ProbAggregation::MystiqLog
                } else {
                    ProbAggregation::Stable
                };
                // The plan gets the governor but not the collector:
                // `sprout_bench` replays a MystiQ op through a bare
                // `SafePlan`, to which it cannot attach a `QueryObs`, and
                // its traced run fails an op whose replay and engine
                // counters differ. So MystiQ ops tally nothing until the
                // harness can (ROADMAP item 1(a)(iv)).
                let governed = (self.opts.governor.as_ref())
                    .map_or_else(ExecContext::unbounded, ExecContext::governed);
                let plan = SafePlan::build_with_aggregation(query, &fds, aggregation)?
                    .with_pool(self.pool())
                    .with_ctx(governed);
                self.execute_fused(kind, || plan.execute(self.catalog))
            }
        }
    }

    /// Runs a plan that walks the query tree — eager or MystiQ. Its per-node
    /// aggregations fuse tuple and confidence computation, so one phase span
    /// covers both.
    fn execute_fused(
        &self,
        kind: PlanKind,
        execute: impl FnOnce() -> PlanResult<ConfidenceResult>,
    ) -> PlanResult<PlanReport> {
        let (confidences, total) = self.timed("plan.tuples", execute)?;
        Ok(PlanReport {
            kind,
            answer_tuples: None,
            distinct_tuples: confidences.len(),
            confidences,
            tuple_time: total,
            confidence_time: Duration::ZERO,
            scans: None,
            signature: None,
            approx: None,
        })
    }

    /// The unsafe-query path: lazy joins, then read-once factorization and
    /// (policy permitting) anytime dissociation bounds on the per-tuple
    /// lineage. The requested plan kind is recorded unchanged in the report
    /// so callers can see which exact family was attempted.
    fn execute_fallback(&self, query: &ConjunctiveQuery, kind: PlanKind) -> PlanResult<PlanReport> {
        let policy = self.opts.policy.expect("fallback runs only with a policy");
        let mut plan = FallbackPlan::build(query, self.catalog, policy)?
            .with_seed(self.opts.seed)
            .with_pool(self.pool())
            .with_ctx(self.ctx());
        if let Some(budget) = self.opts.frontier_budget {
            plan = plan.with_frontier_budget(budget);
        }
        let (answer, tuple_time) =
            self.timed("plan.tuples", || plan.answer_tuples(self.catalog))?;
        let (approx, confidence_time) =
            self.timed("plan.confidence", || plan.confidences(&answer))?;
        let confidences: ConfidenceResult = approx
            .iter()
            .map(|t| (t.tuple.clone(), t.value()))
            .collect();
        Ok(PlanReport {
            kind,
            answer_tuples: Some(answer.len()),
            distinct_tuples: confidences.len(),
            confidences,
            tuple_time,
            confidence_time,
            scans: None,
            signature: None,
            approx: Some(approx),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_exec::fixtures::{fig1_catalog, fig1_catalog_with_keys};
    use pdb_query::cq::{intro_query_q, intro_query_q_prime};

    const DEFAULT: QueryOptions = QueryOptions {
        kind: None,
        governor: None,
        policy: None,
        pool: None,
        seed: 0,
        frontier_budget: None,
        obs: None,
        explain: None,
    };

    #[test]
    fn all_plan_kinds_agree_on_the_intro_query() {
        let catalog = fig1_catalog_with_keys();
        let planner = Planner::new(&catalog, &DEFAULT);
        let q = intro_query_q();
        let kinds = [
            PlanKind::Lazy,
            PlanKind::Eager,
            PlanKind::Hybrid(vec!["Item".to_string()]),
            PlanKind::Mystiq,
        ];
        for kind in kinds {
            let report = planner.execute(&q, kind.clone()).unwrap();
            assert_eq!(report.distinct_tuples, 1, "{kind}");
            assert!((report.confidences[0].1 - 0.0028).abs() < 1e-9, "{kind}");
        }
    }

    #[test]
    fn planner_without_fds_reports_more_scans() {
        let catalog = fig1_catalog_with_keys();
        let q = intro_query_q();
        let with_fds = Planner::new(&catalog, &DEFAULT)
            .execute(&q, PlanKind::Lazy)
            .unwrap();
        let without = Planner::without_fds(&catalog, &DEFAULT)
            .execute(&q, PlanKind::Lazy)
            .unwrap();
        assert!(without.scans.unwrap() > with_fds.scans.unwrap());
        assert!((with_fds.confidences[0].1 - without.confidences[0].1).abs() < 1e-9);
    }

    #[test]
    fn tractability_depends_on_fds() {
        let with_keys = fig1_catalog_with_keys();
        let without_keys = fig1_catalog();
        let q = intro_query_q_prime();
        assert!(Planner::new(&with_keys, &DEFAULT).is_tractable(&q));
        assert!(!Planner::new(&without_keys, &DEFAULT).is_tractable(&q));
        assert!(Planner::new(&without_keys, &DEFAULT).signature(&q).is_err());
        assert!(matches!(
            Planner::new(&without_keys, &DEFAULT).execute(&q, PlanKind::Lazy),
            Err(PlanError::UnsafeQuery { .. })
        ));
    }

    #[test]
    fn policy_falls_back_on_unsafe_queries_and_leaves_safe_ones_untouched() {
        let without_keys = fig1_catalog();
        let q = intro_query_q_prime();
        // With a policy the unsafe query produces brackets instead of erroring.
        let opts = QueryOptions {
            policy: Some(ApproxPolicy::Bounds { eps: 1e-9 }),
            ..QueryOptions::default()
        };
        let planner = Planner::new(&without_keys, &opts);
        let report = planner.execute(&q, PlanKind::Lazy).unwrap();
        let brackets = report.approx.as_ref().unwrap();
        assert_eq!(brackets.len(), 1);
        assert!(brackets[0].lo <= 0.0028 + 1e-12 && 0.0028 <= brackets[0].hi + 1e-12);
        // A safe query under the same policy is bitwise-identical to the
        // policy-free planner: the fallback never runs.
        let exact = Planner::new(&without_keys, &DEFAULT)
            .execute(&intro_query_q(), PlanKind::Lazy)
            .unwrap();
        let with_policy = planner.execute(&intro_query_q(), PlanKind::Lazy).unwrap();
        assert!(with_policy.approx.is_none());
        assert_eq!(
            exact.confidences[0].1.to_bits(),
            with_policy.confidences[0].1.to_bits()
        );
    }

    #[test]
    fn report_exposes_timings_and_counts() {
        let catalog = fig1_catalog();
        let planner = Planner::new(&catalog, &DEFAULT);
        let report = planner.execute(&intro_query_q(), PlanKind::Lazy).unwrap();
        assert_eq!(report.answer_tuples, Some(2));
        assert_eq!(report.distinct_tuples, 1);
        assert!(report.total_time() >= report.confidence_time);
        assert!(report.signature.is_some());
        assert_eq!(report.kind.to_string(), "lazy");
        assert_eq!(
            PlanKind::Hybrid(vec!["Item".into()]).to_string(),
            "hybrid(Item)"
        );
    }
}
