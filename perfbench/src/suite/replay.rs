//! Staged replay of one operation through the layers' public functions,
//! under the harness's own spans.
//!
//! The replay calls what `Planner::execute` calls, in the same order, but
//! one public function at a time so a span can sit at each layer boundary:
//! FD-reduct → join order (→ statistics) → scan / join / project per
//! relation → confidence. Its answer is digested and held against the
//! untraced run's, and its counters against the engine's own, so a replay
//! that drifts from the engine shows up as a failed check, not as a wrong
//! attribution. Plans with no public seam inside (`EagerPlan::execute`,
//! `HybridPlan::answer_tuples`, `SafePlan::execute`) are one span each.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pdb_conf::one_scan::{one_scan_confidences_presorted_tuned, sort_for_signature};
use pdb_conf::{ConfidenceOperator, SplitPolicy, Strategy};
use pdb_exec::extensional::ProbAggregation;
use pdb_exec::{columnar, ops, Annotated};
use pdb_query::reduct::FdReduct;
use pdb_query::{ConjunctiveQuery, FdSet, Signature};
use pdb_storage::{Catalog, StorageBacking, Value};
use sprout::{
    ApproxResult, ConfidenceResult, Counter, ExecContext, FallbackPlan, PlanKind, PlanReport, Pool,
    QueryObs, SproutDb,
};
use sprout_plan::eager::EagerPlan;
use sprout_plan::hybrid::HybridPlan;
use sprout_plan::join_order::greedy_join_order;
use sprout_plan::safe::SafePlan;
use sprout_plan::stats::Statistics;

use super::ops::OpSpec;
use super::spans::Tracer;

type Outcome<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Replays `op` under spans; `obs` collects the engine's counters.
///
/// # Errors
/// Returns the engine's error rendered as text.
pub fn replay_op(
    tr: &mut Tracer,
    db: &SproutDb,
    op: &OpSpec,
    pool: Pool,
    seed: u64,
    obs: &Arc<QueryObs>,
) -> Outcome<PlanReport> {
    let catalog = db.catalog();
    // `greedy_join_order` has no public seam around its statistics pass, so
    // `Statistics::collect` is timed on a call of its own, before the
    // operation's interval opens, and recorded as `plan.order`'s first child.
    let needs_order = matches!(op.kind, PlanKind::Lazy);
    let stats_took = if needs_order {
        let t0 = Instant::now();
        Statistics::collect(&op.query, catalog).map_err(err)?;
        t0.elapsed()
    } else {
        Duration::ZERO
    };

    let root = tr.enter("bench.op", &op.id);
    let result = match &op.kind {
        PlanKind::Lazy => replay_lazy(tr, catalog, op, pool, seed, obs, stats_took),
        PlanKind::Eager => replay_eager(tr, catalog, op, pool, obs),
        PlanKind::Hybrid(pushed) => replay_hybrid(tr, catalog, op, pushed, pool, obs),
        PlanKind::Mystiq | PlanKind::MystiqLogSpace => replay_mystiq(tr, catalog, op),
    };
    tr.exit(root);
    let (report, split) = result?;
    obs.add(Counter::AnswerRows, report.distinct_tuples as u64);

    // The confidence operator sorts an index permutation and scans through
    // it in one call; the sort / scan split comes from the physically
    // sorted path, run on a copy after the operation's interval closed.
    if let Some((answer, signature)) = split {
        let mut sorted = answer;
        let started = Instant::now();
        sort_for_signature(&mut sorted, &signature).map_err(err)?;
        tr.aside("conf.sort", &op.id, started, started.elapsed());
        let started = Instant::now();
        one_scan_confidences_presorted_tuned(
            &sorted,
            &signature,
            &pool.for_items(sorted.len()),
            SplitPolicy::default(),
        )
        .map_err(err)?;
        tr.aside("conf.one_scan", &op.id, started, started.elapsed());
    }
    Ok(report)
}

type Replayed = Outcome<(PlanReport, Option<(Annotated, Signature)>)>;

fn report(
    op: &OpSpec,
    confidences: ConfidenceResult,
    answer_tuples: Option<usize>,
    approx: Option<ApproxResult>,
) -> PlanReport {
    PlanReport {
        kind: op.kind.clone(),
        distinct_tuples: confidences.len(),
        confidences,
        answer_tuples,
        tuple_time: Duration::ZERO,
        confidence_time: Duration::ZERO,
        scans: None,
        signature: None,
        approx,
    }
}

fn replay_lazy(
    tr: &mut Tracer,
    catalog: &Catalog,
    op: &OpSpec,
    pool: Pool,
    seed: u64,
    obs: &Arc<QueryObs>,
    stats_took: Duration,
) -> Replayed {
    let ctx = ExecContext::unbounded().with_obs(Arc::clone(obs));
    let build = tr.enter("plan.build", "");
    let fds = FdSet::from_catalog_decls(&catalog.fds());
    let reduct_span = tr.enter("query.reduct", "");
    let reduct = FdReduct::compute(&op.query, &fds);
    let signature = if reduct.hierarchy().is_hierarchical() {
        Some(reduct.signature().map_err(err)?)
    } else {
        None
    };
    tr.exit(reduct_span);

    let Some(signature) = signature else {
        // No safe plan: the planner retries with a fallback plan, whose
        // build is the join ordering alone.
        let policy = op
            .policy
            .ok_or_else(|| format!("{} has no safe plan and no policy", op.id))?;
        let order_span = tr.enter("plan.order", "");
        let plan = FallbackPlan::build(&op.query, catalog, policy).map_err(err)?;
        tr.child_measured_aside(order_span, "plan.stats", stats_took);
        tr.exit(order_span);
        tr.exit(build);
        let plan = plan
            .with_seed(seed)
            .with_pool(pool)
            .with_frontier_budget(Some(op.frontier_budget))
            .with_obs(Arc::clone(obs));
        let answer = staged_answer(tr, &op.query, catalog, plan.join_order(), &pool, &ctx)?;
        let approx = tr.scope("conf.anytime", "", || {
            plan.confidences(&answer).map_err(err)
        })?;
        let confidences = approx
            .iter()
            .map(|t| (t.tuple.clone(), t.value()))
            .collect();
        return Ok((
            report(op, confidences, Some(answer.len()), Some(approx)),
            None,
        ));
    };

    let order_span = tr.enter("plan.order", "");
    let order = greedy_join_order(&op.query, catalog).map_err(err)?;
    tr.child_measured_aside(order_span, "plan.stats", stats_took);
    tr.exit(order_span);
    tr.exit(build);

    let answer = staged_answer(tr, &op.query, catalog, &order, &pool, &ctx)?;
    let operator = ConfidenceOperator::with_pool(signature.clone(), pool).with_obs(Arc::clone(obs));
    let confidences = tr.scope("conf.total", "", || {
        operator.compute(&answer, Strategy::Auto).map_err(err)
    })?;
    let rows = answer.len();
    let split = signature.is_one_scan().then_some((answer, signature));
    Ok((report(op, confidences, Some(rows), None), split))
}

fn replay_eager(
    tr: &mut Tracer,
    catalog: &Catalog,
    op: &OpSpec,
    pool: Pool,
    obs: &Arc<QueryObs>,
) -> Replayed {
    let plan = tr.scope("plan.build", "", || {
        let fds = FdSet::from_catalog_decls(&catalog.fds());
        EagerPlan::build(&op.query, &fds).map_err(err)
    })?;
    let plan = plan.with_pool(pool).with_obs(Arc::clone(obs));
    let confidences = tr.scope("plan.eager_exec", "", || plan.execute(catalog).map_err(err))?;
    Ok((report(op, confidences, None, None), None))
}

fn replay_hybrid(
    tr: &mut Tracer,
    catalog: &Catalog,
    op: &OpSpec,
    pushed: &[String],
    pool: Pool,
    obs: &Arc<QueryObs>,
) -> Replayed {
    let pushed: Vec<&str> = pushed.iter().map(String::as_str).collect();
    let plan = tr.scope("plan.build", "", || {
        let fds = FdSet::from_catalog_decls(&catalog.fds());
        HybridPlan::build(&op.query, &fds, catalog, &pushed).map_err(err)
    })?;
    let plan = plan.with_pool(pool).with_obs(Arc::clone(obs));
    let answer = tr.scope("plan.hybrid_exec", "", || {
        plan.answer_tuples(catalog).map_err(err)
    })?;
    let operator =
        ConfidenceOperator::with_pool(plan.top_signature().clone(), pool).with_obs(Arc::clone(obs));
    let confidences = tr.scope("conf.total", "", || {
        operator.compute(&answer, Strategy::Auto).map_err(err)
    })?;
    Ok((report(op, confidences, Some(answer.len()), None), None))
}

fn replay_mystiq(tr: &mut Tracer, catalog: &Catalog, op: &OpSpec) -> Replayed {
    let plan = tr.scope("plan.build", "", || {
        let fds = FdSet::from_catalog_decls(&catalog.fds());
        SafePlan::build_with_aggregation(&op.query, &fds, ProbAggregation::Stable).map_err(err)
    })?;
    let confidences = tr.scope("plan.mystiq_exec", "", || {
        plan.execute(catalog).map_err(err)
    })?;
    Ok((report(op, confidences, None, None), None))
}

/// The lazy pipeline of `pdb_exec::late`, one public operator at a time:
/// fused scan per relation (ranked string columns on columnar backings),
/// join with the running result, projection after every join, head
/// projection, late decode.
fn staged_answer(
    tr: &mut Tracer,
    query: &ConjunctiveQuery,
    catalog: &Catalog,
    order: &[String],
    pool: &Pool,
    ctx: &ExecContext,
) -> Outcome<Annotated> {
    let answer_span = tr.enter("exec.answer", "");
    let head: BTreeSet<String> = query.head_set();
    let join_attrs = query.join_attributes();
    let mut dicts: BTreeMap<String, Arc<[Arc<str>]>> = BTreeMap::new();
    let mut current: Option<Annotated> = None;

    for (step, rel_name) in order.iter().enumerate() {
        let atom = query
            .relation(rel_name)
            .ok_or_else(|| format!("join order names unknown relation {rel_name}"))?;
        let scan_span = tr.enter("exec.scan", rel_name);
        let table = catalog.backing(rel_name).map_err(err)?;
        let keep: Vec<String> = atom
            .attributes
            .iter()
            .filter(|a| head.contains(*a) || join_attrs.contains(*a))
            .cloned()
            .collect();
        let predicates = query.predicates_for(rel_name);
        let scan_pool = pool.for_items(table.len());
        let scanned = match &table {
            StorageBacking::Row(t) => {
                ops::scan_filter_project_ctx(t, rel_name, &predicates, &keep, &scan_pool, ctx)
                    .map_err(err)?
            }
            StorageBacking::Columnar(t) => {
                let ranked: Vec<bool> = keep
                    .iter()
                    .map(|a| head.contains(a) && !join_attrs.contains(a))
                    .collect();
                let (scanned, col_dicts, _) = columnar::scan_filter_project_columnar_ranked_ctx(
                    t,
                    rel_name,
                    &predicates,
                    &keep,
                    &ranked,
                    &scan_pool,
                    ctx,
                )
                .map_err(err)?;
                for (a, d) in keep.iter().zip(col_dicts) {
                    if let Some(d) = d {
                        dicts.insert(a.clone(), d);
                    }
                }
                scanned
            }
        };
        tr.exit(scan_span);

        let joined = match current.take() {
            None => scanned,
            Some(acc) => tr.scope("exec.join", rel_name, || {
                let gated = pool.for_items(acc.len().max(scanned.len()));
                ops::natural_join_ctx(&acc, &scanned, &gated, ctx).map_err(err)
            })?,
        };
        current = Some(tr.scope("exec.project", rel_name, || {
            let remaining = &order[step + 1..];
            let needed: Vec<String> = joined
                .schema()
                .names()
                .into_iter()
                .filter(|a| {
                    head.contains(*a)
                        || remaining
                            .iter()
                            .any(|r| query.relation(r).is_some_and(|atom| atom.has_attribute(a)))
                })
                .map(str::to_string)
                .collect();
            ops::project_ctx(&joined, &needed, &pool.for_items(joined.len()), ctx).map_err(err)
        })?);
    }

    let joined = current.ok_or("query has no relations")?;
    let mut answer = tr.scope("exec.project", "head", || {
        ops::project_ctx(&joined, &query.head, &pool.for_items(joined.len()), ctx).map_err(err)
    })?;

    let ranked_cols: Vec<(usize, Arc<[Arc<str>]>)> = answer
        .schema()
        .names()
        .into_iter()
        .enumerate()
        .filter_map(|(j, a)| dicts.get(a).map(|d| (j, Arc::clone(d))))
        .collect();
    ctx.tally(Counter::RankedColumns, ranked_cols.len() as u64);
    if !ranked_cols.is_empty() && !answer.is_empty() {
        let decode_span = tr.enter("exec.project", "late.decode");
        let rows = answer.len();
        let dw = answer.data_width();
        let decode_pool = pool.for_items(rows);
        let cuts: Vec<usize> = pdb_par::even_ranges(rows, decode_pool.threads())
            .iter()
            .map(|r| r.start * dw)
            .collect();
        let (data, _) = answer.arena_segments_mut();
        let decoded: usize = decode_pool
            .map_slices_mut(data, &cuts, |_, seg| {
                let mut n = 0usize;
                for row in seg.chunks_exact_mut(dw) {
                    for (j, dict) in &ranked_cols {
                        if let Value::Int(code) = row[*j] {
                            row[*j] = Value::Str(Arc::clone(&dict[code as usize]));
                            n += 1;
                        }
                    }
                }
                n
            })
            .into_iter()
            .sum();
        ctx.tally(Counter::DecodedStrings, decoded as u64);
        tr.exit(decode_span);
    }
    tr.exit(answer_span);
    Ok(answer)
}
