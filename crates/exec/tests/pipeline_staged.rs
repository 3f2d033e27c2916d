//! The lazy pipeline against a chain of the public operators.
//!
//! `sprout_bench`'s traced run replays a lazy plan one public operator at a
//! time — fused scan, `natural_join_ctx`, `project_ctx` after every step, a
//! head `project_ctx`, the late decode — and holds the replay's answer and
//! counters against the engine's. The benchmark is not part of tier-1 and an
//! engine change may not edit it, so this test is the same contract inside
//! `cargo test`: `evaluate_join_order_ctx` may move, fuse or skip whatever it
//! likes between its operators, as long as its answer — schema, rows,
//! lineage, row order — and every deterministic counter equal what that
//! chain produces, for every catalogue query, on both backings.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use pdb_exec::pipeline::evaluate_join_order_ctx;
use pdb_exec::{columnar, ops, Annotated, ExecContext, ExecResult};
use pdb_govern::{Counter, QueryObs};
use pdb_par::Pool;
use pdb_query::ConjunctiveQuery;
use pdb_storage::{Catalog, StorageBacking, Value};
use pdb_tpch::{
    case_study_queries, fig12_query_c, fig12_query_d, probabilistic_catalog,
    probabilistic_catalog_columnar, selectivity_query_a, selectivity_query_b, tpch_query, TpchData,
    TpchScale,
};
use sprout_plan::join_order::greedy_join_order;

/// Every conjunctive query `pdb_tpch::queries` can build (the list
/// `plan/tests/join_order_pin.rs` pins the join orders of).
fn catalogue() -> Vec<(String, ConjunctiveQuery)> {
    let mut out: Vec<(String, ConjunctiveQuery)> = case_study_queries()
        .into_iter()
        .chain(["B5", "B8", "B9"].map(|id| tpch_query(id).expect("in the catalogue")))
        .filter_map(|entry| Some((entry.id, entry.query?)))
        .collect();
    out.push(("A".to_string(), selectivity_query_a(1000.0)));
    out.push(("B".to_string(), selectivity_query_b(100_000.0)));
    out.push(("C".to_string(), fig12_query_c()));
    out.push(("D".to_string(), fig12_query_d()));
    out
}

/// The lazy pipeline, one public by-reference operator at a time, in the
/// shape of `perfbench/src/suite/replay.rs::staged_answer`.
fn staged_answer(
    query: &ConjunctiveQuery,
    catalog: &Catalog,
    order: &[String],
    pool: &Pool,
    ctx: &ExecContext,
) -> ExecResult<Annotated> {
    let head: BTreeSet<String> = query.head_set();
    let join_attrs = query.join_attributes();
    let mut dicts: BTreeMap<String, Arc<[Arc<str>]>> = BTreeMap::new();
    let mut current: Option<Annotated> = None;

    for (step, rel_name) in order.iter().enumerate() {
        let atom = query
            .relation(rel_name)
            .expect("order names the query's relations");
        let table = catalog.backing(rel_name)?;
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
                ops::scan_filter_project_ctx(t, rel_name, &predicates, &keep, &scan_pool, ctx)?
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
                )?;
                for (a, d) in keep.iter().zip(col_dicts) {
                    if let Some(d) = d {
                        dicts.insert(a.clone(), d);
                    }
                }
                scanned
            }
        };
        let joined = match current.take() {
            None => scanned,
            Some(acc) => {
                let gated = pool.for_items(acc.len().max(scanned.len()));
                ops::natural_join_ctx(&acc, &scanned, &gated, ctx)?
            }
        };
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
        current = Some(ops::project_ctx(
            &joined,
            &needed,
            &pool.for_items(joined.len()),
            ctx,
        )?);
    }

    let joined = current.expect("query has at least one relation");
    let mut answer = ops::project_ctx(&joined, &query.head, &pool.for_items(joined.len()), ctx)?;

    let ranked_cols: Vec<(usize, Arc<[Arc<str>]>)> = answer
        .schema()
        .names()
        .into_iter()
        .enumerate()
        .filter_map(|(j, a)| dicts.get(a).map(|d| (j, Arc::clone(d))))
        .collect();
    ctx.tally(Counter::RankedColumns, ranked_cols.len() as u64);
    if !ranked_cols.is_empty() && !answer.is_empty() {
        let dw = answer.data_width();
        let (data, _) = answer.arena_segments_mut();
        let mut decoded = 0u64;
        for row in data.chunks_exact_mut(dw) {
            for (j, dict) in &ranked_cols {
                if let Value::Int(code) = row[*j] {
                    row[*j] = Value::Str(Arc::clone(&dict[code as usize]));
                    decoded += 1;
                }
            }
        }
        ctx.tally(Counter::DecodedStrings, decoded);
    }
    Ok(answer)
}

#[test]
fn the_pipeline_equals_the_chain_of_public_operators_on_every_catalogue_query() {
    let data = TpchData::generate(TpchScale::new(0.002));
    let backings = [
        ("row", probabilistic_catalog(&data, 1).expect("row catalog")),
        (
            "columnar",
            probabilistic_catalog_columnar(&data, 1).expect("columnar catalog"),
        ),
    ];
    let queries = catalogue();
    assert_eq!(queries.len(), 40);
    for (backing, catalog) in &backings {
        for (id, query) in &queries {
            let order = greedy_join_order(query, catalog).expect("the catalogue plans");
            for threads in [1, 8] {
                let pool = Pool::new(threads);
                let observed = |run: &dyn Fn(&ExecContext) -> ExecResult<Annotated>| {
                    let obs = QueryObs::new();
                    let ctx = ExecContext::unbounded().with_obs(Arc::clone(&obs));
                    (run(&ctx), obs.counter_values())
                };
                let engine =
                    observed(&|ctx| evaluate_join_order_ctx(query, catalog, &order, &pool, ctx));
                let staged = observed(&|ctx| staged_answer(query, catalog, &order, &pool, ctx));
                let cell = format!("q{id} {backing} {threads}t");
                // Q5 and B5 join on a column the generator does not
                // produce: both sides must fail alike; everything else runs.
                assert_eq!(
                    engine.0.is_err(),
                    matches!(id.as_str(), "5" | "B5"),
                    "{cell}"
                );
                assert_eq!(engine.0, staged.0, "{cell}: answers differ");
                assert_eq!(engine.1, staged.1, "{cell}: counters differ");
            }
        }
    }
}
