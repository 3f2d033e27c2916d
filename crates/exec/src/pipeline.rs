//! Evaluating a conjunctive query under an explicit join order.
//!
//! The point of the SPROUT operator is that *any* plan may be used to compute
//! the answer tuples (Section I: "the restrictions imposed by safe plans are
//! not necessary and any query plan can be used to compute the answer
//! tuples"). This module provides that evaluation: given a conjunctive query,
//! a catalog, and a join order, it pushes constant selections into the fused
//! scans, keeps of each relation only its head and join attributes
//! (predicate-only columns are consumed inside the scan and never
//! materialised), joins in the given order, keeps after every step only the
//! columns the head or a join still to come needs, and produces the
//! lineage-annotated answer relation the confidence-computation operator
//! consumes. One pipeline serves both storage backings.
//!
//! Every row of an intermediate is written once. A join step writes only
//! the columns a later step or the head needs
//! ([`ops::natural_join_project_ctx`]), the last one straight in the head's
//! column order; the first step owns its scan, so a projection that keeps
//! every column in place — the common case, since a scan already keeps only
//! head and join attributes — hands it on ([`Annotated::into_projection_ctx`];
//! no arena is allocated or charged and no `project.write` checkpoint
//! runs). A single-relation query therefore copies its scan's output only
//! if the head reorders it. The by-reference operators
//! ([`ops::natural_join_ctx`], [`ops::project_ctx`], the fused scans) are
//! what a caller chaining them by hand gets, and `tests/pipeline_staged.rs`
//! holds the pipeline's answer and counters to exactly such a chain.
//!
//! # Semi-join reduction
//!
//! With `reduce` set ([`evaluate_join_order_with`]; the hybrid plan's walk),
//! every scan after the first takes one more `IN` predicate per attribute
//! its relation shares with the running result, holding that result's
//! distinct non-NULL keys, when they are fewer than half the column's exact
//! distinct count ([`Predicate::semi_join`]). Hierarchical queries are
//! acyclic, so a row with no partner in the running result joins nothing;
//! over a columnar table the `IN` is one word-set pass after zone pruning.
//! The answer stays bitwise-identical — values, lineage, row order: the
//! scan is the join's build side, and the join emits in probe order with
//! each probe row's matches ascending, so dropping partner-less build rows
//! reorders nothing; a filter attribute is a kept data column, so an
//! aggregation `after_scan` runs drops whole groups and leaves the others
//! as they were.
//!
//! # Late string materialization
//!
//! On columnar backings, string head columns stay in their **dictionary
//! rank** representation (`Value::Int(code)`) all the way through the
//! relational pipeline and are decoded back to `Value::Str` once, on the
//! final answer:
//!
//! * the columnar scan gathers ranks instead of decoded strings
//!   ([`crate::columnar::scan_filter_project_columnar_ranked_ctx`]) — no
//!   per-cell `Arc` clone, no refcount traffic;
//! * dictionaries are **sorted**, so ranks order exactly like their strings
//!   (`code_a < code_b ⇔ str_a < str_b`): joins, sorts, grouping and
//!   duplicate elimination over ranked columns produce precisely the row
//!   set *and row order* the decoded path would;
//! * the final gather decodes each surviving cell exactly once — the
//!   number of string materializations is bounded by the answer size, not
//!   by the intermediate result sizes ([`Counter::DecodedStrings`],
//!   asserted by the alloc-count harness).
//!
//! Only columns that are **head attributes and not join attributes** ride
//! as ranks: ranks are only meaningful against their own dictionary, so a
//! join attribute — compared against another table's column — must stay
//! decoded (on TPC-H all join keys are integers anyway, so this costs
//! nothing). Row-backed relations scan decoded values and rank nothing.
//!
//! The decoded answer is bitwise-identical — values, lineage, row order —
//! at every thread count and on either storage backing.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use pdb_govern::{Counter, ExecContext, Stage};
use pdb_par::Pool;
use pdb_query::{ConjunctiveQuery, Predicate};
use pdb_storage::{Catalog, StorageBacking, Value};

use crate::annotated::Annotated;
use crate::error::{ExecError, ExecResult};
use crate::ops;

/// Evaluates `query` over `catalog` joining relations in the order given by
/// `order` (relation names), on the default worker pool. Returns the
/// annotated answer projected onto the head attributes (all attributes for
/// Boolean queries are projected away, leaving an empty data schema).
///
/// # Errors
/// Fails if `order` is not a permutation of the query's relations, or if a
/// referenced table/column is missing from the catalog.
pub fn evaluate_join_order(
    query: &ConjunctiveQuery,
    catalog: &Catalog,
    order: &[String],
) -> ExecResult<Annotated> {
    evaluate_join_order_ctx(
        query,
        catalog,
        order,
        &Pool::from_env(),
        &ExecContext::unbounded(),
    )
}

/// [`evaluate_join_order`] on an explicit worker pool under a governor
/// [`ExecContext`]: every scan, join and copying projection of the pipeline
/// fans out on the pool (each operator call is gated by its own input size,
/// so small steps stay inline) and runs its cancellation / deadline / budget
/// checkpoints; the final decode pass checkpoints on the answer's row blocks
/// (`late.decode`, [`Stage::Project`]). An interrupted step surfaces as
/// [`ExecError::Governed`] naming the stage. The answer is bitwise-identical
/// — values, lineage, row order — at every pool size, and a governed run
/// that completes is bitwise-identical to an ungoverned one: checkpoints
/// only stop work, they never reorder it.
///
/// # Errors
/// Fails if `order` is not a permutation of the query's relations, if a
/// referenced table/column is missing from the catalog, or with
/// [`ExecError::Governed`] when the governor interrupts evaluation.
pub fn evaluate_join_order_ctx(
    query: &ConjunctiveQuery,
    catalog: &Catalog,
    order: &[String],
    pool: &Pool,
    ctx: &ExecContext,
) -> ExecResult<Annotated> {
    evaluate_join_order_with(query, catalog, order, pool, ctx, false, |_, scanned| {
        Ok::<_, ExecError>(scanned)
    })
}

/// The engine's one join walk: [`evaluate_join_order_ctx`] with a step of
/// the caller's after every relation's scan — `after_scan(relation,
/// scanned)` returns what joins the running result in the scan's place (a
/// hybrid plan aggregates the relations it pushes down there). The step
/// sees string head columns as their dictionary ranks, which group and order
/// as the strings do; it must keep the data columns it is handed.
///
/// With `reduce`, every scan after the first is semi-join reduced (see the
/// module docs). Only the hybrid plan sets it: the benchmark harness replays
/// the lazy and fallback walks operator by operator and holds their counters
/// to the engine's. Once that replay is deleted, so is this argument, and
/// every walk reduces.
///
/// # Errors
/// Those of [`evaluate_join_order_ctx`], and the first error of
/// `after_scan`.
pub fn evaluate_join_order_with<E: From<ExecError>>(
    query: &ConjunctiveQuery,
    catalog: &Catalog,
    order: &[String],
    pool: &Pool,
    ctx: &ExecContext,
    reduce: bool,
    mut after_scan: impl FnMut(&str, Annotated) -> Result<Annotated, E>,
) -> Result<Annotated, E> {
    let query_rels: BTreeSet<&str> = query.relation_names().into_iter().collect();
    let order_rels: BTreeSet<&str> = order.iter().map(|s| s.as_str()).collect();
    if query_rels != order_rels || order.len() != query.relations.len() {
        return Err(ExecError::UnknownRelation(format!(
            "join order {order:?} is not a permutation of the query relations {query_rels:?}"
        ))
        .into());
    }

    let head: BTreeSet<String> = query.head_set();
    let join_attrs = query.join_attributes();

    // attribute → dictionary, for every column scanned as ranks. Attribute
    // names are unique across relations here (an attribute occurring in two
    // atoms is a join attribute, and join attributes are never ranked).
    let mut dicts: BTreeMap<String, Arc<[Arc<str>]>> = BTreeMap::new();

    let mut current: Option<Annotated> = None;
    for (step, rel_name) in order.iter().enumerate() {
        let atom = query
            .relation(rel_name)
            .ok_or_else(|| ExecError::UnknownRelation(rel_name.clone()))?;
        let table = catalog.backing(rel_name).map_err(ExecError::from)?;

        let keep: Vec<String> = atom
            .attributes
            .iter()
            .filter(|a| head.contains(*a) || join_attrs.contains(*a))
            .cloned()
            .collect();
        let mut filters = Vec::new();
        if let Some(acc) = current.as_ref().filter(|_| reduce) {
            let stats = catalog.table_stats(rel_name).map_err(ExecError::from)?;
            for a in atom.attributes.iter().filter(|a| acc.schema().contains(a)) {
                let c = acc.column_index(a)?;
                let keys = acc.iter().map(|r| r.data[c].clone());
                filters.extend(Predicate::semi_join(&stats, rel_name, a, keys));
            }
        }
        let mut predicates = query.predicates_for(rel_name);
        predicates.extend(&filters);
        let scan_pool = pool.for_items(table.len());
        let scan_span = ctx.span_with("scan", rel_name.as_str());
        let scanned = match &table {
            StorageBacking::Row(t) => {
                ops::scan_filter_project_ctx(t, rel_name, &predicates, &keep, &scan_pool, ctx)?
            }
            StorageBacking::Columnar(t) => {
                // Rank-carry every head column that is not a join attribute;
                // the scan honours the flag only where the column really is
                // dictionary-encoded and reports which ones via `col_dicts`.
                let ranked: Vec<bool> = keep
                    .iter()
                    .map(|a| head.contains(a) && !join_attrs.contains(a))
                    .collect();
                let (scanned, col_dicts, _) =
                    crate::columnar::scan_filter_project_columnar_ranked_ctx(
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

        drop(scan_span);
        let scanned = after_scan(rel_name, scanned)?;

        // Keep what the head or a join still to come needs; the last step
        // keeps the head, in the head's column order. A join writes only
        // those columns; a first step's scan is owned, so a projection that
        // keeps every column in place moves it.
        let remaining = &order[step + 1..];
        let needed = |names: &mut dyn Iterator<Item = &str>| -> Vec<String> {
            if remaining.is_empty() {
                return query.head.clone();
            }
            names
                .filter(|a| {
                    head.contains(*a)
                        || remaining
                            .iter()
                            .any(|r| query.relation(r).is_some_and(|atom| atom.has_attribute(a)))
                })
                .map(str::to_string)
                .collect()
        };
        current = Some(match current.take() {
            None => {
                let keep = needed(&mut scanned.schema().names().into_iter());
                let gated = pool.for_items(scanned.len());
                scanned.into_projection_ctx(&keep, &gated, ctx)?
            }
            Some(acc) => {
                let keep = needed(&mut acc.join_names(&scanned));
                let join_span = ctx.span_with("join", rel_name.as_str());
                let gated = pool.for_items(acc.len().max(scanned.len()));
                let joined = ops::natural_join_project_ctx(&acc, &scanned, &keep, &gated, ctx)?;
                drop(join_span);
                joined
            }
        });
    }

    let mut answer = current.expect("query has at least one relation");

    // Final decode: replace rank codes with their dictionary strings, in
    // place, each surviving cell exactly once.
    let ranked_cols: Vec<(usize, Arc<[Arc<str>]>)> = answer
        .schema()
        .names()
        .into_iter()
        .enumerate()
        .filter_map(|(j, a)| dicts.get(a).map(|d| (j, d.clone())))
        .collect();
    ctx.tally(Counter::RankedColumns, ranked_cols.len() as u64);
    if ranked_cols.is_empty() || answer.is_empty() {
        return Ok(answer);
    }
    let decode_span = ctx.span("late.decode");
    let rows = answer.len();
    let dw = answer.data_width();
    let decode_pool = pool.for_items(rows);
    let ranges = pdb_par::even_ranges(rows, decode_pool.threads());
    let cuts: Vec<usize> = ranges.iter().map(|r| r.start * dw).collect();
    let (data, _) = answer.arena_segments_mut();
    let decoded = decode_pool
        .try_map_slices_mut(data, &cuts, |seg_idx, seg| {
            let mut n = 0usize;
            for (r, row) in ranges[seg_idx].clone().zip(seg.chunks_exact_mut(dw)) {
                ops::checkpoint_row(ctx, Stage::Project, "late.decode", r)?;
                for (j, dict) in &ranked_cols {
                    let cell = &mut row[*j];
                    match cell {
                        Value::Int(code) => {
                            *cell = Value::Str(dict[*code as usize].clone());
                            n += 1;
                        }
                        Value::Null => {}
                        other => unreachable!("rank cell holds {other:?}"),
                    }
                }
            }
            Ok::<usize, ExecError>(n)
        })
        .map_err(|f| ExecError::from_task_failure(Stage::Project, f))?;
    ctx.tally(
        Counter::DecodedStrings,
        decoded.into_iter().sum::<usize>() as u64,
    );
    drop(decode_span);
    Ok(answer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ExecError;
    use crate::fixtures::fig1_catalog;
    use pdb_query::cq::{intro_query_q, intro_query_q_prime};
    use pdb_storage::tuple;

    fn order(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn lazy_join_order_produces_the_paper_answer() {
        // The lazy plan joins Cust first (selective), then Ord, then Item.
        let catalog = fig1_catalog();
        let q = intro_query_q();
        let answer = evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
        assert_eq!(answer.len(), 2);
        assert_eq!(answer.distinct_data().len(), 1);
        assert_eq!(answer.row(0).data_tuple(), tuple!["1995-01-10"]);
        assert_eq!(answer.relations().len(), 3);
    }

    #[test]
    fn all_join_orders_agree_on_answer_tuples() {
        // Section I: any join order computes the same answer tuples (only the
        // lineage column order differs).
        let catalog = fig1_catalog();
        let q = intro_query_q();
        let orders = [
            ["Cust", "Ord", "Item"],
            ["Ord", "Item", "Cust"],
            ["Item", "Cust", "Ord"],
            ["Item", "Ord", "Cust"],
        ];
        for o in orders {
            let answer = evaluate_join_order(&q, &catalog, &order(&o)).unwrap();
            assert_eq!(answer.len(), 2, "order {o:?}");
            assert_eq!(answer.distinct_data().len(), 1, "order {o:?}");
        }
    }

    #[test]
    fn q_prime_has_same_answer_under_okey_fd_data() {
        // On the Fig. 1 data (where okey → ckey holds) Q and Q' coincide
        // (Section I: "under this FD, the two queries Q and Q′ have the same
        // answer").
        let catalog = fig1_catalog();
        let q = intro_query_q_prime();
        let answer = evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
        assert_eq!(answer.distinct_data().len(), 1);
        assert_eq!(answer.len(), 2);
    }

    #[test]
    fn boolean_query_projects_everything_away() {
        let catalog = fig1_catalog();
        let q = intro_query_q().boolean_version();
        let answer = evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
        assert_eq!(answer.schema().len(), 0);
        assert_eq!(answer.len(), 2);
        assert_eq!(answer.distinct_data().len(), 1);
    }

    #[test]
    fn invalid_join_orders_are_rejected() {
        let catalog = fig1_catalog();
        let q = intro_query_q();
        assert!(evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord"])).is_err());
        assert!(evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Nope"])).is_err());
        assert!(
            evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item", "Item"])).is_err()
        );
    }

    #[test]
    fn missing_table_is_reported() {
        let catalog = Catalog::new();
        let q = intro_query_q();
        assert!(matches!(
            evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])),
            Err(ExecError::Storage(_))
        ));
    }

    // -- Late string materialization --------------------------------------

    use crate::KeyRuns;
    use pdb_govern::QueryObs;
    use pdb_query::{CompareOp, RelationAtom};
    use pdb_storage::{ColumnarTable, DataType, ProbTable, Schema, Tuple, Variable};

    /// Two-table catalog with string head columns: `Cust(ckey, cname)` ⋈
    /// `Ord(ckey, status)` on an integer key, with enough rows to span
    /// several chunks.
    fn string_catalog(columnar: bool) -> Catalog {
        let cust_schema =
            Schema::from_pairs(&[("ckey", DataType::Int), ("cname", DataType::Str)]).unwrap();
        let ord_schema =
            Schema::from_pairs(&[("ckey", DataType::Int), ("status", DataType::Str)]).unwrap();
        let names = ["Ann", "Bob", "Joe", "Li", "Mo"];
        let mut cust = ProbTable::new(cust_schema);
        for r in 0..150usize {
            cust.insert(
                Tuple::new(vec![
                    Value::Int(r as i64),
                    Value::str(names[r % names.len()]),
                ]),
                Variable(r as u64),
                0.4,
            )
            .unwrap();
        }
        let mut ord = ProbTable::new(ord_schema);
        for r in 0..300usize {
            let status = if r % 7 == 0 {
                Value::Null
            } else {
                Value::str(if r % 2 == 0 { "open" } else { "shipped" })
            };
            ord.insert(
                Tuple::new(vec![Value::Int((r % 150) as i64), status]),
                Variable(1000 + r as u64),
                0.6,
            )
            .unwrap();
        }
        let catalog = Catalog::new();
        if columnar {
            let pool = Pool::sequential();
            catalog
                .register_columnar(
                    "Cust",
                    ColumnarTable::from_prob_table_chunked(&cust, &pool, 64).unwrap(),
                )
                .unwrap();
            catalog
                .register_columnar(
                    "Ord",
                    ColumnarTable::from_prob_table_chunked(&ord, &pool, 64).unwrap(),
                )
                .unwrap();
        } else {
            catalog.register_table("Cust", cust).unwrap();
            catalog.register_table("Ord", ord).unwrap();
        }
        catalog
    }

    fn string_query() -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            vec![
                RelationAtom::new("Cust", &["ckey", "cname"]),
                RelationAtom::new("Ord", &["ckey", "status"]),
            ],
            vec!["cname".to_string(), "status".to_string()],
            vec![Predicate::new("Cust", "ckey", CompareOp::Lt, 120i64)],
        )
        .unwrap()
    }

    /// Runs the pipeline with a fresh collector; returns the answer and the
    /// `(RankedColumns, DecodedStrings)` counters.
    fn run_observed(
        q: &ConjunctiveQuery,
        catalog: &Catalog,
        o: &[String],
        pool: &Pool,
    ) -> (Annotated, u64, u64) {
        let obs = QueryObs::new();
        let ctx = ExecContext::unbounded().with_obs(Arc::clone(&obs));
        let answer = evaluate_join_order_ctx(q, catalog, o, pool, &ctx).unwrap();
        (
            answer,
            obs.get(Counter::RankedColumns),
            obs.get(Counter::DecodedStrings),
        )
    }

    #[test]
    fn columnar_answer_is_bitwise_identical_to_the_row_answer() {
        let q = string_query();
        let columnar = string_catalog(true);
        let row = string_catalog(false);
        let o = order(&["Cust", "Ord"]);
        let (want, ranked, decoded) = run_observed(&q, &row, &o, &Pool::sequential());
        assert!(!want.is_empty());
        // Row backings rank nothing and decode nothing.
        assert_eq!((ranked, decoded), (0, 0));
        for threads in [1, 2, 4, 8] {
            let (late, ranked, decoded) = run_observed(&q, &columnar, &o, &Pool::new(threads));
            assert_eq!(late, want, "{threads} threads");
            assert_eq!(ranked, 2, "{threads} threads");
            // Every decode produced an answer cell; NULL statuses decode
            // for free.
            let nulls = late.iter().filter(|r| r.data[1].is_null()).count();
            assert_eq!(decoded as usize, 2 * late.len() - nulls);
        }
    }

    #[test]
    fn fig1_answer_matches_under_late_materialization() {
        // The paper's Fig. 1 catalog is row-backed; convert it to columnar
        // and check the intro query end to end.
        let row = fig1_catalog();
        let columnar = Catalog::new();
        for name in ["Cust", "Ord", "Item"] {
            let StorageBacking::Row(t) = row.backing(name).unwrap() else {
                panic!("fixture is row-backed");
            };
            columnar
                .register_columnar(
                    name,
                    ColumnarTable::from_prob_table(&t, &Pool::sequential()).unwrap(),
                )
                .unwrap();
        }
        let q = intro_query_q();
        let o = order(&["Cust", "Ord", "Item"]);
        let ctx = ExecContext::unbounded();
        let want = evaluate_join_order_ctx(&q, &row, &o, &Pool::sequential(), &ctx).unwrap();
        let late = evaluate_join_order_ctx(&q, &columnar, &o, &Pool::new(4), &ctx).unwrap();
        assert_eq!(late, want);
        assert_eq!(late.len(), 2);
    }

    // -- Semi-join reduction ------------------------------------------------

    /// `R(a, r)`, `S(a, b)` and `T(b, t)`, row-backed or columnar: NULL keys
    /// on every join column, and `S.a` spelling its keys as floats and, every
    /// third row, as integers (a `Mixed` column once columnar).
    fn chain_catalog(columnar: bool) -> Catalog {
        // Key `k % of`, NULL when `k` is a multiple of `null_every`.
        let key = |k: usize, of: usize, null_every: usize| match k % null_every {
            0 => Value::Null,
            _ => Value::Int((k % of) as i64),
        };
        let mut var = 0u64;
        let mut table = |columns: [(&str, DataType); 2], rows: Vec<(Value, Value)>| {
            let mut t = ProbTable::new(Schema::from_pairs(&columns).unwrap());
            for (x, y) in rows {
                var += 1;
                let p = 0.1 + 0.1 * (var % 8) as f64;
                t.insert(Tuple::new(vec![x, y]), Variable(var), p).unwrap();
            }
            t
        };
        let r = (0..60).map(|i| (key(i, 40, 9), Value::Int((i % 5) as i64)));
        let s = (0..300).map(|i| {
            let a = match key(i * 7, 40, 11) {
                Value::Int(k) if i % 3 != 0 => Value::Float(k as f64),
                a => a,
            };
            (a, key(i * 3, 40, 13))
        });
        let t = (0..240).map(|i| (key(i, 120, 17), Value::Int((i % 3) as i64)));
        let (int, float) = (DataType::Int, DataType::Float);
        let catalog = Catalog::new();
        let pool = Pool::sequential();
        for (name, t) in [
            ("R", table([("a", int), ("r", int)], r.collect())),
            ("S", table([("a", float), ("b", int)], s.collect())),
            ("T", table([("b", int), ("t", int)], t.collect())),
        ] {
            if columnar {
                let t = ColumnarTable::from_prob_table_chunked(&t, &pool, 64).unwrap();
                catalog.register_columnar(name, t).unwrap();
            } else {
                catalog.register_table(name, t).unwrap();
            }
        }
        catalog
    }

    /// `[S*]` after `S`'s scan: one row per distinct data tuple, carrying the
    /// group's first variable and its rows' independent-or.
    fn pushed_s(rel: &str, scanned: Annotated) -> ExecResult<Annotated> {
        if rel != "S" {
            return Ok(scanned);
        }
        let (pool, ctx) = (Pool::new(2), ExecContext::unbounded());
        let runs = KeyRuns::build(&scanned, &[], &[0], Stage::Aggregate, &pool, &ctx)?;
        let fold = |input: &Annotated, _: usize, rows: &[u32]| {
            let pair = |r: u32| input.row(r as usize).lineage[0];
            let none = rows.iter().map(|&r| 1.0 - pair(r).1).product::<f64>();
            Ok((pair(rows[0]).0, 1.0 - none))
        };
        let input = std::borrow::Cow::Owned(scanned);
        runs.collapse(input, &[0], 0, Stage::Aggregate, &pool, &ctx, fold)
    }

    #[test]
    fn the_reduced_walk_answers_bitwise_as_the_unreduced_one() {
        let q = |pick: i64| {
            ConjunctiveQuery::new(
                vec![
                    RelationAtom::new("R", &["a", "r"]),
                    RelationAtom::new("S", &["a", "b"]),
                    RelationAtom::new("T", &["b", "t"]),
                ],
                vec!["r".to_string(), "b".to_string(), "t".to_string()],
                vec![Predicate::new("R", "r", CompareOp::Eq, pick)],
            )
            .unwrap()
        };
        let o = order(&["R", "S", "T"]);
        for columnar in [false, true] {
            let catalog = chain_catalog(columnar);
            // `r = 1` keeps a few `R` keys; `r = 9` keeps no row at all.
            for pick in [1, 9] {
                let q = q(pick);
                let run = |reduce: bool, threads: usize| {
                    let obs = QueryObs::new();
                    let ctx = ExecContext::unbounded().with_obs(Arc::clone(&obs));
                    let pool = Pool::new(threads);
                    let answer =
                        evaluate_join_order_with(&q, &catalog, &o, &pool, &ctx, reduce, pushed_s)
                            .unwrap();
                    (answer, obs.get(Counter::RowsEmitted))
                };
                let (want, unreduced_rows) = run(false, 1);
                assert_eq!(want.is_empty(), pick == 9, "columnar {columnar}");
                for threads in [1, 4] {
                    let (got, reduced_rows) = run(true, threads);
                    let at = format!("columnar {columnar}, r = {pick}, {threads} threads");
                    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{at}");
                    assert!(reduced_rows < unreduced_rows, "{at}: the filters drop rows");
                }
            }
        }
    }

    #[test]
    fn invalid_orders_are_rejected_on_columnar_backings() {
        let q = string_query();
        let catalog = string_catalog(true);
        assert!(evaluate_join_order(&q, &catalog, &order(&["Cust"])).is_err());
        assert!(evaluate_join_order(&q, &catalog, &order(&["Cust", "Nope"])).is_err());
    }
}
