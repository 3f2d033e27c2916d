//! PR 6 governor integration tests.
//!
//! The load-bearing property: governance checkpoints only ever STOP work,
//! they never reorder it. A governed run that is not interrupted is
//! bitwise-identical to the ungoverned run at every thread count and both
//! storage backings; an interrupted run returns a structured error naming
//! its stage, leaves the pool reusable, and an immediate re-run reproduces
//! the baseline bit for bit.

use std::time::Duration;

use pdb_conf::ConfidenceResult;
use pdb_exec::{fixtures, ops, ExecContext, ExecError};
use pdb_par::Pool;
use pdb_query::{ConjunctiveQuery, FdSet};
use pdb_storage::Catalog;
use pdb_tpch::{
    probabilistic_catalog, probabilistic_catalog_columnar, tpch_query, TpchData, TpchScale,
};
use sprout_plan::eager::EagerPlan;
use sprout_plan::lazy::LazyPlan;
use sprout_plan::{
    GovernorBuilder, PlanError, PlanKind, PlanResult, Planner, QueryGovernor, QueryOptions,
    SproutError, Stage,
};

const POOL_SIZES: [usize; 4] = [1, 2, 4, 8];

fn q1() -> ConjunctiveQuery {
    tpch_query("1")
        .expect("catalogue has Q1")
        .query
        .expect("Q1 is conjunctive")
}

fn tiny_catalogs() -> (Catalog, Catalog) {
    let data = TpchData::generate(TpchScale::tiny());
    let row = probabilistic_catalog(&data, 1).expect("row catalog");
    let col = probabilistic_catalog_columnar(&data, 1).expect("columnar catalog");
    (row, col)
}

fn assert_bitwise_eq(
    baseline: &[(pdb_storage::Tuple, f64)],
    got: &[(pdb_storage::Tuple, f64)],
    context: &str,
) {
    assert_eq!(baseline.len(), got.len(), "{context}: row counts differ");
    for ((t1, p1), (t2, p2)) in baseline.iter().zip(got.iter()) {
        assert_eq!(t1, t2, "{context}: tuples differ");
        assert_eq!(
            p1.to_bits(),
            p2.to_bits(),
            "{context}: confidences differ on {t1}: {p1} vs {p2}"
        );
    }
}

#[test]
fn governed_happy_path_is_bitwise_identical_across_threads_and_backings() {
    let q = q1();
    let (row, col) = tiny_catalogs();
    let fds = FdSet::from_catalog_decls(&row.fds());
    let baseline = LazyPlan::build(&q, &fds, &row)
        .unwrap()
        .with_pool(Pool::sequential())
        .execute(&row)
        .unwrap();
    for catalog in [&row, &col] {
        for threads in POOL_SIZES {
            let gov = GovernorBuilder::new()
                .deadline(Duration::from_secs(3600))
                .memory_budget(1 << 30)
                .build();
            let governed = LazyPlan::build(&q, &fds, catalog)
                .unwrap()
                .with_pool(Pool::new(threads))
                .with_ctx(ExecContext::governed(&gov))
                .execute(catalog)
                .unwrap();
            assert_bitwise_eq(&baseline, &governed, &format!("{threads} threads"));
            assert!(gov.checkpoints_seen() > 0, "governor saw no checkpoints");
        }
    }
}

/// Cancels at *every* checkpoint index of one plan run. `run(None)` is the
/// ungoverned plan, `run(Some(gov))` the same plan value under `gov`. Every
/// interruption must surface as `Cancelled`, leave the pool reusable, and an
/// immediate re-run of the same plan must be bitwise-equal to the
/// uninterrupted baseline. Returns the error of the cancellation at the
/// last checkpoint index.
fn sweep_every_checkpoint(
    context: &str,
    run: impl Fn(Option<QueryGovernor>) -> PlanResult<ConfidenceResult>,
) -> SproutError {
    let baseline = run(None).unwrap();

    // Count the checkpoints of one uninterrupted governed run.
    let counter = GovernorBuilder::new().build();
    let governed = run(Some(counter.clone())).unwrap();
    assert_bitwise_eq(&baseline, &governed, &format!("{context}, counter"));
    let total = counter.checkpoints_seen();
    assert!(total > 0, "{context}: run saw no checkpoints");

    let mut last = None;
    for k in 1..=total {
        let gov = GovernorBuilder::new().cancel_after_checkpoints(k).build();
        match run(Some(gov)) {
            Err(PlanError::Governed(e @ SproutError::Cancelled { .. })) => last = Some(e),
            other => {
                panic!("{context}, checkpoint {k}/{total}: expected Cancelled, got {other:?}")
            }
        }
        // The pool survived the interruption: the very same plan value
        // (same pool handle) reproduces the baseline bit for bit.
        let rerun = run(None).unwrap();
        assert_bitwise_eq(
            &baseline,
            &rerun,
            &format!("{context}, re-run after cancel at {k}"),
        );
    }
    last.expect("total > 0")
}

/// The exhaustive sweep over a small Q1 run, at every pool size, for the
/// lazy and the eager plan and for `PlanKind::Mystiq` through the planner.
#[test]
fn cancellation_at_every_checkpoint_of_a_small_q1_run() {
    let q = q1();
    let (row, _) = tiny_catalogs();
    let fds = FdSet::from_catalog_decls(&row.fds());
    // The tree-walking plans close with the head projection, which runs
    // under the plan's governor like every operator before it. Q1's root
    // aggregation already emits the head's column order, so there the
    // projection moves its input and the run's last checkpoint is the
    // aggregation's; with a second head attribute ahead of `Item`'s column
    // order it copies, and the last checkpoint is its `project.write`.
    let mut reordered = q.clone();
    reordered.head = vec!["shipmode".to_string(), "returnflag".to_string()];
    let closing = [(&q, Stage::Aggregate), (&reordered, Stage::Project)];
    for threads in POOL_SIZES {
        let lazy = LazyPlan::build(&q, &fds, &row)
            .unwrap()
            .with_pool(Pool::new(threads));
        sweep_every_checkpoint(&format!("lazy, {threads} threads"), |gov| match gov {
            Some(gov) => lazy
                .clone()
                .with_ctx(ExecContext::governed(&gov))
                .execute(&row),
            None => lazy.execute(&row),
        });

        for (q, last_stage) in closing {
            let eager = EagerPlan::build(q, &fds)
                .unwrap()
                .with_pool(Pool::new(threads));
            let last =
                sweep_every_checkpoint(&format!("eager, {threads} threads"), |gov| match gov {
                    Some(gov) => eager
                        .clone()
                        .with_ctx(ExecContext::governed(&gov))
                        .execute(&row),
                    None => eager.execute(&row),
                });
            assert_eq!(
                last.stage(),
                last_stage,
                "eager, {threads} threads: last checkpoint"
            );

            // MystiQ walks the eager plan's tree on the eager plan's
            // operators, so the planner's governor reaches every one of its
            // checkpoints — down to the same closing operator — not just
            // the entry.
            let last = sweep_every_checkpoint(&format!("mystiq, {threads} threads"), |gov| {
                let opts = QueryOptions {
                    pool: Some(Pool::new(threads)),
                    governor: gov,
                    ..QueryOptions::default()
                };
                Ok(Planner::new(&row, &opts)
                    .execute(q, PlanKind::Mystiq)?
                    .confidences)
            });
            assert_eq!(
                last.stage(),
                last_stage,
                "mystiq, {threads} threads: last checkpoint"
            );
        }
    }
}

/// A wire `"kind":"mystiq"` honours `memory_budget`: the plan's first scan
/// charges its arena to the planner's governor, on one thread and on many.
#[test]
fn memory_budget_exhaustion_interrupts_the_mystiq_plan() {
    let q = q1();
    let (row, col) = tiny_catalogs();
    for catalog in [&row, &col] {
        for threads in POOL_SIZES {
            let gov = GovernorBuilder::new().memory_budget(1).build();
            let opts = QueryOptions {
                pool: Some(Pool::new(threads)),
                governor: Some(gov),
                ..QueryOptions::default()
            };
            let result = Planner::new(catalog, &opts).execute(&q, PlanKind::Mystiq);
            match result {
                Err(PlanError::Governed(SproutError::MemoryBudgetExceeded {
                    requested,
                    budget,
                    ..
                })) => assert!(requested > budget, "{threads} threads"),
                other => panic!("{threads} threads: expected MemoryBudgetExceeded, got {other:?}"),
            }
        }
    }
}

/// The grouping shell charges its own memory: a budget that exactly fits the
/// scan of a one-table eager plan (it has no join) is exceeded by the
/// aggregation's key, sort and permutation buffers — under the aggregation's
/// stage, with nothing charged in between — on one thread and on many.
#[test]
fn memory_budget_exhaustion_interrupts_the_eager_aggregation() {
    let q = q1();
    let (row, col) = tiny_catalogs();
    let fds = FdSet::from_catalog_decls(&row.fds());
    let atom = &q.relations[0];
    let keep: Vec<String> = atom
        .attributes
        .iter()
        .filter(|a| q.head.contains(a))
        .cloned()
        .collect();
    for catalog in [&row, &col] {
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            // What the plan's leaf scan charges, measured on that scan alone.
            let table = catalog.backing(&atom.name).unwrap();
            let scan_gov = GovernorBuilder::new().build();
            ops::scan_filter_project_backing_ctx(
                &table,
                &atom.name,
                &q.predicates_for(&atom.name),
                &keep,
                &pool.for_items(table.len()),
                &ExecContext::governed(&scan_gov),
            )
            .unwrap();
            let scan_bytes = scan_gov.memory_used();
            assert!(scan_bytes > 0, "{threads} threads: the scan charges");

            let gov = GovernorBuilder::new().memory_budget(scan_bytes).build();
            let result = EagerPlan::build(&q, &fds)
                .unwrap()
                .with_pool(pool)
                .with_ctx(ExecContext::governed(&gov))
                .execute(catalog);
            match result {
                Err(PlanError::Governed(SproutError::MemoryBudgetExceeded {
                    stage,
                    requested,
                    used,
                    budget,
                })) => {
                    assert_eq!(stage, Stage::Aggregate, "{threads} threads");
                    assert_eq!(used - requested, scan_bytes, "{threads} threads");
                    assert_eq!(budget, scan_bytes, "{threads} threads");
                }
                other => panic!("{threads} threads: expected MemoryBudgetExceeded, got {other:?}"),
            }
        }
    }
}

#[test]
fn pre_cancelled_governor_interrupts_at_the_first_checkpoint() {
    let q = q1();
    let (row, _) = tiny_catalogs();
    let fds = FdSet::from_catalog_decls(&row.fds());
    let gov = GovernorBuilder::new().build();
    gov.cancel();
    let result = LazyPlan::build(&q, &fds, &row)
        .unwrap()
        .with_ctx(ExecContext::governed(&gov))
        .execute(&row);
    match result {
        Err(PlanError::Governed(SproutError::Cancelled { .. })) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn expired_deadline_interrupts_with_elapsed_and_budget() {
    let q = q1();
    let (row, _) = tiny_catalogs();
    let fds = FdSet::from_catalog_decls(&row.fds());
    let gov = GovernorBuilder::new().deadline(Duration::ZERO).build();
    let result = LazyPlan::build(&q, &fds, &row)
        .unwrap()
        .with_ctx(ExecContext::governed(&gov))
        .execute(&row);
    match result {
        Err(PlanError::Governed(SproutError::DeadlineExceeded {
            elapsed, deadline, ..
        })) => {
            assert!(elapsed >= deadline);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // An ungoverned re-run on the same catalog is unaffected.
    let rerun = LazyPlan::build(&q, &fds, &row).unwrap().execute(&row);
    assert!(rerun.is_ok());
}

/// Memory-budget exhaustion in a join on several workers: the governed
/// context charges the join's build side and then its output of
/// `max(left, indexed build rows)` rows before the probe, so a one-byte
/// budget fails deterministically.
#[test]
fn memory_budget_exhaustion_interrupts_the_partitioned_join() {
    let catalog = fixtures::fig1_catalog();
    let cust = catalog.table("Cust").unwrap();
    let ord = catalog.table("Ord").unwrap();
    let left = ops::scan(&cust, "Cust", &["ckey".into(), "cname".into()]).unwrap();
    let right = ops::scan(&ord, "Ord", &["okey".into(), "ckey".into()]).unwrap();
    let gov = GovernorBuilder::new().memory_budget(1).build();
    let ctx = ExecContext::governed(&gov);
    // Pool::new(2) bypasses the for_items size gate: two probe morsels even
    // on the Fig. 1 toy tables.
    let result = ops::natural_join_ctx(&left, &right, &Pool::new(2), &ctx);
    match result {
        Err(ExecError::Governed(SproutError::MemoryBudgetExceeded {
            requested, budget, ..
        })) => {
            assert!(requested > budget);
        }
        other => panic!("expected MemoryBudgetExceeded, got {other:?}"),
    }
    // The same join under an unbounded context still works.
    let ok = ops::natural_join_ctx(&left, &right, &Pool::new(2), &ExecContext::unbounded());
    assert!(ok.is_ok());
}

/// The same budget holds on one thread: every operator charges its output
/// arenas before allocating them whatever the pool, so a query the server
/// hands a single worker (`worker_threads / slots == 1`) cannot outrun its
/// `memory_budget`.
fn assert_budget_trips_on_one_thread(
    operator: &str,
    run: impl Fn(&Pool, &ExecContext) -> Result<pdb_exec::Annotated, ExecError>,
) {
    let gov = GovernorBuilder::new().memory_budget(1).build();
    match run(&Pool::sequential(), &ExecContext::governed(&gov)) {
        Err(ExecError::Governed(SproutError::MemoryBudgetExceeded {
            requested, budget, ..
        })) => assert!(requested > budget, "{operator}"),
        other => panic!("{operator}: expected MemoryBudgetExceeded, got {other:?}"),
    }
    assert!(
        run(&Pool::sequential(), &ExecContext::unbounded()).is_ok(),
        "{operator}: unbounded run"
    );
}

#[test]
fn memory_budget_exhaustion_interrupts_the_sequential_scan() {
    let cust = fixtures::fig1_catalog().table("Cust").unwrap();
    assert_budget_trips_on_one_thread("scan", |pool, ctx| {
        ops::scan_ctx(&cust, "Cust", &["ckey".into()], pool, ctx)
    });
}

#[test]
fn memory_budget_exhaustion_interrupts_the_sequential_fused_scan() {
    let cust = fixtures::fig1_catalog().table("Cust").unwrap();
    let joe = pdb_query::Predicate::new("Cust", "cname", pdb_query::CompareOp::Eq, "Joe");
    assert_budget_trips_on_one_thread("scan_filter_project", |pool, ctx| {
        ops::scan_filter_project_ctx(&cust, "Cust", &[&joe], &["ckey".into()], pool, ctx)
    });
}

#[test]
fn memory_budget_exhaustion_interrupts_the_sequential_project() {
    let cust = fixtures::fig1_catalog().table("Cust").unwrap();
    let scanned = ops::scan(&cust, "Cust", &["ckey".into(), "cname".into()]).unwrap();
    assert_budget_trips_on_one_thread("project", |pool, ctx| {
        ops::project_ctx(&scanned, &["cname".into()], pool, ctx)
    });
}

#[test]
fn memory_budget_exhaustion_interrupts_the_sequential_join() {
    let catalog = fixtures::fig1_catalog();
    let cust = catalog.table("Cust").unwrap();
    let ord = catalog.table("Ord").unwrap();
    let left = ops::scan(&cust, "Cust", &["ckey".into(), "cname".into()]).unwrap();
    let right = ops::scan(&ord, "Ord", &["okey".into(), "ckey".into()]).unwrap();
    assert_budget_trips_on_one_thread("natural_join", |pool, ctx| {
        ops::natural_join_ctx(&left, &right, pool, ctx)
    });
}

#[test]
fn planner_facade_threads_the_governor_through_every_plan_kind() {
    let catalog = fixtures::fig1_catalog_with_keys();
    let q = pdb_query::cq::intro_query_q();
    for kind in [
        PlanKind::Lazy,
        PlanKind::Eager,
        PlanKind::Hybrid(vec!["Item".to_string()]),
        PlanKind::Mystiq,
    ] {
        // Uninterrupted: governed result matches the ungoverned one.
        let baseline = Planner::new(&catalog, &QueryOptions::default())
            .execute(&q, kind.clone())
            .unwrap();
        let gov = GovernorBuilder::new().build();
        let opts = QueryOptions {
            governor: Some(gov.clone()),
            ..QueryOptions::default()
        };
        let governed = Planner::new(&catalog, &opts)
            .execute(&q, kind.clone())
            .unwrap();
        assert_bitwise_eq(
            &baseline.confidences,
            &governed.confidences,
            &format!("{kind}"),
        );
        assert!(
            gov.checkpoints_seen() > 0,
            "{kind}: governor saw no checkpoints"
        );
        // Pre-cancelled: every plan kind observes the token.
        let cancelled = GovernorBuilder::new().build();
        cancelled.cancel();
        let opts = QueryOptions {
            governor: Some(cancelled),
            ..QueryOptions::default()
        };
        let result = Planner::new(&catalog, &opts).execute(&q, kind.clone());
        match result {
            Err(PlanError::Governed(SproutError::Cancelled { .. })) => {}
            other => panic!("{kind}: expected Cancelled, got {other:?}"),
        }
    }
}
