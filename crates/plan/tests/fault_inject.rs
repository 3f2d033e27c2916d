//! PR 6 fault-injection property tests (compiled only with `--features
//! fault-inject`).
//!
//! Seeded [`FaultPlan::random`] draws pick a checkpoint site, an index, and
//! an action (panic / cancel / budget); the plan is installed and a governed
//! run of the lazy and of the eager plan executed at every pool size and both
//! storage backings. The properties:
//!
//! * a run whose fault fires surfaces a structured
//!   [`PlanError::Governed`] naming the interruption — a `panic` fault a
//!   `WorkerPanic` at every pool size, because every checkpoint sits in a
//!   work item `pdb-par` runs under `catch_unwind`, on one worker too (at
//!   `eager.aggregate` the stage is `Aggregate`, also where the collapse
//!   moves its input's data arena instead of copying it — the `keyed-leaf`
//!   workload);
//! * a run whose fault is never reached is bitwise-identical to the
//!   baseline;
//! * faults are one-shot, so an immediate re-run needs no cleanup and is
//!   always bitwise-identical to the baseline — nothing is poisoned.
//!
//! The refinement loop of the anytime evaluator (`conf.bounds`, one
//! checkpoint per round) is reached only by an unsafe query whose lineage
//! does not factor: [`sweep_the_refinement_loop`] runs Q8 through the
//! fallback plan under `Bounds { eps: 1e-3 }` and aims every action at a
//! bag's first round, then takes every way out of the loop that is not an
//! error — the frontier cap, the arena veto, a deadline before the first
//! checkpoint and one met mid-refinement. Whatever the outcome, the frontier
//! bytes charged to the governor are released to the last one.
//!
//! What a budget does to a query does not depend on its pool either:
//! [`the_smallest_sufficient_budget_is_the_same_on_one_worker_and_on_eight`].
//!
//! Everything lives in ONE `#[test]` because the installed fault plan is
//! process-global state; parallel test threads would race on it.
#![cfg(feature = "fault-inject")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Once, OnceLock};
use std::time::Duration;

use pdb_fault::{clear, install, Fault, FaultAction, FaultPlan};
use pdb_par::Pool;
use pdb_query::{ConjunctiveQuery, FdSet};
use pdb_storage::{tuple, Catalog, DataType, ProbTable, Schema, Tuple, Variable};
use pdb_tpch::{
    probabilistic_catalog, probabilistic_catalog_columnar, tpch_query, TpchData, TpchScale,
};
use proptest::prelude::*;
use sprout_plan::eager::EagerPlan;
use sprout_plan::fallback::FallbackPlan;
use sprout_plan::lazy::LazyPlan;
use sprout_plan::{
    ApproxPolicy, ApproxResult, ExecContext, GovernorBuilder, PlanError, QueryGovernor,
    SproutError, Stage,
};

/// Every checkpoint site the governed engine exposes (module docs of
/// `pdb_exec::ops`, `pdb_exec::columnar`, `pdb_conf::one_scan`).
const SITES: &[&str] = &[
    "scan.morsel",
    "scan.write",
    "scan.chunk",
    "scan.gather",
    "join.probe",
    "project.write",
    "eager.aggregate",
    "conf.bag",
    "conf.fold",
    "conf.bounds",
];

/// Above the largest observed checkpoint count, so random indices also land
/// beyond the run (exercising the fault-never-fires path).
const MAX_INDEX: usize = 48;

const POOL_SIZES: [usize; 4] = [1, 2, 4, 8];

struct Workload {
    label: &'static str,
    catalog: Catalog,
    query: ConjunctiveQuery,
    fds: FdSet,
}

/// Q1 on both backings (scan/conf checkpoints; the columnar catalog also
/// exercises `scan.chunk`/`scan.gather`), the Fig. 1 intro join query
/// (`join.probe`/`project.write`), and a table scanned along
/// its key, whose eager leaf reaches the aggregation sorted with one row per
/// group — the collapse that keeps its input's data arena.
fn workloads() -> &'static Vec<Workload> {
    static CELL: OnceLock<Vec<Workload>> = OnceLock::new();
    CELL.get_or_init(|| {
        let data = TpchData::generate(TpchScale::tiny());
        let q1 = tpch_query("1").unwrap().query.unwrap();
        let row = probabilistic_catalog(&data, 1).unwrap();
        let col = probabilistic_catalog_columnar(&data, 1).unwrap();
        let fig1 = pdb_exec::fixtures::fig1_catalog_with_keys();
        let intro = pdb_query::cq::intro_query_q();
        let mut keyed_table = ProbTable::new(
            Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).unwrap(),
        );
        for a in 0..600i64 {
            let p = 0.1 + 0.001 * a as f64;
            keyed_table
                .insert(tuple![a, a % 7], Variable(a as u64), p)
                .unwrap();
        }
        let keyed = Catalog::new();
        keyed.register_table("R", keyed_table).unwrap();
        vec![
            Workload {
                label: "q1-row",
                fds: FdSet::from_catalog_decls(&row.fds()),
                catalog: row,
                query: q1.clone(),
            },
            Workload {
                label: "q1-columnar",
                fds: FdSet::from_catalog_decls(&col.fds()),
                catalog: col,
                query: q1,
            },
            Workload {
                label: "intro-join",
                fds: FdSet::from_catalog_decls(&fig1.fds()),
                catalog: fig1,
                query: intro,
            },
            Workload {
                label: "keyed-leaf",
                fds: FdSet::empty(),
                catalog: keyed,
                query: ConjunctiveQuery::build(&[("R", &["a", "b"])], &["a", "b"], vec![]).unwrap(),
            },
        ]
    })
}

fn assert_bitwise_eq(baseline: &[(Tuple, f64)], got: &[(Tuple, f64)], context: &str) {
    assert_eq!(baseline.len(), got.len(), "{context}: row counts differ");
    for ((t1, p1), (t2, p2)) in baseline.iter().zip(got.iter()) {
        assert_eq!(t1, t2, "{context}: tuples differ");
        assert_eq!(
            p1.to_bits(),
            p2.to_bits(),
            "{context}: confidences differ on {t1}"
        );
    }
}

#[derive(Debug, Clone, Copy)]
enum Family {
    Lazy,
    Eager,
}

fn governed_run(
    w: &Workload,
    family: Family,
    threads: usize,
) -> Result<Vec<(Tuple, f64)>, PlanError> {
    let gov = GovernorBuilder::new().build();
    match family {
        Family::Lazy => LazyPlan::build(&w.query, &w.fds, &w.catalog)?
            .with_pool(Pool::new(threads))
            .with_ctx(ExecContext::governed(&gov))
            .execute(&w.catalog),
        Family::Eager => EagerPlan::build(&w.query, &w.fds)?
            .with_pool(Pool::new(threads))
            .with_ctx(ExecContext::governed(&gov))
            .execute(&w.catalog),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn injected_faults_interrupt_cleanly_and_reruns_are_bitwise_identical(
        seed in 0u64..u64::MAX,
    ) {
        // Silence the default panic hook while injected panics unwind
        // through `catch_unwind`; restored before the property returns.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = catch_unwind(AssertUnwindSafe(|| check_seed(seed)));
        std::panic::set_hook(hook);
        if let Err(p) = outcome {
            std::panic::resume_unwind(p);
        }
    }
}

fn check_seed(seed: u64) {
    let plan = FaultPlan::random(seed, SITES, MAX_INDEX);
    let fault = plan.faults()[0].clone();
    for w in workloads() {
        for family in [Family::Lazy, Family::Eager] {
            for threads in POOL_SIZES {
                check_run(&plan, &fault, w, family, threads, false);
            }
        }
    }
    // A random draw almost never lands on the eager plan's first
    // aggregation checkpoint, so every seed also aims one fault there: it
    // must fire, and a panic must come back isolated at every pool size.
    // The arena-moving collapse of the keyed leaf gets a panic and a cancel
    // on every seed.
    let drawn = [FaultAction::Panic, FaultAction::Cancel, FaultAction::Budget][(seed % 3) as usize];
    for w in workloads() {
        let actions = match w.label {
            "keyed-leaf" => vec![FaultAction::Panic, FaultAction::Cancel],
            _ => vec![drawn],
        };
        for action in actions {
            let fault = Fault::new(action, "eager.aggregate", 0);
            let plan = FaultPlan::new(vec![fault.clone()]);
            for threads in POOL_SIZES {
                check_run(&plan, &fault, w, Family::Eager, threads, true);
            }
        }
    }
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        sweep_the_refinement_loop();
        clear();
        the_smallest_sufficient_budget_is_the_same_on_one_worker_and_on_eight();
    });
    clear();
}

/// Q3 lazy on the columnar catalog charges the same bytes at every pool
/// size, and nothing it charges is released: the budget an eight-worker run
/// just fits is the budget a one-worker run just fits, and one byte less
/// fails both.
fn the_smallest_sufficient_budget_is_the_same_on_one_worker_and_on_eight() {
    let data = TpchData::generate(TpchScale::tiny());
    let catalog = probabilistic_catalog_columnar(&data, 1).unwrap();
    let query = tpch_query("3").unwrap().query.unwrap();
    let fds = FdSet::from_catalog_decls(&catalog.fds());
    let run = |threads: usize, governor: QueryGovernor| {
        LazyPlan::build(&query, &fds, &catalog)
            .unwrap()
            .with_pool(Pool::new(threads))
            .with_ctx(ExecContext::governed(&governor))
            .execute(&catalog)
    };
    let measure = GovernorBuilder::new().build();
    let baseline = run(8, measure.clone()).unwrap();
    let enough = measure.memory_used();
    assert!(enough > 0);
    for threads in [8, 1] {
        let fits = run(
            threads,
            GovernorBuilder::new().memory_budget(enough).build(),
        )
        .unwrap_or_else(|e| panic!("{enough} bytes at {threads} threads: {e}"));
        assert_bitwise_eq(
            &baseline,
            &fits,
            &format!("{enough} bytes at {threads} threads"),
        );
        match run(
            threads,
            GovernorBuilder::new().memory_budget(enough - 1).build(),
        ) {
            Err(PlanError::Governed(SproutError::MemoryBudgetExceeded { .. })) => {}
            other => panic!("{} bytes at {threads} threads: {other:?}", enough - 1),
        }
    }
}

/// Q8's confidence stage under `Bounds { eps: 1e-3 }` on a precomputed
/// answer, governed by `governor` alone — so the bytes it still holds when
/// the stage returns are the refinement frontier's and nothing else's.
fn refine(
    catalog: &Catalog,
    answer: &pdb_exec::Annotated,
    threads: usize,
    frontier_budget: Option<usize>,
    governor: &QueryGovernor,
) -> Result<ApproxResult, PlanError> {
    let query = tpch_query("8").unwrap().query.unwrap();
    let plan = FallbackPlan::build(&query, catalog, ApproxPolicy::Bounds { eps: 1e-3 })?
        .with_pool(Pool::new(threads))
        .with_seed(1)
        .with_ctx(ExecContext::governed(governor));
    // `None` keeps the plan's default cap, which Q8 does not meet here.
    match frontier_budget {
        Some(bytes) => plan.with_frontier_budget(Some(bytes)),
        None => plan,
    }
    .confidences(answer)
}

fn total_rounds(result: &ApproxResult) -> usize {
    result.iter().map(|t| t.rounds).sum()
}

/// Every fault action at the first round of the first bag that is refined,
/// and every non-error way out of the loop, on both backings at every pool
/// size. SF 0.00025 is the smallest scale factor of the 0.00005 grid at
/// which a bag of Q8 needs refinement (`TpchScale::tiny`, 0.0002, has none).
fn sweep_the_refinement_loop() {
    let data = TpchData::generate(TpchScale::new(0.00025));
    let catalogs = [
        ("row", probabilistic_catalog(&data, 1).unwrap()),
        (
            "columnar",
            probabilistic_catalog_columnar(&data, 1).unwrap(),
        ),
    ];
    for (backing, catalog) in &catalogs {
        let query = tpch_query("8").unwrap().query.unwrap();
        let answer = FallbackPlan::build(&query, catalog, ApproxPolicy::Bounds { eps: 1e-3 })
            .unwrap()
            .answer_tuples(catalog)
            .unwrap();
        for threads in POOL_SIZES {
            let ctx = format!("refinement loop, {backing} @ {threads} threads");
            clear();
            let clean = || {
                let governor = GovernorBuilder::new().build();
                let result = refine(catalog, &answer, threads, None, &governor)
                    .unwrap_or_else(|e| panic!("{ctx}: clean run failed: {e}"));
                assert_eq!(governor.memory_used(), 0, "{ctx}: clean run");
                result
            };
            let baseline = clean();
            assert!(
                total_rounds(&baseline) > 0,
                "{ctx}: no bag is refined, `conf.bounds` is never reached"
            );
            // After any outcome: nothing charged, nothing poisoned.
            let settled = |governor: &QueryGovernor, what: &str| {
                assert_eq!(
                    governor.memory_used(),
                    0,
                    "{ctx}: {what} left bytes charged"
                );
                assert_eq!(clean(), baseline, "{ctx}: re-run after {what}");
            };
            // Brackets of a run that was stopped early: valid, so around
            // the baseline's (to rounding: crude bounds of a read-once bag
            // fold `1 − (1 − p)` where the exact path reads `p`), in fewer
            // rounds.
            let degraded = |result: &ApproxResult, what: &str| {
                assert_eq!(result.len(), baseline.len(), "{ctx}: {what}");
                for (got, want) in result.iter().zip(&baseline) {
                    assert_eq!(got.tuple, want.tuple, "{ctx}: {what}");
                    let around = got.lo <= want.lo + 1e-12 && want.hi <= got.hi + 1e-12;
                    assert!(around, "{ctx}: {what}: {got:?} is not around {want:?}");
                    assert!(got.rounds <= want.rounds, "{ctx}: {what}");
                }
            };

            for action in [FaultAction::Panic, FaultAction::Cancel, FaultAction::Budget] {
                install(FaultPlan::new(vec![Fault::new(action, "conf.bounds", 0)]));
                let governor = GovernorBuilder::new().build();
                let what = format!("{action:?}@conf.bounds:0");
                match refine(catalog, &answer, threads, None, &governor) {
                    Err(PlanError::Governed(g)) => {
                        assert_eq!(g.stage(), Stage::Confidence, "{ctx}: {what}");
                        match (action, &g) {
                            (FaultAction::Panic, SproutError::WorkerPanic { .. })
                            | (FaultAction::Cancel, SproutError::Cancelled { .. })
                            | (FaultAction::Budget, SproutError::MemoryBudgetExceeded { .. }) => {}
                            other => panic!("{ctx}: action/error mismatch: {other:?}"),
                        }
                    }
                    other => panic!("{ctx}: {what} did not interrupt the run: {other:?}"),
                }
                settled(&governor, &what);
            }

            // A round that outlasts the deadline: the brackets so far, not
            // an error — and the bags behind it find the deadline passed at
            // their first checkpoint and answer with their crude bounds.
            install(FaultPlan::new(vec![Fault::new(
                FaultAction::Slow(80),
                "conf.bounds",
                0,
            )]));
            let governor = GovernorBuilder::new()
                .deadline(Duration::from_millis(40))
                .build();
            let late = refine(catalog, &answer, threads, None, &governor)
                .unwrap_or_else(|e| panic!("{ctx}: a slow round is not an error: {e}"));
            degraded(&late, "slow round");
            assert!(total_rounds(&late) < total_rounds(&baseline), "{ctx}");
            settled(&governor, "a slow round");

            // The deadline passed before any bag's first checkpoint.
            let governor = GovernorBuilder::new().deadline(Duration::ZERO).build();
            std::thread::sleep(Duration::from_millis(2));
            let crude = refine(catalog, &answer, threads, None, &governor)
                .unwrap_or_else(|e| panic!("{ctx}: an expired deadline is not an error: {e}"));
            degraded(&crude, "expired deadline");
            assert_eq!(total_rounds(&crude), 0, "{ctx}: expired deadline");
            settled(&governor, "an expired deadline");

            // The frontier cap and the governor's arena budget, from too
            // small for any root leaf to roomy: every size degrades or
            // completes, and some size stops a refinement part-way — the
            // break after the cap check, the veto of the children's bytes.
            for arena in [false, true] {
                let mut stopped_part_way = false;
                for bytes in (6..20).map(|shift| 1usize << shift) {
                    let governor = match arena {
                        true => GovernorBuilder::new().memory_budget(bytes).build(),
                        false => GovernorBuilder::new().build(),
                    };
                    let cap = (!arena).then_some(bytes);
                    let what = format!(
                        "{bytes} bytes of {}",
                        ["frontier cap", "arena"][arena as usize]
                    );
                    let result = refine(catalog, &answer, threads, cap, &governor)
                        .unwrap_or_else(|e| panic!("{ctx}: {what} is not an error: {e}"));
                    degraded(&result, &what);
                    assert_eq!(
                        governor.memory_used(),
                        0,
                        "{ctx}: {what} left bytes charged"
                    );
                    let rounds = total_rounds(&result);
                    stopped_part_way |= 0 < rounds && rounds < total_rounds(&baseline);
                }
                assert!(
                    stopped_part_way,
                    "{ctx}: arena {arena}: no size stopped a refinement"
                );
                assert_eq!(clean(), baseline, "{ctx}: re-run after the budgets");
            }
        }
    }
}

fn check_run(
    plan: &FaultPlan,
    fault: &Fault,
    w: &Workload,
    family: Family,
    threads: usize,
    must_fire: bool,
) {
    clear();
    let baseline = governed_run(w, family, threads)
        .unwrap_or_else(|e| panic!("{}: clean baseline failed: {e}", w.label));
    install(plan.clone());

    let ctx = format!(
        "{} {family:?} @ {threads} threads, {:?}@{}:{}",
        w.label, fault.action, fault.site, fault.index
    );
    match governed_run(w, family, threads) {
        // The fault never fired (index beyond this run, or a site the
        // workload does not reach): indistinguishable from an
        // uninterrupted run.
        Ok(result) => {
            assert!(!must_fire, "{ctx}: the fault never fired");
            assert_bitwise_eq(&baseline, &result, &ctx)
        }
        // The fault fired: a structured interruption naming what
        // happened — never a torn result, never an unwinding thread.
        Err(PlanError::Governed(g)) => match (fault.action, &g) {
            (FaultAction::Cancel, SproutError::Cancelled { .. })
            | (FaultAction::Budget, SproutError::MemoryBudgetExceeded { .. })
            | (FaultAction::Panic, SproutError::WorkerPanic { .. }) => {
                if fault.site == "eager.aggregate" {
                    assert_eq!(g.stage(), Stage::Aggregate, "{ctx}");
                }
            }
            other => panic!("{ctx}: action/error mismatch: {other:?}"),
        },
        Err(other) => panic!("{ctx}: unstructured error: {other}"),
    }

    // One-shot: the immediate re-run needs no clearing and nothing was
    // poisoned — same pool size, same catalog, bitwise-equal.
    let rerun =
        governed_run(w, family, threads).unwrap_or_else(|e| panic!("{ctx}: re-run failed: {e}"));
    assert_bitwise_eq(&baseline, &rerun, &format!("{ctx} (re-run)"));
}
