//! PR 6 fault-injection property tests (compiled only with `--features
//! fault-inject`).
//!
//! Seeded [`FaultPlan::random`] draws pick a checkpoint site, an index, and
//! an action (panic / cancel / budget); the plan is installed and a governed
//! run of the lazy and of the eager plan executed at every pool size and both
//! storage backings. The properties:
//!
//! * a run whose fault fires surfaces a structured
//!   [`PlanError::Governed`] naming the interruption — or, for a `panic`
//!   fault on a sequential (caller-thread) code path, a plain panic that the
//!   test contains with `catch_unwind`; panic *isolation* is a property of
//!   `pdb-par` workers, not of inline loops — except at `eager.aggregate`,
//!   whose folds run inside the grouping shell's panic-isolated collapse at
//!   every pool size and always yield `WorkerPanic { stage: Aggregate }` —
//!   also where the collapse moves its input's data arena instead of
//!   copying it (the `keyed-leaf` workload);
//! * a run whose fault is never reached is bitwise-identical to the
//!   baseline;
//! * faults are one-shot, so an immediate re-run needs no cleanup and is
//!   always bitwise-identical to the baseline — nothing is poisoned.
//!
//! Everything lives in ONE `#[test]` because the installed fault plan is
//! process-global state; parallel test threads would race on it.
#![cfg(feature = "fault-inject")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use pdb_fault::{clear, install, Fault, FaultAction, FaultPlan};
use pdb_par::Pool;
use pdb_query::{ConjunctiveQuery, FdSet};
use pdb_storage::{tuple, Catalog, DataType, ProbTable, Schema, Tuple, Variable};
use pdb_tpch::{
    probabilistic_catalog, probabilistic_catalog_columnar, tpch_query, TpchData, TpchScale,
};
use proptest::prelude::*;
use sprout_plan::eager::EagerPlan;
use sprout_plan::lazy::LazyPlan;
use sprout_plan::{GovernorBuilder, PlanError, SproutError, Stage};

/// Every checkpoint site the governed engine exposes (module docs of
/// `pdb_exec::ops`, `pdb_exec::columnar`, `pdb_conf::one_scan`).
const SITES: &[&str] = &[
    "scan.morsel",
    "scan.write",
    "scan.chunk",
    "scan.gather",
    "join.probe",
    "join.write",
    "project.write",
    "eager.aggregate",
    "conf.bag",
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
/// (`join.probe`/`join.write`/`project.write`), and a table scanned along
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
            .with_governor(gov)
            .execute(&w.catalog),
        Family::Eager => EagerPlan::build(&w.query, &w.fds)?
            .with_pool(Pool::new(threads))
            .with_governor(gov)
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
    clear();
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
    let outcome = catch_unwind(AssertUnwindSafe(|| governed_run(w, family, threads)));
    match outcome {
        // The fault never fired (index beyond this run, or a site the
        // workload does not reach): indistinguishable from an
        // uninterrupted run.
        Ok(Ok(result)) => {
            assert!(!must_fire, "{ctx}: the fault never fired");
            assert_bitwise_eq(&baseline, &result, &ctx)
        }
        // The fault fired: a structured interruption naming what
        // happened — never a torn result.
        Ok(Err(PlanError::Governed(g))) => match (fault.action, &g) {
            (FaultAction::Cancel, SproutError::Cancelled { .. })
            | (FaultAction::Budget, SproutError::MemoryBudgetExceeded { .. })
            | (FaultAction::Panic, SproutError::WorkerPanic { .. }) => {
                if fault.site == "eager.aggregate" {
                    assert_eq!(g.stage(), Stage::Aggregate, "{ctx}");
                }
            }
            other => panic!("{ctx}: action/error mismatch: {other:?}"),
        },
        Ok(Err(other)) => panic!("{ctx}: unstructured error: {other}"),
        // A panic fault on a sequential code path unwinds through the
        // caller; only the `panic` action may do that, and never at
        // `eager.aggregate`.
        Err(_) => assert!(
            fault.action == FaultAction::Panic && fault.site != "eager.aggregate",
            "{ctx}: fault escaped as a panic"
        ),
    }

    // One-shot: the immediate re-run needs no clearing and nothing was
    // poisoned — same pool size, same catalog, bitwise-equal.
    let rerun =
        governed_run(w, family, threads).unwrap_or_else(|e| panic!("{ctx}: re-run failed: {e}"));
    assert_bitwise_eq(&baseline, &rerun, &format!("{ctx} (re-run)"));
}
