//! The deterministic counters of five lazy queries, of four eager plans, of
//! two hybrid plans and of one MystiQ plan, pinned.
//!
//! The counters of `pdb-obs` are part of the determinism contract: a change
//! that moves, drops or double-counts work — a scan run twice, a decode
//! before the confidence operator instead of after it, a bag split another
//! way — shows here as a changed number, not weeks later as a drift in
//! `sprout_bench`'s `count` metrics. `counter_pin.txt` was generated at the
//! commit before the plans began to own their intermediates (TPC-H SF 0.01,
//! seed 1, columnar), and its three plan-family lines at the commit before
//! columnar ingest began to read the generator's rows in place — the join
//! and grouping counts see every base-table row, so they are also the
//! cheapest proof that the ingested tables are that commit's, row for row.
//! The eager lines were regenerated when the eager walk began to reduce its
//! leaves by the key sets of the leaves scanned before them: they pin the
//! rows the scans keep and the chunks they skip too, so that reduction
//! stays pinned. The hybrid lines were regenerated, and Q18's added, when
//! the hybrid plan's join walk began to reduce each scan after the first by
//! the running result's key set: their probes, matches and answer rows do
//! not move under it, so they now pin the eager lines' counters, whose
//! `rows_emitted` and `chunks_skipped` do. A deliberate change regenerates
//! the file from the table this test prints on a mismatch.

use std::sync::Arc;

use pdb_tpch::{probabilistic_catalog_columnar, tpch_query, TpchData, TpchScale};
use sprout::{Counter, PlanKind, Pool, QueryObs, QueryOptions, SproutDb};

const PINNED: &str = include_str!("counter_pin.txt");

/// Single-table scans with and without a head (Q1 / B1, Q6 / B6) and one
/// join query (Q15).
const LAZY_QUERIES: [&str; 5] = ["1", "B1", "6", "B6", "15"];

const LAZY_COUNTERS: [Counter; 8] = [
    Counter::RowsScanned,
    Counter::RowsEmitted,
    Counter::ChunksScanned,
    Counter::ChunksSkipped,
    Counter::DecodedStrings,
    Counter::RankedColumns,
    Counter::ConfBags,
    Counter::ConfHugeBags,
];

/// Grouping and join work, and the answer's size. The planner hands a
/// MystiQ plan no collector (ROADMAP item 1(a)(iv)), so its line pins that
/// the plan tallies nothing and the planner its answer rows.
const PLAN_COUNTERS: [Counter; 4] = [
    Counter::EagerGroups,
    Counter::JoinProbes,
    Counter::JoinMatches,
    Counter::AnswerRows,
];

/// The eager and hybrid plans' semi-join reduction shows in the rows their
/// scans keep and the chunks they skip, then in the plan counters.
const EAGER_QUERIES: [&str; 4] = ["3", "7", "18", "21"];

/// The hybrid plans `sprout_bench` runs, `Item` pushed down.
const HYBRID_QUERIES: [&str; 2] = ["3", "18"];

const EAGER_COUNTERS: [Counter; 6] = [
    Counter::RowsEmitted,
    Counter::ChunksSkipped,
    Counter::EagerGroups,
    Counter::JoinProbes,
    Counter::JoinMatches,
    Counter::AnswerRows,
];

/// `(line label, query, plan, counters)`: the lazy lines, the eager lines,
/// the hybrid lines, and Q15 under MystiQ's safe plan.
fn pinned_runs() -> Vec<(String, &'static str, PlanKind, &'static [Counter])> {
    let lazy = LAZY_QUERIES.map(|id| (id.to_string(), id, PlanKind::Lazy, &LAZY_COUNTERS[..]));
    let eager = EAGER_QUERIES.map(|id| {
        (
            format!("{id}.eager"),
            id,
            PlanKind::Eager,
            &EAGER_COUNTERS[..],
        )
    });
    let hybrid = HYBRID_QUERIES.map(|id| {
        let kind = PlanKind::Hybrid(vec!["Item".to_string()]);
        (format!("{id}.hybrid"), id, kind, &EAGER_COUNTERS[..])
    });
    let mystiq = (
        "15.mystiq".to_string(),
        "15",
        PlanKind::Mystiq,
        &PLAN_COUNTERS[..],
    );
    (lazy.into_iter().chain(eager).chain(hybrid))
        .chain([mystiq])
        .collect()
}

fn counter_table(db: &SproutDb, threads: usize) -> String {
    pinned_runs()
        .into_iter()
        .map(|(label, id, kind, counters)| {
            let query = tpch_query(id)
                .unwrap_or_else(|| panic!("catalogue has {id}"))
                .query
                .unwrap_or_else(|| panic!("{id} is conjunctive"));
            let obs = QueryObs::new();
            let opts = QueryOptions {
                kind: Some(kind),
                pool: Some(Pool::new(threads)),
                obs: Some(Arc::clone(&obs)),
                ..QueryOptions::default()
            };
            db.query_with_options(&query, &opts)
                .unwrap_or_else(|e| panic!("{label} at {threads} threads: {e}"));
            let cells: Vec<String> = counters
                .iter()
                .map(|c| format!("{}={}", c.name(), obs.get(*c)))
                .collect();
            format!("{label}: {}\n", cells.join(" "))
        })
        .collect()
}

#[test]
fn lazy_counters_match_the_pinned_table_at_one_and_eight_threads() {
    let data = TpchData::generate(TpchScale::new(0.01));
    let catalog = probabilistic_catalog_columnar(&data, 1).expect("columnar catalog");
    let db = SproutDb::from_catalog(catalog);
    for threads in [1, 8] {
        let got = counter_table(&db, threads);
        assert_eq!(
            got, PINNED,
            "a counter moved at {threads} threads; if intended, replace counter_pin.txt with:\n{got}"
        );
    }
}
