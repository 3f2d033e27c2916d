//! The deterministic counters of five lazy queries, pinned.
//!
//! The counters of `pdb-obs` are part of the determinism contract: a change
//! that moves, drops or double-counts work — a scan run twice, a decode
//! before the confidence operator instead of after it, a bag split another
//! way — shows here as a changed number, not weeks later as a drift in
//! `sprout_bench`'s `count` metrics. `counter_pin.txt` was generated at the
//! commit before the plans began to own their intermediates (TPC-H SF 0.01,
//! seed 1, columnar); a deliberate change regenerates it from the table this
//! test prints on a mismatch.

use std::sync::Arc;

use pdb_tpch::{probabilistic_catalog_columnar, tpch_query, TpchData, TpchScale};
use sprout::{Counter, PlanKind, Pool, QueryObs, QueryOptions, SproutDb};

const PINNED: &str = include_str!("counter_pin.txt");

/// Single-table scans with and without a head (Q1 / B1, Q6 / B6) and one
/// join query (Q15).
const QUERIES: [&str; 5] = ["1", "B1", "6", "B6", "15"];

const COUNTERS: [Counter; 8] = [
    Counter::RowsScanned,
    Counter::RowsEmitted,
    Counter::ChunksScanned,
    Counter::ChunksSkipped,
    Counter::DecodedStrings,
    Counter::RankedColumns,
    Counter::ConfBags,
    Counter::ConfHugeBags,
];

fn counter_table(db: &SproutDb, threads: usize) -> String {
    QUERIES
        .iter()
        .map(|id| {
            let query = tpch_query(id)
                .unwrap_or_else(|| panic!("catalogue has {id}"))
                .query
                .unwrap_or_else(|| panic!("{id} is conjunctive"));
            let obs = QueryObs::new();
            let opts = QueryOptions {
                kind: Some(PlanKind::Lazy),
                pool: Some(Pool::new(threads)),
                obs: Some(Arc::clone(&obs)),
                ..QueryOptions::default()
            };
            db.query_with_options(&query, &opts)
                .unwrap_or_else(|e| panic!("{id} lazy at {threads} threads: {e}"));
            let cells: Vec<String> = COUNTERS
                .iter()
                .map(|c| format!("{}={}", c.name(), obs.get(*c)))
                .collect();
            format!("{id}: {}\n", cells.join(" "))
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
