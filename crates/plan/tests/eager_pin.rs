//! The eager plan's answers on every hierarchical catalogue query, pinned
//! bit for bit.
//!
//! `EagerPlan::execute` promises the same tuples, the same row order and the
//! same confidence *bits* on both storage backings and at every pool size.
//! `eager_pin.txt` holds one digest (values + confidence bits + row order)
//! per query, generated at the commit before the eager aggregations moved
//! onto the engine's grouping shell (TPC-H SF 0.01, seed 1), so a change to
//! how the aggregations group, order or fold their rows fails here — in
//! tier-1, not only in `sprout_bench`'s golden digests. A deliberate change
//! of the arithmetic regenerates the file from the table this test prints on
//! a mismatch.

use pdb_query::{ConjunctiveQuery, FdSet};
use pdb_storage::Catalog;
use pdb_tpch::{
    case_study_queries, fig12_query_c, fig12_query_d, probabilistic_catalog,
    probabilistic_catalog_columnar, selectivity_query_a, selectivity_query_b, tpch_query, TpchData,
    TpchScale,
};
use sprout_plan::eager::EagerPlan;
use sprout_plan::{PlanError, Pool};

const PINNED: &str = include_str!("eager_pin.txt");

/// Every conjunctive query `pdb_tpch::queries` can build (the list
/// `join_order_pin.rs` pins the join orders of).
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

/// FNV-1a over the answer in order: each tuple's `Debug` form (which tells
/// `Int(2)` from `Float(2.0)`) and the raw bits of its confidence.
fn digest(answer: &[(pdb_storage::Tuple, f64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (tuple, p) in answer {
        eat(format!("{tuple:?}").as_bytes());
        eat(&p.to_bits().to_le_bytes());
    }
    h
}

/// One line per catalogue query: row count and digest of the eager answer,
/// or `no eager plan` for a query whose FD-reduct is not hierarchical.
fn eager_table(catalog: &Catalog, pool: Pool) -> String {
    let fds = FdSet::from_catalog_decls(&catalog.fds());
    catalogue()
        .iter()
        .map(|(id, query)| match EagerPlan::build(query, &fds) {
            Ok(plan) => {
                let answer = plan
                    .with_pool(pool)
                    .execute(catalog)
                    .unwrap_or_else(|e| panic!("{id}: eager plan failed: {e}"));
                format!("{id}: {} rows {:016x}\n", answer.len(), digest(&answer))
            }
            Err(PlanError::UnsafeQuery { .. }) => format!("{id}: no eager plan\n"),
            Err(e) => panic!("{id}: building the eager plan failed: {e}"),
        })
        .collect()
}

#[test]
fn eager_answers_match_the_pinned_digests_on_both_backings_and_pool_sizes() {
    let data = TpchData::generate(TpchScale::new(0.01));
    let columnar = probabilistic_catalog_columnar(&data, 1).expect("columnar catalog");
    let row = probabilistic_catalog(&data, 1).expect("row catalog");
    let got = eager_table(&columnar, Pool::new(1));
    assert_eq!(
        got, PINNED,
        "an eager answer moved; if intended, replace eager_pin.txt with:\n{got}"
    );
    assert_eq!(eager_table(&columnar, Pool::new(8)), PINNED, "columnar, 8");
    assert_eq!(eager_table(&row, Pool::new(1)), PINNED, "row, 1 thread");
    assert_eq!(eager_table(&row, Pool::new(8)), PINNED, "row, 8 threads");
}
