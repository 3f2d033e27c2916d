//! The greedy join order of every catalogue query, pinned.
//!
//! `greedy_join_order` is a pure function of the query and the catalog's
//! table statistics, so a change to how statistics are computed, stored or
//! combined that flips an order fails here — not weeks later as a timing
//! drift in `sprout_bench`. `join_order_pin.txt` was generated at the commit
//! before statistics moved into the catalog (TPC-H SF 0.01, seed 1); a
//! deliberate planner change regenerates it from the table this test prints
//! on a mismatch.
//!
//! The eager and MystiQ walks scan their leaves in that order, each reduced
//! by the key sets of the leaves before it, and the hybrid plan's join walk
//! reduces each scan after the first by the running result's keys, so the
//! order also fixes the reduction filters `EXPLAIN` lists; eager and MystiQ
//! Q18 and Q21, and hybrid Q3 and Q18, are pinned here.

use pdb_query::ConjunctiveQuery;
use pdb_storage::Catalog;
use pdb_tpch::{
    case_study_queries, fig12_query_c, fig12_query_d, probabilistic_catalog,
    probabilistic_catalog_columnar, selectivity_query_a, selectivity_query_b, tpch_query, TpchData,
    TpchScale,
};
use sprout_plan::join_order::greedy_join_order;
use sprout_plan::{PlanKind, Planner, QueryOptions};

const PINNED: &str = include_str!("join_order_pin.txt");

/// Every conjunctive query `pdb_tpch::queries` can build: the case-study
/// catalogue (Q1–Q22 and the Boolean variants the paper evaluates), the
/// Boolean forms of the intractable three, and the Fig. 11/12 micro-queries
/// at the thresholds the figures start from.
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

fn order_table(catalog: &Catalog) -> String {
    catalogue()
        .iter()
        .map(|(id, query)| match greedy_join_order(query, catalog) {
            Ok(order) => format!("{id}: {}\n", order.join(" ")),
            Err(e) => format!("{id}: error {e}\n"),
        })
        .collect()
}

#[test]
fn greedy_join_orders_match_the_pinned_table_on_both_backings() {
    let data = TpchData::generate(TpchScale::new(0.01));
    let columnar = probabilistic_catalog_columnar(&data, 1).expect("columnar catalog");
    let got = order_table(&columnar);
    assert_eq!(
        got, PINNED,
        "a join order moved; if intended, replace join_order_pin.txt with:\n{got}"
    );
    // Row tables carry no chunk-distinct hints, which only break ties
    // between equal output estimates: no catalogue query has such a tie.
    let row = probabilistic_catalog(&data, 1).expect("row catalog");
    assert_eq!(order_table(&row), PINNED, "row backing orders differ");
    // Asked again, the memoized statistics give the same orders.
    assert_eq!(order_table(&columnar), PINNED, "second planning differs");
}

#[test]
fn eager_and_mystiq_explains_list_the_reduction_filters_of_q18_and_q21() {
    let data = TpchData::generate(TpchScale::new(0.01));
    let catalog = probabilistic_catalog_columnar(&data, 1).expect("columnar catalog");
    let opts = QueryOptions::default();
    let planner = Planner::new(&catalog, &opts);
    let pinned = [
        (
            "18",
            vec![
                vec![],
                vec!["Ord.ckey ⊆ keys(Cust)"],
                vec!["Item.okey ⊆ keys(Ord)"],
            ],
        ),
        (
            "21",
            vec![
                vec![],
                vec!["Supp.nkey ⊆ keys(Nation)"],
                vec!["Item.skey ⊆ keys(Supp)"],
                vec!["Ord.okey ⊆ keys(Item)"],
            ],
        ),
    ];
    for (id, want) in pinned {
        let query = tpch_query(id).and_then(|e| e.query).expect("conjunctive");
        for kind in [PlanKind::Eager, PlanKind::Mystiq] {
            let explain = planner.explain(&query, kind.clone()).unwrap();
            let got: Vec<Vec<&str>> = (explain.scan_details.iter())
                .map(|s| s.reductions.iter().map(String::as_str).collect())
                .collect();
            assert_eq!(got, want, "Q{id} {kind}");
            let rendered = explain.render();
            assert!(rendered.contains(" reduced by "), "{rendered}");
        }
        // A lazy plan's scans take no reduction.
        let lazy = planner.explain(&query, PlanKind::Lazy).unwrap();
        assert!(lazy.scan_details.iter().all(|s| s.reductions.is_empty()));
    }
}

#[test]
fn hybrid_explains_list_the_reduction_filters_of_q3_and_q18() {
    let data = TpchData::generate(TpchScale::new(0.01));
    let catalog = probabilistic_catalog_columnar(&data, 1).expect("columnar catalog");
    let opts = QueryOptions::default();
    let planner = Planner::new(&catalog, &opts);
    // Both join `Cust Ord Item`; each scan after the first is reduced by
    // the running result's keys.
    let want = vec![
        vec![],
        vec!["Ord.ckey ⊆ keys(Cust)"],
        vec!["Item.okey ⊆ keys(Cust ⋈ Ord)"],
    ];
    for id in ["3", "18"] {
        let query = tpch_query(id).and_then(|e| e.query).expect("conjunctive");
        let kind = PlanKind::Hybrid(vec!["Item".to_string()]);
        let explain = planner.explain(&query, kind).unwrap();
        let got: Vec<Vec<&str>> = (explain.scan_details.iter())
            .map(|s| s.reductions.iter().map(String::as_str).collect())
            .collect();
        assert_eq!(got, want, "Q{id} hybrid");
        let rendered = explain.render();
        assert!(
            rendered.contains(" reduced by Item.okey ⊆ keys(Cust ⋈ Ord)"),
            "{rendered}"
        );
        // None for lazy.
        let lazy = planner.explain(&query, PlanKind::Lazy).unwrap();
        assert!(lazy.scan_details.iter().all(|s| s.reductions.is_empty()));
    }
}
