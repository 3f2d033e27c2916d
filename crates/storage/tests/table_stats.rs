//! `Catalog::table_stats` under concurrency and across backings.
//!
//! The single-threaded contract of the statistics cell (same allocation on
//! the second call, a fresh cell after `replace_table`, unknown tables) is
//! unit-tested next to the catalog; these tests need threads, generated data
//! or both backings.

use std::sync::{Arc, Barrier};
use std::thread;

use pdb_storage::{Catalog, ColumnarTable, DataType, ProbTable, Schema, Tuple, Value, Variable};
use pdb_tpch::{probabilistic_catalog, probabilistic_catalog_columnar, TpchData, TpchScale};

/// `rows` rows of `(k, g)`: `k` unique, `g` cycling through `groups` values.
fn table(rows: usize, groups: usize) -> ProbTable {
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("g", DataType::Int)]).unwrap();
    let mut t = ProbTable::new(schema);
    for r in 0..rows {
        t.insert(
            Tuple::new(vec![Value::Int(r as i64), Value::Int((r % groups) as i64)]),
            Variable(r as u64),
            0.5,
        )
        .unwrap();
    }
    t
}

#[test]
fn threads_racing_the_first_use_all_get_equal_stats() {
    let catalog = Catalog::new();
    catalog.register_table("T", table(20_000, 7)).unwrap();
    let start = Barrier::new(8);
    let all: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    catalog.table_stats("T").unwrap()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    let memo = catalog.table_stats("T").unwrap();
    assert_eq!(memo.cardinality, 20_000);
    assert_eq!(memo.distinct["k"], 20_000);
    assert_eq!(memo.distinct["g"], 7);
    // The racers computed once: every one holds the cell's allocation.
    for stats in &all {
        assert!(Arc::ptr_eq(stats, &memo));
    }
}

#[test]
fn a_replace_racing_a_first_use_never_leaves_stale_stats() {
    // The old table is the larger one, so its column walk is still running
    // when the replacement lands in most rounds; whichever side wins, the
    // statistics under the name describe the new table afterwards.
    for round in 0..50 {
        let catalog = Catalog::new();
        catalog.register_table("T", table(5_000, 5)).unwrap();
        let start = Barrier::new(2);
        let raced = thread::scope(|s| {
            let reader = s.spawn(|| {
                start.wait();
                catalog.table_stats("T").unwrap()
            });
            start.wait();
            catalog.replace_table("T", table(10, 3));
            reader.join().expect("no panic")
        });
        // The racing reader saw one table or the other, never a blend.
        assert!(
            (raced.cardinality, raced.distinct["g"]) == (5_000, 5)
                || (raced.cardinality, raced.distinct["g"]) == (10, 3),
            "round {round}: {raced:?}"
        );
        let after = catalog.table_stats("T").unwrap();
        assert_eq!(after.cardinality, 10, "round {round}");
        assert_eq!(after.distinct["k"], 10, "round {round}");
        assert_eq!(after.distinct["g"], 3, "round {round}");
    }
}

#[test]
fn row_and_columnar_ingests_yield_the_same_statistics() {
    let data = TpchData::generate(TpchScale::new(0.002));
    let row = probabilistic_catalog(&data, 1).unwrap();
    let columnar = probabilistic_catalog_columnar(&data, 1).unwrap();
    for name in row.table_names() {
        let r = row.table_stats(&name).unwrap();
        let c = columnar.table_stats(&name).unwrap();
        assert_eq!(r.cardinality, c.cardinality, "{name}");
        assert_eq!(r.distinct, c.distinct, "{name}");
        assert!(r.chunk_distinct.is_empty(), "{name}");
        assert_eq!(
            c.chunk_distinct.keys().collect::<Vec<_>>(),
            c.distinct.keys().collect::<Vec<_>>(),
            "{name}"
        );
    }
}

#[test]
fn distinct_counts_beyond_two_to_the_53_agree_on_both_backings() {
    // `Value::cmp` equates `Int(2⁶⁰ + 100)` with `Float(2⁶⁰)` but orders it
    // above `Int(2⁶⁰ − 100)`, which it puts below the float: no order. The
    // count takes an `IN` list's order and duplicates, so three spellings
    // are three values on the row table and on its `Mixed` column twin.
    let schema = Schema::from_pairs(&[("k", DataType::Float)]).unwrap();
    let mut t = ProbTable::new(schema);
    let big = 1i64 << 60;
    let values = [
        Value::Int(big - 100),
        Value::Int(big + 100),
        Value::Float(big as f64),
    ];
    for (r, v) in values.into_iter().enumerate() {
        t.insert(Tuple::new(vec![v]), Variable(r as u64), 0.5)
            .unwrap();
    }
    let catalog = Catalog::new();
    let columnar = ColumnarTable::from_prob_table(&t, &pdb_par::Pool::new(1)).unwrap();
    catalog.register_columnar("C", columnar).unwrap();
    catalog.register_table("R", t).unwrap();
    assert_eq!(catalog.table_stats("R").unwrap().distinct["k"], 3);
    assert_eq!(catalog.table_stats("C").unwrap().distinct["k"], 3);
}
