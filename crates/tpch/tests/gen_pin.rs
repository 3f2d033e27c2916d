//! The generated database, pinned row for row.
//!
//! `gen_pin.txt` holds, per relation and at two scales (`TpchScale::tiny()`,
//! 1 813 tuples, and SF 0.01, 86 806 tuples), the row count and an FNV-1a
//! digest of the schema and of every row's `Debug` form (which tells
//! `Int(2)` from `Float(2.0)`) in generation order. It was recorded while the
//! generator still built row tables, so the columnar generator is held to
//! the same rows, in the same order, through its decoded view. A deliberate
//! change to the generator regenerates the file from the table this test
//! prints on a mismatch.

use pdb_storage::Table;
use pdb_testkit::Fnv1a;
use pdb_tpch::{TpchData, TpchScale};

const PINNED: &str = include_str!("gen_pin.txt");

fn digest(table: &Table) -> u64 {
    let mut h = Fnv1a::default();
    for col in table.schema().columns() {
        h.eat(format!("{}:{};", col.name, col.data_type).as_bytes());
    }
    for row in table.rows() {
        h.eat(format!("{row:?}").as_bytes());
    }
    h.finish()
}

#[test]
fn every_relation_holds_the_pinned_rows_in_the_pinned_order() {
    let mut got = String::new();
    for (label, scale) in [
        ("tiny", TpchScale::tiny()),
        ("sf0.01", TpchScale::new(0.01)),
    ] {
        let data = TpchData::generate(scale);
        for (name, _) in data.tables() {
            let table = data.table(name);
            got += &format!(
                "{label} {name}: {} rows {:016x}\n",
                table.len(),
                digest(&table)
            );
        }
        got += &format!("{label} total: {} tuples\n", data.total_tuples());
    }
    assert_eq!(
        got, PINNED,
        "the generated rows moved; if intended, replace gen_pin.txt with:\n{got}"
    );
}
