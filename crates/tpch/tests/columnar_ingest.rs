//! The columnar catalog against the builds it replaced, and its sharing.
//!
//! `probabilistic_catalog_columnar` registers tables that share the
//! generator's columns and only draw their variables and probabilities.
//! Replayed here table by table, with the same seed, over the decoded row
//! view `TpchData::table`: every catalog table must be `==` — columns,
//! dictionaries, zone maps, variables, probabilities — to
//! `ColumnarTable::from_table` over those rows, and to the clone, annotate
//! and convert build the set-up once took.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pdb_storage::{ColumnarTable, ProbTable, StorageBacking, VariableGenerator};
use pdb_tpch::{probabilistic_catalog_columnar, TpchData, TpchScale};

#[test]
fn all_nine_tables_equal_the_clone_annotate_convert_build() {
    let data = TpchData::generate(TpchScale::tiny());
    let catalog = probabilistic_catalog_columnar(&data, 1).unwrap();
    let mut rng = SmallRng::seed_from_u64(1);
    let mut gen = VariableGenerator::new();
    let pool = pdb_par::Pool::from_env();
    for (name, _) in data.tables() {
        let table = data.table(name);
        let prob = ProbTable::from_table(table.clone(), &mut gen, |_| {
            let p: f64 = rng.gen_range(0.05..=1.0);
            (p * 100.0).round() / 100.0
        })
        .unwrap();
        let (vars, probs) = (prob.vars().to_vec(), prob.probs().to_vec());
        let from_rows = ColumnarTable::from_table(&table, vars, probs, &pool).unwrap();
        let StorageBacking::Columnar(got) = catalog.backing(name).unwrap() else {
            panic!("{name} is columnar");
        };
        assert_eq!(*got, from_rows, "{name}: from_table");
        assert_eq!(
            *got,
            ColumnarTable::from_prob_table(&prob, &pool).unwrap(),
            "{name}: from_prob_table"
        );
    }
}

#[test]
fn every_catalog_table_shares_the_generated_columns() {
    let data = TpchData::generate(TpchScale::tiny());
    let catalog = probabilistic_catalog_columnar(&data, 1).unwrap();
    assert_eq!(data.tables().count(), 9);
    for (name, columns) in data.tables() {
        let StorageBacking::Columnar(got) = catalog.backing(name).unwrap() else {
            panic!("{name} is columnar");
        };
        assert!(
            Arc::ptr_eq(got.data(), columns),
            "{name} copies its columns"
        );
    }
}
