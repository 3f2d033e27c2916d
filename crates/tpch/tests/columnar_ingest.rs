//! The columnar catalog against the detour it no longer takes.
//!
//! Before `build_catalog` read the generator's rows in place it cloned each
//! table, annotated the clone into a `ProbTable` and converted that copy.
//! Replayed here table by table, with the same seed: the tables must be
//! `==` — columns, dictionaries, zone maps, variables, probabilities.

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
    let tables = [
        ("Region", &data.region),
        ("Nation", &data.nation),
        ("NationC", &data.nation_c),
        ("Supp", &data.supp),
        ("Cust", &data.cust),
        ("Part", &data.part),
        ("Psupp", &data.psupp),
        ("Ord", &data.ord),
        ("Item", &data.item),
    ];
    for (name, table) in tables {
        let prob = ProbTable::from_table(table.clone(), &mut gen, |_| {
            let p: f64 = rng.gen_range(0.05..=1.0);
            (p * 100.0).round() / 100.0
        })
        .unwrap();
        let expected = ColumnarTable::from_prob_table(&prob, &pool).unwrap();
        let StorageBacking::Columnar(got) = catalog.backing(name).unwrap() else {
            panic!("{name} is columnar");
        };
        assert_eq!(*got, expected, "{name}");
    }
}
