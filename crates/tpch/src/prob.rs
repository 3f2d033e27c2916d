//! Conversion of the deterministic TPC-H database into a tuple-independent
//! probabilistic catalog.
//!
//! Every tuple receives a distinct Boolean random variable and a probability
//! drawn uniformly at random (Section VII). The TPC-H key constraints —
//! which are what make the paper's signature refinements and FD-reducts
//! kick in — are declared on the catalog.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pdb_storage::columnar::Packed;
use pdb_storage::{Catalog, ColumnarTable, ProbTable, StorageResult, VariableGenerator};

use crate::gen::TpchData;

/// Converts the deterministic tables into a probabilistic catalog of row
/// tables built from [`TpchData::table`]'s decoded views, declaring the
/// TPC-H keys.
///
/// `seed` controls the random probability assignment; the variable ids are
/// assigned sequentially across tables, mirroring the paper's "distinct
/// Boolean random variable per tuple" setup.
pub fn probabilistic_catalog(data: &TpchData, seed: u64) -> StorageResult<Catalog> {
    build_catalog(data, seed, false)
}

/// [`probabilistic_catalog`] emitting **columnar** base tables: the same
/// tuples, variables and probabilities (the RNG sequence is identical), but
/// every table is registered as a [`ColumnarTable`] — typed column vectors,
/// chunked row groups, per-chunk zone maps — so scans take the vectorized
/// zone-map fast path. The tables share `data`'s columns without copying
/// them; only the variables and probabilities are drawn here. Query results
/// are bitwise-identical to the row catalog's; the row catalog remains the
/// A/B control.
pub fn probabilistic_catalog_columnar(data: &TpchData, seed: u64) -> StorageResult<Catalog> {
    build_catalog(data, seed, true)
}

fn build_catalog(data: &TpchData, seed: u64, columnar: bool) -> StorageResult<Catalog> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut gen = VariableGenerator::new();
    let catalog = Catalog::new();

    for (name, columns) in data.tables() {
        // Probabilities in (0.05, 1.0]: away from zero so no tuple is
        // trivially absent, and including certain tuples.
        let mut draw = || {
            let p: f64 = rng.gen_range(0.05..=1.0);
            (p * 100.0).round() / 100.0
        };
        if columnar {
            // The table shares the generator's columns: only the variables
            // and probabilities are new. The variables are the next ids in
            // turn, packed as the sequence they are.
            let vars = Packed::sequence(gen.count() as i64, columns.len());
            gen = VariableGenerator::starting_at(gen.count() + columns.len() as u64);
            let probs = (0..columns.len()).map(|_| draw()).collect();
            catalog
                .register_columnar(name, ColumnarTable::new(Arc::clone(columns), vars, probs)?)?;
        } else {
            let prob = ProbTable::from_table(columns.to_table(), &mut gen, |_| draw())?;
            catalog.register_table(name, prob)?;
        }
    }

    catalog.declare_key("Region", &["rkey"])?;
    catalog.declare_key("Nation", &["nkey"])?;
    catalog.declare_key("NationC", &["cnkey"])?;
    catalog.declare_key("Supp", &["skey"])?;
    catalog.declare_key("Cust", &["ckey"])?;
    catalog.declare_key("Part", &["pkey"])?;
    catalog.declare_key("Psupp", &["pkey", "skey"])?;
    catalog.declare_key("Ord", &["okey"])?;
    catalog.declare_key("Item", &["okey", "linenumber"])?;
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{TpchData, TpchScale};

    #[test]
    fn catalog_registers_all_nine_tables_with_keys() {
        let data = TpchData::generate(TpchScale::tiny());
        let catalog = probabilistic_catalog(&data, 1).unwrap();
        assert_eq!(catalog.table_names().len(), 9);
        assert_eq!(catalog.total_tuples(), data.total_tuples());
        assert_eq!(catalog.key_of("Ord").unwrap(), vec!["okey".to_string()]);
        assert_eq!(
            catalog.key_of("Item").unwrap(),
            vec!["okey".to_string(), "linenumber".to_string()]
        );
        // Keys imply FDs for the query layer.
        assert!(!catalog.fds().is_empty());
    }

    #[test]
    fn probabilities_are_valid_and_variables_distinct() {
        let data = TpchData::generate(TpchScale::tiny());
        let catalog = probabilistic_catalog(&data, 1).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for name in catalog.table_names() {
            let table = catalog.table(&name).unwrap();
            for i in 0..table.len() {
                let (_, var, p) = table.triple(i);
                assert!(p > 0.0 && p <= 1.0);
                assert!(seen.insert(var), "variable {var} reused across tuples");
            }
        }
    }

    #[test]
    fn columnar_catalog_holds_the_same_tuples_variables_and_probabilities() {
        let data = TpchData::generate(TpchScale::tiny());
        let row = probabilistic_catalog(&data, 1).unwrap();
        let col = probabilistic_catalog_columnar(&data, 1).unwrap();
        assert_eq!(col.table_names(), row.table_names());
        for name in row.table_names() {
            assert!(matches!(
                col.backing(&name).unwrap(),
                pdb_storage::StorageBacking::Columnar(_)
            ));
            // Materialising the columnar backing reproduces the row table
            // exactly — same tuples, same variables, same probabilities.
            assert_eq!(
                &*col.table(&name).unwrap(),
                &*row.table(&name).unwrap(),
                "{name}"
            );
        }
        assert_eq!(col.key_of("Item"), row.key_of("Item"));
        assert_eq!(col.fds().len(), row.fds().len());
    }

    #[test]
    fn probability_assignment_is_seeded() {
        let data = TpchData::generate(TpchScale::tiny());
        let a = probabilistic_catalog(&data, 1).unwrap();
        let b = probabilistic_catalog(&data, 1).unwrap();
        let c = probabilistic_catalog(&data, 2).unwrap();
        assert_eq!(
            a.table("Ord").unwrap().probs(),
            b.table("Ord").unwrap().probs()
        );
        assert_ne!(
            a.table("Ord").unwrap().probs(),
            c.table("Ord").unwrap().probs()
        );
    }
}
