//! Table statistics and selectivity estimation.
//!
//! SPROUT delegates join ordering to the host engine's cost-based optimizer
//! (Section V.B: "Cost-based decisions can be made using the host relational
//! database engine"). Our in-memory substrate plays that role with classic
//! textbook estimates: per-column distinct counts, uniform-distribution
//! selectivities for constant predicates, and containment-of-value-sets for
//! equi-joins.
//!
//! The per-table numbers ([`TableStats`]) are the catalog's: it computes
//! them on a table's first use and keeps them until the table is replaced.
//! This module only combines them into estimates for one query.

use std::collections::BTreeMap;
use std::sync::Arc;

use pdb_query::{CompareOp, ConjunctiveQuery, Predicate};
use pdb_storage::Catalog;
pub use pdb_storage::TableStats;

use crate::error::PlanResult;

/// Statistics for all tables referenced by a query.
#[derive(Debug, Clone, Default)]
pub struct Statistics {
    tables: BTreeMap<String, Arc<TableStats>>,
}

impl Statistics {
    /// Looks up the statistics of every relation of `query` in `catalog`,
    /// which computes them on a table's first use and keeps them until the
    /// table is replaced (see [`Catalog::table_stats`]): planning a query
    /// over tables seen before costs one `Arc` clone per atom.
    ///
    /// # Errors
    /// Fails if a referenced table is missing.
    pub fn collect(query: &ConjunctiveQuery, catalog: &Catalog) -> PlanResult<Statistics> {
        let mut tables = BTreeMap::new();
        for atom in &query.relations {
            tables.insert(atom.name.clone(), catalog.table_stats(&atom.name)?);
        }
        Ok(Statistics { tables })
    }

    /// Statistics of a single table, if collected.
    pub fn table(&self, name: &str) -> Option<&TableStats> {
        self.tables.get(name).map(Arc::as_ref)
    }

    /// Estimated selectivity of a constant predicate, in `[0, 1]`.
    pub fn predicate_selectivity(&self, predicate: &Predicate) -> f64 {
        let Some(stats) = self.tables.get(&predicate.relation) else {
            return 1.0;
        };
        let distinct = stats
            .distinct
            .get(&predicate.attribute)
            .copied()
            .unwrap_or(1)
            .max(1) as f64;
        match predicate.op {
            CompareOp::Eq => 1.0 / distinct,
            CompareOp::Ne => 1.0 - 1.0 / distinct,
            // A membership list keeps one uniform share per distinct
            // non-null alternative.
            CompareOp::In => (in_list_len(predicate) as f64 / distinct).min(1.0),
            // Without histograms, assume a range predicate keeps a third of
            // the tuples — the classic System R default.
            CompareOp::Lt | CompareOp::Le | CompareOp::Gt | CompareOp::Ge => 1.0 / 3.0,
        }
    }

    /// Estimated fraction of a columnar table's chunks an `Eq`/`In`
    /// predicate must actually read after zone-statistics pruning, from the
    /// per-chunk distinct hints: a chunk holds one of `k` probed values
    /// with probability about `k · chunk_distinct / distinct` under uniform
    /// placement, and the per-chunk bloom filters skip the rest. `1.0` when
    /// the predicate cannot prune chunks (ordered operators estimate
    /// through min/max ranges instead), the backing is row-major, or no
    /// hint was collected.
    pub fn scan_fraction(&self, predicate: &Predicate) -> f64 {
        if !matches!(predicate.op, CompareOp::Eq | CompareOp::In) {
            return 1.0;
        }
        let Some(stats) = self.tables.get(&predicate.relation) else {
            return 1.0;
        };
        let Some(&chunk) = stats.chunk_distinct.get(&predicate.attribute) else {
            return 1.0;
        };
        let distinct = stats
            .distinct
            .get(&predicate.attribute)
            .copied()
            .unwrap_or(1)
            .max(1) as f64;
        (in_list_len(predicate) as f64 * chunk as f64 / distinct).min(1.0)
    }

    /// Estimated number of rows the scan of `relation` must *read* (not
    /// return): cardinality scaled by the best chunk-pruning fraction any
    /// of its `Eq`/`In` predicates achieves. The greedy join order uses it
    /// to break cardinality ties in favour of the cheaper scan.
    pub fn scan_cost(&self, query: &ConjunctiveQuery, relation: &str) -> f64 {
        let Some(stats) = self.tables.get(relation) else {
            return 0.0;
        };
        let fraction = query
            .predicates_for(relation)
            .into_iter()
            .map(|p| self.scan_fraction(p))
            .fold(1.0f64, f64::min);
        stats.cardinality as f64 * fraction
    }

    /// Estimated cardinality of `relation` after applying the query's
    /// predicates for it.
    pub fn filtered_cardinality(&self, query: &ConjunctiveQuery, relation: &str) -> f64 {
        let Some(stats) = self.tables.get(relation) else {
            return 0.0;
        };
        let mut card = stats.cardinality as f64;
        for p in query.predicates_for(relation) {
            card *= self.predicate_selectivity(p);
        }
        card
    }

    /// Estimated cardinality of joining an intermediate result of size
    /// `left_card` (covering `left_tables`) with `relation`, using the
    /// containment assumption `|L ⋈ R| ≈ |L| · |R| / max(d_L, d_R)` over the
    /// shared join attributes.
    pub fn join_cardinality(
        &self,
        query: &ConjunctiveQuery,
        left_tables: &[String],
        left_card: f64,
        relation: &str,
    ) -> f64 {
        let right_card = self.filtered_cardinality(query, relation);
        let Some(atom) = query.relation(relation) else {
            return left_card * right_card;
        };
        let mut result = left_card * right_card;
        for attr in &atom.attributes {
            let occurs_left = left_tables.iter().any(|t| {
                query
                    .relation(t)
                    .map(|a| a.has_attribute(attr))
                    .unwrap_or(false)
            });
            if !occurs_left {
                continue;
            }
            let d_right = self
                .tables
                .get(relation)
                .and_then(|s| s.distinct.get(attr))
                .copied()
                .unwrap_or(1);
            let d_left = left_tables
                .iter()
                .filter_map(|t| self.tables.get(t).and_then(|s| s.distinct.get(attr)))
                .copied()
                .max()
                .unwrap_or(1);
            result /= d_left.max(d_right).max(1) as f64;
        }
        result
    }
}

/// Number of distinct non-null constants a predicate probes: 1 for scalar
/// operators, the length of [`Predicate::is_in`]'s normalized list for `IN`
/// (its empty list is the one member NULL).
fn in_list_len(predicate: &Predicate) -> usize {
    match predicate.op {
        CompareOp::In => predicate.constants().filter(|c| !c.is_null()).count(),
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_exec::fixtures::fig1_catalog;
    use pdb_query::cq::intro_query_q;

    #[test]
    fn collects_cardinalities_and_distinct_counts() {
        let catalog = fig1_catalog();
        let q = intro_query_q();
        let stats = Statistics::collect(&q, &catalog).unwrap();
        assert_eq!(stats.table("Cust").unwrap().cardinality, 4);
        assert_eq!(stats.table("Ord").unwrap().cardinality, 6);
        assert_eq!(stats.table("Ord").unwrap().distinct["ckey"], 3);
        assert!(stats.table("Missing").is_none());
    }

    #[test]
    fn equality_predicates_are_selective() {
        let catalog = fig1_catalog();
        let q = intro_query_q();
        let stats = Statistics::collect(&q, &catalog).unwrap();
        // cname = 'Joe' keeps 1 of 4 distinct names.
        let sel = stats.predicate_selectivity(&q.predicates[0]);
        assert!((sel - 0.25).abs() < 1e-12);
        // discount > 0 uses the 1/3 default.
        let sel = stats.predicate_selectivity(&q.predicates[1]);
        assert!((sel - 1.0 / 3.0).abs() < 1e-12);
        assert!((stats.filtered_cardinality(&q, "Cust") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn join_cardinality_uses_containment() {
        let catalog = fig1_catalog();
        let q = intro_query_q();
        let stats = Statistics::collect(&q, &catalog).unwrap();
        // Cust (1 filtered tuple) ⋈ Ord on ckey: 1 * 6 / max(4, 3) = 1.5.
        let est = stats.join_cardinality(&q, &["Cust".to_string()], 1.0, "Ord");
        assert!(est > 0.0 && est < 6.0);
        // Joining with an unrelated table degenerates to a cross product.
        let est_missing = stats.join_cardinality(&q, &["Cust".to_string()], 2.0, "Nope");
        assert_eq!(est_missing, 0.0);
    }

    #[test]
    fn missing_table_errors() {
        let catalog = pdb_storage::Catalog::new();
        let q = intro_query_q();
        assert!(Statistics::collect(&q, &catalog).is_err());
    }

    #[test]
    fn in_selectivity_counts_distinct_non_null_alternatives() {
        let catalog = fig1_catalog();
        let q = intro_query_q();
        let stats = Statistics::collect(&q, &catalog).unwrap();
        // cname ∈ {Joe, Ann} keeps 2 of 4 distinct names; the duplicate and
        // the NULL alternative add nothing.
        let p = Predicate::is_in(
            "Cust",
            "cname",
            [
                pdb_storage::Value::str("Joe"),
                pdb_storage::Value::str("Ann"),
                pdb_storage::Value::str("Joe"),
                pdb_storage::Value::Null,
            ],
        );
        assert!((stats.predicate_selectivity(&p) - 0.5).abs() < 1e-12);
        // Beyond ±2⁵³ the list keeps every spelling a distinct count does.
        let big = 1i64 << 60;
        let spellings = [
            pdb_storage::Value::Int(big - 100),
            pdb_storage::Value::Int(big + 100),
            pdb_storage::Value::Float(big as f64),
        ];
        assert_eq!(
            in_list_len(&Predicate::is_in("Cust", "cname", spellings)),
            3
        );
        // A list longer than the domain caps at 1.
        let p = Predicate::is_in("Cust", "cname", ["a", "b", "c", "d", "e", "f"]);
        assert!((stats.predicate_selectivity(&p) - 1.0).abs() < 1e-12);
        // Row-backed tables collect no chunk hints: no pruning estimate.
        assert!(stats.table("Cust").unwrap().chunk_distinct.is_empty());
        assert!((stats.scan_fraction(&p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chunk_distinct_hints_estimate_pruned_scans() {
        use pdb_query::{ConjunctiveQuery, RelationAtom};
        use pdb_storage::{ColumnarTable, DataType, ProbTable, Schema, Tuple, Value, Variable};
        // A clustered column: each 64-row chunk holds exactly one of the 4
        // distinct groups, so an Eq probe should read ~1/4 of the chunks.
        let schema = Schema::from_pairs(&[("g", DataType::Int)]).unwrap();
        let mut t = ProbTable::new(schema);
        for r in 0..256usize {
            t.insert(
                Tuple::new(vec![Value::Int((r / 64) as i64)]),
                Variable(r as u64),
                0.5,
            )
            .unwrap();
        }
        let col =
            ColumnarTable::from_prob_table_chunked(&t, &pdb_par::Pool::sequential(), 64).unwrap();
        let catalog = pdb_storage::Catalog::new();
        catalog.register_columnar("T", col).unwrap();
        let q = ConjunctiveQuery::new(
            vec![RelationAtom::new("T", &["g"])],
            vec!["g".to_string()],
            vec![Predicate::new("T", "g", CompareOp::Eq, 2i64)],
        )
        .unwrap();
        let stats = Statistics::collect(&q, &catalog).unwrap();
        assert_eq!(stats.table("T").unwrap().chunk_distinct["g"], 1);
        let eq = &q.predicates[0];
        assert!((stats.scan_fraction(eq) - 0.25).abs() < 1e-12);
        // IN over two groups doubles the estimate; ordered operators and
        // unknown tables don't use the hints.
        let p = Predicate::is_in("T", "g", [0i64, 2]);
        assert!((stats.scan_fraction(&p) - 0.5).abs() < 1e-12);
        let p = Predicate::new("T", "g", CompareOp::Lt, 2i64);
        assert!((stats.scan_fraction(&p) - 1.0).abs() < 1e-12);
        // Scan cost scales cardinality by the best pruning fraction.
        assert!((stats.scan_cost(&q, "T") - 64.0).abs() < 1e-12);
    }
}
