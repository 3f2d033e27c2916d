//! Per-table optimizer statistics.
//!
//! A host engine keeps the numbers its cost-based optimizer reads in the
//! catalog, next to the table they describe. [`TableStats`] is that record;
//! [`crate::Catalog::table_stats`] computes it on a table's first use by a
//! planner, once, into a cell of the table's catalog entry, which a
//! replaced table does not inherit.

use std::collections::BTreeMap;

use crate::catalog::StorageBacking;
use crate::error::StorageResult;
use crate::value::{sort_distinct, Value};

/// Statistics of one table: cardinality and per-column distinct counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableStats {
    /// Number of tuples.
    pub cardinality: usize,
    /// Distinct values per column, NULL counted as one value — the same
    /// count on either backing, in the order and with the duplicates of an
    /// `IN` list ([`sort_distinct`]), so the two compare like for like.
    pub distinct: BTreeMap<String, usize>,
    /// Largest per-chunk distinct-count hint per column, from the columnar
    /// zone statistics (absent for row-backed tables): a lower bound on the
    /// most distinct values one chunk holds, as bloom-key collisions can
    /// only lower a hint. A column whose chunks each hold few distinct
    /// values clusters well: an `Eq`/`In` probe touches roughly
    /// `chunk_distinct / distinct` of its chunks after zone pruning.
    pub chunk_distinct: BTreeMap<String, usize>,
}

impl TableStats {
    /// Walks every column of `table` once. Columnar tables answer from
    /// their typed columns (dictionary sizes for strings) without
    /// materialising a row view.
    pub(crate) fn compute(table: &StorageBacking) -> StorageResult<TableStats> {
        let mut stats = TableStats {
            cardinality: table.len(),
            ..TableStats::default()
        };
        for (c, name) in table.schema().names().into_iter().enumerate() {
            let distinct = match table {
                StorageBacking::Row(t) => {
                    let mut values: Vec<&Value> =
                        t.data().rows().iter().map(|row| row.value(c)).collect();
                    sort_distinct(&mut values);
                    values.len()
                }
                StorageBacking::Columnar(t) => {
                    stats
                        .chunk_distinct
                        .insert(name.to_string(), t.max_chunk_distinct(name)?);
                    t.distinct_count(name)?
                }
            };
            stats.distinct.insert(name.to_string(), distinct);
        }
        Ok(stats)
    }
}
