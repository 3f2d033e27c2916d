//! The catalog: a named collection of tuple-independent probabilistic tables
//! plus schema-level metadata (keys and functional dependencies).
//!
//! Functional dependencies are central to the paper (Section IV): they hold
//! in a tuple-independent probabilistic database iff they hold in every
//! possible world, and they are what makes several non-hierarchical TPC-H
//! queries tractable. The catalog records them as plain attribute-name
//! declarations; the query crate interprets them.
//!
//! The catalog also owns the one thing that is derived from a table and
//! costs a pass over it: the optimizer statistics ([`TableStats`]), held in a
//! once-cell of the table's entry, filled on first use and gone with the
//! entry when the table is replaced. It owns no row view of
//! a columnar table: [`Catalog::table`] is a conversion, made on every call
//! with no lock held — read [`Catalog::backing`] for a table's `len()` or
//! `schema()`.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::columnar::ColumnarTable;
use crate::error::{StorageError, StorageResult};
use crate::schema::Schema;
use crate::stats::TableStats;
use crate::table::ProbTable;

/// The physical representation a catalog entry is stored in.
///
/// Exec-layer scans dispatch on this: row backings run the row-at-a-time
/// operators, columnar backings run the vectorized fused scan with zone-map
/// chunk skipping. Both decode to identical `Value`s, so query results are
/// bitwise-identical across representations.
#[derive(Debug, Clone)]
pub enum StorageBacking {
    /// Row-major storage (the seed representation, and the A/B control).
    Row(Arc<ProbTable>),
    /// Column-major storage with per-chunk zone maps.
    Columnar(Arc<ColumnarTable>),
}

impl StorageBacking {
    /// The data schema.
    pub fn schema(&self) -> &Schema {
        match self {
            StorageBacking::Row(t) => t.schema(),
            StorageBacking::Columnar(t) => t.schema(),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        match self {
            StorageBacking::Row(t) => t.len(),
            StorageBacking::Columnar(t) => t.len(),
        }
    }

    /// Whether the table has no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One registered table: its backing and the once-cell of its optimizer
/// statistics. Replacing the table registers a new entry, so the cell always
/// describes the backing beside it.
#[derive(Debug)]
struct TableEntry {
    backing: StorageBacking,
    stats: OnceLock<StorageResult<Arc<TableStats>>>,
}

impl TableEntry {
    fn new(backing: StorageBacking) -> Arc<TableEntry> {
        Arc::new(TableEntry {
            backing,
            stats: OnceLock::new(),
        })
    }

    /// The statistics of the backing, computed by the first caller while the
    /// others wait for it.
    fn stats(&self) -> StorageResult<Arc<TableStats>> {
        (self.stats)
            .get_or_init(|| TableStats::compute(&self.backing).map(Arc::new))
            .clone()
    }
}

/// A declared functional dependency `table: lhs → rhs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdDecl {
    /// Table the dependency belongs to.
    pub table: String,
    /// Determinant attributes.
    pub lhs: Vec<String>,
    /// Dependent attributes.
    pub rhs: Vec<String>,
}

/// A named collection of probabilistic tables and their metadata.
///
/// The catalog is internally synchronised so it can be shared between the
/// planner and the executor; reads are cheap (`Arc`-cloned table handles).
#[derive(Debug, Default)]
pub struct Catalog {
    inner: RwLock<CatalogInner>,
}

#[derive(Debug, Default)]
struct CatalogInner {
    tables: BTreeMap<String, Arc<TableEntry>>,
    keys: BTreeMap<String, Vec<String>>,
    fds: Vec<FdDecl>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a row-major table under `name`.
    ///
    /// # Errors
    /// Returns [`StorageError::DuplicateTable`] if the name is taken.
    pub fn register_table(&self, name: impl Into<String>, table: ProbTable) -> StorageResult<()> {
        self.register_backing(name, StorageBacking::Row(Arc::new(table)))
    }

    /// Registers a columnar table under `name`.
    ///
    /// # Errors
    /// Returns [`StorageError::DuplicateTable`] if the name is taken.
    pub fn register_columnar(
        &self,
        name: impl Into<String>,
        table: ColumnarTable,
    ) -> StorageResult<()> {
        self.register_backing(name, StorageBacking::Columnar(Arc::new(table)))
    }

    /// Registers a table under `name` in either representation.
    ///
    /// # Errors
    /// Returns [`StorageError::DuplicateTable`] if the name is taken.
    pub fn register_backing(
        &self,
        name: impl Into<String>,
        backing: StorageBacking,
    ) -> StorageResult<()> {
        let name = name.into();
        let mut inner = self.inner.write();
        if inner.tables.contains_key(&name) {
            return Err(StorageError::DuplicateTable(name));
        }
        inner.tables.insert(name, TableEntry::new(backing));
        Ok(())
    }

    /// Replaces (or inserts) a row-major table under `name`.
    pub fn replace_table(&self, name: impl Into<String>, table: ProbTable) {
        let entry = TableEntry::new(StorageBacking::Row(Arc::new(table)));
        self.inner.write().tables.insert(name.into(), entry);
    }

    /// The entry registered under `name`.
    fn entry(&self, name: &str) -> StorageResult<Arc<TableEntry>> {
        (self.inner.read().tables.get(name).cloned())
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// The storage backing registered under `name` — the representation
    /// scans dispatch on.
    ///
    /// # Errors
    /// Returns [`StorageError::UnknownTable`] if no such table exists.
    pub fn backing(&self, name: &str) -> StorageResult<StorageBacking> {
        Ok(self.entry(name)?.backing.clone())
    }

    /// The table registered under `name` as a row-major [`ProbTable`]. A
    /// row backing returns its table; a columnar backing is *converted* —
    /// a full copy on every call, made after the read lock is released and
    /// not cached. Nothing in the engine executes on the result; it is the
    /// ingest/inspection format, so ask [`Catalog::backing`] for `len()` or
    /// `schema()`.
    ///
    /// # Errors
    /// Returns [`StorageError::UnknownTable`] if no such table exists.
    pub fn table(&self, name: &str) -> StorageResult<Arc<ProbTable>> {
        match self.backing(name)? {
            StorageBacking::Row(t) => Ok(t),
            StorageBacking::Columnar(c) => Ok(Arc::new(c.to_prob_table()?)),
        }
    }

    /// The optimizer statistics of the table registered under `name`:
    /// computed on the first call, shared by every later one, and gone with
    /// the table when [`Catalog::replace_table`] replaces it. Tables no
    /// planner asks about never pay the column walks. The walks run with no
    /// catalog lock held, so queries on other tables plan and scan meanwhile;
    /// first uses racing on one table compute once and share the result.
    ///
    /// # Errors
    /// Returns [`StorageError::UnknownTable`] if no such table exists.
    pub fn table_stats(&self, name: &str) -> StorageResult<Arc<TableStats>> {
        self.entry(name)?.stats()
    }

    /// All registered table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.inner.read().tables.keys().cloned().collect()
    }

    /// Declares `attrs` to be a key of `table`. A key `K` of table `R(A)` is
    /// recorded as the functional dependency `R: K → A` by consumers.
    ///
    /// # Errors
    /// Returns [`StorageError::UnknownTable`] if the table is not registered,
    /// or [`StorageError::UnknownColumn`] if an attribute is not in its schema.
    pub fn declare_key(&self, table: &str, attrs: &[&str]) -> StorageResult<()> {
        let t = self.backing(table)?;
        for a in attrs {
            if !t.schema().contains(a) {
                return Err(StorageError::UnknownColumn((*a).to_string()));
            }
        }
        self.inner.write().keys.insert(
            table.to_string(),
            attrs.iter().map(|s| s.to_string()).collect(),
        );
        Ok(())
    }

    /// The declared key of `table`, if any.
    pub fn key_of(&self, table: &str) -> Option<Vec<String>> {
        self.inner.read().keys.get(table).cloned()
    }

    /// Declares a functional dependency `table: lhs → rhs`.
    ///
    /// # Errors
    /// Returns [`StorageError::UnknownTable`] / [`StorageError::UnknownColumn`]
    /// for dangling references.
    pub fn declare_fd(&self, table: &str, lhs: &[&str], rhs: &[&str]) -> StorageResult<()> {
        let t = self.backing(table)?;
        for a in lhs.iter().chain(rhs.iter()) {
            if !t.schema().contains(a) {
                return Err(StorageError::UnknownColumn((*a).to_string()));
            }
        }
        self.inner.write().fds.push(FdDecl {
            table: table.to_string(),
            lhs: lhs.iter().map(|s| s.to_string()).collect(),
            rhs: rhs.iter().map(|s| s.to_string()).collect(),
        });
        Ok(())
    }

    /// All declared functional dependencies, including those implied by key
    /// declarations (`K → all attributes of the table`).
    pub fn fds(&self) -> Vec<FdDecl> {
        let inner = self.inner.read();
        let mut out = inner.fds.clone();
        for (table, key) in &inner.keys {
            if let Some(t) = inner.tables.get(table) {
                let rhs: Vec<String> = (t.backing.schema())
                    .names()
                    .into_iter()
                    .map(|s| s.to_string())
                    .filter(|a| !key.contains(a))
                    .collect();
                if !rhs.is_empty() {
                    out.push(FdDecl {
                        table: table.clone(),
                        lhs: key.clone(),
                        rhs,
                    });
                }
            }
        }
        out
    }

    /// Total number of tuples across all registered tables.
    pub fn total_tuples(&self) -> usize {
        self.inner
            .read()
            .tables
            .values()
            .map(|t| t.backing.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};
    use crate::tuple;
    use crate::variable::Variable;

    fn small_table() -> ProbTable {
        let schema =
            Schema::from_pairs(&[("ckey", DataType::Int), ("cname", DataType::Str)]).unwrap();
        let mut t = ProbTable::new(schema);
        t.insert(tuple![1i64, "Joe"], Variable(0), 0.1).unwrap();
        t.insert(tuple![2i64, "Dan"], Variable(1), 0.2).unwrap();
        t
    }

    #[test]
    fn register_and_fetch() {
        let c = Catalog::new();
        c.register_table("Cust", small_table()).unwrap();
        assert_eq!(c.table("Cust").unwrap().len(), 2);
        assert!(matches!(
            c.table("Nope"),
            Err(StorageError::UnknownTable(_))
        ));
        assert_eq!(c.table_names(), vec!["Cust".to_string()]);
        assert_eq!(c.total_tuples(), 2);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let c = Catalog::new();
        c.register_table("Cust", small_table()).unwrap();
        assert!(matches!(
            c.register_table("Cust", small_table()),
            Err(StorageError::DuplicateTable(_))
        ));
        // replace_table silently overwrites.
        c.replace_table("Cust", small_table());
        assert_eq!(c.table_names().len(), 1);
    }

    #[test]
    fn key_declaration_validates_columns() {
        let c = Catalog::new();
        c.register_table("Cust", small_table()).unwrap();
        c.declare_key("Cust", &["ckey"]).unwrap();
        assert_eq!(c.key_of("Cust").unwrap(), vec!["ckey".to_string()]);
        assert!(c.declare_key("Cust", &["nope"]).is_err());
        assert!(c.declare_key("Missing", &["ckey"]).is_err());
    }

    #[test]
    fn keys_imply_fds() {
        let c = Catalog::new();
        c.register_table("Cust", small_table()).unwrap();
        c.declare_key("Cust", &["ckey"]).unwrap();
        let fds = c.fds();
        assert_eq!(fds.len(), 1);
        assert_eq!(fds[0].lhs, vec!["ckey".to_string()]);
        assert_eq!(fds[0].rhs, vec!["cname".to_string()]);
    }

    #[test]
    fn columnar_backings_register_and_convert_to_row_tables() {
        let c = Catalog::new();
        let row = small_table();
        let columnar = ColumnarTable::from_prob_table(&row, &pdb_par::Pool::sequential()).unwrap();
        c.register_columnar("Cust", columnar).unwrap();
        assert!(matches!(
            c.backing("Cust").unwrap(),
            StorageBacking::Columnar(_)
        ));
        assert_eq!(c.backing("Cust").unwrap().len(), 2);
        assert_eq!(c.table_stats("Cust").unwrap().distinct["cname"], 2);
        assert_eq!(c.total_tuples(), 2);
        // `table()` converts to the identical row table.
        assert_eq!(&*c.table("Cust").unwrap(), &row);
        // Keys and FDs declare against columnar backings too.
        c.declare_key("Cust", &["ckey"]).unwrap();
        assert_eq!(c.fds().len(), 1);
        // Duplicate names are rejected across representations.
        assert!(matches!(
            c.register_table("Cust", small_table()),
            Err(StorageError::DuplicateTable(_))
        ));
        // Nothing of the old table outlives its replacement.
        let mut bigger = small_table();
        bigger
            .insert(tuple![3i64, "Joe"], Variable(2), 0.3)
            .unwrap();
        c.replace_table("Cust", bigger.clone());
        assert_eq!(&*c.table("Cust").unwrap(), &bigger);
    }

    #[test]
    fn table_stats_are_memoized_until_the_table_is_replaced() {
        let c = Catalog::new();
        c.register_table("Cust", small_table()).unwrap();
        let first = c.table_stats("Cust").unwrap();
        assert_eq!(first.cardinality, 2);
        assert_eq!(first.distinct["ckey"], 2);
        assert!(first.chunk_distinct.is_empty());
        assert!(Arc::ptr_eq(&first, &c.table_stats("Cust").unwrap()));

        let mut bigger = small_table();
        bigger
            .insert(tuple![3i64, "Joe"], Variable(2), 0.3)
            .unwrap();
        c.replace_table("Cust", bigger);
        let second = c.table_stats("Cust").unwrap();
        assert_eq!(second.cardinality, 3);
        assert_eq!(second.distinct["ckey"], 3);
        assert_eq!(second.distinct["cname"], 2);
        assert!(Arc::ptr_eq(&second, &c.table_stats("Cust").unwrap()));

        assert!(matches!(
            c.table_stats("Nope"),
            Err(StorageError::UnknownTable(_))
        ));
    }

    #[test]
    fn stats_of_a_replaced_table_are_not_cached_under_its_name() {
        // The interleaving a racing `replace_table` produces, step by step:
        // a first use takes the entry, the table is replaced, then the first
        // use computes.
        let c = Catalog::new();
        c.register_table("Cust", small_table()).unwrap();
        let old = c.entry("Cust").unwrap();
        let mut bigger = small_table();
        bigger
            .insert(tuple![3i64, "Ann"], Variable(2), 0.3)
            .unwrap();
        c.replace_table("Cust", bigger);
        assert_eq!(old.stats().unwrap().cardinality, 2);
        assert_eq!(c.table_stats("Cust").unwrap().cardinality, 3);
    }

    #[test]
    fn explicit_fd_declaration() {
        let c = Catalog::new();
        c.register_table("Cust", small_table()).unwrap();
        c.declare_fd("Cust", &["ckey"], &["cname"]).unwrap();
        assert_eq!(c.fds().len(), 1);
        assert!(c.declare_fd("Cust", &["ckey"], &["zzz"]).is_err());
    }
}
