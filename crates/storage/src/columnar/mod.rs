//! Columnar base-table storage: typed column vectors, fixed-size row
//! groups, and per-chunk zone maps.
//!
//! A [`ColumnarTable`] stores the same logical relation as a
//! [`crate::table::ProbTable`] — data columns plus one `(variable,
//! probability)` pair per tuple — but laid out **column-major**: each
//! attribute is one dense typed column ([`ColumnData`]) with a null bitmap
//! — integers, dates and dictionary codes, and the variables beside them,
//! [`Packed`] as a base plus the narrowest words that hold the column's
//! range — rows are grouped into fixed-size chunks (row groups), and every
//! `(column, chunk)` pair carries a [`ZoneMap`] (min/max under `Value`'s
//! total order, null count). Selective scans evaluate constant predicates
//! against the zone maps first and skip whole chunks whose value range
//! cannot match, then run tight per-column loops over the survivors — the
//! scan shape the lazy plans of the paper spend most of their relational
//! time in.
//!
//! The data half — schema, columns, zone maps — is a [`ColumnarData`],
//! immutable once built and held behind an `Arc`: tables that annotate the
//! same rows with different variables and probabilities share it.
//!
//! The decode contract is exact: [`ColumnarTable::value`] reproduces the
//! `Value` the row representation stores, variant included (columns whose
//! stored variants are not uniform fall back to [`ColumnData::Mixed`]), so
//! a columnar scan can be — and is, in `pdb-exec` — **bitwise-identical**
//! to the row-at-a-time scan: same values, same lineage, same row order.
//!
//! There are two front doors and one finish. [`ColumnarData::from_columns`]
//! takes whole typed columns — string columns as codes into an unranked
//! dictionary — checks them against the schema and keeps them as the
//! table's storage without a copy; the TPC-H generator builds its tables
//! through it. A [`ColumnarBuilder`] takes rows in pieces of any size
//! ([`ColumnarBuilder::push`]) and scatters their cells into the typed
//! vectors and each string into its column's unranked dictionary. A column
//! that meets a non-canonical variant turns [`ColumnData::Mixed`] by
//! decoding its earlier cells, which the decode contract makes exact.
//! Both end in the same finish, chunk-parallel on [`pdb_par::Pool`]: every
//! string column's dictionary is sorted and its codes re-ranked, every
//! packed column is put in canonical form (see [`Packed`]), then the zone
//! maps are built — typed columns by one statistics kernel over each
//! chunk's cells or words and null words, with no `Value` per cell, `Mixed`
//! columns by [`ZoneMap::build`]. The table depends on its values alone:
//! not on the pool size, the front door, or where the pieces were cut.
//! [`ColumnarTable::from_table`] and [`ColumnarTable::from_prob_table`] are
//! one push of all their rows.

mod column;
mod packed;
mod zone;

pub use column::{ColumnData, NullBitmap};
pub use packed::{Packed, Word, Words};
pub use zone::{
    bloom_key, bloom_key_str, bloom_probe, saturate_bloom, ChunkRepr, ZoneMap, ZoneMapBuilder,
    BLOOM_SATURATION_DISTINCT, BLOOM_WORDS,
};

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use pdb_par::Pool;
use zone::{bool_key, date_key, float_key, typed_zone, KeySet};

use crate::with_words;

use crate::error::{StorageError, StorageResult};
use crate::schema::{DataType, Schema};
use crate::table::{ProbTable, Table};
use crate::tuple::Tuple;
use crate::value::{total_f64_cmp, Value};
use crate::variable::{Probability, Variable};

/// Rows per chunk (row group). A multiple of 64 so chunk boundaries are
/// null-bitmap word boundaries and parallel ingest writes disjoint words.
pub const CHUNK_ROWS: usize = 1024;

/// The data half of a [`ColumnarTable`]: the schema, one [`ColumnData`] per
/// column and the per-chunk zone maps, without the `V`/`P` annotation.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarData {
    schema: Schema,
    len: usize,
    chunk_rows: usize,
    /// One [`ColumnData`] per schema column.
    columns: Vec<ColumnData>,
    /// `zones[c][k]` summarises column `c` over chunk `k`.
    zones: Vec<Vec<ZoneMap>>,
}

impl ColumnarData {
    /// The data schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `r`, decoded exactly as the row representation stores it.
    fn row(&self, r: usize) -> Tuple {
        Tuple::new(self.columns.iter().map(|col| col.value(r)).collect())
    }

    /// The decoded row view: every row, in order, exactly as the row
    /// representation stores it.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(self.schema.clone());
        table.rows_mut().extend((0..self.len).map(|r| self.row(r)));
        table
    }

    /// The typed front door: `columns[c]` becomes column `c`'s storage
    /// without a copy, cut into `chunk_rows`-row chunks, and the zone maps
    /// are built on `pool`. A string column arrives as codes into an
    /// unranked dictionary (its order, repeats and unused entries are
    /// free); it leaves ranked, as every string column is. The value under
    /// a NULL is kept, except a string code, which becomes 0. The result is
    /// `==` to a [`ColumnarBuilder`]'s over the same rows.
    ///
    /// # Errors
    /// Fails on a chunk size that is zero or not a multiple of 64, on a
    /// column count other than the schema's, and on a column that is not
    /// typed storage of its declared type, does not hold as many rows as
    /// the first column, or has a valid row whose code is outside its
    /// dictionary.
    pub fn from_columns(
        schema: Schema,
        chunk_rows: usize,
        columns: Vec<ColumnData>,
        pool: &Pool,
    ) -> StorageResult<ColumnarData> {
        check_chunk_rows(chunk_rows)?;
        if columns.len() != schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: schema.len(),
                actual: columns.len(),
            });
        }
        let len = columns.first().map_or(0, ColumnData::rows);
        for (column, data) in schema.columns().iter().zip(&columns) {
            data.check(column, len)?;
        }
        let data = ColumnarData {
            schema,
            len,
            chunk_rows,
            columns,
            zones: Vec::new(),
        };
        Ok(data.finish(pool))
    }

    /// The finish of both front doors: ranks every string column, then
    /// builds every zone map, chunk-parallel.
    fn finish(mut self, pool: &Pool) -> ColumnarData {
        let chunks: Vec<Range<usize>> = (0..self.len)
            .step_by(self.chunk_rows)
            .map(|start| start..(start + self.chunk_rows).min(self.len))
            .collect();
        let cuts: Vec<usize> = chunks.iter().map(|chunk| chunk.start).collect();
        let keys: Vec<Vec<u64>> = (self.columns.iter_mut())
            .map(|column| match column {
                ColumnData::Str { dict, codes, nulls } => {
                    rank_strings(dict, codes, nulls, &cuts, pool)
                }
                _ => Vec::new(),
            })
            .collect();
        for column in &mut self.columns {
            column.finish();
        }
        let columns = &self.columns;
        let by_chunk = pool.map_ranges(&chunks, |chunk| {
            let mut set = KeySet::default();
            let zone =
                |(column, keys): (_, &Vec<u64>)| chunk_zone(column, keys, chunk.clone(), &mut set);
            columns.iter().zip(&keys).map(zone).collect::<Vec<_>>()
        });
        self.zones = (self.columns.iter())
            .map(|_| Vec::with_capacity(chunks.len()))
            .collect();
        for chunk in by_chunk {
            for (zones, zone) in self.zones.iter_mut().zip(chunk) {
                zones.push(zone);
            }
        }
        self
    }
}

/// A tuple-independent probabilistic relation stored column-major with
/// per-chunk zone maps: shared [`ColumnarData`] and one `(variable,
/// probability)` pair per row. The variables are a [`Packed`] column of
/// their ids, in canonical form.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarTable {
    data: Arc<ColumnarData>,
    vars: Packed,
    probs: Vec<f64>,
}

/// The packed column of the variables' ids.
impl From<Vec<Variable>> for Packed {
    fn from(vars: Vec<Variable>) -> Packed {
        vars.iter().map(|v| v.id() as i64).collect()
    }
}

impl ColumnarTable {
    /// Annotates `data`'s rows: row `r`'s variable is `vars`' row `r` (a
    /// `Vec<Variable>` or the [`Packed`] ids, such as
    /// [`Packed::sequence`]), its probability `probs[r]`. The columns are
    /// shared, not copied.
    ///
    /// # Errors
    /// Fails on a probability outside `(0, 1]`, and on packed ids that
    /// wrap ([`StorageError::WordOutOfFrame`] of column `V`).
    ///
    /// # Panics
    /// If `vars` or `probs` does not hold one entry per row.
    pub fn new(
        data: Arc<ColumnarData>,
        vars: impl Into<Packed>,
        probs: Vec<f64>,
    ) -> StorageResult<ColumnarTable> {
        let mut vars = vars.into();
        assert!(
            vars.len() == data.len && probs.len() == data.len,
            "a (V, P) pair per row"
        );
        if let Some(row) = vars.first_wrapped() {
            let column = "V".to_string();
            return Err(StorageError::WordOutOfFrame { column, row });
        }
        for &p in &probs {
            Probability::new(p)?;
        }
        vars.canonicalize();
        Ok(ColumnarTable { data, vars, probs })
    }

    /// Builds the columns from borrowed rows: one [`ColumnarBuilder::push`]
    /// of every row, finished on `pool`. `vars[r]` and `probs[r]` annotate
    /// row `r`. The result is identical at every pool size.
    ///
    /// # Errors
    /// Fails on a probability outside `(0, 1]`.
    ///
    /// # Panics
    /// If `vars` or `probs` does not hold one entry per row.
    pub fn from_table(
        table: &Table,
        vars: Vec<Variable>,
        probs: Vec<f64>,
        pool: &Pool,
    ) -> StorageResult<ColumnarTable> {
        Self::build(table, vars, probs, pool, CHUNK_ROWS)
    }

    /// [`ColumnarTable::from_table`] over a row-major probabilistic table.
    ///
    /// # Errors
    /// Currently infallible for valid `ProbTable`s; the `Result` reserves
    /// room for stricter ingest validation.
    pub fn from_prob_table(table: &ProbTable, pool: &Pool) -> StorageResult<ColumnarTable> {
        Self::from_prob_table_chunked(table, pool, CHUNK_ROWS)
    }

    /// [`ColumnarTable::from_prob_table`] with an explicit chunk size
    /// (tests use small chunks to exercise many-chunk layouts on few rows).
    ///
    /// # Errors
    /// Fails if `chunk_rows` is zero or not a multiple of 64 (chunk
    /// boundaries must be null-bitmap word boundaries).
    pub fn from_prob_table_chunked(
        table: &ProbTable,
        pool: &Pool,
        chunk_rows: usize,
    ) -> StorageResult<ColumnarTable> {
        let (vars, probs) = (table.vars().to_vec(), table.probs().to_vec());
        Self::build(table.data(), vars, probs, pool, chunk_rows)
    }

    /// One push of all of `table`'s rows.
    fn build(
        table: &Table,
        vars: Vec<Variable>,
        probs: Vec<f64>,
        pool: &Pool,
        chunk_rows: usize,
    ) -> StorageResult<ColumnarTable> {
        let mut builder = ColumnarBuilder::new(table.schema().clone(), chunk_rows, pool)?;
        builder.push(table.rows());
        Self::new(Arc::new(builder.finish()), vars, probs)
    }

    /// The shared data half: schema, columns and zone maps.
    pub fn data(&self) -> &Arc<ColumnarData> {
        &self.data
    }

    /// The data schema (without the `V`/`P` columns).
    pub fn schema(&self) -> &Schema {
        &self.data.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.data.len
    }

    /// Whether the table has no tuples.
    pub fn is_empty(&self) -> bool {
        self.data.len == 0
    }

    /// Rows per chunk.
    pub fn chunk_rows(&self) -> usize {
        self.data.chunk_rows
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.data.len.div_ceil(self.data.chunk_rows)
    }

    /// The row range of chunk `k`.
    pub fn chunk_range(&self, k: usize) -> std::ops::Range<usize> {
        let start = k * self.data.chunk_rows;
        start..(start + self.data.chunk_rows).min(self.data.len)
    }

    /// The typed data of column `c`.
    pub fn column(&self, c: usize) -> &ColumnData {
        &self.data.columns[c]
    }

    /// The zone map of column `c` over chunk `k`.
    pub fn zone(&self, c: usize, k: usize) -> &ZoneMap {
        &self.data.zones[c][k]
    }

    /// The tuple variables' ids, aligned with row indices.
    pub fn vars(&self) -> &Packed {
        &self.vars
    }

    /// Row `r`'s variable.
    pub fn var(&self, r: usize) -> Variable {
        Variable(self.vars.get(r) as u64)
    }

    /// The tuple probabilities, aligned with row indices.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Row `r`'s value in column `c`, decoded exactly as the row
    /// representation stores it.
    #[inline]
    pub fn value(&self, r: usize, c: usize) -> Value {
        self.data.columns[c].value(r)
    }

    /// Number of distinct values in column `name` (NULL counts as one
    /// value), matching the row representation's statistics.
    ///
    /// # Errors
    /// Fails on unknown columns.
    pub fn distinct_count(&self, name: &str) -> StorageResult<usize> {
        let c = self.data.schema.index_of(name)?;
        Ok(self.data.columns[c].distinct_count(self.data.len))
    }

    /// The largest per-chunk distinct-count hint for column `name`. A hint
    /// counts a chunk's distinct bloom keys, which key collisions can only
    /// lower, so this is a lower bound on the most distinct values any
    /// single chunk holds (exact unless a chunk's values share a key).
    /// Planners use it to estimate how many chunks an equality predicate
    /// can skip (a column whose chunks each hold few of the table's
    /// distinct values prunes well).
    ///
    /// # Errors
    /// Fails on unknown columns.
    pub fn max_chunk_distinct(&self, name: &str) -> StorageResult<usize> {
        let c = self.data.schema.index_of(name)?;
        Ok(self.data.zones[c]
            .iter()
            .map(|z| z.distinct as usize)
            .max()
            .unwrap_or(0))
    }

    /// Materialises the row representation (same rows, same variables, same
    /// probabilities, in the same order). Used by the catalog as the
    /// compatibility fallback for consumers that still want
    /// [`ProbTable`]s.
    ///
    /// # Errors
    /// Propagates row validation errors (cannot fail for tables ingested
    /// from a valid `ProbTable`).
    pub fn to_prob_table(&self) -> StorageResult<ProbTable> {
        let mut out = ProbTable::new(self.data.schema.clone());
        for r in 0..self.data.len {
            out.insert(self.data.row(r), self.var(r), self.probs[r])?;
        }
        Ok(out)
    }
}

/// Row ingest: rows arrive in pieces of any size and are scattered into
/// typed columns, each string column's cells into one unranked dictionary
/// of its own copies of the strings; [`ColumnarBuilder::finish`] is
/// [`ColumnarData::from_columns`]'s finish. A column that meets a
/// non-canonical variant turns [`ColumnData::Mixed`] by decoding its
/// earlier cells, which the decode contract makes exact. The result depends
/// on the rows alone — not on the pool size or on where the pieces were cut.
pub struct ColumnarBuilder {
    pool: Pool,
    data: ColumnarData,
    /// Per column, the dictionary index of every string it holds.
    ids: Vec<HashMap<Arc<str>, u32>>,
}

impl ColumnarBuilder {
    /// An empty builder for rows of `schema`, cut into `chunk_rows`-row
    /// chunks and finished on `pool`.
    ///
    /// # Errors
    /// Fails if `chunk_rows` is zero or not a multiple of 64 (chunk
    /// boundaries must be null-bitmap word boundaries).
    pub fn new(schema: Schema, chunk_rows: usize, pool: &Pool) -> StorageResult<ColumnarBuilder> {
        check_chunk_rows(chunk_rows)?;
        let columns = schema
            .columns()
            .iter()
            .map(|col| blank_column(col.data_type))
            .collect();
        Ok(ColumnarBuilder {
            pool: *pool,
            ids: vec![HashMap::new(); schema.len()],
            data: ColumnarData {
                schema,
                len: 0,
                chunk_rows,
                columns,
                zones: Vec::new(),
            },
        })
    }

    /// Appends `rows`.
    ///
    /// # Panics
    /// On a row without one cell per column.
    pub fn push(&mut self, rows: &[Tuple]) {
        let (start, end) = (self.data.len, self.data.len + rows.len());
        for column in &mut self.data.columns {
            column.resize(end);
        }
        for (r, row) in (start..).zip(rows) {
            assert_eq!(row.arity(), self.ids.len(), "a row has one cell per column");
            let columns = self.data.columns.iter_mut().zip(&mut self.ids);
            for ((column, ids), v) in columns.zip(row.values()) {
                scatter(column, ids, r, v);
            }
        }
        self.data.len = end;
    }

    /// Ranks the string columns and builds the zone maps.
    pub fn finish(self) -> ColumnarData {
        self.data.finish(&self.pool)
    }
}

/// Empty typed storage of `data_type`: what the builder fills
/// speculatively, before any cell's variant is known. Packed columns take
/// the widest frame of their type; the finish packs them.
fn blank_column(data_type: DataType) -> ColumnData {
    let nulls = NullBitmap::new(0);
    let frame = |min: i64, max: i64| Packed::with_domain(min, max, 0);
    match data_type {
        DataType::Int => ColumnData::Int {
            values: frame(i64::MIN, i64::MAX),
            nulls,
        },
        DataType::Float => ColumnData::Float {
            values: Vec::new(),
            nulls,
        },
        DataType::Date => ColumnData::Date {
            values: frame(i32::MIN.into(), i32::MAX.into()),
            nulls,
        },
        DataType::Bool => ColumnData::Bool {
            values: Vec::new(),
            nulls,
        },
        DataType::Str => ColumnData::Str {
            dict: Vec::new(),
            codes: frame(0, u32::MAX.into()),
            nulls,
        },
    }
}

/// Writes `v` as row `r` of `column`, whose string `ids` index its
/// dictionary. A non-canonical variant turns a typed column `Mixed`: its
/// rows before `r` are decoded, the rows after it are still to come.
fn scatter(column: &mut ColumnData, ids: &mut HashMap<Arc<str>, u32>, r: usize, v: &Value) {
    match (&mut *column, v) {
        (ColumnData::Mixed { values }, v) => values[r] = v.clone(),
        (typed, Value::Null) => typed.nulls_mut().expect("typed").set_null(r),
        (ColumnData::Int { values, .. }, Value::Int(x)) => values.set(r, *x),
        (ColumnData::Float { values, .. }, Value::Float(x)) => values[r] = *x,
        (ColumnData::Date { values, .. }, Value::Date(x)) => values.set(r, (*x).into()),
        (ColumnData::Bool { values, .. }, Value::Bool(x)) => values[r] = *x,
        (ColumnData::Str { dict, codes, .. }, Value::Str(s)) => {
            let id = match ids.get(&**s) {
                Some(&id) => id,
                None => {
                    let id = dict.len() as u32;
                    dict.push(Arc::from(&**s));
                    ids.insert(Arc::clone(&dict[id as usize]), id);
                    id
                }
            };
            codes.set(r, id.into())
        }
        (typed, v) => {
            let mut values: Vec<Value> = (0..r).map(|row| typed.value(row)).collect();
            values.resize(typed.rows(), Value::Null);
            values[r] = v.clone();
            *typed = ColumnData::Mixed { values };
        }
    }
}

/// Fails unless chunks of `chunk_rows` rows start on null-bitmap words.
fn check_chunk_rows(chunk_rows: usize) -> StorageResult<()> {
    if chunk_rows == 0 || !chunk_rows.is_multiple_of(64) {
        return Err(StorageError::InvalidChunkSize(chunk_rows));
    }
    Ok(())
}

/// The zone map of `column` over `chunk`: the typed kernel, whose string
/// cells are ranks with bloom keys `keys[rank]`, or, for a `Mixed` column,
/// the definition.
fn chunk_zone<'a>(
    column: &'a ColumnData,
    keys: &[u64],
    chunk: Range<usize>,
    set: &mut KeySet,
) -> ZoneMap {
    let words = |bitmap: &'a NullBitmap| &bitmap.words()[chunk.start / 64..chunk.end.div_ceil(64)];
    let rows = chunk.clone();
    match column {
        ColumnData::Int { values, nulls } => {
            let key = |x: i64| float_key(x as f64);
            packed_zone(values, words(nulls), rows, key, Value::Int, set)
        }
        ColumnData::Float { values, nulls } => {
            let (cells, cmp) = (&values[rows], |a: &f64, b: &f64| total_f64_cmp(*a, *b));
            typed_zone(cells, words(nulls), float_key, cmp, Value::Float, set)
        }
        ColumnData::Date { values, nulls } => {
            let (key, value) = (|d: i64| date_key(d as i32), |d: i64| Value::Date(d as i32));
            packed_zone(values, words(nulls), rows, key, value, set)
        }
        ColumnData::Bool { values, nulls } => {
            let cells = &values[rows];
            typed_zone(cells, words(nulls), bool_key, Ord::cmp, Value::Bool, set)
        }
        ColumnData::Str { dict, codes, nulls } => {
            let key = |r: i64| keys[r as usize];
            let value = |r: i64| Value::Str(dict[r as usize].clone());
            packed_zone(codes, words(nulls), rows, key, value, set)
        }
        ColumnData::Mixed { values } => ZoneMap::build(values[rows].iter()),
    }
}

/// [`typed_zone`] over the words of a packed column's `rows`, the width
/// matched once: words order like the values they hold, and a valid word
/// `x` decodes to `base + x`, with key `key` and value `value` of that.
fn packed_zone(
    packed: &Packed,
    nulls: &[u64],
    rows: Range<usize>,
    key: impl Fn(i64) -> u64,
    value: impl Fn(i64) -> Value,
    set: &mut KeySet,
) -> ZoneMap {
    let base = packed.base();
    let at = |x: u64| base.wrapping_add(x as i64);
    let (key, value) = (|x: u64| key(at(x)), |x: u64| value(at(x)));
    with_words!(packed.words(), w => {
        typed_zone(&w[rows], nulls, |x| key(x.offset()), Ord::cmp, |x| value(x.offset()), set)
    })
}

/// Ranks string column `(dict, codes, nulls)` in place: `dict` becomes the
/// sorted distinct strings the valid rows use, and each code the rank of
/// its string — independent of the dictionary's order, so of how it was
/// built. NULL rows get code 0. The codes keep their width — a rank is
/// below the count of distinct codes in use, which the width holds — and
/// their base becomes 0. Returns each rank's [`bloom_key_str`], so every
/// distinct string is hashed once.
fn rank_strings(
    dict: &mut Vec<Arc<str>>,
    codes: &mut Packed,
    nulls: &NullBitmap,
    cuts: &[usize],
    pool: &Pool,
) -> Vec<u64> {
    let (base, words) = codes.parts_mut();
    let id = |x: u64| base.wrapping_add(x as i64) as usize;
    let mut used = vec![false; dict.len()];
    with_words!(&*words, w => {
        for (r, x) in w.iter().enumerate() {
            if !nulls.is_null(r) {
                used[id(x.offset())] = true;
            }
        }
    });
    let mut ids: Vec<usize> = (0..dict.len()).filter(|&id| used[id]).collect();
    ids.sort_unstable_by(|&a, &b| dict[a].cmp(&dict[b]));
    let mut ranks = vec![0u32; dict.len()];
    let mut sorted: Vec<Arc<str>> = Vec::with_capacity(ids.len());
    for id in ids {
        if sorted.last() != Some(&dict[id]) {
            sorted.push(Arc::clone(&dict[id]));
        }
        ranks[id] = sorted.len() as u32 - 1;
    }
    *dict = sorted;
    with_words!(words, w => pool.map_slices_mut(w, cuts, |k, codes| {
        for (r, x) in (cuts[k]..).zip(codes) {
            let rank = if nulls.is_null(r) { 0 } else { ranks[id(x.offset())] };
            *x = Word::of(rank.into());
        }
    }));
    *base = 0;
    dict.iter().map(|s| bloom_key_str(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::variable::Variable;

    fn mixed_table(rows: usize) -> ProbTable {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("name", DataType::Str),
            ("price", DataType::Float),
            ("d", DataType::Date),
        ])
        .unwrap();
        let names = ["Joe", "Li", "Mo", "Ann"];
        let mut t = ProbTable::new(schema);
        for r in 0..rows {
            let name = if r % 7 == 3 {
                Value::Null
            } else {
                Value::str(names[r % names.len()])
            };
            let price = if r % 5 == 0 {
                Value::Null
            } else {
                Value::Float((r % 13) as f64 / 4.0)
            };
            t.insert(
                Tuple::new(vec![
                    Value::Int(r as i64),
                    name,
                    price,
                    Value::Date((r % 31) as i32),
                ]),
                Variable(r as u64),
                0.25 + (r % 3) as f64 / 8.0,
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn ingest_round_trips_every_value() {
        let table = mixed_table(300);
        for threads in [1, 2, 4, 8] {
            let col =
                ColumnarTable::from_prob_table_chunked(&table, &Pool::new(threads), 64).unwrap();
            assert_eq!(col.len(), 300);
            assert_eq!(col.num_chunks(), 300usize.div_ceil(64));
            for r in 0..300 {
                for c in 0..4 {
                    assert_eq!(
                        col.value(r, c),
                        *table.rows()[r].value(c),
                        "row {r} col {c} at {threads} threads"
                    );
                }
            }
            assert_eq!(col.vars(), &Packed::from(table.vars().to_vec()));
            assert_eq!(col.probs(), table.probs());
        }
    }

    #[test]
    fn ingest_is_identical_at_every_thread_count() {
        let table = mixed_table(500);
        let reference =
            ColumnarTable::from_prob_table_chunked(&table, &Pool::sequential(), 128).unwrap();
        for threads in [2, 4, 8] {
            let col =
                ColumnarTable::from_prob_table_chunked(&table, &Pool::new(threads), 128).unwrap();
            assert_eq!(col, reference, "{threads} threads");
        }
    }

    #[test]
    fn zone_maps_bound_each_chunk() {
        let table = mixed_table(200);
        let col = ColumnarTable::from_prob_table_chunked(&table, &Pool::sequential(), 64).unwrap();
        // Column 0 is the ascending row index: chunk k spans [64k, 64(k+1)).
        let z = col.zone(0, 1);
        assert_eq!(z.min, Some(Value::Int(64)));
        assert_eq!(z.max, Some(Value::Int(127)));
        assert_eq!(z.null_count, 0);
        // The nullable float column records its null count.
        let z = col.zone(2, 0);
        assert_eq!(z.null_count, (0..64).filter(|r| r % 5 == 0).count());
        assert_eq!(z.rows, 64);
    }

    #[test]
    fn string_dictionary_is_sorted_and_codes_are_ranks() {
        let table = mixed_table(100);
        let col = ColumnarTable::from_prob_table_chunked(&table, &Pool::new(4), 64).unwrap();
        let ColumnData::Str { dict, codes, nulls } = col.column(1) else {
            panic!("name column should be dictionary-encoded");
        };
        assert!(dict.windows(2).all(|w| w[0] < w[1]), "dictionary sorted");
        for r in 0..100 {
            if !nulls.is_null(r) {
                assert_eq!(
                    Value::Str(dict[codes.get(r) as usize].clone()),
                    *table.rows()[r].value(1)
                );
            }
        }
    }

    #[test]
    fn non_canonical_variants_fall_back_to_mixed() {
        // Ints stored in a FLOAT column are legal; decoding must reproduce
        // Value::Int, so the column cannot be stored as Vec<f64>.
        let schema = Schema::from_pairs(&[("x", DataType::Float)]).unwrap();
        let mut t = ProbTable::new(schema);
        t.insert(tuple![1.5f64], Variable(0), 0.5).unwrap();
        t.insert(Tuple::new(vec![Value::Int(2)]), Variable(1), 0.5)
            .unwrap();
        let col = ColumnarTable::from_prob_table_chunked(&t, &Pool::sequential(), 64).unwrap();
        assert!(matches!(col.column(0), ColumnData::Mixed { .. }));
        assert_eq!(col.value(0, 0), Value::Float(1.5));
        assert_eq!(col.value(1, 0), Value::Int(2));
        // Zone bounds still follow Value's total order.
        assert_eq!(col.zone(0, 0).min, Some(Value::Float(1.5)));
        assert_eq!(col.zone(0, 0).max, Some(Value::Int(2)));
    }

    #[test]
    fn to_prob_table_round_trips() {
        let table = mixed_table(150);
        let col = ColumnarTable::from_prob_table_chunked(&table, &Pool::new(2), 64).unwrap();
        let back = col.to_prob_table().unwrap();
        assert_eq!(&back, &table);
    }

    #[test]
    fn distinct_counts_match_the_row_representation() {
        let table = mixed_table(200);
        let col = ColumnarTable::from_prob_table_chunked(&table, &Pool::new(4), 64).unwrap();
        for name in ["k", "name", "price", "d"] {
            let row_count = table.data().distinct_values(name).unwrap().len();
            assert_eq!(
                col.distinct_count(name).unwrap(),
                row_count,
                "column {name}"
            );
        }
        assert!(col.distinct_count("missing").is_err());
    }

    #[test]
    fn chunk_bloom_and_distinct_hints_cover_every_representation() {
        let table = mixed_table(200);
        let col = ColumnarTable::from_prob_table_chunked(&table, &Pool::new(4), 64).unwrap();
        for c in 0..4 {
            for k in 0..col.num_chunks() {
                let z = col.zone(c, k);
                // No false negatives: every stored value probes positive.
                for r in col.chunk_range(k) {
                    let v = col.value(r, c);
                    if !v.is_null() {
                        assert!(z.may_contain(&v), "col {c} chunk {k} row {r}");
                    }
                }
                assert!(z.distinct as usize <= z.rows - z.null_count);
            }
        }
        // The name column holds 4 distinct strings; chunks cannot exceed it.
        assert!(col.max_chunk_distinct("name").unwrap() <= 4);
        // The ascending int column is unique: chunks hold chunk_rows values.
        assert_eq!(col.max_chunk_distinct("k").unwrap(), 64);
        assert!(col.max_chunk_distinct("missing").is_err());
    }

    #[test]
    fn chunk_repr_tags_follow_the_stored_variants() {
        let table = mixed_table(100);
        let col = ColumnarTable::from_prob_table_chunked(&table, &Pool::sequential(), 64).unwrap();
        assert_eq!(col.zone(0, 0).repr, ChunkRepr::Int);
        assert_eq!(col.zone(1, 0).repr, ChunkRepr::Str);
        assert_eq!(col.zone(2, 0).repr, ChunkRepr::Float);
        assert_eq!(col.zone(3, 0).repr, ChunkRepr::Date);
        // A Mixed column with a uniformly-Float chunk gets tagged Float.
        let schema = Schema::from_pairs(&[("x", DataType::Float)]).unwrap();
        let mut t = ProbTable::new(schema);
        for r in 0..65 {
            let v = if r == 64 {
                Value::Int(7)
            } else {
                Value::Float(r as f64)
            };
            t.insert(Tuple::new(vec![v]), Variable(r as u64), 0.5)
                .unwrap();
        }
        let col = ColumnarTable::from_prob_table_chunked(&t, &Pool::sequential(), 64).unwrap();
        assert!(matches!(col.column(0), ColumnData::Mixed { .. }));
        assert_eq!(col.zone(0, 0).repr, ChunkRepr::Float);
        assert_eq!(col.zone(0, 1).repr, ChunkRepr::Int);
    }

    #[test]
    fn packed_columns_round_trip_extreme_dates_dictionaries_and_nulls() {
        let schema = Schema::from_pairs(&[
            ("d", DataType::Date),
            ("k", DataType::Int),
            ("s1", DataType::Str),
            ("s256", DataType::Str),
            ("s257", DataType::Str),
        ])
        .unwrap();
        let rows: Vec<Tuple> = (0..300)
            .map(|r: i64| {
                let day = [i32::MIN, i32::MAX, 0][r as usize % 3];
                // The NULL cell holds 0 under it, so `k` spans 0..=1_299.
                let k = if r == 7 {
                    Value::Null
                } else {
                    Value::Int(1_000 + r)
                };
                let s = |n: i64| Value::str(format!("s{:03}", r % n));
                Tuple::new(vec![Value::Date(day), k, s(1), s(256), s(257)])
            })
            .collect();
        let mut builder = ColumnarBuilder::new(schema.clone(), 64, &Pool::new(2)).unwrap();
        builder.push(&rows);
        let data = builder.finish();
        assert_eq!(data.to_table().rows(), rows.as_slice());
        let widths: Vec<usize> = (data.columns.iter())
            .map(|c| c.packed().unwrap().width())
            .collect();
        assert_eq!(widths, [4, 2, 1, 1, 2]);
        let packed = |c: usize| data.columns[c].packed().unwrap();
        assert_eq!((packed(0).base(), packed(1).base()), (i32::MIN.into(), 0));
        // The typed door keeps the same values in the same packed form.
        let columns = data.columns.clone();
        let typed = ColumnarData::from_columns(schema, 64, columns, &Pool::sequential()).unwrap();
        assert_eq!(typed, data);
    }

    #[test]
    fn invalid_chunk_sizes_are_rejected() {
        let table = mixed_table(10);
        for bad in [0, 63, 100] {
            assert!(matches!(
                ColumnarTable::from_prob_table_chunked(&table, &Pool::sequential(), bad),
                Err(StorageError::InvalidChunkSize(_))
            ));
        }
    }

    #[test]
    fn empty_table_ingests() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
        let t = ProbTable::new(schema);
        let col = ColumnarTable::from_prob_table(&t, &Pool::new(4)).unwrap();
        assert!(col.is_empty());
        assert_eq!(col.num_chunks(), 0);
        assert_eq!(col.to_prob_table().unwrap().len(), 0);
    }
}

#[cfg(test)]
mod ingest_prop;
