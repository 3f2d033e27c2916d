//! Columnar base-table storage: typed column vectors, fixed-size row
//! groups, and per-chunk zone maps.
//!
//! A [`ColumnarTable`] stores the same logical relation as a
//! [`crate::table::ProbTable`] — data columns plus one `(variable,
//! probability)` pair per tuple — but laid out **column-major**: each
//! attribute is one dense typed vector ([`ColumnData`]) with a null bitmap,
//! rows are grouped into fixed-size chunks (row groups), and every
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
//! Ingest is incremental: a [`ColumnarBuilder`] takes rows in pieces of any
//! size ([`ColumnarBuilder::push`]) and sweeps each chunk once it is whole,
//! chunk-parallel on [`pdb_par::Pool`]: one row-major sweep per chunk writes
//! every column's cells into the chunk's window of the typed vectors, builds
//! the zone maps and interns strings to chunk-local ids. A column that meets
//! a non-canonical variant in a later piece turns [`ColumnData::Mixed`] by
//! decoding its earlier cells, which the decode contract makes exact.
//! [`ColumnarBuilder::finish`] merges and sorts the chunk dictionaries and
//! re-ranks the ids, so the table is the same at every thread count and
//! however its rows were cut into pieces. [`ColumnarTable::from_table`] and
//! [`ColumnarTable::from_prob_table`] are one push of all their rows.

mod column;
mod zone;

pub use column::{ColumnData, NullBitmap};
pub use zone::{
    bloom_key, bloom_key_str, bloom_probe, saturate_bloom, ChunkRepr, ZoneMap, ZoneMapBuilder,
    BLOOM_SATURATION_DISTINCT, BLOOM_WORDS,
};

use std::collections::HashMap;
use std::iter::once;
use std::sync::Arc;

use pdb_par::Pool;

use crate::error::{StorageError, StorageResult};
use crate::schema::{DataType, Schema};
use crate::table::{ProbTable, Table};
use crate::tuple::Tuple;
use crate::value::Value;
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
}

/// A tuple-independent probabilistic relation stored column-major with
/// per-chunk zone maps: shared [`ColumnarData`] and one `(variable,
/// probability)` pair per row.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarTable {
    data: Arc<ColumnarData>,
    vars: Vec<Variable>,
    probs: Vec<f64>,
}

impl ColumnarTable {
    /// Annotates `data`'s rows: `vars[r]` and `probs[r]` belong to row `r`.
    /// The columns are shared, not copied.
    ///
    /// # Errors
    /// Fails on a probability outside `(0, 1]`.
    ///
    /// # Panics
    /// If `vars` or `probs` does not hold one entry per row.
    pub fn new(
        data: Arc<ColumnarData>,
        vars: Vec<Variable>,
        probs: Vec<f64>,
    ) -> StorageResult<ColumnarTable> {
        assert!(
            vars.len() == data.len && probs.len() == data.len,
            "a (V, P) pair per row"
        );
        for &p in &probs {
            Probability::new(p)?;
        }
        Ok(ColumnarTable { data, vars, probs })
    }

    /// Builds the columns from borrowed rows, chunk-parallel on `pool`:
    /// one [`ColumnarBuilder::push`] of every row. `vars[r]` and `probs[r]`
    /// annotate row `r`. Only the rows of a last, partial chunk are copied,
    /// and the result is identical at every pool size.
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

    /// The tuple variables, aligned with row indices.
    pub fn vars(&self) -> &[Variable] {
        &self.vars
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

    /// The largest per-chunk distinct-count hint for column `name`: an
    /// upper bound on how many distinct values any single chunk holds.
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
            out.insert(self.data.row(r), self.vars[r], self.probs[r])?;
        }
        Ok(out)
    }
}

/// Incremental ingest: rows arrive in pieces of any size, each chunk is
/// swept once it is whole, and [`ColumnarBuilder::finish`] ranks the string
/// columns. The result depends on the rows alone — not on the pool size or
/// on where the pieces were cut.
pub struct ColumnarBuilder {
    pool: Pool,
    data: ColumnarData,
    /// `locals[c][k]`: chunk `k`'s dictionary of string column `c`, its own
    /// copies of the strings in first-seen order (empty for other columns).
    locals: Vec<Vec<Vec<Arc<str>>>>,
    /// Copies of the rows of the chunk still filling: fewer than a chunk.
    tail: Vec<Tuple>,
}

impl ColumnarBuilder {
    /// An empty builder for rows of `schema`, cut into `chunk_rows`-row
    /// chunks and swept on `pool`.
    ///
    /// # Errors
    /// Fails if `chunk_rows` is zero or not a multiple of 64 (chunk
    /// boundaries must be null-bitmap word boundaries).
    pub fn new(schema: Schema, chunk_rows: usize, pool: &Pool) -> StorageResult<ColumnarBuilder> {
        if chunk_rows == 0 || !chunk_rows.is_multiple_of(64) {
            return Err(StorageError::InvalidChunkSize(chunk_rows));
        }
        let columns = schema
            .columns()
            .iter()
            .map(|col| blank_column(col.data_type))
            .collect();
        let width = schema.len();
        Ok(ColumnarBuilder {
            pool: *pool,
            data: ColumnarData {
                schema,
                len: 0,
                chunk_rows,
                columns,
                zones: vec![Vec::new(); width],
            },
            locals: vec![Vec::new(); width],
            tail: Vec::new(),
        })
    }

    /// Appends `rows`. Whole chunks are swept now; the rows of a chunk left
    /// incomplete are copied and wait for the next piece or for `finish`.
    ///
    /// # Panics
    /// On a row without one cell per column.
    pub fn push(&mut self, mut rows: &[Tuple]) {
        let chunk_rows = self.data.chunk_rows;
        if !self.tail.is_empty() {
            let fill = (chunk_rows - self.tail.len()).min(rows.len());
            self.tail.extend_from_slice(&rows[..fill]);
            rows = &rows[fill..];
            if self.tail.len() < chunk_rows {
                return;
            }
            let chunk = std::mem::take(&mut self.tail);
            self.sweep(&chunk);
            self.tail = chunk;
            self.tail.clear();
        }
        let whole = rows.len() - rows.len() % chunk_rows;
        self.sweep(&rows[..whole]);
        self.tail.extend_from_slice(&rows[whole..]);
    }

    /// Sweeps the last, partial chunk and ranks every string column.
    pub fn finish(mut self) -> ColumnarData {
        let tail = std::mem::take(&mut self.tail);
        self.sweep(&tail);
        let data = &mut self.data;
        let cuts: Vec<usize> = (0..data.len).step_by(data.chunk_rows).collect();
        for ((column, zones), locals) in data
            .columns
            .iter_mut()
            .zip(&mut data.zones)
            .zip(&self.locals)
        {
            if let ColumnData::Str { dict, codes, .. } = column {
                *zones = rank_strings(dict, codes, &cuts, zones, locals, &self.pool);
            }
            column.shrink_to_fit();
            zones.shrink_to_fit();
        }
        self.data
    }

    /// Appends whole chunks (or the final partial one): one row-major sweep
    /// per chunk, chunk-parallel.
    fn sweep(&mut self, rows: &[Tuple]) {
        if rows.is_empty() {
            return;
        }
        let (start, chunk_rows) = (self.data.len, self.data.chunk_rows);
        let chunks: Vec<&[Tuple]> = rows.chunks(chunk_rows).collect();
        let cuts: Vec<usize> = (0..rows.len()).step_by(chunk_rows).collect();
        let mut swept = {
            // Chunk k's feeds are its windows of every column, in schema order.
            let mut feeds: Vec<Vec<Feed>> = chunks.iter().map(|_| Vec::new()).collect();
            for column in &mut self.data.columns {
                open_windows(column, start, rows.len(), chunk_rows, &mut feeds);
            }
            let each: Vec<usize> = (0..chunks.len()).collect();
            self.pool.map_slices_mut(&mut feeds, &each, |k, feed| {
                sweep(chunks[k], std::mem::take(&mut feed[0]))
            })
        };
        self.data.len += rows.len();

        let columns = self.data.columns.iter_mut().zip(&mut self.data.zones);
        for (c, ((column, zones), locals)) in columns.zip(&mut self.locals).enumerate() {
            let partial = swept.iter_mut().map(|chunk| chunk[c].0.take());
            if let Some(partial) = partial.collect::<Option<Vec<ZoneMap>>>() {
                zones.extend(partial);
                if let ColumnData::Str { .. } = column {
                    locals.extend(
                        swept
                            .iter_mut()
                            .map(|chunk| std::mem::take(&mut chunk[c].1)),
                    );
                }
                continue;
            }
            // Mixed storage: the original values verbatim, earlier cells decoded.
            let was_typed = !matches!(column, ColumnData::Mixed { .. });
            let mut values = into_values(column, locals, chunk_rows, start);
            if was_typed {
                // Summarise the decoded chunks as a mixed column's.
                let earlier: Vec<usize> = (0..start).step_by(chunk_rows).collect();
                *zones = self.pool.map_slices_mut(&mut values, &earlier, |_, slice| {
                    ZoneMap::build(slice.iter())
                });
            }
            locals.clear();
            values.resize(start + rows.len(), Value::Null);
            zones.extend(
                self.pool
                    .map_slices_mut(&mut values[start..], &cuts, |k, slice| {
                        for (slot, row) in slice.iter_mut().zip(chunks[k]) {
                            *slot = row.value(c).clone();
                        }
                        ZoneMap::build(slice.iter())
                    }),
            );
            *column = ColumnData::Mixed { values };
        }
    }
}

/// Empty typed storage of `data_type`: what the sweep fills speculatively,
/// before any cell's variant is known.
fn blank_column(data_type: DataType) -> ColumnData {
    let nulls = NullBitmap::new(0);
    match data_type {
        DataType::Int => ColumnData::Int {
            values: Vec::new(),
            nulls,
        },
        DataType::Float => ColumnData::Float {
            values: Vec::new(),
            nulls,
        },
        DataType::Date => ColumnData::Date {
            values: Vec::new(),
            nulls,
        },
        DataType::Bool => ColumnData::Bool {
            values: Vec::new(),
            nulls,
        },
        DataType::Str => ColumnData::Str {
            dict: Vec::new(),
            codes: Vec::new(),
            nulls,
        },
    }
}

/// The `rows` swept cells of `column` as `Value`s, leaving it empty. String
/// cells still hold chunk-local ids into `locals`.
fn into_values(
    column: &mut ColumnData,
    locals: &[Vec<Arc<str>>],
    chunk_rows: usize,
    rows: usize,
) -> Vec<Value> {
    let column = std::mem::replace(column, ColumnData::Mixed { values: Vec::new() });
    match column {
        ColumnData::Mixed { values } => values,
        ColumnData::Str { codes, nulls, .. } => (0..rows)
            .map(|r| {
                if nulls.is_null(r) {
                    Value::Null
                } else {
                    Value::Str(locals[r / chunk_rows][codes[r] as usize - 1].clone())
                }
            })
            .collect(),
        typed => (0..rows).map(|r| typed.value(r)).collect(),
    }
}

/// One chunk's cells of one typed column, writable in place.
enum Window<'s> {
    Int(&'s mut [i64]),
    Float(&'s mut [f64]),
    Date(&'s mut [i32]),
    Bool(&'s mut [bool]),
    Str(&'s mut [u32]),
}

/// What one chunk's sweep keeps per column.
#[derive(Default)]
struct Feed<'a, 's> {
    /// `None` once the chunk met a non-canonical variant in the column, and
    /// from the start in a column that is already mixed.
    window: Option<Window<'s>>,
    /// The chunk's own null-bitmap words: chunk sizes are multiples of 64.
    words: &'s mut [u64],
    /// Bounds under `Value`'s total order (NaN greatest, -0.0 == 0.0),
    /// bloom filter and distinct hint; of a string column, only its NULLs.
    stats: ZoneMapBuilder,
    strings: Interner<'a>,
}

/// A swept chunk's summary of one column: the zone map (`None`: a
/// non-canonical variant) and, for strings, the chunk dictionary.
type Swept = (Option<ZoneMap>, Vec<Arc<str>>);

/// Grows typed `column` by `rows` zero, valid rows from row `start` on and
/// deals their windows out to the chunks' feeds, `n` rows each.
fn open_windows<'s>(
    column: &'s mut ColumnData,
    start: usize,
    rows: usize,
    n: usize,
    feeds: &mut [Vec<Feed<'_, 's>>],
) {
    let end = start + rows;
    if let Some(nulls) = column.nulls_mut() {
        nulls.resize(end);
    }
    let (cells, nulls): (Vec<Window>, _) = match column {
        ColumnData::Int { values: v, nulls } => {
            v.resize(end, 0);
            (v[start..].chunks_mut(n).map(Window::Int).collect(), nulls)
        }
        ColumnData::Float { values: v, nulls } => {
            v.resize(end, 0.0);
            (v[start..].chunks_mut(n).map(Window::Float).collect(), nulls)
        }
        ColumnData::Date { values: v, nulls } => {
            v.resize(end, 0);
            (v[start..].chunks_mut(n).map(Window::Date).collect(), nulls)
        }
        ColumnData::Bool { values: v, nulls } => {
            v.resize(end, false);
            (v[start..].chunks_mut(n).map(Window::Bool).collect(), nulls)
        }
        ColumnData::Str { codes, nulls, .. } => {
            codes.resize(end, 0);
            (
                codes[start..].chunks_mut(n).map(Window::Str).collect(),
                nulls,
            )
        }
        ColumnData::Mixed { .. } => {
            for feed in feeds {
                feed.push(Feed::default());
            }
            return;
        }
    };
    let words = nulls.words_mut()[start / 64..].chunks_mut(n / 64);
    for ((window, words), feed) in cells.into_iter().zip(words).zip(feeds) {
        feed.push(Feed {
            window: Some(window),
            words,
            stats: ZoneMapBuilder::new(),
            strings: Interner::default(),
        });
    }
}

/// A chunk's string dictionary in insertion order. A cell's id is its
/// string's index plus one; 0 stays the code of NULL rows. It borrows the
/// chunk's rows, so it lives no longer than one sweep.
#[derive(Default)]
struct Interner<'a> {
    dict: Vec<&'a Arc<str>>,
    ids: HashMap<&'a str, u32>,
    /// Direct-mapped on the allocation's address: a cell sharing its `Arc`
    /// with an earlier cell is interned without hashing the string.
    recent: [Option<(&'a Arc<str>, u32)>; 16],
}

impl<'a> Interner<'a> {
    fn id(&mut self, s: &'a Arc<str>) -> u32 {
        let address = Arc::as_ptr(s) as *const u8 as usize;
        let slot = address.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (usize::BITS - 4);
        if let Some((seen, id)) = self.recent[slot] {
            if Arc::ptr_eq(seen, s) {
                return id;
            }
        }
        let id = *self.ids.entry(s).or_insert_with(|| {
            self.dict.push(s);
            self.dict.len() as u32
        });
        self.recent[slot] = Some((s, id));
        id
    }
}

/// The row-major sweep of one chunk: every cell goes to its column's feed,
/// typed columns finish their zone maps, string columns their dictionaries,
/// which own their strings — the rows may be gone before they are ranked.
fn sweep<'a>(rows: &'a [Tuple], mut feeds: Vec<Feed<'a, '_>>) -> Vec<Swept> {
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.arity(), feeds.len(), "a row has one cell per column");
        for (feed, v) in feeds.iter_mut().zip(row.values()) {
            match (&mut feed.window, v) {
                (None, _) => continue,
                (Some(_), Value::Null) => feed.words[i / 64] |= 1 << (i % 64),
                (Some(Window::Int(w)), Value::Int(x)) => w[i] = *x,
                (Some(Window::Float(w)), Value::Float(x)) => w[i] = *x,
                (Some(Window::Date(w)), Value::Date(x)) => w[i] = *x,
                (Some(Window::Bool(w)), Value::Bool(x)) => w[i] = *x,
                (Some(Window::Str(w)), Value::Str(s)) => w[i] = feed.strings.id(s),
                (window, _) => *window = None,
            }
            // A string column's bounds and bloom come from its dictionaries.
            if !matches!(v, Value::Str(_)) {
                feed.stats.push(v);
            }
        }
    }
    let finish = |f: Feed<'a, '_>| {
        let dict = f.strings.dict.into_iter().cloned().collect();
        (f.window.map(|_| f.stats.finish()), dict)
    };
    feeds.into_iter().map(finish).collect()
}

/// Ranks a swept string column. The sorted union of the chunk dictionaries
/// (`locals`) is the column's — independent of chunking, so identical at
/// every pool size — and every chunk turns its ids into ranks and finishes
/// its zone map (`partial` carries the null count) in one pass over its codes.
fn rank_strings(
    dict: &mut Vec<Arc<str>>,
    codes: &mut [u32],
    cuts: &[usize],
    partial: &[ZoneMap],
    locals: &[Vec<Arc<str>>],
    pool: &Pool,
) -> Vec<ZoneMap> {
    let mut ordered: Vec<&str> = locals.iter().flatten().map(|s| &**s).collect();
    ordered.sort_unstable();
    ordered.dedup();
    // Fresh allocations, packed together: the chunks' copies go with `locals`.
    *dict = ordered.iter().map(|s| Arc::from(*s)).collect();
    let dict = &*dict;
    pool.map_slices_mut(codes, cuts, |k, codes| {
        let rank = |s: &Arc<str>| ordered.binary_search(&&**s).expect("interned") as u32;
        let ranks: Vec<u32> = once(0).chain(locals[k].iter().map(rank)).collect();
        for code in codes.iter_mut() {
            *code = ranks[*code as usize];
        }
        // Each distinct string of the chunk is hashed and compared once.
        let mut stats = ZoneMapBuilder::new();
        for &code in &ranks[1..] {
            stats.push(&Value::Str(dict[code as usize].clone()));
        }
        ZoneMap {
            null_count: partial[k].null_count,
            rows: codes.len(),
            ..stats.finish()
        }
    })
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
            assert_eq!(col.vars(), table.vars());
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
                    Value::Str(dict[codes[r] as usize].clone()),
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
