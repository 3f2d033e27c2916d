//! Lineage-annotated intermediate results, arena-backed.
//!
//! An [`Annotated`] relation is the in-memory equivalent of the paper's
//! intermediate tables: ordinary data columns plus, for every base relation
//! that has been joined in, one variable column `V(R)` and one probability
//! column `P(R)`.
//!
//! # Memory layout
//!
//! Since PR 1 the relation is stored **columnar-by-arena** instead of
//! row-at-a-time:
//!
//! * all data values live in one flat `Vec<Value>` with a fixed stride of
//!   `schema.len()` values per row, and
//! * all lineage pairs live in one flat `Vec<(Variable, f64)>` arena with a
//!   fixed stride of `relations().len()` pairs per row.
//!
//! Because every row of a given relation carries exactly one `(V, P)` pair
//! per source relation, the lineage arena needs no per-row span bookkeeping:
//! row `i`'s lineage is the slice `[i·w, (i+1)·w)` for `w = relations
//! count`. Operators grow a result by `extend_from_slice` into the two
//! arenas — amortized slice-append — where the seed implementation
//! allocated a fresh `Tuple` and a fresh `Vec<(Variable, f64)>` per output
//! row. Joins concatenating an `l`-wide and an `r`-wide lineage write the
//! `l + r` pairs contiguously, so the confidence operator's scan over
//! variable columns walks a dense array.
//!
//! Rows are read through [`RowRef`], a pair of slices; [`AnnotatedRow`]
//! remains as the owned row used by construction sites and tests.

use std::collections::BTreeSet;
use std::fmt;

use pdb_storage::{Schema, Tuple, Value, Variable};

use crate::error::{ExecError, ExecResult};
use crate::key::SortKeys;

/// One owned row of an annotated relation: the data values plus one
/// `(variable, probability)` pair per source relation.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotatedRow {
    /// Data values, matching the owning relation's schema.
    pub data: Tuple,
    /// Lineage annotations, aligned with [`Annotated::relations`].
    pub lineage: Vec<(Variable, f64)>,
}

impl AnnotatedRow {
    /// Creates a row.
    pub fn new(data: Tuple, lineage: Vec<(Variable, f64)>) -> Self {
        AnnotatedRow { data, lineage }
    }
}

/// A borrowed row: a slice of data values and a slice of lineage pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowRef<'a> {
    /// Data values, matching the owning relation's schema.
    pub data: &'a [Value],
    /// Lineage pairs, aligned with [`Annotated::relations`].
    pub lineage: &'a [(Variable, f64)],
}

impl RowRef<'_> {
    /// The data value at position `idx`.
    #[inline]
    pub fn value(&self, idx: usize) -> &Value {
        &self.data[idx]
    }

    /// The data values as an owned [`Tuple`].
    pub fn data_tuple(&self) -> Tuple {
        Tuple::new(self.data.to_vec())
    }
}

/// An intermediate query result with per-relation lineage columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotated {
    schema: Schema,
    relations: Vec<String>,
    len: usize,
    /// Flat data arena, `schema.len()` values per row.
    data: Vec<Value>,
    /// Flat lineage arena, `relations.len()` pairs per row.
    lineage: Vec<(Variable, f64)>,
}

impl Annotated {
    /// Creates an empty annotated relation.
    pub fn new(schema: Schema, relations: Vec<String>) -> Self {
        Annotated {
            schema,
            relations,
            len: 0,
            data: Vec::new(),
            lineage: Vec::new(),
        }
    }

    /// Creates an empty relation with arenas pre-sized for `rows` rows.
    pub fn with_row_capacity(schema: Schema, relations: Vec<String>, rows: usize) -> Self {
        let data = Vec::with_capacity(rows * schema.len());
        let lineage = Vec::with_capacity(rows * relations.len());
        Annotated {
            schema,
            relations,
            len: 0,
            data,
            lineage,
        }
    }

    /// Creates a relation of exactly `rows` placeholder rows (NULL data
    /// values, zero lineage pairs) whose arenas are overwritten in place
    /// through [`Annotated::arena_segments_mut`]. This is the reserve half of
    /// the operators' two-phase pattern: once per-range output
    /// counts are known, the output is sized exactly and disjoint workers
    /// fill their row ranges with no post-hoc stitch copy.
    pub fn with_placeholder_rows(schema: Schema, relations: Vec<String>, rows: usize) -> Self {
        let data = vec![Value::Null; rows * schema.len()];
        let lineage = vec![(Variable(0), 0.0); rows * relations.len()];
        Annotated {
            schema,
            relations,
            len: rows,
            data,
            lineage,
        }
    }

    /// Assembles a relation of `rows` rows from arenas written elsewhere.
    pub(crate) fn from_arenas(
        schema: Schema,
        relations: Vec<String>,
        rows: usize,
        data: Vec<Value>,
        lineage: Vec<(Variable, f64)>,
    ) -> Self {
        debug_assert_eq!(data.len(), rows * schema.len());
        debug_assert_eq!(lineage.len(), rows * relations.len());
        Annotated {
            schema,
            relations,
            len: rows,
            data,
            lineage,
        }
    }

    /// This relation cut down to `rows` rows, row `k` being row `exemplar(k)`
    /// (distinct rows) moved inside the data arena, which is then shrunk, and
    /// with its lineage columns replaced. Row `k` is swapped with its
    /// exemplar, which was set aside when its own row was written if it
    /// comes first — never when the exemplars ascend, as in key order.
    pub(crate) fn into_rows(
        mut self,
        rows: usize,
        exemplar: impl Fn(usize) -> usize,
        relations: Vec<String>,
        lineage: Vec<(Variable, f64)>,
    ) -> Self {
        let (w, data) = (self.data_width(), &mut self.data);
        // Bit `e` marks an exemplar a later output row takes; its slot in
        // `aside` is its rank among the marked rows.
        let mut later = vec![0u64; rows.div_ceil(64)];
        for k in 0..rows {
            let e = exemplar(k);
            if e < k {
                later[e / 64] |= 1 << (e % 64);
            }
        }
        let mut firsts = vec![0; later.len() + 1];
        for (i, word) in later.iter().enumerate() {
            firsts[i + 1] = firsts[i] + word.count_ones() as usize;
        }
        let slot = |e: usize| {
            let below = later[e / 64] & ((1 << (e % 64)) - 1);
            w * (firsts[e / 64] + below.count_ones() as usize)
        };
        let mut aside = vec![Value::Null; firsts[later.len()] * w];
        for k in 0..rows {
            let (head, tail) = data.split_at_mut((k + 1) * w);
            let row = &mut head[k * w..];
            if later[k / 64] >> (k % 64) & 1 == 1 {
                row.swap_with_slice(&mut aside[slot(k)..][..w]);
            }
            match exemplar(k) {
                e if e < k => row.swap_with_slice(&mut aside[slot(e)..][..w]),
                e if e > k => row.swap_with_slice(&mut tail[(e - k - 1) * w..][..w]),
                _ => {}
            }
        }
        if data.len() > rows * w {
            data.truncate(rows * w);
            data.shrink_to_fit();
        }
        Annotated::from_arenas(self.schema, relations, rows, self.data, lineage)
    }

    /// Mutable views of both arenas, for disjoint parallel segment writes
    /// (row `i` owns data `[i · data_width(), (i+1) · data_width())` and
    /// lineage `[i · lineage_width(), (i+1) · lineage_width())`). Split the
    /// two slices at aligned row cuts — e.g. with
    /// [`pdb_par::Pool::map_slices2_mut`] — so each worker writes its own
    /// row range.
    pub fn arena_segments_mut(&mut self) -> (&mut [Value], &mut [(Variable, f64)]) {
        (&mut self.data, &mut self.lineage)
    }

    /// The data schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Values per row in the data arena.
    #[inline]
    pub fn data_width(&self) -> usize {
        self.schema.len()
    }

    /// Pairs per row in the lineage arena.
    #[inline]
    pub fn lineage_width(&self) -> usize {
        self.relations.len()
    }

    /// The data column names of the natural join with `right`: these, then
    /// those of `right` these lack.
    pub fn join_names<'a>(&'a self, right: &'a Annotated) -> impl Iterator<Item = &'a str> {
        let right_only = right.schema.names().into_iter();
        let right_only = right_only.filter(|a| !self.schema.contains(a));
        self.schema.names().into_iter().chain(right_only)
    }

    /// The source relations whose `V`/`P` columns are present, in order.
    pub fn relations(&self) -> &[String] {
        &self.relations
    }

    /// Index of relation `name` in the lineage columns.
    ///
    /// # Errors
    /// Returns [`ExecError::UnknownRelation`] if absent.
    pub fn relation_index(&self, name: &str) -> ExecResult<usize> {
        self.relations
            .iter()
            .position(|r| r == name)
            .ok_or_else(|| ExecError::UnknownRelation(name.to_string()))
    }

    /// The row at index `idx`.
    #[inline]
    pub fn row(&self, idx: usize) -> RowRef<'_> {
        let dw = self.data_width();
        let lw = self.lineage_width();
        RowRef {
            data: &self.data[idx * dw..(idx + 1) * dw],
            lineage: &self.lineage[idx * lw..(idx + 1) * lw],
        }
    }

    /// Iterates over the rows.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> + Clone {
        (0..self.len).map(move |i| self.row(i))
    }

    /// The whole lineage arena (row `i` owns pairs
    /// `[i · lineage_width(), (i+1) · lineage_width())`). Exposed so tests
    /// can verify the amortized-append allocation behavior.
    pub fn lineage_arena(&self) -> &[(Variable, f64)] {
        &self.lineage
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends an owned row, moving its values into the arenas. The caller
    /// is responsible for arity consistency; this is checked with a debug
    /// assertion to keep the hot path cheap.
    pub fn push(&mut self, row: AnnotatedRow) {
        debug_assert_eq!(row.data.arity(), self.schema.len());
        debug_assert_eq!(row.lineage.len(), self.relations.len());
        self.data.extend(row.data.into_values());
        self.lineage.extend(row.lineage);
        self.len += 1;
    }

    /// Appends a row from borrowed slices — the allocation-lean path: both
    /// arenas grow by amortized `extend_from_slice`, no per-row `Vec`s.
    #[inline]
    pub fn push_row(&mut self, data: &[Value], lineage: &[(Variable, f64)]) {
        debug_assert_eq!(data.len(), self.data_width());
        debug_assert_eq!(lineage.len(), self.lineage_width());
        self.data.extend_from_slice(data);
        self.lineage.extend_from_slice(lineage);
        self.len += 1;
    }

    /// Appends the join of two rows: the data values at `columns`, positions
    /// in the left row's values followed by the right row's; left lineage,
    /// then right lineage.
    #[inline]
    pub fn push_join_row(&mut self, left: RowRef<'_>, right: RowRef<'_>, columns: &[usize]) {
        for &c in columns {
            self.data.push(match c.checked_sub(left.data.len()) {
                None => left.data[c].clone(),
                Some(r) => right.data[r].clone(),
            });
        }
        self.lineage.extend_from_slice(left.lineage);
        self.lineage.extend_from_slice(right.lineage);
        self.len += 1;
        debug_assert_eq!(self.data.len(), self.len * self.data_width());
        debug_assert_eq!(self.lineage.len(), self.len * self.lineage_width());
    }

    /// Appends every row of `other` — a relation of the same shape — by
    /// moving its arenas' contents behind this one's: no value is cloned.
    pub fn append(&mut self, mut other: Annotated) {
        debug_assert_eq!(other.schema, self.schema);
        debug_assert_eq!(other.relations, self.relations);
        self.data.append(&mut other.data);
        self.lineage.append(&mut other.lineage);
        self.len += other.len;
    }

    /// Index of data column `name`.
    ///
    /// # Errors
    /// Returns [`ExecError::UnknownColumn`] if absent.
    pub fn column_index(&self, name: &str) -> ExecResult<usize> {
        self.schema
            .index_of(name)
            .map_err(|_| ExecError::UnknownColumn(name.to_string()))
    }

    /// The set of distinct data tuples (the "answer tuples" of the query,
    /// without confidences).
    pub fn distinct_data(&self) -> BTreeSet<Tuple> {
        self.iter().map(|r| r.data_tuple()).collect()
    }

    /// Builds normalized sort keys over the given data columns followed by
    /// the variables of the given lineage columns; see
    /// [`crate::key::SortKeys`]. Public so the confidence operator can sort
    /// a row-index permutation instead of cloning and permuting the arenas.
    ///
    /// Key encoding is chunked across the default worker pool for large
    /// relations; see [`Annotated::sort_keys_with`] to pin a pool. The keys
    /// are bit-identical at every thread count.
    pub fn sort_keys(&self, col_idx: &[usize], rel_idx: &[usize]) -> SortKeys {
        self.sort_keys_with(
            col_idx,
            rel_idx,
            &pdb_par::Pool::from_env().for_items(self.len),
        )
    }

    /// [`Annotated::sort_keys`] with an explicit worker pool: key encoding
    /// (including the per-column string dictionaries) is chunked across the
    /// pool's workers and merged into one canonical interner, so the words
    /// are bit-identical to a sequential build.
    pub fn sort_keys_with(
        &self,
        col_idx: &[usize],
        rel_idx: &[usize],
        pool: &pdb_par::Pool,
    ) -> SortKeys {
        let dw = self.data_width();
        let lw = self.lineage_width();
        SortKeys::build_with(
            self.len,
            col_idx.len(),
            rel_idx.len(),
            |r, c| &self.data[r * dw + col_idx[c]],
            |r, e| self.lineage[r * lw + rel_idx[e]].0 .0,
            pool,
        )
    }

    /// Reorders the rows by the given permutation (`order[k]` = old index of
    /// the row that ends up at position `k`).
    pub(crate) fn apply_permutation(&mut self, order: &[u32]) {
        debug_assert_eq!(order.len(), self.len);
        let dw = self.data_width();
        let lw = self.lineage_width();
        let mut data = Vec::with_capacity(self.data.len());
        let mut lineage = Vec::with_capacity(self.lineage.len());
        for &i in order {
            let i = i as usize;
            data.extend_from_slice(&self.data[i * dw..(i + 1) * dw]);
            lineage.extend_from_slice(&self.lineage[i * lw..(i + 1) * lw]);
        }
        self.data = data;
        self.lineage = lineage;
    }

    /// Sorts rows by the given data columns, then by the variables of the
    /// given relations (in the given order) — the sort order required by the
    /// confidence-computation operator (Example V.12: data columns first,
    /// then variable columns in preorder of the 1scanTree).
    ///
    /// The sort is stable and runs over precomputed normalized keys (flat
    /// `u64` runs) rather than `Value` comparisons; see [`crate::key`].
    ///
    /// # Errors
    /// Fails on unknown columns or relations.
    pub fn sort_for_confidence(
        &mut self,
        data_columns: &[String],
        relation_order: &[String],
    ) -> ExecResult<()> {
        let col_idx: Vec<usize> = data_columns
            .iter()
            .map(|c| self.column_index(c))
            .collect::<ExecResult<_>>()?;
        let rel_idx: Vec<usize> = relation_order
            .iter()
            .map(|r| self.relation_index(r))
            .collect::<ExecResult<_>>()?;
        let keys = self.sort_keys(&col_idx, &rel_idx);
        let order = keys.sorted_permutation(self.len);
        self.apply_permutation(&order);
        Ok(())
    }
}

impl fmt::Display for Annotated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} |", self.schema)?;
        for r in &self.relations {
            write!(f, " V({r}) P({r})")?;
        }
        writeln!(f)?;
        for row in self.iter() {
            write!(f, "{} |", row.data_tuple())?;
            for (v, p) in row.lineage {
                write!(f, " {v} {p}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_storage::{tuple, DataType};

    fn sample() -> Annotated {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
        let mut t = Annotated::new(schema, vec!["R".into(), "S".into()]);
        t.push(AnnotatedRow::new(
            tuple![2i64],
            vec![(Variable(5), 0.5), (Variable(1), 0.1)],
        ));
        t.push(AnnotatedRow::new(
            tuple![1i64],
            vec![(Variable(3), 0.3), (Variable(2), 0.2)],
        ));
        t.push(AnnotatedRow::new(
            tuple![1i64],
            vec![(Variable(4), 0.4), (Variable(0), 0.9)],
        ));
        t
    }

    #[test]
    fn indices_and_errors() {
        let t = sample();
        assert_eq!(t.relation_index("S").unwrap(), 1);
        assert!(matches!(
            t.relation_index("T"),
            Err(ExecError::UnknownRelation(_))
        ));
        assert_eq!(t.column_index("a").unwrap(), 0);
        assert!(matches!(
            t.column_index("zzz"),
            Err(ExecError::UnknownColumn(_))
        ));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn distinct_data_deduplicates() {
        let t = sample();
        assert_eq!(t.distinct_data().len(), 2);
    }

    #[test]
    fn rows_live_in_contiguous_arenas() {
        let t = sample();
        assert_eq!(t.lineage_arena().len(), t.len() * t.lineage_width());
        assert_eq!(t.row(1).lineage, &[(Variable(3), 0.3), (Variable(2), 0.2)]);
        assert_eq!(t.row(0).value(0), &Value::Int(2));
        assert_eq!(t.row(2).data_tuple(), tuple![1i64]);
        assert_eq!(t.iter().count(), 3);
    }

    #[test]
    fn sort_orders_by_data_then_variables() {
        let mut t = sample();
        t.sort_for_confidence(&["a".into()], &["R".into(), "S".into()])
            .unwrap();
        let keys: Vec<(i64, u64)> = t
            .iter()
            .map(|r| (r.value(0).as_int().unwrap(), r.lineage[0].0 .0))
            .collect();
        assert_eq!(keys, vec![(1, 3), (1, 4), (2, 5)]);
    }

    #[test]
    fn sort_with_unknown_relation_fails() {
        let mut t = sample();
        assert!(t
            .sort_for_confidence(&["a".into()], &["Nope".into()])
            .is_err());
        assert!(t
            .sort_for_confidence(&["zzz".into()], &["R".into()])
            .is_err());
    }

    #[test]
    fn sort_orders_strings_lexicographically() {
        let schema = Schema::from_pairs(&[("s", DataType::Str)]).unwrap();
        let mut t = Annotated::new(schema, vec!["R".into()]);
        for (name, var) in [("Li", 1u64), ("Joe", 2), ("Mo", 3), ("Joe", 4)] {
            t.push(AnnotatedRow::new(tuple![name], vec![(Variable(var), 0.5)]));
        }
        t.sort_for_confidence(&["s".into()], &["R".into()]).unwrap();
        let order: Vec<(String, u64)> = t
            .iter()
            .map(|r| (r.value(0).to_string(), r.lineage[0].0 .0))
            .collect();
        assert_eq!(
            order,
            vec![
                ("Joe".into(), 2),
                ("Joe".into(), 4),
                ("Li".into(), 1),
                ("Mo".into(), 3)
            ]
        );
    }

    #[test]
    fn placeholder_rows_are_overwritten_through_arena_segments() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
        let mut t = Annotated::with_placeholder_rows(schema, vec!["R".into()], 3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.row(1).value(0), &Value::Null);
        let (data, lineage) = t.arena_segments_mut();
        assert_eq!(data.len(), 3);
        assert_eq!(lineage.len(), 3);
        for (i, v) in data.iter_mut().enumerate() {
            *v = Value::Int(i as i64);
        }
        for (i, l) in lineage.iter_mut().enumerate() {
            *l = (Variable(i as u64 + 1), 0.5);
        }
        assert_eq!(t.row(2).data_tuple(), tuple![2i64]);
        assert_eq!(t.row(2).lineage, &[(Variable(3), 0.5)]);
    }

    #[test]
    fn display_lists_lineage_columns() {
        let s = sample().to_string();
        assert!(s.contains("V(R)"));
        assert!(s.contains("V(S)"));
    }
}
