//! In-memory relations: deterministic [`Table`]s and tuple-independent
//! probabilistic [`ProbTable`]s.

use std::collections::BTreeSet;
use std::fmt;

use crate::error::{StorageError, StorageResult};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::variable::{Probability, Variable, VariableGenerator};

/// A deterministic relation: a schema plus a bag of tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    rows: Vec<Tuple>,
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    /// Creates a table from a schema and pre-validated rows.
    ///
    /// # Errors
    /// Returns an error if any row does not match the schema.
    pub fn from_rows(schema: Schema, rows: Vec<Tuple>) -> StorageResult<Self> {
        let mut t = Table::new(schema);
        for row in rows {
            t.insert(row)?;
        }
        Ok(t)
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows, in insertion (or last sorted) order.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Mutable access to the rows. Callers must keep rows consistent with the
    /// schema; this is intended for operators that permute or rewrite rows in
    /// place (sorting, in-place aggregation).
    pub fn rows_mut(&mut self) -> &mut Vec<Tuple> {
        &mut self.rows
    }

    /// Consumes the table, returning its rows.
    pub fn into_rows(self) -> Vec<Tuple> {
        self.rows
    }

    /// Inserts a row after validating arity and column types.
    ///
    /// # Errors
    /// Returns [`StorageError::ArityMismatch`] or [`StorageError::TypeMismatch`].
    pub fn insert(&mut self, row: Tuple) -> StorageResult<()> {
        if row.arity() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.len(),
                actual: row.arity(),
            });
        }
        for (idx, value) in row.values().iter().enumerate() {
            let col = self.schema.column(idx);
            if !col.data_type.admits(value) {
                return Err(StorageError::TypeMismatch {
                    column: col.name.clone(),
                    value: value.to_string(),
                });
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// Sorts rows lexicographically by the named columns.
    ///
    /// # Errors
    /// Returns [`StorageError::UnknownColumn`] if a sort column is missing.
    pub fn sort_by_columns(&mut self, columns: &[&str]) -> StorageResult<()> {
        let idxs: Vec<usize> = columns
            .iter()
            .map(|c| self.schema.index_of(c))
            .collect::<StorageResult<_>>()?;
        self.rows.sort_by(|a, b| {
            for &i in &idxs {
                let ord = a.value(i).cmp(b.value(i));
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(())
    }

    /// The set of distinct values appearing in the named column.
    ///
    /// # Errors
    /// Returns [`StorageError::UnknownColumn`] if the column is missing.
    pub fn distinct_values(&self, column: &str) -> StorageResult<BTreeSet<Value>> {
        let idx = self.schema.index_of(column)?;
        Ok(self.rows.iter().map(|r| r.value(idx).clone()).collect())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for row in &self.rows {
            writeln!(f, "{row}")?;
        }
        Ok(())
    }
}

/// A tuple-independent probabilistic relation.
///
/// Conceptually this is a relation of schema `(A, V, P)` with the functional
/// dependency `A → V P` (paper, Section II.A). The data columns `A` live in
/// an embedded [`Table`]; the `V` and `P` columns are kept in parallel
/// vectors so that deterministic operators can ignore them and the
/// probabilistic operators can access them without column-name gymnastics.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbTable {
    data: Table,
    vars: Vec<Variable>,
    probs: Vec<f64>,
}

impl ProbTable {
    /// Creates an empty probabilistic table with the given data schema.
    pub fn new(schema: Schema) -> Self {
        ProbTable {
            data: Table::new(schema),
            vars: Vec::new(),
            probs: Vec::new(),
        }
    }

    /// The data schema (without the `V`/`P` columns).
    pub fn schema(&self) -> &Schema {
        self.data.schema()
    }

    /// The embedded deterministic table of data columns.
    pub fn data(&self) -> &Table {
        &self.data
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the table has no tuples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The data rows.
    pub fn rows(&self) -> &[Tuple] {
        self.data.rows()
    }

    /// The tuple variables, aligned with [`ProbTable::rows`].
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// The tuple probabilities, aligned with [`ProbTable::rows`].
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// The `(row, variable, probability)` triple at index `idx`.
    pub fn triple(&self, idx: usize) -> (&Tuple, Variable, f64) {
        (&self.data.rows()[idx], self.vars[idx], self.probs[idx])
    }

    /// Inserts a tuple with its variable and probability.
    ///
    /// # Errors
    /// Propagates schema validation errors and rejects probabilities outside
    /// `(0, 1]`.
    pub fn insert(&mut self, row: Tuple, var: Variable, prob: f64) -> StorageResult<()> {
        let prob = Probability::new(prob)?;
        self.data.insert(row)?;
        self.vars.push(var);
        self.probs.push(prob.value());
        Ok(())
    }

    /// Converts a deterministic table into a tuple-independent probabilistic
    /// table by attaching a fresh variable to every tuple and drawing its
    /// probability from `prob_of`, which receives the row index.
    ///
    /// This mirrors the paper's experimental setup: "associating each tuple
    /// with a Boolean random variable and by choosing at random a probability
    /// distribution over these variables".
    pub fn from_table(
        table: Table,
        gen: &mut VariableGenerator,
        mut prob_of: impl FnMut(usize) -> f64,
    ) -> StorageResult<Self> {
        let mut out = ProbTable::new(table.schema().clone());
        for (i, row) in table.into_rows().into_iter().enumerate() {
            out.insert(row, gen.fresh(), prob_of(i))?;
        }
        Ok(out)
    }

    /// The total number of distinct variables mentioned in this table.
    pub fn distinct_variables(&self) -> usize {
        let set: BTreeSet<Variable> = self.vars.iter().copied().collect();
        set.len()
    }
}

impl fmt::Display for ProbTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} V P", self.schema())?;
        for i in 0..self.len() {
            let (row, v, p) = self.triple(i);
            writeln!(f, "{row} {v} {p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;
    use crate::tuple;

    fn schema_ab() -> Schema {
        Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Str)]).unwrap()
    }

    #[test]
    fn insert_validates_arity_and_type() {
        let mut t = Table::new(schema_ab());
        assert!(t.insert(tuple![1i64, "x"]).is_ok());
        assert!(matches!(
            t.insert(tuple![1i64]),
            Err(StorageError::ArityMismatch { .. })
        ));
        assert!(matches!(
            t.insert(tuple!["no", "x"]),
            Err(StorageError::TypeMismatch { .. })
        ));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn null_is_admissible_everywhere() {
        let mut t = Table::new(schema_ab());
        t.insert(Tuple::new(vec![Value::Null, Value::Null]))
            .unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn sort_by_columns_orders_lexicographically() {
        let mut t = Table::from_rows(
            schema_ab(),
            vec![tuple![2i64, "b"], tuple![1i64, "z"], tuple![1i64, "a"]],
        )
        .unwrap();
        t.sort_by_columns(&["a", "b"]).unwrap();
        assert_eq!(
            t.rows(),
            &[tuple![1i64, "a"], tuple![1i64, "z"], tuple![2i64, "b"]]
        );
        assert!(t.sort_by_columns(&["missing"]).is_err());
    }

    #[test]
    fn distinct_values_deduplicates() {
        let t = Table::from_rows(
            schema_ab(),
            vec![tuple![1i64, "a"], tuple![1i64, "b"], tuple![2i64, "a"]],
        )
        .unwrap();
        assert_eq!(t.distinct_values("a").unwrap().len(), 2);
        assert_eq!(t.distinct_values("b").unwrap().len(), 2);
    }

    #[test]
    fn prob_table_insert_and_accessors() {
        let mut p = ProbTable::new(schema_ab());
        p.insert(tuple![1i64, "Joe"], Variable(0), 0.1).unwrap();
        p.insert(tuple![2i64, "Dan"], Variable(1), 0.2).unwrap();
        assert_eq!(p.len(), 2);
        let (row, v, pr) = p.triple(1);
        assert_eq!(row, &tuple![2i64, "Dan"]);
        assert_eq!(v, Variable(1));
        assert!((pr - 0.2).abs() < 1e-12);
        assert_eq!(p.distinct_variables(), 2);
    }

    #[test]
    fn prob_table_rejects_bad_probability() {
        let mut p = ProbTable::new(schema_ab());
        assert!(matches!(
            p.insert(tuple![1i64, "Joe"], Variable(0), 0.0),
            Err(StorageError::InvalidProbability(_))
        ));
        assert!(p.is_empty());
        // The failed insert must not have left a dangling data row.
        assert_eq!(p.data().len(), p.vars().len());
    }

    #[test]
    fn from_table_attaches_fresh_variables() {
        let t = Table::from_rows(schema_ab(), vec![tuple![1i64, "a"], tuple![2i64, "b"]]).unwrap();
        let mut gen = VariableGenerator::new();
        let p = ProbTable::from_table(t, &mut gen, |i| 0.1 * (i as f64 + 1.0)).unwrap();
        assert_eq!(p.vars(), &[Variable(0), Variable(1)]);
        assert_eq!(p.probs(), &[0.1, 0.2]);
        assert_eq!(gen.count(), 2);
    }

    #[test]
    fn display_contains_rows() {
        let mut p = ProbTable::new(schema_ab());
        p.insert(tuple![1i64, "Joe"], Variable(7), 0.5).unwrap();
        let s = p.to_string();
        assert!(s.contains("Joe"));
        assert!(s.contains("x7"));
    }
}
