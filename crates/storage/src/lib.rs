//! # pdb-storage
//!
//! Storage layer for the SPROUT reproduction: values, schemas, tuples,
//! deterministic relations, and *tuple-independent probabilistic tables*.
//!
//! A tuple-independent probabilistic table (paper, Section II.A) is a relation
//! of schema `(A, V, P)` where `V` holds Boolean random variables, `P` holds
//! their probabilities in `(0, 1]`, and the functional dependency `A → V P`
//! holds. A probabilistic database is a set of such tables and represents a
//! set of possible worlds, one per truth assignment of the variables.
//!
//! This crate provides:
//!
//! * [`Value`], [`DataType`] — the scalar value model shared by all crates.
//! * [`Schema`], [`Column`] — named, typed column lists.
//! * [`Tuple`] — a row of values.
//! * [`Table`] — an in-memory deterministic relation.
//! * [`ProbTable`] — a tuple-independent probabilistic relation: a [`Table`]
//!   plus one [`Variable`] and one probability per tuple.
//! * [`ColumnarTable`] — the same relation stored column-major: typed
//!   columns with null bitmaps (integers, dates, dictionary codes and the
//!   variables as [`columnar::Packed`] frame-of-reference words),
//!   fixed-size row groups, and per-chunk zone maps for predicate-driven
//!   chunk skipping. Its data half, a
//!   [`ColumnarData`], is shared behind an `Arc`; it is built from whole
//!   typed columns ([`ColumnarData::from_columns`]) or by a
//!   [`ColumnarBuilder`] from rows pushed in pieces of any size.
//! * [`Catalog`] — a named collection of probabilistic tables together with
//!   declared keys and functional dependencies; each entry is a
//!   [`StorageBacking`] (row or columnar), and scans dispatch on it.
//! * [`TableStats`] — per-table optimizer statistics, computed once into a
//!   cell of the table's catalog entry on its first use by a planner.
//!
//! Possible-world enumeration, the ground truth the engine is tested
//! against, lives in the dev-only `pdb-testkit`.

pub mod catalog;
pub mod columnar;
pub mod error;
pub mod schema;
pub mod stats;
pub mod table;
pub mod tuple;
pub mod value;
pub mod variable;

pub use catalog::{Catalog, StorageBacking};
pub use columnar::{ColumnData, ColumnarBuilder, ColumnarData, ColumnarTable, NullBitmap, ZoneMap};
pub use error::{StorageError, StorageResult};
pub use schema::{Column, DataType, Schema};
pub use stats::TableStats;
pub use table::{ProbTable, Table};
pub use tuple::Tuple;
pub use value::{numeric_cmp, sort_distinct, total_f64_cmp, Value};
pub use variable::{Probability, Variable, VariableGenerator};
