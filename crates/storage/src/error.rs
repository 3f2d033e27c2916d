//! Error type for the storage layer.

use std::fmt;

use crate::schema::DataType;

/// Errors raised by storage-layer operations.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// A schema contains two columns with the same name.
    DuplicateColumn(String),
    /// A referenced column does not exist in the schema.
    UnknownColumn(String),
    /// A column index is outside the schema's arity.
    ColumnIndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of columns in the schema.
        arity: usize,
    },
    /// A tuple has a different arity than its schema.
    ArityMismatch {
        /// Number of columns in the schema.
        expected: usize,
        /// Number of values in the tuple.
        actual: usize,
    },
    /// A value is not admissible in its column's declared type.
    TypeMismatch {
        /// The offending column name.
        column: String,
        /// Human-readable description of the offending value.
        value: String,
    },
    /// A tuple probability is outside `(0, 1]`.
    InvalidProbability(f64),
    /// A referenced table does not exist in the catalog.
    UnknownTable(String),
    /// A table with this name already exists in the catalog.
    DuplicateTable(String),
    /// A columnar chunk size is zero or not a multiple of 64 (chunk
    /// boundaries must fall on null-bitmap word boundaries).
    InvalidChunkSize(usize),
    /// A column handed over as typed storage is not storage of its
    /// declared type.
    ColumnType {
        /// The column name.
        column: String,
        /// Its declared type.
        expected: DataType,
    },
    /// A column handed over as typed storage holds another number of rows
    /// than the table's first column.
    ColumnLength {
        /// The column name.
        column: String,
        /// The rows of the first column.
        expected: usize,
        /// The rows the column, or its null bitmap, holds.
        actual: usize,
    },
    /// A string column holds a code its dictionary has no entry for.
    CodeOutOfRange {
        /// The column name.
        column: String,
        /// The code.
        code: i64,
        /// The dictionary's length.
        dictionary: usize,
    },
    /// A value lies outside the frame of the packed column it was put in.
    OutOfDomain {
        /// The value.
        value: i64,
        /// The frame's smallest value.
        min: i64,
        /// The frame's largest value.
        max: i64,
    },
    /// A packed column handed over as typed storage holds a word that
    /// decodes outside its type: past `i64::MAX`, or a date beyond `i32`.
    WordOutOfFrame {
        /// The column name.
        column: String,
        /// The first row holding such a word.
        row: usize,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::DuplicateColumn(c) => write!(f, "duplicate column name: {c}"),
            StorageError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            StorageError::ColumnIndexOutOfRange { index, arity } => {
                write!(f, "column index {index} is outside schema arity {arity}")
            }
            StorageError::ArityMismatch { expected, actual } => {
                write!(
                    f,
                    "tuple arity {actual} does not match schema arity {expected}"
                )
            }
            StorageError::TypeMismatch { column, value } => {
                write!(f, "value {value} is not admissible in column {column}")
            }
            StorageError::InvalidProbability(p) => {
                write!(f, "tuple probability {p} is outside (0, 1]")
            }
            StorageError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            StorageError::DuplicateTable(t) => write!(f, "table already exists: {t}"),
            StorageError::InvalidChunkSize(n) => {
                write!(
                    f,
                    "columnar chunk size {n} is not a positive multiple of 64"
                )
            }
            StorageError::ColumnType { column, expected } => {
                write!(f, "column {column} is not {expected} storage")
            }
            StorageError::ColumnLength {
                column,
                expected,
                actual,
            } => write!(f, "column {column} holds {actual} rows, not {expected}"),
            StorageError::CodeOutOfRange {
                column,
                code,
                dictionary,
            } => write!(
                f,
                "column {column} has code {code} beyond its {dictionary} strings"
            ),
            StorageError::OutOfDomain { value, min, max } => {
                write!(f, "value {value} is outside the frame {min}..={max}")
            }
            StorageError::WordOutOfFrame { column, row } => {
                write!(f, "column {column} row {row} decodes outside its type")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience result alias for the storage layer.
pub type StorageResult<T> = Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = StorageError::ArityMismatch {
            expected: 3,
            actual: 2,
        };
        assert!(e.to_string().contains("arity 2"));
        assert!(StorageError::UnknownTable("Ord".into())
            .to_string()
            .contains("Ord"));
        assert!(StorageError::InvalidProbability(1.5)
            .to_string()
            .contains("1.5"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&StorageError::UnknownColumn("x".into()));
    }
}
