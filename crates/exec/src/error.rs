//! Error type for the execution engine.

use std::fmt;

use pdb_govern::{SproutError, Stage};
use pdb_par::TaskFailure;
use pdb_storage::StorageError;

use crate::extensional::AggregationError;

/// Errors raised during plan execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A referenced data column does not exist in the intermediate result.
    UnknownColumn(String),
    /// A referenced lineage (relation) column does not exist.
    UnknownRelation(String),
    /// Two inputs of a join share a lineage column, which would mean the same
    /// base relation was scanned twice (self-joins are unsupported).
    DuplicateRelation(String),
    /// Underlying storage error.
    Storage(StorageError),
    /// A fallible probability aggregation failed on one group (MystiQ's
    /// log-space emulation overflowed).
    Aggregation(AggregationError),
    /// The query governor interrupted execution (cancellation, deadline,
    /// memory budget) or a worker panicked and was isolated.
    Governed(SproutError),
}

impl ExecError {
    /// Converts a [`pdb_par`] task failure into an exec error: a task that
    /// returned `Err` propagates its error verbatim; a task that panicked is
    /// isolated into [`SproutError::WorkerPanic`] naming the `stage` and the
    /// work item.
    pub fn from_task_failure(stage: Stage, failure: TaskFailure<ExecError>) -> ExecError {
        match failure {
            TaskFailure::Err { error, .. } => error,
            TaskFailure::Panic { item, message } => ExecError::Governed(SproutError::WorkerPanic {
                stage,
                item,
                message,
            }),
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownColumn(c) => write!(f, "unknown data column: {c}"),
            ExecError::UnknownRelation(r) => write!(f, "unknown lineage column for relation: {r}"),
            ExecError::DuplicateRelation(r) => {
                write!(
                    f,
                    "relation {r} appears in both join inputs (self-join unsupported)"
                )
            }
            ExecError::Storage(e) => write!(f, "storage error: {e}"),
            ExecError::Aggregation(e) => write!(f, "{e}"),
            ExecError::Governed(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

impl From<AggregationError> for ExecError {
    fn from(e: AggregationError) -> Self {
        ExecError::Aggregation(e)
    }
}

impl From<SproutError> for ExecError {
    fn from(e: SproutError) -> Self {
        ExecError::Governed(e)
    }
}

/// Convenience result alias.
pub type ExecResult<T> = Result<T, ExecError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e: ExecError = StorageError::UnknownTable("Ord".into()).into();
        assert!(e.to_string().contains("Ord"));
        assert!(ExecError::UnknownColumn("x".into())
            .to_string()
            .contains("x"));
        assert!(ExecError::DuplicateRelation("R".into())
            .to_string()
            .contains("self-join"));
    }
}
