//! Typed wire errors: the full library error taxonomy mapped to stable
//! machine-readable codes and HTTP statuses.
//!
//! Every error response has the shape
//!
//! ```json
//! {"error":{"code":"UNSAFE_QUERY","status":422,"message":"…","detail":{…}}}
//! ```
//!
//! `code` is the stable contract clients dispatch on; `message` is the
//! library error's display form (human-readable, *not* stable); `detail`
//! carries the typed payload of the originating variant — the blocking
//! attribute pair of an unsafe query, the stage and budget arithmetic of a
//! governed interruption — so nothing is stringly over the wire.

use sprout::{PlanError, SproutError};

use crate::json::Json;

/// A response-ready error: status, stable code, and a structured detail
/// object.
#[derive(Debug, Clone)]
pub struct WireError {
    /// HTTP status.
    pub status: u16,
    /// Stable machine-readable code.
    pub code: &'static str,
    /// Human-readable description (display form of the source error).
    pub message: String,
    /// Typed payload of the originating error variant.
    pub detail: Json,
    /// `Retry-After` hint in seconds (shedding responses only).
    pub retry_after: Option<u64>,
}

impl WireError {
    /// A server-layer error with no structured detail.
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> WireError {
        WireError {
            status,
            code,
            message: message.into(),
            detail: Json::Null,
            retry_after: None,
        }
    }

    /// Attaches a detail object.
    pub fn with_detail(mut self, detail: Json) -> WireError {
        self.detail = detail;
        self
    }

    /// Attaches a `Retry-After` hint.
    pub fn with_retry_after(mut self, seconds: u64) -> WireError {
        self.retry_after = Some(seconds);
        self
    }

    /// The JSON response body.
    pub fn body(&self) -> Json {
        Json::Object(vec![(
            "error".to_string(),
            Json::Object(vec![
                ("code".to_string(), Json::str(self.code)),
                ("status".to_string(), Json::Int(self.status as i64)),
                ("message".to_string(), Json::str(&self.message)),
                ("detail".to_string(), self.detail.clone()),
            ]),
        )])
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Maps a governed interruption to its wire form. `DeadlineExceeded` carries
/// a `partial_bounds` slot: `null` when the deadline fired before any
/// refinement produced brackets (a deadline *during* refinement never errors
/// at all — the anytime evaluator degrades to its best bounds and the
/// request succeeds).
pub fn from_sprout_error(e: &SproutError) -> WireError {
    let stage = Json::str(e.stage().to_string());
    match e {
        SproutError::Cancelled { .. } => {
            WireError::new(499, "CANCELLED", e.to_string()).with_detail(obj(vec![("stage", stage)]))
        }
        SproutError::DeadlineExceeded {
            elapsed, deadline, ..
        } => WireError::new(504, "DEADLINE_EXCEEDED", e.to_string()).with_detail(obj(vec![
            ("stage", stage),
            ("elapsed_ms", Json::Int(elapsed.as_millis() as i64)),
            ("deadline_ms", Json::Int(deadline.as_millis() as i64)),
            ("partial_bounds", Json::Null),
        ])),
        SproutError::MemoryBudgetExceeded {
            requested,
            used,
            budget,
            ..
        } => WireError::new(507, "MEMORY_BUDGET_EXCEEDED", e.to_string()).with_detail(obj(vec![
            ("stage", stage),
            ("requested", Json::Int(*requested as i64)),
            ("used", Json::Int(*used as i64)),
            ("budget", Json::Int(*budget as i64)),
        ])),
        SproutError::WorkerPanic { item, .. } => {
            // The panic payload is deliberately not echoed to clients.
            WireError::new(500, "WORKER_PANIC", "a worker panicked and was isolated").with_detail(
                obj(vec![("stage", stage), ("item", Json::Int(*item as i64))]),
            )
        }
        SproutError::Failed { message, .. } => WireError::new(500, "INTERNAL", message.clone())
            .with_detail(obj(vec![("stage", stage)])),
    }
}

/// Maps the full [`PlanError`] taxonomy (including the nested query, exec,
/// confidence, storage and governed variants) to its wire form.
pub fn from_plan_error(e: &PlanError) -> WireError {
    use sprout::PlanError as P;
    match e {
        P::UnsafeQuery {
            query,
            attr_a,
            attr_b,
            table,
        } => WireError::new(422, "UNSAFE_QUERY", e.to_string()).with_detail(obj(vec![
            ("attr_a", Json::str(attr_a)),
            ("attr_b", Json::str(attr_b)),
            ("table", Json::str(table)),
            ("query", Json::str(query)),
        ])),
        P::MystiqRuntimeError(q) => WireError::new(500, "MYSTIQ_RUNTIME", e.to_string())
            .with_detail(obj(vec![("query", Json::str(q))])),
        P::Query(q) => from_query_error(q),
        P::Exec(x) => from_exec_error(x),
        P::Conf(c) => from_conf_error(c),
        P::Storage(s) => from_storage_error(s),
        P::Governed(g) => from_sprout_error(g),
    }
}

/// Maps a static query-analysis error.
pub fn from_query_error(e: &sprout::QueryError) -> WireError {
    use sprout::QueryError as Q;
    match e {
        Q::SelfJoin(r) => WireError::new(400, "SELF_JOIN", e.to_string())
            .with_detail(obj(vec![("relation", Json::str(r))])),
        Q::UnknownHeadAttribute(a) => WireError::new(400, "UNKNOWN_HEAD_ATTRIBUTE", e.to_string())
            .with_detail(obj(vec![("attribute", Json::str(a))])),
        Q::UnknownPredicateAttribute {
            relation,
            attribute,
        } => WireError::new(400, "UNKNOWN_PREDICATE_ATTRIBUTE", e.to_string()).with_detail(obj(
            vec![
                ("relation", Json::str(relation)),
                ("attribute", Json::str(attribute)),
            ],
        )),
        Q::UnknownRelation(r) => WireError::new(400, "UNKNOWN_QUERY_RELATION", e.to_string())
            .with_detail(obj(vec![("relation", Json::str(r))])),
        Q::NotHierarchical { witness } => WireError::new(422, "NOT_HIERARCHICAL", e.to_string())
            .with_detail(obj(vec![("witness", Json::str(witness))])),
        Q::EmptyQuery => WireError::new(400, "EMPTY_QUERY", e.to_string()),
    }
}

/// Maps an execution-substrate error.
pub fn from_exec_error(e: &sprout::ExecError) -> WireError {
    use sprout::ExecError as X;
    match e {
        X::UnknownColumn(c) => WireError::new(400, "UNKNOWN_COLUMN", e.to_string())
            .with_detail(obj(vec![("column", Json::str(c))])),
        X::UnknownRelation(r) => WireError::new(400, "UNKNOWN_LINEAGE_RELATION", e.to_string())
            .with_detail(obj(vec![("relation", Json::str(r))])),
        X::DuplicateRelation(r) => WireError::new(400, "DUPLICATE_RELATION", e.to_string())
            .with_detail(obj(vec![("relation", Json::str(r))])),
        X::Storage(s) => from_storage_error(s),
        // `SafePlan` turns the overflow into `MystiqRuntimeError`, so this
        // arm answers only a caller that runs the fold outside a plan.
        X::Aggregation(_) => WireError::new(500, "MYSTIQ_RUNTIME", e.to_string()),
        X::Governed(g) => from_sprout_error(g),
    }
}

/// Maps a confidence-computation error.
pub fn from_conf_error(e: &sprout::ConfError) -> WireError {
    use sprout::ConfError as C;
    match e {
        C::MissingLineage(r) => WireError::new(500, "MISSING_LINEAGE", e.to_string())
            .with_detail(obj(vec![("relation", Json::str(r))])),
        C::NotOneScan(s) => WireError::new(500, "NOT_ONE_SCAN", e.to_string())
            .with_detail(obj(vec![("signature", Json::str(s))])),
        C::NotReadOnce(s) => WireError::new(422, "NOT_READ_ONCE", e.to_string())
            .with_detail(obj(vec![("lineage", Json::str(s))])),
        C::Query(q) => from_query_error(q),
        C::Exec(x) => from_exec_error(x),
        C::Governed(g) => from_sprout_error(g),
    }
}

/// Maps a storage error (table registration and catalog lookups).
pub fn from_storage_error(e: &sprout::StorageError) -> WireError {
    use sprout::StorageError as S;
    match e {
        S::UnknownTable(t) => WireError::new(404, "UNKNOWN_TABLE", e.to_string())
            .with_detail(obj(vec![("table", Json::str(t))])),
        S::DuplicateTable(t) => WireError::new(409, "DUPLICATE_TABLE", e.to_string())
            .with_detail(obj(vec![("table", Json::str(t))])),
        S::InvalidProbability(p) => WireError::new(400, "INVALID_PROBABILITY", e.to_string())
            .with_detail(obj(vec![("probability", Json::Float(*p))])),
        S::DuplicateColumn(c) => WireError::new(400, "DUPLICATE_COLUMN", e.to_string())
            .with_detail(obj(vec![("column", Json::str(c))])),
        S::UnknownColumn(c) => WireError::new(400, "UNKNOWN_COLUMN", e.to_string())
            .with_detail(obj(vec![("column", Json::str(c))])),
        S::ArityMismatch { expected, actual } => {
            WireError::new(400, "ARITY_MISMATCH", e.to_string()).with_detail(obj(vec![
                ("expected", Json::Int(*expected as i64)),
                ("actual", Json::Int(*actual as i64)),
            ]))
        }
        S::TypeMismatch { column, value } => WireError::new(400, "TYPE_MISMATCH", e.to_string())
            .with_detail(obj(vec![
                ("column", Json::str(column)),
                ("value", Json::str(value)),
            ])),
        // The remaining variants cannot arise from wire input; they map to a
        // generic storage code so the taxonomy stays total.
        other => WireError::new(400, "STORAGE", other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprout::Stage;
    use std::time::Duration;

    #[test]
    fn unsafe_query_maps_to_422_with_the_blocking_pair() {
        let e = PlanError::UnsafeQuery {
            query: "Q'".into(),
            attr_a: "ckey".into(),
            attr_b: "okey".into(),
            table: "Ord".into(),
        };
        let w = from_plan_error(&e);
        assert_eq!((w.status, w.code), (422, "UNSAFE_QUERY"));
        assert_eq!(w.detail.get("attr_a").unwrap().as_str(), Some("ckey"));
        assert_eq!(w.detail.get("attr_b").unwrap().as_str(), Some("okey"));
        assert_eq!(w.detail.get("table").unwrap().as_str(), Some("Ord"));
        let body = w.body().render();
        assert!(body.contains("\"code\":\"UNSAFE_QUERY\"") && body.contains("\"status\":422"));
    }

    #[test]
    fn governed_interruptions_map_to_their_statuses() {
        let cases: Vec<(SproutError, u16, &str)> = vec![
            (
                SproutError::Cancelled { stage: Stage::Scan },
                499,
                "CANCELLED",
            ),
            (
                SproutError::DeadlineExceeded {
                    stage: Stage::Confidence,
                    elapsed: Duration::from_millis(12),
                    deadline: Duration::from_millis(10),
                },
                504,
                "DEADLINE_EXCEEDED",
            ),
            (
                SproutError::MemoryBudgetExceeded {
                    stage: Stage::Join,
                    requested: 64,
                    used: 128,
                    budget: 100,
                },
                507,
                "MEMORY_BUDGET_EXCEEDED",
            ),
            (
                SproutError::WorkerPanic {
                    stage: Stage::Scan,
                    item: 3,
                    message: "secret".into(),
                },
                500,
                "WORKER_PANIC",
            ),
            (
                SproutError::Failed {
                    stage: Stage::Catalog,
                    message: "boom".into(),
                },
                500,
                "INTERNAL",
            ),
        ];
        for (e, status, code) in cases {
            let w = from_sprout_error(&e);
            assert_eq!((w.status, w.code), (status, code), "{e:?}");
            assert!(!w.detail.get("stage").unwrap().as_str().unwrap().is_empty());
        }
        // Deadline carries the partial-bounds slot; panic hides the payload.
        let w = from_sprout_error(&SproutError::DeadlineExceeded {
            stage: Stage::Scan,
            elapsed: Duration::from_millis(2),
            deadline: Duration::from_millis(1),
        });
        assert!(w.detail.get("partial_bounds").unwrap().is_null());
        let w = from_sprout_error(&SproutError::WorkerPanic {
            stage: Stage::Scan,
            item: 0,
            message: "secret".into(),
        });
        assert!(!w.body().render().contains("secret"));
    }

    #[test]
    fn nested_taxonomies_stay_typed() {
        use sprout::QueryError;
        use sprout::StorageError;
        let w = from_plan_error(&PlanError::Storage(StorageError::UnknownTable("T".into())));
        assert_eq!((w.status, w.code), (404, "UNKNOWN_TABLE"));
        let w = from_plan_error(&PlanError::Query(QueryError::UnknownPredicateAttribute {
            relation: "R".into(),
            attribute: "x".into(),
        }));
        assert_eq!((w.status, w.code), (400, "UNKNOWN_PREDICATE_ATTRIBUTE"));
        assert_eq!(w.detail.get("relation").unwrap().as_str(), Some("R"));
        let w = from_storage_error(&StorageError::DuplicateTable("T".into()));
        assert_eq!((w.status, w.code), (409, "DUPLICATE_TABLE"));
        let w = from_storage_error(&StorageError::InvalidProbability(1.5));
        assert_eq!((w.status, w.code), (400, "INVALID_PROBABILITY"));
        let w = from_plan_error(&PlanError::Governed(SproutError::Cancelled {
            stage: Stage::Confidence,
        }));
        assert_eq!(w.status, 499);
    }
}
