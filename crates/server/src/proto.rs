//! The wire protocol: JSON bodies ↔ engine types.
//!
//! Three request shapes:
//!
//! * `POST /tables` — register a tuple-independent table:
//!   `{"name", "schema": [["col","int"], …], "keys": [["a"], …],
//!     "fds": [{"lhs": […], "rhs": […]}, …],
//!     "rows": [{"values": […], "var": 1, "prob": 0.5}, …]}`
//! * `POST /query` — run a conjunctive query:
//!   `{"query": {"relations": [{"name", "attrs"}, …], "head": […],
//!     "predicates": [{"relation", "attribute", "op", "value"| "values"}]},
//!     "kind", "policy", "deadline_ms", "memory_budget", "seed",
//!     "frontier_budget"}`
//! * `GET /health` — load snapshot.
//!
//! Values map to JSON as themselves, except dates, which travel as
//! `{"date": days_since_epoch}` so the integer/date distinction survives the
//! round trip. Floats are rendered with shortest-round-trip precision, so a
//! confidence read off the wire is bitwise the confidence the engine
//! computed.

use pdb_obs::{Counter, QueryObs, SpanNode};
use sprout::{
    ApproxPolicy, CompareOp, ConfMethod, ConjunctiveQuery, DataType, ExplainMode, PlanExplain,
    PlanKind, PlanReport, Predicate, ProbTable, RelationAtom, Schema, Tuple, Value, Variable,
};

use crate::error::WireError;
use crate::json::Json;

fn bad(message: impl Into<String>) -> WireError {
    WireError::new(400, "BAD_REQUEST", message)
}

/// A parsed `POST /tables` body, ready to apply to a catalog.
#[derive(Debug)]
pub struct TableSpec {
    /// Table name.
    pub name: String,
    /// The table itself (schema + rows + variables + probabilities).
    pub table: ProbTable,
    /// Keys to declare after registration.
    pub keys: Vec<Vec<String>>,
    /// Functional dependencies `lhs → rhs` to declare after registration.
    pub fds: Vec<(Vec<String>, Vec<String>)>,
}

/// A parsed `POST /query` body.
#[derive(Debug)]
pub struct QueryRequest {
    /// The validated conjunctive query.
    pub query: ConjunctiveQuery,
    /// Plan family (`None` = lazy).
    pub kind: Option<PlanKind>,
    /// Approximation policy for unsafe queries.
    pub policy: Option<ApproxPolicy>,
    /// Per-request deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Per-request memory budget in bytes.
    pub memory_budget: Option<usize>,
    /// Seed for the fallback's refinement tie-breaker.
    pub seed: u64,
    /// Frontier cap override: absent = default, `null` = uncapped,
    /// integer = cap in bytes.
    pub frontier_budget: Option<Option<usize>>,
    /// `"plan"` describes the chosen plan without executing; `"analyze"`
    /// executes with tracing on and appends the trailer line.
    pub explain: Option<ExplainMode>,
}

/// Parses a `POST /tables` body.
///
/// # Errors
/// `400 BAD_REQUEST` on any shape violation; value/schema mismatches surface
/// later as typed storage errors when the spec is applied.
pub fn parse_table(body: &Json) -> Result<TableSpec, WireError> {
    let name = body
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("`name` must be a string"))?
        .to_string();
    let schema_json = body
        .get("schema")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("`schema` must be an array of [column, type] pairs"))?;
    let mut pairs = Vec::with_capacity(schema_json.len());
    for entry in schema_json {
        let pair = entry
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| bad("each `schema` entry must be a [column, type] pair"))?;
        let col = pair[0]
            .as_str()
            .ok_or_else(|| bad("schema column name must be a string"))?;
        let ty = match pair[1].as_str() {
            Some("int") => DataType::Int,
            Some("float") => DataType::Float,
            Some("str") => DataType::Str,
            Some("date") => DataType::Date,
            Some("bool") => DataType::Bool,
            _ => {
                return Err(bad(format!(
                    "unknown column type {} (expected int/float/str/date/bool)",
                    pair[1].render()
                )))
            }
        };
        pairs.push((col, ty));
    }
    let schema = Schema::from_pairs(&pairs).map_err(|e| crate::error::from_storage_error(&e))?;

    let mut table = ProbTable::new(schema.clone());
    for (i, row) in list(body, "rows")?.iter().enumerate() {
        let values = row
            .get("values")
            .and_then(Json::as_array)
            .ok_or_else(|| bad(format!("row {i}: `values` must be an array")))?;
        let mut tuple = Vec::with_capacity(values.len());
        for (j, v) in values.iter().enumerate() {
            let mut value =
                json_to_value(v).map_err(|e| bad(format!("row {i}, column {j}: {e}")))?;
            // An integer arriving in a date column is days since epoch.
            if let (Some(col), Value::Int(n)) = (schema.columns().get(j), &value) {
                if col.data_type == DataType::Date {
                    let days = i32::try_from(*n).map_err(|_| {
                        bad(format!(
                            "row {i}, column {j}: date value {n} is out of the representable range"
                        ))
                    })?;
                    value = Value::Date(days);
                }
            }
            tuple.push(value);
        }
        let var = row
            .get("var")
            .and_then(Json::as_i64)
            .filter(|v| *v >= 0)
            .ok_or_else(|| bad(format!("row {i}: `var` must be a non-negative integer")))?;
        let prob = row
            .get("prob")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad(format!("row {i}: `prob` must be a number")))?;
        table
            .insert(Tuple::new(tuple), Variable(var as u64), prob)
            .map_err(|e| crate::error::from_storage_error(&e))?;
    }

    let mut keys = Vec::new();
    for key in list(body, "keys")? {
        keys.push(string_list(key, "each key")?);
    }
    let mut fds = Vec::new();
    for fd in list(body, "fds")? {
        let lhs = fd
            .get("lhs")
            .ok_or_else(|| bad("each fd needs `lhs` and `rhs` arrays"))?;
        let rhs = fd
            .get("rhs")
            .ok_or_else(|| bad("each fd needs `lhs` and `rhs` arrays"))?;
        fds.push((string_list(lhs, "fd `lhs`")?, string_list(rhs, "fd `rhs`")?));
    }

    // Validate key/FD attributes against the schema *before* the spec is
    // applied: registration must be atomic, so every declare that would
    // fail after `register_table` has to be rejected here, while no state
    // has been committed yet.
    for attr in keys.iter().flatten().chain(
        fds.iter()
            .flat_map(|(lhs, rhs)| lhs.iter().chain(rhs.iter())),
    ) {
        if !schema.contains(attr) {
            return Err(crate::error::from_storage_error(
                &sprout::StorageError::UnknownColumn(attr.clone()),
            ));
        }
    }

    Ok(TableSpec {
        name,
        table,
        keys,
        fds,
    })
}

/// Parses a `POST /query` body. Query validation (self-joins, unknown
/// attributes, …) happens here via [`ConjunctiveQuery::new`] and surfaces as
/// typed 4xx errors.
///
/// # Errors
/// `400 BAD_REQUEST` on shape violations; the [`sprout::QueryError`] mapping
/// for semantic ones.
pub fn parse_query(body: &Json) -> Result<QueryRequest, WireError> {
    let query_json = body
        .get("query")
        .ok_or_else(|| bad("`query` object is required"))?;

    let mut relations = Vec::new();
    for (i, rel) in list(query_json, "relations")?.iter().enumerate() {
        let name = rel
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad(format!("relation {i}: `name` must be a string")))?;
        let attrs = string_list(
            rel.get("attrs")
                .ok_or_else(|| bad(format!("relation {i}: `attrs` must be an array")))?,
            "`attrs`",
        )?;
        let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        relations.push(RelationAtom::new(name, &attrs));
    }

    let head = match query_json.get("head") {
        None => Vec::new(),
        Some(h) => string_list(h, "`head`")?,
    };

    let mut predicates = Vec::new();
    if let Some(preds) = query_json.get("predicates") {
        for (i, p) in preds
            .as_array()
            .ok_or_else(|| bad("`predicates` must be an array"))?
            .iter()
            .enumerate()
        {
            predicates.push(parse_predicate(p, i)?);
        }
    }

    let query = ConjunctiveQuery::new(relations, head, predicates)
        .map_err(|e| crate::error::from_query_error(&e))?;

    let kind = match body.get("kind") {
        None => None,
        Some(k) => Some(parse_kind(k)?),
    };
    let policy = match body.get("policy") {
        None => None,
        Some(p) => Some(parse_policy(p)?),
    };
    let deadline_ms = opt_u64(body, "deadline_ms")?;
    let memory_budget = opt_u64(body, "memory_budget")?.map(|v| v as usize);
    let seed = opt_u64(body, "seed")?.unwrap_or(0);
    // Tri-state: absent = default cap, null = uncapped, n = cap at n bytes.
    let frontier_budget = match body.get("frontier_budget") {
        None => None,
        Some(Json::Null) => Some(None),
        Some(v) => match v.as_i64().filter(|n| *n >= 0) {
            Some(n) => Some(Some(n as usize)),
            None => {
                return Err(bad(
                    "`frontier_budget` must be null or a non-negative integer",
                ))
            }
        },
    };

    let explain = match body.get("explain") {
        None | Some(Json::Null) => None,
        Some(e) => match e.as_str() {
            Some("plan") => Some(ExplainMode::Plan),
            Some("analyze") => Some(ExplainMode::Analyze),
            _ => return Err(bad("`explain` must be \"plan\" or \"analyze\"")),
        },
    };

    Ok(QueryRequest {
        query,
        kind,
        policy,
        deadline_ms,
        memory_budget,
        seed,
        frontier_budget,
        explain,
    })
}

fn parse_predicate(p: &Json, i: usize) -> Result<Predicate, WireError> {
    let relation = p
        .get("relation")
        .and_then(Json::as_str)
        .ok_or_else(|| bad(format!("predicate {i}: `relation` must be a string")))?;
    let attribute = p
        .get("attribute")
        .and_then(Json::as_str)
        .ok_or_else(|| bad(format!("predicate {i}: `attribute` must be a string")))?;
    let op = p
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad(format!("predicate {i}: `op` must be a string")))?;
    if op == "in" {
        let values = p
            .get("values")
            .and_then(Json::as_array)
            .ok_or_else(|| bad(format!("predicate {i}: `in` needs a `values` array")))?;
        let mut list = Vec::with_capacity(values.len());
        for v in values {
            list.push(json_to_value(v).map_err(|e| bad(format!("predicate {i}: {e}")))?);
        }
        return Ok(Predicate::is_in(relation, attribute, list));
    }
    let op = match op {
        "=" | "==" => CompareOp::Eq,
        "!=" | "<>" => CompareOp::Ne,
        "<" => CompareOp::Lt,
        "<=" => CompareOp::Le,
        ">" => CompareOp::Gt,
        ">=" => CompareOp::Ge,
        other => {
            return Err(bad(format!(
                "predicate {i}: unknown op `{other}` (expected =, !=, <, <=, >, >=, in)"
            )))
        }
    };
    let value = p
        .get("value")
        .ok_or_else(|| bad(format!("predicate {i}: `value` is required")))?;
    let value = json_to_value(value).map_err(|e| bad(format!("predicate {i}: {e}")))?;
    Ok(Predicate::new(relation, attribute, op, value))
}

fn parse_kind(k: &Json) -> Result<PlanKind, WireError> {
    if let Some(s) = k.as_str() {
        return match s {
            "lazy" => Ok(PlanKind::Lazy),
            "eager" => Ok(PlanKind::Eager),
            "mystiq" => Ok(PlanKind::Mystiq),
            "mystiq-log" => Ok(PlanKind::MystiqLogSpace),
            other => Err(bad(format!(
                "unknown plan kind `{other}` (expected lazy/eager/mystiq/mystiq-log or {{\"hybrid\": […]}})"
            ))),
        };
    }
    if let Some(pushed) = k.get("hybrid") {
        return Ok(PlanKind::Hybrid(string_list(pushed, "`hybrid`")?));
    }
    Err(bad("`kind` must be a string or {\"hybrid\": […]}"))
}

fn parse_policy(p: &Json) -> Result<ApproxPolicy, WireError> {
    if p.as_str() == Some("exact") {
        return Ok(ApproxPolicy::Exact);
    }
    if let Some(bounds) = p.get("bounds") {
        let eps = bounds
            .get("eps")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("`policy.bounds.eps` must be a number"))?;
        if eps.is_nan() || eps < 0.0 {
            return Err(bad("`policy.bounds.eps` must be non-negative"));
        }
        return Ok(ApproxPolicy::Bounds { eps });
    }
    Err(bad(
        "`policy` must be \"exact\" or {\"bounds\": {\"eps\": …}}",
    ))
}

/// Engine value → wire JSON. Dates travel as `{"date": days}` so they stay
/// distinguishable from plain integers.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => Json::Float(*f),
        Value::Str(s) => Json::Str(s.to_string()),
        Value::Date(d) => Json::Object(vec![("date".to_string(), Json::Int(*d as i64))]),
        Value::Bool(b) => Json::Bool(*b),
    }
}

/// Wire JSON → engine value (inverse of [`value_to_json`]).
///
/// # Errors
/// Describes the offending shape (arrays and non-date objects are not
/// values).
pub fn json_to_value(j: &Json) -> Result<Value, String> {
    match j {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Float(f) => Ok(Value::Float(*f)),
        Json::Str(s) => Ok(Value::str(s)),
        Json::Object(_) => match j.get("date").and_then(Json::as_i64) {
            Some(d) => i32::try_from(d)
                .map(Value::Date)
                .map_err(|_| format!("date value {d} is out of the representable range")),
            None => Err(format!("{} is not a value", j.render())),
        },
        Json::Array(_) => Err(format!("{} is not a value", j.render())),
    }
}

/// Renders the answer stream for a report: one header line, then one line
/// per answer tuple, ranked by confidence descending (ties keep the
/// engine's deterministic tuple order). Every line includes its rank so
/// clients can detect truncation.
pub fn answer_lines(report: &PlanReport) -> Vec<String> {
    let mut header = vec![
        (
            "answers".to_string(),
            Json::Int(report.confidences.len() as i64),
        ),
        ("kind".to_string(), Json::Str(report.kind.to_string())),
    ];
    let max_width = report
        .approx
        .as_ref()
        .map(|brackets| brackets.iter().map(|b| b.width()).fold(0.0f64, f64::max));
    header.push((
        "exact".to_string(),
        Json::Bool(max_width.is_none_or(|w| w == 0.0)),
    ));
    if let Some(w) = max_width {
        header.push(("max_width".to_string(), Json::Float(w)));
    }
    let mut lines = vec![Json::Object(header).render()];

    match &report.approx {
        None => {
            let mut ranked: Vec<&(Tuple, f64)> = report.confidences.iter().collect();
            ranked.sort_by(|a, b| sprout::total_f64_cmp(b.1, a.1));
            for (rank, (tuple, p)) in ranked.into_iter().enumerate() {
                lines.push(
                    Json::Object(vec![
                        ("rank".to_string(), Json::Int(rank as i64)),
                        (
                            "tuple".to_string(),
                            Json::Array(tuple.values().iter().map(value_to_json).collect()),
                        ),
                        ("confidence".to_string(), Json::Float(*p)),
                    ])
                    .render(),
                );
            }
        }
        Some(brackets) => {
            let mut ranked: Vec<&sprout::TupleConfidence> = brackets.iter().collect();
            ranked.sort_by(|a, b| sprout::total_f64_cmp(b.value(), a.value()));
            for (rank, b) in ranked.into_iter().enumerate() {
                lines.push(
                    Json::Object(vec![
                        ("rank".to_string(), Json::Int(rank as i64)),
                        (
                            "tuple".to_string(),
                            Json::Array(b.tuple.values().iter().map(value_to_json).collect()),
                        ),
                        ("confidence".to_string(), Json::Float(b.value())),
                        ("lo".to_string(), Json::Float(b.lo)),
                        ("hi".to_string(), Json::Float(b.hi)),
                        (
                            "method".to_string(),
                            Json::Str(
                                match b.method {
                                    ConfMethod::ReadOnce => "read-once",
                                    ConfMethod::Dissociation => "dissociation",
                                }
                                .to_string(),
                            ),
                        ),
                        ("rounds".to_string(), Json::Int(b.rounds as i64)),
                    ])
                    .render(),
                );
            }
        }
    }
    lines
}

/// Renders a [`PlanExplain`] as the `"explain": "plan"` response document:
/// the chosen path, tractability, signature, join order, per-scan backing,
/// pushdowns and semi-join reduction filters, and the policy in force —
/// all as plain data.
pub fn explain_json(ex: &PlanExplain) -> Json {
    let mut fields = vec![
        ("kind".to_string(), Json::Str(ex.kind.to_string())),
        ("path".to_string(), Json::str(ex.path.name())),
        ("tractable".to_string(), Json::Bool(ex.tractable)),
        ("uses_fds".to_string(), Json::Bool(ex.uses_fds)),
    ];
    match &ex.signature {
        Some(sig) => fields.push(("signature".to_string(), Json::str(sig))),
        None => fields.push(("signature".to_string(), Json::Null)),
    }
    fields.push((
        "scans".to_string(),
        ex.scans.map_or(Json::Null, |n| Json::Int(n as i64)),
    ));
    fields.push((
        "policy".to_string(),
        match ex.policy {
            None => Json::Null,
            Some(ApproxPolicy::Exact) => Json::str("exact"),
            Some(ApproxPolicy::Bounds { eps }) => Json::Object(vec![(
                "bounds".to_string(),
                Json::Object(vec![("eps".to_string(), Json::Float(eps))]),
            )]),
        },
    ));
    fields.push((
        "join_order".to_string(),
        Json::Array(ex.join_order.iter().map(Json::str).collect()),
    ));
    fields.push((
        "scan_details".to_string(),
        Json::Array(
            ex.scan_details
                .iter()
                .map(|s| {
                    Json::Object(vec![
                        ("relation".to_string(), Json::str(&s.relation)),
                        ("backing".to_string(), Json::str(s.backing)),
                        ("rows".to_string(), Json::Int(s.rows as i64)),
                        (
                            "pushdowns".to_string(),
                            Json::Array(s.pushdowns.iter().map(Json::str).collect()),
                        ),
                        (
                            "reductions".to_string(),
                            Json::Array(s.reductions.iter().map(Json::str).collect()),
                        ),
                    ])
                })
                .collect(),
        ),
    ));
    Json::Object(fields)
}

/// Renders one span of the executed trace, children nested.
fn span_json(node: &SpanNode) -> Json {
    Json::Object(vec![
        ("site".to_string(), Json::str(node.site)),
        ("detail".to_string(), Json::str(&node.detail)),
        ("start_us".to_string(), Json::Int(node.start_us as i64)),
        ("elapsed_us".to_string(), Json::Int(node.elapsed_us as i64)),
        (
            "counters".to_string(),
            Json::Object(
                node.counters
                    .iter()
                    .map(|(name, v)| ((*name).to_string(), Json::Int(*v as i64)))
                    .collect(),
            ),
        ),
        (
            "children".to_string(),
            Json::Array(node.children.iter().map(span_json).collect()),
        ),
    ])
}

/// The EXPLAIN ANALYZE trailer: one NDJSON object appended after the answer
/// lines, keyed `"analyze"` so clients can tell it from an answer. Carries
/// the explained plan, the full deterministic counter set (zeros included,
/// so the schema is stable), and the executed span tree. Span durations are
/// wall-clock and outside the determinism contract; the counters are not.
pub fn analyze_trailer(explain: Option<&PlanExplain>, obs: &QueryObs) -> Json {
    let values = obs.counter_values();
    let counters = Counter::ALL
        .iter()
        .map(|&c| (c.name().to_string(), Json::Int(values[c as usize] as i64)))
        .collect();
    Json::Object(vec![(
        "analyze".to_string(),
        Json::Object(vec![
            ("plan".to_string(), explain.map_or(Json::Null, explain_json)),
            ("counters".to_string(), Json::Object(counters)),
            (
                "spans".to_string(),
                Json::Array(obs.span_tree().iter().map(span_json).collect()),
            ),
        ]),
    )])
}

fn list<'a>(body: &'a Json, field: &str) -> Result<&'a [Json], WireError> {
    match body.get(field) {
        None => Ok(&[]),
        Some(v) => v
            .as_array()
            .ok_or_else(|| bad(format!("`{field}` must be an array"))),
    }
}

fn string_list(j: &Json, what: &str) -> Result<Vec<String>, WireError> {
    j.as_array()
        .ok_or_else(|| bad(format!("{what} must be an array of strings")))?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| bad(format!("{what} must contain only strings")))
        })
        .collect()
}

fn opt_u64(body: &Json, field: &str) -> Result<Option<u64>, WireError> {
    match body.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => match v.as_i64().filter(|n| *n >= 0) {
            Some(n) => Ok(Some(n as u64)),
            None => Err(bad(format!("`{field}` must be a non-negative integer"))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_table_spec_with_keys_and_fds() {
        let body = Json::parse(
            br#"{"name":"Ord","schema":[["okey","int"],["odate","date"]],
                 "keys":[["okey"]],
                 "fds":[{"lhs":["okey"],"rhs":["odate"]}],
                 "rows":[{"values":[1, 9140],"var":7,"prob":0.4}]}"#,
        )
        .unwrap();
        let spec = parse_table(&body).unwrap();
        assert_eq!(spec.name, "Ord");
        assert_eq!(spec.table.len(), 1);
        // The int in the date column was coerced.
        assert_eq!(spec.table.rows()[0].value(1), &Value::Date(9140));
        assert_eq!(spec.table.triple(0).1, Variable(7));
        assert_eq!(spec.keys, vec![vec!["okey".to_string()]]);
        assert_eq!(
            spec.fds,
            vec![(vec!["okey".to_string()], vec!["odate".to_string()])]
        );
    }

    #[test]
    fn table_shape_violations_are_bad_requests() {
        for raw in [
            r#"{"schema":[]}"#,
            r#"{"name":"T","schema":[["a"]]}"#,
            r#"{"name":"T","schema":[["a","decimal"]]}"#,
            r#"{"name":"T","schema":[["a","int"]],"rows":[{"values":[1],"prob":0.5}]}"#,
            r#"{"name":"T","schema":[["a","int"]],"rows":[{"values":[1],"var":-3,"prob":0.5}]}"#,
            r#"{"name":"T","schema":[["a","int"]],"rows":[{"values":[[1]],"var":0,"prob":0.5}]}"#,
        ] {
            let err = parse_table(&Json::parse(raw.as_bytes()).unwrap()).unwrap_err();
            assert_eq!(err.status, 400, "{raw}");
        }
        // A bad probability is a typed storage error, not a generic 400.
        let raw =
            r#"{"name":"T","schema":[["a","int"]],"rows":[{"values":[1],"var":0,"prob":1.5}]}"#;
        let err = parse_table(&Json::parse(raw.as_bytes()).unwrap()).unwrap_err();
        assert_eq!(err.code, "INVALID_PROBABILITY");
    }

    #[test]
    fn key_and_fd_columns_are_validated_before_the_spec_is_applied() {
        // Dangling key/FD attributes fail at parse time, so a registration
        // either commits the table *with* its metadata or commits nothing.
        for raw in [
            r#"{"name":"T","schema":[["a","int"]],"keys":[["nope"]]}"#,
            r#"{"name":"T","schema":[["a","int"]],"fds":[{"lhs":["a"],"rhs":["nope"]}]}"#,
            r#"{"name":"T","schema":[["a","int"]],"fds":[{"lhs":["nope"],"rhs":["a"]}]}"#,
        ] {
            let err = parse_table(&Json::parse(raw.as_bytes()).unwrap()).unwrap_err();
            assert_eq!((err.status, err.code), (400, "UNKNOWN_COLUMN"), "{raw}");
        }
    }

    #[test]
    fn out_of_range_dates_are_rejected_not_wrapped() {
        // 2^31 would silently wrap through `as i32`.
        let err = json_to_value(&Json::parse(br#"{"date":2147483648}"#).unwrap()).unwrap_err();
        assert!(err.contains("out of the representable range"), "{err}");
        let raw = r#"{"name":"T","schema":[["d","date"]],
                      "rows":[{"values":[2147483648],"var":0,"prob":0.5}]}"#;
        let err = parse_table(&Json::parse(raw.as_bytes()).unwrap()).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("out of the representable range"));
        // The extremes of the representable range still pass.
        assert_eq!(
            json_to_value(&Json::parse(br#"{"date":-2147483648}"#).unwrap()).unwrap(),
            Value::Date(i32::MIN)
        );
    }

    #[test]
    fn parses_a_query_request_with_all_options() {
        let body = Json::parse(
            br#"{"query":{"relations":[{"name":"Cust","attrs":["ckey"]},
                                        {"name":"Ord","attrs":["ckey","odate"]}],
                          "head":["odate"],
                          "predicates":[{"relation":"Cust","attribute":"ckey","op":"<","value":3},
                                        {"relation":"Ord","attribute":"odate","op":"in",
                                         "values":[{"date":9140},{"date":9141}]}]},
                 "kind":{"hybrid":["Cust"]},
                 "policy":{"bounds":{"eps":0.01}},
                 "deadline_ms":250,"memory_budget":1048576,"seed":42,
                 "frontier_budget":65536}"#,
        )
        .unwrap();
        let req = parse_query(&body).unwrap();
        assert_eq!(req.query.relations.len(), 2);
        assert_eq!(req.query.head, vec!["odate"]);
        assert_eq!(req.query.predicates.len(), 2);
        assert_eq!(req.query.predicates[1].constant, Value::Date(9140));
        assert_eq!(req.kind, Some(PlanKind::Hybrid(vec!["Cust".to_string()])));
        assert_eq!(req.policy, Some(ApproxPolicy::Bounds { eps: 0.01 }));
        assert_eq!(req.deadline_ms, Some(250));
        assert_eq!(req.memory_budget, Some(1 << 20));
        assert_eq!(req.seed, 42);
        assert_eq!(req.frontier_budget, Some(Some(65536)));
    }

    #[test]
    fn frontier_budget_tristate() {
        let parse = |raw: &str| parse_query(&Json::parse(raw.as_bytes()).unwrap());
        let base = r#""query":{"relations":[{"name":"R","attrs":["a"]}],"head":["a"]}"#;
        assert_eq!(parse(&format!("{{{base}}}")).unwrap().frontier_budget, None);
        assert_eq!(
            parse(&format!("{{{base},\"frontier_budget\":null}}"))
                .unwrap()
                .frontier_budget,
            Some(None)
        );
        assert_eq!(
            parse(&format!("{{{base},\"frontier_budget\":64}}"))
                .unwrap()
                .frontier_budget,
            Some(Some(64))
        );
        assert_eq!(
            parse(&format!("{{{base},\"frontier_budget\":-1}}"))
                .unwrap_err()
                .status,
            400
        );
    }

    #[test]
    fn semantic_query_errors_come_back_typed() {
        // Self-join.
        let raw = br#"{"query":{"relations":[{"name":"R","attrs":["a"]},
                                              {"name":"R","attrs":["a"]}],"head":["a"]}}"#;
        let err = parse_query(&Json::parse(raw).unwrap()).unwrap_err();
        assert_eq!(err.code, "SELF_JOIN");
        // Unknown head attribute.
        let raw = br#"{"query":{"relations":[{"name":"R","attrs":["a"]}],"head":["z"]}}"#;
        let err = parse_query(&Json::parse(raw).unwrap()).unwrap_err();
        assert_eq!(err.code, "UNKNOWN_HEAD_ATTRIBUTE");
        // Unknown op.
        let raw = br#"{"query":{"relations":[{"name":"R","attrs":["a"]}],"head":["a"],
                       "predicates":[{"relation":"R","attribute":"a","op":"~","value":1}]}}"#;
        let err = parse_query(&Json::parse(raw).unwrap()).unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn values_round_trip_through_json() {
        let values = [
            Value::Null,
            Value::Int(-7),
            Value::Float(0.0028),
            Value::str("a'b\"c"),
            Value::Date(9140),
            Value::Bool(true),
        ];
        for v in &values {
            let j = value_to_json(v);
            let back = json_to_value(&Json::parse(j.render().as_bytes()).unwrap()).unwrap();
            assert_eq!(&back, v, "{}", j.render());
        }
        assert!(json_to_value(&Json::parse(b"[1]").unwrap()).is_err());
        assert!(json_to_value(&Json::parse(br#"{"x":1}"#).unwrap()).is_err());
    }
}
