//! End-to-end observability tests over loopback TCP: `"explain": "plan"`
//! plan documents, `"explain": "analyze"` NDJSON trailers (and that tracing
//! leaves the answer lines bitwise-identical), the Prometheus page at
//! `GET /metrics`, the `GET /debug/queries` ring, the enriched `/health`
//! document, and the admission-state detail on shed responses.

mod common;

use std::time::Duration;

use common::{one_shot, query_body, table_body, Client};
use pdb_exec::fixtures;
use pdb_query::cq::{intro_query_q, intro_query_q_prime};
use sprout::SproutDb;
use sprout_server::{Json, ServerConfig, SproutServer};

fn test_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

/// Registers the Fig. 1 tables (with the key declarations) over the wire.
fn register_fig1(addr: std::net::SocketAddr) {
    let mut client = Client::connect(addr);
    for (name, table, keys) in [
        ("Cust", fixtures::fig1_cust(), vec!["ckey"]),
        ("Ord", fixtures::fig1_ord(), vec!["okey"]),
        ("Item", fixtures::fig1_item(), vec![]),
    ] {
        let keys: Vec<&[&str]> = if keys.is_empty() {
            vec![]
        } else {
            vec![&keys[..]]
        };
        let resp = client.request("POST", "/tables", &table_body(name, &table, &keys, &[]));
        assert_eq!(resp.status, 201, "{}: {}", name, resp.body);
    }
}

/// Extracts the first sample value of a Prometheus family from the page.
fn prom_value(page: &str, sample: &str) -> f64 {
    page.lines()
        .find_map(|l| {
            l.strip_prefix(sample)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or_else(|| panic!("no sample {sample:?} in page:\n{page}"))
}

#[test]
fn explain_plan_describes_the_plan_without_executing() {
    let server = SproutServer::bind(SproutDb::new(), "127.0.0.1:0", test_config()).unwrap();
    let addr = server.addr();
    register_fig1(addr);

    let resp = one_shot(
        addr,
        "POST",
        "/query",
        &query_body(&intro_query_q(), &[("explain", "\"plan\"")]),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    let plan = resp.json();
    assert_eq!(plan.get("kind").and_then(Json::as_str), Some("lazy"));
    assert_eq!(plan.get("path").and_then(Json::as_str), Some("safe"));
    assert_eq!(plan.get("tractable"), Some(&Json::Bool(true)));
    assert_eq!(
        plan.get("signature").and_then(Json::as_str),
        Some("(Cust (Ord Item*)*)*")
    );
    let order = plan.get("join_order").unwrap().as_array().unwrap();
    assert_eq!(order.len(), 3, "{}", resp.body);
    let scans = plan.get("scan_details").unwrap().as_array().unwrap();
    assert_eq!(scans.len(), 3);
    for scan in scans {
        assert_eq!(scan.get("backing").and_then(Json::as_str), Some("row"));
        assert!(scan.get("rows").and_then(Json::as_i64).unwrap() > 0);
        let reductions = scan.get("reductions").unwrap().as_array().unwrap();
        assert!(reductions.is_empty(), "a lazy scan takes no reduction");
    }

    // An eager plan's scans list the key sets of the leaves before them.
    let resp = one_shot(
        addr,
        "POST",
        "/query",
        &query_body(
            &intro_query_q(),
            &[("explain", "\"plan\""), ("kind", "\"eager\"")],
        ),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    let plan = resp.json();
    let reductions: Vec<&str> = (plan.get("scan_details").unwrap().as_array().unwrap())
        .iter()
        .flat_map(|s| s.get("reductions").unwrap().as_array().unwrap())
        .map(|r| r.as_str().unwrap())
        .collect();
    assert_eq!(
        reductions,
        [
            "Item.ckey ⊆ keys(Cust)",
            "Ord.okey ⊆ keys(Item)",
            "Ord.ckey ⊆ keys(Cust, Item)"
        ],
        "{}",
        resp.body
    );

    // A hybrid plan's scans list the running result before them.
    let resp = one_shot(
        addr,
        "POST",
        "/query",
        &query_body(
            &intro_query_q(),
            &[("explain", "\"plan\""), ("kind", r#"{"hybrid":["Item"]}"#)],
        ),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    let plan = resp.json();
    let reductions: Vec<&str> = (plan.get("scan_details").unwrap().as_array().unwrap())
        .iter()
        .flat_map(|s| s.get("reductions").unwrap().as_array().unwrap())
        .map(|r| r.as_str().unwrap())
        .collect();
    assert_eq!(
        reductions,
        [
            "Item.ckey ⊆ keys(Cust)",
            "Ord.okey ⊆ keys(Cust ⋈ Item)",
            "Ord.ckey ⊆ keys(Cust ⋈ Item)"
        ],
        "{}",
        resp.body
    );

    // The plan pass never executes: nothing reaches the debug ring and no
    // engine rows are counted.
    let debug = one_shot(addr, "GET", "/debug/queries", "").json();
    assert!(debug.get("recent").unwrap().as_array().unwrap().is_empty());
    let page = one_shot(addr, "GET", "/metrics", "");
    assert_eq!(
        prom_value(&page.body, "sprout_engine_rows_scanned_total "),
        0.0
    );

    // An unexplainable query reports the same typed error explain-free
    // execution would.
    server.shutdown();
    let keyless = SproutServer::bind(
        SproutDb::from_catalog(fixtures::fig1_catalog()),
        "127.0.0.1:0",
        test_config(),
    )
    .unwrap();
    let resp = one_shot(
        keyless.addr(),
        "POST",
        "/query",
        &query_body(&intro_query_q_prime(), &[("explain", "\"plan\"")]),
    );
    assert_eq!(
        (resp.status, resp.error_code().as_str()),
        (422, "UNSAFE_QUERY")
    );
    keyless.shutdown();
}

#[test]
fn explain_analyze_appends_a_trailer_and_leaves_answers_identical() {
    let server = SproutServer::bind(SproutDb::new(), "127.0.0.1:0", test_config()).unwrap();
    let addr = server.addr();
    register_fig1(addr);

    let plain = one_shot(addr, "POST", "/query", &query_body(&intro_query_q(), &[]));
    assert_eq!(plain.status, 200, "{}", plain.body);

    let resp = one_shot(
        addr,
        "POST",
        "/query",
        &query_body(&intro_query_q(), &[("explain", "\"analyze\"")]),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    let lines = resp.lines();
    // Header + answers are bitwise what the untraced run streams; only one
    // trailer line is appended.
    assert_eq!(lines.len(), plain.lines().len() + 1, "{}", resp.body);
    assert_eq!(lines[..lines.len() - 1], plain.lines()[..]);

    let trailer = Json::parse(lines.last().unwrap()).expect("trailer is JSON");
    let analyze = trailer.get("analyze").expect("trailer has analyze key");
    // The executed plan document rides along.
    let plan = analyze.get("plan").unwrap();
    assert_eq!(plan.get("path").and_then(Json::as_str), Some("safe"));
    // The counter object has the full stable schema (zeros included) and a
    // real scan count.
    let counters = analyze.get("counters").unwrap();
    assert!(counters.get("rows_scanned").and_then(Json::as_i64).unwrap() > 0);
    assert!(counters.get("chunks_scanned").is_some(), "{}", resp.body);
    // The span tree is rooted at planning and timed.
    let spans = analyze.get("spans").unwrap().as_array().unwrap();
    assert!(!spans.is_empty(), "{}", resp.body);
    assert_eq!(spans[0].get("site").and_then(Json::as_str), Some("plan"));
    assert!(spans[0].get("elapsed_us").and_then(Json::as_i64).is_some());
    assert!(!spans[0]
        .get("children")
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());
    server.shutdown();
}

#[test]
fn metrics_page_and_debug_ring_reflect_served_queries() {
    let server = SproutServer::bind(SproutDb::new(), "127.0.0.1:0", test_config()).unwrap();
    let addr = server.addr();
    register_fig1(addr);

    let resp = one_shot(addr, "POST", "/query", &query_body(&intro_query_q(), &[]));
    assert_eq!(resp.status, 200, "{}", resp.body);
    // And one admitted query that fails inside the engine.
    let ghost = sprout::ConjunctiveQuery::build(&[("Ghost", &["a"])], &["a"], vec![]).unwrap();
    let resp = one_shot(addr, "POST", "/query", &query_body(&ghost, &[]));
    assert_eq!(resp.status, 404, "{}", resp.body);

    let page = one_shot(addr, "GET", "/metrics", "");
    assert_eq!(page.status, 200);
    assert!(
        page.header("Content-Type")
            .unwrap()
            .starts_with("text/plain"),
        "{:?}",
        page.headers
    );
    let text = &page.body;
    assert!(prom_value(text, "sprout_uptime_seconds ") >= 0.0);
    assert_eq!(prom_value(text, "sprout_active_queries "), 0.0);
    assert_eq!(prom_value(text, "sprout_catalog_tables "), 3.0);
    assert!(prom_value(text, "sprout_table_rows{table=\"Cust\"} ") > 0.0);
    assert_eq!(prom_value(text, "sprout_queries_ok_total "), 1.0);
    assert_eq!(prom_value(text, "sprout_queries_failed_total "), 1.0);
    assert_eq!(prom_value(text, "sprout_exec_seconds_count "), 2.0);
    // The deterministic engine totals merged in from the finished query.
    assert!(prom_value(text, "sprout_engine_rows_scanned_total ") > 0.0);
    assert!(prom_value(text, "sprout_engine_answer_rows_total ") >= 1.0);

    let debug = one_shot(addr, "GET", "/debug/queries", "");
    assert_eq!(debug.status, 200);
    let body = debug.json();
    assert!(body
        .get("in_flight")
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());
    let recent = body.get("recent").unwrap().as_array().unwrap();
    assert_eq!(recent.len(), 2, "{}", debug.body);
    // Ring entries are written after the answer stream flushes, so the two
    // queries may land in either order — find them by outcome.
    let by_status = |status: &str| {
        recent
            .iter()
            .find(|q| q.get("status").and_then(Json::as_str) == Some(status))
            .unwrap_or_else(|| panic!("no {status:?} entry in {}", debug.body))
    };
    let ok = by_status("ok");
    assert_eq!(ok.get("answers").and_then(Json::as_i64), Some(1));
    assert!(ok.get("rows_scanned").and_then(Json::as_i64).unwrap() > 0);
    assert!(ok
        .get("query")
        .and_then(Json::as_str)
        .unwrap()
        .contains("Cust"));
    by_status("UNKNOWN_TABLE");
    server.shutdown();
}

/// The row gauges and the `POST /tables` response read the registered
/// backing's length: on a columnar catalog a scrape must not convert every
/// table to rows to count them.
#[test]
fn table_row_gauges_read_the_backing_of_a_columnar_catalog() {
    use pdb_tpch::{probabilistic_catalog_columnar, TpchData, TpchScale};

    let data = TpchData::generate(TpchScale::new(0.002));
    let catalog = probabilistic_catalog_columnar(&data, 1).unwrap();
    let expected: Vec<(String, usize)> = catalog
        .table_names()
        .into_iter()
        .map(|name| {
            let backing = catalog.backing(&name).unwrap();
            assert!(matches!(backing, pdb_storage::StorageBacking::Columnar(_)));
            (name, backing.len())
        })
        .collect();
    assert_eq!(expected.len(), 9);
    let server = SproutServer::bind(
        SproutDb::from_catalog(catalog),
        "127.0.0.1:0",
        test_config(),
    )
    .unwrap();
    let addr = server.addr();

    let page = one_shot(addr, "GET", "/metrics", "");
    assert_eq!(page.status, 200);
    assert_eq!(prom_value(&page.body, "sprout_catalog_tables "), 9.0);
    for (name, rows) in &expected {
        assert_eq!(
            prom_value(
                &page.body,
                &format!("sprout_table_rows{{table=\"{name}\"}} ")
            ),
            *rows as f64,
            "{name}"
        );
    }

    let cust = fixtures::fig1_cust();
    let resp = one_shot(
        addr,
        "POST",
        "/tables",
        &table_body("Fig1Cust", &cust, &[], &[]),
    );
    assert_eq!(resp.status, 201, "{}", resp.body);
    assert_eq!(
        resp.json().get("rows").and_then(Json::as_i64),
        Some(cust.len() as i64)
    );
    server.shutdown();
}

#[test]
fn health_reports_version_uptime_and_admission_state() {
    let server = SproutServer::bind(SproutDb::new(), "127.0.0.1:0", test_config()).unwrap();
    let addr = server.addr();
    register_fig1(addr);

    let health = one_shot(addr, "GET", "/health", "").json();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        health.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(health.get("uptime_s").and_then(Json::as_f64).unwrap() >= 0.0);
    assert_eq!(health.get("tables").and_then(Json::as_i64), Some(3));
    assert_eq!(health.get("active").and_then(Json::as_i64), Some(0));
    assert_eq!(health.get("queued").and_then(Json::as_i64), Some(0));
    assert!(health.get("slots").and_then(Json::as_i64).unwrap() >= 1);
    assert!(health.get("queue_depth").and_then(Json::as_i64).is_some());
    server.shutdown();
}

#[test]
fn shed_responses_carry_the_observed_admission_state() {
    // One slot, no queue: concurrent clients force QUEUE_FULL sheds whose
    // detail reports the state the scheduler actually observed.
    let config = ServerConfig {
        slots: 1,
        queue_depth: 0,
        ..test_config()
    };
    let server = SproutServer::bind(SproutDb::new(), "127.0.0.1:0", config).unwrap();
    let addr = server.addr();
    register_fig1(addr);

    let handles: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut sheds = Vec::new();
                for _ in 0..10 {
                    let resp = one_shot(addr, "POST", "/query", &query_body(&intro_query_q(), &[]));
                    match resp.status {
                        200 => {}
                        429 => sheds.push(resp),
                        other => panic!("unexpected status {other}: {}", resp.body),
                    }
                }
                sheds
            })
        })
        .collect();
    let sheds: Vec<_> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    assert!(
        !sheds.is_empty(),
        "80 requests against 1 slot / 0 queue produced no shed"
    );
    for resp in &sheds {
        assert_eq!(resp.error_code(), "QUEUE_FULL", "{}", resp.body);
        assert!(resp.header("Retry-After").is_some());
        let body = resp.json();
        let detail = body.get("error").and_then(|e| e.get("detail")).unwrap();
        assert_eq!(detail.get("slots").and_then(Json::as_i64), Some(1));
        assert_eq!(detail.get("queue_depth").and_then(Json::as_i64), Some(0));
        assert!(detail.get("active").and_then(Json::as_i64).unwrap() >= 1);
        assert!(detail.get("waited_ms").and_then(Json::as_i64).is_some());
    }

    // The sheds landed under their code on the metrics page.
    let page = one_shot(addr, "GET", "/metrics", "");
    assert!(
        prom_value(&page.body, "sprout_sheds_total{code=\"QUEUE_FULL\"} ") >= sheds.len() as f64
    );
    server.shutdown();
}
