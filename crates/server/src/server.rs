//! The concurrent query service around [`sprout::SproutDb`].
//!
//! One `std::net::TcpListener` accept loop, one thread per connection
//! (HTTP/1.1 with keep-alive), and the [`AdmissionControl`] scheduler
//! between parsing and execution. Every request runs inside
//! `catch_unwind`, so a panic anywhere in the handler — injected via
//! `pdb-fault` or real — becomes a well-formed `500 WORKER_PANIC` response
//! instead of a dead connection or a dead server.
//!
//! Fault sites (active under the `fault-inject` feature, one-shot,
//! deterministic): `server.accept` (indexed by connection sequence),
//! `server.parse`, `server.admit`, `server.exec`, `server.stream` (indexed
//! by the request's position on its connection).

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use pdb_fault::{sites, FaultAction};
use pdb_obs::{PromText, QueryObs};
use sprout::{ExplainMode, GovernorBuilder};

use crate::admission::{AdmissionControl, Admit, ShedInfo};
use crate::error::{self, WireError};
use crate::http::{self, ChunkedWriter, ParseError, Request};
use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::proto;

/// Server tuning knobs. [`Default`] is sized for tests and small
/// deployments; benchmarks override it.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent query slots (admitted queries executing at once).
    pub slots: usize,
    /// Bounded wait queue behind the slots; 0 sheds immediately.
    pub queue_depth: usize,
    /// How long a request may wait in the queue before being shed.
    pub queue_timeout: Duration,
    /// Total engine worker threads shared across admitted queries.
    pub worker_threads: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Socket read timeout (slow or stalled clients).
    pub read_timeout: Duration,
    /// Socket write timeout (slow readers of the answer stream).
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            slots: 2,
            queue_depth: 8,
            queue_timeout: Duration::from_secs(1),
            worker_threads: thread::available_parallelism().map_or(4, usize::from),
            max_body_bytes: 8 << 20,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
        }
    }
}

struct Shared {
    db: sprout::SproutDb,
    admission: AdmissionControl,
    config: ServerConfig,
    metrics: ServerMetrics,
    shutting_down: AtomicBool,
    conn_seq: AtomicU64,
}

/// One accepted connection: its serving thread plus a second socket handle
/// shutdown uses to unblock a parked reader.
struct Conn {
    handle: JoinHandle<()>,
    peer: Option<TcpStream>,
}

/// A running server. Dropping it without [`shutdown`](Self::shutdown)
/// leaves the accept thread running until process exit; call `shutdown`
/// for a graceful drain.
pub struct SproutServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<Conn>>>,
}

impl SproutServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving `db`.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind(
        db: sprout::SproutDb,
        addr: &str,
        config: ServerConfig,
    ) -> io::Result<SproutServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            db,
            admission: AdmissionControl::new(
                config.slots,
                config.queue_depth,
                config.worker_threads,
            ),
            config,
            metrics: ServerMetrics::new(),
            shutting_down: AtomicBool::new(false),
            conn_seq: AtomicU64::new(0),
        });
        let conns: Arc<Mutex<Vec<Conn>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&conns);
        let accept = thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match stream {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let conn_id = accept_shared.conn_seq.fetch_add(1, Ordering::SeqCst);
                // A second handle to the socket lets shutdown unblock a
                // parked reader without touching the write half.
                let peer = stream.try_clone().ok();
                let conn_shared = Arc::clone(&accept_shared);
                let handle = thread::spawn(move || {
                    // The whole connection is panic-isolated: whatever
                    // escapes the per-request guard only kills this
                    // connection, never the server.
                    let _ = catch_unwind(AssertUnwindSafe(|| {
                        serve_connection(&conn_shared, stream, conn_id);
                    }));
                });
                let mut guard = accept_conns.lock().expect("conns lock");
                guard.retain(|c| !c.handle.is_finished());
                guard.push(Conn { handle, peer });
            }
        });

        Ok(SproutServer {
            addr,
            shared,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts draining without stopping the listener: every new query (and
    /// table registration) is rejected with `503 DRAINING` while in-flight
    /// queries and answer streams run to completion.
    /// [`shutdown`](Self::shutdown) implies this.
    pub fn drain(&self) {
        self.shared.admission.drain();
    }

    /// Graceful shutdown: stop accepting, reject new queries with 503,
    /// finish every admitted query and its answer stream, then return.
    pub fn shutdown(mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.admission.drain();
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Unblock parked readers by closing the read half only: idle
        // keep-alive connections see EOF and exit immediately, while
        // in-flight answer streams keep their write half and finish.
        for conn in self.conns.lock().expect("conns lock").iter() {
            if let Some(peer) = &conn.peer {
                let _ = peer.shutdown(std::net::Shutdown::Read);
            }
        }
        loop {
            let conn = self.conns.lock().expect("conns lock").pop();
            match conn {
                Some(c) => {
                    let _ = c.handle.join();
                }
                None => break,
            }
        }
        self.shared.admission.await_idle();
    }
}

fn serve_connection(shared: &Shared, stream: TcpStream, conn_id: u64) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    for req_index in 0.. {
        match serve_one(shared, &mut reader, &mut writer, conn_id, req_index) {
            Ok(true) => continue,
            Ok(false) | Err(_) => break,
        }
    }
}

/// Serves one request. `Ok(true)` keeps the connection alive.
fn serve_one(
    shared: &Shared,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    conn_id: u64,
    req_index: usize,
) -> io::Result<bool> {
    if req_index == 0 {
        if let Err(e) = site_fault(sites::SERVER_ACCEPT, conn_id as usize) {
            respond_error(writer, &e)?;
            return Ok(false);
        }
    }
    let request = match http::read_request(reader, shared.config.max_body_bytes) {
        Ok(r) => r,
        Err(ParseError::ConnectionClosed) => return Ok(false),
        Err(ParseError::Io(e)) => return Err(e),
        Err(ParseError::Malformed(m)) => {
            respond_error(writer, &WireError::new(400, "MALFORMED_REQUEST", m))?;
            return Ok(false);
        }
        Err(ParseError::BodyTooLarge { declared, limit }) => {
            respond_error(
                writer,
                &WireError::new(
                    413,
                    "BODY_TOO_LARGE",
                    format!("request body of {declared} bytes exceeds the {limit}-byte limit"),
                ),
            )?;
            return Ok(false);
        }
    };
    let keep_alive = request.header("connection").map(str::to_ascii_lowercase)
        != Some("close".to_string())
        && !shared.shutting_down.load(Ordering::SeqCst);

    // Panic isolation: anything that unwinds out of dispatch becomes a
    // clean 500 on this connection — unless a response head is already on
    // the wire, in which case writing a second response would corrupt the
    // stream and desynchronize every request behind it, so the connection
    // is closed instead (the truncated chunked body marks the failure).
    let streaming = AtomicBool::new(false);
    let dispatched = catch_unwind(AssertUnwindSafe(|| {
        dispatch(shared, &request, writer, req_index, &streaming)
    }));
    match dispatched {
        Ok(io_result) => io_result?,
        Err(_) if streaming.load(Ordering::SeqCst) => return Ok(false),
        Err(_) => respond_error(
            writer,
            &WireError::new(
                500,
                "WORKER_PANIC",
                "the request handler panicked; the failure is isolated to this request",
            ),
        )?,
    }
    Ok(keep_alive)
}

fn dispatch(
    shared: &Shared,
    request: &Request,
    writer: &mut TcpStream,
    req_index: usize,
    streaming: &AtomicBool,
) -> io::Result<()> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => health(shared, writer),
        ("GET", "/metrics") => metrics(shared, writer),
        ("GET", "/debug/queries") => http::write_response(
            writer,
            200,
            &[],
            shared.metrics.debug_queries().render().as_bytes(),
        ),
        ("POST", "/tables") => match handle_tables(shared, request, req_index) {
            Ok(body) => http::write_response(writer, 201, &[], body.render().as_bytes()),
            Err(e) => respond_error(writer, &e),
        },
        ("POST", "/query") => handle_query(shared, request, writer, req_index, streaming),
        ("POST", "/health")
        | ("POST", "/metrics")
        | ("POST", "/debug/queries")
        | ("GET", "/tables")
        | ("GET", "/query") => respond_error(
            writer,
            &WireError::new(
                405,
                "METHOD_NOT_ALLOWED",
                format!("{} is not supported on {}", request.method, request.path),
            ),
        ),
        _ => respond_error(
            writer,
            &WireError::new(
                404,
                "NOT_FOUND",
                format!("unknown endpoint {} {}", request.method, request.path),
            ),
        ),
    }
}

fn health(shared: &Shared, writer: &mut TcpStream) -> io::Result<()> {
    let (active, queued) = shared.admission.load();
    let draining = shared.admission.is_draining();
    let body = Json::Object(vec![
        (
            "status".to_string(),
            Json::Str(if draining { "draining" } else { "ok" }.to_string()),
        ),
        ("version".to_string(), Json::str(env!("CARGO_PKG_VERSION"))),
        (
            "uptime_s".to_string(),
            Json::Float(shared.metrics.registry.uptime().as_secs_f64()),
        ),
        ("active".to_string(), Json::Int(active as i64)),
        ("queued".to_string(), Json::Int(queued as i64)),
        (
            "slots".to_string(),
            Json::Int(shared.admission.slots() as i64),
        ),
        (
            "queue_depth".to_string(),
            Json::Int(shared.admission.queue_depth() as i64),
        ),
        (
            "tables".to_string(),
            Json::Int(shared.db.catalog().table_names().len() as i64),
        ),
    ]);
    http::write_response(writer, 200, &[], body.render().as_bytes())
}

/// `GET /metrics`: the Prometheus text page. Admission gauges are sampled
/// here; counters, histograms and engine totals come from the registry.
fn metrics(shared: &Shared, writer: &mut TcpStream) -> io::Result<()> {
    let (active, queued) = shared.admission.load();
    let mut page = PromText::new();
    page.gauge(
        "sprout_uptime_seconds",
        "Seconds since the server started.",
        shared.metrics.registry.uptime().as_secs_f64(),
    );
    page.gauge(
        "sprout_active_queries",
        "Admitted queries currently executing or streaming.",
        active as f64,
    );
    page.gauge(
        "sprout_queued_queries",
        "Requests parked in the admission queue.",
        queued as f64,
    );
    page.gauge(
        "sprout_admission_slots",
        "Configured concurrent-query slots.",
        shared.admission.slots() as f64,
    );
    page.gauge(
        "sprout_admission_queue_depth",
        "Configured admission queue depth.",
        shared.admission.queue_depth() as f64,
    );
    page.gauge(
        "sprout_draining",
        "1 while the server is draining for shutdown.",
        if shared.admission.is_draining() {
            1.0
        } else {
            0.0
        },
    );
    let catalog = shared.db.catalog();
    let mut names = catalog.table_names();
    names.sort_unstable();
    page.gauge(
        "sprout_catalog_tables",
        "Registered tables.",
        names.len() as f64,
    );
    let rows: Vec<(String, f64)> = names
        .iter()
        .map(|name| {
            let rows = catalog.backing(name).map_or(0, |t| t.len());
            (
                format!("table=\"{}\"", pdb_obs::escape_label(name)),
                rows as f64,
            )
        })
        .collect();
    if !rows.is_empty() {
        page.gauge_labeled("sprout_table_rows", "Rows per registered table.", &rows);
    }
    shared.metrics.registry.render(&mut page);
    http::write_response_with_type(
        writer,
        200,
        "text/plain; version=0.0.4",
        &[],
        page.finish().as_bytes(),
    )
}

fn handle_tables(shared: &Shared, request: &Request, req_index: usize) -> Result<Json, WireError> {
    site_fault(sites::SERVER_PARSE, req_index)?;
    if shared.admission.is_draining() {
        return Err(draining_error());
    }
    let body = Json::parse(&request.body).map_err(|e| WireError::new(400, "INVALID_JSON", e))?;
    let spec = proto::parse_table(&body)?;
    shared
        .db
        .register_table(&spec.name, spec.table)
        .map_err(|e| error::from_plan_error(&e))?;
    for key in &spec.keys {
        let attrs: Vec<&str> = key.iter().map(String::as_str).collect();
        shared
            .db
            .declare_key(&spec.name, &attrs)
            .map_err(|e| error::from_plan_error(&e))?;
    }
    for (lhs, rhs) in &spec.fds {
        let lhs: Vec<&str> = lhs.iter().map(String::as_str).collect();
        let rhs: Vec<&str> = rhs.iter().map(String::as_str).collect();
        shared
            .db
            .declare_fd(&spec.name, &lhs, &rhs)
            .map_err(|e| error::from_plan_error(&e))?;
    }
    let rows = shared
        .db
        .catalog()
        .backing(&spec.name)
        .map_or(0, |t| t.len());
    Ok(Json::Object(vec![
        ("table".to_string(), Json::Str(spec.name.clone())),
        ("rows".to_string(), Json::Int(rows as i64)),
    ]))
}

fn handle_query(
    shared: &Shared,
    request: &Request,
    writer: &mut TcpStream,
    req_index: usize,
    streaming: &AtomicBool,
) -> io::Result<()> {
    // Parse stage.
    let parsed = site_fault(sites::SERVER_PARSE, req_index)
        .and_then(|()| {
            Json::parse(&request.body).map_err(|e| WireError::new(400, "INVALID_JSON", e))
        })
        .and_then(|body| proto::parse_query(&body));
    let req = match parsed {
        Ok(r) => r,
        Err(e) => return respond_error(writer, &e),
    };

    // EXPLAIN without ANALYZE: a catalog-only planning pass, no execution,
    // so it answers ahead of admission even on an overloaded server.
    if req.explain == Some(ExplainMode::Plan) {
        let opts = query_options(&req, None);
        return match shared.db.explain_with_options(&req.query, &opts) {
            Ok(ex) => http::write_response(
                writer,
                200,
                &[],
                proto::explain_json(&ex).render().as_bytes(),
            ),
            Err(e) => respond_error(writer, &error::from_plan_error(&e)),
        };
    }

    // Admission stage.
    if let Err(e) = site_fault(sites::SERVER_ADMIT, req_index) {
        return respond_error(writer, &e);
    }
    let admit_start = Instant::now();
    let admitted = shared.admission.admit(shared.config.queue_timeout);
    shared
        .metrics
        .admit_seconds
        .observe(admit_start.elapsed().as_secs_f64());
    let lease = match admitted {
        Admit::Admitted(lease) => lease,
        Admit::QueueFull(info) => {
            shared.metrics.shed("QUEUE_FULL");
            return respond_error(
                writer,
                &WireError::new(
                    429,
                    "QUEUE_FULL",
                    "all execution slots are busy and the wait queue is full",
                )
                .with_detail(shed_detail(&info))
                .with_retry_after(shared.admission.retry_after_hint()),
            );
        }
        Admit::Timeout(info) => {
            shared.metrics.shed("QUEUE_TIMEOUT");
            return respond_error(
                writer,
                &WireError::new(
                    503,
                    "QUEUE_TIMEOUT",
                    "no execution slot became free within the queue timeout",
                )
                .with_detail(shed_detail(&info))
                .with_retry_after(shared.admission.retry_after_hint()),
            );
        }
        Admit::Draining => {
            shared.metrics.shed("DRAINING");
            return respond_error(writer, &draining_error());
        }
    };

    // Every admitted query gets a collector; EXPLAIN ANALYZE additionally
    // records the span tree. Pure telemetry either way — answers are
    // bitwise-identical with or without it.
    let obs = if req.explain == Some(ExplainMode::Analyze) {
        QueryObs::with_tracing()
    } else {
        QueryObs::new()
    };
    let ring_id = shared.metrics.begin(
        query_summary(&req.query),
        req.kind
            .clone()
            .unwrap_or(sprout::PlanKind::Lazy)
            .to_string(),
    );

    // Execution stage: the lease's thread share is this query's slice of
    // the shared worker budget; the governor carries its deadline and
    // memory budget.
    let exec_start = Instant::now();
    let result = site_fault(sites::SERVER_EXEC, req_index).and_then(|()| {
        let mut opts = query_options(&req, Some(Arc::clone(&obs)));
        opts.pool = Some(sprout::Pool::new(lease.thread_share()));
        shared
            .db
            .query_with_options(&req.query, &opts)
            .map_err(|e| error::from_plan_error(&e))
    });
    shared
        .metrics
        .exec_seconds
        .observe(exec_start.elapsed().as_secs_f64());
    // Merge even failed queries: the work their counters describe was done.
    shared.metrics.registry.merge(&obs);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            finish_query(shared, ring_id, e.code, 0, &obs);
            drop(lease);
            return respond_error(writer, &e);
        }
    };

    // Streaming stage: the lease stays held until the stream is flushed,
    // so drain waits for in-flight responses, not just computations.
    if let Err(e) = site_fault(sites::SERVER_STREAM, req_index) {
        finish_query(shared, ring_id, e.code, 0, &obs);
        drop(lease);
        return respond_error(writer, &e);
    }
    // Materialize every answer line before writing the chunked head: a
    // panic while rendering still gets a clean single-response 500, and
    // once the head is on the wire nothing but the socket can fail.
    let lines = match catch_unwind(AssertUnwindSafe(|| {
        let mut lines = proto::answer_lines(&report);
        if req.explain == Some(ExplainMode::Analyze) {
            // The trailer re-explains under the executed options so the
            // reported plan is the one that actually ran.
            let opts = query_options(&req, None);
            let explained = shared.db.explain_with_options(&req.query, &opts).ok();
            lines.push(proto::analyze_trailer(explained.as_ref(), &obs).render());
        }
        lines
    })) {
        Ok(lines) => lines,
        Err(_) => {
            finish_query(shared, ring_id, "WORKER_PANIC", 0, &obs);
            drop(lease);
            return respond_error(
                writer,
                &WireError::new(
                    500,
                    "WORKER_PANIC",
                    "rendering the answer stream panicked; the failure is isolated to this request",
                ),
            );
        }
    };
    streaming.store(true, Ordering::SeqCst);
    let stream_start = Instant::now();
    let mut chunked = ChunkedWriter::start(writer, &[])?;
    for line in lines {
        let mut bytes = line.into_bytes();
        bytes.push(b'\n');
        chunked.chunk(&bytes)?;
    }
    chunked.finish()?;
    shared
        .metrics
        .stream_seconds
        .observe(stream_start.elapsed().as_secs_f64());
    finish_query(shared, ring_id, "ok", report.confidences.len(), &obs);
    drop(lease);
    Ok(())
}

/// The options bundle `POST /query` executes (and explains) under.
fn query_options(req: &proto::QueryRequest, obs: Option<Arc<QueryObs>>) -> sprout::QueryOptions {
    let mut opts = sprout::QueryOptions {
        kind: req.kind.clone(),
        policy: req.policy,
        pool: None,
        seed: req.seed,
        frontier_budget: req.frontier_budget,
        governor: None,
        obs,
        explain: req.explain,
    };
    if req.deadline_ms.is_some() || req.memory_budget.is_some() {
        let mut builder = GovernorBuilder::new();
        if let Some(ms) = req.deadline_ms {
            builder = builder.deadline(Duration::from_millis(ms));
        }
        if let Some(bytes) = req.memory_budget {
            builder = builder.memory_budget(bytes);
        }
        opts.governor = Some(builder.build());
    }
    opts
}

/// A one-line query rendering for `GET /debug/queries`.
fn query_summary(query: &sprout::ConjunctiveQuery) -> String {
    let atoms: Vec<String> = query
        .relations
        .iter()
        .map(|r| format!("{}({})", r.name, r.attributes.join(",")))
        .collect();
    atoms.join(" ⋈ ")
}

fn finish_query(shared: &Shared, ring_id: u64, status: &str, answers: usize, obs: &QueryObs) {
    let outcome = if status == "ok" {
        &shared.metrics.queries_ok
    } else {
        &shared.metrics.queries_failed
    };
    outcome.fetch_add(1, Ordering::Relaxed);
    shared.metrics.finish(
        ring_id,
        status,
        answers,
        obs.get(pdb_obs::Counter::RowsScanned),
    );
}

/// Renders the load snapshot a shed carried into the error `detail`, so a
/// `429`/`503` is debuggable from the wire alone.
fn shed_detail(info: &ShedInfo) -> Json {
    Json::Object(vec![
        ("active".to_string(), Json::Int(info.active as i64)),
        ("queued".to_string(), Json::Int(info.queued as i64)),
        ("slots".to_string(), Json::Int(info.slots as i64)),
        (
            "queue_depth".to_string(),
            Json::Int(info.queue_depth as i64),
        ),
        (
            "waited_ms".to_string(),
            Json::Int(info.waited.as_millis() as i64),
        ),
    ])
}

fn draining_error() -> WireError {
    WireError::new(503, "DRAINING", "the server is shutting down").with_retry_after(1)
}

fn respond_error(writer: &mut TcpStream, e: &WireError) -> io::Result<()> {
    let mut headers: Vec<(&str, String)> = Vec::new();
    if let Some(seconds) = e.retry_after {
        headers.push(("Retry-After", seconds.to_string()));
    }
    http::write_response(writer, e.status, &headers, e.body().render().as_bytes())
}

/// Applies a one-shot injected fault for a server site: `Slow` sleeps,
/// `Cancel`/`Budget` synthesize their governor-style wire errors, and
/// `Panic` panics through a local `catch_unwind` so the isolation path is
/// the one real panics take, while the client still sees a well-formed
/// `500`.
fn site_fault(site: &str, index: usize) -> Result<(), WireError> {
    match pdb_fault::probe(site, index) {
        None => Ok(()),
        Some(FaultAction::Slow(ms)) => {
            thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        Some(FaultAction::Cancel) => Err(WireError::new(
            499,
            "CANCELLED",
            format!("injected cancellation at {site}"),
        )),
        Some(FaultAction::Budget) => Err(WireError::new(
            507,
            "MEMORY_BUDGET_EXCEEDED",
            format!("injected budget exhaustion at {site}"),
        )),
        Some(FaultAction::Panic) => {
            let caught = catch_unwind(|| panic!("injected fault at {site}"));
            debug_assert!(caught.is_err());
            Err(WireError::new(
                500,
                "WORKER_PANIC",
                format!("worker panicked at {site}; the failure is isolated to this request"),
            ))
        }
    }
}
