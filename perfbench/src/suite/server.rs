//! The `serve_mixed` workload: an in-process `SproutServer` driven over
//! loopback HTTP by a **closed loop** of two keep-alive clients, each with a
//! seeded fixed sequence, each waiting for every reply before its next
//! request.
//!
//! A pass is `requests_per_pass` requests per client: 70 % `light` (a
//! two-table join on a unique column over tables registered earlier in the
//! same run), 25 % `heavy` (Q3, Q10, Q15 lazy and Q9 under bounds, equal
//! shares) and 5 % `register` (`POST /tables`, a new 256-row table). The
//! tables a pass registers are the ones the next pass's light ops read, so
//! writes land beside reads on one catalog and every pass sends the same
//! requests up to table names — which is what lets every pass be held
//! bitwise to the first.
//!
//! In the timed passes the clients take turns (client 0's sequence, then
//! client 1's), so one request is in flight at a time and the timing does not
//! depend on a second core being free (see [`super::ENGINE_THREADS`]); the
//! traced run adds one pass with both clients at once
//! (`server.concurrent_req_per_s`).
//!
//! A second database, built the same way and driven through the library,
//! supplies the expected answers and, in the traced run, the staged replay.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use pdb_query::{CompareOp, ConjunctiveQuery, Predicate, RelationAtom};
use pdb_storage::{DataType, ProbTable, Schema, Tuple, Value, Variable};
use sprout::{ApproxPolicy, PlanKind, Pool, QueryObs, SproutDb};
use sprout_server::{proto, Json, ServerConfig, SproutServer};

use super::check::{digest_lines, summarize};
use super::library::{
    counter_metrics, end_to_end_metrics, layer_self_times, rank_layers, repeat_setup, setup,
    span_metrics, width_metrics, with_top_layers, write_spans, Checker, RunConfig, SetupCost,
    LIBRARY_SPAN_METRICS, REF_PASSES, TRACED_PASSES,
};
use super::ops::{OpSpec, BOUNDS_EPS, FRONTIER_BUDGET};
use super::replay::replay_op;
use super::report::{OpDetail, WorkloadResult};
use super::rng::Rng;
use super::spans::Tracer;
use super::stats::{median, percentile};

/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Rows of every registered light table.
pub const LIGHT_ROWS: usize = 256;
/// The server hands each admitted query `worker_threads / slots` threads.
const SERVER_THREAD_SHARE: usize = 1;
/// The op labels of the workload, in report order.
const LABELS: [&str; 6] = [
    "light", "heavy.3", "heavy.10", "heavy.15", "heavy.9b", "register",
];
const HEAVY: [(&str, &str, bool); 4] = [
    ("heavy.3", "3", false),
    ("heavy.10", "10", false),
    ("heavy.15", "15", false),
    ("heavy.9b", "9", true),
];

fn requests_per_pass(cfg: &RunConfig) -> usize {
    if cfg.smoke {
        40
    } else {
        320
    }
}

/// One request of a client's fixed sequence.
#[derive(Debug, Clone)]
enum Request {
    /// Join light tables `a` and `b` of the current generation.
    Light { a: usize, b: usize },
    /// The `HEAVY[h]` query.
    Heavy(usize),
    /// Register light table `k` of the next generation.
    Register(usize),
}

impl Request {
    fn label(&self) -> usize {
        match self {
            Request::Light { .. } => 0,
            Request::Heavy(h) => 1 + h,
            Request::Register(_) => 5,
        }
    }
}

/// The seeded request sequence of one client: exact class counts, shuffled.
fn client_sequence(cfg: &RunConfig, client: usize) -> (Vec<Request>, usize) {
    let n = requests_per_pass(cfg);
    let registers = n / 20;
    let heavy = n / 16 * 4;
    let mut rng = Rng::new(cfg.seed, 100 + client as u64);
    let mut seq = Vec::with_capacity(n);
    for k in 0..registers {
        seq.push(Request::Register(k));
    }
    for i in 0..heavy {
        seq.push(Request::Heavy(i % HEAVY.len()));
    }
    while seq.len() < n {
        let a = rng.below(registers);
        let b = (a + 1 + rng.below(registers - 1)) % registers;
        seq.push(Request::Light { a, b });
    }
    rng.shuffle(&mut seq);
    (seq, registers)
}

fn table_name(client: usize, generation: usize, k: usize) -> String {
    format!("c{client}g{generation}t{k}")
}

fn value_column(k: usize) -> String {
    format!("v{k}")
}

/// Light table `k` of `client`: `(lk, v<k>)` with `lk` unique; the same
/// contents in every generation, only the name changes. No key is declared:
/// a declared key adds a functional dependency to the catalog, every query
/// plans against all of them, and a catalog that grew with every pass would
/// make later passes slower than earlier ones.
fn light_rows(seed: u64, client: usize, k: usize) -> Vec<(i64, i64, u64, f64)> {
    let mut rng = Rng::new(seed, 1000 + (client * 64 + k) as u64);
    (0..LIGHT_ROWS)
        .map(|i| {
            let value = rng.below(1000) as i64;
            let var = (1u64 << 40) + ((client * 64 + k) * LIGHT_ROWS + i) as u64;
            let prob = (5 + rng.below(96)) as f64 / 100.0;
            (i as i64, value, var, prob)
        })
        .collect()
}

fn register_body(seed: u64, client: usize, generation: usize, k: usize) -> String {
    let rows = light_rows(seed, client, k)
        .into_iter()
        .map(|(key, value, var, prob)| {
            Json::Object(vec![
                (
                    "values".into(),
                    Json::Array(vec![Json::Int(key), Json::Int(value)]),
                ),
                ("var".into(), Json::Int(var as i64)),
                ("prob".into(), Json::Float(prob)),
            ])
        })
        .collect();
    let column = |name: String| Json::Array(vec![Json::Str(name), Json::str("int")]);
    Json::Object(vec![
        ("name".into(), Json::Str(table_name(client, generation, k))),
        (
            "schema".into(),
            Json::Array(vec![column("lk".into()), column(value_column(k))]),
        ),
        ("rows".into(), Json::Array(rows)),
    ])
    .render()
}

fn light_query(client: usize, generation: usize, a: usize, b: usize) -> ConjunctiveQuery {
    let (name_a, name_b) = (
        table_name(client, generation, a),
        table_name(client, generation, b),
    );
    let (col_a, col_b) = (value_column(a), value_column(b));
    ConjunctiveQuery::new(
        vec![
            RelationAtom::new(name_a.clone(), &["lk", col_a.as_str()]),
            RelationAtom::new(name_b, &["lk", col_b.as_str()]),
        ],
        vec!["lk".to_string(), col_a.clone(), col_b.clone()],
        vec![Predicate::new(name_a, col_a, CompareOp::Lt, 250i64)],
    )
    .expect("light query is well-formed")
}

fn op_to_wire(op: CompareOp) -> &'static str {
    match op {
        CompareOp::Eq => "=",
        CompareOp::Ne => "!=",
        CompareOp::Lt => "<",
        CompareOp::Le => "<=",
        CompareOp::Gt => ">",
        CompareOp::Ge => ">=",
        CompareOp::In => "in",
    }
}

/// A conjunctive query in the wire protocol's JSON.
fn query_json(q: &ConjunctiveQuery) -> Json {
    let strings =
        |items: &[String]| Json::Array(items.iter().map(|s| Json::str(s.clone())).collect());
    let relations = q
        .relations
        .iter()
        .map(|r| {
            Json::Object(vec![
                ("name".into(), Json::str(r.name.clone())),
                ("attrs".into(), strings(&r.attributes)),
            ])
        })
        .collect();
    let predicates = q
        .predicates
        .iter()
        .map(|p| {
            let mut fields = vec![
                ("relation".to_string(), Json::str(p.relation.clone())),
                ("attribute".to_string(), Json::str(p.attribute.clone())),
                ("op".to_string(), Json::str(op_to_wire(p.op))),
            ];
            if p.op == CompareOp::In {
                let values = p.constants().map(proto::value_to_json).collect();
                fields.push(("values".to_string(), Json::Array(values)));
            } else {
                fields.push(("value".to_string(), proto::value_to_json(&p.constant)));
            }
            Json::Object(fields)
        })
        .collect();
    Json::Object(vec![
        ("relations".into(), Json::Array(relations)),
        ("head".into(), strings(&q.head)),
        ("predicates".into(), Json::Array(predicates)),
    ])
}

/// The op a request runs, as the library sees it.
fn request_op(client: usize, generation: usize, request: &Request) -> Option<OpSpec> {
    match request {
        Request::Light { a, b } => Some(OpSpec {
            id: "light".to_string(),
            query_id: "light",
            query: light_query(client, generation, *a, *b),
            kind: PlanKind::Lazy,
            policy: None,
            frontier_budget: FRONTIER_BUDGET,
        }),
        Request::Heavy(h) => {
            let (label, id, bounds) = HEAVY[*h];
            let query = pdb_tpch::tpch_query(id)
                .and_then(|entry| entry.query)
                .expect("heavy queries are in the catalogue");
            Some(OpSpec {
                id: label.to_string(),
                query_id: id,
                query,
                kind: PlanKind::Lazy,
                policy: bounds.then_some(ApproxPolicy::Bounds { eps: BOUNDS_EPS }),
                frontier_budget: FRONTIER_BUDGET,
            })
        }
        Request::Register(_) => None,
    }
}

fn query_body(op: &OpSpec, seed: u64) -> String {
    let mut fields = vec![
        ("query".to_string(), query_json(&op.query)),
        ("kind".to_string(), Json::str("lazy")),
    ];
    if op.policy.is_some() {
        fields.push((
            "policy".to_string(),
            Json::Object(vec![(
                "bounds".into(),
                Json::Object(vec![("eps".into(), Json::Float(BOUNDS_EPS))]),
            )]),
        ));
        fields.push(("seed".to_string(), Json::Int(seed as i64)));
        fields.push((
            "frontier_budget".to_string(),
            Json::Int(FRONTIER_BUDGET as i64),
        ));
    }
    Json::Object(fields).render()
}

/// Path and body of one request of generation `generation`.
fn wire_request(
    cfg: &RunConfig,
    client: usize,
    generation: usize,
    request: &Request,
) -> (&'static str, String) {
    match request {
        Request::Register(k) => (
            "/tables",
            register_body(cfg.seed, client, generation + 1, *k),
        ),
        other => {
            let op = request_op(client, generation, other).expect("query request");
            ("/query", query_body(&op, cfg.seed))
        }
    }
}

/// One keep-alive HTTP/1.1 connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request in a single write and reads the whole reply.
    fn send(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(request.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let (mut chunked, mut length) = (false, 0usize);
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("transfer-encoding") {
                    chunked = value == "chunked";
                } else if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse().map_err(|_| bad("content-length"))?;
                }
            }
        }
        let mut body = Vec::new();
        if chunked {
            loop {
                line.clear();
                self.reader.read_line(&mut line)?;
                let size = usize::from_str_radix(line.trim(), 16).map_err(|_| bad("chunk size"))?;
                let start = body.len();
                body.resize(start + size + 2, 0);
                self.reader.read_exact(&mut body[start..])?;
                body.truncate(start + size);
                if size == 0 {
                    break;
                }
            }
        } else {
            body.resize(length, 0);
            self.reader.read_exact(&mut body)?;
        }
        String::from_utf8(body)
            .map(|body| (status, body))
            .map_err(|_| bad("body is not UTF-8"))
    }
}

/// A running server with its clients connected and generation 0 registered.
struct Served {
    server: SproutServer,
    clients: Vec<Client>,
    /// What generating and ingesting the database cost.
    cost: SetupCost,
}

impl Served {
    /// Closes the clients' connections, then drains the server and joins
    /// its threads.
    fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// Builds the database, binds the server, connects the clients and
/// registers generation 0 over the wire — everything before the first op.
fn serve(cfg: &RunConfig, registers: usize) -> Served {
    let built = setup(cfg.sf, cfg.seed);
    let config = ServerConfig {
        slots: 2,
        queue_depth: 8,
        queue_timeout: Duration::from_secs(10),
        worker_threads: 2,
        read_timeout: Duration::from_secs(300),
        ..ServerConfig::default()
    };
    let server = SproutServer::bind(built.db, "127.0.0.1:0", config).expect("bind loopback");
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()).expect("connect to the server"))
        .collect();
    for (c, client) in clients.iter_mut().enumerate() {
        for k in 0..registers {
            let (status, body) = client
                .send("POST", "/tables", &register_body(cfg.seed, c, 0, k))
                .expect("bootstrap registration");
            assert_eq!(status, 201, "bootstrap registration failed: {body}");
        }
    }
    Served {
        server,
        clients,
        cost: built.cost,
    }
}

/// The second database: the same catalog and generation 0, through the
/// library.
fn mirror(cfg: &RunConfig, registers: usize) -> SproutDb {
    let db = setup(cfg.sf, cfg.seed).db;
    for c in 0..CLIENTS {
        for k in 0..registers {
            register_in_library(&db, cfg.seed, c, 0, k);
        }
    }
    db
}

fn register_in_library(db: &SproutDb, seed: u64, client: usize, generation: usize, k: usize) {
    let column = value_column(k);
    let schema = Schema::from_pairs(&[("lk", DataType::Int), (&column, DataType::Int)])
        .expect("light schema");
    let mut table = ProbTable::new(schema);
    for (key, value, var, prob) in light_rows(seed, client, k) {
        table
            .insert(
                Tuple::new(vec![Value::Int(key), Value::Int(value)]),
                Variable(var),
                prob,
            )
            .expect("light row");
    }
    let name = table_name(client, generation, k);
    db.register_table(&name, table)
        .expect("light table registers");
}

/// The library's answer to one query request, rendered through the server's
/// own codec and digested.
fn expected_digest(db: &SproutDb, op: &OpSpec, seed: u64) -> u64 {
    let opts = op.options(Pool::new(SERVER_THREAD_SHARE), seed, None);
    let report = db
        .query_with_options(&op.query, &opts)
        .unwrap_or_else(|e| panic!("library run of {} failed: {e}", op.id));
    let lines = proto::answer_lines(&report);
    digest_lines(lines.iter().map(String::as_str))
}

/// What one client measured in one pass.
struct ClientPass {
    /// `(label index, latency seconds)` per request, in order.
    latencies: Vec<(usize, f64)>,
    /// The digest of every reply, or what was wrong with it.
    replies: Vec<Result<u64, String>>,
}

fn client_pass(client: &mut Client, requests: &[(usize, &'static str, String)]) -> ClientPass {
    let mut out = ClientPass {
        latencies: Vec::with_capacity(requests.len()),
        replies: Vec::with_capacity(requests.len()),
    };
    for (label, path, body) in requests {
        let t0 = Instant::now();
        let reply = client.send("POST", path, body);
        out.latencies.push((*label, t0.elapsed().as_secs_f64()));
        out.replies.push(match reply {
            Ok((200, body)) => Ok(digest_lines(body.lines())),
            Ok((201, body)) if body.contains(&format!("\"rows\":{LIGHT_ROWS}")) => Ok(0),
            Ok((status, body)) => Err(format!("status {status}: {body}")),
            Err(e) => Err(format!("transport: {e}")),
        });
    }
    out
}

/// The fixed sequences and what every reply must digest to.
struct Plan {
    sequences: Vec<Vec<Request>>,
    registers: usize,
    /// Expected digest per `(client, position)`; 0 for registrations.
    expected: Vec<Vec<u64>>,
    /// The library's digest of each heavy query, by index into `HEAVY`.
    heavy_expected: BTreeMap<usize, u64>,
}

impl Plan {
    fn new(cfg: &RunConfig) -> Plan {
        let mut sequences = Vec::new();
        let mut registers = 0;
        for c in 0..CLIENTS {
            let (seq, r) = client_sequence(cfg, c);
            sequences.push(seq);
            registers = r;
        }
        Plan {
            sequences,
            registers,
            expected: Vec::new(),
            heavy_expected: BTreeMap::new(),
        }
    }

    /// Library answers on the mirror, for generation 0 — later generations
    /// hold the same rows under other names, and answers carry no names.
    fn expect(&mut self, cfg: &RunConfig, mirror: &SproutDb) {
        let mut heavy: BTreeMap<usize, u64> = BTreeMap::new();
        let expected = self
            .sequences
            .iter()
            .enumerate()
            .map(|(c, seq)| {
                seq.iter()
                    .map(|request| match request {
                        Request::Register(_) => 0,
                        Request::Heavy(h) => *heavy.entry(*h).or_insert_with(|| {
                            let op = request_op(c, 0, request).expect("query");
                            expected_digest(mirror, &op, cfg.seed)
                        }),
                        light => {
                            let op = request_op(c, 0, light).expect("query");
                            expected_digest(mirror, &op, cfg.seed)
                        }
                    })
                    .collect()
            })
            .collect();
        self.expected = expected;
        self.heavy_expected = heavy;
    }

    /// One closed-loop pass of both clients over generation `generation`,
    /// one client after the other or (`concurrent`) both at once; returns the
    /// pass wall and feeds latencies and checks.
    fn pass(
        &self,
        cfg: &RunConfig,
        served: &mut Served,
        generation: usize,
        concurrent: bool,
        checker: &mut Checker,
        samples: &mut [Vec<f64>],
    ) -> f64 {
        let bodies: Vec<Vec<(usize, &'static str, String)>> = self
            .sequences
            .iter()
            .enumerate()
            .map(|(c, seq)| {
                seq.iter()
                    .map(|request| {
                        let (path, body) = wire_request(cfg, c, generation, request);
                        (request.label(), path, body)
                    })
                    .collect()
            })
            .collect();
        let t0 = Instant::now();
        let outcomes: Vec<ClientPass> = if concurrent {
            std::thread::scope(|scope| {
                let handles: Vec<_> = served
                    .clients
                    .iter_mut()
                    .zip(&bodies)
                    .map(|(client, requests)| scope.spawn(move || client_pass(client, requests)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect()
            })
        } else {
            served
                .clients
                .iter_mut()
                .zip(&bodies)
                .map(|(client, requests)| client_pass(client, requests))
                .collect()
        };
        let wall = t0.elapsed().as_secs_f64();
        for (c, outcome) in outcomes.into_iter().enumerate() {
            for (label, latency) in outcome.latencies {
                samples[label].push(latency);
            }
            for (i, reply) in outcome.replies.into_iter().enumerate() {
                let label = LABELS[self.sequences[c][i].label()];
                checker.attempted += 1;
                match reply {
                    Ok(digest) if digest == self.expected[c][i] => {}
                    Ok(_) => {
                        checker.fail(format!("{label}: wire answer differs from the library's"));
                    }
                    Err(note) => checker.fail(format!("{label}: {note}")),
                }
            }
        }
        wall
    }
}

fn details(samples: &[Vec<f64>]) -> Vec<OpDetail> {
    LABELS
        .iter()
        .zip(samples)
        .map(|(label, s)| OpDetail::from_samples(label, s))
        .collect()
}

/// Runs `serve_mixed`: the timed passes or the traced run.
pub fn run(cfg: &RunConfig) -> WorkloadResult {
    let mut plan = Plan::new(cfg);
    let mut checker = Checker::new(cfg);
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();

    let (mut served, setup_times) =
        repeat_setup(cfg, Served::shutdown, || serve(cfg, plan.registers));

    let mirror_db = mirror(cfg, plan.registers);
    plan.expect(cfg, &mirror_db);
    // Only the traced run's replay needs the second database again; a timed
    // run lets it go before the clock (and the resident-set reading) starts.
    let mirror_db = cfg.traced.then_some(mirror_db);
    // Golden digests cover what the library answers at seed 1; the wire is
    // held to the library on every seed.
    for (h, digest) in &plan.heavy_expected {
        checker.check_digest(HEAVY[*h].0, *digest);
    }

    let mut generation = 0;
    let mut scratch = vec![Vec::new(); LABELS.len()];
    let warmup_s = plan.pass(
        cfg,
        &mut served,
        generation,
        false,
        &mut checker,
        &mut scratch,
    );
    generation += 1;

    let mut samples = vec![Vec::new(); LABELS.len()];
    let mut pass_times = Vec::new();
    let started = Instant::now();
    loop {
        pass_times.push(plan.pass(
            cfg,
            &mut served,
            generation,
            false,
            &mut checker,
            &mut samples,
        ));
        generation += 1;
        let done = if cfg.traced {
            pass_times.len() >= cfg.fixed_passes(REF_PASSES)
        } else {
            cfg.timed_passes_done(pass_times.len(), started)
        };
        if done {
            break;
        }
    }
    if cfg.write_golden {
        checker.write_golden();
    }

    let mut ops = details(&samples);
    let pass_s = median(&pass_times);
    let mut layer_shares = Vec::new();
    if let Some(mirror_db) = &mirror_db {
        let requests = (CLIENTS * requests_per_pass(cfg)) as f64;
        metrics.insert("server.req_per_s", requests / pass_s);
        let concurrent_s = plan.pass(
            cfg,
            &mut served,
            generation,
            true,
            &mut checker,
            &mut scratch,
        );
        metrics.insert("server.concurrent_req_per_s", requests / concurrent_s);
        traced_metrics(
            cfg,
            &plan,
            &mut served,
            mirror_db,
            &mut checker,
            &samples,
            &mut metrics,
            &mut layer_shares,
            &mut ops,
        );
        served.cost.record(&mut metrics);
        metrics.insert("bench.warmup_s", warmup_s);
        metrics.insert("bench.ref_pass_s", pass_s);
        metrics.insert(
            "bench.samples",
            samples.iter().map(Vec::len).sum::<usize>() as f64,
        );
        metrics.insert(
            "bench.failed_frac",
            checker.failed as f64 / checker.attempted as f64,
        );
    } else {
        metrics = end_to_end_metrics(&setup_times, &pass_times, &ops);
    }
    served.shutdown();

    WorkloadResult {
        workload: cfg.workload.name,
        seed: cfg.seed,
        traced: cfg.traced,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        setup_times,
        pass_times,
        ops,
        layer_shares,
        notes: checker.notes,
    }
}

/// Sum of a Prometheus family's samples whose line starts with `prefix`.
fn prom_sum(page: &str, prefix: &str) -> f64 {
    page.lines()
        .filter(|l| l.starts_with(prefix))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// The traced run's server half: staged replay of every request through
/// `Json::parse`, `parse_query` / `parse_table`, the library layers and
/// `answer_lines` on the second database, then `GET /metrics`.
#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    cfg: &RunConfig,
    plan: &Plan,
    served: &mut Served,
    mirror_db: &SproutDb,
    checker: &mut Checker,
    samples: &[Vec<f64>],
    metrics: &mut BTreeMap<&'static str, f64>,
    layer_shares: &mut Vec<(String, f64)>,
    ops: &mut Vec<OpDetail>,
) {
    let pool = Pool::new(SERVER_THREAD_SHARE);
    let mut tracer = Tracer::new(Instant::now());
    let traced_passes = cfg.fixed_passes(TRACED_PASSES);
    let mut label_of_op: Vec<usize> = Vec::new();
    let mut pass_counters = Vec::new();
    let mut summaries = Vec::new();
    let mut op_id = 0u64;
    for pass in 0..traced_passes {
        let obs = QueryObs::new();
        for (c, seq) in plan.sequences.iter().enumerate() {
            for (i, request) in seq.iter().enumerate() {
                op_id += 1;
                tracer.begin_op(op_id, pass);
                label_of_op.push(request.label());
                let (_, body) = wire_request(cfg, c, pass, request);
                let parsed = tracer
                    .scope("server.json_parse", "", || Json::parse(&body))
                    .expect("the harness sends valid JSON");
                match request {
                    Request::Register(_) => {
                        let spec = tracer
                            .scope("server.proto_parse", "table", || {
                                proto::parse_table(&parsed)
                            })
                            .expect("the harness sends valid tables");
                        tracer.scope("storage.register", &spec.name, || {
                            mirror_db
                                .register_table(&spec.name, spec.table)
                                .expect("replayed table registers");
                        });
                    }
                    query => {
                        let parsed = tracer
                            .scope("server.proto_parse", "query", || {
                                proto::parse_query(&parsed)
                            })
                            .expect("the harness sends valid queries");
                        let op = OpSpec {
                            query: parsed.query,
                            ..request_op(c, pass, query).expect("query request")
                        };
                        let outcome = replay_op(&mut tracer, mirror_db, &op, pool, cfg.seed, &obs);
                        checker.attempted += 1;
                        match outcome {
                            Ok(report) => {
                                if pass == 0 {
                                    summaries.push(Some(summarize(&report)));
                                }
                                let lines = tracer
                                    .scope("server.encode", "", || proto::answer_lines(&report));
                                if digest_lines(lines.iter().map(String::as_str))
                                    != plan.expected[c][i]
                                {
                                    checker.fail(format!(
                                        "{}: staged replay differs from the library",
                                        op.id
                                    ));
                                }
                            }
                            Err(e) => checker.fail(format!("{}: replay failed: {e}", op.id)),
                        }
                    }
                }
            }
        }
        pass_counters.push(obs.counter_values());
    }
    checker.attempted += 1;
    if pass_counters.iter().any(|c| c != &pass_counters[0]) {
        checker.fail("engine counters differ between traced passes".to_string());
    }
    counter_metrics(&pass_counters[0], metrics);
    width_metrics(&summaries, metrics);

    let spans = tracer.spans();
    span_metrics(spans, traced_passes, &LIBRARY_SPAN_METRICS, metrics);
    span_metrics(
        spans,
        traced_passes,
        &[
            ("server.json_parse", "server.json_parse_s"),
            ("server.proto_parse", "server.proto_parse_s"),
            ("server.encode", "server.encode_s"),
        ],
        metrics,
    );
    let wire_s: f64 = samples.iter().flatten().sum::<f64>() / cfg.fixed_passes(REF_PASSES) as f64;
    metrics.insert("plan.share", metrics["plan.build_s"] / wire_s);
    let (_, attributed) = layer_self_times(spans);
    metrics.insert(
        "bench.attributed_frac",
        attributed / traced_passes as f64 / wire_s,
    );
    *layer_shares = rank_layers(spans);
    *ops = with_top_layers(std::mem::take(ops), spans);
    write_spans(cfg, spans);

    // What the library side of each request took: its root spans (parse,
    // the staged op, encode), the asides left out.
    let mut library_by_op = vec![0.0f64; label_of_op.len()];
    for span in spans.iter().filter(|s| s.parent.is_none() && !s.aside) {
        library_by_op[span.op as usize - 1] += span.seconds();
    }
    let mut library_s: Vec<Vec<f64>> = vec![Vec::new(); LABELS.len()];
    for (label, seconds) in label_of_op.iter().zip(library_by_op) {
        library_s[*label].push(seconds);
    }

    // Wire median minus library median, weighted by each query op's share
    // of the mix.
    let (mut overhead, mut weight) = (0.0, 0.0);
    for label in 0..5 {
        let n = samples[label].len() as f64;
        overhead += n * (median(&samples[label]) - median(&library_s[label])) * 1e3;
        weight += n;
    }
    metrics.insert("server.wire_overhead_ms", overhead / weight);
    metrics.insert("server.register_ms", median(&samples[5]) * 1e3);
    metrics.insert("server.light_p99_ms", percentile(&samples[0], 0.99) * 1e3);
    let heavy: Vec<f64> = samples[1..5].iter().flatten().copied().collect();
    metrics.insert("server.heavy_p99_ms", percentile(&heavy, 0.99) * 1e3);

    match served.clients[0].send("GET", "/metrics", "") {
        Ok((200, page)) => {
            metrics.insert("server.shed", prom_sum(&page, "sprout_sheds_total"));
            let waits = prom_sum(&page, "sprout_admit_seconds_count");
            let waited = prom_sum(&page, "sprout_admit_seconds_sum");
            metrics.insert(
                "server.admit_wait_ms",
                if waits > 0.0 {
                    1e3 * waited / waits
                } else {
                    0.0
                },
            );
            checker.attempted += 1;
            if metrics["server.shed"] != 0.0 {
                checker.fail(format!(
                    "the server shed {} requests",
                    metrics["server.shed"]
                ));
            }
        }
        other => {
            checker.attempted += 1;
            checker.fail(format!("GET /metrics: {other:?}"));
        }
    }
}
