//! The library workloads (`scan_conf`, `join_plans`, `unsafe_bounds`):
//! set-up, warm-up, timed passes through `SproutDb::query_with_options`,
//! and the traced run that attributes a pass to layers.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pdb_tpch::{probabilistic_catalog_columnar, TpchData, TpchScale};
use sprout::{Counter, PlanKind, PlanReport, Pool, QueryObs, SproutDb};

use super::catalogue::WorkloadDef;
use super::check::{plans_agree, summarize, AnswerSummary, Golden};
use super::ops::{pass_order, workload_ops, OpSpec};
use super::replay::replay_op;
use super::report::{OpDetail, WorkloadResult};
use super::spans::{inclusive_by_name, self_seconds, spans_json, Span, Tracer};
use super::stats::{current_rss_mb, geomean, median, peak_rss_mb};
use super::{ENGINE_THREADS, PARALLEL_THREADS};

/// Set-ups per timed run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Set-ups per timed run when one takes under half a second.
pub const SETUP_REPS_CHEAP: usize = 9;
/// Fewest timed passes, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;
/// Untraced reference passes of a traced run.
pub const REF_PASSES: usize = 3;
/// Traced (staged-replay) passes of a traced run.
pub const TRACED_PASSES: usize = 3;

/// What one workload process was asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: &'static WorkloadDef,
    /// Scale factor (the workload's own, or the smoke one).
    pub sf: f64,
    /// `--seed`: tuple probabilities, op order, anytime seed, request
    /// sequence.
    pub seed: u64,
    /// `--seconds`: how long the timed passes measure.
    pub seconds: f64,
    /// `--smoke`: one set-up, one pass of everything.
    pub smoke: bool,
    /// `--trace 1`: per-layer metrics from the traced run.
    pub traced: bool,
    /// `--write-golden`: record digests instead of enforcing them.
    pub write_golden: bool,
    /// Where `<workload>.spans.json` goes.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// Whether the timed passes are done: `--seconds` have gone by and at
    /// least [`MIN_PASSES`] ran (one pass under `--smoke`).
    pub fn timed_passes_done(&self, passes: usize, started: Instant) -> bool {
        self.smoke || (passes >= MIN_PASSES && started.elapsed().as_secs_f64() >= self.seconds)
    }

    /// Passes of a fixed-count stage (`full` normally, one under `--smoke`).
    pub fn fixed_passes(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }
}

/// What building one database cost.
#[derive(Debug, Clone, Copy)]
pub struct SetupCost {
    /// `TpchData::generate`.
    pub gen_s: f64,
    /// `probabilistic_catalog_columnar`.
    pub ingest_s: f64,
    /// Tuples across all tables.
    pub rows: usize,
    /// Resident set right after ingest, generator output dropped.
    pub rss_after_ingest_mb: f64,
}

impl SetupCost {
    /// Writes the cost under its per-layer metric names.
    pub fn record(&self, metrics: &mut BTreeMap<&'static str, f64>) {
        metrics.insert("tpch.gen_s", self.gen_s);
        metrics.insert("storage.ingest_s", self.ingest_s);
        metrics.insert("storage.rows", self.rows as f64);
        metrics.insert("storage.rss_after_ingest_mb", self.rss_after_ingest_mb);
    }
}

/// One generated database and what building it cost.
pub struct Setup {
    /// The catalog, wrapped.
    pub db: SproutDb,
    /// What it cost.
    pub cost: SetupCost,
}

/// Generates TPC-H at `sf` and ingests it as a columnar probabilistic
/// catalog whose tuple probabilities come from `seed`.
pub fn setup(sf: f64, seed: u64) -> Setup {
    let t0 = Instant::now();
    let data = TpchData::generate(TpchScale::new(sf));
    let gen_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let catalog = probabilistic_catalog_columnar(&data, seed).expect("TPC-H catalog builds");
    let ingest_s = t1.elapsed().as_secs_f64();
    let rows = data.total_tuples();
    drop(data);
    Setup {
        db: SproutDb::from_catalog(catalog),
        cost: SetupCost {
            gen_s,
            ingest_s,
            rows,
            rss_after_ingest_mb: current_rss_mb(),
        },
    }
}

/// Sets up repeatedly and returns the last set-up with every set-up's wall
/// seconds: [`SETUP_REPS`] times, or [`SETUP_REPS_CHEAP`] times when one
/// takes under half a second and its timing is mostly noise. `teardown`
/// disposes of the previous set-up first, so peak memory is one set-up's.
pub fn repeat_setup<T>(
    cfg: &RunConfig,
    mut teardown: impl FnMut(T),
    mut build: impl FnMut() -> T,
) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut built: Option<T> = None;
    loop {
        if let Some(previous) = built.take() {
            teardown(previous);
        }
        let t0 = Instant::now();
        built = Some(build());
        times.push(t0.elapsed().as_secs_f64());
        let reps = if median(&times) < 0.5 {
            SETUP_REPS_CHEAP
        } else {
            SETUP_REPS
        };
        if cfg.smoke || cfg.traced || times.len() >= reps {
            return (built.expect("just built"), times);
        }
    }
}

/// Tallies attempts and failed checks; keeps each op's first digest as the
/// reference every later pass must equal bitwise.
pub struct Checker {
    key_prefix: (String, f64),
    enforce_golden: bool,
    golden: Golden,
    first_digest: BTreeMap<String, u64>,
    invalid: BTreeMap<String, String>,
    /// Operations attempted, answer checks included.
    pub attempted: u64,
    /// Operations that errored or failed a check.
    pub failed: u64,
    /// The first few failures.
    pub notes: Vec<String>,
}

impl Checker {
    /// A checker for one workload run.
    pub fn new(cfg: &RunConfig) -> Checker {
        Checker {
            key_prefix: (cfg.workload.name.to_string(), cfg.sf),
            enforce_golden: cfg.seed == 1 && !cfg.write_golden,
            golden: Golden::load(),
            first_digest: BTreeMap::new(),
            invalid: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// Counts one failed attempt.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Marks an op whose answer is known wrong (cross-plan disagreement):
    /// every attempt of it fails from here on.
    pub fn invalidate(&mut self, op: &str, why: String) {
        self.invalid.insert(op.to_string(), why);
    }

    /// Counts one attempt and holds its digest against the op's validity, the
    /// op's first digest of this run and, at seed 1, the golden file.
    pub fn check_digest(&mut self, op: &str, digest: u64) {
        self.attempted += 1;
        let first = *self.first_digest.entry(op.to_string()).or_insert(digest);
        let problem = if let Some(why) = self.invalid.get(op) {
            Some(why.clone())
        } else if first != digest {
            Some("answer differs from the first pass".to_string())
        } else if self.enforce_golden {
            let key = Golden::key(&self.key_prefix.0, self.key_prefix.1, op);
            match self.golden.get(&key) {
                Some(want) if want != digest => Some(format!(
                    "digest {digest:016x} differs from golden {want:016x}"
                )),
                Some(_) => None,
                None => Some(format!("no golden digest under {key}")),
            }
        } else {
            None
        };
        if let Some(problem) = problem {
            self.fail(format!("{op}: {problem}"));
        }
    }

    /// Records the outcome of one library op: errors fail, every answer must
    /// equal the op's first bitwise, hold valid brackets, and match the
    /// golden digest at seed 1.
    pub fn record(
        &mut self,
        op: &str,
        outcome: &Result<PlanReport, String>,
    ) -> Option<AnswerSummary> {
        let report = match outcome {
            Ok(report) => report,
            Err(e) => {
                self.attempted += 1;
                self.fail(format!("{op}: {e}"));
                return None;
            }
        };
        let summary = summarize(report);
        if summary.brackets_valid {
            self.check_digest(op, summary.digest);
        } else {
            self.attempted += 1;
            self.fail(format!("{op}: a bracket violates 0 <= lo <= hi <= 1"));
        }
        Some(summary)
    }

    /// Rewrites this workload's golden entries from the first digests.
    pub fn write_golden(&mut self) {
        let digests: Vec<(String, u64)> = self
            .first_digest
            .iter()
            .map(|(op, digest)| (op.clone(), *digest))
            .collect();
        self.golden
            .rewrite(&self.key_prefix.0, self.key_prefix.1, &digests);
    }
}

/// How a pass attaches the engine's collector to its ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ObsMode {
    Off,
    Counters,
    Tracing,
}

/// What one untraced pass measured.
struct PassOutcome {
    /// Σ op walls.
    pass_s: f64,
    /// Σ (op wall − `tuple_time` − `confidence_time`).
    unattributed_s: f64,
    /// Engine counters summed over the pass (`ObsMode::Off`: zeros).
    counters: [u64; Counter::COUNT],
    /// Per-op answer summaries, in pass order.
    summaries: Vec<Option<AnswerSummary>>,
}

struct Library<'a> {
    db: &'a SproutDb,
    ops: &'a [OpSpec],
    order: &'a [usize],
    seed: u64,
}

impl Library<'_> {
    /// One pass over the op list, each op timed from outside around
    /// `SproutDb::query_with_options`; checks run after the clock stops.
    fn pass(
        &self,
        pool: Pool,
        obs_mode: ObsMode,
        checker: &mut Checker,
        samples: &mut [Vec<f64>],
        mut keep: Option<&mut Vec<Option<PlanReport>>>,
    ) -> PassOutcome {
        let mut out = PassOutcome {
            pass_s: 0.0,
            unattributed_s: 0.0,
            counters: [0; Counter::COUNT],
            summaries: Vec::with_capacity(self.order.len()),
        };
        for &i in self.order {
            let op = &self.ops[i];
            let obs = match obs_mode {
                ObsMode::Off => None,
                ObsMode::Counters => Some(QueryObs::new()),
                ObsMode::Tracing => Some(QueryObs::with_tracing()),
            };
            let opts = op.options(pool, self.seed, obs.clone());
            let t0 = Instant::now();
            let outcome = self.db.query_with_options(&op.query, &opts);
            let wall = t0.elapsed().as_secs_f64();
            out.pass_s += wall;
            samples[i].push(wall);
            if let Ok(report) = &outcome {
                out.unattributed_s +=
                    (wall - report.tuple_time.as_secs_f64() - report.confidence_time.as_secs_f64())
                        .max(0.0);
            }
            if let Some(obs) = &obs {
                for (total, v) in out.counters.iter_mut().zip(obs.counter_values()) {
                    *total += v;
                }
            }
            let outcome = outcome.map_err(|e| e.to_string());
            out.summaries.push(checker.record(&op.id, &outcome));
            if let Some(keep) = keep.as_deref_mut() {
                keep[i] = outcome.ok();
            }
        }
        out
    }

    /// The untimed warm-up pass — row views materialise, caches fill, every
    /// op's reference digest is taken — followed by the cross-plan check on
    /// its answers.
    fn warm_up(&self, pool: Pool, checker: &mut Checker) -> PassOutcome {
        let mut warm: Vec<Option<PlanReport>> = vec![None; self.ops.len()];
        let mut samples = vec![Vec::new(); self.ops.len()];
        let outcome = self.pass(pool, ObsMode::Off, checker, &mut samples, Some(&mut warm));
        self.check_plan_agreement(&warm, checker);
        outcome
    }

    /// Lazy vs. eager vs. hybrid vs. MystiQ must agree within 1e-9 on every
    /// query; a plan that disagrees has every attempt of it counted failed.
    fn check_plan_agreement(&self, warm: &[Option<PlanReport>], checker: &mut Checker) {
        for (i, op) in self.ops.iter().enumerate() {
            if op.kind == PlanKind::Lazy || op.policy.is_some() {
                continue;
            }
            let Some(report) = &warm[i] else { continue };
            let lazy_idx = self
                .ops
                .iter()
                .position(|o| o.query_id == op.query_id && o.kind == PlanKind::Lazy);
            let lazy = match lazy_idx {
                Some(j) => warm[j].clone(),
                None => {
                    let lazy_op = OpSpec {
                        kind: PlanKind::Lazy,
                        ..op.clone()
                    };
                    let opts = lazy_op.options(Pool::new(ENGINE_THREADS), self.seed, None);
                    self.db.query_with_options(&op.query, &opts).ok()
                }
            };
            match lazy {
                Some(lazy) if plans_agree(&lazy, report) => {}
                _ => checker.invalidate(
                    &op.id,
                    format!("disagrees with the lazy plan of query {}", op.query_id),
                ),
            }
        }
    }
}

/// The end-to-end metrics of a timed run.
pub fn end_to_end_metrics(
    setup_times: &[f64],
    pass_times: &[f64],
    ops: &[OpDetail],
) -> BTreeMap<&'static str, f64> {
    let op_medians: Vec<f64> = ops.iter().map(|d| d.median_ms).collect();
    BTreeMap::from([
        ("setup_s", median(setup_times)),
        ("pass_s", median(pass_times)),
        ("geomean_ms", geomean(&op_medians)),
        ("peak_rss_mb", peak_rss_mb()),
    ])
}

fn op_details(ops: &[OpSpec], samples: &[Vec<f64>]) -> Vec<OpDetail> {
    ops.iter()
        .zip(samples)
        .map(|(op, s)| OpDetail::from_samples(&op.id, s))
        .collect()
}

/// Runs a library workload: the timed passes (end-to-end metrics) or the
/// traced run (per-layer metrics).
pub fn run(cfg: &RunConfig) -> WorkloadResult {
    let (ops, repeats) = workload_ops(cfg.workload.name, cfg.smoke);
    let order = pass_order(&repeats, cfg.seed);
    if cfg.traced {
        run_traced(cfg, &ops, &order)
    } else {
        run_timed(cfg, &ops, &order)
    }
}

fn run_timed(cfg: &RunConfig, ops: &[OpSpec], order: &[usize]) -> WorkloadResult {
    let pool = Pool::new(ENGINE_THREADS);
    let (built, setup_times) = repeat_setup(cfg, |_| (), || setup(cfg.sf, cfg.seed));
    let lib = Library {
        db: &built.db,
        ops,
        order,
        seed: cfg.seed,
    };
    let mut checker = Checker::new(cfg);

    lib.warm_up(pool, &mut checker);

    let mut samples = vec![Vec::new(); ops.len()];
    let mut pass_times = Vec::new();
    let started = Instant::now();
    loop {
        let outcome = lib.pass(pool, ObsMode::Off, &mut checker, &mut samples, None);
        pass_times.push(outcome.pass_s);
        if cfg.timed_passes_done(pass_times.len(), started) {
            break;
        }
    }
    if cfg.write_golden {
        checker.write_golden();
    }

    let details = op_details(ops, &samples);
    let metrics = end_to_end_metrics(&setup_times, &pass_times, &details);
    WorkloadResult {
        workload: cfg.workload.name,
        seed: cfg.seed,
        traced: false,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        setup_times,
        pass_times,
        ops: details,
        layer_shares: Vec::new(),
        notes: checker.notes,
    }
}

/// Sums the self time of the spans that attribute an operation's interval
/// to a layer — everything except the operation roots and the asides — per
/// layer and in total.
pub fn layer_self_times(spans: &[Span]) -> (BTreeMap<String, f64>, f64) {
    let own = self_seconds(spans);
    let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
    let mut total = 0.0;
    for (span, own) in spans.iter().zip(own) {
        if span.aside || span.name == "bench.op" {
            continue;
        }
        *by_layer.entry(span.name.to_string()).or_insert(0.0) += own;
        total += own;
    }
    (by_layer, total)
}

/// Per op label (the detail of its `bench.op` span): the span name with the
/// largest self time inside the op's replay and its share of the replay's
/// wall, summed over every traced instance of the op.
pub fn top_layers(spans: &[Span]) -> BTreeMap<String, (String, f64)> {
    let own = self_seconds(spans);
    let mut label_of: BTreeMap<u64, &str> = BTreeMap::new();
    let mut wall: BTreeMap<&str, f64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.name == "bench.op") {
        label_of.insert(span.op, &span.detail);
        *wall.entry(&span.detail).or_insert(0.0) += span.seconds();
    }
    let mut by_layer: BTreeMap<(&str, &str), f64> = BTreeMap::new();
    for (span, own) in spans.iter().zip(own) {
        if span.aside || span.name == "bench.op" {
            continue;
        }
        if let Some(label) = label_of.get(&span.op) {
            *by_layer.entry((label, span.name)).or_insert(0.0) += own;
        }
    }
    let mut top: BTreeMap<String, (String, f64)> = BTreeMap::new();
    for ((label, layer), seconds) in by_layer {
        let share = seconds / wall[label];
        if top.get(label).is_none_or(|(_, best)| share > *best) {
            top.insert(label.to_string(), (layer.to_string(), share));
        }
    }
    top
}

/// Attaches each op's top layer to its detail row.
pub fn with_top_layers(mut details: Vec<OpDetail>, spans: &[Span]) -> Vec<OpDetail> {
    let mut top = top_layers(spans);
    for detail in &mut details {
        detail.top_layer = top.remove(&detail.id);
    }
    details
}

/// The span names ranked by their share of the attributed self time.
pub fn rank_layers(spans: &[Span]) -> Vec<(String, f64)> {
    let (by_layer, total) = layer_self_times(spans);
    let mut ranked: Vec<(String, f64)> = by_layer
        .into_iter()
        .map(|(name, s)| (name, if total > 0.0 { s / total } else { 0.0 }))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    ranked
}

/// Median over the traced passes of each span name's per-pass inclusive sum,
/// written under `<name>_s`.
pub fn span_metrics(
    spans: &[Span],
    passes: usize,
    names: &[(&'static str, &'static str)],
    metrics: &mut BTreeMap<&'static str, f64>,
) {
    let by_name = inclusive_by_name(spans, passes);
    for (span_name, metric) in names {
        let value = by_name
            .get(span_name)
            .map_or(0.0, |per_pass| median(per_pass));
        metrics.insert(metric, value);
    }
}

/// Span name → per-layer metric, for the library layers.
pub const LIBRARY_SPAN_METRICS: [(&str, &str); 16] = [
    ("query.reduct", "query.reduct_s"),
    ("plan.build", "plan.build_s"),
    ("plan.order", "plan.order_s"),
    ("plan.stats", "plan.stats_s"),
    ("plan.eager_exec", "plan.eager_exec_s"),
    ("plan.hybrid_exec", "plan.hybrid_exec_s"),
    ("plan.mystiq_exec", "plan.mystiq_exec_s"),
    ("exec.scan", "exec.scan_s"),
    ("exec.join", "exec.join_s"),
    ("exec.project", "exec.project_s"),
    ("exec.answer", "exec.answer_s"),
    ("conf.sort", "conf.sort_s"),
    ("conf.one_scan", "conf.one_scan_s"),
    ("conf.total", "conf.total_s"),
    ("conf.anytime", "conf.anytime_s"),
    ("bench.op", "bench.traced_pass_s"),
];

/// Writes the engine counters of one pass under their per-layer names.
pub fn counter_metrics(
    counters: &[u64; Counter::COUNT],
    metrics: &mut BTreeMap<&'static str, f64>,
) {
    let get = |c: Counter| counters[c as usize] as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    metrics.insert("exec.rows_scanned", get(Counter::RowsScanned));
    metrics.insert("exec.rows_emitted", get(Counter::RowsEmitted));
    metrics.insert("exec.chunks_scanned", get(Counter::ChunksScanned));
    metrics.insert("exec.chunks_skipped", get(Counter::ChunksSkipped));
    metrics.insert(
        "exec.chunks_bloom_skipped",
        get(Counter::ChunksBloomSkipped),
    );
    metrics.insert("exec.join_probes", get(Counter::JoinProbes));
    metrics.insert("exec.join_matches", get(Counter::JoinMatches));
    metrics.insert("exec.decoded_strings", get(Counter::DecodedStrings));
    metrics.insert("exec.answer_rows", get(Counter::AnswerRows));
    metrics.insert(
        "exec.skip_ratio",
        ratio(get(Counter::ChunksSkipped), get(Counter::ChunksScanned)),
    );
    metrics.insert(
        "exec.emit_ratio",
        ratio(get(Counter::RowsEmitted), get(Counter::RowsScanned)),
    );
    metrics.insert("plan.eager_groups", get(Counter::EagerGroups));
    metrics.insert("conf.bags", get(Counter::ConfBags));
    metrics.insert("conf.huge_bags", get(Counter::ConfHugeBags));
    metrics.insert("conf.frontier_nodes", get(Counter::FrontierNodes));
}

/// Writes the width / read-once metrics of one pass's answers.
pub fn width_metrics(
    summaries: &[Option<AnswerSummary>],
    metrics: &mut BTreeMap<&'static str, f64>,
) {
    let answers: Vec<&AnswerSummary> = summaries.iter().flatten().collect();
    let tuples: usize = answers.iter().map(|s| s.tuples).sum();
    let fallback: usize = answers.iter().map(|s| s.fallback_tuples).sum();
    let readonce: usize = answers.iter().map(|s| s.readonce).sum();
    let width_sum: f64 = answers.iter().map(|s| s.width_sum).sum();
    let ratio = |num: f64, den: usize| if den > 0 { num / den as f64 } else { 0.0 };
    metrics.insert("conf.mean_width", ratio(width_sum, tuples));
    metrics.insert(
        "conf.max_width",
        answers.iter().map(|s| s.max_width).fold(0.0, f64::max),
    );
    metrics.insert("conf.readonce_ratio", ratio(readonce as f64, fallback));
}

/// Writes `<workload>.spans.json` into the output directory.
pub fn write_spans(cfg: &RunConfig, spans: &[Span]) {
    let path = cfg
        .out_dir
        .join(format!("{}.spans.json", cfg.workload.name));
    let doc = spans_json(cfg.workload.name, cfg.seed, spans).render();
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir).and_then(|()| std::fs::write(&path, doc))
    {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn run_traced(cfg: &RunConfig, ops: &[OpSpec], order: &[usize]) -> WorkloadResult {
    let pool = Pool::new(ENGINE_THREADS);
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();

    let started = Instant::now();
    let built = setup(cfg.sf, cfg.seed);
    let gen = Duration::from_secs_f64(built.cost.gen_s);
    tracer.aside("tpch.gen", "", started, gen);
    tracer.aside(
        "storage.ingest",
        "",
        started + gen,
        Duration::from_secs_f64(built.cost.ingest_s),
    );
    built.cost.record(&mut metrics);

    // Row views: only the MystiQ comparator reads the row form of a columnar
    // table; the first `Catalog::table()` per table it touches builds it.
    let mut row_view_s = 0.0;
    let mut viewed = std::collections::BTreeSet::new();
    for op in ops.iter().filter(|op| op.kind == PlanKind::Mystiq) {
        for rel in op.query.relation_names() {
            if viewed.insert(rel.to_string()) {
                let t0 = Instant::now();
                built
                    .db
                    .catalog()
                    .table(rel)
                    .expect("workload tables exist");
                tracer.aside("storage.row_view", rel, t0, t0.elapsed());
                row_view_s += t0.elapsed().as_secs_f64();
            }
        }
    }
    metrics.insert("storage.row_view_s", row_view_s);

    let lib = Library {
        db: &built.db,
        ops,
        order,
        seed: cfg.seed,
    };
    let mut checker = Checker::new(cfg);
    let warmup = lib.warm_up(pool, &mut checker);
    let mut scratch = vec![Vec::new(); ops.len()];
    metrics.insert("bench.warmup_s", warmup.pass_s);

    // Untraced reference passes: the medians every overhead and share below
    // is taken against.
    let mut samples = vec![Vec::new(); ops.len()];
    let mut ref_passes = Vec::new();
    let mut unattributed = Vec::new();
    let mut last_summaries = Vec::new();
    for _ in 0..cfg.fixed_passes(REF_PASSES) {
        let outcome = lib.pass(pool, ObsMode::Off, &mut checker, &mut samples, None);
        ref_passes.push(outcome.pass_s);
        unattributed.push(outcome.unattributed_s);
        last_summaries = outcome.summaries;
    }
    let ref_pass_s = median(&ref_passes);
    metrics.insert("bench.ref_pass_s", ref_pass_s);
    metrics.insert("plan.unattributed_s", median(&unattributed));
    metrics.insert(
        "bench.samples",
        samples.iter().map(Vec::len).sum::<usize>() as f64,
    );
    width_metrics(&last_summaries, &mut metrics);

    // Traced passes: staged replay under the harness's spans, the engine's
    // counters read through `QueryObs`.
    let traced_passes = cfg.fixed_passes(TRACED_PASSES);
    let mut pass_counters: Vec<[u64; Counter::COUNT]> = Vec::new();
    let mut op_id = 0u64;
    for pass in 0..traced_passes {
        let obs = QueryObs::new();
        for &i in order {
            let op = &ops[i];
            op_id += 1;
            tracer.begin_op(op_id, pass);
            let outcome = replay_op(&mut tracer, &built.db, op, pool, cfg.seed, &obs);
            checker.record(&op.id, &outcome);
        }
        pass_counters.push(obs.counter_values());
    }
    checker.attempted += 1;
    if pass_counters.iter().any(|c| c != &pass_counters[0]) {
        checker.fail("engine counters differ between traced passes".to_string());
    }
    counter_metrics(&pass_counters[0], &mut metrics);

    // The same pass with the engine's own collector attached, counters only
    // and with span tracing: the overhead fractions, and the counters the
    // replay's must equal.
    let counted = lib.pass(pool, ObsMode::Counters, &mut checker, &mut scratch, None);
    let traced = lib.pass(pool, ObsMode::Tracing, &mut checker, &mut scratch, None);
    checker.attempted += 1;
    if counted.counters != pass_counters[0] {
        checker.fail(format!(
            "staged replay counters {:?} differ from the engine's {:?}",
            pass_counters[0], counted.counters
        ));
    }
    let overhead = |pass_s: f64| (pass_s - ref_pass_s) / ref_pass_s;
    metrics.insert("obs.counters_overhead_frac", overhead(counted.pass_s));
    metrics.insert("obs.trace_overhead_frac", overhead(traced.pass_s));

    let parallel = lib.pass(
        Pool::new(PARALLEL_THREADS),
        ObsMode::Off,
        &mut checker,
        &mut scratch,
        None,
    );
    metrics.insert("par.t2_pass_s", parallel.pass_s);
    metrics.insert("par.speedup", ref_pass_s / parallel.pass_s);

    let spans = tracer.spans();
    span_metrics(spans, traced_passes, &LIBRARY_SPAN_METRICS, &mut metrics);
    metrics.insert("plan.share", metrics["plan.build_s"] / ref_pass_s);
    let (_, attributed) = layer_self_times(spans);
    metrics.insert(
        "bench.attributed_frac",
        attributed / traced_passes as f64 / ref_pass_s,
    );
    metrics.insert(
        "bench.failed_frac",
        checker.failed as f64 / checker.attempted as f64,
    );
    write_spans(cfg, spans);

    WorkloadResult {
        workload: cfg.workload.name,
        seed: cfg.seed,
        traced: true,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        setup_times: vec![built.cost.gen_s + built.cost.ingest_s],
        pass_times: ref_passes,
        ops: with_top_layers(op_details(ops, &samples), spans),
        layer_shares: rank_layers(spans),
        notes: checker.notes,
    }
}
