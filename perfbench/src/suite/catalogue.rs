//! The metric catalogue and the workload table — the single source the
//! binary prints from and `tests/smoke.rs` holds `BENCHMARK.json` against.

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
    /// Repeats exactly for a seed (deterministic counts, widths, the failed
    /// fraction): `--compare` counts any move in the worse direction.
    pub exact: bool,
}

impl MetricDef {
    const fn exact(mut self) -> MetricDef {
        self.exact = true;
        self
    }
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: true,
        bound: Some(bound),
        exact: false,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: true,
        bound: None,
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: false,
        bound: None,
        exact: false,
    }
}

/// End-to-end metrics: the same names on every workload, measured with
/// tracing off and one engine thread (see [`super::ENGINE_THREADS`]). None of
/// them can read 0.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", 0.25),
    e2e("pass_s", "s", 0.25),
    e2e("geomean_ms", "ms", 0.25),
    e2e("peak_rss_mb", "mb", 0.05),
];

/// Per-layer metrics, from the traced run. Every workload prints every one;
/// a layer a workload does not exercise reads 0.
pub const PER_LAYER: [MetricDef; 61] = [
    // tpch + storage: move setup_s and peak_rss_mb everywhere.
    lower("tpch.gen_s", "s"),
    lower("storage.ingest_s", "s"),
    higher("storage.rows", "count").exact(),
    lower("storage.row_view_s", "s"),
    lower("storage.rss_after_ingest_mb", "mb"),
    // query: FD-reduct + hierarchy + signature.
    lower("query.reduct_s", "s"),
    // plan.
    lower("plan.build_s", "s"),
    lower("plan.order_s", "s"),
    lower("plan.stats_s", "s"),
    lower("plan.unattributed_s", "s"),
    lower("plan.share", "ratio"),
    lower("plan.eager_exec_s", "s"),
    lower("plan.eager_groups", "count").exact(),
    lower("plan.hybrid_exec_s", "s"),
    lower("plan.mystiq_exec_s", "s"),
    // exec.
    lower("exec.scan_s", "s"),
    lower("exec.join_s", "s"),
    lower("exec.project_s", "s"),
    lower("exec.answer_s", "s"),
    lower("exec.rows_scanned", "count").exact(),
    lower("exec.rows_emitted", "count").exact(),
    lower("exec.chunks_scanned", "count").exact(),
    higher("exec.chunks_skipped", "count").exact(),
    higher("exec.chunks_bloom_skipped", "count").exact(),
    lower("exec.join_probes", "count").exact(),
    lower("exec.join_matches", "count").exact(),
    lower("exec.decoded_strings", "count").exact(),
    lower("exec.answer_rows", "count").exact(),
    higher("exec.skip_ratio", "ratio"),
    lower("exec.emit_ratio", "ratio"),
    // conf.
    lower("conf.sort_s", "s"),
    lower("conf.one_scan_s", "s"),
    lower("conf.total_s", "s"),
    lower("conf.bags", "count").exact(),
    lower("conf.huge_bags", "count").exact(),
    lower("conf.anytime_s", "s"),
    lower("conf.frontier_nodes", "count").exact(),
    higher("conf.readonce_ratio", "ratio"),
    lower("conf.max_width", "ratio").exact(),
    lower("conf.mean_width", "ratio").exact(),
    // server.
    lower("server.json_parse_s", "s"),
    lower("server.proto_parse_s", "s"),
    lower("server.encode_s", "s"),
    lower("server.wire_overhead_ms", "ms"),
    lower("server.register_ms", "ms"),
    lower("server.light_p99_ms", "ms"),
    lower("server.heavy_p99_ms", "ms"),
    higher("server.req_per_s", "1/s"),
    higher("server.concurrent_req_per_s", "1/s"),
    lower("server.shed", "count"),
    lower("server.admit_wait_ms", "ms"),
    // par + obs.
    lower("par.t2_pass_s", "s"),
    higher("par.speedup", "ratio"),
    lower("obs.counters_overhead_frac", "ratio"),
    lower("obs.trace_overhead_frac", "ratio"),
    // the harness itself.
    higher("bench.attributed_frac", "ratio"),
    lower("bench.warmup_s", "s"),
    higher("bench.samples", "count"),
    lower("bench.failed_frac", "ratio").exact(),
    lower("bench.ref_pass_s", "s"),
    lower("bench.traced_pass_s", "s"),
];

/// One workload of the suite.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Fixed name.
    pub name: &'static str,
    /// TPC-H scale factor of a full run.
    pub sf: f64,
    /// Why the workload exists (one line, mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Whether `BENCHMARK.json` lists the workload, i.e. whether the driver
    /// holds later changes to its end-to-end bounds.
    pub gated: bool,
}

/// Scale factor of every workload under `--smoke`.
pub const SMOKE_SF: f64 = 0.002;

/// The four workloads, in the order a suite run executes them; the gated
/// ones are the `workloads` of `BENCHMARK.json`.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "scan_conf",
        sf: 0.1,
        why: "single-table lazy ops: planning statistics, scan kernels and pruning, confidence sort and one-scan; join work near zero",
        gated: true,
    },
    WorkloadDef {
        name: "join_plans",
        sf: 0.05,
        why: "the paper's Fig. 9: the same join queries under lazy, eager, hybrid and MystiQ plans, so a lazy gain that costs eager shows",
        gated: true,
    },
    WorkloadDef {
        name: "unsafe_bounds",
        sf: 0.01,
        why: "unsafe queries under Bounds{eps:1e-3}: read-once hits and entangled bags; anytime + lineage only, time and width together",
        gated: true,
    },
    WorkloadDef {
        name: "serve_mixed",
        sf: 0.01,
        why: "closed loop of keep-alive clients on the HTTP server: light key-joins, heavy TPC-H queries and table registrations mixed",
        // Every request crosses two thread wake-ups and the loopback stack,
        // and in this sandbox what those cost follows the host: same-commit
        // medians have been seen 26–31 % apart and ten-run spreads at 29 %,
        // past the widest bound the contract allows. It runs in the suite,
        // the smoke test and `--compare`; it does not gate.
        gated: false,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}
