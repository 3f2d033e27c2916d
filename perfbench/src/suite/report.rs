//! What one workload run produced, and how it is printed: a table for
//! people, then the one-line JSON object the driver reads.

use std::collections::BTreeMap;

use sprout_server::Json;

use super::catalogue::{MetricDef, END_TO_END, PER_LAYER};
use super::stats::{high_percentile, median};

/// Per-op detail row: median, the highest percentile with at least ten
/// samples beyond it, and the sample count.
#[derive(Debug, Clone)]
pub struct OpDetail {
    /// Op (or request class) id.
    pub id: String,
    /// Median wall time, ms.
    pub median_ms: f64,
    /// `(percentile, ms)`, when the sample supports one.
    pub high: Option<(f64, f64)>,
    /// Samples.
    pub n: usize,
    /// Traced runs: the layer with the largest self time inside the op's
    /// staged replay, and its share of the replay's wall.
    pub top_layer: Option<(String, f64)>,
}

impl OpDetail {
    /// Builds the row from wall-time samples in seconds.
    pub fn from_samples(id: &str, seconds: &[f64]) -> OpDetail {
        let ms: Vec<f64> = seconds.iter().map(|s| s * 1e3).collect();
        OpDetail {
            id: id.to_string(),
            median_ms: median(&ms),
            high: high_percentile(&ms),
            n: ms.len(),
            top_layer: None,
        }
    }
}

/// The outcome of one workload run (timed or traced).
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: &'static str,
    /// Run seed.
    pub seed: u64,
    /// Whether this was the traced run (per-layer metrics) or the timed one
    /// (end-to-end metrics).
    pub traced: bool,
    /// Operations attempted, answer checks included.
    pub attempted: u64,
    /// Operations that errored, were shed, or failed a check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Wall seconds of every set-up, in order.
    pub setup_times: Vec<f64>,
    /// Wall seconds of every timed pass, in order.
    pub pass_times: Vec<f64>,
    /// Per-op detail rows.
    pub ops: Vec<OpDetail>,
    /// Layers ranked by share of attributed self time (traced runs).
    pub layer_shares: Vec<(String, f64)>,
    /// The first few failed checks, for the log.
    pub notes: Vec<String>,
}

impl WorkloadResult {
    fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The value of a catalogue metric (0 for a layer the workload does not
    /// exercise).
    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Prints every metric by name with its unit, the per-op rows, and the
    /// layer ranking.
    pub fn print_table(&self) {
        let kind = if self.traced {
            "per-layer"
        } else {
            "end-to-end"
        };
        println!(
            "== {} seed {} ({kind}): attempted {} failed {}",
            self.workload, self.seed, self.attempted, self.failed
        );
        for def in self.defs() {
            println!(
                "  {:<30} {:>16.6} {}",
                def.name,
                self.value(def.name),
                def.unit
            );
        }
        let series = |values: &[f64]| {
            let text: Vec<String> = values.iter().map(|s| format!("{s:.3}")).collect();
            text.join(" ")
        };
        println!("  set-up walls (s): {}", series(&self.setup_times));
        println!("  pass walls (s): {}", series(&self.pass_times));
        if !self.ops.is_empty() {
            println!(
                "  {:<14} {:>12} {:>20} {:>6}  top layer",
                "op", "median_ms", "high percentile", "n"
            );
            for op in &self.ops {
                let high = op
                    .high
                    .map_or("-".to_string(), |(p, v)| format!("p{p:.1} {v:.3}"));
                let top = op.top_layer.as_ref().map_or(String::new(), |(l, share)| {
                    format!("{l} {:.0} %", 100.0 * share)
                });
                println!(
                    "  {:<14} {:>12.3} {:>20} {:>6}  {top}",
                    op.id, op.median_ms, high, op.n
                );
            }
        }
        for (layer, share) in &self.layer_shares {
            println!(
                "  layer {:<24} {:>6.1} % of attributed time",
                layer,
                100.0 * share
            );
        }
        for note in &self.notes {
            println!("  FAILED CHECK: {note}");
        }
    }

    fn metrics_json(&self) -> Json {
        Json::Object(
            self.defs()
                .iter()
                .map(|def| {
                    (
                        def.name.to_string(),
                        Json::Object(vec![
                            ("value".into(), Json::Float(self.value(def.name))),
                            ("unit".into(), Json::str(def.unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The object the driver reads off the last line of standard output.
    pub fn final_line(&self) -> String {
        Json::Object(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Int(self.attempted as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            ("metrics".into(), self.metrics_json()),
        ])
        .render()
    }

    /// The run as one record of the suite's result file.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("workload".into(), Json::str(self.workload)),
            ("seed".into(), Json::Int(self.seed as i64)),
            ("traced".into(), Json::Bool(self.traced)),
            ("attempted".into(), Json::Int(self.attempted as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            ("metrics".into(), self.metrics_json()),
            (
                "ops".into(),
                Json::Array(
                    self.ops
                        .iter()
                        .map(|op| {
                            Json::Object(vec![
                                ("id".into(), Json::str(op.id.clone())),
                                ("median_ms".into(), Json::Float(op.median_ms)),
                                (
                                    "high_percentile".into(),
                                    op.high.map_or(Json::Null, |(p, _)| Json::Float(p)),
                                ),
                                (
                                    "high_ms".into(),
                                    op.high.map_or(Json::Null, |(_, v)| Json::Float(v)),
                                ),
                                ("n".into(), Json::Int(op.n as i64)),
                                (
                                    "top_layer".into(),
                                    op.top_layer
                                        .as_ref()
                                        .map_or(Json::Null, |(l, _)| Json::str(l.clone())),
                                ),
                                (
                                    "top_layer_share".into(),
                                    op.top_layer
                                        .as_ref()
                                        .map_or(Json::Null, |(_, s)| Json::Float(*s)),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "layer_shares".into(),
                Json::Object(
                    self.layer_shares
                        .iter()
                        .map(|(layer, share)| (layer.clone(), Json::Float(*share)))
                        .collect(),
                ),
            ),
        ])
    }
}
