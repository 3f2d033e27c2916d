//! The harness's own spans: name, start, end, parent and operation id, kept
//! in memory and written out when the workload ends.
//!
//! Spans are opened from the thread that drives an operation (the pass loop,
//! or one client of the server workload); engine workers never touch a
//! tracer. A layer's self time is its span's duration minus the part of
//! that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sprout_server::Json;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name, `<layer>.<what>` (`plan.order`, `exec.scan`, ...).
    pub name: &'static str,
    /// Free-form qualifier (operation id, relation name).
    pub detail: String,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Pass the operation belonged to.
    pub pass: usize,
    /// Nanoseconds from the tracer's epoch to span entry.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's epoch to span exit.
    pub end_ns: u64,
    /// Recorded outside any operation's interval (see [`Tracer::aside`]):
    /// reported by name, left out of the attribution sum.
    pub aside: bool,
}

impl Span {
    /// Inclusive duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder with one open-span stack.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    pass: usize,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            pass: 0,
        }
    }

    /// Starts a new operation: spans opened from here on carry `op`.
    pub fn begin_op(&mut self, op: u64, pass: usize) {
        self.op = op;
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; close it with
    /// [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str, detail: &str) -> usize {
        let idx = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            detail: detail.to_string(),
            parent: self.stack.last().copied(),
            op: self.op,
            pass: self.pass,
            start_ns: now,
            end_ns: now,
            aside: false,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes the span `idx`, and with it any span still open inside it (an
    /// operation that returned early with an error).
    pub fn exit(&mut self, idx: usize) {
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, detail: &str, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name, detail);
        let out = f();
        self.exit(idx);
        out
    }

    /// Records a child of the open span `parent` whose duration was measured
    /// on a separate call of the same public function: it is placed at the
    /// parent's start and clipped to the time the parent has been open.
    pub fn child_measured_aside(&mut self, parent: usize, name: &'static str, took: Duration) {
        let start = self.spans[parent].start_ns;
        let open_for = self.now_ns() - start;
        self.spans.push(Span {
            name,
            detail: "measured on a separate call".to_string(),
            parent: Some(parent),
            op: self.op,
            pass: self.pass,
            start_ns: start,
            end_ns: start + (took.as_nanos() as u64).min(open_for),
            aside: false,
        });
    }

    /// Records a root span that ran outside any operation's interval (the
    /// confidence sort / presorted-scan split, set-up stages).
    pub fn aside(&mut self, name: &'static str, detail: &str, started: Instant, took: Duration) {
        let start = started.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            detail: detail.to_string(),
            parent: None,
            op: self.op,
            pass: self.pass,
            start_ns: start,
            end_ns: start + took.as_nanos() as u64,
            aside: true,
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the time its children cover.
pub fn self_seconds(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::seconds).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.seconds();
        }
    }
    own.iter_mut().for_each(|v| *v = v.max(0.0));
    own
}

/// Per-pass sums of the inclusive duration of every span name.
pub fn inclusive_by_name(spans: &[Span], passes: usize) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name).or_insert_with(|| vec![0.0; passes])[s.pass] += s.seconds();
    }
    out
}

/// Renders the spans as the `<workload>.spans.json` document.
pub fn spans_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let rows = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::Object(vec![
                ("id".into(), Json::Int(i as i64)),
                ("name".into(), Json::str(s.name)),
                ("detail".into(), Json::str(s.detail.clone())),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("op".into(), Json::Int(s.op as i64)),
                ("pass".into(), Json::Int(s.pass as i64)),
                ("start_ns".into(), Json::Int(s.start_ns as i64)),
                ("end_ns".into(), Json::Int(s.end_ns as i64)),
                ("aside".into(), Json::Bool(s.aside)),
            ])
        })
        .collect();
    Json::Object(vec![
        ("workload".into(), Json::str(workload)),
        ("seed".into(), Json::Int(seed as i64)),
        ("spans".into(), Json::Array(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_asides_stay_roots() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        t.begin_op(7, 0);
        let op = t.enter("bench.op", "q");
        let order = t.enter("plan.order", "");
        std::thread::sleep(Duration::from_millis(4));
        t.child_measured_aside(order, "plan.stats", Duration::from_millis(2));
        t.exit(order);
        t.exit(op);
        t.aside("conf.sort", "q", epoch, Duration::from_millis(1));
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(order));
        assert!(spans.iter().all(|s| s.op == 7));
        let own = self_seconds(spans);
        assert!(own[order] <= spans[order].seconds() - 0.0019);
        assert_eq!(spans[3].parent, None);
        let by_name = inclusive_by_name(spans, 1);
        assert!(by_name["plan.stats"][0] >= 0.0019);
    }
}
