//! Answer checks: digests (values + confidence bits + bracket bits + row
//! order), the committed golden digests enforced at `--seed 1`, bracket
//! sanity, and cross-plan agreement.

use std::collections::BTreeMap;
use std::path::PathBuf;

use pdb_storage::Value;
use sprout::PlanReport;
use sprout_server::Json;

/// Largest disagreement tolerated between plan families on one tuple.
pub const PLAN_AGREEMENT_TOL: f64 = 1e-9;

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one `u64` in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

fn hash_value(h: &mut Fnv, v: &Value) {
    match v {
        Value::Null => h.bytes(&[0]),
        Value::Int(i) => {
            h.bytes(&[1]);
            h.u64(*i as u64);
        }
        Value::Float(f) => {
            h.bytes(&[2]);
            h.u64(f.to_bits());
        }
        Value::Str(s) => {
            h.bytes(&[3]);
            h.u64(s.len() as u64);
            h.bytes(s.as_bytes());
        }
        Value::Date(d) => {
            h.bytes(&[4]);
            h.u64(*d as u64);
        }
        Value::Bool(b) => h.bytes(&[5, u8::from(*b)]),
    }
}

/// What the harness keeps of one answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnswerSummary {
    /// Digest over values, confidence bits, `lo`/`hi` bits and row order.
    pub digest: u64,
    /// Distinct answer tuples.
    pub tuples: usize,
    /// Σ `hi − lo` over the answer tuples (0 on exact answers).
    pub width_sum: f64,
    /// Largest `hi − lo`.
    pub max_width: f64,
    /// Tuples answered exactly by read-once factorization (fallback only).
    pub readonce: usize,
    /// Tuples that went through the fallback evaluators.
    pub fallback_tuples: usize,
    /// Whether every bracket satisfies `0 ≤ lo ≤ hi ≤ 1`.
    pub brackets_valid: bool,
}

/// Summarises a report.
pub fn summarize(report: &PlanReport) -> AnswerSummary {
    let mut h = Fnv::new();
    for (tuple, p) in &report.confidences {
        h.u64(tuple.arity() as u64);
        for v in tuple.values() {
            hash_value(&mut h, v);
        }
        h.u64(p.to_bits());
    }
    let mut out = AnswerSummary {
        digest: 0,
        tuples: report.confidences.len(),
        width_sum: 0.0,
        max_width: 0.0,
        readonce: 0,
        fallback_tuples: 0,
        brackets_valid: true,
    };
    if let Some(brackets) = &report.approx {
        out.fallback_tuples = brackets.len();
        for b in brackets {
            h.u64(b.lo.to_bits());
            h.u64(b.hi.to_bits());
            out.width_sum += b.width();
            out.max_width = out.max_width.max(b.width());
            out.readonce += usize::from(b.method == sprout::ConfMethod::ReadOnce);
            out.brackets_valid &= 0.0 <= b.lo && b.lo <= b.hi && b.hi <= 1.0;
        }
    }
    out.digest = h.finish();
    out
}

/// Whether two exact answers hold the same tuples with confidences within
/// [`PLAN_AGREEMENT_TOL`].
pub fn plans_agree(a: &PlanReport, b: &PlanReport) -> bool {
    a.confidences.len() == b.confidences.len()
        && a.confidences
            .iter()
            .zip(&b.confidences)
            .all(|((ta, pa), (tb, pb))| ta == tb && (pa - pb).abs() <= PLAN_AGREEMENT_TOL)
}

/// Digest of a wire response body (or of the library's rendering of it).
pub fn digest_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = Fnv::new();
    for line in lines {
        h.u64(line.len() as u64);
        h.bytes(line.as_bytes());
    }
    h.finish()
}

/// The committed golden digests, keyed `<workload>@<sf>/<op>`.
#[derive(Debug, Default)]
pub struct Golden {
    entries: BTreeMap<String, u64>,
}

impl Golden {
    /// Where the golden file lives: beside the package manifest.
    pub fn path() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/seed1.json")
    }

    /// Loads the golden file; an absent file is an empty set, so a fresh
    /// `--write-golden` run can bootstrap it.
    pub fn load() -> Golden {
        let mut golden = Golden::default();
        let Ok(text) = std::fs::read_to_string(Golden::path()) else {
            return golden;
        };
        let doc = Json::parse(&text).expect("golden/seed1.json is valid JSON");
        if let Some(Json::Object(fields)) = doc.get("digests") {
            for (key, value) in fields {
                let hex = value.as_str().expect("digests are hex strings");
                let digest = u64::from_str_radix(hex, 16).expect("digests are hex strings");
                golden.entries.insert(key.clone(), digest);
            }
        }
        golden
    }

    /// The key of one op of one workload at one scale factor.
    pub fn key(workload: &str, sf: f64, op: &str) -> String {
        format!("{workload}@{sf}/{op}")
    }

    /// The committed digest for `key`, if any.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.entries.get(key).copied()
    }

    /// Replaces every entry of `workload@sf` with `digests` and rewrites the
    /// file.
    pub fn rewrite(&mut self, workload: &str, sf: f64, digests: &[(String, u64)]) {
        let prefix = format!("{workload}@{sf}/");
        self.entries.retain(|k, _| !k.starts_with(&prefix));
        for (op, digest) in digests {
            self.entries.insert(Golden::key(workload, sf, op), *digest);
        }
        let mut text = String::from(
            "{\n\"note\": \"answer digests at --seed 1 (values + confidence bits + lo/hi bits + row order); regenerate with sprout_bench --write-golden\",\n\"digests\": {\n",
        );
        let last = self.entries.len().saturating_sub(1);
        for (i, (key, digest)) in self.entries.iter().enumerate() {
            let comma = if i == last { "" } else { "," };
            text.push_str(&format!("  \"{key}\": \"{digest:016x}\"{comma}\n"));
        }
        text.push_str("}\n}\n");
        std::fs::write(Golden::path(), text).expect("write golden/seed1.json");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_order_and_bits() {
        assert_ne!(digest_lines(["a", "b"]), digest_lines(["b", "a"]));
        assert_ne!(digest_lines(["ab"]), digest_lines(["a", "b"]));
        let mut x = Fnv::new();
        x.u64(0.1f64.to_bits());
        let mut y = Fnv::new();
        y.u64((0.1f64 + f64::EPSILON).to_bits());
        assert_ne!(x.finish(), y.finish());
    }
}
