//! EXPLAIN: the planner's decision procedure as data, without executing.
//!
//! [`Planner::explain`](crate::Planner::explain) runs exactly the checks the
//! execute path runs — FD-reduct hierarchy, signature derivation, greedy join
//! ordering, fallback eligibility — and reports what *would* happen: which
//! plan family, safe or intensional-fallback path, the join order, each
//! relation's storage backing and pushed-down predicates, and the policy in
//! force. The output is plain data so callers (the server's
//! `"explain": "plan"` mode, CLIs, tests) can render it however they like.

use crate::PlanKind;
use pdb_conf::ApproxPolicy;

/// Which evaluation path the planner would take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainPath {
    /// The query has a safe plan: exact confidences via the chosen family.
    Safe,
    /// No safe plan, but an [`ApproxPolicy`] is set: lazy joins plus the
    /// intensional chain (read-once factorization, then anytime dissociation
    /// bounds when the policy allows them).
    Fallback,
}

impl ExplainPath {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            ExplainPath::Safe => "safe",
            ExplainPath::Fallback => "fallback",
        }
    }
}

/// One scanned relation in the plan: its position in the join order, its
/// physical backing, and the predicates the scan will push down.
#[derive(Debug, Clone)]
pub struct ExplainScan {
    /// Relation name.
    pub relation: String,
    /// Physical backing: `"row"` or `"columnar"`.
    pub backing: &'static str,
    /// Base-table row count (the optimizer's size input).
    pub rows: usize,
    /// Predicates evaluated inside the scan, rendered `Rel.attr op const`.
    pub pushdowns: Vec<String>,
    /// The semi-join reduction filters of an eager, MystiQ or hybrid plan's
    /// scan, rendered `Item.okey ⊆ keys(Ord)` (see [`crate::eager`]) or, in
    /// a hybrid plan, `Item.okey ⊆ keys(Cust ⋈ Ord)` (the running result,
    /// see [`pdb_exec::pipeline`]). Each is built at run time only if its
    /// key set passes [`pdb_query::Predicate::semi_join`]'s rule.
    pub reductions: Vec<String>,
}

/// The planner's explained decision for one (query, plan-kind) pair.
#[derive(Debug, Clone)]
pub struct PlanExplain {
    /// The requested plan family.
    pub kind: PlanKind,
    /// Safe plan or intensional fallback.
    pub path: ExplainPath,
    /// Whether the query is tractable (has a hierarchical FD-reduct) under
    /// the dependencies the planner uses.
    pub tractable: bool,
    /// The top-level confidence-operator signature (safe path only),
    /// rendered like `(Cust (Ord Item*)*)*`.
    pub signature: Option<String>,
    /// Number of scans the confidence operator needs (safe path only).
    pub scans: Option<usize>,
    /// The greedy join order over the scanned relations.
    pub join_order: Vec<String>,
    /// Per-relation scan details, in join order.
    pub scan_details: Vec<ExplainScan>,
    /// The approximation policy the fallback would run under (`None` when no
    /// policy is set or the safe path makes it irrelevant).
    pub policy: Option<ApproxPolicy>,
    /// Whether declared functional dependencies were used to refine the
    /// signature.
    pub uses_fds: bool,
}

impl PlanExplain {
    /// A compact single-string rendering, one clause per line — handy for
    /// logs and CLI output. Wire formats should instead read the fields.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("plan: {} ({})\n", self.kind, self.path.name()));
        out.push_str(&format!(
            "tractable: {} (fds: {})\n",
            self.tractable, self.uses_fds
        ));
        if let Some(sig) = &self.signature {
            out.push_str(&format!("signature: {sig}\n"));
        }
        if let Some(scans) = self.scans {
            out.push_str(&format!("scans: {scans}\n"));
        }
        if let Some(policy) = &self.policy {
            out.push_str(&format!("policy: {policy:?}\n"));
        }
        out.push_str(&format!("join order: {}\n", self.join_order.join(" ⋈ ")));
        for scan in &self.scan_details {
            out.push_str(&format!(
                "  scan {} [{}] rows={}",
                scan.relation, scan.backing, scan.rows
            ));
            if !scan.pushdowns.is_empty() {
                out.push_str(&format!(" where {}", scan.pushdowns.join(" and ")));
            }
            if !scan.reductions.is_empty() {
                out.push_str(&format!(" reduced by {}", scan.reductions.join(" and ")));
            }
            out.push('\n');
        }
        out
    }
}
