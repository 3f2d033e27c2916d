//! Snapshot of the operator surface, so spellings cannot quietly regrow.
//!
//! Every operator has one governed spelling (`op_ctx(input…, pool, ctx)`)
//! and at most one bare convenience (`op(input…)`); the operators outside
//! the governed hot path come as bare + `_with(pool)`. This test reads the
//! operator modules as text, extracts their top-level `pub fn` names and
//! compares them to the list below: adding a variant is a visible one-line
//! diff here, to be argued for in review.
//!
//! A governed operator also has one *body*: what it does, checkpoints and
//! charges is the same at every pool size, so no operator module may branch
//! on a one-worker pool.

use std::path::Path;

/// The operator modules, as `(label, path under the repository root)`.
const MODULES: [(&str, &str); 6] = [
    ("conf::grp", "crates/conf/src/grp.rs"),
    ("conf::multi_scan", "crates/conf/src/multi_scan.rs"),
    ("conf::one_scan", "crates/conf/src/one_scan.rs"),
    ("exec::columnar", "crates/exec/src/columnar.rs"),
    ("exec::ops", "crates/exec/src/ops.rs"),
    ("exec::pipeline", "crates/exec/src/pipeline.rs"),
];

/// The pinned surface, sorted.
const SURFACE: [&str; 25] = [
    "conf::grp::grp_confidences",
    "conf::grp::grp_confidences_with",
    "conf::multi_scan::apply_pre_aggregation",
    "conf::multi_scan::apply_pre_aggregation_ctx",
    "conf::multi_scan::multi_scan_confidences",
    "conf::multi_scan::multi_scan_confidences_ctx",
    "conf::one_scan::one_scan_confidences",
    "conf::one_scan::one_scan_confidences_ctx",
    "conf::one_scan::one_scan_confidences_presorted_tuned",
    "conf::one_scan::sort_for_signature",
    "exec::columnar::scan_columnar_ctx",
    "exec::columnar::scan_filter_project_columnar_ctx",
    "exec::columnar::scan_filter_project_columnar_ranked_ctx",
    "exec::ops::natural_join",
    "exec::ops::natural_join_ctx",
    "exec::ops::project",
    "exec::ops::project_ctx",
    "exec::ops::scan",
    "exec::ops::scan_ctx",
    "exec::ops::scan_filter_project",
    "exec::ops::scan_filter_project_backing_ctx",
    "exec::ops::scan_filter_project_ctx",
    "exec::pipeline::evaluate_join_order",
    "exec::pipeline::evaluate_join_order_ctx",
    "exec::pipeline::evaluate_join_order_with",
];

/// The top-level `pub fn` names of one source file (methods and nested
/// items are indented and therefore not matched).
fn pub_fns(source: &str) -> impl Iterator<Item = &str> {
    source
        .lines()
        .filter_map(|line| line.strip_prefix("pub fn "))
        .map(|rest| {
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            &rest[..end]
        })
}

#[test]
fn operator_surface_matches_the_pinned_list() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    for (label, path) in MODULES {
        let source = std::fs::read_to_string(root.join(path))
            .unwrap_or_else(|e| panic!("reading {path}: {e}"));
        found.extend(pub_fns(&source).map(|name| format!("{label}::{name}")));
    }
    found.sort();
    let pinned: Vec<String> = SURFACE.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        found, pinned,
        "the operator surface changed: update SURFACE in tests/surface.rs \
         and justify the new spelling in review"
    );
}

#[test]
fn governed_operators_do_not_branch_on_a_one_worker_pool() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for path in [
        "crates/exec/src/ops.rs",
        "crates/exec/src/pipeline.rs",
        "crates/conf/src/one_scan.rs",
    ] {
        let source = std::fs::read_to_string(root.join(path))
            .unwrap_or_else(|e| panic!("reading {path}: {e}"));
        for fork in ["threads() <= 1", "threads() == 1"] {
            assert!(
                !source.contains(fork),
                "{path} branches on `{fork}`: the pool decides which worker runs \
                 a piece of work, never what the work is"
            );
        }
    }
}
