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
//! charges is the same at every pool size, so no operator module, and none
//! of the key kernels and grouping shell under them, may branch on a
//! one-worker pool or a one-chunk cut.
//!
//! The engine has one lineage formula type, `pdb-lineage`'s interned clause
//! sets. The DNF the oracles expand lives in the dev-only `pdb-testkit`,
//! which no crate takes as a normal dependency and no engine source names,
//! and the confidence operator has no brute-force strategy.

use std::path::{Path, PathBuf};

use sprout::Strategy;

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
const SURFACE: [&str; 26] = [
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
    "exec::ops::natural_join_project_ctx",
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
        "crates/exec/src/key.rs",
        "crates/exec/src/runs.rs",
        "crates/conf/src/one_scan.rs",
    ] {
        let source = std::fs::read_to_string(root.join(path))
            .unwrap_or_else(|e| panic!("reading {path}: {e}"));
        for fork in ["threads() <= 1", "threads() == 1", "chunks <= 1"] {
            assert!(
                !source.contains(fork),
                "{path} branches on `{fork}`: the pool decides which worker runs \
                 a piece of work, never what the work is"
            );
        }
    }
}

/// The `.rs` files under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("reading {dir:?}: {e}")) {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

/// The 1-based line of the first occurrence of `word` in `source` as a whole
/// word (not inside a longer identifier), as `git grep -w` finds it.
fn first_line_naming(source: &str, word: &str) -> Option<usize> {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    source
        .lines()
        .position(|line| {
            line.match_indices(word).any(|(at, _)| {
                !ident(line[..at].chars().next_back())
                    && !ident(line[at + word.len()..].chars().next())
            })
        })
        .map(|i| i + 1)
}

/// The lines of one `[section]` of a manifest.
fn manifest_section<'a>(manifest: &'a str, section: &str) -> impl Iterator<Item = &'a str> {
    let mut lines = manifest.lines().map(str::trim);
    lines.find(|line| *line == section);
    lines.take_while(|line| !line.starts_with('['))
}

#[test]
fn no_engine_source_names_the_oracles_formula_type() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = std::fs::read_dir(root.join("crates")).expect("the crates directory");
    let crates = crates.map(|entry| entry.expect("a directory entry").path());
    for krate in std::iter::once(root.to_path_buf()).chain(crates) {
        if krate.ends_with("testkit") {
            continue;
        }
        let manifest = std::fs::read_to_string(krate.join("Cargo.toml"))
            .unwrap_or_else(|e| panic!("reading {krate:?}/Cargo.toml: {e}"));
        assert!(
            !manifest_section(&manifest, "[dependencies]").any(|l| l.starts_with("pdb-testkit")),
            "{krate:?} takes the test kit as a normal dependency: it is dev-only"
        );
        for file in rust_files(&krate.join("src")) {
            let source =
                std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("reading {file:?}: {e}"));
            if let Some(line) = first_line_naming(&source, "Dnf") {
                panic!(
                    "{}:{line} names `Dnf`: the engine's lineage is `pdb_lineage`'s \
                     clause sets, the DNF oracle lives in `pdb-testkit`",
                    file.display()
                );
            }
        }
    }
}

#[test]
fn the_confidence_operator_has_exactly_three_strategies() {
    let all = [Strategy::Auto, Strategy::OneScan, Strategy::GrpSemantics];
    for strategy in all {
        // Exhaustive: a fourth variant does not compile here.
        match strategy {
            Strategy::Auto | Strategy::OneScan | Strategy::GrpSemantics => {}
        }
    }
    let names: std::collections::BTreeSet<String> = all.iter().map(Strategy::to_string).collect();
    assert_eq!(
        names.len(),
        all.len(),
        "every strategy has a name of its own"
    );
}
