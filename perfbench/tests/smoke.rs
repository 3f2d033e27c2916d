//! Runs `sprout_bench --smoke` (every workload, timed and traced, in child
//! processes) and holds what it printed against `BENCHMARK.json`: exactly
//! the workloads and metric names the contract file lists, no failed op.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use sprout_perfbench::suite::catalogue::{END_TO_END, PER_LAYER, WORKLOADS};
use sprout_server::Json;

fn names(doc: &Json, key: &str) -> BTreeSet<String> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` array"))
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn smoke_suite_names_exactly_the_contract_metrics_and_workloads() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let contract = std::fs::read_to_string(manifest_dir.join("../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let contract = Json::parse(&contract).expect("BENCHMARK.json is valid JSON");

    // The catalogue the binary prints from is the contract's.
    let catalogue = |defs: &[sprout_perfbench::suite::catalogue::MetricDef]| {
        defs.iter()
            .map(|d| d.name.to_string())
            .collect::<BTreeSet<_>>()
    };
    assert_eq!(names(&contract, "end_to_end"), catalogue(&END_TO_END));
    assert_eq!(names(&contract, "per_layer"), catalogue(&PER_LAYER));
    let workloads: BTreeSet<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    let gated: BTreeSet<String> = WORKLOADS
        .iter()
        .filter(|w| w.gated)
        .map(|w| w.name.to_string())
        .collect();
    assert_eq!(names(&contract, "workloads"), gated);
    for def in &END_TO_END {
        let entry = contract
            .get("end_to_end")
            .and_then(Json::as_array)
            .and_then(|list| {
                list.iter()
                    .find(|e| e.get("name").and_then(Json::as_str) == Some(def.name))
            })
            .expect("listed above");
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            def.bound,
            "{}",
            def.name
        );
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(def.unit),
            "{}",
            def.name
        );
    }

    // The suite writes `<target dir>/sprout-bench/result.smoke.json`.
    let exe = Path::new(env!("CARGO_BIN_EXE_sprout_bench"));
    let out = exe
        .parent()
        .and_then(Path::parent)
        .expect("the binary sits in <target dir>/<profile>")
        .join("sprout-bench/result.smoke.json");
    let _ = std::fs::remove_file(&out);
    let status = Command::new(exe)
        .args(["--smoke", "--seed", "1"])
        .status()
        .expect("sprout_bench starts");
    assert!(
        status.success(),
        "sprout_bench --smoke exited with {status}"
    );
    let result = std::fs::read_to_string(&out).expect("the suite wrote its result file");
    let result = Json::parse(&result).expect("the result file is valid JSON");

    let runs = result.get("runs").and_then(Json::as_array).expect("runs");
    let mut seen = BTreeSet::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .expect("workload");
        let traced = run.get("traced").and_then(Json::as_bool).expect("traced");
        assert_eq!(
            run.get("failed").and_then(Json::as_i64),
            Some(0),
            "{workload}"
        );
        let Some(Json::Object(metrics)) = run.get("metrics") else {
            panic!("{workload}: no metrics");
        };
        let printed: BTreeSet<String> = metrics.iter().map(|(name, _)| name.clone()).collect();
        let want = if traced { "per_layer" } else { "end_to_end" };
        assert_eq!(printed, names(&contract, want), "{workload} trace {traced}");
        seen.insert((workload.to_string(), traced));
    }
    let want: BTreeSet<(String, bool)> = workloads
        .iter()
        .flat_map(|w| [(w.clone(), false), (w.clone(), true)])
        .collect();
    assert_eq!(seen, want);
}
