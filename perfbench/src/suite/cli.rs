//! Command line: one workload in this process (what the driver runs), the
//! whole suite as child processes, or a comparison of two result files.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use sprout_server::Json;

use super::catalogue::{workload, SMOKE_SF, WORKLOADS};
use super::compare::compare;
use super::library::RunConfig;
use super::report::WorkloadResult;
use super::{library, server, ENGINE_THREADS};

/// `run_seconds` of `BENCHMARK.json`: how long a timed run measures when
/// `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage:
  sprout_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--write-golden]
  sprout_bench [--seed <n>] [--seconds <s>] [--runs <k>] [--smoke] [--out <file>]
  sprout_bench --compare <a.json> <b.json>";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    write_golden: bool,
    runs: usize,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        runs: 1,
        ..Args::default()
    };
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                parsed.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value(&mut it, flag)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => {
                parsed.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--runs" => {
                parsed.runs = value(&mut it, flag)?
                    .parse()
                    .ok()
                    .filter(|k| *k >= 1)
                    .ok_or("--runs takes a whole number of at least 1")?;
            }
            "--out" => parsed.out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--smoke" => parsed.smoke = true,
            "--write-golden" => parsed.write_golden = true,
            "--compare" => {
                parsed.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// `<target dir>/sprout-bench`, beside the profile directory this binary
/// was built into — inside the checkout, and already ignored by git.
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("sprout-bench")))
        .unwrap_or_else(|| PathBuf::from("sprout-bench"))
}

fn record_path(dir: &std::path::Path, workload: &str, traced: bool) -> PathBuf {
    dir.join(format!("{workload}.trace{}.json", u8::from(traced)))
}

fn run_workload(args: &Args, name: &str) -> Result<WorkloadResult, String> {
    let def = workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            names.join(", ")
        )
    })?;
    let cfg = RunConfig {
        workload: def,
        sf: if args.smoke { SMOKE_SF } else { def.sf },
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        traced: args.trace,
        write_golden: args.write_golden,
        out_dir: out_dir(),
    };
    let result = if def.name == "serve_mixed" {
        server::run(&cfg)
    } else {
        library::run(&cfg)
    };
    let record = record_path(&cfg.out_dir, def.name, cfg.traced);
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| std::fs::write(&record, result.to_json().render()))
    {
        eprintln!("could not write {}: {e}", record.display());
    }
    Ok(result)
}

/// Runs every workload in a child process of its own, one after another, so
/// peak memory is per workload and only one process generates load at a
/// time: `runs` timed runs, then the traced run.
fn run_suite(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = out_dir();
    let mut records = Vec::new();
    let mut all_correct = true;
    for def in &WORKLOADS {
        let passes = std::iter::repeat_n(false, args.runs).chain([true]);
        for traced in passes {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", def.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            // The child inherits standard output, so its table shows as it
            // runs; `status` waits until it has ended.
            let status = cmd.status().map_err(|e| format!("{}: {e}", def.name))?;
            if !status.success() {
                return Err(format!(
                    "{} (trace {}) exited with {status}",
                    def.name,
                    u8::from(traced)
                ));
            }
            let path = record_path(&dir, def.name, traced);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let record = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            all_correct &= record.get("failed").and_then(Json::as_i64) == Some(0);
            records.push(record);
        }
    }
    let out = args.out.clone().unwrap_or_else(|| {
        dir.join(if args.smoke {
            "result.smoke.json"
        } else {
            "result.json"
        })
    });
    let doc = Json::Object(vec![
        ("seed".into(), Json::Int(args.seed as i64)),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("run_seconds".into(), Json::Float(args.seconds)),
        ("runs".into(), Json::Array(records)),
    ]);
    std::fs::write(&out, doc.render()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(all_correct)
}

/// The binary's entry point.
pub fn main(args: &[String]) -> ExitCode {
    // The one engine path that takes no explicit pool is the catalog ingest
    // inside `probabilistic_catalog_columnar`; pin it like everything else.
    std::env::set_var("SPROUT_THREADS", ENGINE_THREADS.to_string());
    let parsed = match parse(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &parsed.compare {
        return match compare(a, b) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    match &parsed.workload {
        Some(name) => match run_workload(&parsed, name) {
            Ok(result) => {
                result.print_table();
                println!("{}", result.final_line());
                // A run whose answers are wrong still reports (`correct:
                // false`); only a run that could not happen exits non-zero.
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        None => match run_suite(&parsed) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("some operations failed their checks");
                ExitCode::from(1)
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
    }
}
