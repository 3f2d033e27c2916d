//! `sprout_bench`: see the crate documentation and `README.md`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    sprout_perfbench::suite::cli::main(&args)
}
