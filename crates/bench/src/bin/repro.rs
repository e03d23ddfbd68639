//! `repro <experiment|all> [--smoke]`: reproduces the paper's tables and
//! figures and runs the QoR gates (see `emorphic_bench::EXPERIMENTS`).
//! `EMORPHIC_SCALE=tiny|small|default` sets the circuit sizes; `--paranoid`
//! raises the `audit` experiment's level. Exits 1 if any gate check failed,
//! 2 on a usage error.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = std::env::var("EMORPHIC_SCALE").ok();
    match emorphic_bench::repro(&args, scale.as_deref()) {
        Ok(run) => ExitCode::from(run.exit_status()),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
