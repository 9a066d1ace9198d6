//! Regenerates every table, figure, ablation and extension of
//! EXPERIMENTS.md and checks each against its shape claim.
//!
//! `repro --scale small` prints exactly `repro_output.txt`. Exit status:
//! 0 if every check holds, 1 if one fails (named on stderr with the
//! offending row), 2 on bad arguments.
//!
//! Usage: `cargo run --release -p cmg-bench --bin repro -- [--scale S] [--only a,b]`

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]

use cmg_bench::{Experiment, Scale, EXPERIMENTS};
use std::process::ExitCode;

const USAGE: &str = "usage: repro [--scale small|medium|large] [--only NAME[,NAME...]]";

/// Parses `repro`'s arguments into the scale (default `small`) and the
/// experiments to run (default all, always in table order). Anything
/// unrecognised is an error: a typo must not regenerate the wrong tables.
fn parse_args(args: &[String]) -> Result<(Scale, Vec<&'static Experiment>), String> {
    let mut scale = Scale::Small;
    let mut only: Option<Vec<&str>> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--scale" => {
                scale = match value()?.as_str() {
                    "small" => Scale::Small,
                    "medium" => Scale::Medium,
                    "large" => Scale::Large,
                    other => return Err(format!("unknown --scale {other}")),
                }
            }
            "--only" => only = Some(value()?.split(',').collect()),
            other => return Err(format!("unrecognised argument {other}")),
        }
    }
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    if let Some(bad) = only.iter().flatten().find(|n| !names.contains(n)) {
        let valid = names.join(", ");
        return Err(format!("unknown experiment {bad}; --only takes {valid}"));
    }
    let chosen = |e: &&Experiment| only.as_ref().is_none_or(|o| o.contains(&e.name));
    Ok((scale, EXPERIMENTS.iter().filter(chosen).collect()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, selected) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("repro: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    for exp in selected {
        println!("\n=== {} ===\n", exp.name);
        let sections = (exp.run)(scale);
        sections.iter().for_each(|section| print!("{section}"));
        match (exp.check)(&sections) {
            Ok(()) => println!("check {}: holds", exp.name),
            Err(e) => {
                failed = true;
                eprintln!("repro: check {} FAILED: {e}", exp.name);
            }
        }
    }
    ExitCode::from(u8::from(failed))
}
