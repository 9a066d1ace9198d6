//! `cmg-lint` — the workspace's repo-specific static checks.
//!
//! Runs the [`cmg_check::analyze`] pass over the repo root (default: the
//! current directory): `crates/*/src`, `examples/` and `ledger/src` form
//! the call graph. Three rules (blocking-reachability, lock-order
//! cycles, `test-only` code), minus the reasoned allowlist. Prints every
//! violation and exits 1 when any remain, 2 on a bad argument or an I/O
//! error. Run from CI as:
//!
//! ```text
//! cargo run -p cmg-check --bin cmg-lint -- --json report.json
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]

use cmg_check::analyze::{analyze_tree, AnalyzeAllowlist};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cmg-lint [REPO_ROOT] [--allowlist] [--json FILE]";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut show_allowlist = false;
    let mut json_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--allowlist" => show_allowlist = true,
            "--json" => match args.next() {
                Some(path) => json_out = Some(PathBuf::from(path)),
                None => {
                    eprintln!("cmg-lint: --json requires a file path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                println!("  analyzes crates/*/src; exits 1 on violations, 2 on bad arguments or I/O errors");
                println!("  --allowlist  print the reasoned exemptions and exit");
                println!("  --json       also write the JSON report to FILE");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("cmg-lint: unknown option {flag}\n{USAGE}");
                return ExitCode::from(2);
            }
            other => root = PathBuf::from(other),
        }
    }
    let allow = AnalyzeAllowlist::workspace();
    if show_allowlist {
        for e in &allow.entries {
            println!("{} [{}]: {}", e.prefix, e.rule, e.reason);
        }
        return ExitCode::SUCCESS;
    }
    let report = match analyze_tree(&root, &allow) {
        Ok(report) => report,
        Err(why) => {
            eprintln!("cmg-lint: {why}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(&path, report.to_json().to_string_pretty()) {
            eprintln!("cmg-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if !report.violations.is_empty() {
        for v in &report.violations {
            eprintln!("{v}");
        }
        eprintln!("cmg-lint: {} violation(s)", report.violations.len());
        return ExitCode::FAILURE;
    }
    println!(
        "cmg-lint: clean ({} files, {} fns, {} edges, {} allowlisted)",
        report.files,
        report.fns,
        report.edges,
        report.allowlisted.len()
    );
    ExitCode::SUCCESS
}
