//! `cmg-lint` — the workspace's repo-specific static checks.
//!
//! Walks `crates/*/src` under the repo root (default: the current
//! directory). By default it applies the token-level rules in
//! [`cmg_check::lint`] minus the vetted allowlist; with `--analyze` it
//! runs the interprocedural [`cmg_check::analyze`] pass instead
//! (call-graph blocking-reachability, wire-protocol drift, lock-order
//! cycles, hot-path allocation, unreferenced library `pub` items), which
//! also reads `crates/*/tests`, `tests/`, `examples/`, `src/` and
//! `ledger/` as callers. Prints every violation and exits non-zero when
//! any remain. Run from CI as:
//!
//! ```text
//! cargo run -p cmg-check --bin cmg-lint
//! cargo run -p cmg-check --bin cmg-lint -- --analyze --json report.json
//! ```

use cmg_check::analyze::{analyze_tree, AnalyzeAllowlist};
use cmg_check::lint::{lint_tree, Allowlist};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut show_allowlist = false;
    let mut analyze = false;
    let mut json_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--allowlist" => show_allowlist = true,
            "--analyze" => analyze = true,
            "--json" => match args.next() {
                Some(path) => json_out = Some(PathBuf::from(path)),
                None => {
                    eprintln!("cmg-lint: --json requires a file path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: cmg-lint [REPO_ROOT] [--allowlist] [--analyze] [--json FILE]");
                println!("  lints crates/*/src; exits 1 on violations, 2 on I/O errors");
                println!("  --analyze  run the interprocedural call-graph analysis instead");
                println!("  --json     (with --analyze) write the JSON report to FILE");
                return ExitCode::SUCCESS;
            }
            other => root = PathBuf::from(other),
        }
    }
    if analyze {
        return run_analyze(&root, show_allowlist, json_out.as_deref());
    }
    let allow = Allowlist::workspace();
    if show_allowlist {
        for e in &allow.entries {
            println!("{} [{}]: {}", e.prefix, e.rule.name(), e.reason);
        }
        return ExitCode::SUCCESS;
    }
    match lint_tree(&root, &allow) {
        Ok(violations) if violations.is_empty() => {
            println!("cmg-lint: clean");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                eprintln!("{v}");
            }
            eprintln!("cmg-lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(why) => {
            eprintln!("cmg-lint: {why}");
            ExitCode::from(2)
        }
    }
}

fn run_analyze(
    root: &std::path::Path,
    show_allowlist: bool,
    json_out: Option<&std::path::Path>,
) -> ExitCode {
    let allow = AnalyzeAllowlist::workspace();
    if show_allowlist {
        for e in &allow.entries {
            println!("{} [{}]: {}", e.prefix, e.rule, e.reason);
        }
        return ExitCode::SUCCESS;
    }
    match analyze_tree(root, &allow) {
        Ok(report) => {
            if let Some(path) = json_out {
                let json = report.to_json().to_string_pretty();
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("cmg-lint: cannot write {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
            if report.violations.is_empty() {
                println!(
                    "cmg-analyze: clean ({} files, {} fns, {} edges, {} allowlisted)",
                    report.files,
                    report.fns,
                    report.edges,
                    report.allowlisted.len()
                );
                ExitCode::SUCCESS
            } else {
                for v in &report.violations {
                    eprintln!("{v}");
                }
                eprintln!("cmg-analyze: {} violation(s)", report.violations.len());
                ExitCode::FAILURE
            }
        }
        Err(why) => {
            eprintln!("cmg-lint: {why}");
            ExitCode::from(2)
        }
    }
}
