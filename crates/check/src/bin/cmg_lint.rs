//! `cmg-lint` — the workspace's `test-only` name scan.
//!
//! Runs [`cmg_check::names`] over the repo root (default: the current
//! directory): a `pub fn` or `pub enum` variant under `crates/*/src`
//! whose name no non-test code of `crates/*/src`, `examples/` or
//! `ledger/src` names, minus the reasoned `TEST_SUPPORT` table. Prints
//! every finding and exits 1 when any remain, 2 on a bad argument or an
//! I/O error.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]

use cmg_check::names::{read_tree, scan_sources, TEST_SUPPORT};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cmg-lint [REPO_ROOT] [--allowlist]";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--allowlist" => {
                for (prefix, reason) in TEST_SUPPORT {
                    println!("{prefix}: {reason}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                println!(
                    "  scans crates/*/src; exits 1 on findings, 2 on bad arguments or I/O errors"
                );
                println!("  --allowlist  print the reasoned exemptions and exit");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("cmg-lint: unknown option {flag}\n{USAGE}");
                return ExitCode::from(2);
            }
            other => root = PathBuf::from(other),
        }
    }
    let sources = match read_tree(&root) {
        Ok(sources) => sources,
        Err(why) => {
            eprintln!("cmg-lint: {why}");
            return ExitCode::from(2);
        }
    };
    let (allowed, found): (Vec<_>, Vec<_>) = scan_sources(&sources)
        .into_iter()
        .partition(|f| f.exemption(TEST_SUPPORT).is_some());
    for f in &found {
        eprintln!("{f}");
    }
    if !found.is_empty() {
        eprintln!("cmg-lint: {} finding(s)", found.len());
        return ExitCode::FAILURE;
    }
    let (files, allowed) = (sources.len(), allowed.len());
    println!("cmg-lint: clean ({files} files, {allowed} allowlisted)");
    ExitCode::SUCCESS
}
