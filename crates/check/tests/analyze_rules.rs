//! Seeded-violation tests for the `cmg-analyze` rules.
//!
//! Each rule gets a fixture that the rule — and only that rule — must
//! flag, with the call path reconstructed end to end. Deleting any one
//! rule's implementation makes its test here fail. The suite also pins
//! the acceptance bar: the real workspace analyzes clean under the
//! curated allowlist, every allowlist entry stays load-bearing, and the
//! `cmg-lint` binary exits non-zero on a seeded tree while writing the
//! JSON artifact, and rejects an option it does not know.

use cmg_check::analyze::{AnalyzeAllow, AnalyzeAllowlist, AnalyzeRule, AnalyzeViolation};
use cmg_check::{analyze_sources, analyze_tree};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root")
}

fn src(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect()
}

fn by_rule(violations: &[AnalyzeViolation], rule: AnalyzeRule) -> Vec<&AnalyzeViolation> {
    violations.iter().filter(|v| v.rule == rule).collect()
}

// ---------------------------------------------------------------- rule 1

#[test]
fn blocking_call_reachable_from_reactor_is_reported_with_full_path() {
    let sources = src(&[
        (
            "crates/net/src/reactor.rs",
            "pub fn run_loop() {\n    pump();\n}\n",
        ),
        (
            "crates/net/src/pump.rs",
            "pub fn pump() {\n    flush_out();\n}\n\n\
             pub fn flush_out() {\n    let mut s = writer();\n    s.write_all(b\"x\");\n}\n",
        ),
    ]);
    let report = analyze_sources(&sources, &AnalyzeAllowlist::default());
    let hits = by_rule(&report.violations, AnalyzeRule::BlockingReachability);
    assert_eq!(hits.len(), 1, "violations: {:?}", report.violations);
    let v = hits[0];
    assert_eq!(v.path, "crates/net/src/reactor.rs");
    assert!(v.message.contains("write_all"), "{}", v.message);
    // Full reconstructed path: run_loop → pump → flush_out.
    let labels: Vec<&str> = v.call_path.iter().map(|f| f.label.as_str()).collect();
    assert_eq!(v.call_path.len(), 3, "call path: {labels:?}");
    assert!(labels[0].ends_with("run_loop"), "{labels:?}");
    assert!(labels[1].ends_with("pump"), "{labels:?}");
    assert!(labels[2].ends_with("flush_out"), "{labels:?}");
}

#[test]
fn nonblocking_fence_is_an_entry_point_and_is_line_scoped() {
    let fenced = src(&[(
        "crates/runtime/src/pacer.rs",
        "pub fn pace() {\n    // nonblocking: begin\n    \
         std::thread::sleep(core::time::Duration::from_millis(1));\n    \
         // nonblocking: end\n}\n",
    )]);
    let report = analyze_sources(&fenced, &AnalyzeAllowlist::default());
    let hits = by_rule(&report.violations, AnalyzeRule::BlockingReachability);
    assert_eq!(hits.len(), 1, "violations: {:?}", report.violations);
    assert!(hits[0].message.contains("sleep"), "{}", hits[0].message);

    // The same blocking call *outside* the fence is not an entry region.
    let outside = src(&[(
        "crates/runtime/src/pacer.rs",
        "pub fn pace() {\n    // nonblocking: begin\n    let x = 1;\n    \
         // nonblocking: end\n    \
         std::thread::sleep(core::time::Duration::from_millis(1));\n    drop(x);\n}\n",
    )]);
    let report = analyze_sources(&outside, &AnalyzeAllowlist::default());
    assert!(
        by_rule(&report.violations, AnalyzeRule::BlockingReachability).is_empty(),
        "fence must be line-scoped: {:?}",
        report.violations
    );
}

// ---------------------------------------------------------------- rule 2

#[test]
fn two_lock_cycle_is_reported_with_witnesses() {
    let sources = src(&[(
        "crates/runtime/src/pool.rs",
        "use std::sync::Mutex;\n\n\
         pub struct Pool {\n    jobs: Mutex<u32>,\n    state: Mutex<u32>,\n}\n\n\
         impl Pool {\n    \
         pub fn submit(&self) {\n        \
         let mut j = self.jobs.lock();\n        \
         let mut s = self.state.lock();\n        *j += 1;\n        *s += 1;\n    }\n\n    \
         pub fn drain(&self) {\n        \
         let mut s = self.state.lock();\n        \
         let mut j = self.jobs.lock();\n        *s += 1;\n        *j += 1;\n    }\n}\n",
    )]);
    let report = analyze_sources(&sources, &AnalyzeAllowlist::default());
    let hits = by_rule(&report.violations, AnalyzeRule::LockOrder);
    assert_eq!(hits.len(), 1, "violations: {:?}", report.violations);
    let v = hits[0];
    assert!(
        v.message.contains("lock-order cycle")
            && v.message.contains("Pool.jobs")
            && v.message.contains("Pool.state"),
        "{}",
        v.message
    );
    // One witness per direction, naming the acquiring fn.
    assert_eq!(v.call_path.len(), 2, "witnesses: {:?}", v.call_path);
    assert!(
        v.call_path.iter().any(|f| f.label.contains("submit"))
            && v.call_path.iter().any(|f| f.label.contains("drain")),
        "witnesses: {:?}",
        v.call_path
    );
}

#[test]
fn lock_cycle_through_a_callee_is_reported() {
    // `submit` holds jobs and calls `touch`, which takes state;
    // `drain` takes state then jobs directly. Cycle only visible once
    // callee lock sets propagate over the graph.
    let sources = src(&[(
        "crates/runtime/src/pool.rs",
        "use std::sync::Mutex;\n\n\
         pub struct Pool {\n    jobs: Mutex<u32>,\n    state: Mutex<u32>,\n}\n\n\
         impl Pool {\n    \
         pub fn submit(&self) {\n        \
         let mut j = self.jobs.lock();\n        self.touch();\n        *j += 1;\n    }\n\n    \
         pub fn touch(&self) {\n        \
         let mut s = self.state.lock();\n        *s += 1;\n    }\n\n    \
         pub fn drain(&self) {\n        \
         let mut s = self.state.lock();\n        \
         let mut j = self.jobs.lock();\n        *s += 1;\n        *j += 1;\n    }\n}\n",
    )]);
    let report = analyze_sources(&sources, &AnalyzeAllowlist::default());
    let hits = by_rule(&report.violations, AnalyzeRule::LockOrder);
    assert_eq!(hits.len(), 1, "violations: {:?}", report.violations);
    assert!(
        hits[0].message.contains("lock-order cycle"),
        "{}",
        hits[0].message
    );
}

#[test]
fn consistent_lock_order_is_clean() {
    let sources = src(&[(
        "crates/runtime/src/pool.rs",
        "use std::sync::Mutex;\n\n\
         pub struct Pool {\n    jobs: Mutex<u32>,\n    state: Mutex<u32>,\n}\n\n\
         impl Pool {\n    \
         pub fn submit(&self) {\n        \
         let mut j = self.jobs.lock();\n        \
         let mut s = self.state.lock();\n        *j += 1;\n        *s += 1;\n    }\n\n    \
         pub fn drain(&self) {\n        \
         let mut j = self.jobs.lock();\n        \
         let mut s = self.state.lock();\n        *j += 2;\n        *s += 2;\n    }\n}\n",
    )]);
    let report = analyze_sources(&sources, &AnalyzeAllowlist::default());
    assert!(
        by_rule(&report.violations, AnalyzeRule::LockOrder).is_empty(),
        "consistent order must pass: {:?}",
        report.violations
    );
}

// ------------------------------------------------------------ fence balance

#[test]
fn unbalanced_fence_markers_are_blocking_reachability_findings() {
    let tag = "// nonblocking";
    for (shape, body, line) in [
        (
            "unterminated begin",
            format!("pub fn f() {{\n    {tag}: begin\n    let x = 1;\n    drop(x);\n}}\n"),
            2,
        ),
        (
            "begin inside an open fence",
            format!(
                "pub fn f() {{\n    {tag}: begin\n    let x = 1;\n    {tag}: begin\n    \
                 drop(x);\n    {tag}: end\n}}\n"
            ),
            4,
        ),
        (
            "stray end",
            format!("pub fn f() {{\n    let x = 1;\n    {tag}: end\n    drop(x);\n}}\n"),
            3,
        ),
    ] {
        let sources = src(&[("crates/runtime/src/fenced.rs", body.as_str())]);
        let report = analyze_sources(&sources, &AnalyzeAllowlist::default());
        let hits = by_rule(&report.violations, AnalyzeRule::BlockingReachability);
        assert_eq!(hits.len(), 1, "{shape}: {:?}", report.violations);
        assert_eq!(
            (hits[0].line, hits[0].item.as_str()),
            (line, "f"),
            "{shape}"
        );
        assert!(
            hits[0]
                .message
                .contains("unbalanced `// nonblocking` fence"),
            "{shape}: {}",
            hits[0].message
        );
    }
}

// ---------------------------------------------------------------- rule 3

/// A library whose `helper` and `Mode::Fast` only a test uses: the rule
/// reports both, and nothing a root reaches.
const LIB: &str = "pub enum Mode {\n    Slow,\n    Fast,\n}\n\n\
    pub fn run() -> Mode {\n    Mode::Slow\n}\n\n\
    pub fn helper() -> u32 {\n    1\n}\n\n\
    pub fn pick(m: Mode) -> u32 {\n    match m {\n        Mode::Fast => helper(),\n        \
    Mode::Slow => 0,\n    }\n}\n\n\
    pub struct S;\n\nimpl Clone for S {\n    fn clone(&self) -> Self {\n        S\n    }\n}\n";

fn test_only_hits(extra: &[(&str, &str)]) -> Vec<(usize, String)> {
    let bin = "fn main() {\n    lib::pick(lib::run());\n}\n";
    let test = "fn t() {\n    lib::helper();\n    lib::pick(lib::Mode::Fast);\n}\n";
    let mut files = vec![
        ("crates/lib/src/lib.rs", LIB),
        ("crates/lib/src/bin/tool.rs", bin),
        ("tests/t.rs", test),
    ];
    files.extend_from_slice(extra);
    let report = analyze_sources(&src(&files), &AnalyzeAllowlist::default());
    by_rule(&report.violations, AnalyzeRule::TestOnly)
        .iter()
        .map(|v| (v.line, v.item.clone()))
        .collect()
}

#[test]
fn fns_and_variants_only_tests_use_are_test_only() {
    // `pick` is reached from the bin, but its `Fast` arm is a pattern:
    // only the test builds `Mode::Fast`. `helper` is called from `pick`,
    // so a call edge (not a build) keeps it. The trait impl counts as
    // reached; the test's own fn is no item of a crate.
    assert_eq!(test_only_hits(&[]), vec![(3, "Mode::Fast".to_string())]);
    let only_tests = LIB.replace("Mode::Fast => helper()", "Mode::Fast => 2");
    let report = analyze_sources(
        &src(&[
            ("crates/lib/src/lib.rs", only_tests.as_str()),
            (
                "crates/lib/src/bin/tool.rs",
                "fn main() {\n    lib::pick(lib::run());\n}\n",
            ),
            ("tests/t.rs", "fn t() {\n    lib::helper();\n}\n"),
        ]),
        &AnalyzeAllowlist::default(),
    );
    let hits: Vec<&str> = by_rule(&report.violations, AnalyzeRule::TestOnly)
        .iter()
        .map(|v| v.item.as_str())
        .collect();
    assert_eq!(
        hits,
        vec!["Mode::Fast", "helper"],
        "{:?}",
        report.violations
    );
}

#[test]
fn a_root_that_calls_or_builds_clears_the_report() {
    let bin = "fn main() {\n    lib::pick(lib::Mode::Fast);\n}\n";
    assert!(test_only_hits(&[("crates/lib/src/bin/other.rs", bin)]).is_empty());
    let example = "fn main() {\n    let _ = lib::Mode::Fast;\n}\n";
    assert!(test_only_hits(&[("examples/e.rs", example)]).is_empty());
    let ledger = "fn anything() {\n    let _ = lib::Mode::Fast;\n}\n";
    assert!(test_only_hits(&[("ledger/src/batch.rs", ledger)]).is_empty());
}

// ------------------------------------------------------- allowlist + report

#[test]
fn allowlist_reroutes_findings_with_their_reason() {
    let sources = src(&[
        (
            "crates/net/src/reactor.rs",
            "pub fn run_loop(s: &mut Sock) {\n    s.write_all(b\"x\");\n}\n",
        ),
        (
            "crates/net/src/main.rs",
            "fn main() {\n    run_loop(&mut sock());\n}\n",
        ),
    ]);
    let allow = AnalyzeAllowlist {
        entries: vec![AnalyzeAllow {
            prefix: "crates/net/src/reactor.rs#run_loop",
            rule: "blocking-reachability",
            reason: "fixture: sanctioned for this test",
        }],
    };
    let report = analyze_sources(&sources, &allow);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.allowlisted.len(), 1);
    assert_eq!(report.allowlisted[0].1, "fixture: sanctioned for this test");
}

#[test]
fn json_report_carries_schema_summary_and_call_paths() {
    let sources = src(&[
        (
            "crates/net/src/reactor.rs",
            "pub fn run_loop() {\n    pump();\n}\n",
        ),
        (
            "crates/net/src/pump.rs",
            "pub fn pump() {\n    let mut s = writer();\n    s.write_all(b\"x\");\n}\n",
        ),
    ]);
    let report = analyze_sources(&sources, &AnalyzeAllowlist::default());
    let json = report.to_json().to_string_pretty();
    assert!(json.contains("\"schema\": \"cmg-analyze/v1\""), "{json}");
    assert!(json.contains("\"by_rule\""), "{json}");
    assert!(json.contains("\"blocking-reachability\": 1"), "{json}");
    assert!(json.contains("\"call_path\""), "{json}");
    assert!(json.contains("pump"), "{json}");
}

// ------------------------------------------------------ acceptance gates

#[test]
fn workspace_analyzes_clean_under_curated_allowlist() {
    let report = analyze_tree(repo_root(), &AnalyzeAllowlist::workspace()).expect("analyze walk");
    assert!(
        report.violations.is_empty(),
        "workspace analyze violations:\n{}",
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.fns > 500,
        "suspiciously small graph: {} fns",
        report.fns
    );
    assert!(
        report.edges > 1000,
        "suspiciously sparse graph: {} edges",
        report.edges
    );
}

#[test]
fn analyze_allowlist_is_load_bearing() {
    // Every curated entry must still match a live finding; stale
    // entries are deleted documentation.
    let report = analyze_tree(repo_root(), &AnalyzeAllowlist::default()).expect("analyze walk");
    for entry in &AnalyzeAllowlist::workspace().entries {
        assert!(
            report.violations.iter().any(|v| {
                let scoped = format!("{}#{}", v.path, v.item);
                v.rule.name() == entry.rule
                    && (v.path.starts_with(entry.prefix) || scoped.starts_with(entry.prefix))
            }),
            "analyze allowlist entry ({}, {}) matches nothing — remove it",
            entry.prefix,
            entry.rule
        );
    }
}

// ------------------------------------------------------------ the binary

fn seeded_tree(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("cmg-lint-{tag}-{}", std::process::id()));
    for (rel, body) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, body).expect("write");
    }
    root
}

fn cmg_lint(args: &[&std::ffi::OsStr]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cmg-lint"))
        .args(args)
        .output()
        .expect("run cmg-lint")
}

#[test]
fn binary_flags_seeded_tree_and_writes_json_artifact() {
    let root = seeded_tree(
        "seeded",
        &[
            (
                "crates/net/src/reactor.rs",
                "pub fn run_loop() {\n    pump();\n}\n",
            ),
            (
                "crates/net/src/pump.rs",
                "pub fn pump() {\n    let mut s = writer();\n    s.write_all(b\"x\");\n}\n",
            ),
        ],
    );
    let json_path = root.join("report.json");
    let out = cmg_lint(&[root.as_os_str(), "--json".as_ref(), json_path.as_os_str()]);
    let json = std::fs::read_to_string(&json_path).expect("json artifact");
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(out.status.code(), Some(1), "expected analyze failure exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("blocking-reachability") && stderr.contains("via "),
        "missing rule/path in diagnostics: {stderr}"
    );
    assert!(json.contains("cmg-analyze/v1"), "{json}");
    assert!(json.contains("blocking-reachability"), "{json}");
}

#[test]
fn binary_passes_clean_tree_and_real_workspace() {
    let clean =
        "fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}\n\nfn main() {\n    f(None);\n}\n";
    let root = seeded_tree("clean", &[("crates/ok/src/main.rs", clean)]);
    let out = cmg_lint(&[root.as_os_str()]);
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(out.status.code(), Some(0), "clean tree must pass");

    let out = cmg_lint(&[repo_root().as_os_str()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace must analyze clean: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cmg-lint: clean"), "{stdout}");
}

#[test]
fn binary_rejects_an_unknown_option_instead_of_reading_it_as_the_root() {
    for flag in ["--jsn", "--allow"] {
        let out = cmg_lint(&[flag.as_ref(), "out.json".as_ref()]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option {flag}")) && stderr.contains("usage:"),
            "{flag}: {stderr}"
        );
    }
}
