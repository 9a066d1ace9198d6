//! Property tests for the analyze stack: the masker preserves shape,
//! the parser and the full analysis never panic on arbitrary input, and
//! the call graph (hence the report) is deterministic under input
//! order. The parser feeds on every file in the workspace including
//! adversarial fixtures, so "never panics" is a real contract, not a
//! formality — `analyze_sources` documents it.
//!
//! Uses the vendored proptest shim (`shims/proptest`): no shrinking,
//! deterministic per-test seeds.

use cmg_check::analyze::AnalyzeAllowlist;
use cmg_check::analyze_sources;
use cmg_check::callgraph::{CallGraph, Workspace};
use cmg_check::mask::mask_source;
use cmg_check::parse::parse_file;
use proptest::prelude::*;

/// Raw bytes laundered through UTF-8 replacement: exercises multi-byte
/// runs, stray quotes, and unterminated delimiters.
fn arbitrary_text() -> impl Strategy<Value = String> {
    collection::vec(any::<u8>(), 0..300)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Rust-ish token soup: far denser in parser-relevant structure than
/// uniformly random bytes, so failures implicate real grammar paths.
const VOCAB: &[&str] = &[
    "fn",
    "impl",
    "struct",
    "enum",
    "match",
    "let",
    "mut",
    "pub",
    "self",
    "Self",
    "for",
    "in",
    "if",
    "while",
    "=>",
    "->",
    "::",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    "<",
    ">",
    ",",
    ";",
    "=",
    "&",
    "#",
    "!",
    "_",
    "'a",
    "'x'",
    "\"s\"",
    "r#\"raw\"#",
    "b\"b\"",
    "//",
    "/*",
    "*/",
    "0",
    "1.5",
    "x",
    "y",
    "Type",
    "wire_codec",
    "lock",
    "Mutex",
    "self.a.lock()",
    "// nonblocking: begin",
    "// nonblocking: end",
    "#[test]",
    "#[cfg(test)]",
    "mod",
    "tests",
    "const",
    "PROTO_VERSION",
    "u32",
    "\n",
];

fn token_soup() -> impl Strategy<Value = String> {
    collection::vec(0usize..VOCAB.len(), 0..80).prop_map(|picks| {
        picks
            .iter()
            .map(|&i| VOCAB[i])
            .collect::<Vec<_>>()
            .join(" ")
    })
}

/// A permutation of `FIXTURE` keyed by random sort weights.
fn shuffled_fixture() -> impl Strategy<Value = Vec<(String, String)>> {
    collection::vec(any::<u64>(), FIXTURE.len()).prop_map(|keys| {
        let mut order: Vec<usize> = (0..FIXTURE.len()).collect();
        order.sort_by_key(|&i| (keys[i], i));
        order
            .into_iter()
            .map(|i| (FIXTURE[i].0.to_string(), FIXTURE[i].1.to_string()))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mask_preserves_length_and_newlines(src in arbitrary_text()) {
        let masked = mask_source(&src);
        prop_assert_eq!(masked.len(), src.len());
        let newlines = |s: &str| -> Vec<usize> {
            s.bytes()
                .enumerate()
                .filter(|(_, b)| *b == b'\n')
                .map(|(i, _)| i)
                .collect()
        };
        prop_assert_eq!(newlines(&masked), newlines(&src));
    }

    #[test]
    fn parse_never_panics_on_arbitrary_input(src in arbitrary_text()) {
        let _ = parse_file("crates/x/src/lib.rs", &src);
    }

    #[test]
    fn parse_never_panics_on_token_soup(src in token_soup()) {
        let _ = parse_file("crates/x/src/lib.rs", &src);
    }

    #[test]
    fn analysis_never_panics_on_token_soup(a in token_soup(), b in token_soup()) {
        let sources = vec![
            ("crates/net/src/reactor.rs".to_string(), a),
            ("crates/runtime/src/sim.rs".to_string(), b),
        ];
        let _ = analyze_sources(&sources, &AnalyzeAllowlist::default());
    }

    #[test]
    fn callgraph_and_report_deterministic_under_input_order(shuffled in shuffled_fixture()) {
        let canonical: Vec<(String, String)> = FIXTURE
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();

        let ws_a = Workspace::parse(&canonical);
        let ws_b = Workspace::parse(&shuffled);
        let g_a = CallGraph::build(&ws_a);
        let g_b = CallGraph::build(&ws_b);
        let dump = |g: &CallGraph| -> Vec<String> {
            g.ids()
                .map(|id| {
                    let edges: Vec<String> = g.edges(id).iter().map(|e| g.label(e.to)).collect();
                    format!("{} -> {}", g.label(id), edges.join(","))
                })
                .collect()
        };
        prop_assert_eq!(dump(&g_a), dump(&g_b));

        let r_a = analyze_sources(&canonical, &AnalyzeAllowlist::default());
        let r_b = analyze_sources(&shuffled, &AnalyzeAllowlist::default());
        prop_assert!(!r_a.violations.is_empty(), "fixture must seed findings");
        prop_assert_eq!(
            r_a.to_json().to_string_pretty(),
            r_b.to_json().to_string_pretty()
        );
    }
}

/// A small workspace with at least one finding per rule (every fn is
/// `test-only`: no root reaches it), so the determinism property covers
/// violation ordering too.
const FIXTURE: &[(&str, &str)] = &[
    (
        "crates/net/src/reactor.rs",
        "pub fn run_loop() {\n    pump();\n}\n",
    ),
    (
        "crates/net/src/pump.rs",
        "pub fn pump() {\n    let mut s = writer();\n    s.write_all(b\"x\");\n}\n",
    ),
    (
        "crates/net/src/proto.rs",
        "wire_codec! {\n    pub enum Msg {\n        0 => Ping,\n        1 => Pong,\n    }\n}\n\n\
         pub fn mk() -> Msg {\n    Msg::Ping\n}\n\n\
         pub fn on(m: &Msg) {\n    match m {\n        Msg::Ping => {}\n        _ => {}\n    }\n}\n",
    ),
    (
        "crates/runtime/src/pool.rs",
        "use std::sync::Mutex;\n\n\
         pub struct Pool {\n    jobs: Mutex<u32>,\n    state: Mutex<u32>,\n}\n\n\
         impl Pool {\n    pub fn submit(&self) {\n        let mut j = self.jobs.lock();\n        \
         let mut s = self.state.lock();\n        *j += 1;\n        *s += 1;\n    }\n\n    \
         pub fn drain(&self) {\n        let mut s = self.state.lock();\n        \
         let mut j = self.jobs.lock();\n        *s += 1;\n        *j += 1;\n    }\n}\n",
    ),
    (
        "crates/runtime/src/step.rs",
        "pub fn step() {\n    record();\n}\n\n\
         pub fn record() {\n    let mut v = Vec::with_capacity(8);\n    v.push(1);\n}\n",
    ),
];
