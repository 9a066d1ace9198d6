//! Seeded cases for `cmg-lint`'s `test-only` name scan, and its
//! acceptance bar: the real workspace scans clean under `TEST_SUPPORT`,
//! every entry of that table stays load-bearing, and the binary exits 1
//! on a seeded tree, 0 on a clean one and 2 on an option it does not
//! know. The masker and the scan are property-tested to never panic and
//! to keep shape and order.
//!
//! Uses the vendored proptest shim (`shims/proptest`): no shrinking,
//! deterministic per-test seeds.

use cmg_check::mask::mask_source;
use cmg_check::names::{read_tree, scan_sources, Finding, TEST_SUPPORT};
use proptest::prelude::*;
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

/// A library whose `helper` and `Mode::Fast` only its own `#[cfg(test)]`
/// module names. A comment and a string naming them do not count either. `pick` and `Mode::Slow` have a
/// caller; crate-private, private and trait-impl fns are never findings.
const LIB: &str = "pub enum Mode {\n    Slow,\n    Fast,\n}\n\n\
    /// Not `helper`.\npub fn pick() -> Mode {\n    let _ = \"helper Fast\";\n    Mode::Slow\n}\n\n\
    pub fn helper() -> u32 {\n    1\n}\n\n\
    pub(crate) fn internal() {}\n\nfn private() {}\n\n\
    pub struct S;\n\nimpl Clone for S {\n    fn clone(&self) -> Self {\n        S\n    }\n}\n\n\
    #[cfg(test)]\nmod tests {\n    fn t() {\n        super::helper();\n        let _ = super::Mode::Fast;\n    }\n}\n";

fn test_only_hits(extra: &[(&str, &str)]) -> Vec<(usize, String)> {
    let mut files = vec![
        ("crates/lib/src/lib.rs", LIB),
        (
            "crates/lib/src/bin/tool.rs",
            "fn main() {\n    lib::pick();\n}\n",
        ),
    ];
    files.extend_from_slice(extra);
    scan_sources(&src(&files))
        .into_iter()
        .map(|f| (f.line, f.item))
        .collect()
}

#[test]
fn fns_and_variants_only_tests_name_are_test_only() {
    assert_eq!(
        test_only_hits(&[]),
        vec![(3, "Mode::Fast".to_string()), (12, "helper".to_string())]
    );
}

#[test]
fn a_name_in_non_test_code_anywhere_clears_the_report() {
    for (path, body) in [
        (
            "crates/lib/src/bin/other.rs",
            "fn main() {\n    lib::helper();\n}\n",
        ),
        ("examples/e.rs", "fn main() {\n    lib::helper();\n}\n"),
        (
            "ledger/src/batch.rs",
            "fn anything() {\n    lib::helper();\n}\n",
        ),
    ] {
        assert_eq!(
            test_only_hits(&[(path, body)]),
            vec![(3, "Mode::Fast".to_string())],
            "{path}"
        );
    }
    // A match arm names the variant: the scan clears it.
    let arm = "fn f(m: lib::Mode) {\n    if let lib::Mode::Fast = m {}\n}\n";
    assert_eq!(
        test_only_hits(&[("crates/other/src/lib.rs", arm)]),
        vec![(12, "helper".to_string())]
    );
}

#[test]
fn every_variant_shape_is_read() {
    let enums = "pub enum E {\n    #[default]\n    Unit,\n    Tuple(u32, Vec<u8>),\n    \
        Named { x: u32 },\n    Tagged = 7,\n}\n\n\
        wire_codec! {\n    pub enum W {\n        0 => Hello {\n            rank: u32,\n        },\n        \
        1 => Start,\n    }\n}\n\nenum Private {\n    Hidden,\n}\n";
    let got: Vec<(usize, String)> = scan_sources(&src(&[("crates/e/src/lib.rs", enums)]))
        .into_iter()
        .map(|f| (f.line, f.item))
        .collect();
    let want = [
        (3, "E::Unit"),
        (4, "E::Tuple"),
        (5, "E::Named"),
        (6, "E::Tagged"),
        (11, "W::Hello"),
        (14, "W::Start"),
    ];
    let want: Vec<(usize, String)> = want.iter().map(|&(l, i)| (l, i.to_string())).collect();
    assert_eq!(got, want);
}

#[test]
fn an_allowlist_prefix_exempts_its_findings_with_the_reason() {
    let f = Finding {
        path: "crates/lib/src/lib.rs".to_string(),
        line: 13,
        item: "helper".to_string(),
    };
    assert_eq!(
        f.to_string(),
        "crates/lib/src/lib.rs:13: [test-only] helper: only tests name it"
    );
    assert_eq!(
        f.exemption(&[("crates/lib/src/lib.rs#help", "fixture")]),
        Some("fixture")
    );
    assert_eq!(
        f.exemption(&[("crates/lib/src/lib.rs", "the file")]),
        Some("the file")
    );
    assert_eq!(
        f.exemption(&[("crates/lib/src/lib.rs#pick", "other")]),
        None
    );
}

// ------------------------------------------------------ acceptance gates

#[test]
fn workspace_scans_clean_under_test_support() {
    let sources = read_tree(repo_root()).expect("read the tree");
    assert!(
        sources.len() > 80,
        "suspiciously few files: {}",
        sources.len()
    );
    let open: Vec<String> = scan_sources(&sources)
        .iter()
        .filter(|f| f.exemption(TEST_SUPPORT).is_none())
        .map(|f| f.to_string())
        .collect();
    assert!(open.is_empty(), "test-only findings:\n{}", open.join("\n"));
}

#[test]
fn analyze_allowlist_is_load_bearing() {
    // Every entry must still match a live finding; a stale entry is
    // deleted documentation.
    let found = scan_sources(&read_tree(repo_root()).expect("read the tree"));
    for &entry in TEST_SUPPORT {
        assert!(
            found.iter().any(|f| f.exemption(&[entry]).is_some()),
            "TEST_SUPPORT entry {} matches nothing — remove it",
            entry.0
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
fn binary_flags_a_seeded_tree() {
    // An integration test's call is no use: the tree's `tests/` is not
    // read.
    let test = "fn t() {\n    lib::helper();\n    lib::pick();\n}\n";
    let files = [("crates/lib/src/lib.rs", LIB), ("tests/t.rs", test)];
    let root = seeded_tree("seeded", &files);
    let out = cmg_lint(&[root.as_os_str()]);
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(out.status.code(), Some(1), "expected a finding exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("crates/lib/src/lib.rs:12: [test-only] helper")
            && stderr.contains("cmg-lint: 3 finding(s)"),
        "{stderr}"
    );
}

#[test]
fn binary_passes_clean_tree_and_real_workspace() {
    let clean = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}\n\nfn main() {\n    f(None);\n}\n";
    let root = seeded_tree("clean", &[("crates/ok/src/main.rs", clean)]);
    let out = cmg_lint(&[root.as_os_str()]);
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(out.status.code(), Some(0), "clean tree must pass");

    let out = cmg_lint(&[repo_root().as_os_str()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace must scan clean: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cmg-lint: clean"), "{stdout}");
}

#[test]
fn binary_rejects_an_unknown_option_instead_of_reading_it_as_the_root() {
    for flag in ["--json", "--allow"] {
        let out = cmg_lint(&[flag.as_ref(), "out.json".as_ref()]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option {flag}")) && stderr.contains("usage:"),
            "{flag}: {stderr}"
        );
    }
}

// ------------------------------------------------------------ properties

/// Raw bytes laundered through UTF-8 replacement: exercises multi-byte
/// runs, stray quotes, and unterminated delimiters.
fn arbitrary_text() -> impl Strategy<Value = String> {
    collection::vec(any::<u8>(), 0..300)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Rust-ish token soup, dense in the structure the scan reads.
const VOCAB: &[&str] = &[
    "pub",
    "pub(crate)",
    "fn",
    "enum",
    "const",
    "impl",
    "x",
    "Y",
    "0",
    "=>",
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
    "#",
    "'a",
    "'x'",
    "\"s\"",
    "//",
    "/*",
    "*/",
    "#[cfg(test)]",
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
    fn scan_never_panics_and_ignores_input_order(
        a in token_soup(),
        b in arbitrary_text(),
        c in token_soup(),
    ) {
        let files = [("crates/a/src/lib.rs", a), ("crates/b/src/x.rs", b), ("examples/c.rs", c)];
        let forward: Vec<(String, String)> =
            files.iter().map(|(p, s)| (p.to_string(), s.clone())).collect();
        let mut backward = forward.clone();
        backward.reverse();
        prop_assert_eq!(scan_sources(&forward), scan_sources(&backward));
    }
}
