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
    let report = analyze_sources(&sources, &AnalyzeAllowlist::empty());
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
    let report = analyze_sources(&fenced, &AnalyzeAllowlist::empty());
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
    let report = analyze_sources(&outside, &AnalyzeAllowlist::empty());
    assert!(
        by_rule(&report.violations, AnalyzeRule::BlockingReachability).is_empty(),
        "fence must be line-scoped: {:?}",
        report.violations
    );
}

// ---------------------------------------------------------------- rule 2

#[test]
fn unconstructed_wire_variant_is_drift() {
    let sources = src(&[(
        "crates/net/src/proto.rs",
        "wire_codec! {\n    pub enum Msg {\n        0 => Ping { rank: u32 },\n        \
         1 => Pong,\n    }\n}\n\n\
         pub fn send() -> Msg {\n    Msg::Ping { rank: 0 }\n}\n\n\
         pub fn on(m: &Msg) -> u32 {\n    match m {\n        \
         Msg::Ping { rank } => *rank,\n        Msg::Pong => 0,\n    }\n}\n",
    )]);
    let report = analyze_sources(&sources, &AnalyzeAllowlist::empty());
    let hits = by_rule(&report.violations, AnalyzeRule::WireDrift);
    assert_eq!(hits.len(), 1, "violations: {:?}", report.violations);
    assert!(
        hits[0].message.contains("Msg::Pong") && hits[0].message.contains("never constructed"),
        "{}",
        hits[0].message
    );
}

#[test]
fn unmatched_wire_variant_is_drift() {
    let sources = src(&[(
        "crates/net/src/proto.rs",
        "wire_codec! {\n    pub enum Msg {\n        0 => Ping { rank: u32 },\n        \
         1 => Pong,\n    }\n}\n\n\
         pub fn send() -> Msg {\n    Msg::Ping { rank: 0 }\n}\n\
         pub fn idle() -> Msg {\n    Msg::Pong\n}\n\n\
         pub fn on(m: &Msg) -> u32 {\n    match m {\n        \
         Msg::Ping { rank } => *rank,\n        _ => unreachable!(),\n    }\n}\n",
    )]);
    let report = analyze_sources(&sources, &AnalyzeAllowlist::empty());
    let hits = by_rule(&report.violations, AnalyzeRule::WireDrift);
    assert_eq!(hits.len(), 1, "violations: {:?}", report.violations);
    assert!(
        hits[0].message.contains("Msg::Pong") && hits[0].message.contains("never matched"),
        "{}",
        hits[0].message
    );
}

#[test]
fn swallowing_wildcard_arm_in_consumer_is_drift_but_erroring_arm_is_not() {
    let swallowing = src(&[(
        "crates/runtime/src/consume.rs",
        "wire_codec! {\n    pub enum Data {\n        0 => Put { k: u32 },\n    }\n}\n\n\
         pub fn mk() -> Data {\n    Data::Put { k: 1 }\n}\n\n\
         pub fn on(d: &Data) {\n    match d {\n        \
         Data::Put { k } => drop(k),\n        _ => {}\n    }\n}\n",
    )]);
    let report = analyze_sources(&swallowing, &AnalyzeAllowlist::empty());
    let hits = by_rule(&report.violations, AnalyzeRule::WireDrift);
    assert_eq!(hits.len(), 1, "violations: {:?}", report.violations);
    assert!(
        hits[0].message.contains("swallows unknown variants"),
        "{}",
        hits[0].message
    );

    let erroring = src(&[(
        "crates/runtime/src/consume.rs",
        "wire_codec! {\n    pub enum Data {\n        0 => Put { k: u32 },\n    }\n}\n\n\
         pub fn mk() -> Data {\n    Data::Put { k: 1 }\n}\n\n\
         pub fn on(d: &Data) {\n    match d {\n        \
         Data::Put { k } => drop(k),\n        _ => unreachable!(\"unknown wire variant\"),\n    }\n}\n",
    )]);
    let report = analyze_sources(&erroring, &AnalyzeAllowlist::empty());
    assert!(
        by_rule(&report.violations, AnalyzeRule::WireDrift).is_empty(),
        "erroring wildcard must pass: {:?}",
        report.violations
    );
}

/// A `Ctrl` surface that cannot match the workspace's pinned baseline.
const TINY_CTRL: &str = "pub const PROTO_VERSION: u32 = 3;\n\n\
    wire_codec! {\n    pub enum Ctrl {\n        0 => Start,\n    }\n}\n\n\
    pub fn mk() -> Ctrl {\n    Ctrl::Start\n}\n\n\
    pub fn on(c: &Ctrl) {\n    match c {\n        Ctrl::Start => {}\n    }\n}\n";

#[test]
fn ctrl_change_without_proto_version_bump_is_drift() {
    let sources = src(&[("crates/net/src/frame.rs", TINY_CTRL)]);
    let report = analyze_sources(&sources, &AnalyzeAllowlist::empty());
    let hits = by_rule(&report.violations, AnalyzeRule::WireDrift);
    assert_eq!(hits.len(), 1, "violations: {:?}", report.violations);
    assert!(
        hits[0]
            .message
            .contains("changed without a PROTO_VERSION bump"),
        "{}",
        hits[0].message
    );
}

#[test]
fn proto_version_bump_without_pinned_baseline_is_drift() {
    let bumped = TINY_CTRL.replace("PROTO_VERSION: u32 = 3", "PROTO_VERSION: u32 = 99");
    let sources = src(&[("crates/net/src/frame.rs", bumped.as_str())]);
    let report = analyze_sources(&sources, &AnalyzeAllowlist::empty());
    let hits = by_rule(&report.violations, AnalyzeRule::WireDrift);
    assert_eq!(hits.len(), 1, "violations: {:?}", report.violations);
    assert!(
        hits[0].message.contains("no pinned wire baseline") && hits[0].message.contains("0x"),
        "message must name the fingerprint to pin: {}",
        hits[0].message
    );
}

/// A checkpoint snapshot record enum (name ending in `Snap`), fully
/// constructed and matched so it raises no usage findings of its own.
const TINY_SNAP: &str = "wire_codec! {\n    pub enum DemoSnap {\n        \
    0 => State { round: u64 },\n    }\n}\n\n\
    pub fn save() -> DemoSnap {\n    DemoSnap::State { round: 4 }\n}\n\n\
    pub fn load(s: &DemoSnap) -> u64 {\n    match s {\n        \
    DemoSnap::State { round } => *round,\n    }\n}\n";

/// The versioned fingerprint must cover `Snap`-suffixed wire enums:
/// their encodings travel opaquely inside `Ctrl::Checkpoint` payloads,
/// so a snapshot-record change is wire drift exactly like a `Ctrl`
/// change. The reported fingerprint must shift when a Snap enum
/// appears, and shift again when one of its fields changes.
#[test]
fn snap_record_enums_are_folded_into_the_wire_fingerprint() {
    // An unpinned PROTO_VERSION makes the rule print the fingerprint
    // it wants pinned — the observable value under test.
    let ctrl = TINY_CTRL.replace("PROTO_VERSION: u32 = 3", "PROTO_VERSION: u32 = 99");
    let fingerprint_of = |pairs: &[(&str, &str)]| -> String {
        let report = analyze_sources(&src(pairs), &AnalyzeAllowlist::empty());
        let hits = by_rule(&report.violations, AnalyzeRule::WireDrift);
        assert_eq!(hits.len(), 1, "violations: {:?}", report.violations);
        let msg = &hits[0].message;
        let start = msg.find("0x").expect("fingerprint in message");
        msg[start..start + 18].to_string()
    };
    let without = fingerprint_of(&[("crates/net/src/frame.rs", ctrl.as_str())]);
    let with_snap = fingerprint_of(&[
        ("crates/net/src/frame.rs", ctrl.as_str()),
        ("crates/matching/src/dist.rs", TINY_SNAP),
    ]);
    assert_ne!(
        without, with_snap,
        "adding a Snap enum must change the versioned fingerprint"
    );
    let edited = TINY_SNAP.replace("round: u64", "round: u32");
    let with_edited_snap = fingerprint_of(&[
        ("crates/net/src/frame.rs", ctrl.as_str()),
        ("crates/matching/src/dist.rs", edited.as_str()),
    ]);
    assert_ne!(
        with_snap, with_edited_snap,
        "editing a Snap field must change the versioned fingerprint"
    );
}

// ---------------------------------------------------------------- rule 3

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
    let report = analyze_sources(&sources, &AnalyzeAllowlist::empty());
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
    let report = analyze_sources(&sources, &AnalyzeAllowlist::empty());
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
    let report = analyze_sources(&sources, &AnalyzeAllowlist::empty());
    assert!(
        by_rule(&report.violations, AnalyzeRule::LockOrder).is_empty(),
        "consistent order must pass: {:?}",
        report.violations
    );
}

// ---------------------------------------------------------------- rule 4

#[test]
fn hot_path_fence_reaching_an_allocating_callee_is_reported() {
    let sources = src(&[(
        "crates/runtime/src/hot.rs",
        "pub fn step() {\n    // hot-path: begin\n    record();\n    // hot-path: end\n}\n\n\
         pub fn record() {\n    let mut v = Vec::with_capacity(8);\n    v.push(1);\n}\n",
    )]);
    let report = analyze_sources(&sources, &AnalyzeAllowlist::empty());
    let hits = by_rule(&report.violations, AnalyzeRule::HotPathTransitiveAlloc);
    assert_eq!(hits.len(), 1, "violations: {:?}", report.violations);
    let v = hits[0];
    assert!(v.message.contains("with_capacity"), "{}", v.message);
    let labels: Vec<&str> = v.call_path.iter().map(|f| f.label.as_str()).collect();
    assert_eq!(labels.len(), 2, "{labels:?}");
    assert!(
        labels[0].ends_with("step") && labels[1].ends_with("record"),
        "{labels:?}"
    );

    // The same callee reached from *outside* the fence is fine.
    let outside = src(&[(
        "crates/runtime/src/hot.rs",
        "pub fn step() {\n    // hot-path: begin\n    let x = 1;\n    // hot-path: end\n    \
         record();\n    drop(x);\n}\n\n\
         pub fn record() {\n    let mut v = Vec::with_capacity(8);\n    v.push(1);\n}\n",
    )]);
    let report = analyze_sources(&outside, &AnalyzeAllowlist::empty());
    assert!(
        by_rule(&report.violations, AnalyzeRule::HotPathTransitiveAlloc).is_empty(),
        "fence must be line-scoped: {:?}",
        report.violations
    );
}

#[test]
fn allocation_directly_inside_a_hot_path_fence_is_reported() {
    // Only the `.collect()` inside the fence counts: `vec!` before it and
    // `.to_vec()` after it are outside.
    let sources = src(&[(
        "crates/runtime/src/hot.rs",
        "pub fn step(out: &mut Vec<u32>) {\n    let staging = vec![0u32; 4];\n    \
         // hot-path: begin (delivery)\n    \
         let bad: Vec<u32> = staging.iter().copied().collect();\n    out.extend(bad);\n    \
         // hot-path: end (delivery)\n    let fine = staging.to_vec();\n    drop(fine);\n}\n",
    )]);
    let report = analyze_sources(&sources, &AnalyzeAllowlist::empty());
    let hits = by_rule(&report.violations, AnalyzeRule::HotPathTransitiveAlloc);
    assert_eq!(hits.len(), 1, "violations: {:?}", report.violations);
    assert_eq!(hits[0].line, 4);
    assert!(
        hits[0].message.contains("`collect` inside"),
        "{}",
        hits[0].message
    );
}

// ------------------------------------------------------------ fence balance

/// The three ways a fence marker can fail to pair up, with the 1-based
/// line of the marker the finding must name.
fn unbalanced_fences(tag: &str) -> [(&'static str, String, usize); 3] {
    [
        (
            "unterminated begin",
            format!("pub fn f() {{\n    // {tag}: begin\n    let x = 1;\n    drop(x);\n}}\n"),
            2,
        ),
        (
            "begin inside an open fence",
            format!(
                "pub fn f() {{\n    // {tag}: begin\n    let x = 1;\n    // {tag}: begin\n    \
                 drop(x);\n    // {tag}: end\n}}\n"
            ),
            4,
        ),
        (
            "stray end",
            format!("pub fn f() {{\n    let x = 1;\n    // {tag}: end\n    drop(x);\n}}\n"),
            3,
        ),
    ]
}

#[test]
fn unbalanced_fence_markers_are_findings_of_the_owning_rule() {
    for (tag, owner, other) in [
        (
            "hot-path",
            AnalyzeRule::HotPathTransitiveAlloc,
            AnalyzeRule::BlockingReachability,
        ),
        (
            "nonblocking",
            AnalyzeRule::BlockingReachability,
            AnalyzeRule::HotPathTransitiveAlloc,
        ),
    ] {
        for (shape, body, line) in unbalanced_fences(tag) {
            let sources = src(&[("crates/runtime/src/fenced.rs", body.as_str())]);
            let report = analyze_sources(&sources, &AnalyzeAllowlist::empty());
            let hits = by_rule(&report.violations, owner);
            assert_eq!(hits.len(), 1, "{tag} / {shape}: {:?}", report.violations);
            assert_eq!(hits[0].line, line, "{tag} / {shape}: {}", hits[0]);
            assert_eq!(hits[0].item, "f", "{tag} / {shape}");
            assert!(
                hits[0]
                    .message
                    .contains(&format!("unbalanced `// {tag}` fence")),
                "{tag} / {shape}: {}",
                hits[0].message
            );
            assert!(
                by_rule(&report.violations, other).is_empty(),
                "{tag} / {shape}"
            );
        }
    }
}

#[test]
fn deleting_a_fence_end_marker_keeps_the_check_on() {
    let fenced = "pub fn deliver() {\n    // hot-path: begin (delivery)\n    \
                  let probe: Vec<u8> = vec![0; 4];\n    drop(probe);\n    \
                  // hot-path: end (delivery)\n}\n";
    let unterminated = fenced.replace("    // hot-path: end (delivery)\n", "");
    for body in [fenced, unterminated.as_str()] {
        let sources = src(&[("crates/runtime/src/step.rs", body)]);
        let report = analyze_sources(&sources, &AnalyzeAllowlist::empty());
        let hits = by_rule(&report.violations, AnalyzeRule::HotPathTransitiveAlloc);
        assert!(
            hits.iter()
                .any(|v| v.line == 3 && v.message.contains("`vec!`")),
            "the allocation must still be reported: {:?}",
            report.violations
        );
    }
}

// ---------------------------------------------------------------- rule 5

#[test]
fn unreferenced_pub_flags_exactly_the_items_no_caller_names() {
    let lib_a = "pub mod used;\npub mod unused;\n\n\
        pub fn lonely() {}\npub fn by_crate() {}\npub fn by_bin() {}\n\
        pub fn by_tests() {}\npub fn by_example() {}\npub fn by_ledger() {}\n\
        pub(crate) fn narrowed() {}\npub const fn constant() -> u32 { 1 }\n\n\
        pub struct S;\n\nimpl S {\n    pub fn method_lonely(&self) {}\n    \
        pub fn method_used(&self) {}\n}\n\n\
        impl Clone for S {\n    fn clone(&self) -> Self {\n        S\n    }\n}\n\n\
        #[cfg(test)]\nmod tests {\n    pub fn test_helper() {}\n}\n";
    let sources = src(&[
        ("crates/lib_a/src/lib.rs", lib_a),
        // Naming an item from its own crate's library files is no caller.
        (
            "crates/lib_a/src/used.rs",
            "pub fn g() {\n    crate::lonely();\n    crate::narrowed();\n}\n",
        ),
        (
            "crates/lib_a/src/bin/tool.rs",
            "fn main() {\n    lib_a::by_bin();\n}\n",
        ),
        (
            "crates/lib_b/src/lib.rs",
            "pub fn b() {\n    lib_a::by_crate();\n    lib_a::S.method_used();\n}\n",
        ),
        // A binary-only crate has no API of its own to check.
        (
            "crates/tool/src/main.rs",
            "pub fn helper() {}\nfn main() {\n    helper();\n}\n",
        ),
        (
            "tests/t.rs",
            "// lonely, unused: comments and strings name nothing\n\
             fn t() {\n    lib_a::by_tests();\n    lib_b::b();\n    lib_a::used::g();\n    \
             let _ = \"lonely unused constant\";\n}\n",
        ),
        (
            "examples/e.rs",
            "fn main() {\n    lib_a::by_example();\n}\n",
        ),
        (
            "ledger/src/batch.rs",
            "fn run() {\n    lib_a::by_ledger();\n}\n",
        ),
    ]);
    let report = analyze_sources(&sources, &AnalyzeAllowlist::empty());
    let mut hits: Vec<(String, usize, String)> =
        by_rule(&report.violations, AnalyzeRule::UnreferencedPub)
            .iter()
            .map(|v| (v.path.clone(), v.line, v.item.clone()))
            .collect();
    hits.sort();
    let lib = "crates/lib_a/src/lib.rs".to_string();
    assert_eq!(
        hits,
        vec![
            (lib.clone(), 2, "unused".to_string()),
            (lib.clone(), 4, "lonely".to_string()),
            (lib.clone(), 11, "constant".to_string()),
            (lib, 16, "S::method_lonely".to_string()),
        ],
        "violations: {:?}",
        report.violations
    );
}

// ---------------------------------------------------------------- rule 6

#[test]
fn unguarded_and_negated_emits_are_flagged_positive_guards_are_not() {
    let sources = src(&[(
        "crates/runtime/src/emits.rs",
        "fn good(ctx: &Ctx) {\n    if ctx.observed() {\n        ctx.emit(Ev::A);\n    }\n}\n\
         fn nested(rec: &Rec, observed: bool) {\n    if observed {\n        \
         for r in 0..4 {\n            rec.emit(r);\n        }\n    }\n}\n\
         fn enabled(rec: &Rec) {\n    if rec.enabled() {\n        rec.emit(Ev::A);\n    }\n}\n\
         fn conj(ctx: &Ctx, x: bool) {\n    if ctx.observed() && x {\n        \
         ctx.emit(Ev::A);\n    }\n}\n\
         fn negated(rec: &Rec) {\n    if !rec.enabled() {\n        rec.emit(Ev::A);\n    }\n}\n\
         fn bare(ctx: &Ctx) {\n    ctx.emit(Ev::A);\n}\n",
    )]);
    let report = analyze_sources(&sources, &AnalyzeAllowlist::empty());
    let hits: Vec<(usize, &str)> = by_rule(&report.violations, AnalyzeRule::UnguardedEmit)
        .iter()
        .map(|v| (v.line, v.item.as_str()))
        .collect();
    assert_eq!(
        hits,
        vec![(25, "negated"), (29, "bare")],
        "{:?}",
        report.violations
    );
}

// ---------------------------------------------------------------- rule 7

const TOPOLOGY: &str = "pub fn topology(rank: u32, num_ranks: u32) -> (u32, Vec<u32>) {\n    \
    let parent = (rank - 1) / 8;\n    \
    let children: Vec<u32> = (0..8u32)\n        .map(|i| rank * 8 + i + 1)\n        \
    .filter(|&c| c < num_ranks)\n        .collect();\n    (parent, children)\n}\n";

fn tree_hits(path: &str, body: &str) -> Vec<(usize, String)> {
    let report = analyze_sources(&src(&[(path, body)]), &AnalyzeAllowlist::empty());
    by_rule(&report.violations, AnalyzeRule::HandRolledCollective)
        .iter()
        .map(|v| (v.line, v.item.clone()))
        .collect()
}

#[test]
fn hand_rolled_collective_is_flagged_outside_the_collectives_module_only() {
    let outside = "crates/coloring/src/dist.rs";
    assert_eq!(
        tree_hits(outside, TOPOLOGY),
        vec![(1, "topology".to_string())]
    );
    assert!(tree_hits("crates/runtime/src/collectives.rs", TOPOLOGY).is_empty());
    // Consuming TreeAllreduce names parent/children but does no rank
    // arithmetic.
    let consumer = "fn try_send_reduce(&mut self) {\n    \
        match self.allreduce.try_complete(self.phase, self.own) {\n        None => {}\n        \
        Some(ReduceOutcome::ToParent { parent, value }) => self.send(parent, value),\n        \
        Some(ReduceOutcome::Root { value }) => self.broadcast(value),\n    }\n}\n\
        fn broadcast(&mut self) {\n    fan_out(self.ctx, self.allreduce.children().iter().copied(), &self.msg);\n}\n";
    assert!(tree_hits(outside, consumer).is_empty());
}

#[test]
fn a_bodiless_trait_method_does_not_take_the_next_fns_body() {
    let body = format!("pub trait Topo {{ fn shape(&self, rank: u32) -> u32; }}\n{TOPOLOGY}");
    let hits = tree_hits("crates/coloring/src/dist.rs", &body);
    assert_eq!(hits, vec![(2, "topology".to_string())]);
}

// ------------------------------------------------------- allowlist + report

#[test]
fn allowlist_reroutes_findings_with_their_reason() {
    let sources = src(&[(
        "crates/net/src/reactor.rs",
        "pub fn run_loop(s: &mut Sock) {\n    s.write_all(b\"x\");\n}\n",
    )]);
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
    let report = analyze_sources(&sources, &AnalyzeAllowlist::empty());
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
    let report = analyze_tree(repo_root(), &AnalyzeAllowlist::empty()).expect("analyze walk");
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
fn binary_flags_seeded_hand_rolled_collective() {
    let root = seeded_tree("collective", &[("crates/bad/src/lib.rs", TOPOLOGY)]);
    let out = cmg_lint(&[root.as_os_str()]);
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(out.status.code(), Some(1), "expected lint failure exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no-hand-rolled-collective"), "{stderr}");
}

#[test]
fn binary_passes_clean_tree_and_real_workspace() {
    let clean = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}\n";
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
