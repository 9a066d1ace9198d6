//! `cmg trace report` on input it cannot read: the refusal must say
//! which entry and why, not that the file is of no known format.

use std::process::Command;

/// A two-span Chrome trace as a build that still had the tree barrier
/// recorded it: well-formed, but entry 2 names a phase this build does
/// not have.
const OLD_TRACE: &str = r#"{"traceEvents":[
{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"rank 0"}},
{"ph":"X","pid":0,"tid":1,"name":"compute","ts":0.0,"dur":10.0},
{"ph":"X","pid":0,"tid":1,"name":"barrier_wait","ts":10.0,"dur":5.0}
]}"#;

fn report(name: &str, trace: &str) -> std::process::Output {
    let path = std::env::temp_dir().join(format!("cmg-{name}-{}.json", std::process::id()));
    std::fs::write(&path, trace).expect("write trace");
    let out = Command::new(env!("CARGO_BIN_EXE_cmg"))
        .args(["trace", "report", "--input"])
        .arg(&path)
        .output()
        .expect("run cmg");
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn a_retired_phase_is_refused_by_entry_and_name() {
    let out = report("old-trace", OLD_TRACE);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(r#"traceEvents[2]: unknown phase "barrier_wait""#),
        "{stderr}"
    );

    // The same file with the surviving name is a readable trace.
    let out = report("new-trace", &OLD_TRACE.replace("barrier_wait", "done_wave"));
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    assert!(String::from_utf8_lossy(&out.stdout).contains("straggler rank: 0"));
}
