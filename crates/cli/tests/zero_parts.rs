//! `--parts 0` / `--ranks 0` are argument errors — one line on stderr,
//! exit 1 — whichever partitioner would have been asked for zero parts;
//! none of the library `assert!`s behind them is reached.

use std::process::{Command, Output};

fn cmg(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cmg"))
        .args(args)
        .output()
        .expect("run cmg")
}

fn assert_refused(out: &Output, flag: &str, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
    assert_eq!(
        stderr.trim_end(),
        format!("error: {flag} must be at least 1"),
        "{what}"
    );
}

#[test]
fn zero_parts_or_ranks_is_refused_before_any_partitioner_runs() {
    let graph = std::env::temp_dir().join(format!("cmg-zero-parts-{}.mtx", std::process::id()));
    let graph = graph.to_str().expect("utf-8 temp dir");
    let gen = cmg(&[
        "gen", "--kind", "grid2d", "--rows", "6", "--cols", "6", "-o", graph,
    ]);
    assert!(gen.status.success(), "{gen:?}");

    for method in ["multilevel", "block", "bfs", "random", "hash"] {
        for verb in ["partition", "match", "color"] {
            let out = cmg(&[verb, "--input", graph, "--parts", "0", "--method", method]);
            assert_refused(&out, "--parts", &format!("{verb} --method {method}"));
        }
    }
    assert_refused(&cmg(&["run", "--ranks", "0"]), "--ranks", "run");
    assert_refused(
        &cmg(&["serve", "--socket", "unused.sock", "--ranks", "0"]),
        "--ranks",
        "serve",
    );

    // One part is the smallest legal request, on every method.
    for method in ["multilevel", "block", "bfs", "random", "hash"] {
        let out = cmg(&[
            "partition",
            "--input",
            graph,
            "--parts",
            "1",
            "--method",
            method,
        ]);
        assert!(out.status.success(), "--parts 1 --method {method}: {out:?}");
    }
    let _ = std::fs::remove_file(graph);
}
