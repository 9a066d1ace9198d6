//! The net engine always bundles its messages, so `--no-bundling` with
//! `--engine net` is an argument error — one line naming both flags,
//! exit 1, before any worker spawns — never a bundled run reported as
//! if it had honored the switch.

use std::process::{Command, Output};

fn cmg(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cmg"))
        .args(args)
        .output()
        .expect("run cmg")
}

#[test]
fn net_engine_refuses_no_bundling() {
    let graph = std::env::temp_dir().join(format!("cmg-net-bundling-{}.mtx", std::process::id()));
    let graph = graph.to_str().expect("utf-8 temp dir");
    let gen = cmg(&[
        "gen", "--kind", "grid2d", "--rows", "8", "--cols", "8", "-o", graph,
    ]);
    assert!(gen.status.success(), "{gen:?}");

    let net = ["--engine", "net", "--no-bundling"];
    let refused = [
        [&["match", "--input", graph, "--parts", "2"][..], &net].concat(),
        [&["color", "--input", graph, "--parts", "2"][..], &net].concat(),
        [
            &["run", "--ranks", "2", "--rows", "4", "--cols", "4"][..],
            &net,
        ]
        .concat(),
    ];
    for argv in refused {
        let out = cmg(&argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            "error: --no-bundling runs on --engine sim|threaded only, not --engine net"
        );
        assert!(out.stdout.is_empty(), "{argv:?} ran anyway: {out:?}");
    }

    // The simulator still honors the switch.
    let out = cmg(&[
        "match",
        "--input",
        graph,
        "--parts",
        "2",
        "--engine",
        "sim",
        "--no-bundling",
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("matched"));
    let _ = std::fs::remove_file(graph);
}
