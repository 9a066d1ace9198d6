//! `cmg color --distance 2` runs on the simulated engine with the paper's
//! neighbor-customized exchange. Asking it for another engine or another
//! exchange is an argument error — one line naming the flag, exit 1 —
//! never a simulator run that reports "simulated time" as if it had
//! honored the request.

use std::process::{Command, Output};

fn cmg(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cmg"))
        .args(args)
        .output()
        .expect("run cmg")
}

#[test]
fn distance2_refuses_the_engines_and_exchanges_it_does_not_run() {
    let graph = std::env::temp_dir().join(format!("cmg-color-d2-{}.mtx", std::process::id()));
    let graph = graph.to_str().expect("utf-8 temp dir");
    let gen = cmg(&[
        "gen", "--kind", "grid2d", "--rows", "8", "--cols", "8", "-o", graph,
    ]);
    assert!(gen.status.success(), "{gen:?}");
    let color = |flag: &str, value: &str| {
        cmg(&[
            "color",
            "--input",
            graph,
            "--parts",
            "2",
            "--distance",
            "2",
            flag,
            value,
        ])
    };

    let refusals = [
        ("--engine", "threaded", "runs on the simulated engine only"),
        ("--engine", "net", "runs on the simulated engine only"),
        (
            "--comm",
            "fiac",
            "uses the neighbor-customized exchange only",
        ),
        (
            "--comm",
            "fiab",
            "uses the neighbor-customized exchange only",
        ),
    ];
    for (flag, value, why) in refusals {
        let out = color(flag, value);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("error: --distance 2 {why}, not {flag} {value}")
        );
        assert!(out.stdout.is_empty(), "{flag} {value} ran anyway: {out:?}");
    }

    // What it does run is still accepted when named explicitly.
    for (flag, value) in [("--engine", "sim"), ("--comm", "new")] {
        let out = color(flag, value);
        assert!(out.status.success(), "{flag} {value}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("colors (distance-2)"), "{stdout}");
    }
    let _ = std::fs::remove_file(graph);
}
