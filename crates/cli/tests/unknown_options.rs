//! An option a command does not accept is an argument error — one line
//! naming the option and the command, exit 1 — raised before any graph
//! is loaded, never a run that silently ignored a misspelled request.

use std::process::{Command, Output};

fn cmg(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cmg"))
        .args(args)
        .output()
        .expect("run cmg")
}

#[test]
fn misspelled_options_are_refused_before_the_graph_is_loaded() {
    // The input does not exist: a refusal that names the option proves
    // the graph was never opened.
    let missing = std::env::temp_dir().join(format!("cmg-no-such-{}.mtx", std::process::id()));
    let missing = missing.to_str().expect("utf-8 temp dir");
    let cases: [(&[&str], &str); 5] = [
        (
            &[
                "match", "--input", missing, "--part", "4", "--engin", "threaded",
            ],
            "--part for cmg match",
        ),
        (
            &["match", "--input", missing, "--verify"],
            "--verify for cmg match",
        ),
        (
            &["color", "--input", missing, "--super-step", "8"],
            "--super-step for cmg color",
        ),
        (&["run", "--rank", "2"], "--rank for cmg run"),
        (&["run", "--ranks", "2", "--verfy"], "--verfy for cmg run"),
    ];
    for (args, named) in cases {
        let out = cmg(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end(), format!("error: unknown option {named}"));
        assert!(out.stdout.is_empty(), "{args:?} ran anyway: {out:?}");
    }

    // Spelled right, the same run goes through.
    let out = cmg(&["run", "--ranks", "2", "--rows", "4", "--cols", "4"]);
    assert!(out.status.success(), "{out:?}");
}
