//! `cmg match --seq <alg>` runs one sequential algorithm in-process. The
//! flags that configure a distributed run (partition, engine,
//! observability outputs) mean nothing to it, so each is an argument
//! error — one line naming the flag, exit 1 — never a success line over
//! a run that silently dropped the request. It offers one name per
//! distinct answer: suitor and path-growing.

use std::process::{Command, Output};

fn cmg(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cmg"))
        .args(args)
        .output()
        .expect("run cmg")
}

#[test]
fn seq_refuses_the_distributed_only_flags() {
    let dir = std::env::temp_dir();
    let stem = format!("cmg-match-seq-{}", std::process::id());
    let graph = dir.join(format!("{stem}.mtx"));
    let graph = graph.to_str().expect("utf-8 temp dir");
    let out_file = dir.join(format!("{stem}.out"));
    let out_file = out_file.to_str().expect("utf-8 temp dir");
    let gen = cmg(&[
        "gen",
        "--kind",
        "grid2d",
        "--rows",
        "8",
        "--cols",
        "8",
        "--weights",
        "uniform",
        "-o",
        graph,
    ]);
    assert!(gen.status.success(), "{gen:?}");
    let seq = |extra: &[&str]| {
        let mut args = vec!["match", "--input", graph, "--seq", "suitor"];
        args.extend_from_slice(extra);
        cmg(&args)
    };

    let refusals: [&[&str]; 10] = [
        &["--parts", "2"],
        &["--method", "block"],
        &["--seed", "3"],
        &["--engine", "sim"],
        &["--no-bundling"],
        &["--checkpoint-interval", "2"],
        &["--trace-out", out_file],
        &["--events-out", out_file],
        &["--metrics-out", out_file],
        &["--report-out", out_file],
    ];
    for extra in refusals {
        let out = seq(extra);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!(
                "error: --seq suitor runs sequentially and takes no {}",
                extra[0]
            )
        );
        assert!(out.stdout.is_empty(), "{extra:?} ran anyway: {out:?}");
        assert!(
            !std::path::Path::new(out_file).exists(),
            "{extra:?} wrote {out_file}"
        );
    }

    // Without them it still runs and prints its line.
    let out = seq(&[]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("sequential suitor: "), "{stdout}");

    // One spelling per answer: greedy and locally-dominant matching
    // return suitor's matching, so they are not choices of their own.
    for alg in ["greedy", "local-dominant"] {
        let out = cmg(&["match", "--input", graph, "--seq", alg]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{alg}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("error: unknown sequential algorithm: {alg}")
        );
        assert!(out.stdout.is_empty(), "{alg} ran anyway: {out:?}");
    }
    let out = cmg(&["match", "--input", graph, "--seq", "path-growing"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("sequential path-growing: "), "{stdout}");
    let _ = std::fs::remove_file(graph);
}
