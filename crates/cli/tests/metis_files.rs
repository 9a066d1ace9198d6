//! `.graph` / `.metis` paths are METIS files on the way out and on the
//! way back in: a grid written by `gen` reads back with the same vertex
//! and edge counts and the same weightedness, as it does through `.mtx`.

use std::process::Command;

fn cmg(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cmg"))
        .args(args)
        .output()
        .expect("run cmg");
    assert!(out.status.success(), "cmg {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn metis_files_round_trip_through_gen_and_stats() {
    let dir = std::env::temp_dir().join(format!("cmg-metis-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, weights, weighted) in [
        ("g.graph", "none", false),
        ("w.metis", "integer", true),
        ("w.mtx", "integer", true),
    ] {
        let path = dir.join(name);
        let path = path.to_str().expect("utf-8 temp dir");
        let grid = ["--kind", "grid2d", "--rows", "3", "--cols", "3"];
        cmg(&[&["gen"][..], &grid, &["--weights", weights, "-o", path]].concat());
        if !name.ends_with(".mtx") {
            // METIS: a `n m [fmt]` header, then one adjacency line per vertex.
            let text = std::fs::read_to_string(path).unwrap();
            let header = if weighted { "9 12 001" } else { "9 12" };
            assert_eq!(text.lines().next(), Some(header), "{name}");
            assert_eq!(text.lines().count(), 10, "{name}");
        }
        let stats = cmg(&["stats", "--input", path]);
        let mut lines = stats.lines();
        assert_eq!(
            lines.next(),
            Some("|V|=9 |E|=12 deg[min=2 avg=2.67 max=4] isolated=0"),
            "{name}"
        );
        assert_eq!(
            lines.next(),
            Some(&*format!("weighted: {weighted}")),
            "{name}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
