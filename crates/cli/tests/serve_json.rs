//! `cmg serve --json FILE`: the shutdown summary the server prints is
//! also written as JSON, with what the stream did in it.

use cmg_obs::Json;
use std::process::{Command, Stdio};

#[test]
fn serve_writes_its_shutdown_summary_as_json() {
    let tmp = std::env::temp_dir();
    let socket = tmp.join(format!("cmg-serve-json-{}.sock", std::process::id()));
    let json = socket.with_extension("json");
    let stream = socket.with_extension("txt");
    std::fs::write(&stream, "insert 0 9 2.5\n\ndelete 0 1\n").expect("write stream");

    let cmg = || {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_cmg"));
        cmd.stdout(Stdio::null());
        cmd
    };
    let mut server = cmg()
        .args(["serve", "--rows", "8", "--cols", "8", "--ranks", "2"])
        .arg("--socket")
        .arg(&socket)
        .arg("--json")
        .arg(&json)
        .spawn()
        .expect("start cmg serve");
    // `cmg client` retries the connect until the server has bound.
    let client = cmg()
        .args(["client", "--shutdown", "--socket"])
        .arg(&socket)
        .arg("--mutations")
        .arg(&stream)
        .status()
        .expect("run cmg client");
    assert!(client.success());
    assert!(server.wait().expect("server exits").success());

    let text = std::fs::read_to_string(&json).expect("summary written");
    let summary = Json::parse(&text).expect("summary parses");
    assert_eq!(summary.get("batches").and_then(Json::as_u64), Some(2));
    assert!(summary.get("mutate_p99_us").is_some(), "{text}");
    for path in [&json, &stream] {
        let _ = std::fs::remove_file(path);
    }
}
