//! Runs every table/figure harness in sequence (used to generate
//! EXPERIMENTS.md), then merges the machine-readable `BENCH_<name>.json`
//! files the figure/ablation binaries emit into one consolidated
//! `BENCH_repro.json` (per-figure makespans, total messages/bytes,
//! rounds). Each harness is also available as its own binary.
//!
//! Usage: `cargo run --release -p cmg-bench --bin repro_all [--scale …]`
//!
//! Reports land in `$CMG_BENCH_DIR` if set, else the current directory.

use cmg_obs::bench::{self, read_reports};
use cmg_obs::Json;
use std::process::Command;

fn main() {
    let scale_args: Vec<String> = std::env::args().skip(1).collect();
    let bins = [
        "table1_1",
        "table5_1",
        "fig5_1",
        "fig5_2",
        "fig5_3",
        "fig5_4",
        "ablation_bundling",
        "ablation_comm_variants",
        "ablation_superstep",
        "ablation_jp",
        "ablation_weight_dist",
        "ablation_sync",
        "ext_distance2",
        "quality_vs_p",
        "engine_overhead",
        "net_overhead",
        "net_recovery",
        "serve_stream",
    ];
    // Children inherit an explicit bench dir so their BENCH_*.json files
    // land where this process will look for them.
    let bench_dir = bench::bench_dir();
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("bin dir");
    for bin in bins {
        println!("\n=== {bin} {} ===\n", scale_args.join(" "));
        let status = Command::new(dir.join(bin))
            .args(&scale_args)
            .env(bench::BENCH_DIR_ENV, &bench_dir)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} failed");
    }

    // Consolidate whatever reports the binaries produced (table/ext/
    // future binaries do not emit one; they are simply absent here).
    let found = read_reports(&bench_dir, &bins);
    let consolidated = Json::Obj(vec![
        ("bench".to_string(), Json::Str("repro".to_string())),
        (
            "scale_args".to_string(),
            Json::Arr(scale_args.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "reports".to_string(),
            Json::Obj(found.into_iter().collect()),
        ),
    ]);
    let path = bench_dir.join("BENCH_repro.json");
    match std::fs::write(&path, consolidated.to_string_pretty() + "\n") {
        Ok(()) => println!("\nconsolidated report: {}", path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
}
