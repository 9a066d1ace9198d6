//! A miniature scalability study: how to use the simulation engine to
//! explore rank counts far beyond the host's cores, the way the paper's
//! Figures 5.1–5.4 are produced.
//!
//! Run with: `cargo run --release --example scaling_study`

use cmg::prelude::*;
use cmg_graph::generators::grid2d;
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_partition::simple::{grid2d_partition, square_processor_grid};

fn main() {
    const K: usize = 512;
    let grid = grid2d(K, K);
    let weighted = assign_weights(&grid, WeightScheme::Uniform { lo: 0.0, hi: 1.0 }, 3);
    println!("strong scaling of matching on a {K}x{K} grid (simulated Blue Gene/P)\n");
    println!(
        "{:>6} {:>14} {:>12} {:>10} {:>9}",
        "ranks", "sim time", "speedup", "packets", "rounds"
    );

    let mut base = None;
    for p in [1u32, 4, 16, 64, 256, 1024] {
        let (pr, pc) = square_processor_grid(p);
        let part = grid2d_partition(K, K, pr, pc);
        let run = cmg::run_matching(&weighted, &part, &Engine::default_simulated());
        run.matching.validate(&weighted).expect("invalid matching");
        let t = run.simulated_time;
        let speedup = *base.get_or_insert(t) / t;
        println!(
            "{:>6} {:>11.1} µs {:>11.1}x {:>10} {:>9}",
            p,
            t * 1e6,
            speedup,
            run.stats.total_packets(),
            run.stats.rounds
        );
    }

    println!("\nsame study under a commodity-cluster cost model:\n");
    let engine = Engine::Simulated(EngineConfig {
        cost: CostModel::commodity_cluster(),
        ..EngineConfig::default()
    });
    for p in [1u32, 16, 256] {
        let (pr, pc) = square_processor_grid(p);
        let part = grid2d_partition(K, K, pr, pc);
        let run = cmg::run_matching(&weighted, &part, &engine);
        println!("{:>6} ranks: {:>9.1} µs", p, run.simulated_time * 1e6);
    }
}
