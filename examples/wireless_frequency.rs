//! Wireless frequency assignment — the paper's §1 coloring application
//! (ref [15]: "frequency assignment in wireless networks").
//!
//! Transmitters are random points in the plane; two transmitters within
//! interference range must not share a frequency (distance-1 coloring of
//! the random geometric graph), and with one-hop relaying they must
//! differ even two hops apart (distance-2 coloring). The network is
//! partitioned geographically with the Morton space-filling curve and
//! colored distributedly.
//!
//! Run with: `cargo run --release --example wireless_frequency`

use cmg::prelude::*;
use cmg_coloring::distance2::validate_d2;
use cmg_coloring::{assemble_coloring, DistColoring, Distance2};
use cmg_graph::generators::random_geometric;
use cmg_partition::geometric::morton_partition;
use cmg_runtime::{EngineConfig, SimEngine};

fn main() {
    // 3,000 transmitters, interference radius 3% of the field.
    let (network, coords) = random_geometric(3_000, 0.03, 7);
    println!("network: {}", GraphStats::of(&network));

    // Geographic distribution over 25 base-station controllers.
    let partition = morton_partition(&coords, 25);
    println!("distribution: {}", partition.quality(&network));

    // Distance-1 frequencies: adjacent transmitters differ.
    let engine = Engine::default_simulated();
    let d1 = cmg::run_coloring(&network, &partition, ColoringConfig::default(), &engine);
    d1.coloring
        .validate(&network)
        .expect("invalid d1 assignment");
    println!(
        "distance-1: {} frequencies in {} phases ({} messages, {:.1} µs simulated)",
        d1.coloring.num_colors(),
        d1.phases,
        d1.stats.total_messages(),
        d1.simulated_time * 1e6
    );

    // Distance-2 frequencies: hidden-terminal-safe assignment.
    let parts = DistGraph::build_all(&network, &partition);
    let programs: Vec<DistColoring<Distance2>> = parts
        .into_iter()
        .map(|dg| DistColoring::distance2(dg, 200, 11))
        .collect();
    let result = SimEngine::new(programs, EngineConfig::default()).run();
    assert!(!result.hit_round_cap, "d2 did not converge");
    let d2 = assemble_coloring(&result.programs, network.num_vertices());
    validate_d2(&d2, &network).expect("invalid d2 assignment");
    println!(
        "distance-2: {} frequencies ({} messages, {:.1} µs simulated)",
        d2.num_colors(),
        result.stats.total_messages(),
        result.stats.makespan() * 1e6
    );

    // Sanity: d2 needs at least as many frequencies as d1.
    assert!(d2.num_colors() >= d1.coloring.num_colors());
}
