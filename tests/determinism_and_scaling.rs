//! Cost-model sanity: the properties that make the simulated scalability
//! figures trustworthy. That simulated runs are reproducible, and that the
//! scheduled loop equals the dense reference, are slices of the sweep's
//! small tier (`tests/sweep.rs`).

mod sweep_harness;

use cmg::prelude::*;
use cmg_coloring::ColoringConfig;
use cmg_graph::generators;
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_partition::simple::{block_partition, grid2d_partition};
use cmg_runtime::EngineConfig;

/// The small tier's simulator cells under the other delivery orders, run
/// twice in one process, reproduce the digests pinned in the file.
#[test]
fn sim_runs_are_reproducible() {
    sweep_harness::check_small_tier("sim_runs_are_reproducible", |_| true);
}

/// The active-set loop equals the dense reference: the sweep's dense ≡
/// sim relation on every dense cell of the small tier.
#[test]
fn parallel_sim_is_bit_identical() {
    use sweep_harness::{check_small_tier, os_scheduled};
    check_small_tier("parallel_sim_is_bit_identical", os_scheduled);
}

fn weighted_grid(k: usize, seed: u64) -> cmg_graph::CsrGraph {
    assign_weights(
        &generators::grid2d(k, k),
        WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        seed,
    )
}

/// Strong scaling: simulated time decreases substantially with rank count
/// in the compute-dominated regime.
#[test]
fn simulated_strong_scaling_decreases() {
    let g = weighted_grid(128, 3);
    let t4 = cmg::run_matching(
        &g,
        &grid2d_partition(128, 128, 2, 2),
        &Engine::default_simulated(),
    )
    .simulated_time;
    let t64 = cmg::run_matching(
        &g,
        &grid2d_partition(128, 128, 8, 8),
        &Engine::default_simulated(),
    )
    .simulated_time;
    assert!(
        t64 < t4 / 4.0,
        "expected ≥4x speedup from 4→64 ranks: {t4} vs {t64}"
    );
}

/// Bundling strictly reduces simulated time (it removes per-message α).
#[test]
fn bundling_reduces_simulated_time() {
    let g = weighted_grid(48, 4);
    let part = block_partition(g.num_vertices(), 8);
    let bundled = cmg::run_matching(&g, &part, &Engine::default_simulated());
    let unbundled_cfg = EngineConfig {
        bundling: false,
        ..Default::default()
    };
    let unbundled = cmg::run_matching(&g, &part, &Engine::Simulated(unbundled_cfg));
    assert_eq!(bundled.matching, unbundled.matching);
    assert!(
        bundled.simulated_time < unbundled.simulated_time,
        "bundled {} !< unbundled {}",
        bundled.simulated_time,
        unbundled.simulated_time
    );
}

/// Synchronous supersteps cost at least as much as asynchronous ones.
#[test]
fn sync_rounds_cost_at_least_async() {
    let g = generators::grid2d(32, 32);
    let part = grid2d_partition(32, 32, 2, 2);
    let cfg = ColoringConfig::default();
    let async_run = cmg::run_coloring(&g, &part, cfg, &Engine::default_simulated());
    let sync_cfg = EngineConfig {
        sync_rounds: true,
        ..Default::default()
    };
    let sync_run = cmg::run_coloring(&g, &part, cfg, &Engine::Simulated(sync_cfg));
    assert_eq!(async_run.coloring, sync_run.coloring);
    assert!(sync_run.simulated_time >= async_run.simulated_time);
}

/// In the compute-dominated regime the cost model with faster cores wins;
/// (in the latency-bound regime the ordering can invert, since the
/// commodity cluster has ~4x the network latency of Blue Gene/P's torus).
#[test]
fn machine_presets_order_simulated_times() {
    let g = weighted_grid(256, 5);
    let part = grid2d_partition(256, 256, 2, 2);
    let bgp = cmg::run_matching(&g, &part, &Engine::default_simulated()).simulated_time;
    let commodity = cmg::run_matching(
        &g,
        &part,
        &Engine::Simulated(EngineConfig {
            cost: CostModel::commodity_cluster(),
            ..EngineConfig::default()
        }),
    )
    .simulated_time;
    // The commodity cluster has 4x faster cores and ~2.7x faster links.
    assert!(commodity < bgp, "commodity {commodity} !< bgp {bgp}");
}

/// Weak scaling stays near-flat across a 16× rank range.
#[test]
fn simulated_weak_scaling_is_near_flat() {
    let mut times = Vec::new();
    for p_side in [2usize, 4, 8] {
        let k = 16 * p_side;
        let g = weighted_grid(k, 6);
        let part = grid2d_partition(k, k, p_side as u32, p_side as u32);
        times.push(cmg::run_matching(&g, &part, &Engine::default_simulated()).simulated_time);
    }
    let max = times.iter().cloned().fold(0.0, f64::max);
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        max / min < 3.0,
        "weak scaling drifted more than 3x: {times:?}"
    );
}
