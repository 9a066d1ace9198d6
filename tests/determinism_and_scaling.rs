//! Determinism guarantees and cost-model sanity: the properties that make
//! the simulated scalability figures trustworthy.

use cmg::prelude::*;
use cmg_coloring::{assemble_coloring, ColoringConfig, DistColoring};
use cmg_graph::generators;
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_matching::{assemble_matching, DistMatching};
use cmg_partition::simple::{block_partition, grid2d_partition};
use cmg_partition::DistGraph;
use cmg_runtime::{EngineConfig, RankProgram, SimEngine};

fn weighted_grid(k: usize, seed: u64) -> cmg_graph::CsrGraph {
    assign_weights(
        &generators::grid2d(k, k),
        WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        seed,
    )
}

/// Two identical simulated runs are bit-identical, including statistics.
#[test]
fn sim_runs_are_reproducible() {
    let g = weighted_grid(24, 1);
    let part = grid2d_partition(24, 24, 3, 3);
    let a = cmg::run_matching(&g, &part, &Engine::default_simulated());
    let b = cmg::run_matching(&g, &part, &Engine::default_simulated());
    assert_eq!(a.matching, b.matching);
    assert_eq!(a.simulated_time, b.simulated_time);
    assert_eq!(a.stats.total_messages(), b.stats.total_messages());
    assert_eq!(a.stats.rounds, b.stats.rounds);
}

/// Runs `programs()` on the active-set loop and on the dense reference,
/// asserts that per-rank statistics, rounds and makespans agree, and
/// returns both sets of final programs.
fn scheduled_and_dense<P: RankProgram>(programs: impl Fn() -> Vec<P>) -> (Vec<P>, Vec<P>) {
    let sched = SimEngine::new(programs(), EngineConfig::default()).run();
    let dense = SimEngine::new(programs(), EngineConfig::default()).run_dense_reference();
    assert!(!sched.hit_round_cap && !dense.hit_round_cap);
    assert_eq!(sched.stats.per_rank, dense.stats.per_rank);
    assert_eq!(sched.stats.rounds, dense.stats.rounds);
    assert_eq!(
        sched.stats.makespan().to_bits(),
        dense.stats.makespan().to_bits()
    );
    (sched.programs, dense.programs)
}

/// `SimEngine::run` reproduces the dense reference loop bit for bit on
/// the paper's two programs: the same matching on the weighted grid and
/// the same colouring on the unweighted one, with equal per-rank stats,
/// rounds and simulated makespans.
#[test]
fn parallel_sim_is_bit_identical() {
    let k = 24;
    let part = grid2d_partition(k, k, 4, 4);
    let g = weighted_grid(k, 2);
    let (sched, dense) = scheduled_and_dense(|| {
        DistGraph::build_all(&g, &part)
            .into_iter()
            .map(DistMatching::new)
            .collect()
    });
    assert_eq!(
        assemble_matching(&sched, k * k),
        assemble_matching(&dense, k * k)
    );
    let g = generators::grid2d(k, k);
    let (sched, dense) = scheduled_and_dense(|| {
        DistGraph::build_all(&g, &part)
            .into_iter()
            .map(|dg| DistColoring::new(dg, ColoringConfig::default()))
            .collect()
    });
    assert_eq!(
        assemble_coloring(&sched, k * k),
        assemble_coloring(&dense, k * k)
    );
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

/// In the compute-dominated regime the preset with faster cores wins;
/// (in the latency-bound regime the ordering can invert, since the
/// commodity preset has ~4x the network latency of Blue Gene/P's torus).
#[test]
fn machine_presets_order_simulated_times() {
    let g = weighted_grid(256, 5);
    let part = grid2d_partition(256, 256, 2, 2);
    let bgp = cmg::run_matching(&g, &part, &Engine::default_simulated()).simulated_time;
    let commodity = cmg::run_matching(
        &g,
        &part,
        &Engine::Simulated(EngineConfig::with_preset(MachinePreset::CommodityCluster)),
    )
    .simulated_time;
    // Commodity preset has 4x faster cores and ~2.7x faster links.
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
