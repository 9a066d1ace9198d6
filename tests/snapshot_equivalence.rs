//! The snapshot/restore contract, pinned as a property: for every rank
//! program, round-tripping each rank through
//! `snapshot → encode → decode → restore` at an arbitrary round edge
//! (via `EngineConfig::checkpoint_every`) must leave the run
//! **bit-identical** to the uninterrupted run — same results, same
//! statistics, same per-round traces — on both the simulation and the
//! threaded engine. Any state a program forgets to capture (or any
//! incidental state whose rebuild is not reset-safe) shows up here as a
//! divergence.

use cmg_coloring::{assemble_coloring, ColoringConfig, DistColoring, JonesPlassmann};
use cmg_graph::generators::{erdos_renyi, grid2d};
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_graph::CsrGraph;
use cmg_matching::{assemble_matching, DistMatching};
use cmg_partition::simple::{block_partition, hash_partition};
use cmg_partition::{DistGraph, Partition};
use cmg_runtime::{
    CostModel, EngineConfig, RankProgram, SimEngine, SimResult, ThreadedEngine, ThreadedResult,
};
use proptest::prelude::*;

fn sim_cfg(checkpoint_every: Option<u64>) -> EngineConfig {
    EngineConfig {
        cost: CostModel::compute_only(),
        record_trace: true,
        max_rounds: 200_000,
        checkpoint_every,
        ..Default::default()
    }
}

/// Runs the same program set through the sim engine with and without the
/// checkpoint oracle and asserts the two runs are indistinguishable
/// (everything except the final programs, which the caller compares).
fn sim_pair<P, F>(make: F, k: u64) -> (SimResult<P>, SimResult<P>)
where
    P: RankProgram,
    F: Fn() -> Vec<P>,
{
    let base = SimEngine::new(make(), sim_cfg(None)).run();
    let ckpt = SimEngine::new(make(), sim_cfg(Some(k))).run();
    assert!(!base.hit_round_cap, "baseline did not quiesce");
    assert_eq!(base.hit_round_cap, ckpt.hit_round_cap);
    assert_eq!(base.stats.rounds, ckpt.stats.rounds, "round counts differ");
    assert_eq!(base.stats.per_rank, ckpt.stats.per_rank, "stats differ");
    assert_eq!(base.trace, ckpt.trace, "round traces differ");
    (base, ckpt)
}

/// Same for the threaded engine (no trace; wall time may differ).
fn threaded_pair<P, F>(make: F, k: u64) -> (ThreadedResult<P>, ThreadedResult<P>)
where
    P: RankProgram + 'static,
    F: Fn() -> Vec<P>,
{
    let base = ThreadedEngine::new(make(), sim_cfg(None)).run();
    let ckpt = ThreadedEngine::new(make(), sim_cfg(Some(k))).run();
    assert!(!base.hit_round_cap, "baseline did not quiesce");
    assert_eq!(base.hit_round_cap, ckpt.hit_round_cap);
    assert_eq!(base.stats.rounds, ckpt.stats.rounds, "round counts differ");
    assert_eq!(base.stats.per_rank, ckpt.stats.per_rank, "stats differ");
    (base, ckpt)
}

fn weighted(n: usize, m: usize, seed: u64) -> CsrGraph {
    assign_weights(
        &erdos_renyi(n, m, seed),
        WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        seed,
    )
}

fn partition_for(n: usize, ranks: u32, seed: u64) -> Partition {
    if seed.is_multiple_of(2) {
        block_partition(n, ranks)
    } else {
        hash_partition(n, ranks, seed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// DistMatching: checkpointed sim run ≡ uninterrupted run.
    #[test]
    fn matching_snapshot_equivalence(
        seed in 0u64..500,
        ranks in 1u32..6,
        k in 1u64..8,
    ) {
        let g = weighted(60, 180, seed);
        let part = partition_for(60, ranks, seed);
        let make = || {
            DistGraph::build_all(&g, &part)
                .into_iter()
                .map(DistMatching::new)
                .collect::<Vec<_>>()
        };
        let (base, ckpt) = sim_pair(make, k);
        let mb = assemble_matching(&base.programs, 60);
        let mc = assemble_matching(&ckpt.programs, 60);
        prop_assert_eq!(mb, mc);
    }

    /// DistColoring (including the in-flight DoneWave/TreeAllreduce):
    /// checkpointed sim run ≡ uninterrupted.
    #[test]
    fn coloring_snapshot_equivalence(
        seed in 0u64..500,
        ranks in 1u32..6,
        s in 1usize..12,
        k in 1u64..8,
    ) {
        let g = erdos_renyi(70, 240, seed);
        let part = partition_for(70, ranks, seed);
        let cfg = ColoringConfig { superstep_size: s, ..Default::default() };
        let make = || {
            DistGraph::build_all(&g, &part)
                .into_iter()
                .map(|dg| DistColoring::new(dg, cfg))
                .collect::<Vec<_>>()
        };
        let (base, ckpt) = sim_pair(make, k);
        let cb = assemble_coloring(&base.programs, 70);
        let cc = assemble_coloring(&ckpt.programs, 70);
        prop_assert_eq!(cb, cc);
        for (pb, pc) in base.programs.iter().zip(&ckpt.programs) {
            prop_assert_eq!(pb.phases_executed, pc.phases_executed);
            prop_assert_eq!(pb.total_recolored, pc.total_recolored);
        }
    }

    /// Distance-2 DistColoring (two DONE waves, learned bans, backoff
    /// windows): checkpointed sim run ≡ uninterrupted.
    #[test]
    fn d2_snapshot_equivalence(
        seed in 0u64..500,
        ranks in 1u32..5,
        s in 1usize..8,
        k in 1u64..8,
    ) {
        let g = grid2d(8, 8);
        let part = partition_for(64, ranks, seed);
        let make = || {
            DistGraph::build_all(&g, &part)
                .into_iter()
                .map(|dg| DistColoring::distance2(dg, s, seed))
                .collect::<Vec<_>>()
        };
        let (base, ckpt) = sim_pair(make, k);
        let cb = assemble_coloring(&base.programs, 64);
        let cc = assemble_coloring(&ckpt.programs, 64);
        prop_assert_eq!(cb, cc);
    }

    /// JonesPlassmann: checkpointed sim run ≡ uninterrupted.
    #[test]
    fn jp_snapshot_equivalence(
        seed in 0u64..500,
        ranks in 1u32..6,
        k in 1u64..8,
    ) {
        let g = erdos_renyi(70, 240, seed);
        let part = partition_for(70, ranks, seed);
        let make = || {
            DistGraph::build_all(&g, &part)
                .into_iter()
                .map(|dg| JonesPlassmann::new(dg, seed))
                .collect::<Vec<_>>()
        };
        let (base, ckpt) = sim_pair(make, k);
        let cb = assemble_coloring(&base.programs, 70);
        let cc = assemble_coloring(&ckpt.programs, 70);
        prop_assert_eq!(cb, cc);
    }

    /// The threaded engine applies the same oracle: real threads, real
    /// channels, snapshot round-trips at every k-round edge.
    #[test]
    fn threaded_snapshot_equivalence(
        seed in 0u64..200,
        ranks in 2u32..5,
        k in 1u64..6,
    ) {
        let g = weighted(48, 150, seed);
        let part = partition_for(48, ranks, seed);
        let make = || {
            DistGraph::build_all(&g, &part)
                .into_iter()
                .map(DistMatching::new)
                .collect::<Vec<_>>()
        };
        let (base, ckpt) = threaded_pair(make, k);
        let mb = assemble_matching(&base.programs, 48);
        let mc = assemble_matching(&ckpt.programs, 48);
        prop_assert_eq!(mb, mc);

        let cfg = ColoringConfig { superstep_size: 4, ..Default::default() };
        let make_col = || {
            DistGraph::build_all(&g, &part)
                .into_iter()
                .map(|dg| DistColoring::new(dg, cfg))
                .collect::<Vec<_>>()
        };
        let (base, ckpt) = threaded_pair(make_col, k);
        let cb = assemble_coloring(&base.programs, 48);
        let cc = assemble_coloring(&ckpt.programs, 48);
        prop_assert_eq!(cb, cc);
    }
}

/// A zero checkpoint interval is inert, not a division by zero.
#[test]
fn zero_interval_is_ignored() {
    let g = weighted(20, 60, 1);
    let part = block_partition(20, 2);
    let programs: Vec<DistMatching> = DistGraph::build_all(&g, &part)
        .into_iter()
        .map(DistMatching::new)
        .collect();
    let result = SimEngine::new(programs, sim_cfg(Some(0))).run();
    assert!(!result.hit_round_cap);
}
