//! Integration tests of the extension features: implicit distributed
//! grids, distance-2 coloring, geometric partitioning, METIS I/O, and the
//! round trace.

use cmg::prelude::*;
use cmg_coloring::distance2::{greedy_d2, validate_d2};
use cmg_coloring::{assemble_coloring, DistColoring, Distance2};
use cmg_graph::generators;
use cmg_partition::geometric::morton_partition;
use cmg_partition::{grid2d_dist, DistGraph};
use cmg_runtime::{EngineConfig, SimEngine};

/// The implicit grid construction feeds the same results through the
/// whole pipeline as the explicit global-graph path.
#[test]
fn implicit_grid_pipeline_matches_explicit() {
    let k = 20usize;
    let (pr, pc) = (2u32, 2u32);
    // Explicit path.
    let g = cmg_graph::weights::assign_weights(
        &generators::grid2d(k, k),
        cmg_graph::weights::WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        9,
    );
    let part = cmg_partition::simple::grid2d_partition(k, k, pr, pc);
    let explicit = cmg::run_matching(&g, &part, &Engine::default_simulated());
    // Implicit path.
    let implicit = cmg::run_matching_parts(
        grid2d_dist(k, k, pr, pc, Some(9)),
        &Engine::default_simulated(),
    );
    assert!((implicit.weight - explicit.matching.weight(&g)).abs() < 1e-9);
    assert_eq!(implicit.matching, explicit.matching);
    assert_eq!(implicit.simulated_time, explicit.simulated_time);
    assert_eq!(
        implicit.stats.total_messages(),
        explicit.stats.total_messages()
    );
}

/// Distance-2 coloring end-to-end: valid, and also a valid distance-1
/// coloring, across engines-agnostic configs.
#[test]
fn distance2_end_to_end() {
    let g = generators::circuit_like(2_000, 5);
    for parts in [1u32, 5, 12] {
        let part = cmg_partition::simple::block_partition(g.num_vertices(), parts);
        let dgs = DistGraph::build_all(&g, &part);
        let programs: Vec<DistColoring<Distance2>> = dgs
            .into_iter()
            .map(|dg| DistColoring::distance2(dg, 64, 3))
            .collect();
        let result = SimEngine::new(programs, EngineConfig::default()).run();
        assert!(!result.hit_round_cap);
        let coloring = assemble_coloring(&result.programs, g.num_vertices());
        validate_d2(&coloring, &g).unwrap();
        coloring.validate(&g).unwrap(); // d1 validity implied
    }
}

/// Sequential d2 color count lower-bounds nothing but upper-bounds the
/// distributed run only loosely; both stay under Δ²+1.
#[test]
fn distance2_color_counts_bounded() {
    let g = generators::erdos_renyi(200, 600, 8);
    let bound = g.max_degree() * g.max_degree() + 1;
    let seq = greedy_d2(&g, cmg_coloring::seq::Ordering::Natural);
    assert!(seq.num_colors() <= bound);
    let part = cmg_partition::simple::hash_partition(200, 6, 2);
    let dgs = DistGraph::build_all(&g, &part);
    let programs: Vec<DistColoring<Distance2>> = dgs
        .into_iter()
        .map(|dg| DistColoring::distance2(dg, 16, 3))
        .collect();
    let result = SimEngine::new(programs, EngineConfig::default()).run();
    let coloring = assemble_coloring(&result.programs, g.num_vertices());
    assert!(coloring.num_colors() <= bound);
}

/// Morton partitioning slots into the distributed pipeline like any other
/// partition and beats 1-D blocks on square grids at high rank counts.
#[test]
fn morton_partition_pipeline() {
    let k = 32usize;
    let g = generators::grid2d(k, k);
    let coords: Vec<(u32, u32)> = (0..k * k)
        .map(|v| ((v % k) as u32, (v / k) as u32))
        .collect();
    let morton = morton_partition(&coords, 64);
    let blocks = cmg_partition::simple::block_partition(k * k, 64);
    assert!(morton.quality(&g).edge_cut < blocks.quality(&g).edge_cut);
    let run = cmg::run_coloring(
        &g,
        &morton,
        ColoringConfig::default(),
        &Engine::default_simulated(),
    );
    run.coloring.validate(&g).unwrap();
}

/// Morton partitioning of a random geometric graph via its coordinates.
#[test]
fn geometric_graph_with_morton_partition() {
    let (g, coords) = generators::random_geometric(500, 0.08, 3);
    let part = morton_partition(&coords, 8);
    assert_eq!(part.num_parts(), 8);
    let q = part.quality(&g);
    let rnd = cmg_partition::simple::random_partition(500, 8, 1).quality(&g);
    assert!(
        q.edge_cut < rnd.edge_cut,
        "morton {} vs random {}",
        q.edge_cut,
        rnd.edge_cut
    );
    let run = cmg::run_coloring(
        &g,
        &part,
        ColoringConfig::default(),
        &Engine::default_simulated(),
    );
    run.coloring.validate(&g).unwrap();
}

/// METIS files round-trip through the full stack.
#[test]
fn metis_round_trip_through_pipeline() {
    let g = cmg_graph::weights::assign_weights(
        &generators::circuit_like(800, 2),
        cmg_graph::weights::WeightScheme::Integer { max: 50 },
        4,
    );
    let mut buf = Vec::new();
    cmg_graph::metis_io::write_metis(&g, &mut buf).unwrap();
    let g2 = cmg_graph::metis_io::read_metis(&buf[..]).unwrap();
    assert_eq!(g, g2);
    let part = multilevel_partition(&g2, 4, 1);
    let run = cmg::run_matching(&g2, &part, &Engine::default_simulated());
    run.matching.validate(&g2).unwrap();
}

/// The round trace accounts for exactly the run's messages and rounds.
#[test]
fn round_trace_is_consistent_with_stats() {
    let g = cmg_graph::weights::assign_weights(
        &generators::grid2d(16, 16),
        cmg_graph::weights::WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        6,
    );
    let part = cmg_partition::simple::grid2d_partition(16, 16, 2, 2);
    let dgs = DistGraph::build_all(&g, &part);
    let programs: Vec<cmg_matching::DistMatching> = dgs
        .into_iter()
        .map(cmg_matching::DistMatching::new)
        .collect();
    let cfg = EngineConfig {
        record_trace: true,
        ..Default::default()
    };
    let result = SimEngine::new(programs, cfg).run();
    assert_eq!(result.trace.len() as u64, result.stats.rounds);
    let msgs: u64 = result.trace.iter().map(|t| t.messages).sum();
    assert_eq!(msgs, result.stats.total_messages());
    let bytes: u64 = result.trace.iter().map(|t| t.bytes).sum();
    assert_eq!(bytes, result.stats.total_bytes());
    // Virtual time is monotone across rounds.
    for w in result.trace.windows(2) {
        assert!(w[1].max_virtual_time >= w[0].max_virtual_time);
    }
}

/// Hybrid cost-model what-if: faster per-rank compute shrinks simulated
/// time in the compute-bound regime (the §6 future-work experiment's
/// engine-level premise).
#[test]
fn hybrid_gamma_scaling_shrinks_compute_bound_time() {
    let parts = grid2d_dist(64, 64, 2, 2, Some(1));
    let base = cmg::run_matching_parts(parts.clone(), &Engine::default_simulated());
    let fast_cost = cmg_runtime::CostModel {
        gamma: cmg_runtime::CostModel::blue_gene_p().gamma / 4.0,
        ..cmg_runtime::CostModel::blue_gene_p()
    };
    let cfg = EngineConfig {
        cost: fast_cost,
        ..Default::default()
    };
    let fast = cmg::run_matching_parts(parts, &Engine::Simulated(cfg));
    assert!(fast.simulated_time < base.simulated_time);
    assert_eq!(fast.weight, base.weight);
}
