//! End-to-end distributed coloring: variants × partitioners × engines.

use cmg::prelude::*;
use cmg_coloring::seq;
use cmg_graph::generators;
use cmg_partition::simple::{bfs_partition, block_partition, hash_partition};
use cmg_partition::{multilevel_partition, Partition};

#[test]
fn every_variant_produces_a_valid_coloring() {
    let g = generators::erdos_renyi(500, 2000, 1);
    let part = hash_partition(g.num_vertices(), 9, 2);
    for comm in [CommVariant::Neighbor, CommVariant::Fiac, CommVariant::Fiab] {
        for superstep_size in [1, 32, g.num_vertices()] {
            let cfg = ColoringConfig {
                comm,
                superstep_size,
                ..Default::default()
            };
            let run = cmg::run_coloring(&g, &part, cfg, &Engine::default_simulated());
            run.coloring
                .validate(&g)
                .unwrap_or_else(|e| panic!("{comm:?}/s={superstep_size}: {e}"));
        }
    }
}

#[test]
fn engines_agree_on_colorings() {
    let g = generators::circuit_like(1_200, 3);
    let part = multilevel_partition(&g, 6, 1);
    let cfg = ColoringConfig {
        superstep_size: 25,
        ..Default::default()
    };
    let sim = cmg::run_coloring(&g, &part, cfg, &Engine::default_simulated());
    let thr = cmg::run_coloring(&g, &part, cfg, &Engine::default_threaded());
    assert_eq!(sim.coloring, thr.coloring);
    assert_eq!(sim.phases, thr.phases);
    sim.coloring.validate(&g).unwrap();
}

#[test]
fn colors_bounded_by_max_degree_plus_one() {
    for (name, g) in [
        ("grid", generators::grid2d(20, 20)),
        ("rmat", generators::rmat(9, 6, (0.5, 0.2, 0.2, 0.1), 2)),
        ("complete", generators::complete(30)),
    ] {
        let part = bfs_partition(&g, 5);
        let run = cmg::run_coloring(
            &g,
            &part,
            ColoringConfig::default(),
            &Engine::default_simulated(),
        );
        run.coloring.validate(&g).unwrap();
        assert!(
            run.coloring.num_colors() <= g.max_degree() + 1,
            "{name}: {} > Δ+1",
            run.coloring.num_colors()
        );
    }
}

#[test]
fn distributed_color_count_close_to_serial() {
    let g = generators::circuit_like(5_000, 8);
    let serial = seq::greedy(&g, seq::Ordering::Natural).num_colors();
    for p in [4u32, 16, 64] {
        let part = block_partition(g.num_vertices(), p);
        let run = cmg::run_coloring(
            &g,
            &part,
            ColoringConfig::default(),
            &Engine::default_simulated(),
        );
        assert!(
            run.coloring.num_colors() <= serial + 3,
            "p={p}: {} vs serial {serial}",
            run.coloring.num_colors()
        );
    }
}

#[test]
fn jones_plassmann_baseline_agrees_between_engines_and_needs_more_rounds() {
    let g = generators::circuit_like(2_000, 4);
    let part = block_partition(g.num_vertices(), 8);
    let jp_sim = cmg::run_jones_plassmann(&g, &part, 5, &Engine::default_simulated());
    let jp_thr = cmg::run_jones_plassmann(&g, &part, 5, &Engine::default_threaded());
    assert_eq!(jp_sim.coloring, jp_thr.coloring);
    jp_sim.coloring.validate(&g).unwrap();

    let spec = cmg::run_coloring(
        &g,
        &part,
        ColoringConfig::default(),
        &Engine::default_simulated(),
    );
    assert!(
        spec.phases < jp_sim.phases,
        "speculative {} phases vs JP {} rounds",
        spec.phases,
        jp_sim.phases
    );
}

#[test]
fn single_rank_equals_serial_first_fit_on_interior_only_graph() {
    // With one rank there is no boundary: coloring = sequential first-fit
    // in natural order.
    let g = generators::grid2d(15, 15);
    let run = cmg::run_coloring(
        &g,
        &Partition::single(g.num_vertices()),
        ColoringConfig::default(),
        &Engine::default_simulated(),
    );
    let serial = seq::greedy(&g, seq::Ordering::Natural);
    assert_eq!(run.coloring.colors(), serial.colors());
    assert_eq!(run.phases, 1);
}

#[test]
fn superstep_size_one_still_converges() {
    let g = generators::complete(16);
    let part = hash_partition(16, 4, 1);
    let cfg = ColoringConfig {
        superstep_size: 1,
        ..Default::default()
    };
    let run = cmg::run_coloring(&g, &part, cfg, &Engine::default_simulated());
    run.coloring.validate(&g).unwrap();
    assert_eq!(run.coloring.num_colors(), 16);
}
