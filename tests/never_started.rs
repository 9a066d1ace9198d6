//! Rank programs straight from their constructors — before `on_start`
//! has built the rank's index — are total: every public accessor gives
//! the not-run answer and `snapshot()` indexes nothing out of bounds.
//! That a rank restored from this snapshot then runs exactly like a fresh
//! one is a relation of the sweep (`tests/sweep.rs`, `restored` cells).

use cmg_coloring::{ColoringConfig, CommVariant, DistColoring, JonesPlassmann, LocalColors};
use cmg_graph::generators::{erdos_renyi, grid2d};
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_graph::{CsrGraph, NO_VERTEX};
use cmg_matching::DistMatching;
use cmg_partition::simple::{block_partition, hash_partition};
use cmg_partition::DistGraph;
use cmg_runtime::RankProgram;

const UNCOLORED: u32 = u32::MAX;

/// Graphs and their slices: a random graph over four hashed ranks, a
/// path with a rank that owns nothing, and an edgeless graph.
fn cases() -> Vec<(CsrGraph, Vec<DistGraph>)> {
    let random = assign_weights(
        &erdos_renyi(80, 240, 3),
        WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        3,
    );
    let path = assign_weights(&grid2d(1, 3), WeightScheme::Uniform { lo: 0.0, hi: 1.0 }, 1);
    let edgeless = CsrGraph::empty(5);
    vec![
        (
            random.clone(),
            DistGraph::build_all(&random, &hash_partition(80, 4, 7)),
        ),
        (
            path.clone(),
            DistGraph::build_all(&path, &block_partition(3, 4)),
        ),
        (
            edgeless.clone(),
            DistGraph::build_all(&edgeless, &block_partition(5, 2)),
        ),
    ]
}

/// The not-run colouring answer: every owned vertex `UNCOLORED`.
fn assert_uncolored<P: LocalColors>(p: &P, n_local: usize) {
    assert_eq!(p.local_colors().count(), n_local);
    assert!(p.local_colors().all(|(_, c)| c == UNCOLORED));
}

#[test]
fn matching_never_started_is_total() {
    for (_, parts) in cases() {
        let make =
            || -> Vec<DistMatching> { parts.iter().cloned().map(DistMatching::new).collect() };
        // Fresh from the constructor, and restored from that state (the
        // index built, nothing stepped): the same not-run answers.
        let restored: Vec<DistMatching> = make()
            .into_iter()
            .map(|p| DistMatching::restore(p.meta(), p.snapshot()))
            .collect();
        for p in make().iter().chain(&restored) {
            let n_local = p.dist_graph().n_local;
            assert_eq!(p.local_mates().count(), n_local);
            assert!(p.local_mates().all(|(_, m)| m == NO_VERTEX));
            assert_eq!(p.is_resolved(), n_local == 0);
            assert_eq!(p.local_matched_weight(), 0.0);
            assert_eq!(p.local_matched_edges(), 0);
        }
    }
}

#[test]
fn distance1_coloring_never_started_is_total() {
    for comm in [CommVariant::Neighbor, CommVariant::Fiac, CommVariant::Fiab] {
        let config = ColoringConfig {
            comm,
            superstep_size: 8,
            ..Default::default()
        };
        for (g, parts) in cases() {
            let make = || -> Vec<DistColoring> {
                parts
                    .iter()
                    .map(|dg| DistColoring::new(dg.clone(), config))
                    .collect()
            };
            let restored: Vec<DistColoring> = make()
                .into_iter()
                .map(|p| DistColoring::restore(p.meta(), p.snapshot()))
                .collect();
            for set in [make(), restored] {
                for p in &set {
                    let n_local = p.dist_graph().n_local;
                    assert_uncolored(p, n_local);
                    assert_eq!(p.max_local_color(), (n_local > 0).then_some(UNCOLORED));
                    assert!(!p.is_finished());
                }
                // Every edge joins two uncoloured vertices, and the
                // ranks count each edge once.
                let conflicts: usize = set.iter().map(DistColoring::local_conflict_count).sum();
                assert_eq!(conflicts, g.num_edges(), "{comm:?}");
            }
        }
    }
}

#[test]
fn distance2_coloring_never_started_is_total() {
    for (_, parts) in cases() {
        for dg in parts {
            let p = DistColoring::distance2(dg, 4, 11);
            let n_local = p.dist_graph().n_local;
            assert_uncolored(&p, n_local);
            assert_eq!(p.max_local_color(), (n_local > 0).then_some(UNCOLORED));
            assert!(!p.is_finished());
        }
    }
}

#[test]
fn jones_plassmann_never_started_is_total() {
    for (_, parts) in cases() {
        for dg in parts {
            let n_local = dg.n_local;
            assert_uncolored(&JonesPlassmann::new(dg, 5), n_local);
        }
    }
}
