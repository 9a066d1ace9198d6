//! Rank programs straight from their constructors — before `on_start`
//! has built the rank's index — are total: every public accessor gives
//! the not-run answer, `snapshot()` indexes nothing out of bounds, and
//! `restore(meta, snapshot)` followed by a full `SimEngine` run gives the
//! uninterrupted run's answer, statistics and trace.

use bytes::Bytes;
use cmg_coloring::{
    assemble_coloring, ColoringConfig, CommVariant, DistColoring, JonesPlassmann, LocalColors,
};
use cmg_graph::generators::{erdos_renyi, grid2d};
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_graph::{CsrGraph, NO_VERTEX};
use cmg_matching::{assemble_matching, DistMatching};
use cmg_partition::simple::{block_partition, hash_partition};
use cmg_partition::DistGraph;
use cmg_runtime::snapshot::restore_encoded;
use cmg_runtime::{encode_snapshot, CostModel, EngineConfig, RankProgram, SimEngine, SimResult};

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

fn cfg() -> EngineConfig {
    EngineConfig {
        cost: CostModel::compute_only(),
        record_trace: true,
        max_rounds: 100_000,
        ..Default::default()
    }
}

/// Restores each rank of `make()` from its own never-started snapshot,
/// through the wire encoding, runs fresh and restored sets to quiescence
/// and asserts the two runs are indistinguishable. Returns the fresh run
/// and the restored one.
fn restored_runs_like_fresh<P: RankProgram>(
    make: impl Fn() -> Vec<P>,
) -> (SimResult<P>, SimResult<P>) {
    let restored: Vec<P> = make()
        .into_iter()
        .map(|p| {
            let mut bytes = Vec::new();
            encode_snapshot(&p.snapshot(), &mut bytes);
            restore_encoded(p.meta(), Bytes::from(bytes)).expect("decodes")
        })
        .collect();
    let fresh = SimEngine::new(make(), cfg()).run();
    let resumed = SimEngine::new(restored, cfg()).run();
    assert!(!fresh.hit_round_cap, "fresh run did not quiesce");
    assert_eq!(fresh.hit_round_cap, resumed.hit_round_cap);
    assert_eq!(
        fresh.stats.rounds, resumed.stats.rounds,
        "round counts differ"
    );
    assert_eq!(fresh.stats.per_rank, resumed.stats.per_rank, "stats differ");
    assert_eq!(fresh.trace, resumed.trace, "round traces differ");
    (fresh, resumed)
}

/// The not-run colouring answer: every owned vertex `UNCOLORED`.
fn assert_uncolored<P: LocalColors>(p: &P, n_local: usize) {
    assert_eq!(p.local_colors().count(), n_local);
    assert!(p.local_colors().all(|(_, c)| c == UNCOLORED));
}

#[test]
fn matching_never_started_is_total() {
    for (g, parts) in cases() {
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
        let (fresh, resumed) = restored_runs_like_fresh(make);
        let n = g.num_vertices();
        let m = assemble_matching(&resumed.programs, n);
        assert_eq!(m, assemble_matching(&fresh.programs, n));
        m.validate(&g).unwrap();
        assert!(resumed.programs.iter().all(DistMatching::is_resolved));
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
            let (fresh, resumed) = restored_runs_like_fresh(make);
            let n = g.num_vertices();
            let c = assemble_coloring(&resumed.programs, n);
            assert_eq!(c, assemble_coloring(&fresh.programs, n));
            c.validate(&g).unwrap();
            assert!(resumed.programs.iter().all(DistColoring::is_finished));
        }
    }
}

#[test]
fn distance2_coloring_never_started_is_total() {
    for (g, parts) in cases() {
        let make = || -> Vec<DistColoring<_>> {
            parts
                .iter()
                .map(|dg| DistColoring::distance2(dg.clone(), 4, 11))
                .collect()
        };
        for p in &make() {
            let n_local = p.dist_graph().n_local;
            assert_uncolored(p, n_local);
            assert_eq!(p.max_local_color(), (n_local > 0).then_some(UNCOLORED));
            assert!(!p.is_finished());
        }
        let (fresh, resumed) = restored_runs_like_fresh(make);
        let n = g.num_vertices();
        let c = assemble_coloring(&resumed.programs, n);
        assert_eq!(c, assemble_coloring(&fresh.programs, n));
        cmg_coloring::distance2::validate_d2(&c, &g).unwrap();
    }
}

#[test]
fn jones_plassmann_never_started_is_total() {
    for (g, parts) in cases() {
        let make = || -> Vec<JonesPlassmann> {
            parts
                .iter()
                .map(|dg| JonesPlassmann::new(dg.clone(), 5))
                .collect()
        };
        for (p, dg) in make().iter().zip(&parts) {
            assert_uncolored(p, dg.n_local);
        }
        let (fresh, resumed) = restored_runs_like_fresh(make);
        let n = g.num_vertices();
        let c = assemble_coloring(&resumed.programs, n);
        assert_eq!(c, assemble_coloring(&fresh.programs, n));
        c.validate(&g).unwrap();
    }
}
