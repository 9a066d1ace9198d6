//! `DistGraph::local` over random graphs and partitions: every local index
//! round-trips through its global id, every other id is `None`, and a
//! slice rebuilt from its wire fields (`from_fields`) equals the
//! original; both hold their neighbour ranks at exact size.

use cmg_graph::generators::{erdos_renyi, grid2d};
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_graph::{CsrGraph, VertexId};
use cmg_partition::simple::{block_partition, grid2d_partition, hash_partition};
use cmg_partition::{DistGraph, Partition};
use proptest::prelude::*;

fn check(g: &CsrGraph, p: &Partition) {
    let n = g.num_vertices();
    let parts = DistGraph::build_all(g, p);
    assert_eq!(parts.len(), p.num_parts() as usize);
    for dg in &parts {
        for (l, &v) in dg.global_ids.iter().enumerate() {
            assert_eq!(dg.local(v), Some(l as u32), "rank {} id {v}", dg.rank);
        }
        let mut held = vec![false; n];
        for &v in &dg.global_ids {
            held[v as usize] = true;
        }
        for v in 0..n as VertexId {
            if !held[v as usize] {
                assert_eq!(dg.local(v), None, "rank {} id {v}", dg.rank);
            }
        }
        assert_eq!(dg.local(n as VertexId), None);
        assert_eq!(dg.local(VertexId::MAX), None);
        let rebuilt = DistGraph::from_fields(
            dg.rank,
            dg.num_ranks,
            dg.n_local,
            dg.xadj.clone(),
            dg.adj.clone(),
            dg.weights.clone(),
            dg.global_ids.clone(),
            dg.ghost_owner.clone(),
            dg.is_boundary.clone(),
            dg.neighbor_ranks.clone(),
        );
        assert_eq!(rebuilt.as_ref(), Ok(dg));
        // Equality sees no capacity: neither list holds a slot beyond
        // its ranks (a copy of the ghost list kept one per ghost).
        let rebuilt = rebuilt.expect("equal to the slice");
        for ranks in [&dg.neighbor_ranks, &rebuilt.neighbor_ranks] {
            assert!(ranks.capacity() <= ranks.len(), "rank {}", dg.rank);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random sparse graphs, some with isolated vertices, under hash and
    /// block partitions — more parts than vertices leaves ranks empty —
    /// and on one rank.
    #[test]
    fn lookups_hold_on_random_graphs(
        n in 1usize..60,
        density in 0usize..4,
        k in 1u32..9,
        seed in 0u64..10_000,
        weighted in any::<bool>(),
    ) {
        let g = erdos_renyi(n, n * density, seed);
        let g = if weighted {
            assign_weights(&g, WeightScheme::Integer { max: 5 }, seed)
        } else {
            g
        };
        check(&g, &hash_partition(n, k, seed));
        check(&g, &block_partition(n, k));
        check(&g, &Partition::single(n));
    }

    /// Grids under the uniform 2-D distribution, including more block
    /// rows or columns than the grid has.
    #[test]
    fn lookups_hold_on_grid_partitions(
        rows in 1usize..12,
        cols in 1usize..12,
        pr in 1u32..5,
        pc in 1u32..5,
    ) {
        check(&grid2d(rows, cols), &grid2d_partition(rows, cols, pr, pc));
    }
}
