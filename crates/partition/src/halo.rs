//! Halo views: precomputed owned/ghost indexing over a [`DistGraph`].
//!
//! [`HaloView`] lists the boundary vertices and, for each ghost, the
//! owned vertices it touches: the reverse cross-adjacency needed to
//! propagate "this ghost changed" to the owned vertices that care. It is
//! built totally (no partial indexing). Its ascending `boundary` list
//! doubles as a dense index of the boundary vertices: `DistMatching`
//! keeps pending proposals for those alone, since only a boundary vertex
//! can be proposed to across a cut edge. Colouring needs no view: the
//! slice's `is_boundary` flags split interior from boundary.
//!
//! The weight order the matching program walks lives in the slice
//! itself: [`sort_rows_by_weight`] sorts each owned row of `adj` (and
//! `weights` with it) in place, so the order costs no extra bytes.
//! Neither it nor the halo looks a global id up — everything here is
//! indexed by local index.

use crate::dist::{DistGraph, Rank};
use cmg_graph::{VertexId, Weight};

/// Precomputed halo structure of one rank's [`DistGraph`]: the boundary
/// vertex list and the ghost reverse cross-adjacency CSR.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HaloView {
    /// Number of owned vertices (mirrors `DistGraph::n_local`).
    pub n_local: usize,
    /// Number of ghost vertices.
    pub n_ghost: usize,
    /// Owned boundary vertices (≥ 1 ghost neighbor), ascending local
    /// index. The other owned vertices, the interior, are not listed.
    pub boundary: Vec<u32>,
    /// CSR offsets over ghosts (length `n_ghost + 1`) into
    /// [`HaloView::ghost_adj`].
    pub ghost_adj_x: Vec<usize>,
    /// Owned neighbors of each ghost (reverse cross-adjacency), grouped
    /// by ghost in ghost-index order.
    pub ghost_adj: Vec<u32>,
}

impl HaloView {
    /// Computes the halo view of `dg`. Total: every offset is built by a
    /// running sum, so empty ranks and ghost-free ranks need no special
    /// cases.
    pub fn build(dg: &DistGraph) -> Self {
        let n_local = dg.n_local;
        let n_ghost = dg.n_ghost();

        let mut boundary = Vec::with_capacity(dg.num_boundary());
        boundary.extend((0..n_local as u32).filter(|&v| dg.is_boundary[v as usize]));

        // Reverse adjacency for ghosts: count cross-edge endpoints per
        // ghost, prefix-sum into offsets, then fill with a cursor pass.
        let mut counts = vec![0usize; n_ghost];
        for &u in &dg.adj {
            if u as usize >= n_local {
                counts[u as usize - n_local] += 1;
            }
        }
        let mut ghost_adj_x = Vec::with_capacity(n_ghost + 1);
        let mut running = 0usize;
        ghost_adj_x.push(running);
        for &c in &counts {
            running += c;
            ghost_adj_x.push(running);
        }
        let mut ghost_adj = vec![0u32; running];
        let mut cursor = ghost_adj_x.clone();
        for v in 0..n_local as u32 {
            for &u in dg.neighbors(v) {
                if u as usize >= n_local {
                    let gi = u as usize - n_local;
                    ghost_adj[cursor[gi]] = v;
                    cursor[gi] += 1;
                }
            }
        }

        HaloView {
            n_local,
            n_ghost,
            boundary,
            ghost_adj_x,
            ghost_adj,
        }
    }
}

/// Sorts each owned row of `dg` in place, `adj` and `weights` together:
/// neighbors by descending weight (1.0 on an unweighted slice), ties
/// broken by ascending *global* id so every rank orders shared edges
/// identically (the paper's smallest-label tie-break). The key is a
/// total order on a row, so sorting a sorted slice changes nothing.
pub fn sort_rows_by_weight(dg: &mut DistGraph) {
    let weighted = !dg.weights.is_empty();
    let mut row: Vec<(Weight, VertexId, u32)> = Vec::new();
    for v in 0..dg.n_local {
        row.clear();
        row.extend(
            dg.neighbors_weighted(v as u32)
                .map(|(u, w)| (w, dg.global_ids[u as usize], u)),
        );
        row.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        for (i, &(w, _, u)) in (dg.xadj[v]..).zip(&row) {
            dg.adj[i] = u;
            if weighted {
                dg.weights[i] = w;
            }
        }
    }
}

/// Iterates the owner ranks of the ghost neighbors of owned vertex `v`
/// (with repeats — callers that need each owner once dedup via
/// `NeighborExchange`'s stamps, one per rank of the slice's
/// `neighbor_ranks`, which holds every owner yielded here). The canonical
/// input to a per-vertex boundary publish.
pub fn ghost_neighbor_owners<'a>(dg: &'a DistGraph, v: u32) -> impl Iterator<Item = Rank> + 'a {
    dg.neighbors(v)
        .iter()
        .filter(|&&u| dg.is_ghost(u))
        .map(|&u| dg.owner(u))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple::{block_partition, grid2d_partition, hash_partition};
    use crate::Partition;
    use cmg_graph::generators::grid2d;
    use cmg_graph::weights::{assign_weights, WeightScheme};
    use cmg_graph::CsrGraph;

    #[test]
    fn interior_and_boundary_partition_owned() {
        let g = grid2d(6, 6);
        let p = grid2d_partition(6, 6, 2, 2);
        for dg in DistGraph::build_all(&g, &p) {
            let halo = HaloView::build(&dg);
            // `boundary` is exactly the flagged owned vertices, in
            // ascending order; every other owned vertex is interior. A
            // flag is set exactly on a row with a ghost neighbor.
            let flagged: Vec<u32> = (0..dg.n_local as u32)
                .filter(|&v| dg.is_boundary[v as usize])
                .collect();
            assert_eq!(halo.boundary, flagged);
            for v in 0..dg.n_local as u32 {
                let has_ghost = dg.neighbors(v).iter().any(|&u| dg.is_ghost(u));
                assert_eq!(dg.is_boundary[v as usize], has_ghost, "vertex {v}");
            }
            assert_eq!(halo.boundary.len(), dg.num_boundary());
            assert!(halo.boundary.windows(2).all(|w| w[0] < w[1]));
            // A 3 × 3 block of a 2 × 2 grid split has both kinds.
            assert!(!halo.boundary.is_empty() && halo.boundary.len() < dg.n_local);
        }
    }

    #[test]
    fn ghost_reverse_adjacency_inverts_cross_edges() {
        let g = grid2d(8, 8);
        let p = block_partition(64, 4);
        for dg in DistGraph::build_all(&g, &p) {
            let halo = HaloView::build(&dg);
            assert_eq!(halo.n_ghost, dg.n_ghost());
            let mut cross_from_fwd = 0usize;
            for v in 0..dg.n_local as u32 {
                for &u in dg.neighbors(v) {
                    if dg.is_ghost(u) {
                        cross_from_fwd += 1;
                        let gi = u as usize - dg.n_local;
                        let row = halo.ghost_adj_x[gi]..halo.ghost_adj_x[gi + 1];
                        assert!(
                            halo.ghost_adj[row].contains(&v),
                            "cross edge ({v},{u}) missing from reverse CSR"
                        );
                    }
                }
            }
            assert_eq!(halo.ghost_adj.len(), cross_from_fwd);
            assert_eq!(halo.ghost_adj_x.len(), dg.n_ghost() + 1);
        }
    }

    #[test]
    fn empty_and_ghost_free_ranks_are_total() {
        // 3 vertices over 4 ranks: rank 3 owns nothing.
        let g = grid2d(1, 3);
        let p = block_partition(3, 4);
        let parts = DistGraph::build_all(&g, &p);
        let halo = HaloView::build(&parts[3]);
        assert_eq!(halo.n_local, 0);
        assert_eq!(halo.n_ghost, 0);
        assert!(halo.ghost_adj.is_empty());
        assert_eq!(halo.ghost_adj_x, vec![0]);
        // Single rank: ghosts absent but owned vertices present.
        let p1 = Partition::single(3);
        let dg = &DistGraph::build_all(&g, &p1)[0];
        let halo = HaloView::build(dg);
        assert_eq!(halo.n_local, 3);
        assert!(halo.boundary.is_empty());
        // All three are interior: no boundary flag is set.
        assert_eq!(dg.is_boundary, vec![false; 3]);
    }

    /// Row `v` of `dg` as `(neighbor, weight bits)` pairs in stored
    /// order (bits, so that NaN and ±0.0 compare exactly).
    fn row(dg: &DistGraph, v: u32) -> Vec<(u32, u64)> {
        dg.neighbors_weighted(v)
            .map(|(u, w)| (u, w.to_bits()))
            .collect()
    }

    /// Sorts every slice of `g` under `p` in place and checks each row
    /// against a comparison sort of its `(weight, global id, local)`
    /// tuples under `f64::total_cmp` — the definition of the row order —
    /// then checks that a second sort changes nothing.
    fn assert_rows_follow_the_definition(g: &CsrGraph, p: &Partition) {
        for mut dg in DistGraph::build_all(g, p) {
            let before: Vec<Vec<(u32, u64)>> =
                (0..dg.n_local as u32).map(|v| row(&dg, v)).collect();
            sort_rows_by_weight(&mut dg);
            for (v, unsorted) in (0..dg.n_local as u32).zip(&before) {
                let mut want: Vec<(Weight, VertexId, u32)> = unsorted
                    .iter()
                    .map(|&(u, w)| (f64::from_bits(w), dg.global_ids[u as usize], u))
                    .collect();
                want.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                let want: Vec<(u32, u64)> =
                    want.iter().map(|&(w, _, u)| (u, w.to_bits())).collect();
                let got = row(&dg, v);
                assert_eq!(got, want, "row {v} of rank {}", dg.rank);
                // Descending weight, ties by ascending global id.
                assert!(got.windows(2).all(|w| {
                    let (a, b) = (f64::from_bits(w[0].1), f64::from_bits(w[1].1));
                    let (ga, gb) = (
                        dg.global_ids[w[0].0 as usize],
                        dg.global_ids[w[1].0 as usize],
                    );
                    a.total_cmp(&b).then(gb.cmp(&ga)).is_gt()
                }));
                // The same (neighbor, weight) pairs as before the sort.
                let (mut a, mut b) = (got.clone(), unsorted.clone());
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "row {v} of rank {}", dg.rank);
            }
            let (adj, weights) = (dg.adj.clone(), dg.weights.clone());
            let xadj = dg.xadj.clone();
            sort_rows_by_weight(&mut dg);
            assert_eq!((dg.xadj.clone(), dg.adj.clone()), (xadj, adj));
            let bits = |ws: &[Weight]| ws.iter().map(|w| w.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&dg.weights), bits(&weights));
        }
    }

    #[test]
    fn weight_sorted_rows_descend_with_global_id_ties() {
        let g = assign_weights(&grid2d(5, 5), WeightScheme::Uniform { lo: 0.0, hi: 1.0 }, 3);
        assert_rows_follow_the_definition(&g, &block_partition(25, 3));
        // All-equal weights: the global id alone orders every row.
        let g = assign_weights(&grid2d(5, 5), WeightScheme::Equal(0.5), 0);
        assert_rows_follow_the_definition(&g, &block_partition(25, 3));
        // Unweighted: every weight 1.0.
        assert_rows_follow_the_definition(&grid2d(5, 5), &block_partition(25, 2));
        // A hub of degree 40 (past any small-sort cutoff) whose spokes
        // carry the weights a packed or bit-trick key would most easily
        // order differently from `total_cmp`: ±0.0,
        // negative, subnormal, infinite and NaN, each value on several
        // spokes so ties fall to the global id; the hub's neighbors are
        // spread over three ranks.
        let tricky = [
            0.0,
            -0.0,
            -1.5,
            1.5,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MAX,
            -f64::MAX,
        ];
        let mut b = cmg_graph::GraphBuilder::new(41);
        for s in 1..41u32 {
            b.add_edge(0, s, tricky[(s as usize * 7) % tricky.len()]);
        }
        let hub = b.build();
        assert_rows_follow_the_definition(&hub, &block_partition(41, 1));
        assert_rows_follow_the_definition(&hub, &hash_partition(41, 3, 9));
    }

    #[test]
    fn unweighted_rows_order_by_global_id() {
        // Hashed ranks number ghosts in the order they are first met, so
        // a row ordered by local index would break the global order.
        let g = grid2d(6, 6);
        for mut dg in DistGraph::build_all(&g, &hash_partition(36, 3, 4)) {
            sort_rows_by_weight(&mut dg);
            assert!(dg.weights.is_empty());
            for v in 0..dg.n_local as u32 {
                let gids: Vec<VertexId> = dg
                    .neighbors(v)
                    .iter()
                    .map(|&u| dg.global_ids[u as usize])
                    .collect();
                assert!(gids.windows(2).all(|w| w[0] < w[1]), "row {v}: {gids:?}");
            }
        }
    }

    #[test]
    fn ghost_owner_iteration_matches_manual_scan() {
        let g = grid2d(6, 6);
        let p = block_partition(36, 3);
        for dg in DistGraph::build_all(&g, &p) {
            for v in 0..dg.n_local as u32 {
                let got: Vec<Rank> = ghost_neighbor_owners(&dg, v).collect();
                let want: Vec<Rank> = dg
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| dg.is_ghost(u))
                    .map(|&u| dg.owner(u))
                    .collect();
                assert_eq!(got, want);
                assert_eq!(!got.is_empty(), dg.is_boundary[v as usize]);
            }
        }
    }
}
