//! Halo views: precomputed owned/ghost indexing over a [`DistGraph`].
//!
//! Every distributed algorithm in the workspace starts from the same
//! derived structures — which owned vertices are interior vs boundary,
//! and which owned vertices touch each ghost (the reverse
//! cross-adjacency needed to propagate "this ghost changed" to the
//! owned vertices that care). Each rank program used to rebuild these
//! privately; [`HaloView`] computes them once, totally (no partial
//! indexing), and the algorithms share the result. Its ascending
//! `boundary` list doubles as a dense index of the boundary vertices:
//! `DistMatching` keeps pending proposals for those alone, since only a
//! boundary vertex can be proposed to across a cut edge.
//!
//! The weight-sorted adjacency the matching programs walk comes from
//! [`weight_sorted_csr`] (order only) or [`weight_sorted_csr_weighted`]
//! (with the weights in that order, for programs that compare them):
//! the half-approximation needs only the order, so it builds no weight
//! column. Neither these nor the halo look a global id up — everything
//! here is indexed by local index.

use crate::dist::{DistGraph, Rank};
use cmg_graph::{VertexId, Weight};

/// Precomputed halo structure of one rank's [`DistGraph`]: boundary /
/// interior vertex lists and the ghost reverse cross-adjacency CSR.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HaloView {
    /// Number of owned vertices (mirrors `DistGraph::n_local`).
    pub n_local: usize,
    /// Number of ghost vertices.
    pub n_ghost: usize,
    /// Owned interior vertices (no ghost neighbor), ascending local index.
    pub interior: Vec<u32>,
    /// Owned boundary vertices (≥ 1 ghost neighbor), ascending local index.
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

        let mut interior = Vec::with_capacity(n_local - dg.num_boundary());
        let mut boundary = Vec::with_capacity(dg.num_boundary());
        for (v, &b) in dg.is_boundary.iter().enumerate() {
            if b {
                boundary.push(v as u32);
            } else {
                interior.push(v as u32);
            }
        }

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
            interior,
            boundary,
            ghost_adj_x,
            ghost_adj,
        }
    }

    /// Splits a *global* dirty predicate into this rank's owned dirty
    /// local indices, interior first then boundary (each ascending).
    /// The warm-start plumbing: a serving layer computes one global
    /// dirty set, and every rank derives its own repair worklist from
    /// it — interior-first matches the cold-start local order, and
    /// boundary-last keeps the speculative window (where cross-rank
    /// conflicts can arise) as late as possible.
    pub fn dirty_split(&self, dg: &DistGraph, dirty: impl Fn(VertexId) -> bool) -> Vec<u32> {
        self.interior
            .iter()
            .chain(self.boundary.iter())
            .copied()
            .filter(|&v| dirty(dg.global_ids[v as usize]))
            .collect()
    }
}

/// Builds a weight-sorted adjacency CSR over `dg`'s owned vertices:
/// within each row, neighbors ordered by descending weight, ties broken
/// by ascending *global* id so every rank orders shared edges
/// identically (the paper's smallest-label tie-break). Returns
/// `(sxadj, sadj)`.
pub fn weight_sorted_csr(dg: &DistGraph) -> (Vec<usize>, Vec<u32>) {
    let (sxadj, sadj, _) = sort_rows(dg, false);
    (sxadj, sadj)
}

/// [`weight_sorted_csr`] plus `sweights`, with `sweights[i]` the weight
/// of the edge to `sadj[i]` (1.0 throughout if the graph is unweighted).
pub fn weight_sorted_csr_weighted(dg: &DistGraph) -> (Vec<usize>, Vec<u32>, Vec<Weight>) {
    sort_rows(dg, true)
}

fn sort_rows(dg: &DistGraph, with_weights: bool) -> (Vec<usize>, Vec<u32>, Vec<Weight>) {
    let n_local = dg.n_local;
    let mut sxadj = Vec::with_capacity(n_local + 1);
    sxadj.push(0usize);
    let mut sadj = Vec::with_capacity(dg.adj.len());
    let mut sweights = Vec::with_capacity(if with_weights { dg.adj.len() } else { 0 });
    let mut row: Vec<(Weight, VertexId, u32)> = Vec::new();
    for v in 0..n_local as u32 {
        row.clear();
        row.extend(
            dg.neighbors_weighted(v)
                .map(|(u, w)| (w, dg.global_ids[u as usize], u)),
        );
        row.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        sadj.extend(row.iter().map(|&(_, _, u)| u));
        if with_weights {
            sweights.extend(row.iter().map(|&(w, _, _)| w));
        }
        sxadj.push(sadj.len());
    }
    (sxadj, sadj, sweights)
}

/// Iterates the owner ranks of the ghost neighbors of owned vertex `v`
/// (with repeats — callers that need each owner once dedup via
/// `NeighborExchange`'s stamps). The canonical input to a per-vertex
/// boundary publish.
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
            assert_eq!(halo.interior.len() + halo.boundary.len(), dg.n_local);
            assert_eq!(halo.boundary.len(), dg.num_boundary());
            for &v in &halo.boundary {
                assert!(dg.is_boundary[v as usize]);
            }
            for &v in &halo.interior {
                assert!(!dg.is_boundary[v as usize]);
            }
            // Both lists ascend (stable split of 0..n_local).
            assert!(halo.interior.windows(2).all(|w| w[0] < w[1]));
            assert!(halo.boundary.windows(2).all(|w| w[0] < w[1]));
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
        let halo = HaloView::build(&DistGraph::build_all(&g, &p1)[0]);
        assert_eq!(halo.interior.len(), 3);
        assert!(halo.boundary.is_empty());
    }

    /// Checks both sorted CSRs of every slice of `g` under `p` against a
    /// comparison sort of `(weight, global id, local)` tuples under
    /// `f64::total_cmp` — the definition of the row order.
    fn assert_rows_follow_the_definition(g: &CsrGraph, p: &Partition) {
        for dg in DistGraph::build_all(g, p) {
            let (sxadj, sadj, sweights) = weight_sorted_csr_weighted(&dg);
            assert_eq!(weight_sorted_csr(&dg), (sxadj.clone(), sadj.clone()));
            assert_eq!(sxadj.len(), dg.n_local + 1);
            for v in 0..dg.n_local as u32 {
                let mut row: Vec<(Weight, VertexId, u32)> = dg
                    .neighbors_weighted(v)
                    .map(|(u, w)| (w, dg.global_ids[u as usize], u))
                    .collect();
                row.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                let (lo, hi) = (sxadj[v as usize], sxadj[v as usize + 1]);
                let want: Vec<u32> = row.iter().map(|&(_, _, u)| u).collect();
                assert_eq!(sadj[lo..hi], want[..], "row {v} of rank {}", dg.rank);
                // Bit-equal weights, so -0.0 stays -0.0 and NaN stays NaN.
                let got: Vec<u64> = sweights[lo..hi].iter().map(|w| w.to_bits()).collect();
                let want: Vec<u64> = row.iter().map(|&(w, _, _)| w.to_bits()).collect();
                assert_eq!(got, want, "row {v} of rank {}", dg.rank);
            }
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
    fn unweighted_graph_gets_unit_weights() {
        let g = grid2d(3, 3);
        let p = block_partition(9, 2);
        let dg = &DistGraph::build_all(&g, &p)[0];
        let (_, _, sweights) = weight_sorted_csr_weighted(dg);
        assert!(sweights.iter().all(|&w| w == 1.0));
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
